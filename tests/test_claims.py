"""Data model, CSV round trips, splits, and triangle aggregation."""

import io
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from granres import (
    ClaimRecord,
    PaymentEvent,
    Portfolio,
    RunOffTriangle,
    aggregate_triangle,
    censor,
    ingest_csv,
    ingest_csv_report,
    parse_iso,
    write_csv,
)


def _claim(cid, ctype, acc, rep, pays=()):
    return ClaimRecord(
        cid,
        ctype,
        parse_iso(acc),
        parse_iso(rep),
        tuple(PaymentEvent(parse_iso(d), a) for d, a in pays),
    )


@pytest.fixture()
def small_portfolio():
    claims = (
        _claim(
            "c1",
            "bodily_injury",
            "2018-03-01",
            "2018-03-11",
            [("2018-06-01", 100.0), ("2019-02-01", 50.0)],
        ),
        _claim("c2", "material_damage", "2019-05-01", "2019-05-02", [("2019-07-01", 80.0)]),
        _claim("c3", "bodily_injury", "2019-08-15", "2019-11-20"),
    )
    return Portfolio(claims, parse_iso("2019-12-31"))


def test_payment_event_rejects_zero_amount():
    with pytest.raises(ValueError):
        PaymentEvent(10, 0.0)


def _from_records(cid, ctype, acc, rep, pays, cutoff):
    payments = tuple(PaymentEvent(d, a) for d, a in pays)
    return Portfolio((ClaimRecord(cid, ctype, acc, rep, payments),), cutoff)


def _from_columns(cid, ctype, acc, rep, pays, cutoff):
    return Portfolio._from_columns(
        [cid],
        [ctype],
        [acc],
        [rep],
        [len(pays)],
        [d for d, _ in pays],
        [a for _, a in pays],
        cutoff,
    )


@pytest.mark.parametrize("build", [_from_records, _from_columns], ids=["records", "columns"])
def test_claim_record_validation(build):
    # the same checks and messages whether the claims arrive as ClaimRecords
    # or as the columns that ingest and synthesis build
    cases = [
        (("x", "hail", 0, 1, ()), "unknown claim_type 'hail'"),
        (("x", "bodily_injury", 10, 5, ()), "claim x: reporting day 5 before accident day 10"),
        (("x", "bodily_injury", 0, 10, ((5, 1.0),)), "claim x: payment before reporting day"),
        (("x", "bodily_injury", 0, 1, ((5, 0.0),)), "payment amount must be nonzero"),
        (("z", "bodily_injury", 5, 20, ()), "claim z: date 20 beyond data cutoff 10"),
        (("z", "bodily_injury", 5, 6, ((11, 1.0),)), "claim z: date 11 beyond data cutoff 10"),
    ]
    for claim, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            build(*claim, 10)
    assert len(build("x", "bodily_injury", 0, 1, ((5, -1.0),), 10)) == 1


def test_claim_record_sorts_payments_and_sums_paid():
    c = ClaimRecord(
        "x",
        "bodily_injury",
        0,
        1,
        (PaymentEvent(9, 2.0), PaymentEvent(3, 1.0)),
    )
    assert [p.day for p in c.payments] == [3, 9]
    assert c.paid == 3.0
    assert c.delay_days() == 1


def test_portfolio_orders_claims_and_checks_cutoff():
    a = ClaimRecord("b", "bodily_injury", 5, 6)
    b = ClaimRecord("a", "bodily_injury", 5, 6)
    c = ClaimRecord("c", "material_damage", 2, 3)
    p = Portfolio((a, b, c), 10)
    assert [x.claim_id for x in p.claims] == ["c", "a", "b"]
    assert p.claim_types == ("bodily_injury", "material_damage")
    assert len(p.by_type("material_damage")) == 1
    assert p.by_type("material_damage").claims == (c,)
    with pytest.raises(ValueError, match="beyond data cutoff"):
        Portfolio((ClaimRecord("z", "bodily_injury", 5, 20),), 10)


def test_csv_round_trip(small_portfolio):
    buf = io.StringIO()
    write_csv(small_portfolio, buf)
    back = ingest_csv(buf.getvalue(), cutoff=small_portfolio.data_cutoff)
    assert back.claims == small_portfolio.claims
    assert back.data_cutoff == small_portfolio.data_cutoff


def test_csv_round_trip_through_path_objects(small_portfolio, tmp_path):
    # str and os.PathLike destinations are opened and closed by the call
    path = tmp_path / "portfolio.csv"
    write_csv(small_portfolio, path)
    for source in (path, str(path)):
        back = ingest_csv(source, cutoff=small_portfolio.data_cutoff)
        assert back.claims == small_portfolio.claims
        again, report = ingest_csv_report(source)
        assert again.claims == small_portfolio.claims and report.rejected_rows == 0
    tri = tmp_path / "triangle.csv"
    aggregate_triangle(small_portfolio).to_csv(tri)
    assert tri.read_text().splitlines()[0] == "origin,dev_0,dev_1"


def test_paymentless_claim_survives_round_trip(small_portfolio):
    buf = io.StringIO()
    write_csv(small_portfolio, buf)
    text = buf.getvalue()
    marker_rows = [ln for ln in text.splitlines() if ln.endswith(",,")]
    assert len(marker_rows) == 1
    back = ingest_csv(text)
    c3 = next(c for c in back.claims if c.claim_id == "c3")
    assert c3.payments == ()


def test_ingest_infers_cutoff_from_latest_date(small_portfolio):
    buf = io.StringIO()
    write_csv(small_portfolio, buf)
    back = ingest_csv(buf.getvalue())
    assert back.data_cutoff == parse_iso("2019-11-20")


def test_ingest_rejects_bad_rows():
    header = "claim_id,claim_type,accident_date,reporting_date,payment_date,amount\n"
    rows = [
        "g1,bodily_injury,2018-01-01,2018-01-05,2018-02-01,100.00",  # good
        "b1,hail,2018-01-01,2018-01-05,2018-02-01,100.00",  # unknown type
        "b2,bodily_injury,2018-13-01,2018-01-05,2018-02-01,100.00",  # bad date
        "b3,bodily_injury,2018-01-10,2018-01-05,2018-02-01,100.00",  # report < accident
        "b4,bodily_injury,2018-01-01,2018-01-05,2018-01-02,100.00",  # pay < report
        "b5,bodily_injury,2018-01-01,2018-01-05,2018-02-01,0.00",  # zero amount
        "b6,bodily_injury,2018-01-01,2018-01-05,2018-02-01",  # 5 fields
        "g2,material_damage,2018-03-01,2018-03-02,2018-04-01,-25.00",  # kept, flagged
        "g1,bodily_injury,2018-01-01,2018-01-05,2018-02-01,100.00",  # duplicate, kept
    ]
    diag = io.StringIO()
    p, report = ingest_csv_report(header + "\n".join(rows) + "\n", diagnostics=diag)
    assert {c.claim_id for c in p.claims} == {"g1", "g2"}
    assert report.rejected_rows == 6
    assert report.negative_amounts == 1
    assert report.duplicate_rows == 1
    assert len(diag.getvalue().splitlines()) == 8
    g1 = next(c for c in p.claims if c.claim_id == "g1")
    assert len(g1.payments) == 2  # duplicate row kept


def test_ingest_orders_claims_and_payments():
    header = "claim_id,claim_type,accident_date,reporting_date,payment_date,amount\n"
    rows = [
        "b,bodily_injury,2018-01-01,2018-01-05,2018-03-01,30.00",
        "b,bodily_injury,2018-01-01,2018-01-05,2018-02-01,20.00",
        "b,bodily_injury,2018-01-01,2018-01-05,2018-02-01,10.00",
        "s,bodily_injury,2018-01-01,2018-01-05,2018-02-01,20.00",
        "s,bodily_injury,2018-01-01,2018-01-05,2018-02-01,10.00",
        "a,material_damage,2018-01-01,2018-01-02,,",
        "z,material_damage,2017-12-31,2018-01-02,2018-01-03,5.00",
    ]
    p = ingest_csv(header + "\n".join(rows) + "\n")
    assert [c.claim_id for c in p.claims] == ["z", "a", "b", "s"]
    # a claim whose days step back is sorted by (day, amount), as
    # ClaimRecord sorts it; same-day rows of an ordered claim keep file order
    assert p.pay_ptr.tolist() == [0, 1, 1, 4, 6]
    assert p.pay_amounts.tolist() == [5.0, 10.0, 20.0, 30.0, 20.0, 10.0]
    feb, mar = parse_iso("2018-02-01"), parse_iso("2018-03-01")
    assert p.pay_days.tolist()[1:] == [feb, feb, mar, feb, feb]
    assert Portfolio(p.claims, p.data_cutoff) == p


def test_ingest_rejects_claim_with_inconsistent_header_rows():
    text = (
        "claim_id,claim_type,accident_date,reporting_date,payment_date,amount\n"
        "c1,bodily_injury,2018-01-01,2018-01-05,2018-02-01,10.00\n"
        "c1,bodily_injury,2018-01-02,2018-01-05,2018-03-01,10.00\n"
    )
    p, report = ingest_csv_report(text, diagnostics=io.StringIO())
    assert len(p.claims) == 0
    assert report.rejected_claims == 1


def test_ingest_requires_exact_header():
    with pytest.raises(ValueError, match="unexpected CSV header"):
        ingest_csv(io.StringIO("id,b,c,d,e,f\n"), diagnostics=io.StringIO())
    with pytest.raises(ValueError, match="missing CSV header"):
        ingest_csv(io.StringIO(""), diagnostics=io.StringIO())


def test_censor_keeps_the_claims_reported_by_the_day(small_portfolio):
    day = parse_iso("2019-09-30")
    obs = censor(small_portfolio, day)
    assert {c.claim_id for c in obs.claims} == {"c1", "c2"}
    c1 = next(c for c in obs.claims if c.claim_id == "c1")
    assert len(c1.payments) == 2  # both paid before the day
    # c3 is unreported at the day: reported 2019-11-20 in the full portfolio
    c3 = next(c for c in small_portfolio.claims if c.claim_id == "c3")
    assert c3.reporting_day > day


def test_censor_drops_later_payments(small_portfolio):
    day = parse_iso("2018-12-31")
    obs = censor(small_portfolio, day)
    assert obs.data_cutoff == day
    assert {c.claim_id for c in obs.claims} == {"c1"}
    assert [p.amount for p in obs.claims[0].payments] == [100.0]


def test_triangle_hand_oracle(small_portfolio):
    tri = aggregate_triangle(small_portfolio)
    assert tri.origin_years == (2018, 2019)
    assert_allclose(tri.cells[0], [100.0, 150.0])
    assert tri.cells[1, 0] == 80.0
    assert np.isnan(tri.cells[1, 1])
    assert_allclose(tri.latest(), [150.0, 80.0])


def test_triangle_granularity_two(small_portfolio):
    tri = aggregate_triangle(small_portfolio, granularity=2)
    assert tri.origin_years == (2018,)
    assert_allclose(tri.cells, [[230.0]])


def test_triangle_csv_format(small_portfolio):
    tri = aggregate_triangle(small_portfolio)
    buf = io.StringIO()
    tri.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "origin,dev_0,dev_1"
    assert lines[1] == "2018,100.00,150.00"
    assert lines[2] == "2019,80.00,"


def test_triangle_latest_requires_observed_cells():
    tri = RunOffTriangle((2018,), 1, np.array([[np.nan]]))
    with pytest.raises(ValueError, match="no observed cells"):
        tri.latest()


def test_triangle_rejects_bad_inputs(small_portfolio):
    with pytest.raises(ValueError, match="granularity"):
        aggregate_triangle(small_portfolio, granularity=0)
    with pytest.raises(ValueError, match="empty portfolio"):
        aggregate_triangle(Portfolio((), 10))
