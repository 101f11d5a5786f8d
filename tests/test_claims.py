"""Data model, CSV round trips, splits, and triangle aggregation."""

import io
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from granres import (
    CLAIM_TYPES,
    ClaimRecord,
    PaymentEvent,
    Portfolio,
    aggregate_triangle,
    censor,
    chain_ladder_reserve,
    ingest_csv_report,
    parse_iso,
    write_csv,
)
from helpers import assert_same_portfolio, ingest_csv_report_loop, records_portfolio


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
    return records_portfolio(claims, parse_iso("2019-12-31"))


def _one_claim(cid, code, acc, rep, pays, cutoff):
    return Portfolio(
        [cid], [code], [acc], [rep], [len(pays)], [d for d, _ in pays], [a for _, a in pays],
        cutoff,
    )


def _from_records(cid, code, acc, rep, pays, cutoff):
    # the same claim as a ClaimRecord; a code outside CLAIM_TYPES has no
    # name and stays a code
    ctype = CLAIM_TYPES[code] if 0 <= code < len(CLAIM_TYPES) else code
    payments = tuple(PaymentEvent(d, a) for d, a in pays)
    return records_portfolio((ClaimRecord(cid, ctype, acc, rep, payments),), cutoff)


@pytest.mark.parametrize("build", [_from_records, _one_claim], ids=["records", "columns"])
def test_claim_record_validation(build):
    # the checks and messages of the one constructor, which ingest and
    # synthesis call, whether the claim is written as columns or as a
    # ClaimRecord; type codes index CLAIM_TYPES
    cases = [
        (("x", 2, 0, 1, ()), "unknown claim_type 2"),
        (("x", -1, 0, 1, ()), "unknown claim_type -1"),
        (("x", 0, 10, 5, ()), "claim x: reporting day 5 before accident day 10"),
        (("x", 0, 0, 10, ((5, 1.0),)), "claim x: payment before reporting day"),
        (("x", 0, 0, 1, ((5, 0.0),)), "payment amount must be nonzero"),
        (("x", 0, 0, 1, ((5, math.nan),)), "payment amount must be finite"),
        (("x", 0, 0, 1, ((5, -math.inf),)), "payment amount must be finite"),
        (("z", 0, 5, 20, ()), "claim z: date 20 beyond data cutoff 10"),
        (("z", 0, 5, 6, ((11, 1.0),)), "claim z: date 11 beyond data cutoff 10"),
    ]
    for claim, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            build(*claim, 10)
    assert len(build("x", 0, 0, 1, ((5, -1.0),), 10)) == 1


def test_portfolio_sorts_payments_in_the_record_view():
    p = _one_claim("x", 0, 0, 1, ((9, 2.0), (3, 1.0)), 10)
    (c,) = p.claims
    pays = (PaymentEvent(3, 1.0), PaymentEvent(9, 2.0))
    assert c == ClaimRecord("x", "bodily_injury", 0, 1, pays)
    assert sum(p.amount for p in c.payments) == 3.0
    assert c.delay_days() == 1


def test_portfolio_orders_claims_and_checks_cutoff():
    a = ClaimRecord("b", "bodily_injury", 5, 6)
    b = ClaimRecord("a", "bodily_injury", 5, 6)
    c = ClaimRecord("c", "material_damage", 2, 3)
    p = records_portfolio((a, b, c), 10)
    assert [x.claim_id for x in p.claims] == ["c", "a", "b"]
    assert p.claim_types == ("bodily_injury", "material_damage")
    assert len(p.by_type("material_damage")) == 1
    assert p.by_type("material_damage").claims == (c,)
    with pytest.raises(ValueError, match="unknown claim types \\['materal_damage'\\]"):
        p.by_type("bodily_injury", "materal_damage")
    with pytest.raises(ValueError, match="beyond data cutoff"):
        records_portfolio((ClaimRecord("z", "bodily_injury", 5, 20),), 10)


def _ingest(text, **kwargs):
    return ingest_csv_report(io.StringIO(text), **kwargs)


def test_csv_round_trip(small_portfolio):
    buf = io.StringIO()
    write_csv(small_portfolio, buf)
    back, _ = _ingest(buf.getvalue(), cutoff=small_portfolio.data_cutoff)
    assert back.claims == small_portfolio.claims
    assert back.data_cutoff == small_portfolio.data_cutoff


def test_csv_round_trip_through_path_objects(small_portfolio, tmp_path):
    # str and os.PathLike destinations are opened and closed by the call
    path = tmp_path / "portfolio.csv"
    write_csv(small_portfolio, path)
    for source in (path, str(path)):
        back, _ = ingest_csv_report(source, cutoff=small_portfolio.data_cutoff)
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
    back, _ = _ingest(text)
    c3 = next(c for c in back.claims if c.claim_id == "c3")
    assert c3.payments == ()


def test_ingest_infers_cutoff_from_latest_date(small_portfolio):
    buf = io.StringIO()
    write_csv(small_portfolio, buf)
    back, _ = _ingest(buf.getvalue())
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
        "b7,bodily_injury,2018-01-01,2018-01-05,2018-02-01,nan",  # not finite
        "b8,bodily_injury,2018-01-01,2018-01-05,2018-02-01,inf",
        "b9,bodily_injury,2018-01-01,2018-01-05,2018-02-01,-inf",
        "b10,bodily_injury,20180101,2018-01-05,2018-02-01,100.00",  # not YYYY-MM-DD
        "b11,bodily_injury,2018-01-01,2018-W01-5,2018-02-01,100.00",
        "b12,bodily_injury,2018-01-01,2018-01-05,20180201,100.00",
    ]
    diag = io.StringIO()
    p, report = _ingest(header + "\n".join(rows) + "\n", diagnostics=diag)
    assert {c.claim_id for c in p.claims} == {"g1", "g2"}
    assert report.rejected_rows == 12
    assert report.negative_amounts == 1
    assert report.duplicate_rows == 1
    assert len(diag.getvalue().splitlines()) == 14
    for line in (11, 12, 13, 16):
        assert f"line {line}: malformed payment fields (row rejected)" in report.messages
    for line in (14, 15):
        assert f"line {line}: malformed date (row rejected)" in report.messages
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
    p, _ = _ingest(header + "\n".join(rows) + "\n")
    assert [c.claim_id for c in p.claims] == ["z", "a", "b", "s"]
    # a claim whose days step back is sorted by (day, amount), as
    # the constructor sorts it; same-day rows of an ordered claim keep file order
    assert p.pay_ptr.tolist() == [0, 1, 1, 4, 6]
    assert p.pay_amounts.tolist() == [5.0, 10.0, 20.0, 30.0, 20.0, 10.0]
    feb, mar = parse_iso("2018-02-01"), parse_iso("2018-03-01")
    assert p.pay_days.tolist()[1:] == [feb, feb, mar, feb, feb]
    assert_same_portfolio(records_portfolio(p.claims, p.data_cutoff), p)


def test_ingest_rejects_claim_with_inconsistent_header_rows():
    text = (
        "claim_id,claim_type,accident_date,reporting_date,payment_date,amount\n"
        "c1,bodily_injury,2018-01-01,2018-01-05,2018-02-01,10.00\n"
        "c1,bodily_injury,2018-01-02,2018-01-05,2018-03-01,10.00\n"
    )
    p, report = _ingest(text, diagnostics=io.StringIO())
    assert len(p.claims) == 0
    assert report.rejected_claims == 1


def test_parse_iso_takes_only_yyyy_mm_dd():
    assert parse_iso("2018-01-01") == 6575
    for text in ("20180101", "2018-W01-1", "2018-001", "2018-1-01", " 2018-01-01",
                 "2018-01-01T00:00", "\uff12\uff10\uff11\uff18-01-01", "2018-02-30"):
        with pytest.raises(ValueError):
            parse_iso(text)


def test_ingest_reads_utf8_with_a_byte_order_mark(small_portfolio, tmp_path):
    # as a spreadsheet saves it; paths are written as UTF-8 whatever the locale
    named = records_portfolio(
        (*small_portfolio.claims, _claim("d\u00e9j\u00e0", "bodily_injury", "2019-01-01",
                                         "2019-01-02")),
        small_portfolio.data_cutoff,
    )
    path = tmp_path / "portfolio.csv"
    write_csv(named, path)
    data = path.read_bytes()
    assert "d\u00e9j\u00e0".encode("utf-8") in data and not data.startswith(b"\xef\xbb\xbf")
    path.write_bytes(b"\xef\xbb\xbf" + data)
    back, report = ingest_csv_report(path, cutoff=named.data_cutoff)
    assert_same_portfolio(back, named)
    assert report.rejected_rows == 0


def test_ingest_matches_the_row_loop_on_every_rule():
    text = "\n".join([
        "claim_id,claim_type,accident_date,reporting_date,payment_date,amount",
        "d1,bodily_injury,2018-01-01,2018-01-05,2018-01-02,10.00",
        "d1,bodily_injury,2018-01-01,2018-01-05,2018-01-02,10.00",  # duplicate, rejected
        "e1,material_damage,2018-01-01,2018-01-05,2018-02-01,10.00",
        "e1,material_damage,2018-01-02,2018-01-05,2018-02-01,-5",  # negative, inconsistent
        "e1,material_damage,2018-01-02,2018-01-05,2018-02-01,-5",  # and a duplicate
        "f1,bodily_injury,2018-01-01,2018-01-05,2018-02-01,0",  # rejected first row
        "f1,bodily_injury,2018-01-03,2018-01-05,2018-02-01,7.5",  # registers f1
        "g1,bodily_injury,2018-01-01,2018-01-05,2019-06-01,1.00",  # the latest date
        "g1,material_damage,2018-01-01,2018-01-05,2018-02-01,1.00",  # rejects g1
        "",  # blank rows at any field count are skipped, not counted
        "   ",
        " , ,\t,,, ",
        ",,",
        '"h,1",bodily_injury,2018-01-01,2018-01-05,2018-02-01,3.00',
        '"h""2",Bodily Injury,2018-01-01,2018-01-05,,',
        "h3,bodily_injury,20180101,2018-01-05,2018-02-01,1.00",
    ]) + "\n"
    diag, loop_diag = io.StringIO(), io.StringIO()
    p, report = _ingest(text, diagnostics=diag)
    q, loop_report = ingest_csv_report_loop(io.StringIO(text), diagnostics=loop_diag)
    assert_same_portfolio(p, q)
    assert report == loop_report and diag.getvalue() == loop_diag.getvalue()
    assert report.messages == [
        "line 2: payment_date 2018-01-02 before reporting_date 2018-01-05 (row rejected)",
        "line 3: duplicate row for claim d1 (kept)",
        "line 3: payment_date 2018-01-02 before reporting_date 2018-01-05 (row rejected)",
        "line 5: negative amount -5 for claim e1 (kept, flagged)",
        "line 5: claim e1 has inconsistent type or dates across rows (claim rejected)",
        "line 6: duplicate row for claim e1 (kept)",
        "line 6: negative amount -5 for claim e1 (kept, flagged)",
        "line 6: claim e1 has inconsistent type or dates across rows (claim rejected)",
        "line 7: zero amount (row rejected)",
        "line 10: claim g1 has inconsistent type or dates across rows (claim rejected)",
        "line 17: malformed date (row rejected)",
    ]
    counts = ("rows", "claims", "rejected_rows", "rejected_claims", "negative_amounts",
              "duplicate_rows")
    assert [getattr(report, k) for k in counts] == [12, 3, 7, 2, 2, 2]
    assert {type(getattr(report, k)) for k in counts} == {int}
    assert sorted(p.claim_ids.tolist()) == ["f1", 'h"2', "h,1"]
    assert p.accident_days[p.claim_ids == "f1"].tolist() == [parse_iso("2018-01-03")]
    # the rejected claim g1's consistent row still sets the inferred cutoff
    assert p.data_cutoff == parse_iso("2019-06-01")


def test_ingest_numbers_a_row_by_its_first_line_in_the_input(tmp_path):
    # quoted ids that hold a line break, \n or \r\n, one in each chunk of rows
    filler = [f"g{i},bodily_injury,2018-01-01,2018-01-05,," for i in range(4100)]
    text = "\n".join([
        "claim_id,claim_type,accident_date,reporting_date,payment_date,amount",
        '"x\ny",bodily_injury,2018-01-01,2018-01-05,2018-02-01,10.00',  # lines 2-3
        "h1,hail,2018-01-01,2018-01-05,2018-02-01,10.00",
        *filler,  # lines 5 to 4104
        '"p\r\nq",material_damage,2018-01-01,2018-01-05,,',  # lines 4105-4106
        "h2,hail,2018-01-01,2018-01-05,2018-02-01,10.00",
    ]) + "\n"
    want = [f"line {n}: unknown claim_type 'hail' (row rejected)" for n in (4, 4107)]
    path = tmp_path / "portfolio.csv"
    path.write_bytes(text.encode())
    for ingest in (ingest_csv_report, ingest_csv_report_loop):
        for source in (path, io.StringIO(text)):
            p, report = ingest(source, diagnostics=io.StringIO())
            assert report.messages == want
            assert {"x\ny", "p\r\nq"} <= set(p.claim_ids.tolist()) and len(p) == 4102


def test_ingest_requires_exact_header():
    with pytest.raises(ValueError, match="unexpected CSV header"):
        _ingest("id,b,c,d,e,f\n", diagnostics=io.StringIO())
    with pytest.raises(ValueError, match="missing CSV header"):
        _ingest("", diagnostics=io.StringIO())


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


def test_triangle_granularity_two(small_portfolio):
    tri = aggregate_triangle(small_portfolio, granularity=2)
    assert tri.origin_years == (2018,)
    assert_allclose(tri.cells, [[230.0]])


def test_triangle_origins_end_with_the_cutoff_year():
    # five accident years at granularity 2: the origins are counted back from
    # 2020, so the last one, 2019-2020, has an observable first column
    claims = (
        _claim("a", "bodily_injury", "2016-03-01", "2016-03-05",
               [("2016-06-01", 10.0), ("2018-02-01", 5.0)]),
        _claim("b", "material_damage", "2017-05-01", "2017-05-02",
               [("2017-07-01", 20.0), ("2019-03-01", 4.0)]),
        _claim("d", "material_damage", "2018-01-10", "2018-01-12", [("2020-05-01", 2.0)]),
        _claim("c", "bodily_injury", "2020-02-01", "2020-02-03", [("2020-04-01", 30.0)]),
    )
    tri = aggregate_triangle(records_portfolio(claims, parse_iso("2020-12-31")), granularity=2)
    assert tri.origin_years == (2015, 2017, 2019)
    assert_allclose(tri.cells, [[10.0, 15.0, 15.0], [20.0, 26.0, np.nan], [30.0, np.nan, np.nan]])
    cl = chain_ladder_reserve(tri)
    assert_allclose(cl["factors"], [41.0 / 30.0, 1.0], rtol=1e-15)
    assert_allclose(cl["total_reserve"], 11.0, rtol=1e-12)


def test_triangle_csv_format(small_portfolio):
    tri = aggregate_triangle(small_portfolio)
    buf = io.StringIO()
    tri.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "origin,dev_0,dev_1"
    assert lines[1] == "2018,100.00,150.00"
    assert lines[2] == "2019,80.00,"


def test_triangle_rejects_bad_inputs(small_portfolio):
    with pytest.raises(ValueError, match="granularity"):
        aggregate_triangle(small_portfolio, granularity=0)
    with pytest.raises(ValueError, match="empty portfolio"):
        aggregate_triangle(records_portfolio((), 10))
