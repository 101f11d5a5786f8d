"""Two-level nested Archimedean coupling across claim types.

Each claim type carries its own bivariate copula for (delay score, count
score); an outer Archimedean copula D joins the two inner pairs:

    F(u1, u2, u3, u4) = D( C_A(u1, u2), C_B(u3, u4) )
                      = psi( phi(C_A(u1, u2)) + phi(C_B(u3, u4)) )

GranularModel, which holds the inner copulas, admits a nesting by one rule,
check_nesting: both inner families Archimedean (a Gaussian has no
generator), and an outer tau exceeding neither inner minimum tau (the
long-run one when time-varying); HacSpec admits only an outer tau > 0, as
an independent outer copula is no nesting (hac None). The tau rule is
necessary, not sufficient (Joe 1997, section 4.2; McNeil 2008): a nesting is
a copula when phi_outer(psi_inner) has a completely monotone derivative,
true within one family with theta_outer <= theta_inner, and not known for a
mixed one such as the archimedean preset, which the rule still admits.

Sampling is exact conditional inversion in the order u1, u2, u3, u4,
vectorized over rows: u2 by the first inner family's closed-form
h-inverse, u3 and u4 by invert_increasing, a bracketed solve (Chandrupatla's
method) that each row leaves once its own bracket closes. The conditional
cdfs take the outer generator's first three inverse derivatives, each inner
cdf psi(phi(u) + phi(v)) and density from its generator, and the
closed-form inner h-functions. Inner parameters may be time-varying (each
pair's may depend on the component drawn first), and u4 may be solved for
a subset of rows only: a reserve reads it only for the claims its window
keeps.

Claims of the two types are paired by accident day with match_days, within
MATCH_GAP_DAYS, both when the outer parameter is estimated and when the
claim law is simulated. Each claim is used at most once and takes the
nearest unused day, the earlier on a tie, at any density: each day's used
claims are a prefix in stable order, so a used count per day is the state.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..delays import delay_score
from .families import ARCHIMEDEAN, FAMILIES, invert_increasing

_LO, _HI = 1e-9, 1.0 - 1e-9
# the widest accident-day gap of a cross-type pair, in fit and simulation alike
MATCH_GAP_DAYS = 7
# the fewest matched cross-type pairs the outer parameter is estimated from
MIN_MATCHED_PAIRS = 20
# the slack of the nesting rule's tau comparison
NESTING_TOL = 1e-9


@dataclass(frozen=True)
class HacSpec:
    """The outer copula D of the nesting; the inner copulas are the types'."""

    outer_family: str
    outer_theta: float

    def __post_init__(self):
        if self.outer_family not in ARCHIMEDEAN:
            raise ValueError(
                f"outer family must be Archimedean {ARCHIMEDEAN}, got {self.outer_family!r}"
            )
        if self.outer_theta is None:
            raise ValueError(f"{self.outer_family} outer copula needs a parameter")
        lo, hi = FAMILIES[self.outer_family].theta_bounds
        if not (lo <= self.outer_theta <= hi and self.outer_tau() > 0.0):  # NaN fails too
            raise ValueError(
                f"{self.outer_family} outer parameter {self.outer_theta} is no nesting: "
                f"it must lie in [{lo}, {hi}] with tau > 0"
            )

    def outer_tau(self) -> float:
        return float(FAMILIES[self.outer_family].tau(self.outer_theta))

    def to_dict(self) -> dict:
        return {"outer_family": self.outer_family, "outer_theta": float(self.outer_theta)}


def hac_from_dict(d: dict) -> HacSpec:
    return HacSpec(outer_family=d["outer_family"], outer_theta=d.get("outer_theta"))


def check_nesting(spec, inner_a, inner_b):
    """The nesting rule: raise ValueError unless both inner CopulaSpecs are
    Archimedean and the outer tau of spec exceeds neither inner minimum tau
    by more than NESTING_TOL."""
    outer_tau = spec.outer_tau()
    for label, inner in zip(("first", "second"), (inner_a, inner_b)):
        if inner.family not in ARCHIMEDEAN:
            raise ValueError(
                f"the {label} inner copula is {inner.family}: a nesting takes only "
                f"Archimedean inner copulas {ARCHIMEDEAN}"
            )
        inner_tau = inner.min_tau()
        if outer_tau > inner_tau + NESTING_TOL:
            raise ValueError(
                f"nesting violated: outer tau {outer_tau:.10g} exceeds the {label} "
                f"inner copula's minimum tau {inner_tau:.10g}"
            )


def hac_uniforms(rng, size):
    """The (size, 4) uniforms that hac_sample turns into size rows."""
    return rng.uniform(_LO, _HI, size=(size, 4))


def hac_sample(
    spec, inner_a, inner_b, uniforms, theta_a_fn=None, theta_b_fn=None, keep_b_fn=None
):
    """Draw (u1, u2, u3, u4) rows from the nested copula, all rows at once.

    spec is the outer copula, inner_a and inner_b the CopulaSpecs of the two
    inner pairs. Each row solves one row of uniforms, as drawn by hac_uniforms.
    theta_a_fn / theta_b_fn, when given, map the array of an inner pair's
    first components to that pair's dependence parameters, one per row;
    without them each inner parameter is read at development time 0.
    keep_b_fn, called after theta_b_fn with the same u3, maps it to a mask of
    the rows whose u4 is solved; the others' u4 is NaN. Without it every row
    is solved.

    Every step is elementwise over rows, so solving stacked uniforms gives
    bit for bit the rows of solving each block alone, as long as the theta
    maps treat each block as its own; and a row's u4 is the same whichever
    rows keep_b_fn keeps with it.
    """
    fam_a = FAMILIES[inner_a.family]
    fam_b = FAMILIES[inner_b.family]
    u1, p2, p3, p4 = uniforms.T
    th_a = theta_a_fn(u1) if theta_a_fn else inner_a.theta_at(0.0)
    u2 = np.clip(fam_a.hinv(u1, p2, th_a), _LO, _HI)

    outer = FAMILIES[spec.outer_family]
    th0 = spec.outer_theta
    # C_A = psi(phi(u1) + phi(u2)); its density psi''(x) phi'(u1) phi'(u2)
    # is -s1 s2 phi''(s) / phi'(s), as psi'' underflows deep in a tail
    x_a = fam_a.gen(u1, th_a) + fam_a.gen(u2, th_a)
    s = np.clip(fam_a.gen_inv(x_a, th_a), 1e-12, 1.0 - 1e-12)
    s1 = fam_a.h(u1, u2, th_a)
    s2 = fam_a.h(u2, u1, th_a)
    s12 = -s1 * s2 * fam_a.gen_d2(s, th_a) / fam_a.gen_d1(s, th_a)
    phi_s = outer.gen(s, th0)
    dphi_s = outer.gen_d1(s, th0)
    ddphi_s = outer.gen_d2(s, th0)
    pair_a = (phi_s, dphi_s, ddphi_s, s1, s2, s12)

    # conditional cdf of U3 given (U1, U2): second mixed derivative ratio
    den = (
        outer.gen_inv_d2(phi_s, th0) * dphi_s**2
        + outer.gen_inv_d1(phi_s, th0) * ddphi_s
    ) * s1 * s2 + s12  # gen_inv_d1(phi(s)) * gen_d1(s) = 1 exactly

    def g3(u3, phi_s, dphi_s, ddphi_s, s1, s2, s12, den):
        x = phi_s + outer.gen(u3, th0)
        d1 = outer.gen_inv_d1(x, th0)
        d_ss = outer.gen_inv_d2(x, th0) * dphi_s**2 + d1 * ddphi_s
        return (d_ss * s1 * s2 + d1 * dphi_s * s12) / den

    u3 = invert_increasing(g3, p3, _LO, _HI, (*pair_a, den))
    th_b = theta_b_fn(u3) if theta_b_fn else inner_b.theta_at(0.0)
    # a mask even for every row: numpy's vector power loop and its loop for a
    # broadcast (stride-0) exponent differ in the last bit, so every per-row
    # array of the u4 solve is a masked copy, whichever rows are kept
    keep = keep_b_fn(u3) if keep_b_fn else np.ones(u3.shape, dtype=bool)

    def third_mixed(t, t3, phi_s, dphi_s, ddphi_s, s1, s2, s12):
        x = phi_s + outer.gen(t, th0)
        d2 = outer.gen_inv_d2(x, th0)
        lead = (outer.gen_inv_d3(x, th0) * dphi_s**2 + d2 * ddphi_s) * s1 * s2
        return (lead + d2 * dphi_s * s12) * outer.gen_d1(t, th0) * t3

    def f4(u4, u3, th_b, phi_u3, k1, *pair_a):
        t = np.clip(fam_b.gen_inv(phi_u3 + fam_b.gen(u4, th_b), th_b), 1e-12, 1.0 - 1e-12)
        return third_mixed(t, fam_b.h(u3, u4, th_b), *pair_a) / k1

    kept_a = [x[keep] for x in pair_a]
    kept_u3 = u3[keep]
    kept_th_b = np.broadcast_to(th_b, u3.shape)[keep]
    k1 = third_mixed(kept_u3, 1.0, *kept_a)
    phi_u3 = fam_b.gen(kept_u3, kept_th_b)
    u4 = np.full(u3.shape, np.nan)
    u4[keep] = invert_increasing(
        f4, p4[keep], _LO, _HI, (kept_u3, kept_th_b, phi_u3, k1, *kept_a)
    )
    return np.column_stack([u1, u2, u3, u4])


def match_days(days_a, days_b, max_gap: int):
    """Greedy nearest-day matching of two day arrays.

    Days of a are visited in ascending order, stable among equal days; each
    takes the nearest unused day of b within max_gap (the earlier one on a
    tie), so every claim is used at most once. Returns (idx_a, idx_b) of the
    matched pairs in that visiting order, plus boolean masks of the
    unmatched days of a and b.

    Within one day of b the first unused claim in stable order is always
    taken first, so each day's used claims are a prefix: one (next unused,
    end) pair per day of b is the whole state, at any density.
    """
    order_a = np.argsort(days_a, kind="stable")
    order_b = np.argsort(days_b, kind="stable")
    a_days, a_first, a_count = np.unique(days_a[order_a], return_index=True, return_counts=True)
    b_days, b_first, b_count = np.unique(days_b[order_b], return_index=True, return_counts=True)
    # day of b -> [next unused, end] positions in order_b
    free = {d: [i, i + c] for d, i, c in zip(b_days.tolist(), b_first.tolist(), b_count.tolist())}
    # a-days with no day of b within the gap would only fail every lookup
    lo, hi = np.searchsorted(b_days, [a_days - max_gap, a_days + max_gap + 1])
    offsets = sorted(range(-max_gap, max_gap + 1), key=abs)  # 0, -1, 1, -2, ...
    pos_a, pos_b = [], []
    for d, first, n in zip(*(x[hi > lo].tolist() for x in (a_days, a_first, a_count))):
        want = n
        for off in offsets:
            span = free.get(d + off)
            if span is None or span[0] == span[1]:
                continue
            take = min(want, span[1] - span[0])
            pos_b.extend(range(span[0], span[0] + take))
            span[0] += take
            want -= take
            if not want:
                break
        pos_a.extend(range(first, first + n - want))
    ia = order_a[np.asarray(pos_a, dtype=np.int64)]
    ib = order_b[np.asarray(pos_b, dtype=np.int64)]
    rest_a = np.bincount(ia, minlength=days_a.size) == 0
    rest_b = np.bincount(ib, minlength=days_b.size) == 0
    return ia, ib, rest_a, rest_b


def matched_delay_scores(sub_a, sub_b, delay_a, delay_b):
    """Cross-type pseudo-observation pairs for outer dependence estimation.

    The claims of the two sub-portfolios, one claim type each, are matched by
    accident day with match_days (closest first, each claim used once, gaps
    above MATCH_GAP_DAYS discarded); the matched pairs' delay scores are
    returned. Between types, only the outer copula links any two components,
    so the Kendall's tau of these pairs estimates the outer parameter
    directly.
    """
    ia, ib, _, _ = match_days(sub_a.accident_days, sub_b.accident_days, MATCH_GAP_DAYS)

    def scores(sub, model, idx):
        t = sub.accident_days[idx]
        return delay_score(model, t, sub.reporting_days[idx] - t)

    return scores(sub_a, delay_a, ia), scores(sub_b, delay_b, ib)


def _inversions(r):
    """Pairs i < j with r[i] > r[j], counted by a bottom-up merge of r.

    At each width the runs of r are sorted; every element of a right run
    counts the elements of its left run above it, by one search over all the
    left runs keyed by (run pair, value), and one sort on the same key then
    merges each pair of runs.
    """
    r = np.asarray(r, dtype=np.int64)
    base = int(r.max()) + 1
    pos = np.arange(r.size)
    count, width = 0, 1
    while width < r.size:
        pair = pos // (2 * width)
        right = (pos // width) % 2 == 1
        key = pair * base + r
        left = key[~right]
        above = np.searchsorted(left, (pair[right] + 1) * base) - np.searchsorted(
            left, key[right], side="right"
        )
        count += int(above.sum())
        r = np.sort(key) - pair * base
        width *= 2
    return count


def _tied_pairs(counts):
    counts = np.asarray(counts, dtype=np.int64)
    return int((counts * (counts - 1) // 2).sum())


def kendall_tau_b(x, y):
    """Kendall's tau-b of paired samples, the float scipy.stats.kendalltau gives.

    Dense ranks (y first, then a stable sort on x, so y ascends within tied
    x), the discordant pairs as the inversions of y in that order, and
    scipy's tie-corrected formula evaluated in scipy's order.
    """
    x = np.asarray(x).ravel()
    y = np.asarray(y).ravel()
    size = x.size
    perm = np.argsort(y)
    x, y = x[perm], y[perm]
    y = np.r_[True, y[1:] != y[:-1]].cumsum(dtype=np.intp)
    perm = np.argsort(x, kind="mergesort")
    x, y = x[perm], y[perm]
    x = np.r_[True, x[1:] != x[:-1]].cumsum(dtype=np.intp)
    dis = _inversions(y)
    runs = np.r_[True, (x[1:] != x[:-1]) | (y[1:] != y[:-1]), True]
    ntie = _tied_pairs(np.diff(np.flatnonzero(runs)))
    xtie = _tied_pairs(np.bincount(x))
    ytie = _tied_pairs(np.bincount(y))
    tot = size * (size - 1) // 2
    if xtie == tot or ytie == tot:
        return float("nan")
    con_minus_dis = tot - xtie - ytie + ntie - 2 * dis
    tau = con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(np.minimum(1.0, max(-1.0, tau)))


def fit_hac_outer(scores_a, scores_b, inner_a, inner_b, outer_family="gumbel"):
    """Outer parameter by Kendall's tau inversion, projected onto nesting.

    The empirical tau of the cross-type pairs identifies the outer parameter
    because every cross-type bivariate margin of the nested copula equals the
    outer copula itself. Estimates above an inner copula's minimum tau
    collapse onto it. A non-positive admissible tau means independent types,
    returned as None (no nesting), and so, with a warning, does a nesting
    that check_nesting refuses: a Gaussian inner copula, or an outer
    parameter clipped to a bound past the inner taus.
    """
    if outer_family not in ARCHIMEDEAN:
        raise ValueError(f"outer family must be Archimedean {ARCHIMEDEAN}, got {outer_family!r}")
    if len(scores_a) < MIN_MATCHED_PAIRS:
        raise ValueError(f"need at least {MIN_MATCHED_PAIRS} matched pairs")
    for inner in (inner_a, inner_b):
        if inner.family not in (*ARCHIMEDEAN, "independence"):
            warnings.warn(
                f"a {inner.family} inner copula has no generator and cannot be nested; "
                "outer copula set to independence"
            )
            return None
    tau_hat = kendall_tau_b(scores_a, scores_b)
    cap = min(inner_a.min_tau(), inner_b.min_tau())
    tau_use = min(max(tau_hat, 0.0), cap)
    independent = tau_use < 1e-6
    if tau_hat > cap + 1e-6:
        warnings.warn(
            f"outer tau estimate {tau_hat:.4f} exceeds inner minimum {cap:.4g}; "
            + (
                "outer copula set to independence"
                if independent
                else "projected onto the nesting boundary"
            )
        )
    if independent:
        return None
    fam = FAMILIES[outer_family]
    lo, hi = fam.theta_bounds
    spec = HacSpec(outer_family, min(max(float(fam.theta_from_tau(tau_use)), lo), hi))
    try:
        check_nesting(spec, inner_a, inner_b)
    except ValueError as e:  # Clayton's bound has tau 5e-5
        warnings.warn(f"{e}; outer copula set to independence")
        return None
    return spec
