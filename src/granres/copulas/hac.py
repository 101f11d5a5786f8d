"""Two-level nested Archimedean coupling across claim types.

Each claim type carries its own bivariate copula for (delay score, count
score); an outer Archimedean copula D joins the two inner pairs:

    F(u1, u2, u3, u4) = D( C_A(u1, u2), C_B(u3, u4) )
                      = psi( phi(C_A(u1, u2)) + phi(C_B(u3, u4)) )

Validity requires the outer dependence not to exceed either inner dependence
(compared on the Kendall's tau scale); HacSpec enforces that at construction,
using each inner spec's long-run minimum when its parameter is time-varying.
An independence outer copula nests any inner pair.

Sampling is exact conditional inversion in the order u1, u2, u3, u4,
vectorized over rows: each conditional cdf is inverted for all rows at once,
in closed form where the inner family has one and otherwise by bracketed
bisection. The conditional cdfs only need the outer generator's first three
inverse derivatives together with the inner h-functions and densities, so
the scheme works for any mix of inner families, including time-varying inner
parameters (the parameter of each inner pair may depend on the component
drawn first).

Claims of the two types are paired by accident day with match_days, within
MATCH_GAP_DAYS, both when the outer parameter is estimated and when the
claim law is simulated.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats

from ..delays import delay_cdf
from .dynamics import CopulaSpec
from .families import ARCHIMEDEAN, FAMILIES, bisect, family

_TOL = 1e-9
_LO, _HI = 1e-9, 1.0 - 1e-9
# the widest accident-day gap of a cross-type pair, in fit and simulation alike
MATCH_GAP_DAYS = 7


@dataclass(frozen=True)
class HacSpec:
    outer_family: str
    outer_theta: float | None
    inner_a: CopulaSpec
    inner_b: CopulaSpec

    def __post_init__(self):
        if self.outer_family not in ARCHIMEDEAN:
            raise ValueError(
                f"outer family must be Archimedean, got {self.outer_family!r}"
            )
        if self.outer_family == "independence":
            # independent pairs are a valid nesting for any inner copulas,
            # negatively dependent ones included
            if self.outer_theta is not None:
                raise ValueError("independence outer copula takes no parameter")
            return
        if self.outer_theta is None:
            raise ValueError(f"{self.outer_family} outer copula needs a parameter")
        outer_tau = self.outer_tau()
        for label, inner in (("first", self.inner_a), ("second", self.inner_b)):
            if outer_tau > inner.min_tau() + _TOL:
                raise ValueError(
                    "nesting violated: outer tau "
                    f"{outer_tau:.4f} exceeds the {label} inner copula's "
                    f"minimum tau {inner.min_tau():.4f}"
                )

    def outer_tau(self) -> float:
        if self.outer_family == "independence":
            return 0.0
        return float(FAMILIES[self.outer_family].tau(self.outer_theta))

    def to_dict(self) -> dict:
        out = {
            "outer_family": self.outer_family,
            "inner_a": self.inner_a.to_dict(),
            "inner_b": self.inner_b.to_dict(),
        }
        if self.outer_theta is not None:
            out["outer_theta"] = float(self.outer_theta)
        return out


def hac_from_dict(d: dict) -> HacSpec:
    from .dynamics import copula_from_dict

    return HacSpec(
        outer_family=d["outer_family"],
        outer_theta=d.get("outer_theta"),
        inner_a=copula_from_dict(d["inner_a"]),
        inner_b=copula_from_dict(d["inner_b"]),
    )


def hac_cdf(spec, u1, u2, u3, u4, x_a=0.0, x_b=0.0):
    """Four-dimensional cdf; x_a, x_b set the inner development times."""
    fam_a = family(spec.inner_a.family)
    fam_b = family(spec.inner_b.family)
    s = fam_a.cdf(u1, u2, spec.inner_a.theta_at(np.asarray(x_a, dtype=float)))
    t = fam_b.cdf(u3, u4, spec.inner_b.theta_at(np.asarray(x_b, dtype=float)))
    outer = family(spec.outer_family)
    return outer.cdf(s, t, spec.outer_theta)


def hac_uniforms(rng, size):
    """The (size, 4) uniforms that hac_sample turns into size rows."""
    return rng.uniform(_LO, _HI, size=(size, 4))


def hac_sample(
    spec,
    rng=None,
    size=1,
    x_a=0.0,
    x_b=0.0,
    theta_a_fn=None,
    theta_b_fn=None,
    uniforms=None,
):
    """Draw (u1, u2, u3, u4) rows from the nested copula, all rows at once.

    Each row takes four uniforms from rng in turn, or, in place of rng and
    size, reads them from uniforms as drawn by hac_uniforms. theta_a_fn /
    theta_b_fn, when given, map the array of an inner pair's first
    components to that pair's dependence parameters, one per row; they take
    precedence over the fixed development times x_a / x_b.

    Every step is elementwise over rows, so solving stacked uniforms gives
    bit for bit the rows of solving each block alone, as long as the theta
    maps treat each block as its own.
    """
    if (rng is None) == (uniforms is None):
        raise ValueError("pass exactly one of rng and uniforms")
    if uniforms is None:
        uniforms = hac_uniforms(rng, size)
    fam_a = family(spec.inner_a.family)
    fam_b = family(spec.inner_b.family)
    u1, p2, p3, p4 = uniforms.T
    th_a = theta_a_fn(u1) if theta_a_fn else spec.inner_a.theta_at(x_a)
    u2 = np.clip(fam_a.hinv(u1, p2, th_a), _LO, _HI)

    if spec.outer_family == "independence":
        th_b = theta_b_fn(p3) if theta_b_fn else spec.inner_b.theta_at(x_b)
        u4 = np.clip(fam_b.hinv(p3, p4, th_b), _LO, _HI)
        return np.column_stack([u1, u2, p3, u4])

    outer = family(spec.outer_family)
    th0 = spec.outer_theta
    s = np.clip(fam_a.cdf(u1, u2, th_a), 1e-12, 1.0 - 1e-12)
    s1 = fam_a.h(u1, u2, th_a)
    s2 = fam_a.h(u2, u1, th_a)
    s12 = fam_a.density(u1, u2, th_a)
    phi_s = outer.gen(s, th0)
    dphi_s = outer.gen_d1(s, th0)
    ddphi_s = outer.gen_d2(s, th0)

    # conditional cdf of U3 given (U1, U2): second mixed derivative ratio
    den = (
        outer.gen_inv_d2(phi_s, th0) * dphi_s**2
        + outer.gen_inv_d1(phi_s, th0) * ddphi_s
    ) * s1 * s2 + s12  # gen_inv_d1(phi(s)) * gen_d1(s) = 1 exactly

    def g3(u3):
        x = phi_s + outer.gen(u3, th0)
        d1 = outer.gen_inv_d1(x, th0)
        d_ss = outer.gen_inv_d2(x, th0) * dphi_s**2 + d1 * ddphi_s
        return (d_ss * s1 * s2 + d1 * dphi_s * s12) / den

    u3 = bisect(g3, p3, _LO, _HI)
    th_b = theta_b_fn(u3) if theta_b_fn else spec.inner_b.theta_at(x_b)

    def third_mixed(t, t3):
        x = phi_s + outer.gen(t, th0)
        d2 = outer.gen_inv_d2(x, th0)
        lead = (outer.gen_inv_d3(x, th0) * dphi_s**2 + d2 * ddphi_s) * s1 * s2
        return (lead + d2 * dphi_s * s12) * outer.gen_d1(t, th0) * t3

    k1 = third_mixed(u3, 1.0)

    def f4(u4):
        t = np.clip(fam_b.cdf(u3, u4, th_b), 1e-12, 1.0 - 1e-12)
        return third_mixed(t, fam_b.h(u3, u4, th_b)) / k1

    u4 = bisect(f4, p4, _LO, _HI)
    return np.column_stack([u1, u2, u3, u4])


def match_days(days_a, days_b, max_gap: int):
    """Greedy nearest-day matching of two day arrays.

    Days of a are visited in ascending order; each takes the nearest unused
    day of b within max_gap (the earlier one on a tie), so every claim is
    used at most once. Returns (idx_a, idx_b) of the matched pairs in that
    visiting order, plus boolean masks of the unmatched days of a and b.
    """
    ia, ib = [], []
    order_b = np.argsort(days_b, kind="stable")
    b_index = order_b.tolist()
    sorted_b = days_b[order_b].tolist()
    n_b = len(sorted_b)
    used_b = [False] * n_b
    day_a = days_a.tolist()
    j = 0
    for i in np.argsort(days_a, kind="stable").tolist():
        d = day_a[i]
        while j < n_b and (sorted_b[j] < d - max_gap or used_b[j]):
            j += 1
        best, best_gap = -1, max_gap + 1
        for k in range(j, min(j + 64, n_b)):
            b = sorted_b[k]
            if b - d >= best_gap:
                break  # days of b ascend, so none after this one is nearer
            if not used_b[k] and abs(b - d) < best_gap:
                best, best_gap = k, abs(b - d)
        if best >= 0:
            used_b[best] = True
            ia.append(i)
            ib.append(b_index[best])
    rest_a = np.ones(days_a.size, dtype=bool)
    rest_a[ia] = False
    rest_b = np.ones(days_b.size, dtype=bool)
    rest_b[order_b[np.asarray(used_b, dtype=bool)]] = False
    return (
        np.asarray(ia, dtype=np.int64),
        np.asarray(ib, dtype=np.int64),
        rest_a,
        rest_b,
    )


def matched_delay_scores(portfolio, delay_models):
    """Cross-type pseudo-observation pairs for outer dependence estimation.

    Claims of the two types are matched by accident day with match_days
    (closest first, each claim used once, gaps above MATCH_GAP_DAYS
    discarded); the matched pair's delay scores are returned. Between types,
    only the outer copula links any two components, so the Kendall's tau of
    these pairs estimates the outer parameter directly.
    """
    types = portfolio.claim_types
    if len(types) < 2:
        raise ValueError("need two claim types for cross-type dependence")
    subs = [portfolio.by_type(t) for t in types[:2]]
    ia, ib, _, _ = match_days(
        subs[0].accident_days, subs[1].accident_days, MATCH_GAP_DAYS
    )
    scores = []
    for ctype, sub, idx in zip(types, subs, (ia, ib)):
        t = sub.accident_days[idx]
        w = sub.reporting_days[idx] - t + 0.5
        scores.append(delay_cdf(delay_models[ctype], t, w))
    return scores[0], scores[1]


def fit_hac_outer(scores_a, scores_b, inner_a, inner_b, outer_family="gumbel"):
    """Outer parameter by Kendall's tau inversion, projected onto nesting.

    The empirical tau of the cross-type pairs identifies the outer parameter
    because every cross-type bivariate margin of the nested copula equals the
    outer copula itself. Negative estimates and estimates above an inner
    copula's minimum tau collapse to the nearest admissible value.
    """
    if outer_family not in ARCHIMEDEAN:
        raise ValueError("outer family must be Archimedean")
    if len(scores_a) < 20:
        raise ValueError("need at least 20 matched pairs")
    tau_hat = float(stats.kendalltau(scores_a, scores_b).statistic)
    cap = min(inner_a.min_tau(), inner_b.min_tau())
    tau_use = min(max(tau_hat, 0.0), cap)
    independent = outer_family == "independence" or tau_use < 1e-6
    if tau_hat > cap + 1e-6:
        warnings.warn(
            f"outer tau estimate {tau_hat:.4f} exceeds inner minimum {cap:.4f}; "
            + (
                "outer copula set to independence"
                if independent
                else "projected onto the nesting boundary"
            )
        )
    if independent:
        return HacSpec("independence", None, inner_a, inner_b)
    fam = FAMILIES[outer_family]
    theta = float(fam.theta_from_tau(tau_use))
    lo, hi = fam.theta_bounds
    theta = min(max(theta, lo), hi)
    return HacSpec(outer_family, theta, inner_a, inner_b)
