"""Two-level nested Archimedean coupling across claim types.

Each claim type carries its own bivariate copula for (delay score, count
score); an outer Archimedean copula D joins the two inner pairs:

    F(u1, u2, u3, u4) = D( C_A(u1, u2), C_B(u3, u4) )
                      = psi( phi(C_A(u1, u2)) + phi(C_B(u3, u4)) )

Validity requires the outer dependence not to exceed either inner dependence
(compared on the Kendall's tau scale); HacSpec enforces that at construction,
using each inner spec's long-run minimum when its parameter is time-varying.
An independence outer copula nests any inner pair.

Sampling is exact conditional inversion in the order u1, u2, u3, u4. The
conditional cdfs only need the outer generator's first three inverse
derivatives together with the inner h-functions and densities, so the scheme
works for any mix of inner families, including time-varying inner parameters
(the parameter of each inner pair may depend on the component drawn first).

Claims of the two types are paired by accident day with match_days, both
when the outer parameter is estimated and when the claim law is simulated.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize, stats

from ..delays import delay_cdf
from .dynamics import CopulaSpec
from .families import ARCHIMEDEAN, FAMILIES, family

_TOL = 1e-9
_LO, _HI = 1e-9, 1.0 - 1e-9


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


def _inner_pieces(fam, u, v, theta):
    s = float(np.clip(fam.cdf(u, v, theta), 1e-12, 1.0 - 1e-12))
    s1 = float(fam.h(u, v, theta))
    s2 = float(fam.h(v, u, theta))
    s12 = float(fam.density(u, v, theta))
    return s, s1, s2, s12


def _sample_one(spec, rng, theta_a_fn, theta_b_fn, x_a, x_b):
    fam_a = family(spec.inner_a.family)
    fam_b = family(spec.inner_b.family)
    u1 = rng.uniform(_LO, _HI)
    th_a = theta_a_fn(u1) if theta_a_fn else spec.inner_a.theta_at(x_a)
    u2 = float(fam_a.hinv(u1, rng.uniform(_LO, _HI), th_a))
    u2 = min(max(u2, _LO), _HI)

    if spec.outer_family == "independence":
        u3 = rng.uniform(_LO, _HI)
        th_b = theta_b_fn(u3) if theta_b_fn else spec.inner_b.theta_at(x_b)
        u4 = float(fam_b.hinv(u3, rng.uniform(_LO, _HI), th_b))
        return u1, u2, min(max(u3, _LO), _HI), min(max(u4, _LO), _HI)

    outer = family(spec.outer_family)
    th0 = spec.outer_theta
    s, s1, s2, s12 = _inner_pieces(fam_a, u1, u2, th_a)
    phi_s = float(outer.gen(s, th0))
    dphi_s = float(outer.gen_d1(s, th0))
    ddphi_s = float(outer.gen_d2(s, th0))

    # conditional cdf of U3 given (U1, U2): second mixed derivative ratio
    den = (
        float(outer.gen_inv_d2(phi_s, th0)) * dphi_s**2
        + float(outer.gen_inv_d1(phi_s, th0)) * ddphi_s
    ) * s1 * s2 + s12  # gen_inv_d1(phi(s)) * gen_d1(s) = 1 exactly

    def g3(u3):
        x = phi_s + float(outer.gen(u3, th0))
        d_s = float(outer.gen_inv_d1(x, th0)) * dphi_s
        d_ss = (
            float(outer.gen_inv_d2(x, th0)) * dphi_s**2
            + float(outer.gen_inv_d1(x, th0)) * ddphi_s
        )
        return (d_ss * s1 * s2 + d_s * s12) / den

    p3 = rng.uniform(_LO, _HI)
    if g3(_LO) >= p3:
        u3 = _LO
    elif g3(_HI) <= p3:
        u3 = _HI
    else:
        u3 = float(optimize.brentq(lambda z: g3(z) - p3, _LO, _HI, xtol=1e-12))

    th_b = theta_b_fn(u3) if theta_b_fn else spec.inner_b.theta_at(x_b)

    def third_mixed(t, t3):
        x = phi_s + float(outer.gen(t, th0))
        lead = (
            float(outer.gen_inv_d3(x, th0)) * dphi_s**2
            + float(outer.gen_inv_d2(x, th0)) * ddphi_s
        ) * s1 * s2 + float(outer.gen_inv_d2(x, th0)) * dphi_s * s12
        return lead * float(outer.gen_d1(t, th0)) * t3

    k1 = third_mixed(u3, 1.0)

    def f4(u4):
        t = float(np.clip(fam_b.cdf(u3, u4, th_b), 1e-12, 1.0 - 1e-12))
        t3 = float(fam_b.h(u3, u4, th_b))
        return third_mixed(t, t3) / k1

    p4 = rng.uniform(_LO, _HI)
    if f4(_LO) >= p4:
        u4 = _LO
    elif f4(_HI) <= p4:
        u4 = _HI
    else:
        u4 = float(optimize.brentq(lambda z: f4(z) - p4, _LO, _HI, xtol=1e-12))
    return u1, u2, u3, u4


def hac_sample(spec, rng, size=1, x_a=0.0, x_b=0.0, theta_a_fn=None, theta_b_fn=None):
    """Draw (u1, u2, u3, u4) rows from the nested copula.

    theta_a_fn / theta_b_fn, when given, map the first component of an inner
    pair to that pair's dependence parameter; they take precedence over the
    fixed development times x_a / x_b.
    """
    out = np.empty((size, 4))
    for i in range(size):
        out[i] = _sample_one(spec, rng, theta_a_fn, theta_b_fn, x_a, x_b)
    return out


def match_days(days_a, days_b, max_gap: int):
    """Greedy nearest-day matching of two day arrays.

    Days of a are visited in ascending order; each takes the nearest unused
    day of b within max_gap (the earlier one on a tie), so every claim is
    used at most once. Returns (idx_a, idx_b) of the matched pairs in that
    visiting order, plus boolean masks of the unmatched days of a and b.
    """
    ia, ib = [], []
    order_b = np.argsort(days_b, kind="stable")
    sorted_b = days_b[order_b].tolist()
    used_b = [False] * len(sorted_b)
    day_a = days_a.tolist()
    j = 0
    for i in np.argsort(days_a, kind="stable").tolist():
        d = day_a[i]
        while j < len(sorted_b) and (sorted_b[j] < d - max_gap or used_b[j]):
            j += 1
        best, best_gap = -1, max_gap + 1
        for k in range(j, min(j + 64, len(sorted_b))):
            if used_b[k]:
                continue
            gap = abs(sorted_b[k] - d)
            if gap < best_gap:
                best, best_gap = k, gap
            if sorted_b[k] > d + max_gap:
                break
        if best >= 0:
            used_b[best] = True
            ia.append(i)
            ib.append(order_b[best])
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


def matched_delay_scores(portfolio, delay_models, max_gap_days=7):
    """Cross-type pseudo-observation pairs for outer dependence estimation.

    Claims of the two types are matched by accident day with match_days
    (closest first, each claim used once, gaps above max_gap_days
    discarded); the matched pair's delay scores are returned. Between types,
    only the outer copula links any two components, so the Kendall's tau of
    these pairs estimates the outer parameter directly.
    """
    types = portfolio.claim_types
    if len(types) < 2:
        raise ValueError("need two claim types for cross-type dependence")
    claims = [portfolio.by_type(t) for t in types[:2]]
    days = [np.array([c.accident_day for c in cs], dtype=np.int64) for cs in claims]
    ia, ib, _, _ = match_days(days[0], days[1], max_gap_days)
    scores = []
    for ctype, cs, t, idx in zip(types, claims, days, (ia, ib)):
        w = np.array([cs[i].delay_days() + 0.5 for i in idx], dtype=float)
        scores.append(delay_cdf(delay_models[ctype], t[idx], w))
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
    if tau_hat > cap + 1e-6:
        warnings.warn(
            f"outer tau estimate {tau_hat:.4f} exceeds inner minimum {cap:.4f}; "
            "projected onto the nesting boundary"
        )
    if outer_family == "independence" or tau_use < 1e-6:
        return HacSpec("independence", None, inner_a, inner_b)
    fam = FAMILIES[outer_family]
    theta = float(fam.theta_from_tau(tau_use))
    lo, hi = fam.theta_bounds
    theta = min(max(theta, lo), hi)
    return HacSpec(outer_family, theta, inner_a, inner_b)
