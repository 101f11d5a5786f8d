"""Bivariate copula families: independence, Clayton, Gumbel, Frank, Gaussian.

Stateless singletons; the dependence parameter is an argument so callers can
pass per-observation arrays (needed by the time-varying parameter map). The
h-function is the partial derivative of the copula cdf in its first
argument, h(u, v) = dC(u, v)/du, i.e. the conditional cdf of V given U = u.

The edge rule of the h-function is written once, in _Family; each
parametric family supplies only the interior. For likelihood fits,
h_prepare computes the theta-free transforms of (u, v) once and h_dtheta
returns h and dh/dtheta from them in one pass; Independence has only these.

Clayton, Gumbel and Frank, the Archimedean families, expose the additive
generator phi and its inverse psi with the derivatives the nested copula is
built from: phi', phi'', psi', psi'', psi'''. Their cdf is psi(phi(u) +
phi(v)); no family carries a cdf or density of its own. Only these three
nest; the Gaussian has no generator.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, optimize
from scipy.special import ndtr, ndtri

_EPS = 1e-12
_BISECT_STEPS = 50


def _clip(x, lo, hi):
    """np.clip(x, lo, hi) as two ufunc calls; NaN stays NaN.

    The copula functions run on every bisection halving, on a few dozen
    pairs, where np.clip's Python-level wrapper was a large share of the time.
    """
    return np.minimum(np.maximum(x, lo), hi)


def _clip01(x):
    return _clip(np.asarray(x, dtype=float), _EPS, 1.0 - _EPS)


def bisect(f, target, lo, hi):
    """Invert an increasing f elementwise on [lo, hi] by bracketed bisection.

    f maps an array of trial points, one per target, to an array. A target at
    or below f(lo) takes lo and one at or above f(hi) takes hi; the rest end
    within (hi - lo) / 2**_BISECT_STEPS of the crossing.
    """
    target = np.asarray(target, dtype=float)
    a = np.full(target.shape, float(lo))
    b = np.full(target.shape, float(hi))
    below_lo = f(a) >= target
    above_hi = f(b) <= target
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (a + b)
        low = f(mid) < target
        a = np.where(low, mid, a)
        b = np.where(low, b, mid)
    return np.where(below_lo, lo, np.where(above_hi, hi, 0.5 * (a + b)))


class _Family:
    """Edge rule of every parametric family; subclasses give the interior.

    _h(u, v, theta) gets v as a float array and must accept any value,
    because h replaces what it returns on and beyond the edges of the unit
    square. _prepare(u, v) returns the theta-free transforms that
    _h_dtheta(pre, theta) turns into h and dh/dtheta, with h's value bit for
    bit.
    """

    name = "base"

    def h(self, u, v, theta):
        v = np.asarray(v, dtype=float)
        return np.where(v <= 0.0, 0.0, np.where(v >= 1.0, 1.0, self._h(u, v, theta)))

    def h_prepare(self, u, v):
        """The theta-free part of h(u, v) for h_dtheta: where v is inside
        (0, 1), h's value on the edges, and the family's transforms of u and v."""
        v = np.asarray(v, dtype=float)
        below, above = v <= 0.0, v >= 1.0
        inside = ~(below | above)
        return inside, np.where(below, 0.0, 1.0), self._prepare(np.asarray(u, dtype=float), v)

    def h_dtheta(self, prepared, theta):
        """(h(u, v; theta), dh/dtheta) from h_prepare(u, v), under h's edge rule."""
        inside, edge, pre = prepared
        h, dh = self._h_dtheta(pre, theta)
        return np.where(inside, h, edge), np.where(inside, dh, 0.0)

    def hinv(self, u, p, theta):
        """Numeric inverse of v -> h(u, v); overridden where closed form exists."""
        u, p, theta = np.broadcast_arrays(u, _clip(p, 1e-9, 1.0 - 1e-9), theta)
        out = bisect(lambda v: self.h(u, v, theta), p, 1e-12, 1.0 - 1e-12)
        return out if out.shape else float(out)

    def theta_from_tau(self, tau):
        lo, hi = self.theta_bounds
        return float(optimize.brentq(lambda th: self.tau(th) - tau, lo, hi, xtol=1e-10))


class Independence:
    """The product copula as the pair likelihood reads it: h(u, v) = v."""

    name = "independence"
    theta_bounds = (0.0, 0.0)

    def h_prepare(self, u, v):
        return _clip(np.asarray(v, dtype=float), 0.0, 1.0)

    def h_dtheta(self, prepared, theta=None):
        return prepared, 0.0


class Clayton(_Family):
    """theta > 0 (positive lower-tail dependence)."""

    name = "clayton"
    theta_bounds = (1e-4, 28.0)

    def _pow(self, u, theta):
        with np.errstate(over="ignore"):  # inf propagates correctly downstream
            return np.exp(-theta * np.log(_clip01(u)))

    def _h(self, u, v, theta):
        u = _clip01(u)
        theta = np.asarray(theta, dtype=float)
        T = self._pow(u, theta) + self._pow(v, theta) - 1.0
        return np.exp(-(theta + 1.0) * np.log(u) - (1.0 + 1.0 / theta) * np.log(T))

    def _prepare(self, u, v):
        return np.log(_clip01(u)), np.log(_clip01(v))

    def _h_dtheta(self, pre, theta):
        lu, lv = pre
        theta = np.asarray(theta, dtype=float)
        # an infinite v^-theta gives h = 0, whose derivative is 0
        with np.errstate(over="ignore", invalid="ignore"):
            pu, pv = np.exp(-theta * lu), np.exp(-theta * lv)
            T = pu + pv - 1.0
            log_t = np.log(T)
            h = np.exp(-(theta + 1.0) * lu - (1.0 + 1.0 / theta) * log_t)
            # dT/dtheta = -(lu u^-theta + lv v^-theta)
            dlog = log_t / theta**2 - lu + (1.0 + 1.0 / theta) * (lu * pu + lv * pv) / T
            return h, np.where(h > 0.0, h * dlog, 0.0)

    def hinv(self, u, p, theta):
        u = _clip01(u)
        p = _clip(np.asarray(p, dtype=float), 1e-12, 1.0 - 1e-12)
        theta = np.asarray(theta, dtype=float)
        # invert p = u^-(theta+1) T^-(theta+1)/theta for v
        T = np.exp(-(theta / (theta + 1.0)) * (np.log(p) + (theta + 1.0) * np.log(u)))
        vpow = T - self._pow(u, theta) + 1.0
        return np.exp(-np.log(np.maximum(vpow, 1e-300)) / theta)

    def tau(self, theta):
        return theta / (theta + 2.0)

    def theta_from_tau(self, tau):
        return 2.0 * tau / (1.0 - tau)

    def link(self, theta):
        return np.log(theta)

    def link_inv(self, eta):
        return np.exp(np.asarray(eta, dtype=float))

    def link_inv_d1(self, eta):
        return np.exp(np.asarray(eta, dtype=float))

    def gen(self, t, theta):
        return self._pow(t, theta) - 1.0

    def gen_d1(self, t, theta):
        return -theta * self._pow(t, theta + 1.0)

    def gen_d2(self, t, theta):
        return theta * (theta + 1.0) * self._pow(t, theta + 2.0)

    def gen_inv(self, x, theta):
        return np.power(1.0 + np.asarray(x, dtype=float), -1.0 / theta)

    def gen_inv_d1(self, x, theta):
        a = 1.0 / theta
        return -a * np.power(1.0 + np.asarray(x, dtype=float), -a - 1.0)

    def gen_inv_d2(self, x, theta):
        a = 1.0 / theta
        return a * (a + 1.0) * np.power(1.0 + np.asarray(x, dtype=float), -a - 2.0)

    def gen_inv_d3(self, x, theta):
        a = 1.0 / theta
        return -a * (a + 1.0) * (a + 2.0) * np.power(1.0 + np.asarray(x, dtype=float), -a - 3.0)


class Gumbel(_Family):
    """theta >= 1 (upper-tail dependence; theta = 1 is independence)."""

    name = "gumbel"
    theta_bounds = (1.0 + 1e-6, 17.0)

    def _h(self, u, v, theta):
        uc = _clip01(u)
        theta = np.asarray(theta, dtype=float)
        a = -np.log(uc)
        b = -np.log(_clip01(v))
        s = a**theta + b**theta
        c = np.exp(-s ** (1.0 / theta))
        return c * s ** (1.0 / theta - 1.0) * a ** (theta - 1.0) / uc

    def _prepare(self, u, v):
        uc = _clip01(u)
        a, b = -np.log(uc), -np.log(_clip01(v))
        return uc, a, b, np.log(a), np.log(b)

    def _h_dtheta(self, pre, theta):
        uc, a, b, log_a, log_b = pre
        theta = np.asarray(theta, dtype=float)
        a_t, b_t = a**theta, b**theta
        s = a_t + b_t
        r = s ** (1.0 / theta)
        h = np.exp(-r) * s ** (1.0 / theta - 1.0) * a ** (theta - 1.0) / uc
        # log h = -r + (1/theta - 1) log s + (theta - 1) log a - log u
        log_s = np.log(s)
        ds_s = (log_a * a_t + log_b * b_t) / s
        dlog = (
            -r * (ds_s - log_s / theta) / theta
            - log_s / theta**2
            + (1.0 / theta - 1.0) * ds_s
            + log_a
        )
        return h, h * dlog

    def tau(self, theta):
        return 1.0 - 1.0 / theta

    def theta_from_tau(self, tau):
        return 1.0 / (1.0 - tau)

    def link(self, theta):
        return np.log(theta - 1.0)

    def link_inv(self, eta):
        return 1.0 + np.exp(np.asarray(eta, dtype=float))

    def link_inv_d1(self, eta):
        return np.exp(np.asarray(eta, dtype=float))

    def gen(self, t, theta):
        return (-np.log(_clip01(t))) ** theta

    def gen_d1(self, t, theta):
        tc = _clip01(t)
        return -theta * (-np.log(tc)) ** (theta - 1.0) / tc

    def gen_d2(self, t, theta):
        tc = _clip01(t)
        a = -np.log(tc)
        return theta * a ** (theta - 2.0) * ((theta - 1.0) + a) / tc**2

    def gen_inv(self, x, theta):
        return np.exp(-np.power(np.asarray(x, dtype=float), 1.0 / theta))

    def gen_inv_d1(self, x, theta):
        x = np.asarray(x, dtype=float)
        al = 1.0 / theta
        return -al * x ** (al - 1.0) * self.gen_inv(x, theta)

    def gen_inv_d2(self, x, theta):
        x = np.asarray(x, dtype=float)
        al = 1.0 / theta
        psi = self.gen_inv(x, theta)
        return psi * (al**2 * x ** (2 * al - 2.0) - al * (al - 1.0) * x ** (al - 2.0))

    def gen_inv_d3(self, x, theta):
        x = np.asarray(x, dtype=float)
        al = 1.0 / theta
        psi = self.gen_inv(x, theta)
        return psi * (
            -(al**3) * x ** (3 * al - 3.0)
            + 3.0 * al**2 * (al - 1.0) * x ** (2 * al - 3.0)
            - al * (al - 1.0) * (al - 2.0) * x ** (al - 3.0)
        )


class Frank(_Family):
    """theta != 0; negative theta gives negative dependence."""

    name = "frank"
    theta_bounds = (-35.0, 35.0)

    @staticmethod
    def _nudge(theta):
        theta = np.asarray(theta, dtype=float)
        return np.where(np.abs(theta) < 1e-6, np.where(theta < 0, -1e-6, 1e-6), theta)

    def _h(self, u, v, theta):
        u = _clip01(u)
        v = _clip(v, 0.0, 1.0)
        theta = self._nudge(theta)
        # both denominator terms share the numerator's sign: no cancellation
        return np.expm1(theta * v) / (
            np.expm1(theta * u) - np.exp(theta * v) * np.expm1(theta * (u - 1.0))
        )

    def _prepare(self, u, v):
        return _clip01(u), _clip(v, 0.0, 1.0)

    def _h_dtheta(self, pre, theta):
        u, v = pre
        theta = self._nudge(theta)
        ev = np.exp(theta * v)
        num = np.expm1(theta * v)
        e1 = np.expm1(theta * (u - 1.0))
        den = np.expm1(theta * u) - ev * e1
        h = num / den
        dnum = v * ev
        dden = u * np.exp(theta * u) - ev * (v * e1 + (u - 1.0) * np.exp(theta * (u - 1.0)))
        return h, (dnum - h * dden) / den

    def hinv(self, u, p, theta):
        u = _clip01(u)
        p = _clip(np.asarray(p, dtype=float), 1e-12, 1.0 - 1e-12)
        theta = self._nudge(theta)
        # exp(theta v) = num / den, num - den = gap: sums of positive terms and
        # log1p of a positive ratio keep full precision at large |theta|
        e = (1.0 - p) * np.exp(-theta * u)
        num, den = e + p, e + p * np.exp(-theta)
        gap = -p * np.expm1(-theta)
        return np.where(theta > 0, np.log1p(gap / den), -np.log1p(-gap / num)) / theta

    def tau(self, theta):
        """1 + 4 (D1(theta) - 1) / theta, D1 the Debye function. Below
        |theta| 0.05 that difference cancels, and its Taylor series
        theta/9 - theta^3/900 + theta^5/52920 takes over."""
        theta = float(theta)
        if abs(theta) < 0.05:
            t2 = theta * theta
            return theta * (1.0 / 9.0 - t2 * (1.0 / 900.0 - t2 / 52920.0))
        sign = 1.0 if theta > 0 else -1.0
        t = abs(theta)
        d1 = integrate.quad(lambda x: x / np.expm1(x), 0.0, t)[0] / t
        return sign * (1.0 + 4.0 * (d1 - 1.0) / t)

    def link(self, theta):
        return np.asarray(theta, dtype=float)

    def link_inv(self, eta):
        return np.asarray(eta, dtype=float)

    def link_inv_d1(self, eta):
        return np.ones_like(np.asarray(eta, dtype=float))

    def gen(self, t, theta):
        theta = self._nudge(theta)
        return -np.log(np.expm1(-theta * _clip01(t)) / np.expm1(-theta))

    def gen_d1(self, t, theta):
        tc = _clip01(t)
        theta = self._nudge(theta)
        return theta * np.exp(-theta * tc) / np.expm1(-theta * tc)

    def gen_d2(self, t, theta):
        tc = _clip01(t)
        theta = self._nudge(theta)
        return theta**2 * np.exp(-theta * tc) / np.expm1(-theta * tc) ** 2

    def _g(self, x, theta):
        return np.exp(-np.asarray(x, dtype=float)) * np.expm1(-theta)

    def gen_inv(self, x, theta):
        theta = self._nudge(theta)
        return -np.log1p(self._g(x, theta)) / theta

    def gen_inv_d1(self, x, theta):
        theta = self._nudge(theta)
        g = self._g(x, theta)
        return g / (theta * (1.0 + g))

    def gen_inv_d2(self, x, theta):
        theta = self._nudge(theta)
        g = self._g(x, theta)
        return -g / (theta * (1.0 + g) ** 2)

    def gen_inv_d3(self, x, theta):
        theta = self._nudge(theta)
        g = self._g(x, theta)
        return g * (1.0 - g) / (theta * (1.0 + g) ** 3)


class Gaussian(_Family):
    """rho in (-1, 1). Not Archimedean: no generator, never nested."""

    name = "gaussian"
    theta_bounds = (-0.99, 0.99)

    def _h(self, u, v, theta):
        rho = np.asarray(theta, dtype=float)
        x = ndtri(_clip01(u))
        y = ndtri(_clip01(v))
        return ndtr((y - rho * x) / np.sqrt(1.0 - rho**2))

    def _prepare(self, u, v):
        return ndtri(_clip01(u)), ndtri(_clip01(v))

    def _h_dtheta(self, pre, theta):
        x, y = pre
        rho = np.asarray(theta, dtype=float)
        sd = np.sqrt(1.0 - rho**2)
        z = (y - rho * x) / sd
        dz = (rho * z / sd - x) / sd
        return ndtr(z), np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi) * dz

    def hinv(self, u, p, theta):
        rho = np.asarray(theta, dtype=float)
        x = ndtri(_clip01(u))
        z = ndtri(_clip(np.asarray(p, dtype=float), 1e-12, 1.0 - 1e-12))
        return ndtr(z * np.sqrt(1.0 - rho**2) + rho * x)

    def tau(self, theta):
        return 2.0 * np.arcsin(theta) / np.pi

    def link(self, theta):
        return np.arctanh(theta)

    def link_inv(self, eta):
        return np.tanh(np.asarray(eta, dtype=float))

    def link_inv_d1(self, eta):
        return 1.0 / np.cosh(np.asarray(eta, dtype=float)) ** 2


INDEPENDENCE = Independence()
CLAYTON = Clayton()
GUMBEL = Gumbel()
FRANK = Frank()
GAUSSIAN = Gaussian()

FAMILIES = {
    f.name: f for f in (INDEPENDENCE, CLAYTON, GUMBEL, FRANK, GAUSSIAN)
}
ARCHIMEDEAN = ("clayton", "gumbel", "frank")

