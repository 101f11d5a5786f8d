"""Bivariate copula families: independence, Clayton, Gumbel, Frank, Gaussian.

Stateless singletons; the dependence parameter is an argument so callers can
pass per-observation arrays (needed by the time-varying parameter map). The
h-function is the partial derivative of the cdf in its first argument,
h(u, v) = dC(u, v)/du, i.e. the conditional cdf of V given U = u.

The edge rule of the cdf and h-function is written once, in _Family; each
parametric family supplies only the interior. Independence keeps its
product forms.

For Clayton, Gumbel and Frank the additive generator phi and its inverse psi
are exposed together with the derivatives needed by the nested (hierarchical)
machinery: phi', phi'', psi', psi'', psi'''. Independence needs none: the
nested draw treats an independence outer copula on its own.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import integrate, optimize
from scipy.stats import norm

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


@lru_cache(maxsize=8)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def bvn_cdf(x, y, rho, nodes=96):
    """Bivariate standard normal cdf via the correlation-integral identity.

    P[X <= x, Y <= y] = Phi(x) Phi(y) + integral_0^rho of the bivariate
    density in the correlation, evaluated with fixed Gauss-Legendre
    quadrature. Absolute error is far below 1e-7 for |rho| <= 0.99.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rho = np.asarray(rho, dtype=float)
    t, wgt = _leggauss(nodes)
    # map nodes from [-1, 1] to [0, rho] per element
    r = 0.5 * rho[..., None] * (t + 1.0)
    scale = 0.5 * rho[..., None]
    xx = x[..., None]
    yy = y[..., None]
    one_m_r2 = 1.0 - r * r
    dens = np.exp(-(xx * xx - 2.0 * r * xx * yy + yy * yy) / (2.0 * one_m_r2)) / (
        2.0 * np.pi * np.sqrt(one_m_r2)
    )
    corr = np.sum(dens * wgt, axis=-1) * np.squeeze(scale, axis=-1)
    return norm.cdf(x) * norm.cdf(y) + corr


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

    _cdf(u, v, theta) gets u and v as float arrays and _h(u, v, theta) gets
    v as one. Both must accept any value, because cdf and h replace what
    they return on and beyond the edges of the unit square.
    """

    name = "base"
    n_params = 1

    def cdf(self, u, v, theta):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        out = np.where((u <= 0.0) | (v <= 0.0), 0.0, self._cdf(u, v, theta))
        out = np.where(u >= 1.0, _clip(v, 0.0, 1.0), out)
        return np.where(v >= 1.0, _clip(u, 0.0, 1.0), out)

    def h(self, u, v, theta):
        v = np.asarray(v, dtype=float)
        return np.where(v <= 0.0, 0.0, np.where(v >= 1.0, 1.0, self._h(u, v, theta)))

    def hinv(self, u, p, theta):
        """Numeric inverse of v -> h(u, v); overridden where closed form exists."""
        u, p, theta = np.broadcast_arrays(u, _clip(p, 1e-9, 1.0 - 1e-9), theta)
        out = bisect(lambda v: self.h(u, v, theta), p, 1e-12, 1.0 - 1e-12)
        return out if out.shape else float(out)

    def theta_from_tau(self, tau):
        lo, hi = self.theta_bounds
        return float(
            optimize.brentq(lambda th: self.tau(th) - tau, lo, hi, xtol=1e-10)
        )


class Independence(_Family):
    name = "independence"
    n_params = 0
    theta_bounds = (0.0, 0.0)

    def cdf(self, u, v, theta=None):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return _clip(u, 0.0, 1.0) * _clip(v, 0.0, 1.0)

    def h(self, u, v, theta=None):
        v = np.asarray(v, dtype=float)
        return _clip(v, 0.0, 1.0) * np.ones_like(np.asarray(u, dtype=float))

    def hinv(self, u, p, theta=None):
        return np.asarray(p, dtype=float)

    def density(self, u, v, theta=None):
        return np.ones(np.broadcast(np.asarray(u), np.asarray(v)).shape)

    def tau(self, theta=None):
        return 0.0

    def link(self, theta):
        return 0.0

    def link_inv(self, eta):
        return None


class Clayton(_Family):
    """theta > 0 (positive lower-tail dependence)."""

    name = "clayton"
    theta_bounds = (1e-4, 28.0)

    def _pow(self, u, theta):
        with np.errstate(over="ignore"):  # inf propagates correctly downstream
            return np.exp(-theta * np.log(_clip01(u)))

    def _cdf(self, u, v, theta):
        theta = np.asarray(theta, dtype=float)
        T = self._pow(u, theta) + self._pow(v, theta) - 1.0
        return np.exp(-np.log(T) / theta)

    def _h(self, u, v, theta):
        u = _clip01(u)
        theta = np.asarray(theta, dtype=float)
        T = self._pow(u, theta) + self._pow(v, theta) - 1.0
        return np.exp(-(theta + 1.0) * np.log(u) - (1.0 + 1.0 / theta) * np.log(T))

    def hinv(self, u, p, theta):
        u = _clip01(u)
        p = _clip(np.asarray(p, dtype=float), 1e-12, 1.0 - 1e-12)
        theta = np.asarray(theta, dtype=float)
        # invert p = u^-(theta+1) T^-(theta+1)/theta for v
        T = np.exp(-(theta / (theta + 1.0)) * (np.log(p) + (theta + 1.0) * np.log(u)))
        vpow = T - self._pow(u, theta) + 1.0
        return np.exp(-np.log(np.maximum(vpow, 1e-300)) / theta)

    def density(self, u, v, theta):
        u = _clip01(u)
        v = _clip01(v)
        theta = np.asarray(theta, dtype=float)
        T = self._pow(u, theta) + self._pow(v, theta) - 1.0
        return (
            (1.0 + theta)
            * np.exp(-(theta + 1.0) * (np.log(u) + np.log(v)) - (1.0 / theta + 2.0) * np.log(T))
        )

    def tau(self, theta):
        return theta / (theta + 2.0)

    def theta_from_tau(self, tau):
        return 2.0 * tau / (1.0 - tau)

    def link(self, theta):
        return np.log(theta)

    def link_inv(self, eta):
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

    def _cdf(self, u, v, theta):
        theta = np.asarray(theta, dtype=float)
        a = -np.log(_clip01(u))
        b = -np.log(_clip01(v))
        s = a**theta + b**theta
        return np.exp(-np.exp(np.log(s) / theta))

    def _h(self, u, v, theta):
        uc = _clip01(u)
        theta = np.asarray(theta, dtype=float)
        a = -np.log(uc)
        b = -np.log(_clip01(v))
        s = a**theta + b**theta
        c = np.exp(-s ** (1.0 / theta))
        return c * s ** (1.0 / theta - 1.0) * a ** (theta - 1.0) / uc

    def density(self, u, v, theta):
        u = _clip01(u)
        v = _clip01(v)
        theta = np.asarray(theta, dtype=float)
        a = -np.log(u)
        b = -np.log(v)
        s = a**theta + b**theta
        c = np.exp(-s ** (1.0 / theta))
        return (
            c
            * (a * b) ** (theta - 1.0)
            / (u * v)
            * s ** (1.0 / theta - 2.0)
            * (s ** (1.0 / theta) + theta - 1.0)
        )

    def tau(self, theta):
        return 1.0 - 1.0 / theta

    def theta_from_tau(self, tau):
        return 1.0 / (1.0 - tau)

    def link(self, theta):
        return np.log(theta - 1.0)

    def link_inv(self, eta):
        return 1.0 + np.exp(np.asarray(eta, dtype=float))

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

    def _cdf(self, u, v, theta):
        theta = self._nudge(theta)
        eu = np.expm1(-theta * _clip(u, 0.0, 1.0))
        ev = np.expm1(-theta * _clip(v, 0.0, 1.0))
        et = np.expm1(-theta)
        return -np.log1p(eu * ev / et) / theta

    def _h(self, u, v, theta):
        u = _clip01(u)
        v = _clip(v, 0.0, 1.0)
        theta = self._nudge(theta)
        # both denominator terms share the numerator's sign: no cancellation
        return np.expm1(theta * v) / (
            np.expm1(theta * u) - np.exp(theta * v) * np.expm1(theta * (u - 1.0))
        )

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

    def density(self, u, v, theta):
        u = _clip01(u)
        v = _clip01(v)
        theta = self._nudge(theta)
        et = -np.expm1(-theta)
        num = theta * et * np.exp(-theta * (u + v))
        den = et - (-np.expm1(-theta * u)) * (-np.expm1(-theta * v))
        return num / den**2

    def tau(self, theta):
        theta = float(theta)
        if abs(theta) < 1e-8:
            return 0.0
        sign = 1.0 if theta > 0 else -1.0
        t = abs(theta)
        d1 = integrate.quad(lambda x: x / np.expm1(x), 0.0, t)[0] / t
        return sign * (1.0 + 4.0 * (d1 - 1.0) / t)

    def link(self, theta):
        return np.asarray(theta, dtype=float)

    def link_inv(self, eta):
        return np.asarray(eta, dtype=float)

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
    """rho in (-1, 1). Not Archimedean: no generator, not nestable."""

    name = "gaussian"
    theta_bounds = (-0.99, 0.99)

    def _cdf(self, u, v, theta):
        rho = np.broadcast_to(np.asarray(theta, dtype=float), np.broadcast(u, v).shape)
        x = norm.ppf(_clip01(u))
        y = norm.ppf(_clip01(v))
        return bvn_cdf(np.broadcast_to(x, rho.shape), np.broadcast_to(y, rho.shape), rho)

    def _h(self, u, v, theta):
        rho = np.asarray(theta, dtype=float)
        x = norm.ppf(_clip01(u))
        y = norm.ppf(_clip01(v))
        return norm.cdf((y - rho * x) / np.sqrt(1.0 - rho**2))

    def hinv(self, u, p, theta):
        rho = np.asarray(theta, dtype=float)
        x = norm.ppf(_clip01(u))
        z = norm.ppf(_clip(np.asarray(p, dtype=float), 1e-12, 1.0 - 1e-12))
        return norm.cdf(z * np.sqrt(1.0 - rho**2) + rho * x)

    def density(self, u, v, theta):
        rho = np.asarray(theta, dtype=float)
        x = norm.ppf(_clip01(u))
        y = norm.ppf(_clip01(v))
        r2 = 1.0 - rho**2
        return np.exp(-(rho**2 * (x**2 + y**2) - 2.0 * rho * x * y) / (2.0 * r2)) / np.sqrt(r2)

    def tau(self, theta):
        return 2.0 * np.arcsin(theta) / np.pi

    def theta_from_tau(self, tau):
        return float(np.sin(np.pi * tau / 2.0))

    def link(self, theta):
        return np.arctanh(theta)

    def link_inv(self, eta):
        return np.tanh(np.asarray(eta, dtype=float))


INDEPENDENCE = Independence()
CLAYTON = Clayton()
GUMBEL = Gumbel()
FRANK = Frank()
GAUSSIAN = Gaussian()

FAMILIES = {
    f.name: f for f in (INDEPENDENCE, CLAYTON, GUMBEL, FRANK, GAUSSIAN)
}
ARCHIMEDEAN = ("independence", "clayton", "gumbel", "frank")


def family(name: str) -> _Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown copula family {name!r}") from None
