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
built from: phi', phi'', psi', psi'', psi''', and hinv, the closed-form
inverse of v -> h(u, v). Their cdf is psi(phi(u) + phi(v)); no family
carries a cdf or density of its own. Only these three nest; the Gaussian
has no generator. invert_increasing is the bracketed solve for the
conditional cdfs without a closed-form inverse.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, optimize
from scipy.special import ndtr, ndtri, wrightomega

_EPS = 1e-12
# a row's bracket closes below _XRTOL |x| + _XATOL, the resolution of 50
# halvings of the unit interval
_XRTOL, _XATOL = 4e-16, 1e-16
# and a row whose f(x) is within _EPS_F |target| of its target is solved
_EPS_F = np.finfo(float).eps
# interpolation steps before invert_increasing gives up on a row
_MAX_STEPS = 100


def _clip(x, lo, hi):
    """np.clip(x, lo, hi) as two ufunc calls; NaN stays NaN.

    The copula functions run on every step of a bracketed solve, on a few
    dozen pairs, where np.clip's Python-level wrapper was a large share of
    the time.
    """
    return np.minimum(np.maximum(x, lo), hi)


def _clip01(x):
    return _clip(np.asarray(x, dtype=float), _EPS, 1.0 - _EPS)


def invert_increasing(f, target, lo, hi, args=()):
    """Solve f(x, *args) = target for each entry of the 1-d array target, f
    increasing on [lo, hi], by Chandrupatla's bracketed inverse quadratic
    interpolation (Adv. Eng. Softw. 28 (1997) 145).

    f takes trial points and the matching entries of args, one array entry
    per row. A target at or below f(lo) takes lo and one at or above f(hi)
    takes hi. Any other row brackets the first x where f(x) < target fails
    and ends at a point where f(x) is within _EPS_F |target| of the target,
    or at the end of its bracket nearer the target once the bracket is
    narrower than _XRTOL |x| + _XATOL. Finished rows leave the solve with
    their args, and every step is elementwise, so a row's result does not
    depend on the rows solved with it. Raises ValueError on a NaN target and
    on rows still open after _MAX_STEPS steps.
    """
    target = np.asarray(target, dtype=float)
    if np.isnan(target).any():
        raise ValueError("cannot invert at a NaN target")
    args = [np.broadcast_to(a, target.shape) for a in args]
    f_lo = f(np.full(target.shape, float(lo)), *args) - target
    f_hi = f(np.full(target.shape, float(hi)), *args) - target
    out = np.where(f_lo >= 0.0, float(lo), float(hi))
    rows = np.flatnonzero(~(f_lo >= 0.0) & ~(f_hi <= 0.0))
    # x1 is the newest point and x2 the far end of the bracket, x3 the point
    # dropped last; below1 says that x1 lies below the target's crossing
    x1, f1 = np.full(rows.size, float(lo)), f_lo[rows]
    x2, f2 = np.full(rows.size, float(hi)), f_hi[rows]
    below1 = np.ones(rows.size, dtype=bool)
    target = target[rows]
    f_tol = _EPS_F * np.abs(target)
    args = [a[rows] for a in args]
    t = 0.5
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_STEPS):
            if not rows.size:
                break
            x = x1 + t * (x2 - x1)
            fx = f(x, *args) - target
            below = fx < 0.0
            flip = below != below1
            x3, f3 = np.where(flip, x2, x1), np.where(flip, f2, f1)
            x2, f2 = np.where(flip, x1, x2), np.where(flip, f1, f2)
            x1, f1, below1 = x, fx, below
            dx = np.abs(x2 - x1)
            tol = _XRTOL * np.abs(x1) + _XATOL
            done = (dx < tol) | (np.abs(f1) <= f_tol)
            if done.any():
                nearer = np.abs(f1[done]) <= np.abs(f2[done])
                out[rows[done]] = np.where(nearer, x1[done], x2[done])
                live = ~done
                rows, x1, f1, x2, f2, x3, f3, below1, dx, tol, target, f_tol = (
                    a[live] for a in (rows, x1, f1, x2, f2, x3, f3, below1, dx, tol, target, f_tol)
                )
                args = [a[live] for a in args]
            # interpolate where the three points are monotone enough for
            # the inverse quadratic (Chandrupatla's test), else bisect
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
            t = np.where(
                iqi,
                f1 / (f1 - f2) * f3 / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3),
                0.5,
            )
            # every trial point lands at least tol / 2 inside the bracket
            edge = 0.5 * tol / dx
            t = _clip(t, edge, 1.0 - edge)
    if rows.size:
        raise ValueError(
            f"bracketed solve: {rows.size} of {out.size} rows still open after {_MAX_STEPS} steps"
        )
    return out


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


class Independence:
    """The product copula as the pair likelihood reads it: h(u, v) = v."""

    name = "independence"

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

    def hinv(self, u, p, theta):
        """v with h(u, v) = p. With a = -ln u, b = -ln v and z = (a^theta +
        b^theta)^(1/theta), ln h = -z + (1 - theta) ln z + (theta - 1) ln a + a,
        so z + c ln z = K for c = theta - 1 and K = c ln a + a - ln p, solved
        by z = c w(K/c - ln c), w the Wright omega function. At theta = 1
        (independence) v = p."""
        a = -np.log(_clip01(u))
        p = _clip(np.asarray(p, dtype=float), 1e-9, 1.0 - 1e-9)
        theta = np.asarray(theta, dtype=float)
        c = theta - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            z = c * wrightomega((c * np.log(a) + a - np.log(p)) / c - np.log(c))
            b = np.maximum(z**theta - a**theta, 0.0) ** (1.0 / theta)
        return np.where(c > 0.0, np.exp(-b), p)

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

    def theta_from_tau(self, tau):
        lo, hi = self.theta_bounds
        return float(optimize.brentq(lambda th: self.tau(th) - tau, lo, hi, xtol=1e-10))

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

