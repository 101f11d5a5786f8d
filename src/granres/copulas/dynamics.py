"""Copula specification with an optionally time-varying dependence parameter.

The parameter follows an exponential relaxation on the family's link scale:

    eta(x) = eta_inf + (eta0 - eta_inf) * exp(-kappa * x),   theta(x) = g^-1(eta(x))

with x the elapsed development time in years. kappa >= 0 and eta0 >= eta_inf
together guarantee dependence decays monotonically from its value at x = 0
toward the long-run level, which is what keeps nested specifications valid at
every horizon (the minimum over x is attained at x = infinity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import FAMILIES


@dataclass(frozen=True)
class TimeVaryingParam:
    """Link-scale exponential decay toward a long-run dependence level."""

    eta0: float
    eta_inf: float
    kappa: float

    def __post_init__(self):
        if not np.isfinite(self.eta0) or not np.isfinite(self.eta_inf):
            raise ValueError("link-scale levels must be finite")
        if self.kappa < 0.0:
            raise ValueError("kappa must be >= 0")
        if self.eta0 < self.eta_inf:
            raise ValueError("initial dependence must be >= long-run dependence")

    def eta(self, x):
        x = np.asarray(x, dtype=float)
        return self.eta_inf + (self.eta0 - self.eta_inf) * np.exp(-self.kappa * x)


@dataclass(frozen=True)
class CopulaSpec:
    """A family plus either a constant parameter or a time-varying map.

    Exactly one of ``theta`` and ``dynamics`` is set (independence needs
    neither). ``theta_at(x)`` evaluates the parameter at development time x.
    """

    family: str
    theta: float | None = None
    dynamics: TimeVaryingParam | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown copula family {self.family!r}")
        if self.family == "independence":
            if self.theta is not None or self.dynamics is not None:
                raise ValueError("independence copula takes no parameter")
            return
        if (self.theta is None) == (self.dynamics is None):
            raise ValueError("set exactly one of theta and dynamics")
        fam = FAMILIES[self.family]
        lo, hi = fam.theta_bounds
        if self.theta is not None:
            if not (lo <= self.theta <= hi):
                raise ValueError(
                    f"{self.family} parameter {self.theta} outside [{lo}, {hi}]"
                )
        else:
            for eta in (self.dynamics.eta0, self.dynamics.eta_inf):
                th = float(fam.link_inv(eta))
                if not (lo - 1e-9 <= th <= hi + 1e-9):
                    raise ValueError(
                        f"{self.family} parameter {th} (link value {eta}) "
                        f"outside [{lo}, {hi}]"
                    )

    def theta_at(self, x):
        """Dependence parameter at development time x (years); vectorized."""
        fam = FAMILIES[self.family]
        if self.family == "independence":
            return np.zeros_like(np.asarray(x, dtype=float))
        if self.dynamics is None:
            return np.broadcast_to(float(self.theta), np.asarray(x, dtype=float).shape).copy()
        return np.asarray(fam.link_inv(self.dynamics.eta(x)), dtype=float)

    def min_tau(self) -> float:
        """Smallest Kendall's tau over all development times (the x -> inf limit)."""
        fam = FAMILIES[self.family]
        if self.family == "independence":
            return 0.0
        if self.dynamics is None:
            return float(fam.tau(self.theta))
        return float(fam.tau(float(fam.link_inv(self.dynamics.eta_inf))))

    def to_dict(self) -> dict:
        out: dict = {"family": self.family}
        if self.theta is not None:
            out["theta"] = float(self.theta)
        if self.dynamics is not None:
            out["dynamics"] = {
                "eta0": float(self.dynamics.eta0),
                "eta_inf": float(self.dynamics.eta_inf),
                "kappa": float(self.dynamics.kappa),
            }
        return out


def copula_from_dict(d: dict) -> CopulaSpec:
    dyn = d.get("dynamics")
    return CopulaSpec(
        family=d["family"],
        theta=d.get("theta"),
        dynamics=TimeVaryingParam(**dyn) if dyn else None,
    )
