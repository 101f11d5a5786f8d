"""Fit the five-phase claim-level model to a censored synthetic portfolio and
read the fitted pieces back: accident-day gaps, reporting delays, payment
counts, severities, and the delay/count copula per claim type, plus the
cross-type layer. Truth is known here, so the recovery is visible directly.
"""

import json

import numpy as np

from granres import censor, default_model, fit_model, parse_iso, synthesize

start, end = parse_iso("2016-01-01"), parse_iso("2021-12-31")
truth = default_model(4000, start, end, dependence="archimedean")
rng = np.random.default_rng(19)
portfolio = censor(synthesize(truth, start, end, rng), parse_iso("2020-12-31"))
print(f"fitting on {len(portfolio.claims)} censored claims")

# the recipe is plain data; anything not listed keeps its default
recipe = {
    "occurrence_family": "poisson",
    "intensity_family": "auto",  # both families, the lower AIC kept
    "severity_family": "lognormal",
    "copula_family": "auto",
    "hac_outer": "gumbel",
}
model, report = fit_model(portfolio, recipe)

for name, tm in model.types.items():
    true_tm = truth.types[name]
    print(f"\n--- {name} ---")
    years = sorted(tm.occurrence.by_year)
    print(f"occurrence ({tm.occurrence.family}), {len(years)} accident years,"
          f" e.g. {years[0]}: {tm.occurrence.by_year[years[0]]}")
    d, dt = tm.delay, true_tm.delay
    print("reporting delay (Weibull, scale drifting with accident date):")
    print(f"  shape {d.shape:6.3f} (true {dt.shape}),  se {d.se['shape']:.3f}")
    print(f"  c0    {d.c0:6.3f} (true {dt.c0:.3f}),  se {d.se['c0']:.3f}")
    print(f"  c1    {d.c1:6.3f} (true {dt.c1}),  se {d.se['c1']:.3f}")
    lam, lamt = tm.counts.intensity, true_tm.counts.intensity
    print(f"payment intensity {type(lam).__name__} (true {type(lamt).__name__}):"
          f" lam0 {lam.lam0:.3f} (true {lamt.lam0}),"
          f" beta {lam.beta:.3f} (true {lamt.beta})")
    aics = report["types"][name]["intensity_aic"]
    print("  aic " + ", ".join(f"{fam} {aic:.1f}" for fam, aic in aics.items()))
    s, st = tm.severity, true_tm.severity
    print(f"severity lognormal: mu {s.mu:.3f} (true {st.mu}),"
          f" sigma {s.sigma:.3f} (true {st.sigma})")
    print(f"delay/count copula: picked {tm.copula.family!r}"
          f" (true {true_tm.copula.family!r}),"
          f" theta {tm.copula.theta:.3f} (true {true_tm.copula.theta})")
    aic = report["types"][name]["copula_aic"][tm.copula.family]
    print(f"  aic {aic:.1f}")

print("\n--- cross-type layer ---")
print(f"outer copula: {model.hac.outer_family},"
      f" theta {model.hac.outer_theta:.3f} (true {truth.hac.outer_theta})")

# each warning says which phase and claim type raised it
print(f"\nfit warnings: {len(report['warnings']) or 'none'}")
for w in report["warnings"]:
    print(f"  {w['phase']} ({w['claim_type'] or 'cross-type'}): {w['message']}")

# the whole model is plain JSON, so it can be stored next to the reserve run
blob = json.dumps(model.to_dict(), sort_keys=True)
print(f"serialized model: {len(blob)} bytes of JSON")
