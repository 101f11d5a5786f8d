"""The copula layer. Each name is imported from its submodule: families,
dynamics, mixed (the delay/count copula) or hac (the cross-type nesting)."""
