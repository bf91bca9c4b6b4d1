"""Oracle-versus-analytic cross checks: what `catrep validate` compares, and how close agrees.

Each check is one deviation at a grid point (m, alpha, eta) between the Fock-space
oracle (`protocol_oracle`) and the analytic engine (`catcode`); `TOLERANCES` holds the
largest deviation each may reach.  This module imports both engines, so neither imports
the other, and it loads the oracle, numpy with it, on the first `deviations` call.
"""

from __future__ import annotations

from .catcode import CatCodeSpec, loss_weights

TOLERANCES = {"f0": 1e-6, "loss_weights": 1e-8, "syndrome": 1e-12, "bell_order": 1e-8}
MAX_ORDER = 3  # the largest m a validation grid may hold


def deviations(m: int, alpha: float, eta: float) -> dict:
    """Check name -> deviation for each check that runs at the point: bell_order at m = 1."""
    from . import protocol_oracle as oracle

    spec = CatCodeSpec(m=m, alpha=alpha, eta=eta)
    report, weights = oracle.simulate_unit(spec), loss_weights(spec)
    point = {
        "f0": abs(report.f0_oracle - weights.correctable_mass()),
        "loss_weights": float(abs(report.weights - weights.p).max()),
        "syndrome": oracle.syndrome_deviation(m, alpha, eta),
    }
    if m == 1:
        point["bell_order"] = oracle.bell_order_equivalence(m, alpha, eta)
    return point
