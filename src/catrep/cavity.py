"""Cavity reflection physics behind the hybrid controlled rotation.

One reflection model, `full_reflection`: a single-sided cavity with an
atomic line and a finite outcoupling ratio, written as its source writes
it, with the detuning Δ an ordinary frequency entering as 2πΔ against
decay rates in angular frequency.  With the atom decoupled (g = 0) and
perfect outcoupling (κ_r = κ) it is the ideal cavity, the pure phase
(2πiΔ − κ)/(2πiΔ + κ) on the unit circle, on the same detuning axis;
`detuning_for_angle` maps a rotation angle to the detuning that gives it
there.  The fidelity pipeline calls neither, as it assumes ideal rotations.
"""

from __future__ import annotations

import cmath
import math

from .catcode import _Record

__all__ = [
    "CavityParams",
    "DEFAULT_PARAMS",
    "full_reflection",
    "detuning_for_angle",
    "sweep_reflection",
]


class CavityParams(_Record):
    """Cavity and atom rates, in units of the cavity decay rate.

    The defaults are illustrative, not a claim about any experiment: they
    satisfy g² ≫ κγ with some margin and keep the outcoupling ratio
    κ_r/κ below one.  Every sweep accepts overrides.
    """

    _fields = ("g", "kappa", "gamma", "kappa_r")

    def __init__(
        self, g: float = 3.0, kappa: float = 1.0, gamma: float = 1.2, kappa_r: float = 0.9
    ):
        self._set(g=g, kappa=kappa, gamma=gamma, kappa_r=kappa_r)
        self._require_finite(*self._fields)
        if self.kappa <= 0.0 or self.gamma <= 0.0 or self.kappa_r <= 0.0:
            raise ValueError("decay rates must be positive")
        if self.kappa_r > self.kappa:
            raise ValueError("outcoupling rate cannot exceed the total cavity decay rate")
        if self.g < 0.0:
            raise ValueError("coupling must be non-negative")
        if math.isinf(self.g * self.g):
            raise ValueError(f"g={self.g!r}: its square overflows a float")


DEFAULT_PARAMS = CavityParams()


def full_reflection(delta: float, params: CavityParams = DEFAULT_PARAMS) -> complex:
    """Reflection amplitude with atomic line and outcoupling ratio.

    1 − 2κ_r(2iπΔ + γ) / ((2iπΔ + κ)(2iπΔ + γ) + g²), written verbatim in
    its mixed frequency convention; at g = 0 and κ_r = κ, the ideal cavity
    (see the module docstring).  Raises ArithmeticError, naming Δ, where the
    amplitude is not a finite float.
    """
    if type(delta) is bool:
        _Record._refuse_bool(delta=delta)
    d = 2j * math.pi * delta
    num = 2.0 * params.kappa_r * (d + params.gamma)
    den = (d + params.kappa) * (d + params.gamma) + params.g ** 2
    r = 1.0 - num / den
    if not cmath.isfinite(r):  # 2πΔ, or a product of it with the rates, overflowed
        raise ArithmeticError(f"delta={delta!r}: full reflection overflows a float at {params}")
    return r


def detuning_for_angle(phi: float, kappa: float) -> float:
    """Detuning giving rotation angle φ on the ideal cavity, `full_reflection` at g = 0, κ_r = κ.

    Δ = κ·cot(φ/2)/(2π) for φ in (0, π].  The round trip through the phase
    of that amplitude recovers φ to better than 1e-12.
    """
    _Record._refuse_bool(phi=phi, kappa=kappa)
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa!r}")
    if not 0.0 < phi <= math.pi:
        raise ValueError(f"target angle {phi} outside (0, pi]")
    if phi == math.pi:
        return 0.0
    if (delta := kappa / (2.0 * math.pi * math.tan(phi / 2.0))) < math.inf:
        return delta
    raise ArithmeticError(f"target angle {phi!r}: its detuning overflows a float")


def sweep_reflection(deltas, params: CavityParams = DEFAULT_PARAMS):
    """Rows (Δ, phase_ideal, phase_full, modulus_full) over a detuning grid, on one axis:
    phase_ideal is the phase of the same cavity with its atom decoupled (g = 0, κ_r = κ)."""
    ideal = CavityParams(0.0, params.kappa, params.gamma, params.kappa)
    rows = []
    for delta in deltas:
        if type(delta) is bool:
            _Record._refuse_bool(delta=delta)
        delta = float(delta)
        r_full = full_reflection(delta, params)
        rows.append(
            (
                delta,
                cmath.phase(full_reflection(delta, ideal)),
                cmath.phase(r_full),
                abs(r_full),
            )
        )
    return rows

