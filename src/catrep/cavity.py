"""Cavity reflection physics behind the hybrid controlled rotation.

Two reflection models are provided.  The ideal one is a pure phase
(iΔ − κ/2)/(iΔ + κ/2) on the unit circle, and `detuning_for_angle` maps
a rotation angle to the detuning that gives it; the fidelity pipeline
calls neither, as it assumes ideal rotations.  The full model adds the
atomic line and a finite outcoupling ratio and is kept for qualitative
phase/modulus sweeps only.

Convention note: the full amplitude is implemented exactly as written in
its source, with the detuning entering as 2πΔ (ordinary frequency)
against decay rates in angular frequency.  With the atom decoupled
(g = 0) and perfect outcoupling it reduces to the ideal phase evaluated
at πΔ, so the two models share a curve shape but not a detuning axis.
"""

from __future__ import annotations

import cmath
import math

from .catcode import _Record

__all__ = [
    "CavityParams",
    "DEFAULT_PARAMS",
    "ideal_reflection",
    "reflection_phase",
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


def ideal_reflection(delta: float, kappa: float) -> complex:
    """Bare-cavity reflection (iΔ − κ/2)/(iΔ + κ/2); unit modulus."""
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa!r}")
    if not math.isfinite(delta):
        raise ValueError(f"delta={delta!r} must be finite")
    return (1j * delta - kappa / 2.0) / (1j * delta + kappa / 2.0)


def reflection_phase(delta: float, kappa: float) -> float:
    """Rotation angle arg(ideal_reflection); π at resonance, → 0 as Δ → +∞."""
    return cmath.phase(ideal_reflection(delta, kappa))


def full_reflection(delta: float, params: CavityParams = DEFAULT_PARAMS) -> complex:
    """Reflection amplitude with atomic line and outcoupling ratio.

    1 − 2κ_r(2iπΔ + γ) / ((2iπΔ + κ)(2iπΔ + γ) + g²), written verbatim in
    its mixed frequency convention; see the module docstring.  Raises
    ArithmeticError, naming Δ, where the amplitude is not a finite float.
    """
    d = 2j * math.pi * delta
    num = 2.0 * params.kappa_r * (d + params.gamma)
    den = (d + params.kappa) * (d + params.gamma) + params.g ** 2
    r = 1.0 - num / den
    if not cmath.isfinite(r):  # 2πΔ, or a product of it with the rates, overflowed
        raise ArithmeticError(f"delta={delta!r}: full reflection overflows a float at {params}")
    return r


def detuning_for_angle(phi: float, kappa: float) -> float:
    """Detuning giving rotation angle φ under the ideal model.

    Δ = (κ/2)·cot(φ/2) for φ in (0, π].  The round trip through
    reflection_phase recovers φ to better than 1e-12.
    """
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa!r}")
    if not 0.0 < phi <= math.pi:
        raise ValueError(f"target angle {phi} outside (0, pi]")
    if phi == math.pi:
        return 0.0
    if (delta := (kappa / 2.0) / math.tan(phi / 2.0)) < math.inf:
        return delta
    raise ArithmeticError(f"target angle {phi!r}: its detuning overflows a float")


def sweep_reflection(deltas, params: CavityParams = DEFAULT_PARAMS):
    """Rows (Δ, phase_ideal, phase_full, modulus_full) over a detuning grid."""
    rows = []
    for delta in map(float, deltas):
        r_full = full_reflection(delta, params)
        rows.append(
            (
                delta,
                reflection_phase(delta, params.kappa),
                cmath.phase(r_full),
                abs(r_full),
            )
        )
    return rows

