"""Rotation-symmetric bosonic codewords and their loss analytics.

A code of order M = 2^m superposes M rotated copies of a primitive state.
With a coherent primitive (a cat code) everything about pure-loss
transmission reduces to two interleaved exponential series: the class
weights of the lost-photon count mod 2M and the class structure of the
surviving photon number mod M.  Both are evaluated in log domain so the
analytics stay finite far beyond where dense Fock vectors overflow.

Class bookkeeping used throughout the package: losing k photons from a
codeword pair leaves a state that depends on k only through k mod 2M,
and the pair with k' = k + M equals the pair for k with the sign of the
logical-one component flipped.  Hence 2M distinguishable loss classes,
of which the first M are correctable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fockspace import (
    DEFAULT_POLICY,
    FockVector,
    TruncationPolicy,
    annihilate,
    coherent_state,
    rotation_apply,
)

__all__ = [
    "CatCodeSpec",
    "LossWeights",
    "codeword",
    "damped_codeword",
    "error_space_state",
    "loss_weights",
    "segment_fidelity",
]

_DEGENERACY_TOL = 1e-12
# Series terms 16 decades under the peak are dropped; matches the
# plain-domain next-term-below-1e-16*sum stopping rule.
_LOG_DROP = math.log(1e-16)
# Largest stop index a class series may reach (alpha about 2000).  The
# walk evaluates about 17·sqrt(x)/modulus terms per residue, so the bound
# is a scope limit rather than a memory one: a wider window is refused,
# naming the amplitude, before any term is evaluated.
_MAX_SERIES_STOP = 4_000_000


@dataclass(frozen=True)
class CatCodeSpec:
    """Code order, primitive amplitude, and end-to-end transmission.

    m is the cascade depth: code order M = 2^m, correctable loss order
    M − 1.  The amplitude is restricted to real α > 0 because every
    closed form below assumes it; the Fock engine has no such
    restriction and is used to cross-check robustness elsewhere.
    """

    m: int
    alpha: float
    eta: float = 1.0

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"cascade depth m={self.m!r} must be an integer >= 1")
        if isinstance(self.alpha, complex) or not 0.0 < self.alpha < math.inf:
            raise ValueError(f"amplitude alpha={self.alpha!r} must be real, positive and finite")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"transmission eta={self.eta!r} outside (0, 1]")

    @property
    def order(self) -> int:
        return 2 ** self.m

    @property
    def loss_order(self) -> int:
        return 2 ** self.m - 1

    @property
    def n_classes(self) -> int:
        return 2 ** (self.m + 1)

    @property
    def damped_alpha(self) -> float:
        return math.sqrt(self.eta) * self.alpha


@dataclass(frozen=True)
class LossWeights:
    """Probabilities of the 2M loss classes, indexed by q = 0..2M−1."""

    p: np.ndarray
    m: int

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (2 ** (self.m + 1),):
            raise ValueError(f"expected {2 ** (self.m + 1)} class weights, got shape {p.shape}")
        low = p.min()
        if low < -1e-15:
            raise ValueError("negative class weight")
        total = math.fsum(p)
        if not abs(total - 1.0) <= 1e-10:  # NaN fails this too
            raise ValueError(f"class weights sum to {total}, not 1")
        p = np.maximum(p, 0.0)
        p = p / (total if low >= 0.0 else math.fsum(p))
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    def correctable_mass(self) -> float:
        return math.fsum(self.p[: 2 ** self.m])


def codeword(
    spec: CatCodeSpec,
    logical: int,
    primitive: FockVector | None = None,
    policy: TruncationPolicy | None = None,
) -> FockVector:
    """Normalized order-M superposition of rotated primitives.

    Logical 0 uses rotation angles 2kπ/M, logical 1 uses (2k+1)π/M.  The
    default primitive is the coherent state at the requested amplitude.  A
    primitive invariant under the rotation set (vacuum, or any state
    whose support collapses the two logical superpositions onto one ray)
    is rejected.
    """
    if logical not in (0, 1):
        raise ValueError(f"logical label must be 0 or 1, got {logical!r}")
    if primitive is None:
        primitive = coherent_state(spec.alpha, policy or DEFAULT_POLICY)
    big_m = spec.order
    sums = []
    for lbl in (0, 1):
        acc = np.zeros(primitive.dim, dtype=complex)
        for k in range(big_m):
            acc += rotation_apply((2 * k + lbl) * math.pi / big_m, primitive).amps
        sums.append(acc)
    n0, n1 = np.linalg.norm(sums[0]), np.linalg.norm(sums[1])
    if n0 < 1e-12 or n1 < 1e-12:
        raise ValueError(
            "degenerate primitive: a logical superposition has zero norm "
            f"(norms {n0:.3e}, {n1:.3e})"
        )
    cross = abs(np.vdot(sums[0] / n0, sums[1] / n1))
    if cross > 1.0 - _DEGENERACY_TOL:
        raise ValueError(
            "degenerate primitive: the two logical superpositions coincide "
            f"(|overlap| = {cross:.15f})"
        )
    amps = sums[logical] / (n0 if logical == 0 else n1)
    return FockVector(amps, primitive.n_max)


def damped_codeword(
    spec: CatCodeSpec, logical: int, policy: TruncationPolicy | None = None
) -> FockVector:
    """Codeword built from the transmitted primitive |√η α⟩."""
    policy = policy or DEFAULT_POLICY
    primitive = coherent_state(spec.damped_alpha, policy)
    return codeword(spec, logical, primitive, policy)


def error_space_state(
    spec: CatCodeSpec, logical: int, q: int, policy: TruncationPolicy | None = None
):
    """Normalized â^q · damped codeword and its pre-normalization squared norm.

    q indexes the loss class, 0 ≤ q < M.  Classes q + M carry the same
    vectors with the logical-one sign flipped, so they are not built
    separately.
    """
    if not 0 <= q < spec.order:
        raise ValueError(f"loss class q={q} outside [0, {spec.order})")
    base = damped_codeword(spec, logical, policy)
    dropped = annihilate(base, q)
    norm_sq = dropped.norm() ** 2
    if norm_sq < 1e-250:
        raise ValueError(
            f"error-space state (m={spec.m}, logical={logical}, q={q}) has zero norm "
            "under the current truncation; amplitude too small for this loss class"
        )
    return dropped.normalized(), float(norm_sq)


def _class_series(x: float, modulus: int) -> list[tuple[int, float, float]]:
    """Per residue r < modulus: peak index t*, the peak log term
    t*·log x − log t*!, and log of the class sum Σ_{t ≡ r (mod modulus)}
    x^t/t! relative to its peak term x^t*/t*!.

    x > 0.  One window, t up to x + 12√(x+1) + 12·modulus + 30, serves
    every residue.  Each term is taken relative to its residue's largest
    one, as (t − t*) log x − log(t!/t*!), so the difference of two class
    sums keeps its relative accuracy where each sum alone is
    astronomically small.  The log terms are concave in t, so the peak is
    found by climbing from the residue member nearest x (ties keep the
    lower t) and the sum walks out from it both ways, stopping at the
    first term 16 decades under the peak: only those terms are evaluated,
    plus one per residue for the trailing guard, which requires the
    window's last term to sit 40 nats under the peak so silent truncation
    cannot happen.  A window whose stop index passes `_MAX_SERIES_STOP`
    raises before any term is evaluated.  Only ``math`` and
    ``math.fsum`` are used, so the result depends on libm alone, and
    fsum's correct rounding makes it independent of summation order.
    """
    if not x > 0.0:
        raise ValueError(f"class series needs x > 0, got {x!r}")
    log_x = math.log(x)
    n_stop = int(x + 12.0 * math.sqrt(x + 1.0) + 12.0 * modulus + 30.0)
    if n_stop > _MAX_SERIES_STOP:
        raise ArithmeticError(
            f"class series window (x={x:.4g}, stop index {n_stop}) exceeds "
            f"the bound {_MAX_SERIES_STOP}; amplitude too large"
        )
    table = []
    for residue in range(modulus):
        last = n_stop - (n_stop - residue) % modulus
        t_peak = residue + modulus * max(round((x - residue) / modulus), 0)
        g_peak = math.lgamma(t_peak + 1.0)
        f_peak = t_peak * log_x - g_peak
        known = {t_peak: g_peak}  # lgamma(t + 1) of every term evaluated so far
        # Climb to the first maximum: up while the next term is larger,
        # else down while the previous one is no smaller.
        for step in (modulus, -modulus):
            start = t_peak
            while residue <= t_peak + step <= last:
                t = t_peak + step
                g = known[t] = math.lgamma(t + 1.0)
                f = t * log_x - g
                if not (f > f_peak or (step < 0 and f == f_peak)):
                    break
                t_peak, g_peak, f_peak = t, g, f
            if t_peak != start:
                break
        g_last = known.get(last)
        if g_last is None:
            g_last = known[last] = math.lgamma(last + 1.0)
        if last * log_x - g_last > f_peak - 40.0:
            raise ArithmeticError(
                f"class series (x={x:.4g}, mod {modulus}, residue {residue}) "
                "not converged at the default stop; widen the window"
            )
        terms = [1.0]
        up = range(t_peak + modulus, last + 1, modulus)
        down = range(t_peak - modulus, residue - 1, -modulus)
        for side in (up, down):
            for t in side:
                g = known.get(t)
                if g is None:
                    g = math.lgamma(t + 1.0)
                v = (t - t_peak) * log_x - (g - g_peak)
                if v <= _LOG_DROP:
                    break
                terms.append(math.exp(v))
        table.append((t_peak, f_peak, math.log(math.fsum(terms))))
    return table


def _alpha_squared(spec: CatCodeSpec) -> float:
    """α², with an error naming α and η where the square overflows."""
    try:
        return spec.alpha ** 2
    except OverflowError:
        raise ArithmeticError(
            f"alpha={spec.alpha!r} (eta={spec.eta!r}): alpha squared overflows a float"
        ) from None


def _log_class_sums(x: float, modulus: int) -> list[float]:
    """log Σ_{t ≡ r (mod modulus)} x^t/t! for every residue r, x ≥ 0."""
    if x == 0.0:  # α² times a transmission underflowed: only t = 0 is left
        return [0.0] + [-math.inf] * (modulus - 1)
    return [f_peak + rest for _t, f_peak, rest in _class_series(x, modulus)]


def loss_weights(spec: CatCodeSpec) -> LossWeights:
    """Probability of each loss class q mod 2M for a transmitted codeword.

    Unnormalized class weights factor into a lost-count series S_q over
    t ≡ q (mod 2M) in x = α²(1−η) and a survivor-class series T over
    n ≡ −q (mod M) in y = ηα²; the product is renormalized to sum to 1.
    Both codewords produce the same distribution, so no logical label is
    taken.  The Fock engine arbitrates this construction in the tests.
    """
    big_m = spec.order
    n_cls = spec.n_classes
    if spec.eta == 1.0:
        p = np.zeros(n_cls)
        p[0] = 1.0
        return LossWeights(p, spec.m)
    alpha_sq = _alpha_squared(spec)
    x = alpha_sq * (1.0 - spec.eta)
    y = alpha_sq * spec.eta
    lost = _log_class_sums(x, n_cls)
    kept = _log_class_sums(y, big_m)
    log_w = [lost[q] + kept[(-q) % big_m] for q in range(n_cls)]
    peak = max(log_w)
    w = [math.exp(v - peak) for v in log_w]
    total = math.fsum(w)
    return LossWeights(np.array([v / total for v in w]), spec.m)


def segment_fidelity(spec: CatCodeSpec) -> float:
    """Probability that a transmitted codeword lands in a correctable class."""
    return loss_weights(spec).correctable_mass()

