"""Truncated Fock-space linear algebra for one bosonic mode.

States live on photon numbers 0..n_max as dense complex arrays.  This module
is the substrate of the brute-force protocol simulation: coherent states and
their cutoff rule, photon subtraction, the photon-loss coefficients
(`_loss_rows`, read by the oracle's per-record arm operators), and hybrid
spin-mode densities.

Conventions
-----------
* Spin basis states are |↑⟩ = (1, 0) and |↓⟩ = (0, 1).
* In a HybridDensity the spin factors come first, left to right in
  declaration order, and the mode factor is always last.  Flattened
  indices are row-major over that axis order.
* All factorials run through libm's log-gamma (`math.lgamma`), so
  amplitudes stay finite for cutoffs up to the hard limit.
* `coherent_state` keeps its last `_STATE_CACHE` results: the records are
  immutable, and an oracle grid asks for the same amplitudes repeatedly.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .catcode import _freeze, _log_factorials as _lgamma_table, _Record

__all__ = [
    "TruncationError",
    "FockVector",
    "HybridDensity",
    "coherent_state",
    "annihilate",
    "hybrid_from_vector",
    "apply_mode_operator",
    "trace_distance",
]

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-9
_EIG_FLOOR = -1e-9
# Largest trace mass a coherent state may leave beyond its cutoff.
_TAIL_TOL = 1e-12
# Largest cutoff a state may ask for.
_HARD_LIMIT = 2048
# Coherent states `coherent_state` keeps, at most 2,049 amplitudes (33 kB) each.
_STATE_CACHE = 64
# log n! for n < _LOG_FACT.size, read-only; `_log_factorials` grows it from
# catcode's table on demand up to the hard limit's dimension (16 kB).
_LOG_FACT = _freeze(np.zeros(0))


class TruncationError(ArithmeticError):
    """A state cannot be represented below the tail tolerance."""


def _cutoff(alpha: complex) -> int:
    """Cutoff n_max(α) = ⌈|α|² + 8|α| + 20⌉ of the coherent state |α⟩.

    Keeps the neglected Poisson tail below ~1e-12 across the sweep ranges
    used elsewhere in the package.  A non-finite amplitude raises
    ValueError, a cutoff over the hard limit TruncationError.
    """
    a = abs(alpha)
    if not math.isfinite(a):
        raise ValueError(f"amplitude alpha={alpha!r} is not finite")
    rule = a * a + 8.0 * a + 20.0  # inf past |α| ≈ 1.3e154
    n_max = math.ceil(rule) if rule < math.inf else rule
    if n_max > _HARD_LIMIT:
        raise TruncationError(
            f"cutoff n_max={n_max} for |alpha|={a:.4g} exceeds the "
            f"hard limit {_HARD_LIMIT}; refusing to allocate"
        )
    return n_max


def _log_factorials(dim: int) -> np.ndarray:
    """log n! for n = 0..dim − 1 from `catcode`'s lgamma table, read-only: a view of the
    shared vector, grown to cover dim, or past the hard limit a vector of its own."""
    global _LOG_FACT
    table = _LOG_FACT
    if table.size < dim:
        table = _freeze(np.fromiter(map(_lgamma_table(dim - 1).__getitem__, range(dim)), float))
        if dim <= _HARD_LIMIT + 1:
            _LOG_FACT = table
    return table[:dim]


class FockVector(_Record):
    """Pure single-mode state: amplitudes over photon numbers 0..n_max."""

    _fields = ("amps", "n_max")

    def __init__(self, amps: np.ndarray, n_max: int):
        amps = np.array(amps, dtype=complex)  # a copy: the caller's array stays its own
        if amps.ndim != 1 or amps.shape[0] != n_max + 1:
            raise ValueError(
                f"amplitude array of length {amps.shape} does not match n_max={n_max}"
            )
        self._set(amps=_freeze(amps), n_max=n_max)

    @property
    def dim(self) -> int:
        return self.n_max + 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "FockVector":
        n = self.norm()
        if n < 1e-150:
            raise ValueError("cannot normalize a zero vector")
        return FockVector(self.amps / n, self.n_max)

    def padded(self, n_max: int) -> "FockVector":
        if n_max < self.n_max:
            raise ValueError("padding cannot shrink the cutoff")
        amps = np.zeros(n_max + 1, dtype=complex)
        amps[: self.dim] = self.amps
        return FockVector(amps, n_max)


class HybridDensity(_Record):
    """Joint state of `spins` two-level systems and one mode.

    The matrix is dense over the composite dimension 2**spins * (n_max+1),
    spin axes first, mode axis last.
    """

    _fields = ("spins", "n_max", "matrix")

    def __init__(self, spins: int, n_max: int, matrix: np.ndarray):
        matrix = np.array(matrix, dtype=complex)  # a copy, as in FockVector
        dim = (2**spins) * (n_max + 1)
        if matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match spins={spins}, n_max={n_max}"
            )
        herm = np.max(np.abs(matrix - matrix.conj().T))
        if herm > _HERMITICITY_TOL:
            raise ValueError(f"HybridDensity: matrix deviates from Hermitian by {herm:.3e}")
        _check_trace(matrix)
        w = np.linalg.eigvalsh(matrix)
        if w[0] < _EIG_FLOOR:
            raise ValueError(f"HybridDensity: negative eigenvalue {w[0]:.3e}")
        self._set(spins=spins, n_max=n_max, matrix=_freeze(matrix))

    @property
    def mode_dim(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return (2 ** self.spins) * self.mode_dim

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def _check_trace(matrix: np.ndarray) -> None:
    tr = np.trace(matrix)
    if abs(tr.imag) > _TRACE_TOL or not -_TRACE_TOL <= tr.real <= 1.0 + _TRACE_TOL:
        raise ValueError(f"HybridDensity: trace {tr} outside [0, 1]")


# ---------------------------------------------------------------------------
# states and single-mode operators


def coherent_state(alpha: complex) -> FockVector:
    """Coherent state |α⟩ with amps[n] = exp(−|α|²/2) αⁿ/√(n!).

    Magnitudes are accumulated in log domain.  Raises TruncationError if the
    Poisson tail mass beyond the cutoff `_cutoff(alpha)` exceeds 1e-12,
    which does not happen below the hard limit.  The last `_STATE_CACHE`
    states are kept by |α| and arg α, the two numbers a state is built
    from; an amplitude `_cutoff` refuses is refused before the cache is read.
    """
    _cutoff(alpha)
    return _coherent_state(float(abs(alpha)), float(np.angle(alpha)))


@functools.lru_cache(maxsize=_STATE_CACHE)
def _coherent_state(a: float, phase: float) -> FockVector:
    """The coherent state of amplitude a·e^{i·phase}, a ≥ 0, built anew."""
    n_max = _cutoff(a)
    if a == 0.0:
        amps = np.zeros(n_max + 1, dtype=complex)
        amps[0] = 1.0
        return FockVector(amps, n_max)
    n = np.arange(n_max + 1)
    log_mag = -0.5 * a * a + n * math.log(a) - 0.5 * _log_factorials(n_max + 1)
    amps = np.exp(log_mag + 1j * n * phase)
    v = FockVector(amps, n_max)
    tail = _tail_mass(a, n_max)
    if tail > _TAIL_TOL:
        raise TruncationError(
            f"coherent state |alpha|={a:.4g}: tail mass {tail:.3e} exceeds "
            f"tolerance {_TAIL_TOL:.1e} at n_max={n_max}"
        )
    return v


def _tail_mass(a: float, n_max: int) -> float:
    """Σ_{n > n_max} e^{−a²} a^{2n}/n!, the trace mass of |α⟩ past its cutoff.

    Past n_max > a² the terms fall, so the sum stops at the first one under
    1e-17 of it.
    """
    log_a2 = 2.0 * math.log(a)
    n = n_max + 1
    log_term = n * log_a2 - a * a - math.lgamma(n + 1.0)
    total = term = math.exp(log_term)
    while term > 1e-17 * total:
        n += 1
        log_term += log_a2 - math.log(n)
        term = math.exp(log_term)
        total += term
    return total


def _ladder(x: np.ndarray, count: int) -> np.ndarray:
    """Rungs âʳx for r = 0, …, count − 1 along x's last axis, stacked on a new first axis.

    Each rung is one â step on the one before, x[..., n] ← √(n+1)·x[..., n+1]
    with the last entry 0, so rung r holds the bits of r steps on x alone.
    """
    rungs = np.empty((count,) + np.shape(x), dtype=complex)
    rungs[0] = x
    root = np.sqrt(np.arange(1, rungs.shape[-1]))
    for r in range(1, count):
        rungs[r, ..., :-1] = root * rungs[r - 1, ..., 1:]
        rungs[r, ..., -1] = 0.0
    return rungs


def annihilate(v: FockVector, q: int = 1) -> FockVector:
    """Apply â q times: amps[n] ← √(n+1)·amps[n+1].  Result is unnormalized."""
    if q < 0:
        raise ValueError("q must be non-negative")
    return FockVector(_ladder(v.amps, q + 1)[-1], v.n_max)


def _loss_rows(eta: float, dim: int, counts) -> np.ndarray:
    """Rows c[k, n] = ⟨n|Â_k|n+k⟩ = √((1−η)^k η^n (n+k)! / (k! n!)) for each k of counts.

    Row k holds n = 0, …, dim − k − 1 and is zero past them; every row is
    built in log domain from one log-factorial vector, so binomial factors
    stay finite at large cutoffs and a row costs O(dim) whichever k it is.
    The one source of loss coefficients: the oracle's per-record arm
    operators (`protocol_oracle._arm_maps`) read it, and no module of the
    package builds a dense Kraus matrix from it.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("transmission eta must lie in (0, 1]; the eta=0 channel is degenerate")
    k = np.asarray(counts, dtype=int).reshape(-1, 1)
    n = np.arange(dim)
    if eta == 1.0:  # only Â_0 = 𝟙 survives
        return np.broadcast_to(k == 0, (k.size, dim)).astype(float)
    inside = n < dim - k
    log_fact = _log_factorials(dim)
    log_loss, log_eta = math.log1p(-eta), math.log(eta)
    log_fact_kn = log_fact[np.where(inside, k + n, 0)]
    log_c = k * log_loss + n * log_eta + log_fact_kn - log_fact[k] - log_fact[n]
    return np.where(inside, np.exp(0.5 * log_c), 0.0)


# ---------------------------------------------------------------------------
# hybrid spin-mode states


def hybrid_from_vector(spins: int, n_max: int, psi: np.ndarray) -> HybridDensity:
    """Density |ψ⟩⟨ψ| from a flattened pure joint vector.

    Its length and trace are checked; an outer product is Hermitian and positive to rounding,
    far inside `HybridDensity`'s tolerances, so those two tests are skipped.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    dim = (2 ** spins) * (n_max + 1)
    if psi.shape[0] != dim:
        raise ValueError(f"vector length {psi.shape[0]} does not match composite dim {dim}")
    matrix = np.outer(psi, psi.conj())
    _check_trace(matrix)  # also refuses a NaN or infinite vector
    return HybridDensity._from_checked(spins=spins, n_max=n_max, matrix=_freeze(matrix))


def apply_mode_operator(s: HybridDensity, op: np.ndarray) -> HybridDensity:
    """Conjugate the mode factor by an (unnormalized) operator: ρ → (1⊗op) ρ (1⊗op)†."""
    ns = 2 ** s.spins
    d = s.mode_dim
    t = s.matrix.reshape(ns, d, ns, d)
    res = np.einsum("pm,ambn,qn->apbq", op, t, op.conj()).reshape(s.dim, s.dim)
    return HybridDensity._from_checked(spins=s.spins, n_max=s.n_max, matrix=_freeze(res))


# ---------------------------------------------------------------------------
# metrics


def trace_distance(a: np.ndarray, b: np.ndarray):
    """(1/2)·‖a − b‖₁ for Hermitian matrices, or for each pair of a stack of them."""
    w = np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))
    return 0.5 * np.abs(w).sum(axis=-1)

