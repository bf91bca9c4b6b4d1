"""Truncated Fock-space linear algebra for one bosonic mode.

States live on photon numbers 0..n_max as dense complex arrays.  This module
is the substrate of the brute-force protocol simulation: coherent states,
phase-space rotations exp(iφn̂), the photon-loss Kraus operators (`lose`
yields all of them from one coefficient table), the amplitude damping
channel, hybrid spin-mode composites and projective spin measurements.

Conventions
-----------
* Spin basis states are |↑⟩ = (1, 0) and |↓⟩ = (0, 1).
* In a HybridDensity the spin factors come first, left to right in
  declaration order, and the mode factor is always last.  Flattened
  indices are row-major over that axis order.
* Measurements return every branch with its exact probability; nothing
  is sampled, so downstream results carry no Monte-Carlo noise.
* All factorials run through log-gamma, so amplitudes stay finite for
  cutoffs up to several hundred photons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaln

__all__ = [
    "TruncationError",
    "TruncationPolicy",
    "FockVector",
    "FockDensity",
    "HybridDensity",
    "coherent_state",
    "rotation_apply",
    "annihilate",
    "kraus_op",
    "lose",
    "amplitude_damping",
    "hybrid_from_vector",
    "add_spin",
    "hcrot",
    "measure_spin",
    "apply_mode_operator",
    "trace_distance",
    "pure_state_fidelity",
]

SPIN_UP = np.array([1.0, 0.0], dtype=complex)
SPIN_DOWN = np.array([0.0, 1.0], dtype=complex)

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-9
_EIG_FLOOR = -1e-9
_ZERO_BRANCH = 1e-14
# Largest trace mass a coherent state may leave beyond its cutoff, and the
# mass the loss channel's Kraus sum may leave unsummed.
_TAIL_TOL = 1e-12


class TruncationError(Exception):
    """A state cannot be represented below the tail tolerance."""


def _default_n_max(alpha: complex) -> int:
    a = abs(alpha)
    return math.ceil(a * a + 8.0 * a + 20.0)


@dataclass(frozen=True)
class TruncationPolicy:
    """Cutoff rule for named physical states.

    The default rule n_max(α) = ⌈|α|² + 8|α| + 20⌉ keeps the neglected
    Poisson tail of every coherent component below ~1e-12 across the sweep
    ranges used elsewhere in the package.
    """

    n_max_rule: Callable[[complex], int] = _default_n_max
    hard_limit: int = 2048

    def n_max_for(self, alpha: complex) -> int:
        n_max = int(self.n_max_rule(alpha))
        if n_max > self.hard_limit:
            raise TruncationError(
                f"cutoff n_max={n_max} for |alpha|={abs(alpha):.4g} exceeds the "
                f"hard limit {self.hard_limit}; refusing to allocate"
            )
        return n_max


DEFAULT_POLICY = TruncationPolicy()


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FockVector:
    """Pure single-mode state: amplitudes over photon numbers 0..n_max."""

    amps: np.ndarray
    n_max: int

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] != self.n_max + 1:
            raise ValueError(
                f"amplitude array of length {amps.shape} does not match n_max={self.n_max}"
            )
        object.__setattr__(self, "amps", _freeze(amps))

    @property
    def dim(self) -> int:
        return self.n_max + 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def overlap(self, other: "FockVector") -> complex:
        """⟨self|other⟩.  Shorter vectors are zero-padded."""
        n = min(self.dim, other.dim)
        return complex(np.vdot(self.amps[:n], other.amps[:n]))

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

    def density(self) -> "FockDensity":
        return FockDensity(np.outer(self.amps, self.amps.conj()), self.n_max)


def _check_density(matrix: np.ndarray, what: str) -> None:
    herm = np.max(np.abs(matrix - matrix.conj().T))
    if herm > _HERMITICITY_TOL:
        raise ValueError(f"{what}: matrix deviates from Hermitian by {herm:.3e}")
    tr = np.trace(matrix)
    if abs(tr.imag) > _TRACE_TOL or not -_TRACE_TOL <= tr.real <= 1.0 + _TRACE_TOL:
        raise ValueError(f"{what}: trace {tr} outside [0, 1]")
    w = np.linalg.eigvalsh(matrix)
    if w[0] < _EIG_FLOOR:
        raise ValueError(f"{what}: negative eigenvalue {w[0]:.3e}")


@dataclass(frozen=True)
class FockDensity:
    """Mixed single-mode state as a dense (n_max+1)² matrix."""

    matrix: np.ndarray
    n_max: int
    validate: bool = True

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=complex)
        dim = self.n_max + 1
        if matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {matrix.shape} does not match n_max={self.n_max}")
        if self.validate:
            _check_density(matrix, "FockDensity")
        object.__setattr__(self, "matrix", _freeze(matrix))

    @property
    def dim(self) -> int:
        return self.n_max + 1

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


@dataclass(frozen=True)
class HybridDensity:
    """Joint state of `spins` two-level systems and one mode.

    The matrix is dense over the composite dimension 2**spins * (n_max+1),
    spin axes first, mode axis last.
    """

    spins: int
    n_max: int
    matrix: np.ndarray
    validate: bool = True

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=complex)
        dim = self.dim
        if matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match spins={self.spins}, n_max={self.n_max}"
            )
        if self.validate:
            _check_density(matrix, "HybridDensity")
        object.__setattr__(self, "matrix", _freeze(matrix))

    @property
    def mode_dim(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return (2 ** self.spins) * self.mode_dim

    @property
    def axes_shape(self) -> tuple:
        return (2,) * self.spins + (self.mode_dim,)

    def tensor(self) -> np.ndarray:
        return self.matrix.reshape(self.axes_shape + self.axes_shape)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def purity(self) -> float:
        return float(np.real(np.einsum("ij,ji->", self.matrix, self.matrix)))

    def mode_density(self) -> FockDensity:
        t = self.matrix.reshape(2 ** self.spins, self.mode_dim, 2 ** self.spins, self.mode_dim)
        rho = np.einsum("anam->nm", t)
        return FockDensity(rho, self.n_max, validate=False)

    def spin_density(self) -> np.ndarray:
        """Partial trace over the mode; a 2**spins square matrix."""
        t = self.matrix.reshape(2 ** self.spins, self.mode_dim, 2 ** self.spins, self.mode_dim)
        return np.einsum("anbn->ab", t)


# ---------------------------------------------------------------------------
# states and single-mode operators


def coherent_state(alpha: complex, policy: TruncationPolicy | None = None) -> FockVector:
    """Coherent state |α⟩ with amps[n] = exp(−|α|²/2) αⁿ/√(n!).

    Magnitudes are accumulated in log domain.  Raises TruncationError if the
    tail mass beyond the cutoff exceeds 1e-12, which for the default cutoff
    rule does not happen below the hard limit.
    """
    policy = policy or DEFAULT_POLICY
    n_max = policy.n_max_for(alpha)
    a = abs(alpha)
    if a == 0.0:
        amps = np.zeros(n_max + 1, dtype=complex)
        amps[0] = 1.0
        return FockVector(amps, n_max)
    n = np.arange(n_max + 1)
    log_mag = -0.5 * a * a + n * math.log(a) - 0.5 * gammaln(n + 1.0)
    amps = np.exp(log_mag + 1j * n * np.angle(alpha))
    v = FockVector(amps, n_max)
    tail = abs(1.0 - v.norm() ** 2)
    if tail > _TAIL_TOL:
        raise TruncationError(
            f"coherent state |alpha|={a:.4g}: tail mass {tail:.3e} exceeds "
            f"tolerance {_TAIL_TOL:.1e} at n_max={n_max}"
        )
    return v


def rotation_apply(phi: float, v: FockVector) -> FockVector:
    """Phase-space rotation exp(iφn̂): amps[n] → exp(iφn)·amps[n].

    Exact isometry; the norm is preserved to machine epsilon.
    """
    n = np.arange(v.dim)
    return FockVector(v.amps * np.exp(1j * phi * n), v.n_max)


def annihilate(v: FockVector, q: int = 1) -> FockVector:
    """Apply â q times: amps[n] ← √(n+1)·amps[n+1].  Result is unnormalized."""
    if q < 0:
        raise ValueError("q must be non-negative")
    amps = v.amps.copy()
    root = np.sqrt(np.arange(1, v.dim))
    for _ in range(q):
        amps[:-1] = root * amps[1:]
        amps[-1] = 0.0
    return FockVector(amps, v.n_max)


def _loss_table(eta: float, dim: int) -> np.ndarray:
    """c[k, n] = ⟨n|Â_k|n+k⟩ = √((1−η)^k η^n (n+k)! / (k! n!)), zero for n + k ≥ dim.

    Built in log domain from one log-factorial vector, so binomial factors
    stay finite at large cutoffs.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("transmission eta must lie in (0, 1]; the eta=0 channel is degenerate")
    k, n = np.ogrid[:dim, :dim]
    if eta == 1.0:
        return (k == 0) * np.ones(dim)  # only Â_0 = 𝟙 survives
    log_fact = gammaln(np.arange(2 * dim - 1) + 1.0)
    log_c = 0.5 * (
        k * math.log1p(-eta) + n * math.log(eta) + log_fact[n + k] - log_fact[k] - log_fact[n]
    )
    return np.where(n + k < dim, np.exp(log_c), 0.0)


def kraus_op(k: int, eta: float, n_max: int) -> np.ndarray:
    """Dense matrix of the loss Kraus operator Â_k = √((1−η)^k/k!)·(√η)^n̂·âᵏ.

    The reference for `lose`, which applies the same operator without
    building it.
    """
    if k < 0:
        raise ValueError("loss count k must be non-negative")
    c = _loss_table(eta, n_max + 1)
    if k > n_max:
        return np.zeros_like(c, dtype=complex)
    return np.diag(c[k, : n_max + 1 - k], k).astype(complex)


def lose(x: np.ndarray, eta: float, axes: Sequence[int]):
    """Yield Â_k x for k = 0, 1, …, d − 1, applying Â_k along every axis in axes.

    Â_k is a k-step shift times a real diagonal, so along each axis
    out[n] = c[k, n]·x[n+k]: the action of `kraus_op` in O(size) without the
    matrix, with every coefficient taken from one `_loss_table` per call.
    A pure array passes its mode axis, a density its row and column axes;
    c is real, so Â_k† needs no conjugate.  Terms are made one at a time,
    so a caller may stop early and holds only the terms it keeps.
    """
    x = np.asarray(x)
    axes = [ax % x.ndim for ax in axes]
    d = x.shape[axes[0]]
    c = _loss_table(eta, d)
    for k in range(d):
        term = x
        for ax in axes:
            head = (slice(None),) * ax
            coef = c[k, : d - k].reshape((-1,) + (1,) * (x.ndim - 1 - ax))
            out = np.zeros(x.shape, dtype=complex)
            out[head + (slice(d - k),)] = coef * term[head + (slice(k, None),)]
            term = out
        yield term


def amplitude_damping(
    rho: FockDensity | HybridDensity, eta: float
) -> FockDensity | HybridDensity:
    """Photon-loss channel ρ → Σ_k Â_k ρ Â_k† on the mode factor.

    ρ is a FockDensity or a HybridDensity, whose spins are spectators; the
    result has the same type.  The Kraus sum stops once the accumulated
    trace mass reaches trace(ρ)·(1 − 1e-12); trace is preserved within
    1e-9 for states that respect the truncation policy.
    """
    d = rho.n_max + 1
    ns = rho.matrix.shape[0] // d
    t = rho.matrix.reshape(ns, d, ns, d)
    target = rho.trace() * (1.0 - _TAIL_TOL)
    acc = np.zeros_like(t)
    mass = 0.0
    for term in lose(t, eta, (1, 3)):
        acc += term
        mass += float(np.einsum("apap->", term).real)
        if mass >= target or eta == 1.0:
            break
    return replace(rho, matrix=acc.reshape(rho.matrix.shape), validate=False)


# ---------------------------------------------------------------------------
# hybrid spin-mode states


def hybrid_from_vector(spins: int, n_max: int, psi: np.ndarray) -> HybridDensity:
    """Density |ψ⟩⟨ψ| from a flattened pure joint vector."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    dim = (2 ** spins) * (n_max + 1)
    if psi.shape[0] != dim:
        raise ValueError(f"vector length {psi.shape[0]} does not match composite dim {dim}")
    return HybridDensity(spins, n_max, np.outer(psi, psi.conj()))


def add_spin(s: HybridDensity, amplitudes: Sequence[complex] = (1.0, 1.0), front: bool = False) -> HybridDensity:
    """Adjoin a fresh spin in the pure state (a|↑⟩ + b|↓⟩)/norm.

    The new spin becomes index 0 when front=True, otherwise the last spin
    index before the mode.
    """
    vec = np.asarray(amplitudes, dtype=complex)
    if vec.shape != (2,):
        raise ValueError("a spin state needs exactly two amplitudes")
    nrm = np.linalg.norm(vec)
    if nrm < 1e-15:
        raise ValueError("zero spin state")
    vec = vec / nrm
    chi = np.outer(vec, vec.conj())
    old = s.matrix.reshape(2 ** s.spins, s.mode_dim, 2 ** s.spins, s.mode_dim)
    if front:
        new = np.einsum("ab,imjn->aimbjn", chi, old)
    else:
        new = np.einsum("ab,imjn->iamjbn", chi, old)
    dim = (2 ** (s.spins + 1)) * s.mode_dim
    return HybridDensity(s.spins + 1, s.n_max, new.reshape(dim, dim), validate=False)


def _hcrot_diagonal(s: HybridDensity, phi: float, spin_index: int) -> np.ndarray:
    d = s.mode_dim
    phase = np.exp(1j * phi * np.arange(d))
    u = np.ones(s.axes_shape, dtype=complex)
    sel: list = [slice(None)] * (s.spins + 1)
    sel[spin_index] = 1
    u[tuple(sel)] = u[tuple(sel)] * phase
    return u.reshape(-1)


def hcrot(phi: float, s: HybridDensity, spin_index: int = 0) -> HybridDensity:
    """Hybrid controlled rotation |↑⟩⟨↑|⊗𝟙 + |↓⟩⟨↓|⊗exp(iφn̂).

    Unitary and diagonal in the joint basis, so trace and purity are
    preserved exactly.
    """
    if not 0 <= spin_index < s.spins:
        raise ValueError(f"spin_index {spin_index} out of range for {s.spins} spins")
    u = _hcrot_diagonal(s, phi, spin_index)
    mat = (u[:, None] * s.matrix) * u.conj()[None, :]
    return HybridDensity(s.spins, s.n_max, mat, validate=False)


def _resolve_basis(basis, labels):
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if isinstance(basis, str):
        b = basis.lower()
        if b == "z":
            states, default = (SPIN_UP, SPIN_DOWN), ("up", "down")
        elif b == "x":
            states = ((SPIN_UP + SPIN_DOWN) * inv_sqrt2, (SPIN_UP - SPIN_DOWN) * inv_sqrt2)
            default = ("+", "-")
        else:
            raise ValueError(f"unknown basis {basis!r}")
    else:
        first, second = basis
        states = (np.asarray(first, dtype=complex), np.asarray(second, dtype=complex))
        default = ("0", "1")
        for st in states:
            if abs(np.linalg.norm(st) - 1.0) > 1e-10:
                raise ValueError("explicit basis states must be normalized")
        if abs(np.vdot(states[0], states[1])) > 1e-10:
            raise ValueError("explicit basis states must be orthogonal")
    if labels is None:
        labels = default
    return states, tuple(labels)


def measure_spin(
    s: HybridDensity,
    spin_index: int,
    basis="z",
    keep_spin: bool = False,
    labels: tuple | None = None,
) -> list:
    """Projective measurement of one spin.

    basis is "z", "x" or an explicit pair of orthonormal 2-vectors.
    Returns [(label, probability, post_state)] over the branches with
    nonzero probability; post states are renormalized and, unless
    keep_spin is set, the measured spin factor is removed.
    """
    if not 0 <= spin_index < s.spins:
        raise ValueError(f"spin_index {spin_index} out of range for {s.spins} spins")
    states, labels = _resolve_basis(basis, labels)
    t = s.tensor()
    row_axis = spin_index
    col_axis = (s.spins + 1) + spin_index
    moved = np.moveaxis(t, (row_axis, col_axis), (0, 1))
    total = s.trace()
    out = []
    for label, bvec in zip(labels, states):
        small = np.einsum("a,b,ab...->...", bvec.conj(), bvec, moved)
        half = small.ndim // 2
        mat = small.reshape(int(np.prod(small.shape[:half])), -1)
        prob = float(np.trace(mat).real)
        if prob <= _ZERO_BRANCH * max(total, 1.0):
            continue
        mat = mat / prob
        if keep_spin:
            proj = np.outer(bvec, bvec.conj())
            shape = small.shape[:half]
            tens = mat.reshape(shape + shape)
            rebuilt = np.einsum("ab,...->ab...", proj, tens)
            # ab axes belong at (spin_index, spins+1+spin_index) of the full tensor
            rebuilt = np.moveaxis(rebuilt, (0, 1), (row_axis, col_axis))
            post = HybridDensity(s.spins, s.n_max, rebuilt.reshape(s.dim, s.dim), validate=False)
        else:
            post = HybridDensity(s.spins - 1, s.n_max, mat, validate=False)
        out.append((label, prob, post))
    return out


def apply_mode_operator(s: HybridDensity, op: np.ndarray) -> HybridDensity:
    """Conjugate the mode factor by an (unnormalized) operator: ρ → (1⊗op) ρ (1⊗op)†."""
    ns = 2 ** s.spins
    d = s.mode_dim
    t = s.matrix.reshape(ns, d, ns, d)
    res = np.einsum("pm,ambn,qn->apbq", op, t, op.conj())
    return HybridDensity(s.spins, s.n_max, res.reshape(s.dim, s.dim), validate=False)


# ---------------------------------------------------------------------------
# metrics


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2)·‖a − b‖₁ for Hermitian matrices."""
    w = np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))
    return 0.5 * float(np.abs(w).sum())


def pure_state_fidelity(rho: np.ndarray, psi: np.ndarray) -> float:
    """⟨ψ|ρ|ψ⟩ for a normalized pure target."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return float(np.real(np.vdot(psi, np.asarray(rho) @ psi)))
