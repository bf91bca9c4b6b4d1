"""Dense Fock-space references that the tests compare the engines against.

Codewords built as sums of rotated primitives, the damped codewords and
their loss-class states, and the dense loss Kraus operators.  No module of
the package builds these: the analytic engine works from class series and
the oracle applies the loss coefficients (`fockspace._loss_rows`) without
forming a matrix.  The tests import them from here.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from catrep.catcode import CatCodeSpec
from catrep.fockspace import FockVector, _loss_rows, annihilate, coherent_state

_DEGENERACY_TOL = 1e-12


def rotation_apply(phi: float, v: FockVector) -> FockVector:
    """Phase-space rotation exp(iφn̂): amps[n] → exp(iφn)·amps[n].

    Exact isometry; the norm is preserved to machine epsilon.
    """
    n = np.arange(v.dim)
    return FockVector(v.amps * np.exp(1j * phi * n), v.n_max)


def kraus_op(k: int, eta: float, n_max: int) -> np.ndarray:
    """Dense matrix of the loss Kraus operator Â_k = √((1−η)^k/k!)·(√η)^n̂·âᵏ.

    The reference for the oracle's arm operators, which apply the same
    coefficients without building the matrix.
    """
    if k < 0:
        raise ValueError("loss count k must be non-negative")
    rows = _loss_rows(eta, n_max + 1, [k] if k <= n_max else [])
    if not rows.size:
        return np.zeros((n_max + 1, n_max + 1), dtype=complex)
    return np.diag(rows[0, : n_max + 1 - k], k).astype(complex)


@functools.lru_cache(maxsize=4)
def kraus_ops(eta: float, n_max: int) -> tuple:
    """Every loss Kraus operator Â_0, …, Â_{n_max} of `kraus_op`."""
    return tuple(kraus_op(k, eta, n_max) for k in range(n_max + 1))


def codeword(spec: CatCodeSpec, logical: int, primitive: FockVector | None = None) -> FockVector:
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
        primitive = coherent_state(spec.alpha)
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


def damped_codeword(spec: CatCodeSpec, logical: int) -> FockVector:
    """Codeword built from the transmitted primitive |√η α⟩."""
    return codeword(spec, logical, coherent_state(spec.damped_alpha))


def error_space_state(spec: CatCodeSpec, logical: int, q: int):
    """Normalized â^q · damped codeword and its pre-normalization squared norm.

    q indexes the loss class, 0 ≤ q < M.  Classes q + M carry the same
    vectors with the logical-one sign flipped, so they are not built
    separately.
    """
    if not 0 <= q < spec.order:
        raise ValueError(f"loss class q={q} outside [0, {spec.order})")
    base = damped_codeword(spec, logical)
    dropped = annihilate(base, q)
    norm_sq = dropped.norm() ** 2
    if norm_sq < 1e-250:
        raise ValueError(
            f"error-space state (m={spec.m}, logical={logical}, q={q}) has zero norm "
            "under the current truncation; amplitude too small for this loss class"
        )
    return dropped.normalized(), float(norm_sq)
