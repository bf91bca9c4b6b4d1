import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catrep import fockspace
from catrep.fockspace import (
    FockVector,
    HybridDensity,
    TruncationError,
    annihilate,
    apply_mode_operator,
    coherent_state,
    hybrid_from_vector,
    trace_distance,
)
from catrep.protocol_oracle import _residue
from fock_reference import kraus_op, kraus_ops, rotation_apply


def damp(rho, eta):
    """The amplitude-damping channel Σ_k Â_k ρ Â_k† over every k of `kraus_op`."""
    return sum(a @ rho @ a.conj().T for a in kraus_ops(eta, rho.shape[0] - 1))


def density(v):
    """|v⟩⟨v| of a Fock vector."""
    return np.outer(v.amps, v.amps.conj())


def fidelity(rho, psi):
    """⟨ψ|ρ|ψ⟩."""
    return float(np.vdot(psi, rho @ psi).real)


def overlap(a, b):
    """⟨a|b⟩ of two Fock vectors, the shorter one zero-padded."""
    n_max = max(a.n_max, b.n_max)
    return complex(np.vdot(a.padded(n_max).amps, b.padded(n_max).amps))


def test_coherent_state_norm_and_poisson_diagonal():
    v = coherent_state(1.3)
    assert abs(v.norm() - 1.0) < 1e-12
    diag = np.abs(v.amps) ** 2
    n = np.arange(v.dim)
    expected = np.exp(-1.69 + n * math.log(1.69) - [math.lgamma(k + 1) for k in n])
    assert np.allclose(diag, expected, atol=1e-15)


def test_coherent_overlap_closed_form():
    a, b = 0.8 + 0.3j, -0.5 + 1.1j
    va, vb = coherent_state(a), coherent_state(b)
    expected = np.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + np.conj(a) * b)
    assert abs(overlap(va, vb) - expected) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    st.complex_numbers(max_magnitude=2.5, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=2.5, allow_nan=False, allow_infinity=False),
)
def test_coherent_overlap_property(a, b):
    va, vb = coherent_state(a), coherent_state(b)
    expected = np.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + np.conj(a) * b)
    assert abs(overlap(va, vb) - expected) < 1e-10


def test_policy_hard_limit():
    # |alpha| = 45 asks for n_max = 2025 + 360 + 20 = 2405, over the limit 2048;
    # the message carries enough to diagnose the refusal
    with pytest.raises(TruncationError, match="hard limit") as err:
        coherent_state(45.0)
    assert "n_max=2405" in str(err.value)
    assert coherent_state(40.0).n_max == 1940
    # an amplitude whose rule leaves float range is refused the same way
    with pytest.raises(TruncationError, match="hard limit"):
        coherent_state(1e200)


def test_coherent_state_guard_reads_the_poisson_tail():
    # |1 - ||v||^2| reads 1.036e-12 of rounding here; the tail past
    # n_max = 1,573 is 6.48e-17 (mpmath, 40 digits)
    alpha = 35.60705926481621
    assert coherent_state(alpha).n_max == 1573
    assert fockspace._tail_mass(alpha, 1573) == pytest.approx(6.483046789314458e-17, rel=1e-10)
    assert fockspace._tail_mass(2.0, 40) == pytest.approx(2.925551165194596e-27, rel=1e-10)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
def test_non_finite_amplitude_is_named(alpha):
    with pytest.raises(ValueError, match="alpha=") as err:
        coherent_state(alpha)
    assert "not finite" in str(err.value)


def uncached_coherent_amps(alpha):
    """Amplitudes of |α⟩ from the raw amplitude, with no state kept: how
    `coherent_state` built them before it kept its results."""
    a = abs(alpha)
    n_max = fockspace._cutoff(alpha)
    if a == 0.0:
        return np.eye(1, n_max + 1, dtype=complex)[0]
    n = np.arange(n_max + 1)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n])
    log_mag = -0.5 * a * a + n * math.log(a) - 0.5 * log_fact
    return np.exp(log_mag + 1j * n * np.angle(alpha))


# Amplitudes that compare equal share a kept state only where the build
# reads the same |α| and arg α: -1.25 and -1.25 - 0j have arg π and −π.
_AMPLITUDES = [
    2.0, 2, 2 + 0j, complex(2.0, -0.0), np.float64(2.0), np.array(2.0),
    -1.25, complex(-1.25, -0.0), 0.7 - 0.4j, np.array(-0.3 + 1.1j), 0.0, 35.60705926481621,
]


def test_kept_coherent_states_have_the_uncached_bits():
    for order in (_AMPLITUDES, _AMPLITUDES[::-1]):
        fockspace._coherent_state.cache_clear()
        for alpha in order:
            for _build_then_kept in range(2):
                v = coherent_state(alpha)
                assert not v.amps.flags.writeable
                assert v.amps.tobytes() == uncached_coherent_amps(alpha).tobytes(), repr(alpha)
        # six amplitudes equal to 2, then one state per other (|α|, arg α)
        info = fockspace._coherent_state.cache_info()
        assert (info.misses, info.hits, info.currsize) == (7, 17, 7)


@pytest.mark.parametrize(
    "alpha,error",
    [
        (math.nan, ValueError), (math.inf, ValueError), (complex(1.0, math.nan), ValueError),
        (np.array(-math.inf), ValueError), (45.0, TruncationError), (1e200, TruncationError),
    ],
)
def test_refused_amplitudes_are_refused_on_every_call(alpha, error):
    fockspace._coherent_state.cache_clear()
    for _call in range(3):
        with pytest.raises(error):
            coherent_state(alpha)
    info = fockspace._coherent_state.cache_info()
    assert (info.misses, info.currsize) == (0, 0)
    assert coherent_state(2.0).n_max == 40  # and the cache still serves


def test_rotation_preserves_norm_and_composes():
    v = coherent_state(1.7)
    r = rotation_apply(0.7, rotation_apply(0.4, v))
    direct = rotation_apply(1.1, v)
    assert np.allclose(r.amps, direct.amps, atol=1e-14)
    assert abs(r.norm() - 1.0) < 1e-12


def test_rotation_moves_coherent_amplitude():
    # exp(iφn̂)|α⟩ = |α e^{iφ}⟩ up to truncation
    alpha, phi = 1.2, 0.9
    rotated = rotation_apply(phi, coherent_state(alpha))
    target = coherent_state(alpha * np.exp(1j * phi))
    n = min(rotated.dim, target.dim)
    assert np.allclose(rotated.amps[:n], target.amps[:n], atol=1e-12)


def test_rotation_annihilation_commutation():
    # R(φ) â = e^{−iφ} â R(φ)
    v = coherent_state(0.9 + 0.4j)
    phi = 0.61
    lhs = rotation_apply(phi, annihilate(v))
    rhs = annihilate(rotation_apply(phi, v))
    assert np.max(np.abs(lhs.amps - np.exp(-1j * phi) * rhs.amps)) < 1e-10


def test_annihilate_coherent_eigenrelation():
    alpha = 1.4
    v = coherent_state(alpha)
    av = annihilate(v)
    assert np.max(np.abs(av.amps[:-1] - alpha * v.amps[:-1])) < 1e-12


def stepped(amps, r):
    """r steps of â along the last axis, one loop pass each, as `annihilate`
    took them before the ladder."""
    amps = np.array(amps, dtype=complex)
    root = np.sqrt(np.arange(1, amps.shape[-1]))
    for _ in range(r):
        amps[..., :-1] = root * amps[..., 1:]
        amps[..., -1] = 0.0
    return amps


def test_ladder_rungs_are_annihilate():
    # Rung r of one ladder holds the bits of annihilate(v, r), zero tail
    # included, up to r = 16 (2^(m+1) at m = 3), on a coherent state and
    # on a stacked (2, d) pair alike.
    v = coherent_state(2.0)
    pair = np.stack([v.amps, rotation_apply(math.pi / 8, v).amps])
    one, two = fockspace._ladder(v.amps, 17), fockspace._ladder(pair, 17)
    assert one.shape == (17, v.dim) and two.shape == (17, 2, v.dim)
    for r in range(17):
        assert one[r].tobytes() == annihilate(v, r).amps.tobytes()
        assert one[r].tobytes() == stepped(v.amps, r).tobytes()
        assert two[r].tobytes() == stepped(pair, r).tobytes()
        for row, vec in zip(two[r], pair):
            assert row.tobytes() == annihilate(FockVector(vec, v.n_max), r).amps.tobytes()
        assert np.all(one[r, v.dim - r :] == 0.0) and np.all(two[r, :, v.dim - r :] == 0.0)
    assert np.all(one[16, : v.dim - 16] != 0.0)


def test_kraus_completeness():
    n_max = 40
    for eta in (0.3, 0.9, 1.0):
        ops = [kraus_op(k, eta, n_max) for k in range(n_max + 1)]
        acc = sum(op.conj().T @ op for op in ops)
        assert np.max(np.abs(acc - np.eye(n_max + 1))) < 1e-10


def test_kraus_out_of_range_is_zero():
    assert np.all(kraus_op(12, 0.5, 5) == 0.0)


def test_loss_rows_are_built_when_reached():
    # Row k of the loss coefficients costs O(dim), not the dim x dim table,
    # whichever k it is.
    dim = 2048
    for k in (0, dim // 2):
        tracemalloc.start()
        try:
            rows = fockspace._loss_rows(0.9, dim, [k])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (1, dim)
        assert peak < 16 * 8 * dim  # a handful of length-dim vectors


def streamed_loss_rows(eta, dim):
    """The loss rows one after another, row k = 0, 1, … each from its own
    log-domain formula: how they were built before rows were served by count."""
    if eta == 1.0:
        yield np.ones(dim)
        for k in range(1, dim):
            yield np.zeros(dim - k)
        return
    n = np.arange(dim)
    log_fact = fockspace._log_factorials(dim)
    log_loss, log_eta = math.log1p(-eta), math.log(eta)
    for k in range(dim):
        m = dim - k
        log_c = k * log_loss + n[:m] * log_eta + log_fact[k:] - log_fact[k] - log_fact[:m]
        yield np.exp(0.5 * log_c)


@pytest.mark.parametrize("eta", [0.3, 0.9, 1.0])
@pytest.mark.parametrize("dim", [30, 86, 201])
def test_kraus_op_rows_are_the_streamed_rows(dim, eta):
    # Serving row k by count gives the row the stream reaches at k, bit for
    # bit, in kraus_op and in a block of rows alike.
    block = fockspace._loss_rows(eta, dim, range(dim))
    for k, want in enumerate(streamed_loss_rows(eta, dim)):
        assert np.array_equal(np.diag(kraus_op(k, eta, dim - 1), k), want)
        assert np.array_equal(block[k, : dim - k], want)
        assert np.all(block[k, dim - k :] == 0.0)


def test_amplitude_damping_on_coherent_state():
    alpha, eta = 1.6, 0.55
    v = coherent_state(alpha)
    out = damp(density(v), eta)
    target = coherent_state(math.sqrt(eta) * alpha).padded(v.n_max)
    assert abs(np.trace(out).real - 1.0) < 1e-9
    fid = fidelity(out, target.amps)
    assert abs(fid - 1.0) < 1e-9


def test_amplitude_damping_composability():
    rho = density(coherent_state(1.1))
    eta1, eta2 = 0.8, 0.7
    a = damp(damp(rho, eta1), eta2)
    b = damp(rho, eta1 * eta2)
    assert np.max(np.abs(a - b)) < 1e-9


def test_amplitude_damping_identity_at_unit_transmission():
    rho = density(coherent_state(0.9))
    out = damp(rho, 1.0)
    assert np.max(np.abs(out - rho)) < 1e-14


def test_density_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        HybridDensity(0, 1, np.array([[0.5, 0.9], [0.1, 0.5]]))
    with pytest.raises(ValueError):
        HybridDensity(0, 1, np.array([[2.0, 0.0], [0.0, 0.0]]))


def test_records_copy_the_callers_array():
    # the record freezes its own copy; the caller's array stays writable and apart
    a = np.array([1.0 + 0j, 0.0])
    v = FockVector(a, 1)
    rho = np.array([[0.5 + 0j, 0.0], [0.0, 0.5]])
    s = HybridDensity(0, 1, rho)
    for given, kept in ((a, v.amps), (rho, s.matrix)):
        assert given.flags.writeable and not kept.flags.writeable
        assert not np.shares_memory(given, kept)
        before = kept.copy()
        given.flat[0] = 0.25
        np.testing.assert_array_equal(kept, before)


def test_hybrid_construction_and_partial_traces():
    mode = coherent_state(0.7)
    psi = np.kron(np.array([1.0, 1.0]) / math.sqrt(2), mode.amps)
    s = hybrid_from_vector(1, mode.n_max, psi)
    assert abs(s.trace() - 1.0) < 1e-12
    assert abs(np.einsum("ij,ji->", s.matrix, s.matrix).real - 1.0) < 1e-12
    t = s.matrix.reshape(2, mode.dim, 2, mode.dim)
    spin = np.einsum("anbn->ab", t)
    assert np.allclose(spin, 0.5 * np.ones((2, 2)), atol=1e-12)
    rho_mode = np.einsum("anam->nm", t)
    assert abs(fidelity(rho_mode, mode.amps) - 1.0) < 1e-12


def test_hcrot_makes_cat_branches():
    # |+⟩|α⟩ → controlled π rotation → x-measurement leaves ± cat states:
    # the first cascade step, whose "+" branch is the even photon numbers
    alpha = 1.1
    mode = coherent_state(alpha)
    branches = [_residue(mode.amps, 2, c, 0) for c in (0, 1)]
    probs = [float(np.vdot(v, v).real) for v in branches]
    assert abs(sum(probs) - 1.0) < 1e-12
    plus = coherent_state(alpha).amps + coherent_state(-alpha).padded(mode.n_max).amps
    plus = plus / np.linalg.norm(plus)
    p_plus, post = probs[0], branches[0]
    assert abs(abs(np.vdot(plus, post)) ** 2 / p_plus - 1.0) < 1e-10
    # branch weights follow the cat normalizations
    n_plus = 0.5 * (1.0 + math.exp(-2.0 * alpha * alpha))
    assert abs(p_plus - n_plus) < 1e-10


def test_apply_mode_operator_rotation():
    mode = coherent_state(0.9)
    psi = np.kron(np.array([1.0, 0.0]), mode.amps)
    s = hybrid_from_vector(1, mode.n_max, psi)
    out = apply_mode_operator(s, np.diag(np.exp(0.5j * np.arange(mode.dim))))
    rot = rotation_apply(0.5, mode)
    rho_mode = np.einsum("anam->nm", out.matrix.reshape(2, mode.dim, 2, mode.dim))
    assert abs(fidelity(rho_mode, rot.amps) - 1.0) < 1e-12


def test_trace_distance_extremes():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert abs(trace_distance(a, a)) < 1e-15
    assert abs(trace_distance(a, b) - 1.0) < 1e-15


def test_trace_distance_stacks():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    a = x @ x.conj().transpose(0, 2, 1)
    b = a[::-1]
    stacked = trace_distance(a, b)
    assert stacked.shape == (5,)
    assert [float(d) for d in stacked] == [float(trace_distance(p, q)) for p, q in zip(a, b)]


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: FockVector(np.zeros(3), 3),
            "amplitude array of length (3,) does not match n_max=3",
        ),
        (lambda: FockVector(np.zeros(3), 2).normalized(), "cannot normalize a zero vector"),
        (lambda: FockVector(np.ones(3), 2).padded(1), "padding cannot shrink the cutoff"),
        (
            lambda: HybridDensity(1, 1, np.eye(3) / 3),
            "matrix shape (3, 3) does not match spins=1, n_max=1",
        ),
        (
            lambda: HybridDensity(0, 1, np.diag([1.5, -0.5])),
            "HybridDensity: negative eigenvalue -5.000e-01",
        ),
        (lambda: annihilate(coherent_state(1.0), -1), "q must be non-negative"),
        (lambda: fockspace._loss_rows(0.0, 4, [0]), "transmission eta must lie in (0, 1]"),
        (
            lambda: hybrid_from_vector(1, 1, np.ones(3)),
            "vector length 3 does not match composite dim 4",
        ),
        (lambda: hybrid_from_vector(0, 1, [1, 1]), "HybridDensity: trace (2+0j) outside [0, 1]"),
        (
            lambda: hybrid_from_vector(0, 1, [math.nan, 0.0]),
            "HybridDensity: trace (nan+nanj) outside [0, 1]",
        ),
    ],
    ids=[
        "length", "zero_norm", "shrink", "shape", "negative", "q", "eta", "vector_length",
        "vector_trace", "vector_nan",
    ],
)
def test_public_refusals_are_named(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
