import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catrep import fockspace
from catrep.fockspace import (
    DEFAULT_POLICY,
    FockDensity,
    FockVector,
    HybridDensity,
    TruncationError,
    TruncationPolicy,
    add_spin,
    amplitude_damping,
    annihilate,
    apply_mode_operator,
    coherent_state,
    hcrot,
    hybrid_from_vector,
    kraus_op,
    lose,
    measure_spin,
    pure_state_fidelity,
    rotation_apply,
    trace_distance,
)
from catrep.protocol_oracle import transmit


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
    assert abs(va.overlap(vb) - expected) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    st.complex_numbers(max_magnitude=2.5, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=2.5, allow_nan=False, allow_infinity=False),
)
def test_coherent_overlap_property(a, b):
    va, vb = coherent_state(a), coherent_state(b)
    expected = np.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + np.conj(a) * b)
    assert abs(va.overlap(vb) - expected) < 1e-10


def test_policy_hard_limit():
    tight = TruncationPolicy(hard_limit=30)
    with pytest.raises(TruncationError):
        tight.n_max_for(4.0)
    # message should carry enough to diagnose the overflow
    try:
        tight.n_max_for(4.0)
    except TruncationError as e:
        assert "hard limit" in str(e)


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
    target = coherent_state(alpha * np.exp(1j * phi), DEFAULT_POLICY)
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


def test_kraus_completeness():
    n_max = 40
    for eta in (0.3, 0.9, 1.0):
        ops = [kraus_op(k, eta, n_max) for k in range(n_max + 1)]
        acc = sum(op.conj().T @ op for op in ops)
        assert np.max(np.abs(acc - np.eye(n_max + 1))) < 1e-10


def test_kraus_out_of_range_is_zero():
    assert np.all(kraus_op(12, 0.5, 5) == 0.0)


@pytest.mark.parametrize("eta", [0.3, 0.9, 1.0])
def test_lose_matches_dense_kraus_op(eta):
    rng = np.random.default_rng(7)
    n_max = 12
    d = n_max + 1
    pure = rng.normal(size=(3, d, 2)) + 1j * rng.normal(size=(3, d, 2))
    pure /= np.linalg.norm(pure)
    vecs = rng.normal(size=(2 * d, 3)) + 1j * rng.normal(size=(2 * d, 3))
    rho = vecs @ vecs.conj().T
    rho = (rho / np.trace(rho)).reshape(2, d, 2, d)  # one spin, then the mode
    # a pure array along its mode axis, a density along its row and column axes
    pure_terms = list(lose(pure, eta, (1,)))
    rho_terms = list(lose(rho, eta, (1, 3)))
    assert len(pure_terms) == len(rho_terms) == d
    for k, (got_pure, got_rho) in enumerate(zip(pure_terms, rho_terms)):
        a = kraus_op(k, eta, n_max)
        want = np.einsum("mn,snt->smt", a, pure)
        assert np.max(np.abs(got_pure - want)) < 1e-14
        want = np.einsum("pm,ambn,qn->apbq", a, rho, a.conj())
        assert np.max(np.abs(got_rho - want)) < 1e-14


def test_loss_rows_are_built_when_reached(monkeypatch):
    # Row k of the loss coefficients costs O(dim), not the dim x dim table,
    # and the Kraus sum, which stops once it holds the trace mass, never
    # builds the rows of the counts it does not reach.
    dim = 2048
    tracemalloc.start()
    try:
        first = next(fockspace._loss_rows(0.9, dim))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.shape == (dim,)
    assert peak < 16 * 8 * dim  # a handful of length-dim vectors

    built = []
    rows = fockspace._loss_rows

    def counting_rows(eta, dim):
        for row in rows(eta, dim):
            built.append(1)
            yield row

    monkeypatch.setattr(fockspace, "_loss_rows", counting_rows)
    rho = coherent_state(3.0).density()
    assert abs(amplitude_damping(rho, 0.9).trace() - 1.0) < 1e-9
    assert 0 < len(built) < rho.dim // 2


def test_amplitude_damping_on_coherent_state():
    alpha, eta = 1.6, 0.55
    rho = coherent_state(alpha).density()
    out = amplitude_damping(rho, eta)
    target = coherent_state(math.sqrt(eta) * alpha, DEFAULT_POLICY).padded(rho.n_max)
    assert abs(out.trace() - 1.0) < 1e-9
    fid = pure_state_fidelity(out.matrix, target.amps)
    assert abs(fid - 1.0) < 1e-9


def test_amplitude_damping_composability():
    rho = coherent_state(1.1).density()
    eta1, eta2 = 0.8, 0.7
    a = amplitude_damping(amplitude_damping(rho, eta1), eta2)
    b = amplitude_damping(rho, eta1 * eta2)
    assert np.max(np.abs(a.matrix - b.matrix)) < 1e-9


def test_amplitude_damping_identity_at_unit_transmission():
    rho = coherent_state(0.9).density()
    out = amplitude_damping(rho, 1.0)
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14


def test_density_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        FockDensity(np.array([[0.5, 0.9], [0.1, 0.5]]), 1)
    with pytest.raises(ValueError):
        FockDensity(np.array([[2.0, 0.0], [0.0, 0.0]]), 1)


def test_hybrid_construction_and_partial_traces():
    mode = coherent_state(0.7)
    psi = np.kron(np.array([1.0, 1.0]) / math.sqrt(2), mode.amps)
    s = hybrid_from_vector(1, mode.n_max, psi)
    assert abs(s.trace() - 1.0) < 1e-12
    assert abs(s.purity() - 1.0) < 1e-12
    spin = s.spin_density()
    assert np.allclose(spin, 0.5 * np.ones((2, 2)), atol=1e-12)
    rho_mode = s.mode_density()
    assert abs(pure_state_fidelity(rho_mode.matrix, mode.amps) - 1.0) < 1e-12


def test_add_spin_front_ordering():
    mode = coherent_state(0.5)
    base = hybrid_from_vector(1, mode.n_max, np.kron(np.array([0.0, 1.0]), mode.amps))
    grown = add_spin(base, (1.0, 0.0), front=True)
    assert grown.spins == 2
    spin2 = grown.spin_density()
    # front spin |↑⟩, old spin |↓⟩ → joint index 1 in [↑↑,↑↓,↓↑,↓↓]
    expect = np.zeros((4, 4))
    expect[1, 1] = 1.0
    assert np.allclose(spin2, expect, atol=1e-12)


def test_hcrot_makes_cat_branches():
    # |+⟩|α⟩ → controlled π rotation → x-measurement leaves ± cat states
    alpha = 1.1
    mode = coherent_state(alpha)
    psi = np.kron(np.array([1.0, 1.0]) / math.sqrt(2), mode.amps)
    s = hcrot(math.pi, hybrid_from_vector(1, mode.n_max, psi))
    branches = measure_spin(s, 0, basis="x")
    assert len(branches) == 2
    probs = {label: p for label, p, _ in branches}
    assert abs(sum(probs.values()) - 1.0) < 1e-12
    plus = coherent_state(alpha).amps + coherent_state(-alpha, DEFAULT_POLICY).padded(mode.n_max).amps
    plus = plus / np.linalg.norm(plus)
    _, p_plus, post = [b for b in branches if b[0] == "+"][0]
    assert abs(pure_state_fidelity(post.matrix, plus) - 1.0) < 1e-10
    # branch weights follow the cat normalizations
    n_plus = 0.5 * (1.0 + math.exp(-2.0 * alpha * alpha))
    assert abs(p_plus - n_plus) < 1e-10


def test_hcrot_preserves_purity_and_trace():
    mode = coherent_state(0.8)
    psi = np.kron(np.array([0.6, 0.8]), mode.amps)
    s = hybrid_from_vector(1, mode.n_max, psi)
    out = hcrot(2.2, s)
    assert abs(out.trace() - 1.0) < 1e-12
    assert abs(out.purity() - 1.0) < 1e-12


def test_measure_spin_z_keep_spin():
    mode = coherent_state(0.4)
    psi = np.kron(np.array([0.6, 0.8]), mode.amps)
    s = hybrid_from_vector(1, mode.n_max, psi)
    branches = measure_spin(s, 0, basis="z", keep_spin=True)
    probs = dict((label, p) for label, p, _ in branches)
    assert abs(probs["up"] - 0.36) < 1e-12
    assert abs(probs["down"] - 0.64) < 1e-12
    for _, _, post in branches:
        assert post.spins == 1
        assert abs(post.trace() - 1.0) < 1e-12


def test_measure_spin_explicit_basis_and_labels():
    mode = coherent_state(0.4)
    psi = np.kron(np.array([1.0, 0.0]), mode.amps)
    s = hybrid_from_vector(1, mode.n_max, psi)
    z = np.exp(1j * 0.3)
    b0 = np.array([1.0, z]) / math.sqrt(2)
    b1 = np.array([1.0, -z]) / math.sqrt(2)
    branches = measure_spin(s, 0, basis=(b0, b1), labels=("a", "b"))
    probs = dict((label, p) for label, p, _ in branches)
    assert abs(probs["a"] - 0.5) < 1e-12
    assert abs(probs["b"] - 0.5) < 1e-12


def test_measure_spin_rejects_bad_basis():
    mode = coherent_state(0.4)
    psi = np.kron(np.array([1.0, 0.0]), mode.amps)
    s = hybrid_from_vector(1, mode.n_max, psi)
    with pytest.raises(ValueError):
        measure_spin(s, 0, basis=(np.array([1.0, 0.0]), np.array([0.9, 0.1])))


def test_transmit_matches_density_channel():
    alpha, eta = 1.0, 0.6
    mode = coherent_state(alpha)
    psi = np.kron(np.array([1.0, 1.0]) / math.sqrt(2), mode.amps)
    s = hybrid_from_vector(1, mode.n_max, psi)
    out = transmit(s, eta)
    assert abs(out.trace() - 1.0) < 1e-10
    rho = out.mode_density()
    direct = amplitude_damping(mode.density(), eta)
    assert np.max(np.abs(rho.matrix - direct.matrix)) < 1e-10


def test_apply_mode_operator_rotation():
    mode = coherent_state(0.9)
    psi = np.kron(np.array([1.0, 0.0]), mode.amps)
    s = hybrid_from_vector(1, mode.n_max, psi)
    out = apply_mode_operator(s, np.diag(np.exp(0.5j * np.arange(mode.dim))))
    rot = rotation_apply(0.5, mode)
    assert abs(pure_state_fidelity(out.mode_density().matrix, rot.amps) - 1.0) < 1e-12


def test_trace_distance_extremes():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert abs(trace_distance(a, a)) < 1e-15
    assert abs(trace_distance(a, b) - 1.0) < 1e-15
