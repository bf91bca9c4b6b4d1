import collections
import importlib
import itertools
import math
import pkgutil
import re
import tracemalloc

import numpy as np
import pytest

import catrep
from catrep import cli, fockspace, protocol_oracle
from catrep.catcode import CatCodeSpec, loss_weights
from catrep.fockspace import (
    FockVector,
    HybridDensity,
    annihilate,
    coherent_state,
    hybrid_from_vector,
    trace_distance,
)
from catrep.protocol_oracle import (
    _PRUNE,
    _arm,
    _arm_maps,
    _code_pair,
    _damped_pair,
    _density,
    _flip,
    _record_setup,
    _residue,
    _unit,
    _usd_bras,
    bell_order_equivalence,
    bell_vectors,
    prepare_code_state,
    simulate_unit,
    syndrome_cascade,
    syndrome_deviation,
)
from catrep.usd import optimal_usd_probability
from fock_reference import (
    codeword,
    damped_codeword,
    error_space_state,
    kraus_op,
    kraus_ops,
    rotation_apply,
)

SQRT2 = math.sqrt(2.0)


def eq9_vector(m, alpha, eta=1.0, n_max=None):
    """The damped spin-codeword vector, zero-padded up to n_max as `_damped_pair` pads it."""
    spec = CatCodeSpec(m, alpha, eta)
    cw0, cw1 = (damped_codeword(spec, lbl) for lbl in (0, 1))
    n_max = cw0.n_max if n_max is None else n_max
    return np.concatenate([cw0.padded(n_max).amps, cw1.padded(n_max).amps]) / SQRT2, n_max


def injected_error_state(m, alpha, eta, q, n_max):
    """(1 ⊗ a^q) on the damped spin-codeword state, renormalized."""
    psi, _ = eq9_vector(m, alpha, eta, n_max)
    d = n_max + 1
    up, down = FockVector(psi[:d], n_max), FockVector(psi[d:], n_max)
    up_q, down_q = annihilate(up, q), annihilate(down, q)
    joint = np.concatenate([up_q.amps, down_q.amps])
    joint = joint / np.linalg.norm(joint)
    return hybrid_from_vector(1, n_max, joint)


# ---------------------------------------------------------------------------
# the density route: the independent reference for the record engine


def transmit(s, eta):
    """Loss on the mode factor of a hybrid density: Σ_k Â_k ρ Â_k† over
    every k of `kraus_op`, with no early stop."""
    eye = np.eye(2**s.spins)
    rho = sum(a @ s.matrix @ a.conj().T for a in (np.kron(eye, op) for op in kraus_ops(eta, s.n_max)))
    return HybridDensity(s.spins, s.n_max, rho)


def cascade_step(s, phi, basis):
    """One cascade step as an experiment runs it on a hybrid density: adjoin
    an ancilla spin in |+⟩ after the others, apply the hybrid controlled
    rotation |↑⟩⟨↑|⊗𝟙 + |↓⟩⟨↓|⊗e^{iφn̂} with it as control, and project it
    on each vector of the explicit basis.  Returns the unnormalized post
    densities, ancilla removed, in basis order."""
    ns, d = 2**s.spins, s.mode_dim
    t = np.einsum("ab,imjn->iamjbn", np.full((2, 2), 0.5), s.matrix.reshape(ns, d, ns, d))
    rot = np.stack([np.ones(d), np.exp(1j * phi * np.arange(d))])  # (ancilla, mode) diagonal
    t = rot[None, :, :, None, None, None] * t * rot.conj()[None, None, None, None, :, :]
    posts = (np.einsum("a,b,iamjbn->imjn", b.conj(), b, t).reshape(s.dim, s.dim) for b in basis)
    return [HybridDensity(s.spins, s.n_max, x) for x in posts]


def class_pair(pair, r):
    """The class-r codeword pair of a (codeword, mode) array, each codeword
    through the public `annihilate` on its own."""
    n_max = pair.shape[1] - 1
    return np.stack([annihilate(FockVector(cw, n_max), r).amps for cw in pair])


def density_unit(spec):
    """The unit the density way: the prepared spin-codeword density through
    `transmit` and `syndrome_cascade`, the receiver spin attached in the
    mode's place (x → (x, e^{iπn̂/M}x)/√2, its hcrot at π/M on |+⟩), then
    the discrimination bras of each remainder.

    Returns {remainder: (probability, [unnormalized 4×4 (receiver, sender)
    block of USD outcome u = 0, u = 1])}."""
    prim = coherent_state(spec.alpha)
    d = prim.dim
    attach = np.stack([np.ones(d), np.exp(1j * math.pi / spec.order * np.arange(d))]) / SQRT2
    pair = _damped_pair(spec, _flip(spec.m, d))
    trans = transmit(prepare_code_state(spec.m, prim), spec.eta)
    out = {}
    for r, prob, post in syndrome_cascade(trans, spec.m):
        t = prob * post.matrix.reshape(2, d, 2, d)
        ent = np.einsum("am,smtn,bn->asmbtn", attach, t, attach.conj()).reshape(4, d, 4, d)
        out[r] = (prob, [b.conj() @ (ent @ b) for b in _usd_bras(class_pair(pair, r), r)])
    return out


def test_prepare_matches_direct_construction():
    for m in (1, 2, 3):
        prim = coherent_state(1.0)
        prep = prepare_code_state(m, prim)
        target, _ = eq9_vector(m, 1.0, 1.0, prim.n_max)
        assert np.vdot(target, prep.matrix @ target).real > 1.0 - 1e-10


def test_prepare_makes_no_eigen_solve(monkeypatch):
    # |ψ⟩⟨ψ| is positive by construction, so the prepared density skips the
    # constructor's eigenvalue test, and every test of that constructor passes on it
    prim = coherent_state(2.0)

    def eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", eigvalsh)
        prep = prepare_code_state(1, prim)
    assert HybridDensity(1, prim.n_max, prep.matrix) == prep
    assert not prep.matrix.flags.writeable


def test_prepare_first_step_minus_branch_structure():
    # the rejected branch of the first cascade step carries the
    # complementary superposition of the primitive and its pi rotation
    prim = coherent_state(1.1)
    x_basis = (np.array([1.0, 1.0]) / SQRT2, np.array([1.0, -1.0]) / SQRT2)
    _plus, minus = cascade_step(hybrid_from_vector(0, prim.n_max, prim.amps), math.pi, x_basis)
    minus_mode = prim.amps - rotation_apply(math.pi, prim).amps
    minus_mode = minus_mode / np.linalg.norm(minus_mode)
    fid = np.vdot(minus_mode, minus.matrix @ minus_mode).real
    assert abs(fid / minus.trace() - 1.0) < 1e-12


def test_prepare_branches_partition():
    # the preparation cascade's branches are the primitive's classes mod 4:
    # they sum to it exactly, and their probabilities to 1
    prim = coherent_state(1.2)
    branches = [_residue(prim.amps, 4, c, 0) for c in range(4)]
    assert np.array_equal(sum(branches), prim.amps)
    probs = [float(np.vdot(v, v).real) for v in branches]
    assert abs(sum(probs) - 1.0) < 1e-10
    n = np.arange(prim.dim)
    for c, v in enumerate(branches):
        # support of each branch is a clean photon-number class
        assert np.all(v[n % 4 != c] == 0.0)
        assert np.array_equal(v[n % 4 == c], prim.amps[n % 4 == c])


def masked_residue(x, modulus, c, *axes):
    """The class of c mod modulus as an index mask per axis and `np.where`:
    how `_residue` was defined before it copied strided slices."""
    for ax in axes:
        shape = [1] * x.ndim
        shape[ax] = -1
        x = np.where((np.arange(x.shape[ax]) % modulus == c % modulus).reshape(shape), x, 0j)
    return x


def test_residue_has_the_mask_definitions_bits():
    # Real and complex input with -0.0 entries, on one axis and on two, keep
    # every bit of the mask-and-where definition, zeros' signs and dtype too.
    rng = np.random.default_rng(36)
    real = rng.standard_normal((3, 23))
    real[:, ::5] = -0.0
    cplx = real + 1j * rng.standard_normal(real.shape)
    cplx[1, ::3] = complex(-0.0, -0.0)
    four = (cplx[:2, None, :, None] * cplx[None, :, None, :2].conj()).reshape(2, 3, 23, -1)
    cases = [
        (real[0], (0,)), (cplx[1], (0,)), (real, (1,)), (cplx, (1,)),
        (real, (0, 1)), (cplx, (1, 0)), (four, (1, 3)), (four, (2,)),
    ]
    checked = 0
    for x, axes in cases:
        for modulus in range(2, 17):
            shifts = (-2 * modulus - 1, -modulus, -3, -1, 0, 1, modulus - 1, modulus, 3 * modulus + 2)
            for c in shifts:
                got, want = _residue(x, modulus, c, *axes), masked_residue(x, modulus, c, *axes)
                assert (got.dtype, got.shape) == (want.dtype, want.shape) == (complex, x.shape)
                assert got.tobytes() == want.tobytes(), (x.shape, axes, modulus, c)
                checked += 1
    assert checked == 8 * 15 * 9


class CountingFloor(float):
    """A floor that counts the checks made against it, as `weight > floor`."""

    checks = 0

    def __lt__(self, other):
        CountingFloor.checks += 1
        return float(self) < other


@pytest.mark.parametrize("alpha", [0.5, 2.0])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_preparation_follows_its_kept_branch(m, alpha, monkeypatch):
    # The codeword pair holds the bits of the primitive's class 0 mod 2^m,
    # normalized, which is the all-"+" branch of the operational cascade,
    # and takes one floor check to get them.
    prim = coherent_state(alpha)
    v = _residue(prim.amps, 2**m, 0, 0)
    weight = float(np.vdot(v, v).real)
    v = v / math.sqrt(weight)
    cw0, cw1 = _code_pair(m, prim, _flip(m, prim.dim))
    assert cw0.tobytes() == v.tobytes()
    assert cw1.tobytes() == (np.exp(1j * math.pi / 2**m * np.arange(prim.dim)) * v).tobytes()
    plus = operational_cascade(hybrid_from_vector(0, prim.n_max, prim.amps), m, "direct")[0]
    assert np.max(np.abs(weight * np.outer(cw0, cw0.conj()) - plus)) < 1e-12
    monkeypatch.setattr(protocol_oracle, "_ZERO_BRANCH", CountingFloor(1e-14))
    CountingFloor.checks = 0
    assert _code_pair(m, prim, _flip(m, prim.dim))[0].tobytes() == cw0.tobytes()
    assert CountingFloor.checks == 1
    # Fock |1⟩ has a zero "+" branch at the first step: (1 + e^{iπn})/2 is 0 at odd n
    with pytest.raises(ValueError, match="degenerate primitive"):
        prepare_code_state(m, FockVector(np.array([0.0, 1.0, 0.0, 0.0]), 3))


def test_transmit_identity_and_rank():
    prim = coherent_state(1.0)
    prep = prepare_code_state(2, prim)
    assert np.max(np.abs(transmit(prep, 1.0).matrix - prep.matrix)) == 0.0
    out = transmit(prep, 0.8)
    assert abs(out.trace() - 1.0) < 1e-9
    evals = np.linalg.eigvalsh(out.matrix)
    assert int((evals > 1e-10).sum()) <= 8


def test_transmit_kraus_component_structure():
    # each loss component of the transmitted codeword is the damped
    # codeword hit by a^k, and the logical-one component is the rotated
    # logical-zero one up to the k-dependent phase
    m, alpha, eta = 1, 1.3, 0.7
    spec = CatCodeSpec(m, alpha, eta)
    cw0, cw1 = codeword(spec, 0), codeword(spec, 1)
    dc0, dc1 = (damped_codeword(spec, lbl).padded(cw0.n_max) for lbl in (0, 1))
    big_m = spec.order
    for k in (0, 1, 2, 3):
        a = kraus_op(k, eta, cw0.n_max)
        got0 = a @ cw0.amps
        got1 = a @ cw1.amps
        ref0 = annihilate(dc0, k).amps
        ref1 = annihilate(dc1, k).amps
        for got, ref in ((got0, ref0), (got1, ref1)):
            overlap = np.vdot(ref, got)
            assert abs(abs(overlap) - np.linalg.norm(got) * np.linalg.norm(ref)) < 1e-10
        # rotation relation between the pair in loss class k
        n0, n1 = np.linalg.norm(got0), np.linalg.norm(got1)
        psi0, psi1 = got0 / n0, got1 / n1
        rotated = np.exp(1j * k * math.pi / big_m) * rotation_apply(
            math.pi / big_m, FockVector(psi0, cw0.n_max)
        ).amps
        assert np.max(np.abs(psi1 - rotated)) < 1e-9


@pytest.mark.parametrize("variant", ["direct", "pi_minus_phi"])
def test_syndrome_exactness_pure_errors(variant):
    for m, alpha in ((1, 1.0), (2, 1.2)):
        n_max = coherent_state(alpha).n_max
        big_m = 2 ** m
        for q in range(2 * big_m):
            st = injected_error_state(m, alpha, 0.8, q, n_max)
            branches = syndrome_cascade(st, m, variant)
            assert len(branches) == 1
            r, prob, _post = branches[0]
            assert r == q % big_m
            assert abs(prob - 1.0) < 1e-12


def operational_cascade(s, m, variant):
    """The cascade as an experiment runs it, one `cascade_step` per step.

    Step j rotates by φ = π/2^{j−1} and measures in the basis
    (|↑⟩ ± z|↓⟩)/√2 with z = e^{2πic/2^j}, c the branch's class; variant
    "pi_minus_phi" rotates by π − φ past step 1, which flips the class
    parity phase, so its basis takes z = (−1)^c·e^{−2πic/2^j}.  Returns
    {class: unnormalized post density}, without the branches whose trace
    is at most 1e-14 of their parent's.
    """
    branches = [(0, s)]
    for step in range(1, m + 1):
        phi = math.pi / 2 ** (step - 1)
        nxt = []
        for c, st in branches:
            beta = 2.0 * math.pi * c / 2**step
            if variant == "direct" or step == 1:
                angle, z = phi, complex(np.exp(1j * beta))
            else:
                angle, z = math.pi - phi, complex((-1.0) ** c * np.exp(-1j * beta))
            basis = (np.array([1.0, z]) / SQRT2, np.array([1.0, -z]) / SQRT2)
            posts = cascade_step(st, angle, basis)
            for c2, post in zip((c, c + 2 ** (step - 1)), posts):
                if post.trace() > 1e-14 * st.trace():
                    nxt.append((c2, post))
        branches = nxt
    return {c: st.matrix for c, st in branches}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("variant", ["direct", "pi_minus_phi"])
def test_cascade_kernel_matches_operational_route(m, variant):
    # density form: a transmitted spin-codeword state, every class present
    trans = transmit(prepare_code_state(m, coherent_state(2.0)), 0.7)
    want = operational_cascade(trans, m, variant)
    got = syndrome_cascade(trans, m, variant)
    assert sorted((-r) % 2**m for r, _p, _s in got) == sorted(want)
    for r, prob, post in got:
        assert np.max(np.abs(prob * post.matrix - want[(-r) % 2**m])) < 1e-12
    # pure form: a spin-mode entangled amplitude array, mode on axis 1
    alpha = 1.5
    prim = coherent_state(alpha)
    psi = np.stack([prim.amps, rotation_apply(0.3, prim).amps]) / SQRT2
    want = operational_cascade(hybrid_from_vector(1, prim.n_max, psi.reshape(-1)), m, variant)
    assert sorted(want) == list(range(2**m))
    for c in range(2**m):
        flat = _residue(psi, 2**m, c, 1).reshape(-1)
        assert np.max(np.abs(np.outer(flat, flat.conj()) - want[c])) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("variant", ["direct", "pi_minus_phi"])
def test_cascade_projectors_are_exact(m, variant):
    # each class's mask is exactly 0 off its residue class and exactly 1 on
    # it, far up the photon-number axis too
    n = np.arange(2000)
    for c in range(2**m):
        proj = _residue(np.ones(n.size), 2**m, c, 0)
        assert np.array_equal(proj, (n % 2**m == c).astype(complex))
    # and so is the density cascade's projector in either variant: on the
    # uniform superposition over 64 levels, class c keeps exactly the
    # (n, n') block with n, n' ≡ c (mod 2^m), and the probabilities are 2^-m
    d = 64
    rho = HybridDensity(0, d - 1, np.full((d, d), 1.0 / d, dtype=complex))
    branches = syndrome_cascade(rho, m, variant)
    assert [r for r, _p, _s in branches] == list(range(2**m))
    for r, prob, post in branches:
        on = np.arange(d) % 2**m == (-r) % 2**m
        assert prob == 2.0**-m
        assert np.array_equal(post.matrix, np.outer(on, on) * (2**m / d))


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: prepare_code_state(0, coherent_state(1.0)),
            "cascade depth m=0 must be an integer >= 1",
        ),
        (
            lambda: prepare_code_state(1.5, coherent_state(1.0)),
            "cascade depth m=1.5 must be an integer >= 1",
        ),
        (
            lambda: prepare_code_state(2.0, coherent_state(1.0)),
            "cascade depth m=2.0 must be an integer >= 1",
        ),
        (
            lambda: prepare_code_state(True, coherent_state(1.0)),
            "cascade depth m=True must be an integer >= 1",
        ),
        (
            lambda: syndrome_cascade(prepare_code_state(1, coherent_state(1.0)), 0),
            "cascade depth m=0 must be an integer >= 1",
        ),
        (
            lambda: syndrome_cascade(prepare_code_state(1, coherent_state(1.0)), -1),
            "cascade depth m=-1 must be an integer >= 1",
        ),
        (
            lambda: syndrome_cascade(prepare_code_state(1, coherent_state(1.0)), True),
            "cascade depth m=True must be an integer >= 1",
        ),
        (
            lambda: syndrome_cascade(prepare_code_state(1, coherent_state(1.0)), 1, "phi"),
            "unknown cascade variant 'phi'",
        ),
    ],
    ids=[
        "prepare_m", "prepare_fraction", "prepare_float", "prepare_bool", "cascade_m0",
        "cascade_negative", "cascade_bool", "variant",
    ],
)
def test_public_refusals_are_named(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_syndrome_deviation_exact(m):
    assert syndrome_deviation(m, 1.5, 0.9) < 1e-12


def test_syndrome_deviation_keeps_its_bits_at_m4():
    assert syndrome_deviation(4, 8.0, 0.999) == 4.440892098500626e-16


@pytest.mark.parametrize(
    "point,norm",
    [((5, 2.0, 0.999), "norm 0.0"), ((6, 24.0, 0.9999), "norm inf")],
    ids=["past_the_cutoff", "overflowing_rungs"],
)
def test_syndrome_deviation_refuses_an_unnormalizable_injection(point, norm):
    # (5, 2, 0.999): 33 losses from a pair cut at n_max = 40 leave nothing;
    # (6, 24, 0.9999): the rung norms grow like alpha^(2q) and overflow
    with pytest.raises(ArithmeticError, match="injected losses") as err:
        syndrome_deviation(*point)
    assert norm in str(err.value)


def test_syndrome_probabilities_partition_mixture():
    prim = coherent_state(1.0)
    trans = transmit(prepare_code_state(2, prim), 0.9)
    branches = syndrome_cascade(trans, 2)
    assert abs(sum(p for _r, p, _s in branches) - 1.0) < 1e-10
    expected = loss_weights(CatCodeSpec(2, 1.0, 0.9))
    for r, prob, _s in branches:
        assert abs(prob - (expected.p[r] + expected.p[r + 4])) < 1e-8


def test_pi_minus_phi_variant_observationally_identical():
    prim = coherent_state(1.0)
    trans = transmit(prepare_code_state(2, prim), 0.85)
    direct = syndrome_cascade(trans, 2, "direct")
    alt = syndrome_cascade(trans, 2, "pi_minus_phi")
    assert len(direct) == len(alt)
    for (r1, p1, s1), (r2, p2, s2) in zip(direct, alt):
        assert r1 == r2
        assert abs(p1 - p2) < 1e-12
        assert np.max(np.abs(s1.matrix - s2.matrix)) < 1e-10


def test_simulate_unit_lossless():
    report = simulate_unit(CatCodeSpec(1, 1.0, 1.0))
    assert abs(report.f0_oracle - 1.0) < 1e-12
    assert abs(report.syndrome_probs[0] - 1.0) < 1e-12
    assert report.spin_states[0] is not None


def test_simulate_unit_matches_analytics_m1():
    spec = CatCodeSpec(1, 1.0, 0.9)
    report = simulate_unit(spec)
    w = loss_weights(spec)
    # class weights reconstructed operationally from Bell-sector masses
    assert np.max(np.abs(report.weights - w.p)) < 1e-8
    for r in range(2):
        pr, prm = w.p[r], w.p[r + 2]
        assert abs(report.syndrome_probs[r] - (pr + prm)) < 1e-8
        assert abs(report.plus_weight[r] - pr / (pr + prm)) < 1e-8
    b = spec.eta * spec.alpha ** 2
    s0 = abs(math.cos(b) / math.cosh(b))
    s1 = abs(math.sin(b) / math.sinh(b))
    assert abs(report.usd_success[0] - (1.0 - s0)) < 1e-8
    assert abs(report.usd_success[1] - (1.0 - s1)) < 1e-8
    from catrep.catcode import segment_fidelity

    assert abs(report.f0_oracle - segment_fidelity(spec)) < 1e-6


# Transmissions of the sweep's 100 km and 10 km segments, and a near-lossless one.
_SWEEP_ETAS = (math.exp(-100.0 / 22.0), math.exp(-10.0 / 22.0), 0.999)
# Dim m = 3 points where the Fock route cannot form the discrimination problem.
_FOCK_DEGENERATE = {(0.5, _SWEEP_ETAS[0]), (0.5, _SWEEP_ETAS[1]), (2.5, _SWEEP_ETAS[0])}


@pytest.mark.parametrize("eta", _SWEEP_ETAS, ids=("eta100km", "eta10km", "eta0.999"))
@pytest.mark.parametrize("alpha", [0.5, 2.5, 5.0])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_oracle_agrees_over_the_sweep_range(m, alpha, eta):
    spec = CatCodeSpec(m, alpha, eta)
    if m == 3 and (alpha, eta) in _FOCK_DEGENERATE:
        with pytest.raises(ArithmeticError, match="indistinguishable"):
            simulate_unit(spec)
        return
    report = simulate_unit(spec)
    assert np.max(np.abs(report.weights - loss_weights(spec).p)) < 1e-8
    assert abs(report.p_success_weighted - optimal_usd_probability(spec)) < 1e-10


def test_simulate_unit_weights_match_analytics_m2():
    spec = CatCodeSpec(2, 2.0, 0.99)
    report = simulate_unit(spec)
    w = loss_weights(spec)
    assert np.max(np.abs(report.weights - w.p)) < 1e-8


def test_usd_outcome_one_lands_in_psi_sector():
    spec = CatCodeSpec(1, 1.0, 0.9)
    report = simulate_unit(spec)
    for r in range(2):
        rho = report.spin_states[r]
        bells = bell_vectors(report.thetas[r])
        psi_mass = np.real(
            np.vdot(bells["psi_plus"], rho @ bells["psi_plus"])
            + np.vdot(bells["psi_minus"], rho @ bells["psi_minus"])
        )
        assert psi_mass < 1e-10


@pytest.mark.parametrize(
    "m,alpha,eta",
    [(1, 1.0, 0.9), (1, 2.0, 0.99), (2, 1.5, 0.9), (2, 2.0, 0.5), (3, 2.0, 0.9), (3, 3.0, 0.999)],
)
def test_readout_is_the_projection_on_the_public_bell_frames(m, alpha, eta):
    # plus_weight and weights are each spin state read in the frame
    # bell_vectors gives at its theta, by ==: the readout holds no frame of its own
    report = simulate_unit(CatCodeSpec(m, alpha, eta))
    big_m = 2**m
    assert report.thetas.tolist() == [r * math.pi / big_m for r in range(big_m)]
    read = 0
    for r, rho in enumerate(report.spin_states):
        if rho is None:
            assert report.plus_weight[r] == report.weights[r] == report.weights[r + big_m] == 0.0
            continue
        bells = bell_vectors(report.thetas[r])
        f_plus = float(np.real(np.vdot(bells["phi_plus"], rho @ bells["phi_plus"])))
        f_minus = float(np.real(np.vdot(bells["phi_minus"], rho @ bells["phi_minus"])))
        assert report.plus_weight[r] == f_plus
        assert report.weights[r] == report.syndrome_probs[r] * f_plus
        assert report.weights[r + big_m] == report.syndrome_probs[r] * f_minus
        read += 1
    assert read == big_m


@pytest.mark.parametrize(
    "m,alpha,eta", [(1, 1.0, 0.9), (1, 2.0, 0.99), (2, 2.0, 0.9), (3, 3.0, 0.999)]
)
def test_readout_takes_each_record_trace_as_one_matrix_trace(m, alpha, eta):
    # the records' traces, taken over the whole stack at once, have the bits
    # of each 4x4 block's own trace: the spin states, successes and weights too
    spec = CatCodeSpec(m, alpha, eta)
    report = simulate_unit(spec)
    records, (live,), (syn,) = _unit(spec)[2]
    blocks = _density(records, (1, 4, 5, 0, 3, 6, 2))[0]
    assert live.all()
    for r, (block0, block1) in enumerate(blocks):
        p0, p1 = float(np.trace(block0).real), float(np.trace(block1).real)
        assert report.spin_states[r].tobytes() == (block0 / p0).tobytes()
        assert report.usd_success[r] == (p0 + p1) / syn[r]
    assert report.syndrome_probs.tobytes() == syn.tobytes()


def test_bell_order_equivalence_lossless():
    dist = bell_order_equivalence(1, 1.0, 1.0)
    assert dist < 1e-12


def test_bell_order_lossless_s33_structure():
    _d, records = bell_order_equivalence(1, 1.0, 1.0, return_records=True)
    key = ("phi_plus", 0, 0, 0, 0)
    assert key in records
    pa, pb, ra, _rb = records[key]
    assert abs(pa - pb) < 1e-12
    target = np.array([1.0, 0.0, 0.0, 1.0]) / SQRT2
    fid = np.real(np.vdot(target, (ra / pa) @ target))
    assert abs(fid - 1.0) < 1e-10


def test_bell_order_equivalence_m2():
    assert bell_order_equivalence(2, 1.0, 0.9) < 1e-12


def record_discrepancy(p_before, p_after, rho_before, rho_after):
    """One record's discrepancy: 1.0 for a record only one ordering gives
    probability 1e-12 or more, else the larger of the probability mismatch
    and the trace distance of the conditional states."""
    if min(p_before, p_after) < 1e-12:
        return 1.0
    distance = float(trace_distance(rho_before / p_before, rho_after / p_after))
    return max(abs(p_before - p_after), distance)


@pytest.mark.parametrize(
    "m,alpha,eta",
    [
        (1, 2.0, 0.9),
        (1, 1.0, 1.0),  # every difference is zero
        (2, 1.5, 0.99),
        (2, 2.0, 1.0),
        (3, 2.0, 0.9),
        (3, 3.0, math.exp(-1.0 / 22.0)),  # the 9.84e-11 outlier, a conditioned record
    ],
)
def test_bell_order_maximum_is_taken_over_every_record(m, alpha, eta):
    # The eigen-solves run only where the Frobenius bracket says the
    # maximum can lie; it is still the maximum over every record, bit for bit.
    worst, records = bell_order_equivalence(m, alpha, eta, return_records=True)
    assert worst == max(map(record_discrepancy, *zip(*records.values())))
    assert bell_order_equivalence(m, alpha, eta) == worst


def test_bell_order_solves_only_where_the_maximum_can_lie(monkeypatch):
    # Every two-sided record's trace distance T lies in [‖Δ‖_F/2, ‖Δ‖_F], so
    # only the records whose ‖Δ‖_F reaches half the largest are solved.
    solved = []

    def counting_trace_distance(a, b):
        solved.append(len(a))
        return trace_distance(a, b)

    monkeypatch.setattr(protocol_oracle, "trace_distance", counting_trace_distance)
    _d, records = bell_order_equivalence(1, 2.0, 0.9, return_records=True)
    two_sided = [rec for rec in records.values() if min(rec[:2]) >= 1e-12]
    diff = np.array([ra / pa - rb / pb for pa, pb, ra, rb in two_sided])
    fro = np.linalg.norm(diff, axis=(1, 2))
    distance = trace_distance(diff, np.zeros(4))
    assert np.all(fro / 2 <= distance * (1 + 1e-12)) and np.all(distance <= fro * (1 + 1e-12))
    assert solved == [np.count_nonzero(fro >= 0.5 * (1.0 - 1e-6) * fro.max())]
    assert 0 < solved[0] < len(diff)


@pytest.mark.parametrize("m,alpha,eta", [(1, 1.0, 0.9), (2, 1.0, 0.9), (1, 2.0, 0.99)])
def test_bell_order_records_match_density_engine(m, alpha, eta):
    # Both orderings share one arm kernel, so a fault in it cancels out of
    # bell_order_equivalence; tie the records to the density route instead.
    # Summed over Bell labels and USD outcomes, the records of remainders
    # (r1, r2) carry each arm's syndrome probability times its success.
    _d, records = bell_order_equivalence(m, alpha, eta, return_records=True)
    big_m = 2**m
    arm = np.zeros(big_m)
    for r, (_prob, blocks) in density_unit(CatCodeSpec(m, alpha, eta)).items():
        arm[r] = sum(np.trace(b).real for b in blocks)
    pa = np.zeros((big_m, big_m))
    pb = np.zeros((big_m, big_m))
    for (_lbl, r1, _u1, r2, _u2), (p_before, p_after, _ra, _rb) in records.items():
        pa[r1, r2] += p_before
        pb[r1, r2] += p_after
    want = np.outer(arm, arm)
    assert np.max(np.abs(pa - want)) < 1e-10
    assert np.max(np.abs(pb - want)) < 1e-10


@pytest.mark.parametrize(
    "m,alpha,eta", [(1, 2.0, 0.9), (2, 2.0, 0.9), (3, 3.0, math.exp(-1 / 22)), (4, 3.0, 0.99)]
)
def test_bell_last_products_have_the_einsum_bits(m, alpha, eta):
    # Every record's Bell-last density has the bits of the einsum its two
    # matrix products replace, on that einsum's path: bra with its
    # conjugate, then each Gram in turn.
    spec = CatCodeSpec(m, alpha, eta)
    gram = _density(_unit(spec)[2][0], (1, 4, 5, 0, 3, 2, 6)).reshape(-1, 2, 2, 2, 2)
    bells = bell_vectors(0.0)
    bra = np.stack(list(bells.values())).reshape(-1, 2, 2).conj()
    path = ["einsum_path", (0, 1), (0, 2), (0, 1)]
    want = np.einsum("lst,lpq,isapc,jtbqd->lijabcd", bra, bra.conj(), gram, gram, optimize=path)
    want = want.reshape(len(bra), spec.order, 2, spec.order, 2, 4, 4)
    _worst, records = bell_order_equivalence(m, alpha, eta, return_records=True)
    after = {key: rho for key, (*_, rho) in records.items() if rho is not None}
    assert len(after) > len(bells)
    for (label, *key), rho in after.items():
        assert np.array_equal(rho, want[(list(bells).index(label), *key)]), (label, *key)


def state_first_arm(x, axis, spec, flip, bras):
    """Reference arm: every loss term Â_k x from `kraus_op`, stacked on a
    leading environment axis, then the syndrome cascade on the stacked
    state, then the endpoint spin and the bras of each remainder.

    Returns {(remainder, usd_outcome): array} with the loss count first and
    the endpoint spin in the mode's place."""
    ops = kraus_ops(spec.eta, x.shape[axis] - 1)
    terms = (np.moveaxis(np.tensordot(a, x, axes=(1, axis)), 0, axis) for a in ops)
    kept = [w for w in terms if float(np.vdot(w, w).real) > _PRUNE]
    if not kept:
        return {}
    axis += 1
    records = {}
    stacked = np.stack(kept)
    for r in range(spec.order):
        y = _residue(stacked, spec.order, -r, axis)
        if float(np.vdot(y, y).real) <= _PRUNE:
            continue
        for u, bra in enumerate(bras[r]):
            spin = np.stack([bra.conj(), flip * bra.conj()], axis=1) / SQRT2
            rec = np.moveaxis(np.tensordot(y, spin, axes=(axis, 0)), -1, axis)
            if float(np.vdot(rec, rec).real) > _PRUNE:
                records[(r, u)] = rec
    return records


def state_first_records(m, alpha, eta):
    """Bell-first and Bell-last record densities from `state_first_arm`."""

    def density(chi):
        flat = chi.reshape(-1, 4)
        return flat.T @ flat.conj()

    spec = CatCodeSpec(m, alpha, eta)
    bells = {lbl: vec.reshape(2, 2) for lbl, vec in bell_vectors(0.0).items()}
    flip, v0, bras = _record_setup(spec)
    arm = state_first_arm(v0, 1, spec, flip, bras)
    after = {
        (lbl, *key1, *key2): density(np.einsum("st,isa,jtb->ijab", bvec.conj(), y1, y2))
        for lbl, bvec in bells.items()
        for key1, y1 in arm.items()
        for key2, y2 in arm.items()
    }
    before = {}
    for lbl, bvec in bells.items():
        modes = np.einsum("st,sm,tn->mn", bvec.conj(), v0, v0)
        for key1, left in state_first_arm(modes, 0, spec, flip, bras).items():
            for key2, chi in state_first_arm(left, 2, spec, flip, bras).items():
                before[(lbl, *key1, *key2)] = density(chi)
    return before, after


@pytest.mark.parametrize("eta", [0.9, 0.99, 1.0])
@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_arm_operators_match_state_first_arm(m, alpha, eta):
    # One linear map per record must give the records of processing the
    # state term by term: the same keys and densities, in both orderings.
    before, after = state_first_records(m, alpha, eta)
    _d, records = bell_order_equivalence(m, alpha, eta, return_records=True)
    prob = {key: np.trace(rho).real for key, rho in (*before.items(), *after.items())}
    assert set(records) == {key for key, p in prob.items() if p >= 1e-12}
    for key, (_pa, _pb, ra, rb) in records.items():
        for got, want in ((ra, before.get(key)), (rb, after.get(key))):
            assert (got is None) == (want is None), key
            if want is not None:
                assert np.max(np.abs(got - want)) < 1e-14, key


def codeword_route_bras(spec, r, n_max):
    """Discrimination bras of class r from `catcode.error_space_state`, each
    state zero-padded up to the undamped primitive's cutoff."""
    psi0 = error_space_state(spec, 0, r)[0].padded(n_max).amps
    psi1 = error_space_state(spec, 1, r)[0].padded(n_max).amps
    s_ov = np.vdot(psi0, psi1)
    s_abs = abs(s_ov)
    scale = 1.0 / math.sqrt((1.0 - s_abs * s_abs) * (1.0 + s_abs))
    return (psi0 - np.conj(s_ov) * psi1) * scale, (psi1 - s_ov * psi0) * scale


@pytest.mark.parametrize("eta", [0.9, 0.99, 1.0])
@pytest.mark.parametrize("alpha", [1.5, 2.0])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_bras_match_codeword_route(m, alpha, eta):
    # The oracle builds the damped pair once from the padded damped primitive;
    # its bras must be those of the per-codeword construction.
    spec = CatCodeSpec(m, alpha, eta)
    n_max = coherent_state(alpha).n_max
    _flip, _v0, bras = _record_setup(spec)
    assert len(bras) == spec.order
    for r, pair in enumerate(bras):
        for got, want in zip(pair, codeword_route_bras(spec, r, n_max)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-10


def per_class_bras(spec, r):
    """Discrimination bras of class r as the oracle took them one class at
    a time: each damped codeword through the public `annihilate`, then
    normalized as a `FockVector`."""
    prim = coherent_state(spec.alpha)
    pair = _damped_pair(spec, _flip(spec.m, prim.dim))
    dropped = [annihilate(FockVector(cw, prim.n_max), r) for cw in pair]
    psi0, psi1 = (v.normalized().amps for v in dropped)
    s_ov = complex(np.vdot(psi0, psi1))
    s_abs = abs(s_ov)
    scale = 1.0 / math.sqrt((1.0 - s_abs * s_abs) * (1.0 + s_abs))
    return (psi0 - np.conj(s_ov) * psi1) * scale, (psi1 - s_ov * psi0) * scale


@pytest.mark.parametrize("m,alpha,eta", [(3, 2.0, 0.9), (3, 5.0, 0.99), (2, 1.5, 0.9)])
def test_ladder_bras_have_the_per_class_bits(m, alpha, eta):
    spec = CatCodeSpec(m, alpha, eta)
    _flip, _v0, bras = _record_setup(spec)
    for r, pair in enumerate(bras):
        for got, want in zip(pair, per_class_bras(spec, r)):
            assert got.tobytes() == want.tobytes()


def test_oracle_work_counts(monkeypatch):
    # One set of per-record arm operators per call, built from one loss
    # table and never from the dense Kraus operators, no density formed by
    # simulate_unit, and a pure syndrome check that never forms one either.
    # The dense operators live in the tests' reference module only: no
    # catrep module has one to build.
    modules = [catrep] + [
        importlib.import_module(f"catrep.{info.name}") for info in pkgutil.iter_modules(catrep.__path__)
    ]
    assert len(modules) > 7
    assert [mod.__name__ for mod in modules if hasattr(mod, "kraus_op")] == []
    log_factorial_calls = []
    log_factorials = fockspace._log_factorials

    def counting_log_factorials(*args):
        log_factorial_calls.append(1)
        return log_factorials(*args)

    builds = []
    arm_maps = protocol_oracle._arm_maps

    def counting_arm_maps(*args):
        builds.append(1)
        return arm_maps(*args)

    densities = []
    init = fockspace.HybridDensity.__init__

    def counting_init(self, *args, **kwargs):
        densities.append(1)
        init(self, *args, **kwargs)

    arms = []
    arm = protocol_oracle._arm

    def counting_arm(*args):
        records, live, mass = arm(*args)
        arms.append(len(records))  # the residue blocks it multiplied
        return records, live, mass

    ladders = []
    ladder = protocol_oracle._ladder

    def counting_ladder(*args):
        ladders.append(1)
        return ladder(*args)

    monkeypatch.setattr(protocol_oracle, "_ladder", counting_ladder)
    monkeypatch.setattr(fockspace, "_log_factorials", counting_log_factorials)
    monkeypatch.setattr(protocol_oracle, "_arm_maps", counting_arm_maps)
    monkeypatch.setattr(protocol_oracle, "_arm", counting_arm)
    monkeypatch.setattr(fockspace.HybridDensity, "__init__", counting_init)
    _unit.cache_clear()  # an earlier test may have left this point's setup
    bell_order_equivalence(1, 1.0, 0.9)
    assert 0 < len(log_factorial_calls) < 200
    assert builds == ladders == [1]  # every class's bras from one ladder
    # the codeword's arm in `_unit`, which the Bell-last join reads, one
    # left arm for all four Bell labels, then per label one right arm over
    # all its left records; every input lives on the codeword's residue, so
    # each multiplies 1 of the M residue blocks
    assert arms == [1] * 6

    builds.clear()
    ladders.clear()
    spec = CatCodeSpec(2, 1.5, 0.9)
    simulate_unit(spec)
    assert builds == ladders == [1]
    assert arms == [1] * 7  # the setup's codeword arm: 1 of 4 residue blocks
    arms.clear()
    ladders.clear()
    simulate_unit(spec)
    assert arms == ladders == []  # the kept setup's records are read, not made again
    assert syndrome_deviation(2, 1.5, 0.9) < 1e-12
    assert ladders == [1]  # every injected loss count from one ladder
    assert densities == []


def test_the_kept_setup_is_read_only_and_a_fresh_arm_pass():
    _unit.cache_clear()
    v0, maps, codeword = _unit(CatCodeSpec(1, 1.5, 0.9))
    assert _unit(CatCodeSpec(1, 1.5, 0.9))[2] is codeword
    for a in (v0, *maps, *codeword):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]
    for got, want in zip(codeword, _arm(v0.T[None], maps)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_the_kept_setup_serves_its_own_doubles_only():
    # A float32 eta is its own double, not its double neighbour's: right
    # after the 0.9 point it gets its own setup.
    _unit.cache_clear()
    s64, s32 = CatCodeSpec(1, 1.5, 0.9), CatCodeSpec(1, 1.5, np.float32(0.9))
    assert s32 != s64 and s32 == CatCodeSpec(1, 1.5, float(np.float32(0.9)))
    assert simulate_unit(s64).f0_oracle == 0.9781880454807315
    assert simulate_unit(s32).f0_oracle == 0.9781880358641293
    assert _unit.cache_info()[:2] == (0, 2)
    # a 0-d array alpha reads the setup of its double
    report = simulate_unit(CatCodeSpec(1, np.array(1.5), 0.9))
    assert report.f0_oracle == 0.9781880454807315
    assert _unit.cache_info()[:2] == (0, 3)
    assert bell_order_equivalence(1, 1.5, 0.9) == bell_order_equivalence(1, np.array(1.5), 0.9)
    assert _unit.cache_info()[:2] == (2, 3)


@pytest.mark.parametrize(
    "alpha,eta",
    [(np.float32(1.7), 0.9), (np.array(1.5), 0.9), (2, 0.9), (1.5, np.float32(0.99))],
    ids=["f32_alpha", "0d_alpha", "int_alpha", "f32_eta"],
)
def test_the_oracle_reads_a_point_as_its_doubles(alpha, eta):
    # Both engines read the spec's doubles, so a numpy scalar, a 0-d array
    # or an int gives the bits of its double and the engines agree to 1e-15.
    spec = CatCodeSpec(1, alpha, eta)
    double = CatCodeSpec(1, float(alpha), float(eta))
    got, want = simulate_unit(spec), simulate_unit(double)
    for name in ("weights", "syndrome_probs", "usd_success"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.f0_oracle == want.f0_oracle and got.alpha == double.alpha
    for m in (1, 2, 3):
        assert syndrome_deviation(m, alpha, eta) == syndrome_deviation(m, double.alpha, double.eta)
    assert float(abs(got.weights - loss_weights(spec).p).max()) <= 1e-15


def test_equal_specs_share_one_kept_setup():
    # the setup is keyed on the spec, and equal specs hold the same doubles
    _unit.cache_clear()
    kept = _unit(CatCodeSpec(1, 2.0, 0.9))
    for spec in (CatCodeSpec(1, 2, 0.9), CatCodeSpec(1, np.array(2.0), np.float64(0.9))):
        assert _unit(spec) is kept
        simulate_unit(spec)
        bell_order_equivalence(spec.m, spec.alpha, spec.eta)
    assert _unit.cache_info()[:] == (6, 1, 1, 1)


def test_a_refused_point_is_never_kept():
    # validate's refused point raises on every call and leaves the kept setup
    _unit.cache_clear()
    simulate_unit(CatCodeSpec(1, 1.5, 0.9))
    for _ in range(2):
        with pytest.raises(ArithmeticError, match="m=3, alpha=0.5, eta=0.5: class-1 codeword"):
            simulate_unit(CatCodeSpec(3, 0.5, 0.5))
    assert _unit.cache_info()[:] == (0, 3, 1, 1)
    _unit(CatCodeSpec(1, 1.5, 0.9))  # the point before the refusals is still the one kept
    assert _unit.cache_info()[:2] == (1, 3)


def test_validate_builds_one_setup_per_point(monkeypatch, capsys):
    # The default validate grid has 8 points.  Each builds one record setup
    # and one set of arm maps, which simulate_unit and (at m = 1)
    # bell_order_equivalence share through `_unit`'s one kept point (8
    # misses, then 4 hits), and each syndrome check takes one
    # residue mask for the damped pair's preparation and one per injected
    # loss count: 1 + 2^(m+1), at the four m = 1 points, then the four m = 2.
    calls = collections.Counter()

    def counting(name):
        original = getattr(protocol_oracle, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("_record_setup", "_arm_maps", "_residue"):
        monkeypatch.setattr(protocol_oracle, name, counting(name))
    masks = []
    deviation = protocol_oracle.syndrome_deviation

    def counting_deviation(*args):
        before = calls["_residue"]
        result = deviation(*args)
        masks.append(calls["_residue"] - before)
        return result

    monkeypatch.setattr(protocol_oracle, "syndrome_deviation", counting_deviation)
    _unit.cache_clear()  # an earlier validate leaves its last point's setup
    assert cli.main(["validate"]) == 0
    capsys.readouterr()
    assert calls["_record_setup"] == calls["_arm_maps"] == 8
    info = _unit.cache_info()
    assert (info.misses, info.hits, info.currsize) == (8, 4, 1)
    assert masks == [5] * 4 + [9] * 4



def test_validate_builds_each_coherent_state_once(capsys):
    # Each of the 8 default points asks for its primitive |α⟩ and its damped
    # |√η α⟩ in the setup, and the damped one again in the syndrome check:
    # 24 states from 6 amplitudes (α in {1, 2} and √η α for η in {0.9, 0.99}).
    _unit.cache_clear()
    fockspace._coherent_state.cache_clear()
    assert cli.main(["validate"]) == 0
    capsys.readouterr()
    info = fockspace._coherent_state.cache_info()
    assert (info.misses, info.hits) == (6, 18)


def record_bytes(worst, records) -> bytes:
    """One Bell-order result as bytes: the maximum, then each record's key,
    probabilities and densities (b"-" for a missing one) in key order."""
    parts = [np.float64(worst).tobytes()]
    for key in sorted(records):
        p_before, p_after, *rhos = records[key]
        parts += [repr(key).encode(), np.array([p_before, p_after]).tobytes()]
        parts += [b"-" if rho is None else rho.tobytes() for rho in rhos]
    return b"".join(parts)


def test_bell_order_records_keep_their_bits_across_a_cleared_cache():
    runs = []
    for clear in (True, False, True):  # cold, warm, cold again
        if clear:
            _unit.cache_clear()
            fockspace._coherent_state.cache_clear()
        runs.append(record_bytes(*bell_order_equivalence(1, 2.0, 0.9, return_records=True)))
    assert runs[0] == runs[1] == runs[2]


# The grid of the acceptance suite's engine-agreement test.
_ACCEPTANCE_GRID = list(itertools.product((1, 2, 3), (0.5, 1.0, 2.0), (0.9, 0.99, 0.999)))
_SWEEP_GRID = [
    (m, alpha, eta)
    for m, alpha, eta in itertools.product((1, 2, 3), (0.5, 2.5, 5.0), _SWEEP_ETAS)
    if not (m == 3 and (alpha, eta) in _FOCK_DEGENERATE)
]


@pytest.mark.parametrize("m,alpha,eta", _ACCEPTANCE_GRID + _SWEEP_GRID)
def test_simulate_unit_matches_density_reference(m, alpha, eta):
    # The records of one arm against the density route, remainder by
    # remainder.  The report holds the u = 0 block normalized, so it is
    # compared weighted by its syndrome probability.  A remainder the
    # density cascade drops (relative mass under 1e-14) counts as zero.
    report = simulate_unit(CatCodeSpec(m, alpha, eta))
    want = density_unit(CatCodeSpec(m, alpha, eta))
    for r in range(2**m):
        prob, blocks = want.get(r, (0.0, [np.zeros((4, 4))] * 2))
        success = sum(np.trace(b).real for b in blocks)
        block0 = blocks[0] / np.trace(blocks[0]).real if prob else blocks[0]
        state = report.spin_states[r] if report.spin_states[r] is not None else np.zeros((4, 4))
        assert abs(report.syndrome_probs[r] - prob) < 1e-12
        assert abs(report.syndrome_probs[r] * report.usd_success[r] - success) < 1e-12
        assert np.max(np.abs(report.syndrome_probs[r] * state - prob * block0)) < 1e-12


@pytest.mark.parametrize("m,alpha,eta", [(3, 0.5, 0.9), (3, 5.0, _SWEEP_ETAS[0])])
def test_syndrome_probabilities_are_relatively_accurate(m, alpha, eta):
    # Every remainder's probability, however rare, is the mass of its two
    # loss classes, p_r + p_{r+M}, to 1e-13 relative.
    spec = CatCodeSpec(m, alpha, eta)
    p = loss_weights(spec).p
    want = p[: spec.order] + p[spec.order :]
    report = simulate_unit(spec)
    assert np.all(np.abs(report.syndrome_probs - want) <= 1e-13 * want)


def codeword_window(spec, v0):
    """The loss counts whose mass under the codeword's photon-number
    marginal exceeds _PRUNE/2, the window `_arm_maps` builds maps for."""
    d = v0.shape[1]
    p = np.concatenate([np.einsum("sm,sm->m", v0, v0.conj()).real, np.zeros(d)])
    rows = fockspace._loss_rows(spec.eta, d, range(d))
    mass = (rows * rows * p[np.arange(d)[:, None] + np.arange(d)]).sum(axis=1)
    return np.flatnonzero(mass > _PRUNE / 2)


def loop_arm_maps(spec, flip, bras, ks):
    """Every record's map over the loss counts ks, filled one record at a
    time: ops[r, u, m, j, s] and the branch masses branch[r, m, j], indexed
    by the source photon number m and the j-th count of ks."""
    d = flip.size
    n = (np.arange(d)[:, None] - ks) % d  # n = m − k; wraps only where c is 0
    coef = fockspace._loss_rows(spec.eta, d, ks)[np.arange(ks.size), n]
    branch = np.zeros((spec.order, d, ks.size))
    ops = np.zeros((spec.order, 2, d, ks.size, 2), dtype=complex)
    for r in range(spec.order):
        amp = coef * (n % spec.order == -r % spec.order)
        for u, b in enumerate(bras[r]):
            spin = np.stack([b.conj(), flip * b.conj()], axis=1) / SQRT2
            np.multiply(amp[:, :, None], spin[n], out=ops[r, u])
        branch[r] = np.abs(amp) ** 2
    return ks, branch, ops


def blocked_maps(spec, ks, branch, ops):
    """`loop_arm_maps` as `_arm_maps` stores them: branch as [m, r, j] with
    a zero column past ks, and each record's map gathered into the cell
    (source residue ρ, row t, record r) of count k = (ks[0]//M + t)M + (ρ + r mod M)."""
    big_m, d = spec.order, ops.shape[2]
    t0, n_t = ks[0] // big_m, ks[-1] // big_m - ks[0] // big_m + 1
    blocks = np.zeros((big_m, -(-d // big_m), n_t, big_m, 2, 2), dtype=complex)
    pos = np.full((big_m, n_t, big_m), ks.size)
    for rho, t, r in itertools.product(range(big_m), range(n_t), range(big_m)):
        k = (t0 + t) * big_m + (rho + r) % big_m
        if k in ks:
            pos[rho, t, r] = j = ks.tolist().index(k)
            src = np.arange(rho, d, big_m)
            blocks[rho, : src.size, t, r] = ops[r][:, src, j].transpose(1, 0, 2)
    return np.append(branch.transpose(1, 0, 2), np.zeros((d, big_m, 1)), axis=2), blocks, pos


def dense_arm_maps(spec, flip, bras):
    """The record maps over every loss count, in `_arm_maps`'s layout, as
    the oracle built them before it kept only the counts that carry mass."""
    return blocked_maps(spec, *loop_arm_maps(spec, flip, bras, np.arange(flip.size)))


@pytest.mark.parametrize(
    "m,alpha,eta",
    [(1, 0.5, 0.5), (1, 2.0, 0.9), (2, 2.0, 1.0), (2, 6.0, 0.5), (3, 3.0, 0.9), (4, 6.0, 0.99)],
)
def test_arm_maps_have_the_per_record_loop_bits(m, alpha, eta):
    # One broadcast builds every record's map: each entry is one real ×
    # complex product, so it has the bits the per-record loop gives it.
    spec = CatCodeSpec(m, alpha, eta)
    flip, v0, bras = _record_setup(spec)
    got = _arm_maps(spec, v0, flip, bras)
    want = blocked_maps(spec, *loop_arm_maps(spec, flip, bras, codeword_window(spec, v0)))
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[2], want[2])
    # a cell with no count or past the cutoff holds a zero of either sign
    src = np.arange(spec.order)[:, None] + spec.order * np.arange(got[1].shape[1])
    cells = (src[:, :, None, None] < flip.size) & (got[2][:, None] < len(got[0][0, 0]) - 1)
    assert cells.any() and got[1][cells].tobytes() == want[1][cells].tobytes()
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize(
    "m,alpha,eta", _ACCEPTANCE_GRID + list(itertools.product((1, 2, 3), (0.5, 1.0, 2.0), (1.0,)))
)
def test_windowed_arm_maps_match_dense_maps(m, alpha, eta):
    # Every batch _arm sees (the codeword, the Bell-projected pairs of all
    # four labels or of one, the right modes of one label's left records of
    # the four-label pass) gives the records of the maps over every loss
    # count, bit for bit; the branch masses sum the same terms.
    spec = CatCodeSpec(m, alpha, eta)
    flip, v0, bras = _record_setup(spec)
    windowed = _arm_maps(spec, v0, flip, bras)
    dense = dense_arm_maps(spec, flip, bras)
    assert windowed[0].shape[2] - 1 < flip.size
    bra = np.stack(list(bell_vectors(0.0).values())).reshape(-1, 2, 2).conj()
    inputs = [v0.T[None], v0.T @ bra @ v0]  # the codeword, all four labels' pairs
    lefts = _arm(inputs[-1], windowed)[0].transpose(1, 4, 5, 2, 0, 3, 6)
    for b, left in zip(bra, lefts):
        inputs.append((v0.T @ b @ v0)[None])
        inputs.append(left.reshape((-1,) + left.shape[2:]))
    for xs in inputs:
        got, got_live, got_mass = _arm(xs, windowed)
        want, want_live, want_mass = _arm(xs, dense)
        assert np.array_equal(got_live, want_live)
        assert np.array_equal(got, want)
        np.testing.assert_allclose(got_mass, want_mass, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("m", [1, 2])
def test_a_leak_into_another_residue_is_multiplied(m):
    # ROADMAP item 3: a leak into another residue is what the oracle must be
    # able to show.  Mass at photon number 3, a residue the codeword never
    # occupies, has its block multiplied and its records match the dense
    # every-count reference; a block is skipped only where its rows are zero.
    spec = CatCodeSpec(m, 2.0, 0.9)
    flip, v0, bras = _record_setup(spec)
    x = v0.copy()
    x[:, 3] += 1e-6
    x /= np.linalg.norm(x)
    want = {
        key: np.einsum("kas,kbt->asbt", chi, chi.conj()).reshape(4, 4)
        for key, chi in state_first_arm(x, 1, spec, flip, bras).items()
    }
    for maps in (_arm_maps(spec, v0, flip, bras), dense_arm_maps(spec, flip, bras)):
        records, _live, _mass = _arm(x.T[None], maps)
        assert len(records) == 2  # residues 0 and 3 of M
        got = _density(records, (1, 4, 5, 0, 3, 2, 6))[0]
        for r, u in itertools.product(range(spec.order), (0, 1)):
            assert np.max(np.abs(got[r, u] - want.get((r, u), 0.0))) < 1e-14, (r, u)
    x[:, 3] = 1e-200  # its marginal underflows to 0, its rows are not zero
    assert len(_arm(x.T[None], dense_arm_maps(spec, flip, bras))[0]) == 2


def traced_peak(call):
    """Peak traced allocation of call(), after one untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_arm_maps_memory_is_bounded_by_the_window():
    # The maps cover the loss counts that carry mass, not every count:
    # maps over every count make this unit peak at 8.6 MB.
    assert traced_peak(lambda: simulate_unit(CatCodeSpec(1, 10.0, 0.9))) <= 4e6


def test_bell_order_memory_stays_per_record():
    # No tensor joining both arms' loss counts across labels: one label's
    # right arms at a time.
    assert traced_peak(lambda: bell_order_equivalence(1, 2.0, 0.9)) <= 0.6e6


def test_syndrome_deviation_takes_one_class_per_injection():
    # Each injection's own mass on its class, with no stacked cascade over
    # every injection: the stacked cascade peaked at 25.1 MiB here.
    assert syndrome_deviation(5, 12.0, 0.999) == 4.440892098500626e-16
    assert traced_peak(lambda: syndrome_deviation(5, 12.0, 0.999)) < 2 * 2**20


# ---------------------------------------------------------------------------
# the per-point bookkeeping against the expressions it replaced, by ==


def bell_vectors_one_at_a_time(theta):
    """`bell_vectors` as it built each of its four vectors on its own."""
    ph = np.exp(-1j * theta)
    rt = 1.0 / SQRT2
    return {
        "phi_plus": np.array([1.0, 0.0, 0.0, ph]) * rt,
        "phi_minus": np.array([1.0, 0.0, 0.0, -ph]) * rt,
        "psi_plus": np.array([0.0, 1.0, ph, 0.0]) * rt,
        "psi_minus": np.array([0.0, 1.0, -ph, 0.0]) * rt,
    }


def test_bell_vectors_match_one_vector_at_a_time():
    # the rows of one array against the four vectors built one by one, zeros'
    # signs too, at the readout's frames r*pi/M, edges and seeded draws
    frames = [r * math.pi / 2**m for m in range(1, 6) for r in range(2**m)]
    edges = [0.0, -0.0, math.pi, -math.pi, 1e-300, 2.0**60, np.nextafter(0.0, 1.0)]
    draws = np.random.default_rng(45).uniform(-20.0, 20.0, 300)
    for theta in [*frames, *edges, *draws.tolist(), *draws[:20], np.float32(0.7)]:
        got, want = bell_vectors(theta), bell_vectors_one_at_a_time(theta)
        assert list(got) == list(want)
        for label, vec in want.items():
            assert np.array_equal(got[label], vec), (theta, label)
            assert got[label].tobytes() == vec.tobytes(), (theta, label)


def arm_maps_appended(spec, v0, flip, bras):
    """`_arm_maps` with the copies it made: the zero row np.append-ed to the
    loss rows, the branch masses squared into a copy, the bras conjugated twice."""
    d, big_m = flip.size, spec.order
    p = np.concatenate([np.einsum("sm,sm->m", v0, v0.conj()).real, np.zeros(d)])
    counts, step, window = np.arange(d), max(1, protocol_oracle._ROW_BLOCK // d), []
    for ks in (counts[k0 : k0 + step] for k0 in range(0, d, step)):
        rows = fockspace._loss_rows(spec.eta, d, ks)
        keep = (rows * rows * p[ks[:, None] + np.arange(d)]).sum(axis=1) > _PRUNE / 2
        window.append((ks[keep], rows[keep]))
    ks, rows = (np.concatenate(part) for part in zip(*window))
    n = (np.arange(d)[:, None] - ks) % d
    coef, r = rows[np.arange(ks.size), n], np.arange(big_m)
    branch = np.zeros((d, big_m, ks.size + 1))
    branch[..., :-1] = (coef[:, None] * (n[:, None] % big_m == -r[:, None] % big_m)) ** 2
    rho, t0 = r[:, None, None, None], ks[0] // big_m
    k = big_m * np.arange(t0, ks[-1] // big_m + 1)[:, None] + (rho + r) % big_m
    src = rho + big_m * np.arange(-(-d // big_m))[:, None, None]
    j = np.full(k.max() + 1, ks.size)
    j[ks] = np.arange(ks.size)
    j, n = j[k], (src - k) % d
    amp = np.where(src < d, np.append(rows, np.zeros((1, d)), axis=0)[j, n], 0.0)
    spin = np.stack([np.conj(bras), flip * np.conj(bras)], axis=-1) / SQRT2
    return branch, amp[..., None, None] * spin[r, :, n, :], j[:, 0]


_DEFAULT_VALIDATE_GRID = list(itertools.product((1, 2), (1.0, 2.0), (0.9, 0.99)))


@pytest.mark.parametrize("m,alpha,eta", _DEFAULT_VALIDATE_GRID + [(3, 8.0, 0.999)])
def test_arm_maps_match_the_appended_copies(m, alpha, eta):
    spec = CatCodeSpec(m, alpha, eta)
    flip, v0, bras = _record_setup(spec)
    got, want = _arm_maps(spec, v0, flip, bras), arm_maps_appended(spec, v0, flip, bras)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert a.tobytes() == b.tobytes()


def arm_scattered(xs, maps):
    """`_arm` as it found the occupied residues through a boolean buffer padded
    to whole residue rows and zeroed the pruned cells by an np.nonzero scatter."""
    branch, blocks, pos = maps
    big_m = branch.shape[1]
    flat = xs.reshape(xs.shape[0], xs.shape[1], -1)
    p = np.einsum("bma,bma->bm", flat, flat.conj()).real
    masses = (p @ branch.reshape(len(branch), -1)).reshape(len(p), big_m, -1)
    kept = masses.sum(axis=1) > _PRUNE
    mass = np.where(kept[:, None], masses, 0.0).sum(axis=-1)
    live = mass > _PRUNE
    keep = kept[:, pos] & live[:, None, None]
    rows = np.flatnonzero(keep.any(axis=(0, 1, 3)))
    lo, hi = (rows[0], rows[-1] + 1) if rows.size else (0, 0)
    occupied = np.zeros(blocks.shape[1] * big_m, dtype=bool)
    occupied[: flat.shape[1]] = flat.any(axis=(0, 2))
    residues = np.flatnonzero(occupied.reshape(-1, big_m).any(axis=0))
    out = np.empty((residues.size,) + flat.shape[::2] + (hi - lo,) + blocks.shape[3:], complex)
    for i, rho in enumerate(residues):
        x = flat[:, rho::big_m].swapaxes(1, 2)
        w = blocks[rho, : x.shape[2], lo:hi]
        np.matmul(x, w.reshape(len(w), -1), out=out[i].reshape(x.shape[:2] + (-1,)))
    b, i, t, r = np.nonzero(~keep[:, residues, lo:hi])
    out[i, b, :, t, r] = 0.0
    return out.reshape(out.shape[:2] + xs.shape[2:] + out.shape[3:]), live, mass


def assert_arm_matches_the_scatter(xs, maps):
    for got, want in zip(_arm(xs, maps), arm_scattered(xs, maps)):
        assert got.shape == want.shape and np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()


def test_arm_matches_the_scatter_on_every_input_of_a_validate(monkeypatch, capsys):
    # every batch one default validate hands `_arm`: the codeword of each
    # point, and at m = 1 the four labels' left pass and each label's right pass
    inputs = []
    arm = protocol_oracle._arm

    def recording_arm(xs, maps):
        inputs.append((xs.copy(), maps))
        return arm(xs, maps)

    monkeypatch.setattr(protocol_oracle, "_arm", recording_arm)
    _unit.cache_clear()
    assert cli.main(["validate"]) == 0
    capsys.readouterr()
    assert len(inputs) == 8 + 4 * 5
    for xs, maps in inputs:
        assert_arm_matches_the_scatter(xs, maps)


@pytest.mark.parametrize("m", [1, 2])
def test_arm_matches_the_scatter_on_a_leak(m):
    # the leaking input of test_a_leak_into_another_residue_is_multiplied,
    # on the windowed maps and on the dense ones, underflowing marginal too
    spec = CatCodeSpec(m, 2.0, 0.9)
    flip, v0, bras = _record_setup(spec)
    x = v0.copy()
    x[:, 3] += 1e-6
    x /= np.linalg.norm(x)
    for maps in (_arm_maps(spec, v0, flip, bras), dense_arm_maps(spec, flip, bras)):
        assert_arm_matches_the_scatter(x.T[None], maps)
    x[:, 3] = 1e-200
    assert_arm_matches_the_scatter(x.T[None], dense_arm_maps(spec, flip, bras))
