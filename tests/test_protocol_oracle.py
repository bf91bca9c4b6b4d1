import math

import numpy as np
import pytest

from catrep import fockspace, protocol_oracle
from catrep.catcode import CatCodeSpec, codeword, damped_codeword, error_space_state, loss_weights
from catrep.fockspace import (
    FockVector,
    TruncationPolicy,
    add_spin,
    annihilate,
    coherent_state,
    hcrot,
    hybrid_from_vector,
    kraus_op,
    lose,
    measure_spin,
    pure_state_fidelity,
    rotation_apply,
)
from catrep.protocol_oracle import (
    _PRUNE,
    _cascade,
    _record_setup,
    _step_angle,
    _step_basis_phase,
    bell_order_equivalence,
    bell_vectors,
    create_entanglement,
    prepare_code_state,
    simulate_unit,
    syndrome_cascade,
    syndrome_deviation,
    transmit,
)
from catrep.usd import optimal_usd_probability

SQRT2 = math.sqrt(2.0)


def forced_policy(n_max):
    return TruncationPolicy(n_max_rule=lambda _a: n_max, hard_limit=max(2048, n_max + 1))


def eq9_vector(m, alpha, eta=1.0, n_max=None):
    spec = CatCodeSpec(m, alpha, eta)
    policy = forced_policy(n_max) if n_max is not None else None
    cw0 = damped_codeword(spec, 0, policy)
    cw1 = damped_codeword(spec, 1, policy)
    return np.concatenate([cw0.amps, cw1.amps]) / SQRT2, cw0.n_max


def injected_error_state(m, alpha, eta, q, n_max):
    """(1 ⊗ a^q) on the damped spin-codeword state, renormalized."""
    psi, _ = eq9_vector(m, alpha, eta, n_max)
    d = n_max + 1
    up, down = FockVector(psi[:d], n_max), FockVector(psi[d:], n_max)
    up_q, down_q = annihilate(up, q), annihilate(down, q)
    joint = np.concatenate([up_q.amps, down_q.amps])
    joint = joint / np.linalg.norm(joint)
    return hybrid_from_vector(1, n_max, joint)


def test_prepare_matches_direct_construction():
    for m in (1, 2, 3):
        prim = coherent_state(1.0)
        prep = prepare_code_state(m, prim)
        target, _ = eq9_vector(m, 1.0, 1.0, prim.n_max)
        assert pure_state_fidelity(prep.matrix, target) > 1.0 - 1e-10


def test_prepare_first_step_minus_branch_structure():
    # the rejected branch of the first cascade step carries the
    # complementary superposition of the primitive and its pi rotation
    prim = coherent_state(1.1)
    psi = np.kron(np.array([1.0, 1.0]) / SQRT2, prim.amps)
    s = hcrot(math.pi, hybrid_from_vector(1, prim.n_max, psi))
    branches = {lbl: post for lbl, _p, post in measure_spin(s, 0, basis="x")}
    minus_mode = prim.amps - rotation_apply(math.pi, prim).amps
    minus_mode = minus_mode / np.linalg.norm(minus_mode)
    assert abs(pure_state_fidelity(branches["-"].matrix, minus_mode) - 1.0) < 1e-12


def test_prepare_branches_partition():
    # the preparation cascade's branches, as prepare_code_state runs it
    prim = coherent_state(1.2)
    branches = _cascade(prim.amps.astype(complex), 2, "direct", 0, floor=1e-14)
    assert len(branches) == 4
    probs = [float(np.vdot(v, v).real) for _c, v in branches]
    assert abs(sum(probs) - 1.0) < 1e-10
    classes = sorted(c for c, _v in branches)
    assert classes == [0, 1, 2, 3]
    # tree order puts the all-"+" branch first, and it is class 0
    assert branches[0][0] == 0
    n = np.arange(prim.dim)
    for (c, v), p in zip(branches, probs):
        # support of each branch is a clean photon-number class
        onclass = (np.abs(v) ** 2)[n % 4 == c].sum() / p
        assert abs(onclass - 1.0) < 1e-10


def test_transmit_identity_and_rank():
    prim = coherent_state(1.0)
    prep = prepare_code_state(2, prim)
    assert transmit(prep, 1.0) is prep
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
    pol = forced_policy(cw0.n_max)
    dc0, dc1 = damped_codeword(spec, 0, pol), damped_codeword(spec, 1, pol)
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
    """The cascade as an experiment runs it: add_spin, hcrot, measure_spin.

    Returns {class: unnormalized post density}.
    """
    branches = [(0, 1.0, s)]
    for step in range(1, m + 1):
        nxt = []
        for c, prob, st in branches:
            z = _step_basis_phase(step, c, variant)
            anc = st.spins
            grown = hcrot(_step_angle(step, variant), add_spin(st, (1.0, 1.0)), spin_index=anc)
            basis = (np.array([1.0, z]) / SQRT2, np.array([1.0, -z]) / SQRT2)
            for lbl, p, post in measure_spin(grown, anc, basis=basis, labels=("+", "-")):
                nxt.append((c if lbl == "+" else c + 2 ** (step - 1), prob * p, post))
        branches = nxt
    return {c: prob * st.matrix for c, prob, st in branches}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("variant", ["direct", "pi_minus_phi"])
def test_cascade_kernel_matches_operational_route(m, variant):
    # density form: a transmitted spin-codeword state, every class present
    trans = transmit(prepare_code_state(m, coherent_state(2.0)), 0.7)
    want = operational_cascade(trans, m, variant)
    ns, d = 2, trans.mode_dim
    got = _cascade(trans.matrix.reshape(ns, d, ns, d), m, variant, 1, col_axis=3, floor=1e-14)
    assert sorted(c for c, _x in got) == sorted(want)
    for c, x in got:
        assert np.max(np.abs(x.reshape(ns * d, ns * d) - want[c])) < 1e-12
    # pure form: a spin-mode entangled amplitude array, mode on axis 1
    alpha = 1.5
    prim = coherent_state(alpha)
    psi = np.stack([prim.amps, rotation_apply(0.3, prim).amps]) / SQRT2
    want = operational_cascade(hybrid_from_vector(1, prim.n_max, psi.reshape(-1)), m, variant)
    got = _cascade(psi, m, variant, 1)
    assert sorted(c for c, _x in got) == sorted(want)
    for c, x in got:
        flat = x.reshape(-1)
        assert np.max(np.abs(np.outer(flat, flat.conj()) - want[c])) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_syndrome_deviation_exact(m):
    assert syndrome_deviation(m, 1.5, 0.9) < 1e-12


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


def test_create_entanglement_lossless_structure():
    m, alpha = 1, 1.1
    prim = coherent_state(alpha)
    prep = prepare_code_state(m, prim)
    branches = syndrome_cascade(prep, m)
    assert len(branches) == 1 and branches[0][0] == 0
    ent, info = create_entanglement(branches[0][2], m, known_q=0)
    spec = CatCodeSpec(m, alpha)
    cw0, cw1 = codeword(spec, 0), codeword(spec, 1)
    bells = info["bell"]
    target = (
        np.kron(bells["phi_plus"], cw0.amps) + np.kron(bells["psi_plus"], cw1.amps)
    ) / SQRT2
    assert pure_state_fidelity(ent.matrix, target) > 1.0 - 1e-12
    with pytest.raises(ValueError):
        create_entanglement(branches[0][2], m, known_q=2)


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
        with pytest.raises(ValueError, match="degenerate primitive|indistinguishable"):
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


@pytest.mark.parametrize("m,alpha,eta", [(1, 1.0, 0.9), (2, 1.0, 0.9), (1, 2.0, 0.99)])
def test_bell_order_records_match_density_engine(m, alpha, eta):
    # Both orderings share one arm kernel, so a fault in it cancels out of
    # bell_order_equivalence; tie the records to simulate_unit instead.
    # Summed over Bell labels and USD outcomes, the records of remainders
    # (r1, r2) carry each arm's syndrome probability times its success.
    report = simulate_unit(CatCodeSpec(m, alpha, eta))
    _d, records = bell_order_equivalence(m, alpha, eta, return_records=True)
    arm = report.syndrome_probs * report.usd_success
    big_m = 2**m
    pa = np.zeros((big_m, big_m))
    pb = np.zeros((big_m, big_m))
    for (_lbl, r1, _u1, r2, _u2), (p_before, p_after, _ra, _rb) in records.items():
        pa[r1, r2] += p_before
        pb[r1, r2] += p_after
    want = np.outer(arm, arm)
    assert np.max(np.abs(pa - want)) < 1e-10
    assert np.max(np.abs(pb - want)) < 1e-10


def state_first_arm(x, axis, spec, flip, bras):
    """Reference arm: every loss term from `fockspace.lose`, stacked on a
    leading environment axis, then the syndrome cascade on the stacked
    state, then the endpoint spin and the bras of each remainder.

    Returns {(remainder, usd_outcome): array} with the loss count first and
    the endpoint spin in the mode's place."""
    kept = [w for w in lose(x, spec.eta, (axis,)) if float(np.vdot(w, w).real) > _PRUNE]
    if not kept:
        return {}
    axis += 1
    records = {}
    for c, y in _cascade(np.stack(kept), spec.m, "direct", axis, floor=_PRUNE):
        r = (-c) % spec.order
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
    """Discrimination bras of class r from `catcode.error_space_state`, with
    the damped codewords built directly at the undamped primitive's cutoff."""
    psi0 = error_space_state(spec, 0, r, forced_policy(n_max))[0].amps
    psi1 = error_space_state(spec, 1, r, forced_policy(n_max))[0].amps
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


def test_oracle_work_counts(monkeypatch):
    # One set of per-record arm operators per call, built from one loss
    # table and never from term-by-term loss, and a pure syndrome check
    # that never forms a density.
    gammaln_calls = []
    gammaln = fockspace.gammaln

    def counting_gammaln(*args):
        gammaln_calls.append(1)
        return gammaln(*args)

    builds = []
    arm_maps = protocol_oracle._arm_maps

    def counting_arm_maps(*args):
        builds.append(1)
        return arm_maps(*args)

    def no_lose(*_args):
        raise AssertionError("the measurement-order check applied loss term by term")

    monkeypatch.setattr(fockspace, "gammaln", counting_gammaln)
    monkeypatch.setattr(protocol_oracle, "_arm_maps", counting_arm_maps)
    # under either name the oracle could reach it
    monkeypatch.setattr(fockspace, "lose", no_lose)
    monkeypatch.setattr(protocol_oracle, "lose", no_lose, raising=False)
    bell_order_equivalence(1, 1.0, 0.9)
    assert 0 < len(gammaln_calls) < 200
    assert builds == [1]

    densities = []
    post_init = fockspace.HybridDensity.__post_init__

    def counting_post_init(self):
        densities.append(1)
        post_init(self)

    monkeypatch.setattr(fockspace.HybridDensity, "__post_init__", counting_post_init)
    assert syndrome_deviation(2, 1.5, 0.9) < 1e-12
    assert densities == []
