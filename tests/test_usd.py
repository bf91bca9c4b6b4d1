"""Gaussian-route discrimination versus Fock-route and closed forms."""

import itertools
import math
import pathlib
import re

import numpy as np
import pytest

from catrep import usd
from catrep.catcode import CatCodeSpec, loss_weights
from catrep.usd import (
    CoherentSuperposition,
    beam_splitter,
    cat_superposition,
    click_probability,
    linear_optics_closed_form,
    linear_optics_output_states,
    linear_optics_usd_probability,
    optimal_usd_probability,
    overlap,
    tensor,
    usd_sweep,
)
from fock_reference import error_space_state


CIRCUIT_GOLDEN = pathlib.Path(__file__).parent / "data" / "circuit_golden.csv"


def coherent(a, n_modes=1, mode=0):
    amps = [0.0] * n_modes
    amps[mode] = a
    return CoherentSuperposition(((1.0, tuple(amps)),), n_modes)


def test_overlap_coherent_pair_closed_form():
    u, v = 0.7 + 0.2j, -0.3 + 1.1j
    got = overlap(coherent(u), coherent(v))
    want = np.exp(-abs(u) ** 2 / 2 - abs(v) ** 2 / 2 + np.conj(u) * v)
    assert abs(got - want) < 1e-14


def test_overlap_mode_mismatch_rejected():
    with pytest.raises(ValueError):
        overlap(coherent(1.0, n_modes=1), coherent(1.0, n_modes=2))


def test_norm_even_cat_closed_form():
    a = 1.3
    s = CoherentSuperposition(((1.0, (a,)), (1.0, (-a,))), 1)
    assert abs(s.norm() - math.sqrt(2 + 2 * math.exp(-2 * a * a))) < 1e-14
    assert abs(s.normalized().norm() - 1.0) < 1e-14


def test_tensor_overlap_factorizes():
    a = CoherentSuperposition(((1.0, (0.5,)), (0.3j, (-0.5,))), 1)
    b = CoherentSuperposition(((1.0, (1.2j,)),), 1)
    c = CoherentSuperposition(((0.8, (0.1,)), (0.2, (0.9,))), 1)
    d = CoherentSuperposition(((1.0, (-0.4,)),), 1)
    joint = overlap(tensor(a, b), tensor(c, d))
    assert abs(joint - overlap(a, c) * overlap(b, d)) < 1e-13


def test_beam_splitter_norm_and_self_inverse():
    rng = np.random.default_rng(7)
    amps = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
    s = CoherentSuperposition(
        tuple((c, tuple(a)) for c, a in zip(coeffs, amps)), 2
    ).normalized()
    out = beam_splitter(s, (0, 1))
    assert abs(out.norm() - 1.0) < 1e-12
    back = beam_splitter(out, (0, 1))
    for (c0, a0), (c1, a1) in zip(s.terms, back.terms):
        assert abs(c0 - c1) < 1e-12
        assert max(abs(x - y) for x, y in zip(a0, a1)) < 1e-12


def test_beam_splitter_port_validation():
    s = coherent(1.0, n_modes=2)
    with pytest.raises(ValueError):
        beam_splitter(s, (0, 0))
    with pytest.raises(ValueError):
        beam_splitter(s, (0, 5))


def test_click_probability_coherent_and_empty():
    a = 0.9
    s = coherent(a, n_modes=2, mode=0)
    assert abs(click_probability(s, (0,)) - (1 - math.exp(-a * a))) < 1e-13
    assert click_probability(s, (1,)) < 1e-13
    assert click_probability(s, ()) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        click_probability(s, (0, 0))
    with pytest.raises(ValueError):
        click_probability(s, (3,))


def test_click_probability_odd_cat_is_certain():
    # The odd superposition has zero vacuum amplitude, so a detector on it
    # always fires.
    a = 0.8
    s = CoherentSuperposition(((1.0, (a,)), (-1.0, (-a,))), 1).normalized()
    assert abs(click_probability(s, (0,)) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "m,alpha,eta,q",
    [(1, 1.5, 0.99, 0), (1, 1.0, 0.9, 1), (2, 2.0, 0.95, 3), (3, 2.5, 0.9, 5)],
)
def test_class_overlap_gaussian_matches_fock(m, alpha, eta, q):
    beta = math.sqrt(eta) * alpha
    g0 = cat_superposition(m, beta, 0, q)
    g1 = cat_superposition(m, beta, 1, q)
    gauss = overlap(g0, g1)
    spec = CatCodeSpec(m=m, alpha=alpha, eta=eta)
    f0, _ = error_space_state(spec, 0, q)
    f1, _ = error_space_state(spec, 1, q)
    assert abs(gauss - np.vdot(f0.amps, f1.amps)) < 1e-10


def test_m1_overlaps_closed_form():
    alpha, eta = 1.2, 0.93
    b = eta * alpha * alpha
    beta = math.sqrt(eta) * alpha
    s0 = overlap(cat_superposition(1, beta, 0, 0), cat_superposition(1, beta, 1, 0))
    s1 = overlap(cat_superposition(1, beta, 0, 1), cat_superposition(1, beta, 1, 1))
    assert abs(s0 - math.cos(b) / math.cosh(b)) < 1e-12
    assert abs(s1 - (-math.sin(b) / math.sinh(b))) < 1e-12


def test_optimal_per_q_matches_fock_route():
    spec = CatCodeSpec(m=1, alpha=1.5, eta=0.99)
    p = optimal_usd_probability(spec, q=0, mode="per_q")
    f0, _ = error_space_state(spec, 0, 0)
    f1, _ = error_space_state(spec, 1, 0)
    assert abs(p - (1 - abs(np.vdot(f0.amps, f1.amps)))) < 1e-10


def test_optimal_mode_arithmetic():
    spec = CatCodeSpec(m=2, alpha=2.0, eta=0.95)
    per = [optimal_usd_probability(spec, q=r, mode="per_q") for r in range(4)]
    w = loss_weights(spec).p
    want = sum((w[r] + w[r + 4]) * per[r] for r in range(4))
    got = optimal_usd_probability(spec, mode="weighted_average")
    assert abs(got - want) < 1e-12
    assert optimal_usd_probability(spec, mode="worst_case") == pytest.approx(
        min(per)
    )


def test_optimal_validation():
    spec = CatCodeSpec(m=1, alpha=1.0, eta=0.9)
    with pytest.raises(ValueError):
        optimal_usd_probability(spec, mode="typo")
    with pytest.raises(ValueError):
        optimal_usd_probability(spec, q=2, mode="per_q")
    # mode and q are refused before any table: here alpha squared would overflow
    bright = CatCodeSpec(m=2, alpha=1e200, eta=0.9)
    with pytest.raises(ValueError, match="mode must be one of .* got 'bogus'"):
        optimal_usd_probability(bright, mode="bogus")
    with pytest.raises(ValueError, match=r"q must satisfy 0 <= q < 4"):
        optimal_usd_probability(bright, q=4, mode="per_q")


@pytest.mark.parametrize("alpha", [5e-324, 1e-170])
def test_optimal_underflowing_signal_gives_zero(alpha):
    # eta*alpha^2 underflows to 0; the true success, at most 2y^M/M!, is
    # below the smallest float, which is also what alpha = 1e-160 gives
    spec = CatCodeSpec(m=2, alpha=alpha, eta=0.9)
    assert spec.eta * spec.alpha**2 == 0.0
    for q in range(4):
        assert optimal_usd_probability(spec, q=q, mode="per_q") == 0.0
    assert optimal_usd_probability(spec, mode="weighted_average") == 0.0
    assert optimal_usd_probability(spec, mode="worst_case") == 0.0
    assert optimal_usd_probability(CatCodeSpec(m=2, alpha=1e-160, eta=0.9)) == 0.0


def test_overflowing_amplitude_is_named():
    spec = CatCodeSpec(m=2, alpha=1e200, eta=0.9)
    for call in (optimal_usd_probability, loss_weights):
        with pytest.raises(ArithmeticError, match=r"alpha=1e\+200 \(eta=0\.9\)"):
            call(spec)


def gaussian_route(alpha, eta=1.0, q=0, style="cat"):
    """The circuit's success from its output states' click probabilities."""
    out0, out1 = linear_optics_output_states(alpha, eta, q, style)
    return 0.5 * (click_probability(out0, (1, 3)) + click_probability(out1, (0, 2)))


@pytest.mark.parametrize("eta", [1.0, 0.9])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_circuit_matches_closed_form(alpha, eta):
    # the Gaussian route is the closed form's reference
    got = gaussian_route(alpha, eta)
    assert abs(got - linear_optics_closed_form(alpha, eta)) < 1e-9
    assert linear_optics_closed_form(alpha, eta) == linear_optics_usd_probability(alpha, eta)


@pytest.mark.parametrize("style", ["cat", "coherent"])
@pytest.mark.parametrize("q", [0, 1])
def test_circuit_below_optimal_and_unambiguous(q, style):
    for alpha in (0.5, 1.0, 1.7, 2.5):
        spec = CatCodeSpec(m=1, alpha=alpha, eta=1.0)
        p_opt = optimal_usd_probability(spec, q=q, mode="per_q")
        p_lin = linear_optics_usd_probability(alpha, 1.0, q, style)
        assert p_lin <= p_opt + 1e-12
        out0, out1 = linear_optics_output_states(alpha, 1.0, q, style)
        # Conclusive pattern for the other input never fires.
        assert click_probability(out0, (0, 2)) < 1e-12
        assert click_probability(out1, (1, 3)) < 1e-12


def test_circuit_arms_symmetric():
    out0, out1 = linear_optics_output_states(1.4, 0.95)
    p_cd = click_probability(out0, (1, 3))
    p_ab = click_probability(out1, (0, 2))
    assert abs(p_cd - p_ab) < 1e-12


def test_circuit_validation():
    with pytest.raises(ValueError):
        linear_optics_usd_probability(1.0, q=2)
    with pytest.raises(ValueError):
        linear_optics_usd_probability(1.0, probe_style="squeezed")
    with pytest.raises(ValueError):
        linear_optics_usd_probability(0.0)
    with pytest.raises(ValueError):
        linear_optics_usd_probability(1.0, eta=1.2)


def test_usd_sweep_rows():
    alphas = [0.5, 1.0, 2.0, 3.0]
    rows = usd_sweep(alphas)
    assert [r[0] for r in rows] == alphas
    for a, p_opt, p_lin in rows:
        assert 0 <= p_lin <= p_opt <= 1
        assert abs(p_lin - linear_optics_closed_form(a)) < 1e-9
    # Both approach certainty for a bright signal.
    assert rows[-1][1] > 0.95 and rows[-1][2] > 0.95


def mp_circuit(alpha, eta=1.0, q=0, style="cat"):
    """The circuit's success at 60 digits, built from its definition.

    The signal, vacuum and probes are tensored and sent through the three
    beam splitters in mpmath; each click probability is inclusion-exclusion
    over vacuum projections, sum over T of (-1)^|T| ||Pvac(T) s||^2, whose
    cancellation 60 digits absorb.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        beta = mp.sqrt(mp.mpf(eta)) * mp.mpf(alpha)
        half = beta / mp.sqrt(2)
        sign = -1 if q else 1

        def inner(s, t):
            return mp.fsum(
                mp.conj(c) * d * mp.exp(mp.fsum(
                    mp.conj(x) * y - (abs(x) ** 2 + abs(y) ** 2) / 2 for x, y in zip(a, b)
                ))
                for c, a in s for d, b in t
            )

        def normalized(s):
            n = mp.sqrt(mp.re(inner(s, s)))
            return [(c / n, a) for c, a in s]

        def probe(amp):
            return normalized([(1, (amp,))] + ([(sign, (-amp,))] if style == "cat" else []))

        def beam_splitter(s, i, j):
            out = []
            for c, a in s:
                a = list(a)
                a[i], a[j] = (a[i] + a[j]) / mp.sqrt(2), (a[i] - a[j]) / mp.sqrt(2)
                out.append((c, tuple(a)))
            return out

        def click(s, ports):
            total = mp.mpf(0)
            for size in range(len(ports) + 1):
                for subset in itertools.combinations(ports, size):
                    proj = [
                        (c * mp.exp(-mp.fsum(abs(a[m]) ** 2 for m in subset) / 2),
                         tuple(0 if m in subset else x for m, x in enumerate(a)))
                        for c, a in s
                    ]
                    total += (-1) ** size * mp.re(inner(proj, proj))
            return total

        probes = [(c1 * c2, a1 + a2) for c1, a1 in probe(half) for c2, a2 in probe(1j * half)]
        success = 0
        for logical, ports in ((0, (1, 3)), (1, (0, 2))):
            amps = [beta, -beta] if logical == 0 else [1j * beta, -1j * beta]
            signal = normalized([(x**q, (x,)) for x in amps])
            s = [(c * d, a + (0,) + b) for c, a in signal for d, b in probes]
            for i, j in ((0, 1), (0, 2), (1, 3)):
                s = beam_splitter(s, i, j)
            success += click(s, ports) / 2
        return success


@pytest.mark.parametrize("alpha", [1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 3.0])
def test_circuit_q0_matches_mpmath_reference(alpha):
    want = mp_circuit(alpha)
    assert float(abs(linear_optics_usd_probability(alpha) / want - 1)) < 1e-14
    assert float(abs(linear_optics_closed_form(alpha) / want - 1)) < 1e-14


@pytest.mark.parametrize(
    "alpha,eta,style",
    [(0.1, 1.0, "cat"), (0.25, 1.0, "cat"), (0.5, 0.9, "cat"), (1.0, 1.0, "cat"),
     (2.0, 0.95, "cat"), (3.0, 1.0, "cat"), (0.3, 1.0, "coherent"), (1.5, 0.9, "coherent")],
)
def test_circuit_q1_matches_mpmath_reference(alpha, eta, style):
    want = mp_circuit(alpha, eta, q=1, style=style)
    got = linear_optics_usd_probability(alpha, eta, q=1, probe_style=style)
    assert float(abs(got / want - 1)) < 1e-14
    # the Gaussian route, whose pair sums cancel at dim q = 1 signals
    assert float(abs(gaussian_route(alpha, eta, 1, style) / want - 1)) < 1e-9


def test_circuit_matches_mpmath_over_a_seeded_draw():
    # alpha log-uniform in [0.005, 60], eta uniform in [0.5, 1], each
    # (q, probe style) case eight times: every value within 1e-14 of the
    # 60-digit build, across the series' crossover at x = 4 and past the
    # saturation of e^(-x/2)
    rng = np.random.default_rng(4141)
    cases = [(q, style) for q in (0, 1) for style in ("cat", "coherent")] * 8
    alphas = np.exp(rng.uniform(math.log(0.005), math.log(60.0), len(cases)))
    etas = rng.uniform(0.5, 1.0, len(cases))
    for (q, style), alpha, eta in zip(cases, alphas.tolist(), etas.tolist()):
        want = mp_circuit(alpha, eta, q, style)
        got = linear_optics_usd_probability(alpha, eta, q, style)
        assert float(abs(got / want - 1)) < 1e-14, (alpha, eta, q, style)
        if (q, style) == (0, "cat"):
            assert linear_optics_closed_form(alpha, eta) == got


@pytest.mark.parametrize("alpha,eta", [(0.04, 1.0), (0.05, 1.0), (0.04, 0.9), (0.05, 0.9)])
def test_circuit_q1_just_above_refusal_is_resolved(alpha, eta):
    # The Gaussian route's click guard estimates 1.4e-7 to 7.1e-7 of the
    # value here, just under its 1e-6 limit; what it lets through must hold
    # to that limit.  The closed form holds to 1e-14.
    want = mp_circuit(alpha, eta, q=1)
    assert float(abs(gaussian_route(alpha, eta, q=1) / want - 1)) < 1e-6
    assert float(abs(linear_optics_usd_probability(alpha, eta, q=1) / want - 1)) < 1e-14


@pytest.mark.parametrize("alpha", [1e-3, 0.01, 0.03])
def test_circuit_refuses_unresolved_q1(alpha):
    # The Gaussian route's click sums cannot tell the q = 1 success from
    # their rounding here (8.44e-8 at alpha = 0.03 by mp_circuit), so they
    # refuse it; the closed form resolves it.
    for out, ports in zip(linear_optics_output_states(alpha, 1.0, 1), ((1, 3), (0, 2))):
        with pytest.raises(ArithmeticError, match="rounding estimate"):
            click_probability(out, ports)
    want = mp_circuit(alpha, q=1)
    assert float(abs(linear_optics_usd_probability(alpha, q=1) / want - 1)) < 1e-14


@pytest.mark.parametrize("alpha", [30.0, 100.0, 1e3, 1e200, 1.7e308])
def test_circuit_and_closed_form_saturate_for_bright_signals(alpha):
    # cosh(x) overflows above x ~ 710, and eta*alpha^2 past alpha ~ 1e154;
    # the closed forms take powers of e^(-x/2) and return exactly 1.
    assert linear_optics_closed_form(alpha) == 1.0
    for q in (0, 1):
        for style in ("cat", "coherent"):
            assert linear_optics_usd_probability(alpha, 0.9, q, style) == 1.0


@pytest.mark.parametrize("eta", [1.0, 0.9])
@pytest.mark.parametrize("q", [0, 1])
def test_bright_circuit_is_resolved_or_refused(q, eta):
    # Terms equal in exact arithmetic carry a rounding phase of about
    # eps*|beta|^2, which grows past the click guard's estimate: over alpha
    # log-uniform in [1, 1e300], every quarter decade, the closed form
    # returns a value in [0, 1], and the Gaussian route returns the same
    # value or raises an ArithmeticError naming alpha, never a ValueError
    # or a RuntimeWarning (an error under this suite's filter).
    for alpha in 10.0 ** np.linspace(0.0, 300.0, 1201):
        for style in ("cat", "coherent"):
            got = linear_optics_usd_probability(alpha, eta, q, style)
            assert 0.0 <= got <= 1.0
            try:
                want = gaussian_route(alpha, eta, q, style)
            except ArithmeticError as exc:
                assert f"alpha={alpha}, eta={eta}, q={q}:" in str(exc)
                continue
            assert abs(got - want) < 1e-9, alpha


def test_circuit_work_counts(monkeypatch):
    # The success probability is a closed form: no pair-kernel pass and no
    # click sum.  The output states take one pass per normalized factor
    # (both probes, then each input's signal); each output's click
    # probability then one pass on its (T, 4) terms, none per subset of
    # ports.
    passes, clicks = [], []
    pair_pass, click = usd._pair_pass, usd.click_probability

    def counting_pair_pass(a, b):
        passes.append(a.amps.shape)
        return pair_pass(a, b)

    def counting_click(s, must_click):
        clicks.append((s.amps.shape, tuple(must_click)))
        return click(s, must_click)

    monkeypatch.setattr(usd, "_pair_pass", counting_pair_pass)
    monkeypatch.setattr(usd, "click_probability", counting_click)
    for q in (0, 1):
        for style, p in (("cat", 2), ("coherent", 1)):
            passes.clear()
            clicks.clear()
            linear_optics_usd_probability(1.2, 0.95, q, style)
            assert passes == clicks == []
            out0, out1 = linear_optics_output_states(1.2, 0.95, q, style)
            assert passes == [(p, 1), (p, 1), (2, 1), (2, 1)]
            passes.clear()
            t = 2 * p * p
            for out, ports in ((out0, (1, 3)), (out1, (0, 2))):
                usd.click_probability(out, ports)
            assert passes == [(t, 4), (t, 4)]
            assert clicks == [((t, 4), (1, 3)), ((t, 4), (0, 2))]


def test_circuit_is_half_the_sum_of_its_outputs_click_probabilities():
    # The closed form agrees with the public one-state route on the states
    # linear_optics_output_states returns, over seeded draws of alpha, eta,
    # q and probe style, and q = 1 at alpha <= 0.05, where the click guard
    # refuses the dimmest.  The worst relative gaps measured on these draws
    # are 2.0e-15 at q = 0 and 1.1e-7 at q = 1 (cat probes at alpha ~ 0.045,
    # where the pair sums cancel; the guard admits 1e-6 there).  Where the
    # guard refuses, the closed form still gives a value below the optimum.
    rng = np.random.default_rng(2207)
    draws = [
        (float(rng.uniform(0.05, 6.0)), float(rng.uniform(0.5, 1.0)), int(rng.integers(2)),
         str(rng.choice(["cat", "coherent"])))
        for _ in range(3000)
    ]
    draws += [
        (float(a), float(rng.uniform(0.5, 1.0)), 1, str(rng.choice(["cat", "coherent"])))
        for a in rng.uniform(0.001, 0.05, 200)
    ]
    refused = 0
    for alpha, eta, q, style in draws:
        got = linear_optics_usd_probability(alpha, eta, q, style)
        try:
            want = gaussian_route(alpha, eta, q, style)
        except ArithmeticError:
            refused += 1
            p_opt = optimal_usd_probability(CatCodeSpec(1, alpha, eta), q, "per_q")
            assert 0.0 < got <= p_opt, (alpha, eta, q, style)
            continue
        assert abs(got / want - 1) < (1e-14 if q == 0 else 2e-7), (alpha, eta, q, style)
    assert 0 < refused < 200


def test_circuit_checks_its_inputs_once_and_returns_read_only_states(monkeypatch):
    # The outputs are read-only with their shapes.  A non-finite alpha is
    # named, with the success probability's exact text, and a bright one
    # refused, before any kernel pass; the success probability builds no
    # state.
    inits, passes = [], []
    init, pair_pass = CoherentSuperposition.__init__, usd._pair_pass

    def counting_init(self, terms, n_modes):
        inits.append(len(terms))
        init(self, terms, n_modes)

    def counting_pair_pass(a, b):
        passes.append(a.amps.shape)
        return pair_pass(a, b)

    monkeypatch.setattr(CoherentSuperposition, "__init__", counting_init)
    monkeypatch.setattr(usd, "_pair_pass", counting_pair_pass)
    for style, probe_terms in (("cat", 2), ("coherent", 1)):
        out0, out1 = linear_optics_output_states(1.2, 0.95, 1, style)
        for out in (out0, out1):
            assert out.coeffs.shape == (2 * probe_terms**2,)
            assert out.amps.shape == (2 * probe_terms**2, 4)
            for a in (out.coeffs, out.amps):
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0.0
        inits.clear()
        linear_optics_usd_probability(1.2, 0.95, 1, style)
        assert inits == []
    for alpha in (math.nan, math.inf):
        passes.clear()
        with pytest.raises(ValueError, match="non-finite term"):
            linear_optics_usd_probability(alpha, q=1)
        assert passes == []
        # the closed form names it with the text of the states' term check
        for q, style in itertools.product((0, 1), ("cat", "coherent")):
            with pytest.raises(ValueError) as states:
                linear_optics_output_states(alpha, 0.9, q, style)
            with pytest.raises(ValueError) as success:
                linear_optics_usd_probability(alpha, 0.9, q, style)
            assert str(success.value) == str(states.value)
            assert passes == []
    for q, style in itertools.product((0, 1), ("cat", "coherent")):
        named = re.escape(f"circuit at alpha=1000000.0, eta=1.0, q={q}:")
        with pytest.raises(ArithmeticError, match=named):
            linear_optics_output_states(1e6, 1.0, q, style)
        assert passes == []


@pytest.mark.parametrize("style", ["cat", "coherent"])
@pytest.mark.parametrize("q", [0, 1])
def test_circuit_stack_matches_per_state_composition(q, style):
    # The output states are, byte for byte, the public per-state operations
    # written out: the signal tensored with vacuum and both probes, then
    # the three splitters one at a time.
    vacuum = CoherentSuperposition(((1.0, (0.0,)),), 1)
    for alpha, eta in ((0.05, 1.0), (0.7, 0.999), (1.9, 0.9), (4.5, 0.5)):
        beta = math.sqrt(eta) * alpha
        half = beta / math.sqrt(2.0)
        probes = [
            CoherentSuperposition(
                ((1.0, (h,)), ((-1) ** q, (-h,)))[: 2 if style == "cat" else 1], 1
            ).normalized()
            for h in (half, 1j * half)
        ]
        outs = linear_optics_output_states(alpha, eta, q, style)
        for logical, out in enumerate(outs):
            ref = tensor(cat_superposition(1, beta, logical, q), vacuum, *probes)
            for ports in ((0, 1), (0, 2), (1, 3)):
                ref = beam_splitter(ref, ports)
            assert out.coeffs.shape == ref.coeffs.shape and out.amps.shape == ref.amps.shape
            assert out.coeffs.tobytes() == ref.coeffs.tobytes()
            assert out.amps.tobytes() == ref.amps.tobytes()


def test_superposition_arrays_are_read_only():
    s = tensor(coherent(0.5), cat_superposition(1, 1.0, 0))
    out = beam_splitter(s, (0, 1))
    assert out.coeffs.shape == (2,) and out.amps.shape == (2, 2)
    for state in (s, out, out.normalized()):
        for a in (state.coeffs, state.amps):
            assert not a.flags.writeable
    # the constructor names a non-finite coefficient or amplitude, so a
    # state built from checked ones stays finite
    with pytest.raises(ValueError, match="non-finite term"):
        CoherentSuperposition(((math.inf, (0.5,)),), 1)
    with pytest.raises(ValueError, match="non-finite term"):
        CoherentSuperposition(((1.0, (0.5,)), (1.0, (math.nan,))), 1)
    for alpha in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite term"):
            linear_optics_usd_probability(alpha, q=0)
    with pytest.raises(ValueError, match="expected 2"):
        CoherentSuperposition(((1.0, (0.5, 0.1)), (1.0, (0.5,))), 2)


def circuit_golden_text():
    """The circuit golden: click probabilities, then output-state bytes.

    One row per (alpha, eta, q, probe style) with the ``repr`` of
    ``linear_optics_usd_probability`` or, for a refusal, its error text;
    then, at a few points, the hex bytes of both output states' arrays.
    ``python tests/test_usd.py`` counts the rows that differ from
    ``tests/data/circuit_golden.csv``; ``--rewrite`` rewrites the file.
    """
    lines = ["alpha,eta,q,probe_style,quantity,value"]
    points = itertools.product(
        [0.25 * k for k in range(1, 21)], [1.0, 0.999, 0.99, 0.9, 0.5], (0, 1), ("cat", "coherent")
    )
    for alpha, eta, q, style in points:
        try:
            value = repr(linear_optics_usd_probability(alpha, eta, q, style))
        except (ArithmeticError, ValueError) as exc:
            value = f"{type(exc).__name__}: {exc}"
        lines.append(f"{alpha!r},{eta!r},{q},{style},p,{value}")
    for alpha, eta, q, style in (
        (0.25, 1.0, 0, "cat"), (1.5, 0.99, 1, "cat"), (2.0, 0.9, 1, "coherent"), (5.0, 0.5, 0, "coherent")
    ):
        outs = linear_optics_output_states(alpha, eta, q, style)
        for k, out in enumerate(outs):
            for name in ("coeffs", "amps"):
                value = getattr(out, name).tobytes().hex()
                lines.append(f"{alpha!r},{eta!r},{q},{style},out{k}.{name},{value}")
    return "\n".join(lines) + "\n"


def test_circuit_golden():
    # click probabilities and output states over the point-queries etas
    # and both probe styles, byte for byte
    assert circuit_golden_text() == CIRCUIT_GOLDEN.read_text()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CoherentSuperposition([(1.0, (0.5,))], 0), "need at least one mode"),
        (lambda: CoherentSuperposition([], 1), "empty superposition"),
        (
            lambda: CoherentSuperposition([(1.0, (0.5,)), (-1.0, (0.5,))], 1).normalized(),
            "cannot normalize a (numerically) zero state",
        ),
        (lambda: tensor(), "nothing to tensor"),
        (lambda: cat_superposition(0, 1.0, 0), "need m >= 1"),
        (lambda: cat_superposition(1, 1.0, 2), "logical must be 0 or 1"),
        (lambda: cat_superposition(1, 1.0, 0, -1), "losses must be nonnegative"),
        # a count is an int: neither a float nor a bool stands for one
        (lambda: cat_superposition(1.0, 1.0, 0), "m=1.0 must be an int"),
        (lambda: cat_superposition(True, 1.0, 0), "m=True must be an int"),
        (lambda: cat_superposition(1, 1.0, 1.0), "logical=1.0 must be an int"),
        (lambda: cat_superposition(1, 1.0, False), "logical=False must be an int"),
        (lambda: cat_superposition(1, 1.0, 0, 0.5), "losses=0.5 must be an int"),
        (lambda: cat_superposition(1, 1.0, 0, True), "losses=True must be an int"),
        # so is a port; the range and repeat checks keep their texts
        (lambda: click_probability(coherent(1.0, 2), (True,)), "port=True must be an int"),
        (lambda: click_probability(coherent(1.0, 2), (1.0,)), "port=1.0 must be an int"),
        (lambda: click_probability(coherent(1.0, 2), (0, 0)), "duplicate ports in must_click"),
        (lambda: click_probability(coherent(1.0, 2), (3,)), "port 3 out of range for 2 modes"),
        (lambda: beam_splitter(coherent(1.0, 2), (0.0, 1)), "port=0.0 must be an int"),
        (lambda: beam_splitter(coherent(1.0, 2), (False, True)), "port=False must be an int"),
        (lambda: beam_splitter(coherent(1.0, 2), (0, 0)), "beam splitter needs two distinct ports"),
        (lambda: beam_splitter(coherent(1.0, 2), (0, 5)), "port 5 out of range for 2 modes"),
        # a class index is an int: neither a float nor a bool stands for one
        (
            lambda: optimal_usd_probability(CatCodeSpec(1, 1.0, 0.9), q=1.0, mode="per_q"),
            "class index q=1.0 must be an int",
        ),
        (
            lambda: optimal_usd_probability(CatCodeSpec(1, 1.0, 0.9), q=True, mode="per_q"),
            "class index q=True must be an int",
        ),
        (lambda: linear_optics_usd_probability(1.0, 0.9, 1.0), "class index q=1.0 must be an int"),
        (lambda: linear_optics_output_states(1.0, 0.9, True), "class index q=True must be an int"),
        # a boolean is no amplitude or transmission
        (lambda: linear_optics_usd_probability(True), "need alpha > 0"),
        (lambda: linear_optics_usd_probability(1.0, True), "need 0 < eta <= 1"),
        (lambda: linear_optics_closed_form(True), "need alpha > 0"),
        (lambda: linear_optics_closed_form(1.0, True), "need 0 < eta <= 1"),
        # a non-finite amplitude, named as the circuit's first term names it
        (lambda: linear_optics_closed_form(math.nan), "non-finite term: coefficient (1+0j), "
         "amplitudes [(nan+0j)]"),
        (lambda: linear_optics_closed_form(math.inf), "non-finite term: coefficient (1+0j), "
         "amplitudes [(inf+0j)]"),
        # a complex amplitude, numpy's too
        (lambda: linear_optics_usd_probability(np.complex64(1.5 + 2j)), "need alpha > 0"),
    ],
    ids=[
        "modes", "empty", "zero_norm", "tensor", "m", "logical", "losses", "m_float", "m_bool",
        "logical_float", "logical_bool", "losses_float", "losses_bool", "click_port_bool",
        "click_port_float", "click_port_repeated", "click_port_range", "splitter_port_float",
        "splitter_port_bool", "splitter_port_repeated", "splitter_port_range", "optimal_q_float",
        "optimal_q_bool", "circuit_q_float", "states_q_bool", "circuit_alpha_bool",
        "circuit_eta_bool", "closed_form_alpha_bool", "closed_form_eta_bool",
        "closed_form_alpha_nan", "closed_form_alpha_inf",
        "circuit_alpha_complex64",
    ],
)
def test_public_refusals_are_named(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize(
    "alpha,eta",
    [(np.float32(1.7), 0.9), (np.array(1.25), np.float32(0.99)), (2, 1), (np.int64(3), 0.5)],
    ids=["f32_alpha", "0d_alpha_f32_eta", "int_alpha_eta", "int64_alpha"],
)
def test_circuit_reads_alpha_and_eta_as_doubles(alpha, eta, q):
    # A numpy scalar, a 0-d array or an int gives the bits of its double,
    # not of float32 arithmetic on it.
    double = float(alpha), float(eta)
    got, want = linear_optics_output_states(alpha, eta, q), linear_optics_output_states(*double, q)
    for a, b in zip(got, want):
        assert a.coeffs.tobytes() == b.coeffs.tobytes() and a.amps.tobytes() == b.amps.tobytes()
    got = linear_optics_usd_probability(alpha, eta, q)
    assert repr(got) == repr(linear_optics_usd_probability(*double, q))
    assert repr(linear_optics_closed_form(alpha, eta)) == repr(linear_optics_closed_form(*double))


if __name__ == "__main__":
    import sys

    text = circuit_golden_text()
    if sys.argv[1:] == ["--rewrite"]:
        CIRCUIT_GOLDEN.write_text(text)
        sys.exit(0)
    new, old = text.splitlines(), CIRCUIT_GOLDEN.read_text().splitlines()
    differ = sum(a != b for a, b in zip(new, old)) + abs(len(new) - len(old))
    print(f"{differ} of {len(new)} rows differ from {CIRCUIT_GOLDEN.name}; --rewrite rewrites it")
    sys.exit(1 if differ else 0)
