import cmath
import math
import re

import numpy as np
import pytest

from catrep.cavity import (
    DEFAULT_PARAMS,
    CavityParams,
    detuning_for_angle,
    full_reflection,
    sweep_reflection,
)


def ideal(kappa=1.0, gamma=1.2):
    """The ideal cavity: the one reflection model with its atom decoupled (g = 0)
    and perfect outcoupling (kappa_r = kappa)."""
    return CavityParams(0.0, kappa, gamma, kappa)


def closed_form(delta, kappa):
    """The ideal cavity's pure phase (2πiΔ − κ)/(2πiΔ + κ), on the model's own axis."""
    d = 2j * math.pi * delta
    return (d - kappa) / (d + kappa)


def test_ideal_reflection_resonance_gives_pi():
    for kappa in (0.3, 1.0, 2.5):
        assert full_reflection(0.0, ideal(kappa)) == -1.0
        assert cmath.phase(full_reflection(0.0, ideal(kappa))) == math.pi


def test_ideal_reflection_half_kappa_gives_half_pi():
    # 2πΔ = κ puts the pole and the zero a quarter turn apart
    kappa = 0.7
    phase = cmath.phase(full_reflection(kappa / (2.0 * math.pi), ideal(kappa)))
    assert abs(phase - math.pi / 2.0) < 1e-12


def test_ideal_reflection_phase_vanishes_at_large_detuning():
    # far off resonance the phase is 2·atan(κ/2πΔ), about κ/(πΔ)
    for delta in (1e3, 1e6):
        phase = cmath.phase(full_reflection(delta, ideal()))
        assert abs(phase - 2.0 * math.atan(1.0 / (2.0 * math.pi * delta))) < 1e-15


def test_ideal_reflection_unit_modulus():
    for kappa, gamma in ((1.3, 1.2), (1.0, 0.05), (0.4, 7.0)):
        for delta in [*np.linspace(-40.0, 40.0, 161), 1e3, -1e6]:
            assert abs(abs(full_reflection(float(delta), ideal(kappa, gamma))) - 1.0) < 1e-15


def test_params_validation():
    with pytest.raises(ValueError):
        CavityParams(kappa=-1.0)
    with pytest.raises(ValueError):
        CavityParams(kappa_r=1.5, kappa=1.0)
    with pytest.raises(ValueError):
        CavityParams(g=-0.1)
    with pytest.raises(ValueError, match="gamma=nan"):
        CavityParams(gamma=math.nan)
    with pytest.raises(ValueError, match="g=1e"):  # g² overflows, and with it the amplitude
        CavityParams(g=1e200)


def test_params_hold_the_doubles_of_their_numbers():
    # a numpy scalar, a 0-d array or an int is kept as the double it stands
    # for, so the record, and every reflection from it, is its double's
    p = CavityParams(g=np.float32(3.1), kappa=np.array(1.0), gamma=2, kappa_r=np.float64(0.9))
    double = CavityParams(float(np.float32(3.1)), 1.0, 2.0, 0.9)
    assert all(type(v) is float for v in p._values())
    assert p == double and repr(p) == repr(double)
    assert full_reflection(0.3, p) == full_reflection(0.3, double)


def test_full_reflection_refuses_an_overflowing_detuning():
    # the amplitude tends to 1 far off resonance; past Δ ≈ 2.9e307 it would be NaN
    assert full_reflection(1e307) == 1.0
    for delta in (3e307, 1e308, -1e308, math.inf):
        with pytest.raises(ArithmeticError, match="delta="):
            full_reflection(delta)


def test_full_reflection_strong_coupling_is_near_unity():
    # coupled branch at resonance: deviation scales as kappa*gamma/g^2
    for gain in (1.0, 10.0, 100.0):
        p = CavityParams(g=3.0 * gain, kappa=1.0, gamma=1.2, kappa_r=1.0)
        dev = abs(full_reflection(0.0, p) - 1.0)
        assert dev < 3.0 * p.kappa * p.gamma / p.g ** 2
    d10 = abs(full_reflection(0.0, CavityParams(g=30.0, kappa=1.0, gamma=1.2, kappa_r=1.0)) - 1.0)
    d100 = abs(full_reflection(0.0, CavityParams(g=300.0, kappa=1.0, gamma=1.2, kappa_r=1.0)) - 1.0)
    assert d100 < d10 / 50.0


def test_full_reflection_passivity():
    for params in (CavityParams(), CavityParams(g=0.2, kappa_r=0.5), CavityParams(g=8.0)):
        for delta in np.linspace(-10.0, 10.0, 201):
            assert abs(full_reflection(delta, params)) <= 1.0 + 1e-12


def test_full_reflection_decoupled_matches_ideal_phase_curve():
    # with g = 0 and perfect outcoupling the dressed formula is the ideal
    # cavity's pure phase on its own detuning axis, whatever the atomic line
    for kappa, gamma in ((1.0, 1.2), (1.3, 0.2), (0.5, 9.0)):
        for delta in [*np.linspace(-10.0, 10.0, 201), 1e3, -1e3, 1e6]:
            lhs = full_reflection(float(delta), ideal(kappa, gamma))
            assert abs(lhs - closed_form(float(delta), kappa)) < 1e-15
    p = CavityParams(g=1e-12, kappa=1.0, gamma=1.2, kappa_r=1.0)
    for delta in np.linspace(-2.0, 2.0, 41):
        assert abs(full_reflection(delta, p) - closed_form(delta, 1.0)) < 1e-10


def test_full_reflection_approaches_ideal_as_coupling_shrinks():
    # on one axis the coupled amplitude converges on the ideal one like g²
    grid = np.linspace(-2.0, 2.0, 21)

    def max_dev(g):
        p = CavityParams(g=g, kappa=1.0, gamma=1.2, kappa_r=1.0)
        return max(abs(full_reflection(d, p) - closed_form(d, 1.0)) for d in grid)

    d1, d2, d3 = max_dev(0.5), max_dev(0.05), max_dev(0.005)
    assert d2 < d1 / 50.0
    assert d3 < d2 / 50.0
    assert 0.3 < d1 < 0.4


def test_full_reflection_fig_style_shape():
    # decoupled, lossy outcoupling: phase falls pi -> 0, modulus dips at
    # resonance and recovers at large detuning
    p = CavityParams(g=1e-3, kappa=1.0, gamma=1.2, kappa_r=0.9)
    rows = sweep_reflection(np.linspace(0.0, 5.0, 26), p)
    phases = [r[2] for r in rows]
    mods = [r[3] for r in rows]
    assert abs(phases[0] - math.pi) < 1e-6
    assert phases[-1] < 0.2
    assert all(b <= a + 1e-9 for a, b in zip(phases, phases[1:]))
    assert abs(mods[0] - 0.8) < 1e-5
    assert mods[-1] > 0.99


def test_detuning_for_angle_examples():
    assert detuning_for_angle(math.pi, 2.0) == 0.0
    kappa = 1.4
    assert abs(detuning_for_angle(math.pi / 2.0, kappa) - kappa / (2.0 * math.pi)) < 1e-15


def test_detuning_for_angle_round_trip():
    # through the one model: the phase of the ideal cavity at the detuning found
    for kappa in (0.9, 2.0):
        for phi in np.linspace(0.05, math.pi, 40):
            delta = detuning_for_angle(float(phi), kappa)
            assert abs(cmath.phase(full_reflection(delta, ideal(kappa))) - phi) < 1e-12


def test_detuning_for_angle_domain():
    with pytest.raises(ValueError, match=re.escape("target angle 0.0 outside (0, pi]")):
        detuning_for_angle(0.0, 1.0)
    with pytest.raises(ValueError, match=re.escape("target angle 3.2 outside (0, pi]")):
        detuning_for_angle(3.2, 1.0)
    with pytest.raises(ValueError, match="kappa must be positive and finite, got 0.0"):
        detuning_for_angle(1.0, 0.0)


def test_sweep_rows_are_consistent():
    rows = sweep_reflection([0.0, 0.5, 1.0, -3.7])
    assert len(rows) == 4
    for delta, p_ideal, p_full, m_full in rows:
        # bit for bit the phase of the one model at g = 0, kappa_r = kappa
        assert p_ideal == cmath.phase(full_reflection(delta, ideal(1.0, DEFAULT_PARAMS.gamma)))
        assert abs(p_ideal - cmath.phase(closed_form(delta, 1.0))) < 1e-15
        r = full_reflection(delta)
        assert p_full == cmath.phase(r)
        assert m_full == abs(r)
    other = CavityParams(g=3.0, kappa=1.7, gamma=0.4, kappa_r=0.6)
    ((delta, p_ideal, _, _),) = sweep_reflection([0.25], other)
    assert p_ideal == cmath.phase(full_reflection(delta, ideal(1.7, 0.4)))


# The ideal cavity's reflection and its phase (sweep_reflection's phase_ideal)
# take kappa through a CavityParams, which refuses it by name.
@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: full_reflection(0.3, ideal(0.0)), "decay rates must be positive"),
        (
            lambda: sweep_reflection([0.3], CavityParams(kappa=-1.0, kappa_r=-1.0)),
            "decay rates must be positive",
        ),
        (lambda: full_reflection(1.0, ideal(math.nan)), "kappa=nan must be finite"),
        (lambda: sweep_reflection([0.5], CavityParams(kappa=math.nan)), "kappa=nan must be finite"),
        (lambda: detuning_for_angle(1.0, math.nan), "kappa must be positive and finite, got nan"),
        (lambda: full_reflection(1.0, ideal(math.inf)), "kappa=inf must be finite"),
        (lambda: sweep_reflection([1.0], CavityParams(kappa=math.inf)), "kappa=inf must be finite"),
        (lambda: detuning_for_angle(1.0, math.inf), "kappa must be positive and finite, got inf"),
    ],
    ids=[
        "ideal_reflection", "reflection_phase", "ideal_reflection_nan", "reflection_phase_nan",
        "detuning_for_angle_nan", "ideal_reflection_inf", "reflection_phase_inf",
        "detuning_for_angle_inf",
    ],
)
def test_non_positive_kappa_is_refused(call, text):
    with pytest.raises(ValueError, match=re.escape(text)):
        call()


@pytest.mark.parametrize(
    "call, error, text",
    [
        (
            lambda: full_reflection(math.inf, ideal()), ArithmeticError,
            "delta=inf: full reflection overflows a float at "
            "CavityParams(g=0.0, kappa=1.0, gamma=1.2, kappa_r=1.0)",
        ),
        (
            lambda: sweep_reflection([math.nan]), ArithmeticError,
            "delta=nan: full reflection overflows a float at CavityParams(g=3.0,",
        ),
        (
            lambda: detuning_for_angle(1e-320, 1.0), ArithmeticError,
            "target angle 1e-320: its detuning overflows a float",
        ),
    ],
    ids=["ideal_reflection_delta", "reflection_phase_delta", "detuning_for_angle_overflow"],
)
def test_a_non_finite_result_is_refused_by_name(call, error, text):
    # the ideal cavity and its phase at a detuning that is not finite, and an
    # angle whose detuning overflows, end in a named refusal, never a NaN or
    # an inf; the finite limits nearby still return
    with pytest.raises(error, match=re.escape(text)):
        call()
    assert full_reflection(1e307, ideal()) == 1.0
    assert math.isfinite(detuning_for_angle(1e-300, 1e-300))


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: full_reflection(True), "delta=True must be a number, not a bool"),
        (lambda: detuning_for_angle(True, 1.0), "phi=True must be a number, not a bool"),
        (lambda: detuning_for_angle(1.0, False), "kappa=False must be a number, not a bool"),
        # the sweep's grid too, before float() could read True as Δ = 1.0
        (lambda: sweep_reflection([0.0, True]), "delta=True must be a number, not a bool"),
    ],
    ids=["full_reflection", "detuning_for_angle_phi", "detuning_for_angle_kappa", "sweep_delta"],
)
def test_a_bool_is_refused_by_name(call, text):
    # a bool is no number, as the records already say; each returned a value before
    with pytest.raises(ValueError, match=re.escape(text)):
        call()
