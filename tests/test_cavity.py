import cmath
import math

import numpy as np
import pytest

from catrep.cavity import (
    CavityParams,
    detuning_for_angle,
    full_reflection,
    ideal_reflection,
    reflection_phase,
    sweep_reflection,
)


def test_ideal_reflection_resonance_gives_pi():
    assert abs(ideal_reflection(0.0, 1.0) - (-1.0)) < 1e-15
    assert abs(reflection_phase(0.0, 1.0) - math.pi) < 1e-15


def test_ideal_reflection_half_kappa_gives_half_pi():
    kappa = 0.7
    assert abs(reflection_phase(kappa / 2.0, kappa) - math.pi / 2.0) < 1e-12


def test_ideal_reflection_phase_vanishes_at_large_detuning():
    assert reflection_phase(1e6, 1.0) < 1e-5


def test_ideal_reflection_unit_modulus():
    for delta in np.linspace(-40.0, 40.0, 81):
        assert abs(abs(ideal_reflection(delta, 1.3)) - 1.0) < 1e-14


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
    # with g=0 and perfect outcoupling the dressed formula collapses onto
    # the ideal phase, up to the detuning axis rescaling baked into its
    # frequency convention
    p = CavityParams(g=1e-12, kappa=1.0, gamma=1.2, kappa_r=1.0)
    for delta in np.linspace(-2.0, 2.0, 41):
        lhs = full_reflection(delta, p)
        rhs = ideal_reflection(math.pi * delta, p.kappa)
        assert abs(lhs - rhs) < 1e-10


def test_full_reflection_approaches_ideal_as_coupling_shrinks():
    grid = np.linspace(-2.0, 2.0, 21)

    def max_dev(g):
        p = CavityParams(g=g, kappa=1.0, gamma=1.2, kappa_r=1.0)
        return max(abs(full_reflection(d, p) - ideal_reflection(math.pi * d, 1.0)) for d in grid)

    d1, d2, d3 = max_dev(0.5), max_dev(0.05), max_dev(0.005)
    assert d2 < d1 / 10.0
    assert d3 < d2 / 10.0


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
    assert abs(detuning_for_angle(math.pi / 2.0, kappa) - kappa / 2.0) < 1e-12


def test_detuning_for_angle_round_trip():
    kappa = 0.9
    for phi in np.linspace(0.05, math.pi, 40):
        delta = detuning_for_angle(float(phi), kappa)
        assert abs(reflection_phase(delta, kappa) - phi) < 1e-12


def test_detuning_for_angle_domain():
    with pytest.raises(ValueError):
        detuning_for_angle(0.0, 1.0)
    with pytest.raises(ValueError):
        detuning_for_angle(3.2, 1.0)
    with pytest.raises(ValueError):
        detuning_for_angle(1.0, 0.0)


def test_sweep_rows_are_consistent():
    rows = sweep_reflection([0.0, 0.5, 1.0])
    assert len(rows) == 3
    for delta, p_ideal, p_full, m_full in rows:
        assert abs(p_ideal - reflection_phase(delta, 1.0)) < 1e-15
        r = full_reflection(delta)
        assert abs(p_full - cmath.phase(r)) < 1e-15
        assert abs(m_full - abs(r)) < 1e-15


@pytest.mark.parametrize(
    "call",
    [
        lambda: ideal_reflection(0.3, 0.0),
        lambda: reflection_phase(0.3, -1.0),
        lambda: ideal_reflection(1.0, math.nan),
        lambda: reflection_phase(0.5, math.nan),
        lambda: detuning_for_angle(1.0, math.nan),
    ],
    ids=[
        "ideal_reflection", "reflection_phase", "ideal_reflection_nan", "reflection_phase_nan",
        "detuning_for_angle_nan",
    ],
)
def test_non_positive_kappa_is_refused(call):
    with pytest.raises(ValueError, match="kappa must be positive"):
        call()
