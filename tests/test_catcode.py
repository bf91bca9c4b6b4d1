import csv
import math
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catrep import catcode, cli, fockspace
from catrep.catcode import (
    _LOG_DROP,
    CatCodeSpec,
    LossWeights,
    _class_series,
    loss_weights,
    segment_fidelity,
)
from catrep.chain import SegmentParams
from catrep.fockspace import FockVector, coherent_state
from fock_reference import codeword, damped_codeword, error_space_state, kraus_op, rotation_apply


def kraus_class_oracle(spec, logical=0):
    """Loss-class weights from first principles: push the undamped codeword
    through every loss Kraus operator and bin the norms by count mod 2M."""
    v = codeword(spec, logical)
    n_cls = spec.n_classes
    weights = np.zeros(n_cls)
    for k in range(v.dim):
        a = kraus_op(k, spec.eta, v.n_max)
        weights[k % n_cls] += float(np.linalg.norm(a @ v.amps) ** 2)
    assert abs(weights.sum() - 1.0) < 1e-9
    return weights / weights.sum()


def closed_form_weights_m1(alpha, eta):
    x = alpha * alpha * (1.0 - eta)
    y = alpha * alpha * eta
    s = [
        0.5 * (math.cosh(x) + math.cos(x)),
        0.5 * (math.sinh(x) + math.sin(x)),
        0.5 * (math.cosh(x) - math.cos(x)),
        0.5 * (math.sinh(x) - math.sin(x)),
    ]
    t = [math.cosh(y), math.sinh(y)]
    z = math.cosh(x + y)
    return np.array([s[q] * t[q % 2] / z for q in range(4)])


def whole_window_class_series(x, modulus):
    """Reference class series: evaluate every term of the window, per residue.

    ``_class_series`` evaluates only the terms near each peak and must
    return exactly this (same peaks and log factorials at them, same set
    of summed terms)."""
    log_x = math.log(x)
    n_stop = int(x + 12.0 * math.sqrt(x + 1.0) + 12.0 * modulus + 30.0)
    table = []
    for residue in range(modulus):
        ts = range(residue, n_stop + 1, modulus)
        log_fact = [math.lgamma(t + 1.0) for t in ts]
        log_terms = [t * log_x - g for t, g in zip(ts, log_fact)]
        i = max(range(len(ts)), key=log_terms.__getitem__)
        assert log_terms[-1] <= log_terms[i] - 40.0
        t_peak, g_peak = ts[i], log_fact[i]
        rel = ((t - t_peak) * log_x - (g - g_peak) for t, g in zip(ts, log_fact))
        log_rest = math.log(math.fsum(math.exp(v) for v in rel if v > _LOG_DROP))
        table.append((t_peak, g_peak, log_rest))
    return table


def test_spec_validation():
    with pytest.raises(ValueError):
        CatCodeSpec(0, 1.0)
    with pytest.raises(ValueError):
        CatCodeSpec(1, -1.0)
    with pytest.raises(ValueError):
        CatCodeSpec(1, 1.0, eta=0.0)
    with pytest.raises(ValueError):
        CatCodeSpec(1, 1.0, eta=1.2)
    spec = CatCodeSpec(3, 1.5, 0.9)
    assert spec.order == 8
    assert spec.loss_order == 7
    assert spec.n_classes == 16


def test_even_cat_support():
    v = codeword(CatCodeSpec(1, 1.1), 0)
    assert np.max(np.abs(v.amps[1::2])) < 1e-14
    assert abs(v.norm() - 1.0) < 1e-10


def test_codeword_support_classes():
    for m in (1, 2, 3):
        spec = CatCodeSpec(m, 1.2)
        big_m = spec.order
        v0 = codeword(spec, 0)
        v1 = codeword(spec, 1)
        n = np.arange(v0.dim)
        off = n % big_m != 0
        assert np.max(np.abs(v0.amps[off])) < 1e-13
        assert np.max(np.abs(v1.amps[off])) < 1e-13
        # logical one flips the sign of every odd multiple of M
        on = n[~off]
        signs = (-1.0) ** (on // big_m)
        assert np.max(np.abs(v1.amps[~off] - signs * v0.amps[~off])) < 1e-12


def test_rotation_symmetry():
    for m in (1, 2, 3):
        spec = CatCodeSpec(m, 1.0)
        for logical in (0, 1):
            v = codeword(spec, logical)
            r = rotation_apply(2.0 * math.pi / spec.order, v)
            assert np.max(np.abs(r.amps - v.amps)) < 1e-12


def test_bit_flip_rotation_both_directions():
    for m in (1, 2, 3):
        spec = CatCodeSpec(m, 1.3)
        v0, v1 = codeword(spec, 0), codeword(spec, 1)
        phi = math.pi / spec.order
        assert np.max(np.abs(rotation_apply(phi, v0).amps - v1.amps)) < 1e-12
        assert np.max(np.abs(rotation_apply(phi, v1).amps - v0.amps)) < 1e-12


def test_complementary_angle_bit_flip():
    # the angle pi - pi/M performs the same flip, which is what makes
    # near-pi cavities usable in place of small-angle ones
    for m in (1, 2, 3):
        spec = CatCodeSpec(m, 0.9)
        v0, v1 = codeword(spec, 0), codeword(spec, 1)
        phi = math.pi - math.pi / spec.order
        assert np.max(np.abs(rotation_apply(phi, v0).amps - v1.amps)) < 1e-12


def test_cyclic_annihilation_eigenstructure():
    from catrep.fockspace import annihilate

    for m in (1, 2):
        spec = CatCodeSpec(m, 1.4, 0.8)
        big_m = spec.order
        lam = spec.damped_alpha ** big_m
        for logical, sign in ((0, 1.0), (1, -1.0)):
            v = damped_codeword(spec, logical)
            dropped = annihilate(v, big_m)
            # truncation only disturbs the top slots where amps are ~1e-13
            head = slice(0, v.dim - big_m)
            assert np.max(np.abs(dropped.amps[head] - sign * lam * v.amps[head])) < 1e-9


def test_damped_codeword_limits():
    spec = CatCodeSpec(2, 1.2, 1.0)
    a = damped_codeword(spec, 0)
    b = codeword(spec, 0)
    n = min(a.dim, b.dim)
    assert np.max(np.abs(a.amps[:n] - b.amps[:n])) < 1e-12
    tiny = CatCodeSpec(1, 1.2, 1e-6)
    v = damped_codeword(tiny, 0)
    assert abs(abs(v.amps[0]) - 1.0) < 1e-5


def test_damped_overlap_matches_gaussian_sum():
    # direct coherent-overlap double sum, no Fock truncation involved
    for m, alpha, eta in ((1, 1.0, 0.9), (2, 1.5, 0.7), (3, 0.8, 0.95)):
        spec = CatCodeSpec(m, alpha, eta)
        big_m = spec.order
        beta = spec.damped_alpha
        omega = np.exp(2j * math.pi / big_m)
        nu = np.exp(1j * math.pi / big_m)
        zeros = [beta * omega ** k for k in range(big_m)]
        ones = [beta * omega ** k * nu for k in range(big_m)]

        def gauss(a, b):
            return np.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + np.conj(a) * b)

        raw = sum(gauss(a, b) for a in zeros for b in ones)
        n0 = sum(gauss(a, b) for a in zeros for b in zeros).real
        n1 = sum(gauss(a, b) for a in ones for b in ones).real
        expected = raw / math.sqrt(n0 * n1)
        got = np.vdot(damped_codeword(spec, 0).amps, damped_codeword(spec, 1).amps)
        assert abs(got - expected) < 1e-12


def test_error_space_state_basics():
    spec = CatCodeSpec(2, 1.1, 0.85)
    v, norm_sq = error_space_state(spec, 0, 0)
    base = damped_codeword(spec, 0)
    assert abs(norm_sq - 1.0) < 1e-12
    assert np.max(np.abs(v.amps - base.amps)) < 1e-12
    with pytest.raises(ValueError):
        error_space_state(spec, 0, 4)
    with pytest.raises(ValueError):
        error_space_state(spec, 0, -1)


def test_error_space_norm_closed_form_m1():
    # ||a^q . damped codeword||^2 = y^q T_q / T_0 with y the damped
    # photon number; for depth one T_0 = cosh y, T_1 = sinh y
    for alpha, eta in ((1.0, 0.9), (1.7, 0.6)):
        spec = CatCodeSpec(1, alpha, eta)
        y = eta * alpha * alpha
        for logical in (0, 1):
            _, n1 = error_space_state(spec, logical, 1)
            assert abs(n1 - y * math.tanh(y)) < 1e-10


def test_error_space_norms_label_independent():
    spec = CatCodeSpec(2, 1.3, 0.75)
    for q in range(spec.order):
        _, n0 = error_space_state(spec, 0, q)
        _, n1 = error_space_state(spec, 1, q)
        assert abs(n0 - n1) < 1e-10


def test_loss_weights_no_loss_is_point_mass():
    w = loss_weights(CatCodeSpec(2, 1.5, 1.0))
    assert w.p[0] == pytest.approx(1.0, abs=1e-15)
    assert np.all(w.p[1:] == 0.0)


def test_loss_weights_m1_closed_form():
    for alpha in (0.7, 1.3, 2.0):
        for eta in (0.5, 0.9, 0.99):
            w = loss_weights(CatCodeSpec(1, alpha, eta))
            expected = closed_form_weights_m1(alpha, eta)
            assert np.max(np.abs(w.p - expected)) < 1e-12


def test_loss_weights_against_kraus_oracle():
    for m in (1, 2, 3):
        spec = CatCodeSpec(m, 1.0, 0.9)
        w = loss_weights(spec)
        oracle = kraus_class_oracle(spec, logical=0)
        assert np.max(np.abs(w.p - oracle)) < 1e-10
    # the distribution must not depend on which codeword is sent
    spec = CatCodeSpec(1, 1.0, 0.9)
    assert np.max(np.abs(kraus_class_oracle(spec, 0) - kraus_class_oracle(spec, 1))) < 1e-10


def test_loss_weights_oracle_reduced_grid():
    for m in (1, 2):
        for alpha in (0.5, 2.0):
            for eta in (0.5, 0.95):
                spec = CatCodeSpec(m, alpha, eta)
                assert np.max(np.abs(loss_weights(spec).p - kraus_class_oracle(spec))) < 1e-8


def test_loss_weights_survive_large_amplitude():
    # far beyond dense-vector range; log-domain series must stay finite
    w = loss_weights(CatCodeSpec(3, 12.0, 0.997))
    assert abs(w.p.sum() - 1.0) < 1e-12
    assert np.all(np.isfinite(w.p))


def test_segment_fidelity_m1_closed_form():
    for alpha, eta in ((0.8, 0.9), (1.5, 0.7), (2.5, 0.95)):
        spec = CatCodeSpec(1, alpha, eta)
        x = alpha * alpha * (1.0 - eta)
        y = alpha * alpha * eta
        expected = 0.5 * (1.0 + (math.cos(x) * math.cosh(y) + math.sin(x) * math.sinh(y)) / math.cosh(x + y))
        assert abs(segment_fidelity(spec) - expected) < 1e-12
    assert segment_fidelity(CatCodeSpec(2, 1.0, 1.0)) == pytest.approx(1.0)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.3, max_value=3.0),
    st.floats(min_value=0.3, max_value=1.0),
)
def test_loss_weights_always_a_distribution(m, alpha, eta):
    w = loss_weights(CatCodeSpec(m, alpha, eta))
    assert np.all(w.p >= 0.0)
    assert abs(w.p.sum() - 1.0) < 1e-10
    f0 = w.correctable_mass()
    assert 0.0 <= f0 <= 1.0


def test_degenerate_primitive_rejection():
    spec = CatCodeSpec(1, 1.0)
    vac = coherent_state(0.0)
    with pytest.raises(ValueError):
        codeword(spec, 0, primitive=vac)
    two = np.zeros(9, dtype=complex)
    two[2] = 1.0
    with pytest.raises(ValueError):
        codeword(spec, 0, primitive=FockVector(two, 8))


def test_loss_weights_type_validation():
    with pytest.raises(ValueError):
        LossWeights(np.array([0.5, 0.5]), 1)
    with pytest.raises(ValueError):
        LossWeights(np.array([0.7, 0.1, 0.1, 0.2]), 1)
    with pytest.raises(ValueError):
        LossWeights(np.array([1.1, -0.1, 0.0, 0.0]), 1)
    with pytest.raises(ValueError, match="negative"):
        LossWeights(np.array([0.5, 0.5, 2e-15, -2e-15]), 1)


@pytest.mark.parametrize(
    "p",
    [
        [math.nan, 0.5, 0.25, 0.25],
        [0.5, 0.5, 0.0, math.nan],
        [math.inf, 0.5, 0.25, 0.25],
        [1.0, 0.0, 0.0, math.inf],
    ],
)
def test_loss_weights_reject_nonfinite(p):
    # NaN compares false with everything, so a check that only asks
    # "is the sum off by more than the tolerance?" lets it through.
    with pytest.raises(ValueError, match="sum to"):
        LossWeights(np.array(p), 1)


@pytest.mark.parametrize(
    "p",
    [
        [0.6, 0.3, 0.07, 0.03],
        [0.5, 0.5, 4e-16, -4e-16],
        [1.0, -0.0, 0.0, -0.0],
        [0.25, 0.25, 0.25, 0.25 + 1e-11],
    ],
)
def test_loss_weights_clip_then_renormalize(p):
    # Bits of the plain rule: clip at 0, divide by the fsum of the clipped
    # weights (the sign of a -0.0 weight included).
    clipped = np.clip(np.array(p), 0.0, None)
    want = clipped / math.fsum(clipped)
    assert LossWeights(np.array(p), 1).p.tobytes() == want.tobytes()


def _numpy_normalized(raw) -> np.ndarray:
    # The weights' bits as numpy gives them: clip at 0 (which turns -0.0
    # into 0.0), then divide by the fsum of the clipped weights.
    clipped = np.maximum(np.asarray(raw, dtype=float), 0.0)
    return clipped / math.fsum(clipped.tolist())


def _recorded_builds(monkeypatch):
    # The weights built at every spec of the golden sweep, at eta = 1 and
    # where a -0.0 weight is clipped, with the raw list each was built from.
    raw = []
    normalize = catcode._normalized

    def recording(p):
        raw.append(p)
        return normalize(p)

    golden = pathlib.Path(__file__).parent / "data" / "sweep_golden.csv"
    with open(golden) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 180
    specs = [
        SegmentParams(
            l0=float(row["l0"]), m=int(row["m"]), alpha=float(row["alpha"]),
            eta_local=float(row["eta_local"]),
        ).code_spec
        for row in rows
    ]
    with monkeypatch.context() as patched:
        patched.setattr(catcode, "_normalized", recording)
        weights = [catcode.loss_weights(spec) for spec in specs + [CatCodeSpec(2, 1.5)]]
        clipped = catcode._normalized([1.0, -0.0, 0.0, -0.0])
        weights.append(LossWeights._from_checked(values=clipped, m=1))
    assert len(raw) == len(weights)
    return weights, raw


def test_loss_weights_array_is_read_only_cached_and_numpy_exact(monkeypatch):
    # The weights are normalized on Python floats and the array is built on
    # first read: it must hold the bits numpy's normalization gives, at every
    # spec of the golden sweep, at eta = 1 and where a -0.0 weight is clipped.
    weights, raw = _recorded_builds(monkeypatch)
    for w, p in zip(weights, raw):
        a = w.p
        assert a is w.p
        assert a.dtype == np.float64 and a.flags.c_contiguous and not a.flags.writeable
        assert a.tobytes() == _numpy_normalized(p).tobytes()
        assert a.tolist() == list(w.values)
        with pytest.raises(ValueError):
            a[0] = 0.5
    assert raw[-2][1:] == [0.0] * 7 and weights[-2].p.tolist() == [1.0] + [0.0] * 7
    assert math.copysign(1.0, weights[-1].p[1]) == 1.0


def test_built_loss_weights_equal_the_public_constructors(monkeypatch):
    # The builder skips the constructor's checks, not its arithmetic: from
    # the same list, both give the same record, bit for bit.
    weights, raw = _recorded_builds(monkeypatch)
    for w, p in zip(weights, raw):
        public = LossWeights(p, w.m)
        assert type(w) is LossWeights
        assert np.array(w.values).tobytes() == np.array(public.values).tobytes()
        assert w.p.tobytes() == public.p.tobytes()
        assert w == public and hash(w) == hash(public) and repr(w) == repr(public)
    assert math.copysign(1.0, weights[-1].values[1]) == 1.0


def test_a_default_sweep_builds_its_weights_without_the_public_checks(monkeypatch, capsys):
    calls = {"builder": 0, "constructor": 0}
    build, init = LossWeights._from_checked, LossWeights.__init__

    def counting_build(cls, **values):
        calls["builder"] += 1
        return build(**values)

    def counting_init(self, p, m):
        calls["constructor"] += 1
        init(self, p, m)

    monkeypatch.setattr(LossWeights, "_from_checked", classmethod(counting_build))
    monkeypatch.setattr(LossWeights, "__init__", counting_init)
    assert cli.main(["sweep"]) == 0
    golden = pathlib.Path(__file__).parent / "data" / "sweep_golden.csv"
    assert capsys.readouterr().out == golden.read_text()
    assert calls == {"builder": 180, "constructor": 0}


def test_class_series_window_bound():
    # alpha = 1000 (x up to 1e6) stays inside the window bound; alpha = 1e5
    # (x = 1e10, about 10^10 terms) is refused before any allocation.
    t_peak, _g_peak, log_rest = _class_series(1e6, 2)[0]
    assert abs(t_peak - 1e6) <= 2 and math.isfinite(log_rest)
    with pytest.raises(ArithmeticError, match="class series window"):
        _class_series(1e10, 2)


@pytest.mark.parametrize("modulus", [1, 2, 4, 8, 16, 32])
def test_class_series_matches_whole_window(modulus):
    # Log-spaced x, integer and half-integer x (where neighbouring terms
    # tie at the peak), and x below the modulus (peak at the residue).
    xs = [10.0 ** (k / 4) for k in range(-40, 21)]
    xs += [float(n) for n in range(1, 41)] + [n + 0.5 for n in range(41)]
    xs += [100.0, 100.5, 1000.0, 1000.5, 12345.0, 12345.5]
    xs += [modulus * f for f in (0.01, 0.3, 0.5, 0.99)]
    for x in xs:
        assert _class_series(x, modulus) == whole_window_class_series(x, modulus), x


@pytest.mark.parametrize("modulus", range(1, 65))
def test_class_series_matches_whole_window_below_one(modulus):
    # Below x = 1 each residue's peak is its first member, no climb or
    # trailing guard runs, and a table whose residue-0 second member is
    # under the drop is written down directly.  x = 1.0 takes the general
    # path.  x_b and its float neighbours sit on that one-term boundary
    # (x_b is above 1 for the larger moduli, where the general path runs).
    x_b = math.exp((_LOG_DROP + math.lgamma(modulus + 1.0)) / modulus)
    xs = [5e-324, 1e-320, 1e-300, 1e-20, 1e-3, 0.5, math.nextafter(1.0, 0.0), 1.0]
    xs += [math.nextafter(x_b, 0.0), x_b, math.nextafter(x_b, math.inf)]
    for x in xs:
        assert _class_series(x, modulus) == whole_window_class_series(x, modulus), x


class _CountingLogFactorials:
    """A log-factorial table that records the index of every read."""

    def __init__(self, table):
        self.table, self.reads = table, []

    def __getitem__(self, t):
        self.reads.append(t)
        return self.table[t]


def _log_factorial_reads(monkeypatch, x, modulus):
    tables = []
    shared = catcode._log_factorials

    def counting(n):
        tables.append(_CountingLogFactorials(shared(n)))
        return tables[-1]

    monkeypatch.setattr(catcode, "_log_factorials", counting)
    _class_series(x, modulus)
    (table,) = tables
    return table.reads


def test_class_series_below_one_reads_no_climb_and_no_tail(monkeypatch):
    # A one-term table: the check at M, then each residue's first member
    # (the climb and the guard read 64 entries here, the window's last
    # member of every residue among them).
    assert _log_factorial_reads(monkeypatch, 1e-3, 16) == [16, *range(16)]
    # (0.5, 4): the check at M, then per residue its first member and the
    # upward walk to its first term under the drop; no window-tail member
    # (the climb and the guard read 28, the tail members 90 to 93 among them).
    walks = [t for r in range(4) for t in range(r, r + 17, 4)]
    assert _log_factorial_reads(monkeypatch, 0.5, 4) == [4, *walks]


def test_log_factorial_table_is_lgamma_and_capped():
    _class_series(1e6, 2)
    table = catcode._LOG_FACT
    assert 0 < len(table) <= catcode._LOG_FACT_CAP
    for t, g in enumerate(table):
        assert g == math.lgamma(t + 1.0), t
    # fockspace's vector is the same list, grown read-only up to the
    # dimension of the hard limit and never past it
    lgammas = np.array(table[:3000])
    for dim in (0, 1, 41, 40, 2049, 2050, 3000, 7):
        got = fockspace._log_factorials(dim)
        assert not got.flags.writeable
        assert got.tobytes() == lgammas[:dim].tobytes(), dim
    assert fockspace._LOG_FACT.size == fockspace._HARD_LIMIT + 1


def test_log_factorial_table_grows_consistently_under_threads():
    # Threads grow the shared table at once; a doubled extension would
    # shift every later entry off its lgamma value.
    def grow(first):
        for n in range(first, 2000, 2):
            catcode._log_factorials(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(10):
            catcode._LOG_FACT.clear()
            threads = [threading.Thread(target=grow, args=(k,)) for k in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            table = catcode._LOG_FACT
            assert table == [math.lgamma(t + 1.0) for t in range(2000)]
    finally:
        sys.setswitchinterval(interval)


def test_importing_the_cli_leaves_the_log_factorial_table_empty():
    code = "import catrep.cli, catrep.catcode as c; print(len(c._LOG_FACT))"
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


@pytest.mark.parametrize("modulus", range(2, 17))
def test_class_series_matches_whole_window_across_the_table_cap(modulus):
    # Windows that end below the table's cap, walks that straddle it (peak
    # at the cap), and walks that lie wholly past it, where log t! comes
    # from lgamma itself.
    cap = catcode._LOG_FACT_CAP
    for x in (14_000.0, 14_000.5, float(cap), cap - 0.5, cap + 300.5, 20_000.0):
        assert _class_series(x, modulus) == whole_window_class_series(x, modulus), x
    assert len(catcode._LOG_FACT) == cap


def test_class_series_evaluates_only_the_terms_near_the_peak(monkeypatch):
    # The whole window at x = 1e6 is about 1,012,000 terms; the walk needs
    # the ~8.6 sqrt(x) members each side of the peak that stay within 16
    # decades of it, about 17,000 for two residues.
    calls = 0
    lgamma = math.lgamma

    def counting(v):
        nonlocal calls
        calls += 1
        return lgamma(v)

    monkeypatch.setattr(catcode.math, "lgamma", counting)
    _class_series(1e6, 2)
    assert 0 < calls < 50_000


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
def test_class_series_refuses_non_positive_x(x):
    # its callers answer x = 0 (an underflowed α²η) before they reach it
    with pytest.raises(ValueError, match="class series needs x > 0"):
        _class_series(x, 2)


# A numpy scalar, a 0-d array or an int, each with the double it stands for
_NOT_DOUBLES = [(np.float32(1.7), 0.99), (np.array(1.5), 0.99), (2, 0.99), (1.5, np.float32(0.99))]


@pytest.mark.parametrize(
    "alpha,eta", _NOT_DOUBLES, ids=["f32_alpha", "0d_alpha", "int_alpha", "f32_eta"]
)
def test_a_spec_holds_the_doubles_of_its_numbers(alpha, eta):
    spec, double = CatCodeSpec(1, alpha, eta), CatCodeSpec(1, float(alpha), float(eta))
    assert type(spec.alpha) is float and type(spec.eta) is float
    assert spec == double and hash(spec) == hash(double) and repr(spec) == repr(double)
    got, want = loss_weights(spec), loss_weights(double)
    assert np.array(got.values).tobytes() == np.array(want.values).tobytes()


@pytest.mark.parametrize("m", range(1, 7))
def test_lossless_weights_come_from_the_class_series(m):
    # At eta = 1 no photon is lost, and the one path gives class 0 all the weight.
    want = LossWeights([1.0] + [0.0] * (2 ** (m + 1) - 1), m)
    for alpha in cli.DEFAULT_CONFIG["code"]["alpha"]:
        got = loss_weights(CatCodeSpec(m, alpha, 1.0))
        assert np.array(got.values).tobytes() == np.array(want.values).tobytes()
        assert got == want


@pytest.mark.parametrize("eta", [0.999, 1.0])
def test_a_code_order_past_the_series_bound_is_refused_at_every_eta(eta):
    with pytest.raises(ArithmeticError, match=f"eta={eta}.*code order too large"):
        loss_weights(CatCodeSpec(19, 1.0, eta))
