"""Command-line behavior: formats, determinism, exit codes, golden data."""

import ast
import contextlib
import csv
import importlib.metadata
import importlib.util
import io
import json
import math
import os
import pathlib
import platform
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catrep import catcode, cli, fockspace, protocol_oracle
from catrep.chain import ChainParams, ChainReport, SegmentParams, evaluate_chain
from catrep.cli import DEFAULT_CONFIG, load_config, main
from catrep.usd import linear_optics_closed_form, linear_optics_usd_probability

DATA_DIR = pathlib.Path(__file__).parent / "data"
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def read_jsonl(text):
    """Each line as strict JSON: a bare NaN or Infinity token is refused."""
    return [json.loads(line, parse_constant=refuse_constant) for line in text.splitlines()]


def test_keyrate_repeaterless_row(capsys):
    code, out, _ = run_cli(
        capsys, "keyrate", "--alpha", "2", "--m", "1", "--l0", "1000"
    )
    assert code == 0
    (row,) = read_rows(out)
    assert float(row["f_tot"]) == float(row["f0"])
    assert row["beats_plob"] == "false"


def test_keyrate_requires_single_values(capsys):
    code, _, err = run_cli(capsys, "keyrate", "--alpha", "2")
    assert code == 1
    assert "exactly one value" in err


def test_keyrate_exact_average_is_byte_deterministic(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("key:\n  mode: exact_average\n")
    argv = ("keyrate", "--config", str(cfg), "--m", "3", "--alpha", "2", "--l0", "100")
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first[0] == 0
    assert first[1].encode() == second[1].encode()
    # (m, l0) = (2, 1): 1000 links and 4 remainders are over the limit
    code, out, err = run_cli(
        capsys, "keyrate", "--config", str(cfg), "--m", "2", "--alpha", "2", "--l0", "1"
    )
    assert (code, out) == (1, "")
    want = f"{math.comb(1003, 3)} syndrome combinations exceed the limit 20000"
    assert err == f"error: {want}\n"
    # (m, l0) = (12, 1000): one link, 4,096 rows of 4,096 counts, over the table bound
    code, out, err = run_cli(
        capsys, "keyrate", "--config", str(cfg), "--m", "12", "--alpha", "2", "--l0", "1000"
    )
    assert (code, out, err) == (1, "", "error: 16777216 table counts exceed the bound 2097152\n")


def test_csv_rows_read_as_the_per_cell_fmt_join():
    # The one-pass row text (a float's inline) is what _fmt gives per cell,
    # for every value type a row can hold.
    columns = ("flag", "count", "np64", "neg_zero", "subnormal", "big", "inf", "nan", "plain")
    rows = [
        (True, 3, np.float64(0.1), -0.0, 5e-324, 1e308, math.inf, math.nan, 1.5),
        (False, -7, np.float64(-2.5e-300), 0.0, -5e-324, -1e308, -math.inf, -math.nan, 1 / 3),
    ]
    want = [",".join(columns)] + [",".join(map(cli._fmt, row)) for row in rows]
    assert cli._render(rows, columns, "csv") == "\n".join(want) + "\n"
    assert want[1] == "true,3,0.10000000000000001,-0,4.9406564584124654e-324,1e+308,inf,nan,1.5"


def test_sweep_golden_snapshot(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == (DATA_DIR / "sweep_golden.csv").read_bytes()


def test_validate_golden_snapshot(tmp_path, capsys):
    out = tmp_path / "validate.csv"
    code, _, _ = run_cli(capsys, "validate", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == (DATA_DIR / "validate_golden.csv").read_bytes()


def test_usd_golden_snapshot(tmp_path, capsys):
    # the default usd output at q = 0, followed by the same at q = 1
    cfg = tmp_path / "q1.yaml"
    cfg.write_text("usd:\n  q: 1\n")
    outs = [tmp_path / "q0.csv", tmp_path / "q1.csv"]
    assert run_cli(capsys, "usd", "--out", str(outs[0]))[0] == 0
    assert run_cli(capsys, "usd", "--config", str(cfg), "--out", str(outs[1]))[0] == 0
    got = b"".join(out.read_bytes() for out in outs)
    assert got == (DATA_DIR / "usd_golden.csv").read_bytes()


def test_cavity_golden_snapshot(tmp_path, capsys):
    # the default cavity output: pins the rates DEFAULT_CONFIG reads from
    # cavity.DEFAULT_PARAMS and the detuning grid
    out = tmp_path / "cavity.csv"
    assert run_cli(capsys, "cavity", "--out", str(out))[0] == 0
    assert out.read_bytes() == (DATA_DIR / "cavity_golden.csv").read_bytes()


def test_golden_columns_in_range():
    with open(DATA_DIR / "sweep_golden.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        for col in ("f0", "p0", "f_tot", "p_tot"):
            assert 0.0 <= float(row[col]) <= 1.0
        for col in ("rate_per_second", "rate_per_use", "plob"):
            assert float(row[col]) >= 0.0
        assert row["beats_plob"] in ("true", "false")


def test_sweep_deterministic_and_sidecar(tmp_path, monkeypatch, capsys):
    args = ("sweep", "--m", "1", "--alpha", "1,2", "--l0", "100,1000")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    try:
        mpmath = {"mpmath": importlib.metadata.version("mpmath")}
    except importlib.metadata.PackageNotFoundError:
        mpmath = {}
    assert set(meta) == {"generated_at", "argv", "version", "python", "numpy", *mpmath}
    assert meta["python"] == platform.python_version()
    # read from the dist-info beside each package: the versions the
    # installed distributions report
    assert meta["numpy"] == np.__version__ == importlib.metadata.version("numpy")
    assert meta.get("mpmath") == mpmath.get("mpmath")
    # No timestamp leaks into the data file.
    assert meta["generated_at"] not in a.read_text()

    # Without an installed mpmath the key is left out; the data file is unchanged.
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(
        importlib.util, "find_spec", lambda name: None if name == "mpmath" else find_spec(name)
    )
    c = tmp_path / "c.csv"
    assert run_cli(capsys, *args, "--out", str(c))[0] == 0
    assert "mpmath" not in json.loads((tmp_path / "c.csv.meta.json").read_text())
    assert c.read_bytes() == a.read_bytes()


def test_sweep_rows_in_grid_order(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--m", "1,2", "--alpha", "2,1", "--l0", "1000,100"
    )
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 8
    keys = [
        (int(r["m"]), float(r["alpha"]), float(r["l0"])) for r in rows
    ]
    assert keys == sorted(keys)


def _count_tables(monkeypatch):
    seen = {"computed": 0}
    kernel = catcode._class_series

    def counting(x, modulus):
        seen["computed"] += 1
        return kernel(x, modulus)

    monkeypatch.setattr(catcode, "_class_series", counting)
    return seen


def test_default_sweep_computes_two_tables_a_point(monkeypatch, capsys):
    # 180 points, each with x mod 2M and y mod 2M
    seen = _count_tables(monkeypatch)
    code, first, _ = run_cli(capsys, "sweep")
    assert (code, seen["computed"]) == (0, 360)
    code, second, _ = run_cli(capsys, "sweep")  # nothing is kept between sweeps
    assert (code, seen["computed"], second) == (0, 720, first)


def test_sweep_prints_the_bytes_of_evaluate_chain_per_row(monkeypatch, capsys):
    argv = ["--m", "1,2,3,4,5", "--alpha", "3,1.5", "--l0", "100,1,10", "--eta-local", "1,0.99"]
    seen = _count_tables(monkeypatch)
    code, out, _ = run_cli(capsys, "sweep", *argv)
    assert (code, seen["computed"]) == (0, 60 * 2)
    keys = sorted(
        (m, a, l0, e) for m in range(1, 6) for a in (3.0, 1.5)
        for l0 in (100.0, 1.0, 10.0) for e in (1.0, 0.99)
    )
    rows = []
    for m, a, l0, e in keys:
        segment = SegmentParams(l0=l0, m=m, alpha=a, eta_local=e)
        report = evaluate_chain(segment, ChainParams(l_tot=1000.0, n_e=round(1000.0 / l0)))
        rows.append((m, a, l0, e, *(getattr(report, name) for name in ChainReport._fields)))
    assert out == cli._render(rows, cli._SWEEP_COLUMNS, "csv")


def test_sweep_stops_at_the_first_failing_row(tmp_path, capsys):
    # In row order m = 1 at alpha = 3000 comes first, and its class series is
    # past the window bound; m = 2 at alpha = 1 (176,851 syndrome
    # combinations) fails only after it.
    cfg = tmp_path / "exact.yaml"
    cfg.write_text("key:\n  mode: exact_average\n")
    argv = ("sweep", "--config", str(cfg), "--m", "1,2", "--l0", "10", "--eta-local", "1")
    code, out, err = run_cli(capsys, *argv, "--alpha", "1,3000")
    assert (code, out) == (3, "")
    assert err == (
        "numerical guard: alpha=3000.0 (eta=0.6347364189402819): survivor count eta*alpha^2: "
        "class series window (x=5.713e+06, modulus 4, stop index 5741387) "
        "exceeds the bound 4000000; amplitude too large\n"
    )
    code, out, err = run_cli(capsys, *argv, "--alpha", "1")
    want = "error: 176851 syndrome combinations exceed the limit 20000\n"
    assert (code, out, err) == (1, "", want)


def test_keyrate_correctable_mass_stays_at_most_one(capsys):
    # at m = 4 the normalized weights' correctable half fsums to
    # 1.0000000000000002, which chain_fidelity refused as bad input
    code, out, err = run_cli(capsys, "keyrate", "--m", "4", "--alpha", "10.25", "--l0", "0.1")
    assert (code, err) == (0, "")
    (row,) = read_rows(out)
    assert float(row["f0"]) <= 1.0


@pytest.mark.parametrize(
    "flag,value,field",
    [
        ("--t0", "nan", "t0"),
        ("--t0", "inf", "t0"),
        ("--l-att", "inf", "l_att"),
        ("--l-att", "nan", "l_att"),
        ("--l-tot", "nan", "l_tot"),
        ("--l-tot", "inf", "l_tot"),
        ("--alpha", "inf", "alpha"),
        ("--alpha", "nan", "alpha"),
        ("--l0", "nan", "l0"),
        ("--l0", "inf", "l0"),
        ("--eta-local", "nan", "eta_local"),
    ],
)
def test_keyrate_rejects_non_finite_input(capsys, flag, value, field):
    argv = {"--m": "2", "--alpha": "2", "--l0": "0.1"}
    argv[flag] = value
    code, out, err = run_cli(
        capsys, "keyrate", *[x for pair in argv.items() for x in pair]
    )
    assert code == 1
    assert field in err
    assert out == ""


def test_keyrate_series_window_guard(capsys):
    # alpha = 1e5 would need a class series of about 10^10 terms.
    code, out, err = run_cli(
        capsys, "keyrate", "--m", "1", "--alpha", "1e5", "--l0", "1000"
    )
    assert code == 3
    assert err.startswith("numerical guard: alpha=100000.0 (eta=")
    assert "lost count alpha^2*(1-eta): class series window (x=1e+10," in err
    assert "amplitude too large" in err
    assert out == ""
    # m = 18 at x = 4: the window's 12·modulus term alone passes the bound
    code, out, err = run_cli(capsys, "keyrate", "--m", "18", "--alpha", "2", "--l0", "1000")
    assert (code, out) == (3, "")
    assert err.startswith("numerical guard: alpha=2.0 (eta=")
    assert "survivor count eta*alpha^2: class series window" in err and "modulus 524288" in err
    assert "code order too large" in err and "amplitude" not in err


def test_keyrate_infinite_rate_is_a_numerical_guard(capsys):
    # per-use rate about 1 over t0 = 1e-320 s overflows the per-second rate
    code, out, err = run_cli(
        capsys, "keyrate", "--m", "2", "--alpha", "5", "--l0", "0.1", "--t0", "1e-320"
    )
    assert code == 3
    assert "numerical guard" in err and "t0" in err
    assert out == ""


def test_keyrate_overflowing_alpha_is_named(capsys):
    # alpha^2 overflows a float before any series runs
    code, out, err = run_cli(capsys, "keyrate", "--m", "2", "--alpha", "1e200", "--l0", "0.1")
    assert code == 3
    assert "numerical guard" in err and "alpha=1e+200" in err and "eta=" in err
    assert out == ""


def test_usd_dim_q1_circuit_is_resolved(tmp_path, capsys):
    # at alpha = 0.01 the circuit's q = 1 click sums cannot be told from
    # their rounding, and the closed form gives the value (1.04e-9)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("usd:\n  q: 1\n")
    code, out, err = run_cli(capsys, "usd", "--config", str(cfg), "--alpha", "0.01")
    assert (code, err) == (0, "")
    (row,) = read_rows(out)
    want = linear_optics_usd_probability(0.01, q=1)
    assert row["p_linear_optics"] == f"{want:.17g}"
    assert 1.0416e-9 < want < 1.0417e-9 and want < float(row["p_optimal"])


@pytest.mark.parametrize("alpha", ["5e-324", "1e-170"])
def test_keyrate_underflowing_alpha_gives_the_limit(capsys, alpha):
    # eta*alpha^2 underflows to 0: no discrimination success, no key
    code, out, _ = run_cli(capsys, "keyrate", "--m", "2", "--alpha", alpha, "--l0", "0.1")
    assert code == 0
    (row,) = read_rows(out)
    assert float(row["p0"]) == 0.0
    for name, cell in row.items():
        if name != "beats_plob":
            assert math.isfinite(float(cell)), (name, cell)


_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-310, 1e300, 1.7e308]


def _draw_flag(draw, low, high, bound=None):
    """A plausible value in [low, high] half the time, otherwise a special
    value or any finite float of magnitude at most ``bound``."""
    kind = draw(st.integers(0, 3))
    if kind < 2:
        return draw(st.floats(min_value=low, max_value=high))
    if kind == 2:
        limit = bound or math.inf
        return draw(st.sampled_from(_SPECIAL).filter(lambda v: not abs(v) > limit))
    return draw(
        st.floats(
            min_value=-bound if bound else None,
            max_value=bound,
            allow_nan=False,
            allow_infinity=False,
        )
    )


@st.composite
def _keyrate_argv(draw):
    argv = ["keyrate", "--m", str(draw(st.integers(1, 3)))]
    # alpha = 1000 takes about 1.5 s; keep the amplitude in the sweep's range,
    # or so small that eta*alpha^2 nears or passes float underflow
    if draw(st.integers(0, 7)) == 0:
        alpha = draw(st.floats(min_value=5e-324, max_value=1e-150))
    else:
        alpha = _draw_flag(draw, 0.1, 50.0, bound=50.0)
    argv.append(f"--alpha={alpha!r}")
    if draw(st.booleans()):
        l0 = _draw_flag(draw, 1e-3, 1e3)
        n_e = draw(st.integers(1, 10**6))
        argv += [f"--l0={l0!r}", f"--l-tot={l0 * n_e!r}"]
    else:
        argv += ["--l0", "1000"]
    plausible = (("--t0", 1e-12, 1.0), ("--l-att", 1.0, 100.0), ("--eta-local", 0.9, 1.0))
    for flag, low, high in plausible:
        if draw(st.booleans()):
            argv.append(f"{flag}={_draw_flag(draw, low, high)!r}")
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_keyrate_argv())
@example(["keyrate", "--m", "1", "--alpha", "2", "--l0", "1000", "--l-att", "1e300"])
@example(["keyrate", "--m", "1", "--alpha", "2", "--l0", "1e-300", "--l-tot", "1e-300"])
@example(["keyrate", "--m", "2", "--alpha", "5", "--l0", "0.1", "--t0", "1e-320"])
@example(["keyrate", "--m", "2", "--alpha", "1e200", "--l0", "0.1"])
@example(["keyrate", "--m", "2", "--alpha", "5e-324", "--l0", "0.1"])
@example(["keyrate", "--m", "2", "--alpha", "1e-170", "--l0", "0.1"])
def test_keyrate_float_input_is_finite_or_named(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        (row,) = read_rows(out)
        for name, cell in row.items():
            if name != "beats_plob":
                assert math.isfinite(float(cell)), (name, cell)
        return
    assert code in (1, 3), err
    reason = err.strip().splitlines()[-1].partition(": ")[2].strip()
    assert reason and reason not in ("math domain error", "math range error"), err


def test_sweep_rejects_nondividing_l0(capsys):
    code, _, err = run_cli(capsys, "sweep", "--m", "1", "--alpha", "1", "--l0", "3")
    assert code == 1
    assert "3" in err and "1000" in err


def test_sweep_names_an_underflowing_segment_transmission(capsys):
    # exp(-1000/1) rounds to 0: the refusal names the flags behind it, not
    # a transmission eta the caller never set
    code, out, err = run_cli(capsys, "sweep", "--l-att", "1")
    assert (code, out) == (1, "")
    assert "eta_local*exp(-l0/l_att) = 1.0*exp(-1000.0/1.0) underflows to 0" in err
    assert "eta=" not in err


def test_sweep_empty_grid(capsys):
    code, _, err = run_cli(capsys, "sweep", "--alpha", "", "--m", "1")
    assert code == 1
    assert "empty grid" in err


_FORMAT_ARGS = {
    "sweep": ("--m", "1", "--alpha", "1", "--l0", "1000"),
    "keyrate": ("--m", "1", "--alpha", "1", "--l0", "1000"),
    "validate": (),
    "cavity": (),
    "usd": ("--alpha", "0.5,1.0"),
}


@pytest.mark.parametrize("command", list(_FORMAT_ARGS))
def test_jsonl_format(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("validate:\n  m: [1]\n  alpha: [1.0]\n  eta: [0.9]\n")
    argv = (command, "--config", str(cfg), *_FORMAT_ARGS[command])
    code, text, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out, _ = run_cli(capsys, *argv, "--format", "jsonl")
    assert code == 0
    rows = read_jsonl(out)
    want = read_rows(text)
    assert len(rows) == len(want) > 0
    # same columns in the same order, same values as the CSV cells
    for row, cells in zip(rows, want):
        assert list(row) == list(cells)
        for name, value in row.items():
            if isinstance(value, bool):
                assert cells[name] == str(value).lower()
            elif isinstance(value, str):
                assert cells[name] == value
            else:
                assert float(cells[name]) == value
    if command in ("sweep", "keyrate"):
        assert rows[0]["m"] == 1 and rows[0]["alpha"] == 1.0
        assert isinstance(rows[0]["beats_plob"], bool)


@pytest.mark.parametrize("command", list(_FORMAT_ARGS))
def test_default_jsonl_output_is_strict_json(capsys, command):
    # each command on its default configuration (keyrate narrowed to one
    # point, as it must be), every line parsed with NaN and Infinity refused
    args = _FORMAT_ARGS[command] if command == "keyrate" else ()
    code, out, err = run_cli(capsys, command, *args, "--format", "jsonl")
    assert (code, err) == (0, "")
    assert len(read_jsonl(out)) == len(out.splitlines()) > 0


@pytest.mark.parametrize(
    "config,argv,key",
    [
        ("code: {m: [1.5]}", ("sweep",), "code.m"),
        ("code: {m: [true]}", ("sweep",), "code.m"),
        ("code: {alpha: [false]}", ("sweep",), "code.alpha"),
        ("code: {m: [.inf]}", ("keyrate", "--alpha", "2", "--l0", "1000"), "code.m"),
        ("chain: {l0: 0.1}", ("sweep",), "chain.l0"),
        ("validate: {m: [1.7]}", ("validate",), "validate.m"),
        ("usd: {alphas: 0.5}", ("usd",), "usd.alphas"),
        ("{}", ("sweep", "--m", "1.5"), "--m"),
    ],
)
def test_grid_values_go_through_one_cast(tmp_path, capsys, config, argv, key):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(config + "\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize(
    "config,command,key",
    [
        ("chain: {l_tot: abc}", "sweep", "chain.l_tot"),
        ("chain: {t0: [1]}", "sweep", "chain.t0"),
        ("cavity: {g: abc}", "cavity", "cavity.g"),
        ("usd: {q: 1.5}", "usd", "usd.q"),
    ],
)
def test_scalar_config_values_go_through_one_cast(tmp_path, capsys, config, command, key):
    # Each scalar is cast by the type of its default, so a wrong type is a
    # named usage error, not a traceback.
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(config + "\n")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize(
    "config,key",
    [
        ("{g: .nan}", "g="),
        ("{delta_min: .nan}", "cavity.delta_min"),
        ("{points: 2.5}", "cavity.points"),
        # the span overflows: the grid would hold NaN and infinite detunings
        (
            "{delta_min: -1.0e308, delta_max: 1.0e308, points: 3}",
            "cavity.delta_min=-1e+308, cavity.delta_max=1e+308: no finite grid",
        ),
        # np.linspace(-1e308, 1e308, 1) is [nan] too (numpy 2.4.6): no grid either
        (
            "{delta_min: -1.0e308, delta_max: 1.0e308, points: 1}",
            "cavity.delta_min=-1e+308, cavity.delta_max=1e+308: no finite grid",
        ),
        ("{g: 1.0e200}", "g=1e+200: its square overflows a float"),
    ],
)
def test_cavity_rejects_bad_inputs(tmp_path, capsys, config, key):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"cavity: {config}\n")
    code, out, err = run_cli(capsys, "cavity", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and key in err


def test_cavity_overflowing_detuning_is_a_numerical_guard(tmp_path, capsys):
    # a finite detuning whose 2πΔ overflows: no NaN row at exit 0
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("cavity: {delta_min: 1.0e308, delta_max: 1.0e308, points: 1}\n")
    code, out, err = run_cli(capsys, "cavity", "--config", str(cfg))
    assert (code, out) == (3, "")
    assert err == (
        "numerical guard: delta=1e+308: full reflection overflows a float at "
        "CavityParams(g=3.0, kappa=1.0, gamma=1.2, kappa_r=0.9)\n"
    )


@pytest.mark.parametrize("tol", ["f0=nan", "f0=-1"])
def test_validate_bad_tolerance_is_a_usage_error(capsys, tol):
    code, out, err = run_cli(capsys, "validate", "--tol", tol)
    assert (code, out) == (1, "")
    assert err.startswith("error: tolerance for f0 must be >= 0")


@pytest.mark.parametrize(
    "command,key",
    [
        *((command, key) for command in ("sweep", "keyrate")
          for key in ("code.m", "code.alpha", "chain.l0", "code.eta_local")),
        ("usd", "usd.alphas"),
        ("validate", "validate.m"),
        ("validate", "validate.alpha"),
        ("validate", "validate.eta"),
    ],
)
def test_empty_grid_is_refused_by_key(tmp_path, capsys, command, key):
    section, name = key.split(".")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"{section}: {{{name}: []}}\n")
    # keyrate's other axes hold one value each (eta_local's default is one),
    # so the empty axis is the only fault
    one_value = {"code.m": ("--m", "2"), "code.alpha": ("--alpha", "2"), "chain.l0": ("--l0", "1")}
    narrow = [x for k, flag in one_value.items() if command == "keyrate" and k != key for x in flag]
    code, out, err = run_cli(capsys, command, "--config", str(cfg), *narrow)
    assert (code, out, err) == (1, "", f"error: empty grid: {key}\n")


@pytest.mark.parametrize(
    "config,argv,message",
    [
        (None, ("sweep",), "cannot read config: "),
        ("chain: [unclosed", ("sweep",), "cannot parse config: "),
        ("- 1", ("sweep",), "config root must be a mapping"),
        ("chain: 5", ("sweep",), "config section chain must be a mapping"),
        ("{}", ("validate", "--tol", "f0"), "--tol expects CHECK=VALUE, got 'f0'"),
        ("{}", ("validate", "--tol", "f0=abc"), "bad value for --tol f0: 'abc'"),
        ("cavity: {points: 0}", ("cavity",), "cavity.points must be positive"),
        ("usd: {alphas: []}", ("usd",), "empty grid: usd.alphas"),
        ("validate: {m: [4]}", ("validate",), "validation grid is bounded at m <= 3"),
        ("{}", ("validate", "--tol", "f0="), "bad value for --tol f0: ''"),
        ("{}", ("sweep", "--t0", "abc"), "bad value for --t0: 'abc'"),
        # a YAML date reaches the cast, which names it, not a traceback
        (
            "code: {alpha: [2020-01-01]}",
            ("sweep",),
            "bad value for code.alpha: datetime.date(2020, 1, 1)",
        ),
        # the usd mode and q are refused before any table, here before alpha
        # squared overflows (exit 3)
        (
            "usd: {mode: bogus}",
            ("keyrate", "--m", "2", "--alpha", "1e200", "--l0", "0.1"),
            "mode must be one of ('per_q', 'weighted_average', 'worst_case'), got 'bogus'",
        ),
        (
            "usd: {mode: per_q, q: 4}",
            ("keyrate", "--m", "2", "--alpha", "1e200", "--l0", "0.1"),
            "q must satisfy 0 <= q < 4",
        ),
    ],
)
def test_config_and_flag_refusals_are_named(tmp_path, capsys, config, argv, message):
    # an absent file is the unreadable config; a message ending in ": "
    # goes on with the reader's own text
    cfg = tmp_path / "cfg.yaml"
    if config is not None:
        cfg.write_text(config + "\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}")
    assert message.endswith(": ") or err == f"error: {message}\n"


def test_unknown_output_format_is_refused_before_any_work(tmp_path, monkeypatch, capsys):
    def record_setup(spec):
        raise AssertionError("validate ran")

    protocol_oracle._unit.cache_clear()
    monkeypatch.setattr(protocol_oracle, "_record_setup", record_setup)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("output: {format: xml}\n")
    code, out, err = run_cli(capsys, "validate", "--config", str(cfg))
    assert (code, out, err) == (1, "", "error: unknown output format: 'xml'\n")
    # the same refusal for the flag: one check serves both
    code, out, err = run_cli(capsys, "validate", "--format", "xml")
    assert (code, out, err) == (1, "", "error: unknown output format: 'xml'\n")


_COMMON_FLAGS = {"--help", "--config", "--out", "--format"}
_GRID_FLAGS = {"--alpha", "--m", "--l0", "--eta-local", "--l-tot", "--l-att", "--t0"}


@pytest.mark.parametrize(
    "command,flags",
    [
        ("sweep", _GRID_FLAGS),
        ("keyrate", _GRID_FLAGS),
        ("cavity", set()),
        ("usd", {"--alpha"}),
        ("validate", {"--tol"}),
    ],
)
def test_subcommand_flags(capsys, command, flags):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    assert set(re.findall(r"--[a-z0-9-]+", out)) == _COMMON_FLAGS | flags
    if command == "usd":
        assert "--alpha ALPHA" in out


def test_validate_small_grid(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("validate:\n  m: [1]\n  alpha: [1.0]\n  eta: [0.9]\n")
    code, out, _ = run_cli(capsys, "validate", "--config", str(cfg))
    assert code == 0
    rows = read_rows(out)
    assert sorted(r["check"] for r in rows) == [
        "bell_order", "f0", "loss_weights", "syndrome",
    ]
    assert all(r["status"] == "pass" for r in rows)
    code, out, err = run_cli(
        capsys, "validate", "--config", str(cfg), "--tol", "f0=1e-30"
    )
    assert code == 2
    assert "f0" in err


def test_validate_reports_only_the_checks_that_ran(tmp_path, capsys):
    # bell_order runs at m = 1 only: a grid without m = 1 has no bell_order row
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("validate:\n  m: [2]\n  alpha: [1.0]\n  eta: [0.9]\n")
    code, out, _ = run_cli(capsys, "validate", "--config", str(cfg))
    assert code == 0
    assert [r["check"] for r in read_rows(out)] == ["f0", "loss_weights", "syndrome"]


@pytest.mark.parametrize(
    "oracle_check, check, at",
    [
        ("bell_order_equivalence", "bell_order", None),
        ("syndrome_deviation", "syndrome", (1, 1.0, 0.9)),
        ("syndrome_deviation", "syndrome", (2, 2.0, 0.99)),
    ],
    ids=["bell_order_everywhere", "syndrome_first_point", "syndrome_last_point"],
)
def test_validate_fails_a_nan_deviation(monkeypatch, capsys, oracle_check, check, at):
    # a NaN deviation, at every point or at the default grid's first or last,
    # is its check's maximum: the row reads nan and FAIL, and validate exits 2
    real = getattr(protocol_oracle, oracle_check)

    def nan_at(*point):
        return math.nan if at in (None, point) else real(*point)

    monkeypatch.setattr(protocol_oracle, oracle_check, nan_at)
    code, out, err = run_cli(capsys, "validate")
    assert (code, err) == (2, f"validation failed: {check}\n")
    rows = {row["check"]: row for row in read_rows(out)}
    assert (rows[check]["max_deviation"], rows[check]["status"]) == ("nan", "FAIL")
    assert [row["status"] for row in rows.values()].count("FAIL") == 1
    # JSON has no NaN: in JSON lines the deviation is null, and every line is strict JSON
    code, out, err = run_cli(capsys, "validate", "--format", "jsonl")
    assert (code, err) == (2, f"validation failed: {check}\n")
    rows = {row["check"]: row for row in read_jsonl(out)}
    assert (rows[check]["max_deviation"], rows[check]["status"]) == (None, "FAIL")
    assert [row["status"] for row in rows.values()].count("FAIL") == 1


def test_validate_unresolved_discrimination_is_a_numerical_guard(tmp_path, capsys):
    # at m = 3 the dim damped pair of alpha = 0.5 overlaps to within
    # float resolution: a numerical limit, not a usage error, named with
    # its point and class
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("validate:\n  m: [3]\n  alpha: [0.5]\n  eta: [0.5]\n")
    code, out, err = run_cli(capsys, "validate", "--config", str(cfg))
    assert (code, out) == (3, "")
    assert err.startswith("numerical guard: m=3, alpha=0.5, eta=0.5: class-1 codeword pair")
    assert "indistinguishable" in err
    # every class of a vanishing amplitude: the first is named
    cfg.write_text("validate: {m: [2], alpha: [1e-50], eta: [0.9]}\n")
    code, out, err = run_cli(capsys, "validate", "--config", str(cfg))
    assert (code, out) == (3, "")
    assert err == (
        "numerical guard: m=2, alpha=1e-50, eta=0.9: class-0 codeword pair indistinguishable "
        "(|overlap| = 1.0000000000000000); discrimination POVM degenerate\n"
    )


def test_validate_is_byte_deterministic(capsys):
    # the default grid, run twice in one process: first with no coherent
    # state or oracle setup kept, then with what the first run kept
    protocol_oracle._unit.cache_clear()
    fockspace._coherent_state.cache_clear()
    first = run_cli(capsys, "validate")
    assert fockspace._coherent_state.cache_info().currsize == 6
    second = run_cli(capsys, "validate")
    assert first[0] == second[0] == 0
    assert first[1].encode() == second[1].encode()
    assert first[2].encode() == second[2].encode() == b""
    assert first[1].encode() == (DATA_DIR / "validate_golden.csv").read_bytes()


def test_validate_empty_grid(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("validate:\n  m: []\n  alpha: [1.0]\n  eta: [0.9]\n")
    code, _, err = run_cli(capsys, "validate", "--config", str(cfg))
    assert code == 1
    assert err == "error: empty grid: validate.m\n"


def test_validate_unknown_check(capsys):
    code, _, err = run_cli(capsys, "validate", "--tol", "nosuch=1")
    assert code == 1
    assert "nosuch" in err


def test_cavity_resonance(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "cavity:\n  delta_min: -1.0\n  delta_max: 1.0\n  points: 21\n"
    )
    code, out, _ = run_cli(capsys, "cavity", "--config", str(cfg))
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 21
    center = [r for r in rows if float(r["delta"]) == 0.0]
    assert len(center) == 1
    assert float(center[0]["phase_ideal"]) == pytest.approx(math.pi)
    assert all(float(r["modulus_full"]) <= 1 + 1e-12 for r in rows)


def test_usd_subcommand(capsys):
    code, out, _ = run_cli(capsys, "usd", "--alpha", "0.5,1.0")
    assert code == 0
    rows = read_rows(out)
    assert [float(r["alpha"]) for r in rows] == [0.5, 1.0]
    for row in rows:
        assert float(row["p_linear_optics"]) == pytest.approx(
            linear_optics_closed_form(float(row["alpha"])), abs=1e-9
        )
        assert float(row["p_optimal"]) >= float(row["p_linear_optics"])


def test_config_overlay_and_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("chain:\n  l_tot: 500.0\n  l0: [500.0]\n")
    merged = load_config(str(cfg))
    assert merged["chain"]["l_tot"] == 500.0
    assert merged["code"]["m"] == DEFAULT_CONFIG["code"]["m"]
    code, out, _ = run_cli(
        capsys, "sweep", "--config", str(cfg), "--m", "1", "--alpha", "2"
    )
    assert code == 0
    assert len(read_rows(out)) == 1
    bad = tmp_path / "bad.yaml"
    bad.write_text("chian:\n  l_tot: 500.0\n")
    code, _, err = run_cli(capsys, "sweep", "--config", str(bad))
    assert code == 1
    assert "chian" in err


def test_empty_config_file_gives_the_defaults(tmp_path):
    cfg = tmp_path / "empty.yaml"
    cfg.write_text("")
    assert load_config(str(cfg)) == load_config(None) == DEFAULT_CONFIG


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 1
    assert run_cli(capsys, "sweep", "--no-such-flag")[0] == 1


def test_unwritable_out_is_named(tmp_path, capsys):
    # A missing directory for the data file, and a directory where the
    # sidecar should go, each end in exit 1 naming the path.
    args = ("keyrate", "--m", "1", "--alpha", "2", "--l0", "10", "--out")
    missing = tmp_path / "no_such_dir" / "x.csv"
    code, out, err = run_cli(capsys, *args, str(missing))
    assert (code, out) == (1, "")
    assert err == f"error: cannot write {missing}: No such file or directory\n"
    (tmp_path / "y.csv.meta.json").mkdir()
    code, _, err = run_cli(capsys, *args, str(tmp_path / "y.csv"))
    assert code == 1
    assert f"cannot write {tmp_path / 'y.csv.meta.json'}" in err


def test_one_parser_serves_every_main_call(monkeypatch, capsys):
    # A usage error and a --tol override leave the shared parser as it was:
    # the next validate matches a fresh process byte for byte.
    builds = []
    build_parser = cli.build_parser

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    fresh = subprocess.run(
        [sys.executable, "-m", "catrep", "validate"], capture_output=True, env=env
    )
    assert fresh.returncode == 0
    assert run_cli(capsys, "sweep", "--no-such-flag")[0] == 1
    code, out, _ = run_cli(capsys, "validate")
    assert (code, out.encode()) == (0, fresh.stdout)
    assert run_cli(capsys, "validate", "--tol", "f0=1e-30")[0] == 2
    code, out, _ = run_cli(capsys, "validate")
    assert (code, out.encode()) == (0, fresh.stdout)
    assert builds == [1]


@pytest.mark.skipif(
    shutil.which("catrep") is None,
    reason="console script 'catrep' is not on PATH; install the package "
    "with 'pip install -e .' to run this test",
)
def test_console_script_help():
    proc = subprocess.run(
        ["catrep", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "sweep" in proc.stdout and "validate" in proc.stdout


def test_module_entry_point_help():
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    proc = subprocess.run(
        [sys.executable, "-m", "catrep", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "sweep" in proc.stdout and "validate" in proc.stdout


def test_import_path_leaves_out_scipy_and_yaml():
    # A run without --config never loads YAML, no module loads scipy, numpy
    # waits for the first function that builds an array, and neither the
    # dataclasses machinery (with inspect) nor json is on the import path.
    code = (
        "import sys, catrep.cli as c; c.load_config(None); c.build_parser(); "
        "print(sorted(m for m in ('scipy', 'yaml', 'numpy', 'dataclasses', 'inspect', 'json') "
        "if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_LOADED = (
    "print(sorted(m for m in ('numpy', 'catrep.fockspace', 'catrep.protocol_oracle', "
    "'catrep.crosscheck', 'catrep.usd', 'dataclasses', 'inspect', 'json', "
    "'importlib.metadata') "
    "if m in sys.modules))\n"
)


def test_analytic_commands_run_without_numpy_or_the_oracle(tmp_path):
    # sweep, keyrate in lower_bound mode (one point, and a refused default
    # grid) and cavity run on Python floats and load neither usd, the
    # dataclasses machinery nor json; sweep --out loads json alone, for its
    # sidecar, and reads the library versions without importlib.metadata;
    # usd loads with the first usd command alone, its circuit column a
    # closed form in floats; a validate refused for its --tol loads the
    # cross checks' table alone; validate then loads the oracle, and numpy
    # with it (which may bring inspect), on first use.
    code = (
        "import contextlib, io, sys\n"
        "from catrep.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [main(['sweep']), main(['keyrate', '--m', '2', '--alpha', '2', "
        "'--l0', '0.1']), main(['keyrate']), main(['cavity'])]\n"
        "print(codes)\n" + _LOADED
        + "print(main(['sweep', '--out', sys.argv[1]]))\n" + _LOADED
        + "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    print(main(['usd']), file=sys.stderr)\n" + _LOADED
        + "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    print(main(['validate', '--tol', 'nosuch=1']))\n" + _LOADED
        + "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    print(main(['validate']), file=sys.stderr)\n" + _LOADED
    )
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    out = tmp_path / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(out)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "0\n0\n"
    *lines, after_usd, refused, after_refused, after_validate = proc.stdout.splitlines()
    assert lines == ["[0, 0, 1, 0]", "[]", "0", "['json']"]
    assert ast.literal_eval(after_usd) == ["catrep.usd", "json"]
    assert refused == "1"
    assert ast.literal_eval(after_refused) == ["catrep.crosscheck", "catrep.usd", "json"]
    oracle = {"catrep.crosscheck", "catrep.fockspace", "catrep.protocol_oracle", "json", "numpy"}
    assert set(ast.literal_eval(after_validate)) - {"inspect"} == oracle | {"catrep.usd"}
    assert out.read_bytes() == (DATA_DIR / "sweep_golden.csv").read_bytes()


def test_pyproject_takes_version_from_package():
    tomllib = pytest.importorskip("tomllib")
    import catrep

    root = pathlib.Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        meta = tomllib.load(fh)
    project = meta["project"]
    assert project["name"] == "catrep"
    assert "version" not in project
    assert project["dynamic"] == ["version"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "catrep.__version__"
    }
    assert isinstance(catrep.__version__, str) and catrep.__version__
