"""The input contract, drawn at random over every command.

A bad input (NaN, inf, a geometry that does not tile, a value out of
range) ends with exit code 1 or 3 and one named reason, and never with a
non-finite cell at exit 0.  Each command draws its argv and config from one
seeded generator over the same value set, so a run is the same every time
and a failure names the argv and config that broke the contract.
"""

import contextlib
import io
import json
import math
import random
import warnings

import pytest
import yaml

from catrep.catcode import _MODES as USD_MODES
from catrep.chain import _KEY_MODES as KEY_MODES
from catrep.cli import main

FLOATS = [
    0.0, -0.0, 5e-324, 1e-300, 1e-30, 1e-16, 1e-8, 0.5, 1.0 - 2**-53, 1.0, 1.0 + 2**-52,
    2.0, 3.0, 10.0, 100.0, 1000.0, 2000.0, 1e8, 1e150, 1e300, 1.7e308, -1.0, -1e-300,
    math.inf, -math.inf, math.nan,
]
# validate's oracle sizes its states by alpha and has no memory bound yet,
# so its draws keep every finite alpha at 3 or less
VALIDATE_ALPHAS = [v for v in FLOATS if not v < math.inf or v <= 3.0]


def _pick(rng, usual, pool=FLOATS):
    """A value of ``usual`` four times in five, else any of ``pool``: most
    draws then reach the computation behind the checks."""
    return rng.choice(usual if rng.random() < 0.8 else pool)


def _values(rng, usual, most: int, pool=FLOATS) -> str:
    """One to ``most`` drawn values, as a comma list flag takes them."""
    return ",".join(repr(_pick(rng, usual, pool)) for _ in range(rng.randint(1, most)))


def _sweep(rng, command):
    most = 1 if command == "keyrate" else 2
    argv = [
        command,
        f"--m={_values(rng, [1, 2, 3], most, range(6))}",
        f"--alpha={_values(rng, [0.5, 1.0, 2.0, 3.0, 10.0], most)}",
        f"--l0={_values(rng, [0.5, 1.0, 10.0, 100.0, 1000.0], most)}",
    ]
    usual = {
        "--eta-local": [1.0, 1.0 - 2**-53, 0.9, 0.5],
        "--l-tot": [1000.0, 100.0],
        "--l-att": [22.0, 100.0, 1e8],
        "--t0": [1e-6, 1.0],
    }
    argv += [f"{flag}={_pick(rng, usual[flag])!r}" for flag in usual if rng.random() < 0.5]
    usd = {"mode": rng.choice(USD_MODES), "q": _pick(rng, [0, 1], range(-1, 5))}
    return argv, {"usd": usd, "key": {"mode": rng.choice(KEY_MODES)}}


def _cavity(rng, command):
    usual = {"g": 3.0, "kappa": 1.0, "gamma": 1.2, "kappa_r": 0.9, "delta_min": -10.0}
    cavity = {name: _pick(rng, [value]) for name, value in usual.items() if rng.random() < 0.5}
    if rng.random() < 0.5:
        cavity["delta_max"] = _pick(rng, [10.0, 1e3])
    cavity["points"] = _pick(rng, [1, 2, 5], [0, -1, 2.5, math.nan])  # never a long grid
    return [command], {"cavity": cavity}


def _usd(rng, command):
    usd = {"q": _pick(rng, [0, 1], [2, -1]), "probe_style": rng.choice(["cat", "coherent"])}
    return [command, f"--alpha={_values(rng, [0.1, 0.5, 1.0, 2.0, 3.0], 3)}"], {"usd": usd}


def _validate(rng, command):
    def grid(usual, pool):
        return [_pick(rng, usual, pool) for _ in range(rng.randint(1, 2))]

    return [command], {
        "validate": {
            "m": grid([1, 2, 3], range(5)),
            "alpha": grid([0.5, 1.0, 2.0, 3.0], VALIDATE_ALPHAS),
            "eta": grid([0.5, 0.9, 0.99, 1.0], FLOATS),
        }
    }


# command -> (its draw, how many draws)
DRAWS = {
    "sweep": (_sweep, 80),
    "keyrate": (_sweep, 80),
    "cavity": (_cavity, 60),
    "usd": (_usd, 60),
    "validate": (_validate, 40),
}


def _cells(text: str, fmt: str) -> list:
    if fmt == "jsonl":
        return [v for line in text.splitlines() for v in json.loads(line).values()]
    return [cell for line in text.splitlines()[1:] for cell in line.split(",")]


def _finite(cell) -> bool:
    if cell is None:  # JSON lines write a non-finite value as null
        return False
    try:
        return math.isfinite(float(cell))
    except ValueError:  # a word: a check's name or status, true or false
        return True


@pytest.mark.parametrize("command", DRAWS)
def test_every_input_ends_in_finite_rows_or_one_named_reason(tmp_path, command):
    draw, count = DRAWS[command]
    rng = random.Random(f"input contract: {command}")
    config_path = tmp_path / "config.yaml"
    for _ in range(count):
        argv, config = draw(rng, command)
        fmt = "jsonl" if rng.random() < 0.3 else "csv"
        argv += [f"--format={fmt}", f"--config={config_path}"]
        config_path.write_text(yaml.safe_dump(config))
        case = f"argv={argv!r} config={config!r}"
        out, err = io.StringIO(), io.StringIO()
        with (
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
            warnings.catch_warnings(record=True) as caught,
        ):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except BaseException as exc:  # the contract: nothing escapes main
                pytest.fail(f"{case}: main raised {exc!r}")
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2, 3), f"{case}: exit {code}"
        if code == 0:
            bad = [cell for cell in _cells(out, fmt) if not _finite(cell)]
            assert not bad, f"{case}: non-finite cells {bad}"
            if command != "validate":
                assert not err and not caught, f"{case}: stderr {err!r}, {caught}"
        elif code in (1, 3):
            reasons = [
                line for line in err.splitlines()
                if line.startswith(("error: ", "numerical guard: "))
            ]
            assert len(reasons) == 1 and "Traceback" not in err, f"{case}: stderr {err!r}"
