"""The three workloads: inputs made from a seed, calls into catrep, checks.

Each workload yields blocks of calls.  A call runs catrep once, in this
process, and is timed on its own; its output is checked afterwards,
outside the timed region.  A block is the unit of repetition: every block
of a workload does the same kind and amount of work, so per-block rates
are comparable across blocks, runs and seeds.

Why these workloads (one per way catrep is used):

- ``sweep-grid``: the paper's rate table (``catrep sweep`` on its default
  180-point grid).  The analytic class series dominates, both
  discrimination regimes run, and the Fock oracle is idle.
- ``point-queries``: a seeded closed-loop stream of single calls through
  the public functions.  It measures per-call overhead and the latency
  tail, and is the only workload that runs the ``exact_average`` chain
  path, the linear-optics circuit and the cavity model.
- ``oracle-validate``: ``catrep validate`` on its default grid.  The Fock
  oracle does nearly all the work and the analytic engine almost none.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Module objects, not functions: every call looks the function up at call
# time, so the tracer's rebinding takes effect.
from catrep import catcode, cavity, chain, cli, usd

GOLDEN = Path(__file__).resolve().parent / "data" / "sweep_golden.csv"

# Float cells match when |got - want| <= ATOL * scale + RTOL * |want|.
# RTOL passes last-digit drift even after it is raised to the power
# n_e = 100,000 in p_tot; any wrong formula moves O(1) cells far more.
ATOL = 1e-12
RTOL = 1e-6
T0 = 1e-6  # catrep's default source period, s
# rate_per_second is rate_per_use / t0; plob is ~1e-20, so only RTOL applies.
_SCALE = {
    "f0": 1.0,
    "p0": 1.0,
    "f_tot": 1.0,
    "p_tot": 1.0,
    "rate_per_use": 1.0,
    "rate_per_second": 1.0 / T0,
    "plob": 0.0,
}
_KEY_COLUMNS = ("m", "alpha", "l0", "eta_local")
_KEY_MODE_COLUMNS = ("rate_per_second", "rate_per_use", "beats_plob")

L_TOT = 1000.0
L0S = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
ALPHAS = tuple(0.25 * k for k in range(1, 21))
ETA_LOCALS = (1.0, 0.999, 0.99)
USD_MODES = ("per_q", "weighted_average", "worst_case")
# chain's default cap on syndrome combinations for exact_average.
COMBO_LIMIT = 20000
VALIDATE_POINTS = 8  # default grid: m in {1,2} x alpha in {1,2} x eta in {0.9,0.99}


def _exact_geometries(m: int) -> tuple:
    return tuple(
        l0
        for l0 in L0S
        if math.comb(round(L_TOT / l0) + 2**m - 1, 2**m - 1) <= COMBO_LIMIT
    )


EXACT_L0 = {m: _exact_geometries(m) for m in (1, 2, 3)}


def _no_known_failure(exc: Exception) -> bool:
    return False


@dataclass(frozen=True)
class Call:
    """One call into catrep: ``run`` is timed, ``check`` counts bad items.

    ``known_failure`` says whether an exception the call raised is a
    recorded defect of catrep; any other exception makes the run incorrect.
    """

    kind: str
    items: int
    run: Callable[[], object]
    check: Callable[[object], int]
    known_failure: Callable[[Exception], bool] = _no_known_failure


def close(got: float, want: float, scale: float = 1.0) -> bool:
    return math.isfinite(got) and abs(got - want) <= ATOL * scale + RTOL * abs(want)


def load_golden(path: Path = GOLDEN) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def row_matches(got: dict, want: dict, columns=None) -> bool:
    """Compare one result row with a golden row, floats within tolerance."""
    try:
        if any(float(got[c]) != float(want[c]) for c in _KEY_COLUMNS):
            return False
        for column, scale in _SCALE.items():
            if (columns is None or column in columns) and not close(
                float(got[column]), float(want[column]), scale
            ):
                return False
        if columns is None or "beats_plob" in columns:
            return str(got["beats_plob"]).lower() == want["beats_plob"]
    except (KeyError, ValueError):
        return False
    return True


def _cli(argv: list):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# sweep-grid


def sweep_blocks(seed: int, golden: list):
    """Every block is one default ``catrep sweep``; the seed is not used."""
    del seed  # the default grid is fixed

    def check(out) -> int:
        code, text = out
        rows = list(csv.DictReader(io.StringIO(text)))
        if code != 0 or len(rows) != len(golden):
            return len(golden)
        return sum(not row_matches(g, w) for g, w in zip(rows, golden))

    call = Call("sweep", len(golden), lambda: _cli(["sweep"]), check)
    while True:
        yield [call]


# ---------------------------------------------------------------------------
# oracle-validate

_VALIDATE_CHECKS = {"bell_order", "f0", "loss_weights", "syndrome"}


def validate_blocks(seed: int, golden: list):
    """Every block is one default ``catrep validate``; the seed is not used."""
    del seed, golden

    def check(out) -> int:
        code, text = out
        rows = list(csv.DictReader(io.StringIO(text)))
        names = {row.get("check") for row in rows}
        ok = (
            code == 0
            and _VALIDATE_CHECKS <= names
            and all(row.get("status") == "pass" for row in rows)
        )
        return 0 if ok else VALIDATE_POINTS

    call = Call("validate", VALIDATE_POINTS, lambda: _cli(["validate"]), check)
    while True:
        yield [call]


# ---------------------------------------------------------------------------
# point-queries

# The recorded exact_average defect: at m=1, l0=0.1 km (n_e=10,000) the
# multinomial coefficients of chain.chain_distribution overflow a float.
KNOWN_OVERFLOW = (1, 0.1)


def _chain_distribution_overflow(exc: Exception) -> bool:
    frames = traceback.extract_tb(exc.__traceback__)
    return isinstance(exc, OverflowError) and any(
        f.name == "chain_distribution" for f in frames
    )


def _probability(x) -> bool:
    return math.isfinite(x) and 0.0 <= x <= 1.0


def _deck(rng: random.Random, values: tuple, n: int) -> list:
    """``n`` values drawn as shuffled full passes over ``values``.

    Each value comes up equally often, give or take one.  A query's cost
    depends on its parameters, so this keeps the cost profile of blocks,
    and with it their median latency, closer across seeds than
    independent draws would.
    """
    drawn = []
    while len(drawn) < n:
        drawn += rng.sample(values, len(values))
    return drawn[:n]


def _chain_query(rng, golden_index, m, l0, alpha, eta_local, usd_mode, key_mode) -> Call:
    usd_q = rng.randrange(2**m)
    n_e = round(L_TOT / l0)

    def run():
        segment = chain.SegmentParams(l0=l0, m=m, alpha=alpha, eta_local=eta_local)
        line = chain.ChainParams(l_tot=L_TOT, n_e=n_e, t0=T0)
        return chain.evaluate_chain(
            segment, line, usd_mode=usd_mode, usd_q=usd_q, key_mode=key_mode
        )

    def check(r) -> int:
        probs = (r.f0, r.p0, r.f_tot, r.p_tot, r.rate_per_use)
        ok = (
            all(_probability(x) for x in probs)
            and math.isfinite(r.rate_per_second)
            and math.isfinite(r.plob)
            and close(r.f_tot, 0.5 + 0.5 * (2.0 * r.f0 - 1.0) ** n_e)
            and r.rate_per_use <= r.p_tot
        )
        want = golden_index.get((m, alpha, l0, eta_local))
        if ok and want is not None and usd_mode == "weighted_average":
            got = {
                "m": m, "alpha": alpha, "l0": l0, "eta_local": eta_local,
                "f0": r.f0, "p0": r.p0, "f_tot": r.f_tot, "p_tot": r.p_tot,
                "rate_per_second": r.rate_per_second,
                "rate_per_use": r.rate_per_use,
                "plob": r.plob, "beats_plob": r.beats_plob,
            }
            columns = None if key_mode == "lower_bound" else (
                set(_SCALE) - set(_KEY_MODE_COLUMNS)
            )
            ok = row_matches(got, want, columns)
        return 0 if ok else 1

    known = (
        _chain_distribution_overflow
        if key_mode == "exact_average" and (m, l0) == KNOWN_OVERFLOW
        else _no_known_failure
    )
    return Call(f"chain.{key_mode}", 1, run, check, known)


def _usd_query(alpha: float, eta: float, q: int) -> Call:
    # Transmissions near 1, as in ``catrep usd`` and the tests.  Below
    # eta*alpha^2 ~ 1e-3 the circuit's Gaussian sums cancel (q = 1 raises,
    # or returns rounding noise above the optimum); baseline.json records
    # that defect, which this workload does not exercise.

    def run():
        spec = catcode.CatCodeSpec(m=1, alpha=alpha, eta=eta)
        return (
            usd.optimal_usd_probability(spec, q=q, mode="per_q"),
            usd.linear_optics_usd_probability(alpha, eta, q),
        )

    def check(out) -> int:
        p_opt, p_lin = out
        ok = _probability(p_opt) and _probability(p_lin) and p_lin <= p_opt + 1e-12
        if ok and q == 0:
            # closed form of the q = 0 circuit, x the surviving mean photon number
            x = eta * alpha**2
            closed = 1.0 - 1.0 / math.cosh(0.5 * x) + (1.0 - math.cos(0.5 * x)) / math.cosh(x)
            ok = abs(p_lin - closed) < 1e-9
        return 0 if ok else 1

    return Call("usd", 1, run, check)


def _cavity_query(rng) -> Call:
    delta = rng.uniform(-10.0, 10.0)

    def check(r) -> int:
        ok = math.isfinite(r.real) and math.isfinite(r.imag) and abs(r) <= 1.0 + 1e-12
        return 0 if ok else 1

    return Call("cavity", 1, lambda: cavity.full_reflection(delta), check)


def query_block(rng: random.Random, golden_index: dict) -> list:
    """400 queries in a fixed mix, parameters and order drawn from ``rng``.

    Per block: 288 lower_bound chain queries (32 per m and usd_mode), 30
    exact_average ones (10 per m, spread evenly over the geometries the
    combination limit admits), 60 discrimination points and 22 cavity
    points.  A fixed mix keeps per-block rates comparable; the rare slow
    exact_average geometries would otherwise come in random numbers.
    Within each group, l0, alpha and eta are dealt from ``_deck``.
    """
    calls = []
    for m in (1, 2, 3):
        for usd_mode in USD_MODES:
            group = zip(_deck(rng, L0S, 32), _deck(rng, ALPHAS, 32), _deck(rng, ETA_LOCALS, 32))
            calls += [
                _chain_query(rng, golden_index, m, l0, alpha, eta, usd_mode, "lower_bound")
                for l0, alpha, eta in group
            ]
        admitted = EXACT_L0[m]
        group = zip(_deck(rng, ALPHAS, 10), _deck(rng, ETA_LOCALS, 10))
        calls += [
            _chain_query(
                rng, golden_index, m, admitted[i % len(admitted)], alpha, eta,
                rng.choice(USD_MODES), "exact_average",
            )
            for i, (alpha, eta) in enumerate(group)
        ]
    group = zip(_deck(rng, ALPHAS, 60), _deck(rng, ETA_LOCALS, 60))
    calls += [_usd_query(alpha, eta, q=i % 2) for i, (alpha, eta) in enumerate(group)]
    calls += [_cavity_query(rng) for _ in range(22)]
    rng.shuffle(calls)
    return calls


def query_blocks(seed: int, golden: list):
    golden_index = {
        (int(w["m"]), float(w["alpha"]), float(w["l0"]), float(w["eta_local"])): w
        for w in golden
    }
    rng = random.Random(seed)
    while True:
        yield query_block(rng, golden_index)


# name -> (block generator, least blocks per run, warm up before timing).
# point-queries needs 1,200 queries (1,194 complete) so that ten lie
# beyond its p99.  One validate call takes seconds, so its first-call
# set-up is not worth a warm-up call, and a run takes the median of two
# calls, as one call's rate moves with the host's speed.
WORKLOADS = {
    "sweep-grid": (sweep_blocks, 1, True),
    "point-queries": (query_blocks, 3, True),
    "oracle-validate": (validate_blocks, 2, False),
}
