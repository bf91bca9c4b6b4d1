"""catrep benchmark: end-to-end metrics per workload, or per-layer metrics.

Run from the root of a catrep checkout; catrep is imported from ``src/``.

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                     # every workload, one table

Workloads are defined in ``workloads.py``.  Each runs in this process,
through ``catrep.cli.main(argv)`` or catrep's public functions, from one
closed-loop client with no worker threads.  BLAS and OpenMP are pinned to
one thread before numpy loads.

``--trace 0`` prints the end-to-end metrics.  Times are scaled to a
reference host speed by the probe in ``speed.py``; the raw host slowdown
of every block is printed above the result.

- ``setup_s``: median over fresh interpreters of the time to import
  catrep, load the config and build the CLI parser.
- ``items_per_s``: median over blocks of completed items / time spent in
  catrep.  Items are sweep rows, queries, or validation grid points.
- ``item_p50_ms``: median per-call latency divided by the items the call
  returns.
- ``item_p99_ms``: the same at the highest percentile up to p99 that has
  ten samples beyond it.  Point-queries runs make at least 1,200 calls of
  one item, of which 1,194 complete, so this is their p99; sweep and
  validate runs make a handful of calls, so there it falls back to the
  median.
- ``peak_rss_mb``: peak resident memory of this process.

Failed items are not a metric, because the ratio is 0 on two workloads;
they are the ``failed`` count of the result, with causes listed above it.
They count neither in ``items_per_s`` nor in the latencies: a call that
fails any of its items gives no latency sample, though its time still
counts as busy time.

``--trace 1`` alternates untraced and traced passes over the same blocks
and prints per-layer calls and self time per block (median over traced
passes), the derived ratios, and ``trace.overhead_ratio``.  Spans go to
``.bench_out/`` in the checkout.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  An item fails when its call
raises or its output fails a check.  ``correct`` is false when an output
failed its check or a call raised anything other than the recorded
``exact_average`` overflow (see ``workloads.KNOWN_OVERFLOW``).  A run in
which no call completes exits with code 1 and prints no result.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from speed import SpeedProbe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 10

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import catrep.cli
catrep.cli.load_config(None)
catrep.cli.build_parser()
print(time.perf_counter() - t0)
"""


def measure_setup() -> float:
    """Median set-up time over fresh interpreters, after one warm-up.

    The timer probe would compete with the child for the other core, so
    each child is followed instead by as much probe time as it took.
    """
    probe = SpeedProbe()
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds = float(done.stdout.strip().splitlines()[-1])
        first = len(probe.runs)
        t0 = perf_counter()
        while perf_counter() - t0 < seconds:
            probe.sample()
        if i:
            samples.append(seconds / probe.slowdown(first))
    return statistics.median(samples)


class Tally:
    """Items attempted and failed, failure causes, latencies, block rates.

    ``wrong`` counts items whose output failed its check, ``unexpected``
    items whose call raised anything but the call's known failure.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.unexpected = 0
        self.causes = collections.Counter()
        self.latencies = []  # seconds per item, one sample per completed call
        self.block_rates = []  # completed items per second of busy time
        self.slowdowns = []

    def run_block(self, block, probe=None, tracer=None) -> float:
        """Run and check every call of a block; return its busy time.

        With a probe, kernel time inside a call is taken off the call; the
        block's rate is scaled by its mean slowdown, and each call's
        latency by the slowdown of the kernel runs in or nearest to it.
        Only items that pass count as done, and only calls with no failed
        item give a latency.
        """
        first = len(probe.runs) if probe else 0
        latencies = []
        busy = 0.0
        done = 0
        for i, call in enumerate(block):
            if tracer is not None:
                tracer.request = i
            mark = len(probe.runs) if probe else 0
            t0 = perf_counter()
            try:
                out = call.run()
            except Exception as exc:  # a failed item; the run goes on
                t1 = perf_counter()
                bad = call.items
                known = call.known_failure(exc)
                if not known:
                    self.unexpected += bad
                label = "known defect" if known else "unexpected"
                self.causes[f"{call.kind} ({label}): {type(exc).__name__}: {exc}"[:160]] += bad
            else:
                t1 = perf_counter()
                try:
                    bad = call.check(out)
                except Exception:  # an output of the wrong shape or type
                    bad = call.items
                if bad:
                    self.wrong += bad
                    self.causes[f"{call.kind}: output failed its check"] += bad
            kernel = probe.inside(mark, t0, t1) if probe else []
            dt = t1 - t0 - sum(kernel)
            busy += dt
            self.attempted += call.items
            self.failed += bad
            done += call.items - bad
            if not bad:
                latencies.append((dt / call.items, t0, t1))
        slowdown = 1.0
        if probe:
            if len(probe.runs) == first:
                probe.sample()
            slowdown = probe.slowdown(first)
        self.slowdowns.append(slowdown)
        self.latencies += [
            x / probe.slowdown_near(first, t0, t1) if probe else x
            for x, t0, t1 in latencies
        ]
        self.block_rates.append(done / busy * slowdown)
        return busy


def tail_quantile(samples) -> float:
    """The highest percentile up to p99 with ten samples beyond it, or p50.

    Sweep and validate runs make a handful of calls, so there this is
    their median; point-queries runs complete 1,194 or more, so it is p99.
    """
    q = min(0.99, max(0.5, 1.0 - 10.0 / len(samples)))
    return quantile(samples, q)


def quantile(samples, q: float) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=1000, method="inclusive")[round(q * 1000) - 1]


def run_untraced(blocks, seconds: float, min_blocks: int) -> tuple:
    tally = Tally()
    probe = SpeedProbe()
    start = perf_counter()
    with probe.interleaved():
        while len(tally.block_rates) < min_blocks or perf_counter() - start < seconds:
            tally.run_block(next(blocks), probe)
    if not tally.latencies:
        return tally, None
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "items_per_s": statistics.median(tally.block_rates),
        "item_p50_ms": 1e3 * quantile(tally.latencies, 0.5),
        "item_p99_ms": 1e3 * tail_quantile(tally.latencies),
        "peak_rss_mb": peak_mb,
    }
    return tally, metrics


def run_traced(blocks, seconds: float, label: str) -> tuple:
    """Untraced and traced passes over the same blocks, without the probe.

    The probe would run inside traced spans, so times here are as
    measured; the overhead ratio compares adjacent passes, which run in
    alternating order so that neither always runs first.
    """
    from tracer import Tracer, layer_table, write_spans

    tracer = Tracer()
    tally = Tally()
    tables, ratios, passes = [], [], []
    start = perf_counter()
    while not tables or perf_counter() - start < seconds:
        block = next(blocks)
        if len(tables) % 2:
            with tracer.installed():
                traced_s = tally.run_block(block, tracer=tracer)
            plain_s = tally.run_block(block)
        else:
            plain_s = tally.run_block(block)
            with tracer.installed():
                traced_s = tally.run_block(block, tracer=tracer)
        spans = tracer.take()
        passes.append(spans)
        tables.append(layer_table(spans, traced_s))
        ratios.append(traced_s / plain_s)
    write_spans(OUT_DIR / f"spans-{label}.csv", passes)
    metrics = {k: statistics.median(t[k] for t in tables) for k in tables[0]}
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    return tally, metrics


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".self_s"):
        return "s"
    if name.endswith((".calls", ".rows")):
        return "count"
    return "ratio"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """Run one workload; return its result, or None if no call completed."""
    from workloads import WORKLOADS, load_golden

    make_blocks, min_blocks, warm = WORKLOADS[name]
    print(f"# workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}, "
          f"BLAS threads {BLAS_THREADS}, nproc {os.cpu_count()}")
    setup_s = None if trace else measure_setup()
    blocks = make_blocks(seed, load_golden())
    if warm:
        warm_blocks = make_blocks(seed, load_golden())
        for call in next(warm_blocks)[:20]:
            try:
                call.run()
            except Exception:  # counted when the same call runs for real
                pass
    if trace:
        tally, metrics = run_traced(blocks, seconds, f"{name}-seed{seed}")
    else:
        tally, metrics = run_untraced(blocks, seconds, min_blocks)
    for cause, count in sorted(tally.causes.items()):
        print(f"# failed {count}: {cause}")
    print(f"# attempted {tally.attempted}, failed {tally.failed} "
          f"(failed_ratio {tally.failed / tally.attempted:.6g}), "
          f"completed calls {len(tally.latencies)}, blocks {len(tally.block_rates)}, "
          f"host slowdown per block {' '.join(f'{x:.3f}' for x in tally.slowdowns)}")
    if not tally.latencies:
        return None
    if not trace:
        metrics["setup_s"] = setup_s
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {unit_of(key)}")
    return {
        "correct": tally.wrong == 0 and tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, then one table of all metrics."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"\n{'metric':<48} {'unit':<6}" + "".join(f" {n:>16}" for n in results))
    for key, first in next(iter(results.values()))["metrics"].items():
        print(f"{key:<48} {first['unit']:<6}" + "".join(
            f" {r['metrics'][key]['value']:>16.6g}" for r in results.values()))
    print(f"{'failed/attempted':<55}" + "".join(
        f" {str(r['failed']) + '/' + str(r['attempted']):>16}" for r in results.values()))
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; default: all, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "catrep" / "__init__.py").is_file():
        print(f"error: no catrep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import catrep

    if Path(catrep.__file__).resolve().parent != SRC / "catrep":
        print(f"error: catrep imported from {catrep.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload is None:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choices: {', '.join(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        print(f"error: no call of {args.workload} completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
