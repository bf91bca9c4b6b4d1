"""Command-line surface: sweeps, validation runs, figure data.

Subcommands
-----------
sweep     repeater-line metrics over a (m, alpha, l0, eta_local) grid
validate  oracle-versus-analytic cross checks with per-check tolerances
cavity    reflection phase/modulus over a detuning grid
usd       optimal versus beam-splitter discrimination over amplitudes
keyrate   one fully resolved configuration point

Configuration comes from built-in defaults, optionally overlaid by a
YAML file (--config) and then by per-parameter flags.  Data outputs are
deterministic: identical configuration yields byte-identical files, and
run metadata (timestamp, argv, version, Python, numpy and mpmath versions)
goes to a separate ``<out>.meta.json`` sidecar, never into the data file.

Exit codes: 0 success, 1 usage/configuration error, 2 validation
tolerance breach, 3 numerical guard tripped (truncation, overflow, a
discrimination problem the oracle cannot resolve in floating point).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import operator
import sys

from . import __version__
from .cavity import DEFAULT_PARAMS, CavityParams, sweep_reflection
from .chain import (
    ATTENUATION_LENGTH_KM,
    ChainParams,
    ChainReport,
    SegmentParams,
    check_chain_geometry,
    evaluate_chain,
)

__all__ = ["main", "load_config", "DEFAULT_CONFIG"]


class UsageError(Exception):
    """Bad flags, bad config, bad grid: the caller's fault, exit 1."""


DEFAULT_CONFIG = {
    "chain": {
        "l_tot": 1000.0,
        "l_att": ATTENUATION_LENGTH_KM,
        "t0": ChainParams.t0,
        "l0": [0.01, 0.1, 1.0, 10.0, 100.0, 1000.0],
    },
    "code": {
        "m": [1, 2, 3],
        "alpha": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0],
        "eta_local": [1.0],
    },
    "usd": {
        "mode": "weighted_average",
        "q": 0,
        "probe_style": "cat",
        "alphas": [round(0.1 * k, 10) for k in range(1, 31)],
    },
    "key": {
        "mode": "lower_bound",
    },
    "cavity": {
        **vars(DEFAULT_PARAMS),
        "delta_min": -10.0,
        "delta_max": 10.0,
        "points": 201,
    },
    "validate": {
        "m": [1, 2],
        "alpha": [1.0, 2.0],
        "eta": [0.9, 0.99],
    },
    "output": {
        "format": "csv",
    },
}

# argparse dest -> (flag, config section, key, cast, help); _cast takes the
# flag's text, or each comma-separated value of a flag over a config list
_FLAGS = {
    "format": ("--format", "output", "format", str, "output format, csv or jsonl (default csv)"),
    "alpha": ("--alpha", "code", "alpha", float, "comma-separated amplitudes"),
    "m": ("--m", "code", "m", int, "comma-separated code orders"),
    "l0": ("--l0", "chain", "l0", float, "comma-separated elementary distances, km"),
    "eta_local": ("--eta-local", "code", "eta_local", float, "comma-separated local transmissions"),
    "l_tot": ("--l-tot", "chain", "l_tot", float, "total distance, km"),
    "l_att": ("--l-att", "chain", "l_att", float, "attenuation length, km"),
    "t0": ("--t0", "chain", "t0", float, "repetition time, s"),
    "usd_alphas": ("--alpha", "usd", "alphas", float, "comma-separated amplitudes for the sweep"),
}
_GRID_FLAGS = ("alpha", "m", "l0", "eta_local", "l_tot", "l_att", "t0")

# a sweep row is its grid point's SegmentParams fields, then its ChainReport;
# each point field is also the dest of the flag that sets its grid
_POINT_KEYS = ("m", "alpha", "l0", "eta_local")
_SWEEP_COLUMNS = _POINT_KEYS + ChainReport._fields
_point_of = operator.attrgetter(*_POINT_KEYS)


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise UsageError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise UsageError(f"config section {where} must be a mapping")
            out[key] = _merge(base[key], value, where)
        elif isinstance(base[key], list):  # each value is cast where its grid is read
            out[key] = value
        else:
            out[key] = _cast(value, type(base[key]), where)
    return out


def load_config(path: str | None) -> dict:
    """Defaults overlaid with the YAML file at ``path`` (if any)."""
    if path is None:
        return _merge(DEFAULT_CONFIG, {})
    import yaml  # only a config file needs it; keeps it off the import path

    try:
        with open(path) as fh:
            loaded = yaml.safe_load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise UsageError(f"cannot parse config: {exc}") from exc
    if loaded is None:
        loaded = {}
    if not isinstance(loaded, dict):
        raise UsageError("config root must be a mapping")
    return _merge(DEFAULT_CONFIG, loaded)


def _cast(value, cast, where: str):
    """One value through ``cast``, or a refusal naming ``where``.

    Text, as a flag gives it, is parsed.  A config number must come through
    unchanged, so YAML ``m: [1.5]`` fails like ``--m 1.5``; a boolean is no
    number.  NaN passes, for the parameter checks to name it.
    """
    try:
        out = cast(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    changed = not isinstance(value, str) and out != value and out == out
    if out is None or changed or isinstance(value, bool):
        raise UsageError(f"bad value for {where}: {value!r}")
    return out


def _grid(cfg: dict, section: str, key: str, cast) -> list:
    """The config list ``section.key``, each value through _cast."""
    values, where = cfg[section][key], f"{section}.{key}"
    if not isinstance(values, list):
        raise UsageError(f"{where} must be a list, got {values!r}")
    if not values:
        raise UsageError(f"empty grid: {where}")
    return [_cast(value, cast, where) for value in values]


def _apply_overrides(cfg: dict, args) -> dict:
    cfg = {section: dict(values) for section, values in cfg.items()}  # no list changes in place
    for dest, (flag, section, key, cast, _) in _FLAGS.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        if isinstance(DEFAULT_CONFIG[section][key], list):
            value = [_cast(part, cast, flag) for part in value.split(",") if part.strip()]
        else:
            value = _cast(value, cast, flag)
        cfg[section][key] = value
    if cfg["output"]["format"] not in ("csv", "jsonl"):
        raise UsageError(f"unknown output format: {cfg['output']['format']!r}")
    return cfg


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _render(rows, columns, fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:  # a float's text inline, as _fmt gives it
            cells = map(row.__getitem__, columns)
            lines.append(",".join([f"{v:.17g}" if type(v) is float else _fmt(v) for v in cells]))
        return "\n".join(lines) + "\n"
    import json
    return "".join(json.dumps({c: _json_cell(row[c]) for c in columns}) + "\n" for row in rows)


def _json_cell(value):
    """A cell as JSON holds it: JSON has no NaN or infinity, so a non-finite float is null."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _dist_version(name: str) -> str | None:
    """The ``Version:`` line of ``<name>-*.dist-info/METADATA`` beside the
    package ``name``, which is found but not imported."""
    import importlib.util
    import os
    spec = importlib.util.find_spec(name)
    if spec is None or spec.origin is None:
        return None
    site = os.path.dirname(os.path.dirname(spec.origin))
    for entry in sorted(os.listdir(site)):
        if entry.startswith(f"{name}-") and entry.endswith(".dist-info"):
            with contextlib.suppress(OSError), open(os.path.join(site, entry, "METADATA")) as fh:
                for line in fh:
                    if line.startswith("Version:"):
                        return line.removeprefix("Version:").strip()
    return None


def _emit(text: str, out: str | None, argv) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    import datetime  # only --out needs these
    import json
    import platform
    meta = {
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "argv": list(argv),
        "version": __version__,
        "python": platform.python_version(),
    }
    for package in ("numpy", "mpmath"):  # left out where none is found
        if version := _dist_version(package):
            meta[package] = version
    try:
        for path, body in ((out, text), (f"{out}.meta.json", json.dumps(meta, indent=2) + "\n")):
            with open(path, "w", newline="\n") as fh:
                fh.write(body)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _point_params(point, chain_cfg: dict):
    """Segment and chain parameters of one grid point, validated."""
    m, alpha, l0, eta_local = point  # in _POINT_KEYS order
    segment = SegmentParams(l0, m, alpha, eta_local, chain_cfg["l_att"])
    ratio = chain_cfg["l_tot"] / l0
    # a non-finite l_tot is named by ChainParams, not by round()
    n_e = max(1, round(ratio)) if math.isfinite(ratio) else 1
    chain = ChainParams(chain_cfg["l_tot"], n_e, chain_cfg["t0"])
    check_chain_geometry(segment, chain)
    return segment, chain


def _grid_points(cfg: dict, one_value: bool = False) -> list:
    """Validated (segment, chain) pairs, lexicographic in m, alpha, l0, eta_local.

    With ``one_value``, as keyrate needs, each axis holds exactly one value.
    """
    grids = []
    for dest in _POINT_KEYS:
        flag, section, key, cast, _ = _FLAGS[dest]
        grid = _grid(cfg, section, key, cast)
        if one_value and len(grid) != 1:
            raise UsageError(
                f"keyrate needs exactly one value for {flag} "
                f"(got {len(grid)}; narrow the grid with the flag)"
            )
        grids.append(grid)
    return [_point_params(p, cfg["chain"]) for p in sorted(itertools.product(*grids))]


def cmd_sweep(cfg: dict, args, one_value: bool = False) -> tuple:
    points = _grid_points(cfg, one_value)
    rows = []
    for segment, chain in points:
        report = evaluate_chain(
            segment, chain, cfg["usd"]["mode"], cfg["usd"]["q"], cfg["key"]["mode"]
        )
        row = dict(zip(_POINT_KEYS, _point_of(segment)))
        row.update(vars(report))
        rows.append(row)
    return rows, _SWEEP_COLUMNS


def cmd_keyrate(cfg: dict, args) -> tuple:
    return cmd_sweep(cfg, args, one_value=True)


def cmd_cavity(cfg: dict, args) -> tuple:
    cav = cfg["cavity"]
    params = CavityParams(**{name: cav[name] for name in CavityParams._fields})
    if cav["points"] < 1:
        raise UsageError("cavity.points must be positive")
    # np.linspace's grid, in floats: (i/div)·span where the step underflows to 0
    n, start, stop = cav["points"], cav["delta_min"], cav["delta_max"]
    span = stop - start
    div = max(n - 1, 1)
    step = span / div
    deltas = [(i / div * span if step == 0.0 else i * step) + start for i in range(n)]
    if n > 1:
        deltas[-1] = stop
    if not all(map(math.isfinite, deltas)):  # a non-finite end, or a span that overflows
        raise UsageError(f"cavity.delta_min={start!r}, cavity.delta_max={stop!r}: no finite grid")
    columns = ("delta", "phase_ideal", "phase_full", "modulus_full")
    return [dict(zip(columns, row)) for row in sweep_reflection(deltas, params)], columns


def cmd_usd(cfg: dict, args) -> tuple:
    from .usd import usd_sweep  # loaded on the first usd command, not with the CLI
    usd_cfg = cfg["usd"]
    alphas = _grid(cfg, "usd", "alphas", float)
    rows = usd_sweep(alphas, q=usd_cfg["q"], probe_style=usd_cfg["probe_style"])
    columns = ("alpha", "p_optimal", "p_linear_optics")
    return [dict(zip(columns, row)) for row in rows], columns


def _parse_tol_overrides(items, tolerances: dict) -> dict:
    tols = dict(tolerances)
    for item in items or ():
        if "=" not in item:
            raise UsageError(f"--tol expects CHECK=VALUE, got {item!r}")
        name, _, raw = item.partition("=")
        if name not in tols:
            raise UsageError(f"unknown check {name!r}; choices: {sorted(tols)}")
        tols[name] = _cast(raw, float, f"--tol {name}")
        if not tols[name] >= 0.0:  # also NaN, which no deviation would pass
            raise UsageError(f"tolerance for {name} must be >= 0, got {raw!r}")
    return tols


def cmd_validate(cfg: dict, args) -> tuple:
    from . import crosscheck  # the checks and their tolerances, loaded on the first validate

    grids = (("m", int), ("alpha", float), ("eta", float))
    axes = [_grid(cfg, "validate", key, cast) for key, cast in grids]
    if any(m > crosscheck.MAX_ORDER for m in axes[0]):
        raise UsageError(f"validation grid is bounded at m <= {crosscheck.MAX_ORDER}")
    tols = _parse_tol_overrides(args.tol, crosscheck.TOLERANCES)
    worst = {}  # each check that ran, with its largest deviation; a NaN, once met, stays
    for point in itertools.product(*axes):
        for name, dev in crosscheck.deviations(*point).items():
            kept = worst.get(name, 0.0)
            worst[name] = dev if math.isnan(dev) or dev > kept else kept
    columns = ("check", "max_deviation", "tolerance", "status")
    rows = [
        (name, dev, tols[name], "pass" if dev <= tols[name] else "FAIL")
        for name, dev in sorted(worst.items())
    ]
    return [dict(zip(columns, row)) for row in rows], columns


def _add_flags(parser: argparse.ArgumentParser, dests) -> None:
    parser.add_argument("--config", help="YAML config overlaying the defaults")
    parser.add_argument("--out", help="output path (default: stdout)")
    for dest in ("format", *dests):  # each value is cast in _apply_overrides
        flag, *_, help_ = _FLAGS[dest]
        metavar = flag[2:].replace("-", "_").upper()
        parser.add_argument(flag, dest=dest, metavar=metavar, help=help_)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse defaults to exit code 2; usage problems are exit 1 here.
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# subcommand -> (help, handler, flags besides --config, --out and --format)
_COMMANDS = {
    "sweep": ("grid sweep of repeater-line metrics", cmd_sweep, _GRID_FLAGS),
    "keyrate": ("one fully resolved configuration point", cmd_keyrate, _GRID_FLAGS),
    "cavity": ("reflection phase/modulus over detuning", cmd_cavity, ()),
    "usd": ("optimal vs beam-splitter discrimination", cmd_usd, ("usd_alphas",)),
    "validate": ("oracle-vs-analytic cross checks", cmd_validate, ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="catrep",
        description="Cat-code repeater analytics: sweeps, validation, figure data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, run, dests) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=run)
        _add_flags(p, dests)
    sub.choices["validate"].add_argument(
        "--tol",
        action="append",
        metavar="CHECK=VALUE",
        help="override a check tolerance (repeatable)",
    )
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # One parser per process: parsing leaves it as it was, so every main
    # call reuses the first one's.
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        rows, columns = args.run(cfg, args)
        _emit(_render(rows, columns, cfg["output"]["format"]), args.out, argv)
    except ArithmeticError as exc:  # TruncationError and OverflowError among them
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = [row["check"] for row in rows if row.get("status") == "FAIL"]
    if failures:
        print("validation failed: " + ", ".join(failures), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
