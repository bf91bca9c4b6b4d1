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
run metadata (timestamp, argv, version) goes to a separate
``<out>.meta.json`` sidecar, never into the data file.

Exit codes: 0 success, 1 usage/configuration error, 2 validation
tolerance breach, 3 numerical guard tripped (truncation/overflow).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import sys

import numpy as np

from . import __version__
from .catcode import CatCodeSpec, loss_weights
from .cavity import CavityParams, sweep_reflection
from .chain import (
    ATTENUATION_LENGTH_KM,
    ChainParams,
    ChainReport,
    SegmentParams,
    check_chain_geometry,
    evaluate_chain,
)
from .fockspace import TruncationError
from .protocol_oracle import bell_order_equivalence, simulate_unit, syndrome_deviation
from .usd import usd_sweep

__all__ = ["main", "load_config", "DEFAULT_CONFIG"]


class UsageError(Exception):
    """Bad flags, bad config, bad grid: the caller's fault, exit 1."""


DEFAULT_CONFIG = {
    "chain": {
        "l_tot": 1000.0,
        "l_att": ATTENUATION_LENGTH_KM,
        "t0": 1e-6,
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
        "g": 3.0,
        "kappa": 1.0,
        "gamma": 1.2,
        "kappa_r": 0.9,
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

_TOLERANCES = {
    "f0": 1e-6,
    "loss_weights": 1e-8,
    "syndrome": 1e-12,
    "bell_order": 1e-8,
}

# a sweep row is its grid point's SegmentParams fields, then its ChainReport
_POINT_KEYS = ("m", "alpha", "l0", "eta_local")
_SWEEP_COLUMNS = _POINT_KEYS + tuple(f.name for f in dataclasses.fields(ChainReport))

# argparse dest -> (flag, config section, key, cast of each comma-separated
# value); flags whose cast is None arrive parsed by argparse
_OVERRIDES = {
    "alpha": ("--alpha", "code", "alpha", float),
    "m": ("--m", "code", "m", int),
    "l0": ("--l0", "chain", "l0", float),
    "eta_local": ("--eta-local", "code", "eta_local", float),
    "usd_alphas": ("--alpha", "usd", "alphas", float),
    "l_tot": ("--l-tot", "chain", "l_tot", None),
    "l_att": ("--l-att", "chain", "l_att", None),
    "t0": ("--t0", "chain", "t0", None),
    "format": ("--format", "output", "format", None),
}


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
        else:
            out[key] = value
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


def _parse_list(text: str, cast, flag: str):
    try:
        return [cast(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad value for {flag}: {text!r}") from exc


def _apply_overrides(cfg: dict, args) -> dict:
    cfg = json.loads(json.dumps(cfg))  # deep copy, keeps plain types
    for dest, (flag, section, key, cast) in _OVERRIDES.items():
        value = getattr(args, dest, None)
        if value is not None:
            cfg[section][key] = value if cast is None else _parse_list(value, cast, flag)
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
        lines += [",".join(_fmt(row[c]) for c in columns) for row in rows]
        return "\n".join(lines) + "\n"
    if fmt == "jsonl":
        return "".join(
            json.dumps({c: row[c] for c in columns}) + "\n" for row in rows
        )
    raise UsageError(f"unknown output format: {fmt!r}")


def _emit(text: str, out: str | None, argv) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", newline="\n") as fh:
        fh.write(text)
    meta = {
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "argv": list(argv),
        "version": __version__,
    }
    with open(f"{out}.meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def _point_params(point, chain_cfg: dict):
    """Segment and chain parameters of one grid point, validated."""
    m, alpha, l0, eta_local = point
    segment = SegmentParams(
        l0=l0,
        m=m,
        alpha=alpha,
        eta_local=eta_local,
        l_att=chain_cfg["l_att"],
    )
    ratio = chain_cfg["l_tot"] / l0
    # a non-finite l_tot is named by ChainParams, not by round()
    n_e = max(1, round(ratio)) if math.isfinite(ratio) else 1
    chain = ChainParams(l_tot=chain_cfg["l_tot"], n_e=n_e, t0=chain_cfg["t0"])
    check_chain_geometry(segment, chain)
    return segment, chain


def _grid_points(cfg: dict) -> list:
    """Validated (segment, chain) pairs, lexicographic in m, alpha, l0, eta_local."""
    code = cfg["code"]
    chain = cfg["chain"]
    grids = {
        "code.m": code["m"],
        "code.alpha": code["alpha"],
        "chain.l0": chain["l0"],
        "code.eta_local": code["eta_local"],
    }
    for name, grid in grids.items():
        if not grid:
            raise UsageError(f"empty grid: {name}")
    points = sorted(
        (int(m), float(alpha), float(l0), float(eta_local))
        for m in code["m"]
        for alpha in code["alpha"]
        for l0 in chain["l0"]
        for eta_local in code["eta_local"]
    )
    return [_point_params(p, chain) for p in points]


def _sweep_row(segment: SegmentParams, chain: ChainParams, cfg: dict) -> dict:
    report = evaluate_chain(
        segment,
        chain,
        usd_mode=cfg["usd"]["mode"],
        usd_q=cfg["usd"]["q"],
        key_mode=cfg["key"]["mode"],
    )
    point = {key: getattr(segment, key) for key in _POINT_KEYS}
    return {**point, **vars(report)}


def cmd_sweep(cfg: dict, args) -> tuple:
    rows = [_sweep_row(seg, chain, cfg) for seg, chain in _grid_points(cfg)]
    return rows, _SWEEP_COLUMNS


def cmd_keyrate(cfg: dict, args) -> tuple:
    for name, grid in (
        ("--m", cfg["code"]["m"]),
        ("--alpha", cfg["code"]["alpha"]),
        ("--l0", cfg["chain"]["l0"]),
        ("--eta-local", cfg["code"]["eta_local"]),
    ):
        if len(grid) != 1:
            raise UsageError(
                f"keyrate needs exactly one value for {name} "
                f"(got {len(grid)}; narrow the grid with the flag)"
            )
    return cmd_sweep(cfg, args)


def cmd_cavity(cfg: dict, args) -> tuple:
    cav = cfg["cavity"]
    params = CavityParams(
        g=cav["g"], kappa=cav["kappa"], gamma=cav["gamma"], kappa_r=cav["kappa_r"]
    )
    if cav["points"] < 1:
        raise UsageError("cavity.points must be positive")
    deltas = np.linspace(cav["delta_min"], cav["delta_max"], cav["points"])
    rows = [
        {
            "delta": float(d),
            "phase_ideal": float(pi_),
            "phase_full": float(pf),
            "modulus_full": float(mf),
        }
        for d, pi_, pf, mf in sweep_reflection(deltas, params)
    ]
    return rows, ("delta", "phase_ideal", "phase_full", "modulus_full")


def cmd_usd(cfg: dict, args) -> tuple:
    usd_cfg = cfg["usd"]
    if not usd_cfg["alphas"]:
        raise UsageError("empty grid: usd.alphas")
    rows = [
        {"alpha": a, "p_optimal": p_opt, "p_linear_optics": p_lin}
        for a, p_opt, p_lin in usd_sweep(
            [float(a) for a in usd_cfg["alphas"]],
            q=usd_cfg["q"],
            probe_style=usd_cfg["probe_style"],
        )
    ]
    return rows, ("alpha", "p_optimal", "p_linear_optics")


def _parse_tol_overrides(items) -> dict:
    tols = dict(_TOLERANCES)
    for item in items or ():
        if "=" not in item:
            raise UsageError(f"--tol expects CHECK=VALUE, got {item!r}")
        name, _, raw = item.partition("=")
        if name not in tols:
            raise UsageError(
                f"unknown check {name!r}; choices: {sorted(tols)}"
            )
        try:
            tols[name] = float(raw)
        except ValueError as exc:
            raise UsageError(f"bad tolerance value {raw!r}") from exc
    return tols


def cmd_validate(cfg: dict, args) -> tuple:
    grid_cfg = cfg["validate"]
    ms = [int(m) for m in grid_cfg["m"]]
    alphas = [float(a) for a in grid_cfg["alpha"]]
    etas = [float(e) for e in grid_cfg["eta"]]
    if not (ms and alphas and etas):
        raise UsageError("empty validation grid")
    if any(m > 3 for m in ms):
        raise UsageError("validation grid is bounded at m <= 3")
    tols = _parse_tol_overrides(args.tol)

    deviations = {name: 0.0 for name in _TOLERANCES}
    for m in ms:
        for alpha in alphas:
            for eta in etas:
                spec = CatCodeSpec(m=m, alpha=alpha, eta=eta)
                report = simulate_unit(spec)
                weights = loss_weights(spec)
                deviations["f0"] = max(
                    deviations["f0"],
                    abs(report.f0_oracle - weights.correctable_mass()),
                )
                deviations["loss_weights"] = max(
                    deviations["loss_weights"],
                    float(np.max(np.abs(report.weights - weights.p))),
                )
                deviations["syndrome"] = max(
                    deviations["syndrome"], syndrome_deviation(m, alpha, eta)
                )
                if m == 1:
                    deviations["bell_order"] = max(
                        deviations["bell_order"],
                        bell_order_equivalence(m, alpha, eta),
                    )

    rows = [
        {
            "check": name,
            "max_deviation": deviations[name],
            "tolerance": tols[name],
            "status": "pass" if deviations[name] <= tols[name] else "FAIL",
        }
        for name in sorted(_TOLERANCES)
    ]
    return rows, ("check", "max_deviation", "tolerance", "status")


def _add_common(parser: argparse.ArgumentParser, overrides: bool = True):
    parser.add_argument("--config", help="YAML config overlaying the defaults")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument(
        "--format", choices=("csv", "jsonl"), help="output format (default csv)"
    )
    if overrides:
        parser.add_argument("--alpha", help="comma-separated amplitudes")
        parser.add_argument("--m", help="comma-separated code orders")
        parser.add_argument("--l0", help="comma-separated elementary distances, km")
        parser.add_argument(
            "--eta-local", dest="eta_local", help="comma-separated local transmissions"
        )
        parser.add_argument("--l-tot", dest="l_tot", type=float, help="total distance, km")
        parser.add_argument("--l-att", dest="l_att", type=float, help="attenuation length, km")
        parser.add_argument("--t0", type=float, help="repetition time, s")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse defaults to exit code 2; usage problems are exit 1 here.
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="catrep",
        description="Cat-code repeater analytics: sweeps, validation, figure data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="grid sweep of repeater-line metrics")
    _add_common(p)
    p.set_defaults(run=cmd_sweep)

    p = sub.add_parser("keyrate", help="one fully resolved configuration point")
    _add_common(p)
    p.set_defaults(run=cmd_keyrate)

    p = sub.add_parser("cavity", help="reflection phase/modulus over detuning")
    _add_common(p, overrides=False)
    p.set_defaults(run=cmd_cavity)

    p = sub.add_parser("usd", help="optimal vs beam-splitter discrimination")
    _add_common(p, overrides=False)
    p.add_argument(
        "--alpha", dest="usd_alphas", metavar="ALPHA", help="comma-separated amplitudes for the sweep"
    )
    p.set_defaults(run=cmd_usd)

    p = sub.add_parser("validate", help="oracle-vs-analytic cross checks")
    _add_common(p, overrides=False)
    p.set_defaults(run=cmd_validate)
    p.add_argument(
        "--tol",
        action="append",
        metavar="CHECK=VALUE",
        help="override a check tolerance (repeatable)",
    )
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        rows, columns = args.run(cfg, args)
        _emit(_render(rows, columns, cfg["output"]["format"]), args.out, argv)
    except (TruncationError, ArithmeticError, OverflowError) as exc:
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
