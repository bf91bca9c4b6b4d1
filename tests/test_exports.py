"""The package's public surface: each module's ``__all__``, re-exported."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import catrep
from catrep import catcode

# Every module catrep re-exports: each under src/catrep but the package files,
# the CLI and validate's comparison, so a new module cannot skip these checks.
MODULES = tuple(
    sorted(
        path.stem
        for path in pathlib.Path(catcode.__file__).parent.glob("*.py")
        if path.stem not in {"__init__", "__main__", "cli", "crosscheck"}
    )
)


def test_module_exports_are_disjoint_and_reexported():
    assert {"catcode", "cavity", "chain", "fockspace", "protocol_oracle", "usd"} <= set(MODULES)
    for name in ("main", "load_config", "DEFAULT_CONFIG", "deviations", "TOLERANCES"):
        assert not hasattr(catrep, name), name  # cli and crosscheck stay unexported
    owner = {}
    for name in MODULES:
        module = importlib.import_module(f"catrep.{name}")
        for export in module.__all__:
            # a name in two lists would be shadowed silently by the star imports
            assert export not in owner, (export, owner.get(export), name)
            owner[export] = name
            assert getattr(catrep, export) is getattr(module, export), export
    assert isinstance(catrep.__version__, str) and catrep.__version__


def test_analytic_base_imports_no_fock_substrate():
    # No module of the analytic engine reaches the Fock substrate or the
    # oracle, so the two engines share no numerics, and the dense
    # references the tests compare against (tests/fock_reference.py) are
    # not in the package.
    for module in ("catcode", "usd", "chain", "cavity"):
        source = pathlib.Path(catcode.__file__).with_name(f"{module}.py").read_text()
        imported = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert "math" in imported, module
        for name in imported:
            assert not {"fockspace", "protocol_oracle"} & set(name.split(".")), (module, name)
    for name in ("codeword", "damped_codeword", "error_space_state", "rotation_apply", "kraus_op"):
        assert not hasattr(catrep, name), name
    # The converse: the Fock substrate and the oracle take from the analytic
    # engine only the code's parameters, `_freeze` and the record base
    # `_Record`, so the oracle's residue masks are its own and not the
    # analytic engine's class series.
    for module in ("fockspace", "protocol_oracle"):
        source = pathlib.Path(catcode.__file__).with_name(f"{module}.py").read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                reached = set((node.module or "").split(".")) | names
                assert not {"usd", "chain", "cavity"} & reached, (module, node.module, names)
                if "catcode" in reached:
                    assert (node.module or "").endswith("catcode"), (module, names)
                    assert names <= {"CatCodeSpec", "_Record", "_freeze"}, (module, names)
            elif isinstance(node, ast.Import):
                reached = {part for alias in node.names for part in alias.name.split(".")}
                assert not {"usd", "chain", "cavity", "catcode"} & reached, (module, reached)


def test_fock_engine_loads_on_first_use_and_the_surface_stays_whole():
    # In a fresh interpreter `import catrep` loads neither usd, the Fock
    # engine nor numpy, yet `dir`, the star import and attribute access see
    # every name; an unknown name is refused without loading anything, and
    # each lazy name loads its own module alone (a Fock engine one, numpy too).
    code = textwrap.dedent("""
        import json, sys
        import catrep
        lazy = ("numpy", "catrep.fockspace", "catrep.protocol_oracle", "catrep.usd")
        before = [m for m in lazy if m in sys.modules]
        listed = dir(catrep)
        try:
            catrep.no_such_name
        except AttributeError as exc:
            unknown = str(exc)
        after_unknown = [m for m in lazy if m in sys.modules]
        usd_first = catrep.optimal_usd_probability
        after_usd = [m for m in lazy if m in sys.modules]
        catrep.FockVector
        after_fock = [m for m in lazy if m in sys.modules]
        first = catrep.simulate_unit
        loaded = [m for m in lazy if m in sys.modules]
        star = {}
        exec("from catrep import *", star)
        print(json.dumps({
            "before": before, "after_unknown": after_unknown, "unknown": unknown,
            "missing_from_dir": [n for n in catrep.__all__ if n not in listed],
            "star": sorted(n for n in star if n != "__builtins__"),
            "all": sorted(catrep.__all__),
            "same": first is catrep.protocol_oracle.simulate_unit,
            "usd_same": usd_first is catrep.usd.optimal_usd_probability,
            "after_usd": after_usd,
            "after_fock": after_fock,
            "loaded": loaded,
        }))
    """)
    src = pathlib.Path(catcode.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    exports = {n for name in MODULES for n in importlib.import_module(f"catrep.{name}").__all__}
    want = sorted(exports | set(MODULES))
    assert got["before"] == got["after_unknown"] == []
    assert "no_such_name" in got["unknown"]
    assert got["missing_from_dir"] == []
    assert got["star"] == got["all"] == want
    assert got["same"] is got["usd_same"] is True
    assert got["after_usd"] == ["catrep.usd"]
    assert got["after_fock"] == ["numpy", "catrep.fockspace", "catrep.usd"]
    assert got["loaded"] == ["numpy", "catrep.fockspace", "catrep.protocol_oracle", "catrep.usd"]
