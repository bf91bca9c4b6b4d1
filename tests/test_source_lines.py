"""Source-tree rules: one line width, no dead imports or private names, no einsum path,
no dataclasses, no record made past the record base, no numpy in the
class-series kernel, none imported with the analytic modules, no module that
imports usd when it is imported, none but crosscheck that imports the oracle, and
no cache without a finite bound."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "catrep"
MAX_LINE = 100


def _modules() -> dict:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _referenced(tree) -> set:
    """Names a module reads: bare names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_source_line_is_longer_than_the_limit():
    long_lines = [
        f"{path.name}:{number}: {len(line)}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert not long_lines, long_lines


def test_every_module_level_import_is_used():
    unused = []
    for name, tree in _modules().items():
        loads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound != "*" and bound not in loads:
                        unused.append(f"{name}: {bound}")
    assert not unused, unused


def test_every_private_top_level_name_is_referenced():
    modules = _modules()
    referenced = set().union(*map(_referenced, modules.values()))
    dead = []
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [
                f"{name}: {d}"
                for d in defined
                if d.startswith("_") and not d.startswith("__") and d not in referenced
            ]
    assert not dead, dead


def test_no_einsum_is_given_a_path():
    # numpy searches the contraction path on every call even when given one,
    # so a contraction worth a path is written as its matrix products.
    given = [
        f"{name}:{node.lineno}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "einsum"
        and any(kw.arg == "optimize" for kw in node.keywords)
    ]
    assert not given, given


def _dataclasses_imports(tree) -> list:
    """Lines that import the stdlib ``dataclasses`` module, anywhere in a module."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(alias.name == "dataclasses" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]


def test_no_module_imports_dataclasses():
    # Importing dataclasses also loads inspect, ast, dis and tokenize, about
    # 10 ms of every command's start-up; the records build on catcode._Record.
    found = {name: _dataclasses_imports(tree) for name, tree in _modules().items()}
    assert not any(found.values()), found


def test_the_dataclasses_rule_refuses_either_import_form():
    for line in ("from dataclasses import dataclass\n", "import sys, dataclasses\n"):
        source = (SRC / "chain.py").read_text().replace("import math\n", "import math\n" + line, 1)
        assert _dataclasses_imports(ast.parse(source)), line
    nested = "def f():\n    from dataclasses import fields\n    return fields\n"
    assert _dataclasses_imports(ast.parse(nested))


def _object_new_outside_record(name: str, tree) -> list:
    """Lines of a module that name ``object.__new__`` outside ``catcode._Record``."""
    inside = set()
    if name == "catcode.py":
        (record,) = [
            node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Record"
        ]
        inside = set(map(id, ast.walk(record)))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
        and id(node) not in inside
    ]


def test_records_skip_their_checks_only_through_the_record_base():
    # A record of values already checked is made by _Record._from_checked
    # alone, so no module keeps a builder of its own that skips __init__.
    found = {name: _object_new_outside_record(name, tree) for name, tree in _modules().items()}
    assert not any(found.values()), found


def test_the_record_rule_refuses_a_builder_of_its_own():
    source = (SRC / "usd.py").read_text()
    anchor = "\ndef overlap("
    assert anchor in source
    for bypass in (
        "_EMPTY = object.__new__(CoherentSuperposition)\n",
        "def _state(coeffs, amps):\n    return object.__new__(CoherentSuperposition)\n",
    ):
        mutated = source.replace(anchor, "\n" + bypass + anchor, 1)
        assert _object_new_outside_record("usd.py", ast.parse(mutated)), bypass
    # the same call inside another class of catcode is refused too
    catcode = (SRC / "catcode.py").read_text()
    anchor = "    @property\n    def order(self) -> int:\n"
    assert anchor in catcode
    nested = "    def _copy(self):\n        return object.__new__(CatCodeSpec)\n\n"
    mutated = catcode.replace(anchor, nested + anchor, 1)
    assert _object_new_outside_record("catcode.py", ast.parse(mutated))


def _numpy_in_class_series(tree) -> list:
    """Lines of ``catcode._class_series`` that name numpy or import from it."""
    (kernel,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_class_series"
    ]
    return [
        node.lineno
        for node in ast.walk(kernel)
        if isinstance(node, ast.Name) and node.id in ("np", "numpy")
        or isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "numpy" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
    ]


def test_class_series_uses_no_numpy():
    # The sweep golden's bits depend on libm alone: numpy's exp differs from
    # math.exp in the last bit on 4.6% of uniform arguments in [-37, 0]
    # (numpy 2.4.6, AVX-512 x86-64), so the kernel stays on math and math.fsum.
    assert not _numpy_in_class_series(_modules()["catcode.py"])


def test_the_numpy_rule_refuses_a_kernel_that_calls_np_exp():
    source = (SRC / "catcode.py").read_text()
    mutated = source.replace("exp, drop = math.exp, _LOG_DROP", "exp, drop = np.exp, _LOG_DROP")
    assert mutated != source
    assert _numpy_in_class_series(ast.parse(mutated))
    inline = source.replace("terms.append(exp(v))", "terms.append(float(numpy.exp(v)))")
    assert inline != source
    assert _numpy_in_class_series(ast.parse(inline))


# Modules on the import path of the analytic commands: numpy loads where a
# function first needs it, so `catrep sweep` and `keyrate` never pay for it.
_NUMPY_AT_FIRST_USE = ("__init__.py", "catcode.py", "cavity.py", "chain.py", "cli.py", "usd.py")


def _imported_at_import(tree, module: str, anywhere: bool = False) -> list:
    """Lines that import ``module`` when the module is imported: any import of it
    outside a function body, at the top level or under a class, if or try; with
    ``anywhere``, inside function bodies too.  An import names it where it is a
    part of a dotted name the import reads, so ``import numpy.linalg``,
    ``from .usd import f`` and ``from . import usd`` count."""
    lines, pending = [], list(ast.iter_child_nodes(tree))
    while pending:
        node = pending.pop()
        if not anywhere and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            if any(module in name.split(".") for name in names):
                lines.append(node.lineno)
        pending.extend(ast.iter_child_nodes(node))
    return sorted(lines)


def test_analytic_import_path_imports_no_numpy():
    modules = _modules()
    eager = {name: _imported_at_import(modules[name], "numpy") for name in _NUMPY_AT_FIRST_USE}
    assert not any(eager.values()), eager


def test_the_import_rule_refuses_numpy_put_back_at_module_level():
    for name, anchor, line in (
        ("cli.py", "import sys\n", "import numpy as np\n"),
        ("catcode.py", "import math\n", "from numpy import ndarray\n"),
        ("usd.py", "import sys\n", "if True:\n    import numpy.linalg\n"),
    ):
        source = (SRC / name).read_text()
        mutated = source.replace(anchor, anchor + line, 1)
        assert mutated != source
        assert _imported_at_import(ast.parse(mutated), "numpy"), name
    # the same import inside a function is what the rule asks for
    nested = "def f():\n    import numpy as np\n    return np\n"
    assert not _imported_at_import(ast.parse(nested), "numpy")


def test_no_module_imports_usd_at_module_level():
    # Only `catrep usd` and the circuit need usd (about 4 ms to compile where no
    # bytecode is cached), so it loads in cli.cmd_usd and on catrep's lazy names.
    found = {name: _imported_at_import(tree, "usd") for name, tree in _modules().items()}
    assert not any(found.values()), found


def test_the_usd_rule_refuses_each_import_form():
    for name, anchor, line in (
        ("chain.py", "import math\n", "from .usd import usd_sweep\n"),
        ("cli.py", "import sys\n", "from . import usd\n"),
        ("cavity.py", "import math\n", "import catrep.usd as usd\n"),
        ("__init__.py", "from .chain import *", "from .usd import *\n"),
    ):
        source = (SRC / name).read_text()
        mutated = source.replace(anchor, line + anchor, 1)
        assert mutated != source
        assert _imported_at_import(ast.parse(mutated), "usd"), name
    # a private name that merely contains the word is not the module
    assert not _imported_at_import(ast.parse("from .catcode import _usd_probability\n"), "usd")


def test_only_crosscheck_imports_the_oracle():
    # What validate compares lives in crosscheck alone: the CLI and every other
    # module leave the oracle to it, at import and at first use alike.
    found = {
        name: _imported_at_import(tree, "protocol_oracle", anywhere=True)
        for name, tree in _modules().items()
        if name != "crosscheck.py"
    }
    assert not any(found.values()), found


def test_the_oracle_rule_refuses_an_import_in_the_cli():
    source = (SRC / "cli.py").read_text()
    line = "from . import protocol_oracle\n"
    for anchor, mutated in (
        ("import sys\n", line + "import sys\n"),
        ("    from . import crosscheck", "    " + line + "    from . import crosscheck"),
    ):
        assert anchor in source
        tree = ast.parse(source.replace(anchor, mutated, 1))
        assert _imported_at_import(tree, "protocol_oracle", anywhere=True), mutated
    # the one import the rule allows is found where it is, in a function body
    crosscheck = _modules()["crosscheck.py"]
    assert _imported_at_import(crosscheck, "protocol_oracle", anywhere=True)
    assert not _imported_at_import(crosscheck, "protocol_oracle")


def _unbounded_caches(tree) -> list:
    """Lines that cache without a finite bound: any use of ``functools.cache``,
    and each ``functools.lru_cache`` not called with a maxsize that is a
    positive int literal or a module-level name assigned one.  The
    functools names count under any spelling: ``functools.x``, or ``x`` or
    its alias from ``from functools import x``."""
    constants = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    imported = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
    }
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            kind = node.attr if node.value.id == "functools" else None
        elif isinstance(node, ast.Name):
            kind = imported.get(node.id)
        else:
            continue
        if kind == "lru_cache" and id(node) in calls:
            call = calls[id(node)]
            sizes = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"]
            size = sizes[0] if sizes else None
            if isinstance(size, ast.Name):
                size = constants.get(size.id)
            elif isinstance(size, ast.Constant):
                size = size.value
            if type(size) is int and size > 0:
                continue
        if kind in ("cache", "lru_cache"):
            lines.append(node.lineno)
    return sorted(lines)


def test_every_cache_has_a_finite_bound():
    # A cache keyed by user input grows with it; each one states the most it
    # keeps as a module constant or literal (fockspace._STATE_CACHE: 64
    # coherent states of at most 2,049 amplitudes, about 2.1 MB).
    found = {name: _unbounded_caches(tree) for name, tree in _modules().items()}
    assert not any(found.values()), found


def test_the_cache_rule_refuses_each_unbounded_form():
    anchor = "@functools.lru_cache(maxsize=_STATE_CACHE)\n"
    source = (SRC / "fockspace.py").read_text()
    assert anchor in source
    for line in (
        "@functools.cache\n",
        "@functools.lru_cache\n",
        "@functools.lru_cache()\n",
        "@functools.lru_cache(None)\n",
        "@functools.lru_cache(maxsize=None)\n",
        "@functools.lru_cache(maxsize=0)\n",
        "@functools.lru_cache(maxsize=_NO_SUCH_CONSTANT)\n",
        "@functools.lru_cache(typed=True)\n",
    ):
        assert _unbounded_caches(ast.parse(source.replace(anchor, line))), line
    unbounded = source.replace("_STATE_CACHE = 64\n", "_STATE_CACHE = None\n")
    assert unbounded != source
    assert _unbounded_caches(ast.parse(unbounded))
    for imported in ("from functools import cache\n", "from functools import lru_cache as memo\n"):
        name = "cache" if "import cache" in imported else "memo"
        mutated = imported + source.replace(anchor, f"@{name}\n")
        assert _unbounded_caches(ast.parse(mutated)), imported
    # a call through the function object, as chain.py makes one
    assert _unbounded_caches(ast.parse("import functools\nf = functools.lru_cache(None)(len)\n"))
    bounded = "import functools\n_N = 4\nf = functools.lru_cache(maxsize=_N)(len)\n"
    assert not _unbounded_caches(ast.parse(bounded))
