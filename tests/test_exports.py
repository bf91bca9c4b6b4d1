"""The package's public surface: each module's ``__all__``, re-exported."""

import importlib

import catrep

MODULES = ("catcode", "cavity", "chain", "fockspace", "protocol_oracle", "usd")


def test_module_exports_are_disjoint_and_reexported():
    owner = {}
    for name in MODULES:
        module = importlib.import_module(f"catrep.{name}")
        for export in module.__all__:
            # a name in two lists would be shadowed silently by the star imports
            assert export not in owner, (export, owner.get(export), name)
            owner[export] = name
            assert getattr(catrep, export) is getattr(module, export), export
    assert isinstance(catrep.__version__, str) and catrep.__version__
