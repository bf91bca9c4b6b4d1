"""catrep: dual-engine simulator for cat-code quantum repeaters.

An analytic engine produces closed-form fidelities, success probabilities
and secret-key rates for loss-only repeater chains built on rotation
symmetric bosonic codewords; a truncated Fock-space engine simulates the
actual protocol step by step and cross-validates every analytic quantity.

Each module's ``__all__`` is its public surface; every name it lists can
be imported from the module or from ``catrep``.  The Fock engine's modules,
and numpy with them, load on the first use of one of their names.
"""

from .catcode import *  # noqa: F401,F403
from .cavity import *  # noqa: F401,F403
from .chain import *  # noqa: F401,F403
from .usd import *  # noqa: F401,F403

__version__ = "0.1.0"

_FOCK_NAMES = (  # fockspace.__all__, protocol_oracle.__all__ and the two modules
    "TruncationError", "FockVector", "HybridDensity", "coherent_state", "annihilate",
    "hybrid_from_vector", "apply_mode_operator", "trace_distance", "UnitReport", "bell_vectors",
    "prepare_code_state", "syndrome_cascade", "simulate_unit", "bell_order_equivalence",
    "syndrome_deviation", "unit_setup", "fockspace", "protocol_oracle")
# what the star imports bound (the analytic modules and their exports), then the engine's
__all__ = [name for name in globals() if not name.startswith("_")] + list(_FOCK_NAMES)


def __getattr__(name: str):
    if name not in _FOCK_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    for submodule in ("fockspace", "protocol_oracle"):
        module = importlib.import_module(f"{__name__}.{submodule}")
        globals().update((export, getattr(module, export)) for export in module.__all__)
    return globals()[name]


def __dir__():
    return sorted(globals().keys() | set(__all__))
