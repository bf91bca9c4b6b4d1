"""catrep: dual-engine simulator for cat-code quantum repeaters.

An analytic engine produces closed-form fidelities, success probabilities
and secret-key rates for loss-only repeater chains built on rotation
symmetric bosonic codewords; a truncated Fock-space engine simulates the
actual protocol step by step and cross-validates every analytic quantity.

Each module's ``__all__`` is its public surface; every name it lists can
be imported from the module or from ``catrep``.  ``usd`` and the Fock
engine's modules (numpy with them) each load on the first use of their names.
"""

from .catcode import *  # noqa: F401,F403
from .cavity import *  # noqa: F401,F403
from .chain import *  # noqa: F401,F403

__version__ = "0.1.0"

_LAZY = {  # name -> the module it loads: each lazy module's own name and its __all__
    name: module
    for module, names in (
        ("usd", "CoherentSuperposition overlap tensor beam_splitter click_probability "
         "cat_superposition optimal_usd_probability linear_optics_usd_probability "
         "linear_optics_output_states linear_optics_closed_form usd_sweep"),
        ("fockspace", "TruncationError FockVector HybridDensity coherent_state annihilate "
         "hybrid_from_vector apply_mode_operator trace_distance"),
        ("protocol_oracle", "UnitReport bell_vectors prepare_code_state syndrome_cascade "
         "simulate_unit bell_order_equivalence syndrome_deviation"),
    )
    for name in (module, *names.split())
}
# what the star imports bound (the analytic modules and their exports), then the lazy ones
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    globals().update((export, getattr(module, export)) for export in module.__all__)
    return globals()[name]


def __dir__():
    return sorted(globals().keys() | set(__all__))
