"""catrep: dual-engine simulator for cat-code quantum repeaters.

An analytic engine produces closed-form fidelities, success probabilities
and secret-key rates for loss-only repeater chains built on rotation
symmetric bosonic codewords; a truncated Fock-space engine simulates the
actual protocol step by step and cross-validates every analytic quantity.

Each module's ``__all__`` is its public surface; every name it lists can
be imported from the module or from ``catrep``.
"""

from .catcode import *  # noqa: F401,F403
from .cavity import *  # noqa: F401,F403
from .chain import *  # noqa: F401,F403
from .fockspace import *  # noqa: F401,F403
from .protocol_oracle import *  # noqa: F401,F403
from .usd import *  # noqa: F401,F403

__version__ = "0.1.0"
