"""Layer spans recorded from outside catrep.

The tracer wraps public functions of catrep's modules by rebinding every
module attribute that refers to them (the defining module's own name and
each ``from .x import f`` copy elsewhere), so calls between modules pass
through the wrapper without any change to catrep.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from time import perf_counter

# "<module>.<function>" under the catrep package.
LAYERS = (
    "cli.main",
    "chain.evaluate_chain",
    "chain.secret_key_rate",
    "chain.chain_distribution",
    "catcode.loss_weights",
    "catcode.error_space_state",
    "usd.optimal_usd_probability",
    "usd.linear_optics_usd_probability",
    "cavity.full_reflection",
    "fockspace.coherent_state",
    "fockspace.kraus_op",
    "fockspace.apply_mode_operator",
    "protocol_oracle.prepare_code_state",
    "protocol_oracle.transmit",
    "protocol_oracle.syndrome_cascade",
    "protocol_oracle.create_entanglement",
    "protocol_oracle.simulate_unit",
    "protocol_oracle.bell_order_equivalence",
)

# The root of a CLI call; its self time is argument handling, rendering
# and whatever the unwrapped helpers do, so it is not a layer's work.
ROOT_LAYER = "cli.main"


class Tracer:
    """Span recorder: (request, parent, name, start, end, result length)."""

    def __init__(self):
        self.spans: list = []
        self.request = -1
        self._stack: list = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.request, stack[-1] if stack else -1, name, perf_counter(), 0.0, -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if isinstance(result, list):
                span[5] = len(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every catrep module attribute that names a layer function."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "catrep" or key.startswith("catrep."))
        ]
        replaced = []
        for layer in LAYERS:
            mod_name, fn_name = layer.split(".")
            original = getattr(importlib.import_module(f"catrep.{mod_name}"), fn_name, None)
            if original is None:  # gone from catrep: the layer reads 0 calls
                continue
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        replaced.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in replaced:
                setattr(mod, attr, original)

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_table(spans: list, wall_s: float) -> dict:
    """Per-layer calls and self time, plus the derived ratios, for one pass.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because the client is single-threaded.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            child_s[span[1]] += span[4] - span[3]
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    rows = 0
    kraus_in_transmit = 0
    for i, (_req, parent, name, start, end, size) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_s[i]
        if name == "chain.chain_distribution" and size >= 0:
            rows += size
        if (
            name == "fockspace.kraus_op"
            and parent >= 0
            and spans[parent][2] == "protocol_oracle.transmit"
        ):
            kraus_in_transmit += 1

    table = {}
    for layer in LAYERS:
        table[f"{layer}.calls"] = calls[layer]
        table[f"{layer}.self_s"] = self_s[layer]

    def ratio(num, den):
        return num / den if den else 0.0

    table["catcode.loss_weights.per_point"] = ratio(
        calls["catcode.loss_weights"], calls["chain.evaluate_chain"]
    )
    table["chain.chain_distribution.rows"] = rows
    table["protocol_oracle.transmit.kraus_per_call"] = ratio(
        kraus_in_transmit, calls["protocol_oracle.transmit"]
    )
    table["trace.layer_share"] = ratio(
        sum(v for k, v in self_s.items() if k != ROOT_LAYER), wall_s
    )
    return table


def write_spans(path, passes: list) -> None:
    """Write every pass's spans as CSV, times relative to the pass start."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("pass,span,parent,request,name,start_s,end_s,result_len\n")
        for p, spans in enumerate(passes):
            t0 = spans[0][3] if spans else 0.0
            for i, (req, parent, name, start, end, size) in enumerate(spans):
                fh.write(
                    f"{p},{i},{parent},{req},{name},"
                    f"{start - t0:.9f},{end - t0:.9f},{size}\n"
                )
