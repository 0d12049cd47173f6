"""Span recorder that attributes benchmark time to threestage's layers.

``instrument`` wraps the public functions listed in ``LAYERS`` from outside:
it replaces every reference to each function in the package's modules
(including names imported into another module, such as
``harness.RotationAveragedOracle``, whose methods are patched on the class)
and restores the originals on exit. Nothing in ``src/threestage`` changes.

Each call becomes a span ``[layer, start, end, parent, op, failed]`` kept in
memory. A span's self time is its duration minus the part of its interval
that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (layer name, module, attribute path). The layer name is
# "<module>.<function>"; oracle_build is RotationAveragedOracle.__init__.
LAYERS = (
    ("cli.main", "cli", "main"),
    ("harness.sweep", "harness", "sweep"),
    ("harness.export", "harness", "export"),
    ("harness.load_rows", "harness", "load_rows"),
    ("harness.verify_formulas", "harness", "verify_formulas"),
    ("fidelity.oracle_build", "fidelity", "RotationAveragedOracle.__init__"),
    ("fidelity.fidelity_at", "fidelity", "RotationAveragedOracle.fidelity_at"),
    ("fidelity.state_average", "fidelity", "RotationAveragedOracle.state_average"),
    ("fidelity.closed_form_fidelity", "fidelity", "closed_form_fidelity"),
    ("fidelity.closed_form_average_fidelity", "fidelity", "closed_form_average_fidelity"),
    ("protocol.run_protocol", "protocol", "run_protocol"),
    ("protocol.decode_bit", "protocol", "decode_bit"),
    ("protocol.transmit_message", "protocol", "transmit_message"),
    ("channels.from_kind", "channels", "from_kind"),
    ("channels.apply_channel", "channels", "apply_channel"),
    ("channels.completeness_defect", "channels", "completeness_defect"),
    ("algebra.validate_density", "algebra", "validate_density"),
    ("algebra.validate_state", "algebra", "validate_state"),
    ("algebra.conjugate_by", "algebra", "conjugate_by"),
    ("algebra.fidelity", "algebra", "fidelity"),
    ("algebra.rotation", "algebra", "rotation"),
)
LAYER_NAMES = tuple(layer for layer, _, _ in LAYERS)

# Counts and ratios recorded at the layer boundaries, beyond calls/self_s/failed.
EXTRA_METRICS = (
    ("harness.rows", "count", "higher"),
    ("harness.export.bytes", "B", "lower"),
    ("fidelity.oracle_build.grid_points", "count", "lower"),
    ("fidelity.oracle_build.products", "count", "lower"),
    ("protocol.rounds_per_distinct_input", "ratio", "lower"),
    ("channels.checks_per_channel", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.count_mismatches", "count", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports, in order."""
    metrics = []
    for layer in LAYER_NAMES:
        metrics += [
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.failed", "count", "lower"),
        ]
    return metrics + list(EXTRA_METRICS)


class Recorder:
    """In-memory spans plus the counters the layer hooks fill."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counters: dict[str, float] = {}
        self.round_inputs: set = set()

    def reset(self) -> None:
        # Cleared in place: the wrappers hold references to these containers.
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()
        self.round_inputs.clear()

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def stats(self) -> dict[str, float]:
        """calls/self_s/failed per layer plus counters and ratios, for the spans held."""
        out = {}
        for layer in LAYER_NAMES:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.failed"] = 0
        for span, own in zip(self.spans, self_times(self.spans)):
            layer = LAYER_NAMES[span[0]]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += own
            out[f"{layer}.failed"] += span[5]
        for name in ("harness.rows", "harness.export.bytes",
                     "fidelity.oracle_build.grid_points", "fidelity.oracle_build.products"):
            out[name] = self.counters.get(name, 0)
        rounds = out["protocol.run_protocol.calls"]
        out["protocol.rounds_per_distinct_input"] = (
            rounds / len(self.round_inputs) if self.round_inputs else 0.0
        )
        built = out["channels.from_kind.calls"]
        out["channels.checks_per_channel"] = (
            out["channels.completeness_defect.calls"] / built if built else 0.0
        )
        out["trace.spans"] = len(self.spans)
        return out


def save_spans(path, spans) -> None:
    """Write spans as columns of an .npz file, layer names alongside."""
    table = np.array(spans, dtype=float).reshape(-1, 6)
    np.savez(
        path,
        layers=np.array(LAYER_NAMES),
        layer=table[:, 0].astype(np.int32),
        start=table[:, 1],
        end=table[:, 2],
        parent=table[:, 3].astype(np.int64),
        op=table[:, 4].astype(np.int64),
        failed=table[:, 5].astype(np.int8),
    )


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it that its children cover.

    ``spans`` are ``[layer, start, end, parent, ...]`` with ``parent`` the
    index of the enclosing span or -1. Child intervals are clipped to the
    parent's and merged, so overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _arg(args, kwargs, position: int, name: str, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _count_rows(recorder, args, kwargs, result) -> None:
    recorder.add("harness.rows", len(result[0]))


def _count_bytes(recorder, args, kwargs, result) -> None:
    recorder.add("harness.export.bytes", os.path.getsize(_arg(args, kwargs, 2, "path")))


def _count_round_input(recorder, args, kwargs, result) -> None:
    config = _arg(args, kwargs, 0, "config")
    bit = _arg(args, kwargs, 1, "bit")
    index = _arg(args, kwargs, 2, "message_index")
    channel = config.channel
    key = (channel.kind, channel.parameter, config.xi, config.alice_angle,
           config.bob_angle, bit, config.stage_policy)
    if config.stage_policy.value != "fixed":
        # The per-stage draws depend on the seed and the round's index.
        key += (config.resample_seed, index)
    recorder.round_inputs.add(key)


def _oracle_hook(original):
    signature = inspect.signature(original)

    def hook(recorder, args, kwargs, result) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        n = bound.arguments["quad"].rotation_points
        k = len(bound.arguments["channel"].operators)
        recorder.add("fidelity.oracle_build.grid_points", n * n)
        # Computed, not counted: 2x2 products RotationAveragedOracle._averaged_form
        # performs for an n x n grid and k Kraus operators.
        recorder.add("fidelity.oracle_build.products", k * (n * n + 3 * n) + k * k * (1 + k) * n * n)

    return hook


def _nonzero_exit(code) -> bool:
    return code != 0


_HOOKS = {
    "harness.sweep": _count_rows,
    "harness.export": _count_bytes,
    "protocol.run_protocol": _count_round_input,
}


def _wrap(recorder: Recorder, layer_id: int, fn, hook=None, failed_if=None):
    spans, stack = recorder.spans, recorder.stack

    def traced(*args, **kwargs):
        span = [layer_id, 0.0, 0.0, stack[-1] if stack else -1, recorder.op, 1]
        stack.append(len(spans))
        spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            stack.pop()
        span[5] = 1 if failed_if is not None and failed_if(result) else 0
        if hook is not None:
            hook(recorder, args, kwargs, result)
        return result

    return functools.update_wrapper(traced, fn)


@contextmanager
def instrument(recorder: Recorder):
    """Route every call to a layer in ``LAYERS`` through the recorder."""
    modules = [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "threestage" or name.startswith("threestage."))
    ]
    patches = []
    try:
        for layer_id, (layer, module_name, path) in enumerate(LAYERS):
            owner = sys.modules[f"threestage.{module_name}"]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            hook = _oracle_hook(original) if layer == "fidelity.oracle_build" else _HOOKS.get(layer)
            failed_if = _nonzero_exit if layer == "cli.main" else None
            wrapper = _wrap(recorder, layer_id, original, hook, failed_if)
            if owner_path:
                # A method: patching the class covers every module that imported it.
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, name, original))
                        setattr(module, name, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def summarize(passes: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Per-pass layer stats -> one value per metric, plus repeatability problems.

    Self times are medians over the passes. Every other value is a count or a
    ratio of counts and must repeat exactly from pass to pass.
    """
    first = passes[0]
    out = {}
    problems = []
    for name, value in first.items():
        if name.endswith(".self_s"):
            out[name] = statistics.median(p[name] for p in passes)
            continue
        out[name] = value
        seen = sorted({p[name] for p in passes})
        if len(seen) > 1:
            problems.append(f"{name} differs between traced passes: {seen}")
    return out, problems
