"""Spans at sivodmr's layer boundaries and the per-layer metrics made from them.

The wrappers replace, for the traced phase only, the public functions that
one module of sivodmr calls in another (``transition_table`` as
``sivodmr.inversion`` holds it, ``transition_pair`` as ``sivodmr.spectrum``
holds it, and the io, fitting, inversion and spectrum functions as
``sivodmr.cli`` holds them), plus the benchmark's own entry points.  The
program's files are not changed.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import sivodmr
import sivodmr.cli
import sivodmr.inversion
import sivodmr.spectrum
from workloads import SWEEP_LIMIT


@dataclass
class Span:
    layer: str
    op: int | None            # workload operation, None outside one
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


# A note gives a span its attributes from the call's arguments and, when
# the call returned (``ok``), from its result.
def _note_table(args, out, ok):
    return {"fields": len(args[0])}


def _note_write(args, out, ok):
    return {"bytes": os.path.getsize(args[0])} if ok else {}


def _note_fit(args, out, ok):
    return {"points": args[0].freq_hz.size, "iterations": out.iterations} if ok else {}


def _note_invert(args, out, ok):
    return {"reason": out.reason} if ok else {}


def _note_cli(args, out, ok):
    return {"command": args[0][0]}


class Tracer:
    """Records one span per wrapped call; ``op`` is set by the workload loop."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[Span] = []

    def wrap(self, layer, fn, note=None):
        def traced(*args, **kwargs):
            span = Span(layer, self.op, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span)
            out = None
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as err:
                span.error = f"{type(err).__name__}: {err}"
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if note is not None:
                    span.attrs = note(args, out, span.error is None)

        return traced

    def install(self, api) -> None:
        """Wrap the cross-layer references inside sivodmr and those in ``api``."""
        patches = [
            (sivodmr.inversion, "transition_table", "spin_model.table", _note_table),
            (sivodmr.spectrum, "transition_pair", "spin_model.pair", None),
            (sivodmr.cli, "synthesize_spectrum", "spectrum.synth", None),
            (sivodmr.cli, "write_spectrum_csv", "io.write", _note_write),
            (sivodmr.cli, "read_spectrum_csv", "io.read", None),
            (sivodmr.cli, "fit_lorentzian_multi", "fitting.fit", _note_fit),
            (sivodmr.cli, "invert_field", "inversion.invert", _note_invert),
            (api, "transition_table", "spin_model.table", _note_table),
            (api, "transition_pair", "spin_model.pair", None),
            (api, "synthesize_spectrum", "spectrum.synth", None),
            (api, "fit_lorentzian_multi", "fitting.fit", _note_fit),
            (api, "invert_field", "inversion.invert", _note_invert),
            (api, "cli_main", "cli", _note_cli),
        ]
        for owner, name, layer, note in patches:
            setattr(owner, name, self.wrap(layer, getattr(owner, name), note))

    def of(self, layer: str) -> list[Span]:
        return [s for s in self.spans if s.layer == layer and s.error is None]


def _median(values, scale=1.0) -> float:
    return statistics.median(values) * scale


def layer_metrics(tracer: Tracer, n_ops: int, probes: dict) -> dict:
    """Per-layer metrics of a traced phase of ``n_ops`` workload operations.

    ``/op`` figures are sums over the spans inside workload operations
    divided by ``n_ops``; ``/call`` and unit-less time figures are medians
    over every call of the layer.  ``probes`` carries the figures measured
    in fresh interpreters (``grid_s``, ``import_s``).
    """
    spans = tracer.spans
    tables = [s for s in spans if s.layer == "spin_model.table"]
    op_tables = [s for s in tables if s.op is not None]
    ok_tables = [s for s in tables if s.error is None]
    inverts = tracer.of("inversion.invert")
    children: dict[int, float] = {}
    for s in tables:
        if s.parent is not None:
            children[id(s.parent)] = children.get(id(s.parent), 0.0) + s.seconds
    fits = tracer.of("fitting.fit")
    cli = tracer.of("cli")
    m = {
        "spin_model.table_calls": len(op_tables) / n_ops,
        "spin_model.table_fields": sum(s.attrs["fields"] for s in op_tables) / n_ops,
        "spin_model.table_ms": sum(s.seconds for s in op_tables) / n_ops * 1e3,
        "spin_model.us_per_field": sum(s.seconds for s in ok_tables)
        / sum(s.attrs["fields"] for s in ok_tables) * 1e6,
        "spin_model.pair_ms": _median([s.seconds for s in tracer.of("spin_model.pair")], 1e3),
        "spin_model.sweep_limit_errors": sum(
            1 for s in tables if s.error and SWEEP_LIMIT in s.error
        ),
        "inversion.grid_s": probes["grid_s"],
        "inversion.invert_ms": _median([s.seconds for s in inverts], 1e3),
        "inversion.self_ms": _median(
            [s.seconds - children.get(id(s), 0.0) for s in inverts], 1e3
        ),
        "inversion.flagged": sum(1 for s in inverts if s.attrs["reason"] is not None),
        "spectrum.synth_ms": _median([s.seconds for s in tracer.of("spectrum.synth")], 1e3),
        "fitting.fit_ms": _median([s.seconds for s in fits], 1e3),
        "fitting.iterations": _median([s.attrs["iterations"] for s in fits]),
        "fitting.us_per_point_iter": _median(
            [s.seconds / (s.attrs["points"] * s.attrs["iterations"]) for s in fits], 1e6
        ),
        "io.write_ms": _median([s.seconds for s in tracer.of("io.write")], 1e3),
        "io.read_ms": _median([s.seconds for s in tracer.of("io.read")], 1e3),
        "io.csv_bytes": _median([s.attrs["bytes"] for s in tracer.of("io.write")]),
        "cli.import_s": probes["import_s"],
    }
    for command in ("simulate", "fit", "invert"):
        m[f"cli.{command}_s"] = _median(
            [s.seconds for s in cli if s.attrs["command"] == command]
        )
    return m


def flagged_reasons(tracer: Tracer) -> dict:
    counts: dict = {}
    for s in tracer.of("inversion.invert"):
        reason = s.attrs["reason"]
        if reason is not None:
            counts[reason] = counts.get(reason, 0) + 1
    return dict(sorted(counts.items()))
