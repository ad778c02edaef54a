"""Timing spans and counters around the public functions of each layer.

The tracer works from outside the package: it replaces module
attributes with wrappers and puts the originals back on exit.  Every
module that holds the function under another name is patched too
(``dsl.run_sequence`` and ``nogo.run_sequence`` are ``protocols.run_sequence``),
so calls between modules are seen.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import NamedTuple

import nqisim
from nqisim import dsl, elements, nogo, protocols, state
from nqisim.elements import AtomInteraction

_MODULES = (nqisim, dsl, elements, nogo, protocols, state)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at top level


def _arg(args, kwargs, i: int, name: str, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


# Counters taken at each layer boundary: (tracer, args, kwargs, result).


def _count_parse(tr, args, kwargs, result):
    tr.counts["dsl.parse_calls"] += 1


def _count_compile(tr, args, kwargs, result):
    tr.counts["dsl.compile_calls"] += 1
    tr.counts["dsl.elements_emitted"] += len(result.elements)


def _count_build(tr, args, kwargs, result):
    tr.counts["protocols.build_calls"] += 1
    tr.counts["protocols.elements_built"] += len(result[1])


def _count_propagate(tr, args, kwargs, result):
    seq = _arg(args, kwargs, 1, "elements")
    call = (
        _arg(args, kwargs, 0, "layout"),
        seq,
        kwargs.get("atom_present", True),
        kwargs.get("mask_override"),
    )
    # The cavity runner propagates one round-trip list thousands of times
    # in a row, so a call like the last one reuses its description.
    last = tr.last_propagation
    if last is None or any(a is not b for a, b in zip(call, last[0])):
        layout, _, present, override = call
        atoms = [el for el in seq if isinstance(el, AtomInteraction)]
        masks = frozenset(el.transparency_mask for el in atoms)
        applied_atoms = len(atoms) if present else 0
        tr.networks.add((layout, len(seq), masks, present, override))
        last = tr.last_propagation = (call, len(seq) - len(atoms) + applied_atoms, applied_atoms)
    tr.counts["elements.propagations"] += 1
    tr.counts["elements.applications"] += last[1]
    tr.counts["elements.atom_applications"] += last[2]


def _count_factor(tr, args, kwargs, result):
    modes = _arg(args, kwargs, 0, "state").layout.n_photon_modes
    tr.counts["state.factor_calls"] += 1
    tr.maxima["state.modes_max"] = max(tr.maxima["state.modes_max"], modes)
    # The full SVD allocates an n_modes x n_modes complex u.
    tr.maxima["state.svd_u_bytes_max"] = max(tr.maxima["state.svd_u_bytes_max"], modes * modes * 16)


def _count_fp(tr, args, kwargs, result):
    tr.counts["protocols.fp_round_trips"] += result.details["round_trips"]


def _complement_dim(tr, args, kwargs):
    dim = _arg(args, kwargs, 0, "pair").probe_dim - 1
    tr.maxima["nogo.complement_dim_max"] = max(tr.maxima["nogo.complement_dim_max"], dim)


def _count_witness(tr, args, kwargs, result):
    _complement_dim(tr, args, kwargs)
    tr.counts["nogo.witness_calls"] += 1
    tr.counts["nogo.witness_found"] += isinstance(result, nogo.Witness)
    tr.counts["nogo.absence_certified"] += isinstance(result, nogo.Absence)


def _count_grid(tr, args, kwargs, result):
    _complement_dim(tr, args, kwargs)


# (span name, module, attribute, counter or None).  The function object
# found at module.attribute is replaced wherever it is bound.
TARGETS = (
    ("dsl.parse", dsl, "parse", _count_parse),
    ("dsl.compile", dsl, "compile_circuit", _count_compile),
    ("dsl.run", dsl, "run_compiled", None),
    ("protocols.build", protocols, "build_mz", _count_build),
    ("protocols.run_mz_chain", protocols, "run_mz_chain", None),
    ("protocols.fp", protocols, "run_fabry_perot", _count_fp),
    ("protocols.assemble", protocols, "assemble_outcome", None),
    ("elements.propagate", protocols, "run_sequence", _count_propagate),
    ("state.partition", state, "partition_branches", None),
    ("state.factor", state, "product_factors", _count_factor),
    ("nogo.scan", nogo, "transparency_nogo_scan", None),
    ("nogo.final_states", nogo, "build_final_states", None),
    ("nogo.witness", nogo, "find_witness", _count_witness),
    ("nogo.grid", nogo, "grid_witness_search", _count_grid),
)

# Per-layer time metrics and the span each one sums.
LAYER_TIMES = {
    "dsl.parse_s": "dsl.parse",
    "dsl.compile_s": "dsl.compile",
    "protocols.build_s": "protocols.build",
    "elements.propagate_s": "elements.propagate",
    "protocols.assemble_s": "protocols.assemble",
    "state.partition_s": "state.partition",
    "state.factor_s": "state.factor",
    "protocols.fp_s": "protocols.fp",
    "nogo.final_states_s": "nogo.final_states",
    "nogo.witness_s": "nogo.witness",
    "nogo.grid_s": "nogo.grid",
}

LAYER_COUNTS = (
    "dsl.parse_calls",
    "dsl.compile_calls",
    "dsl.elements_emitted",
    "protocols.build_calls",
    "protocols.elements_built",
    "elements.applications",
    "elements.atom_applications",
    "state.factor_calls",
    "protocols.fp_round_trips",
    "nogo.witness_calls",
    "nogo.witness_found",
    "nogo.absence_certified",
)

LAYER_MAXIMA = ("state.modes_max", "state.svd_u_bytes_max", "nogo.complement_dim_max")


class Tracer:
    """Records spans and counters while installed (use as a context manager)."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.maxima: defaultdict = defaultdict(int)
        self.networks: set = set()
        self.last_propagation: tuple | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for name, module, attr, counter in TARGETS:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, counter)
            for mod in _MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive time and self time per span name.

        Self time is a span's duration minus its child spans; the code is
        single-threaded, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        table: dict[str, dict[str, float]] = {}
        for span, inner in zip(self.spans, child):
            row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += span.end - span.start - inner
        return table

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per traced pass (times are inclusive)."""
        table = self.layer_table()
        metrics = {
            metric: table.get(span, {}).get("total_s", 0.0) / passes
            for metric, span in LAYER_TIMES.items()
        }
        metrics.update({name: self.counts[name] / passes for name in LAYER_COUNTS})
        metrics.update({name: self.maxima[name] for name in LAYER_MAXIMA})
        networks = len(self.networks)
        per_pass = self.counts["elements.propagations"] / passes
        metrics["protocols.propagations_per_network"] = per_pass / networks if networks else 0.0
        return metrics

    def span_records(self) -> list[list]:
        """Spans as [name, start, end, parent] with times from the first start."""
        if not self.spans:
            return []
        t0 = self.spans[0].start
        return [[s.name, s.start - t0, s.end - t0, s.parent] for s in self.spans]
