"""Spans and counters around the library's public functions.

The tracer wraps functions by rebinding the names callers look up.  Code
inside the library calls through its own module's globals (``certify`` finds
``expand`` and ``classify`` in ``clawmatch.expansion``), so every module that
holds a function gets the wrapper.  Spans {name, start, end, parent, request}
stay in memory and are written out by ``write``; a span's self time is its
duration minus the durations of its child spans.  The hot helpers get call
counters only, because a span per call would cost more than the helper.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from time import perf_counter

SPANNED = (
    ("formats", "parse_graph"),
    ("formats", "serialize_certificate"),
    ("formats", "serialize_decomposition"),
    ("graphs", "bridges"),
    ("graphs", "find_claw"),
    ("graphs", "is_three_edge_connected"),
    ("structure", "classify"),
    ("structure", "build"),
    ("cyclespace", "cycle_basis"),
    ("cyclespace", "enumerate_cycle_space"),
    ("counting", "count_perfect_matchings"),
    ("counting", "enumerate_perfect_matchings"),
    ("counting", "enumerate_two_factors"),
    ("counting", "max_length_two_factor"),
    ("expansion", "certify"),
    ("expansion", "expand"),
    ("expansion", "complement_matching"),
    ("expansion", "verify_certificate"),
    ("expansion", "verify_3ec_remark"),
)
COUNTED = (
    ("graphs", "is_cubic"),
    ("graphs", "subset_degrees"),
    ("structure", "string_passages"),
)
class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.request = ""  # identifier stamped on every span; set by the caller
        self.spans: list = []  # (name, start, end, parent index or -1, request)
        self.calls: Counter = Counter()  # counter-only helpers
        self.tally: Counter = Counter()  # quantities read off results
        self.margins: list[float] = []  # 12*log2(count) - n of each certificate
        self._open: list[int] = []
        self._mark = 0
        self._undo: list = []
        self._observers = {
            "structure.classify": self._saw_decomposition,
            "cyclespace.enumerate_cycle_space": self._saw_members,
            "formats.serialize_certificate": self._saw_certificate_text,
            "counting.count_perfect_matchings": self._saw_count,
            "expansion.certify": self._saw_certificate,
        }

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "clawmatch"]
        for module, attr in SPANNED:
            original = getattr(getattr(self.lib, module), attr)
            self._rebind(modules, original, self._spanned(f"{module}.{attr}", original))
        for module, attr in COUNTED:
            original = getattr(getattr(self.lib, module), attr)
            self._rebind(modules, original, self._counted(f"{module}.{attr}", original))
        cls = self.lib.graphs.Multigraph
        self._undo.append((cls, "edge_between", cls.edge_between))
        cls.edge_between = self._counted("graphs.edge_between", cls.edge_between)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _rebind(self, modules, original, wrapper) -> None:
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, wrapper)

    def _spanned(self, name, fn):
        spans, open_spans = self.spans, self._open
        observe = self._observers.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_spans.pop()
                spans[index] = (name, start, end, parent, self.request)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _saw_decomposition(self, d) -> None:
        self.tally["structure.diamonds"] += len(d.ring) + d.total_length()

    def _saw_members(self, members) -> None:
        self.tally["cyclespace.members"] += len(members)

    def _saw_certificate_text(self, text) -> None:
        self.tally["formats.cert_bytes"] += len(text.encode())

    def _saw_count(self, count) -> None:
        self.tally["counting.perfect_matchings"] += count

    def _saw_certificate(self, cert) -> None:
        self.tally["expansion.rows_distinct"] += len(cert.matchings)
        self.margins.append(12 * math.log2(len(cert.matchings)) - cert.n)

    def take_pass(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts since the previous call."""
        lo, self._mark = self._mark, len(self.spans)
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for index in range(lo, self._mark):
            name, start, end, parent, _ = self.spans[index]
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        # cleared in place: the counting wrappers hold these objects
        counted, tally, margins = Counter(self.calls), Counter(self.tally), list(self.margins)
        self.calls.clear()
        self.tally.clear()
        self.margins.clear()
        # summed self time of every spanned function, as "<module>.<function>.ms"
        metrics = {f"{module}.{attr}.ms": 1000.0 * own[f"{module}.{attr}"] for module, attr in SPANNED}
        metrics["expansion.certify.self_ms"] = metrics.pop("expansion.certify.ms")
        generated = calls["expansion.complement_matching"]
        pm_seconds = own["counting.count_perfect_matchings"]
        lift = own["expansion.expand"] + own["expansion.complement_matching"]
        certify_s = total["expansion.certify"]
        metrics.update({
            "expansion.expand.calls": calls["expansion.expand"],
            "graphs.is_cubic.calls": counted["graphs.is_cubic"],
            "graphs.subset_degrees.calls": counted["graphs.subset_degrees"],
            "graphs.edge_between.calls": counted["graphs.edge_between"],
            "structure.string_passages.calls": counted["structure.string_passages"],
            "cyclespace.members": tally["cyclespace.members"],
            "expansion.certify.total_ms": 1000.0 * certify_s,
            "expansion.lift_share": lift / certify_s if certify_s else 0.0,
            "expansion.rows_generated": generated,
            "expansion.rows_distinct": tally["expansion.rows_distinct"],
            "expansion.row_yield": tally["expansion.rows_distinct"] / generated if generated else 0.0,
            "expansion.bound_margin_bits.min": min(margins, default=0.0),
            "formats.cert_bytes": tally["formats.cert_bytes"],
            "structure.diamonds": tally["structure.diamonds"],
            "counting.pm_per_s": tally["counting.perfect_matchings"] / pm_seconds if pm_seconds else 0.0,
        })
        return metrics

    def write(self, path, context: dict) -> None:
        with open(path, "w") as out:
            out.write(json.dumps({"context": context}) + "\n")
            for name, start, end, parent, request in self.spans:
                out.write(json.dumps([name, start, end, parent, request]) + "\n")
