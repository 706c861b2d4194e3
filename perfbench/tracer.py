"""Per-layer spans, recorded by wrapping the program's public functions.

Each function is wrapped where its caller looks it up: the names that
``zxq.cli`` and ``zxq.harness`` import, the ``RULES`` entries, the
``Diagram.digest`` and ``Diagram.copy`` methods, the ``diagram_io``
module functions, and ``numpy.tensordot`` while ``evaluate`` runs.  A
span is kept in memory as ``[name, start, end, parent]``; the program
itself is not changed.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import time
from collections import Counter, defaultdict

import numpy

OPTIONAL_RULES = ("H2", "P")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.peak_rank = 0
        self._stack: list = []
        self._undo: list = []

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        orig = getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, orig, after))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._undo.clear()

    # -- counters kept at the layer boundaries ---------------------------------

    def _simplified(self, args, result) -> None:
        out, trace = result
        self.counts["rewrite.steps_kept"] += len(trace.steps)
        self.counts["rewrite.trials_kept"] += sum(s.rule in OPTIONAL_RULES for s in trace.steps)
        self.counts["rewrite.spiders_in"] += args[0].spider_count
        self.counts["rewrite.spiders_out"] += out.spider_count

    def _trial(self, args, result) -> None:
        # a speculative colour-change or chain-swap move made by simplify
        if self._parent_name() == "rewrite.simplify":
            self.counts["rewrite.trials_tried"] += 1

    def _verified(self, args, result) -> None:
        self.counts["harness.cases"] += result.cases

    def _contracted(self, args, result) -> None:
        self.peak_rank = max(self.peak_rank, result.ndim)

    def install(self, zxq) -> None:
        cli, harness, rewrite = zxq.cli, zxq.harness, zxq.rewrite
        for owner in (cli, harness):
            self.patch(owner, "circuit_to_diagram", "circuits.to_diagram")
            self.patch(owner, "circuit_matrix", "circuits.matrix")
            self.patch(owner, "evaluate", "semantics.evaluate")
            self.patch(owner, "equal_up_to_scalar", "semantics.compare")
            self.patch(owner, "p_rule_angles", "phase_algebra.p_rule")
        self.patch(cli, "load_circuit", "circuits.parse")
        self.patch(zxq.circuits, "parse_circuit", "circuits.parse")
        self.patch(zxq.diagram_io, "save", "diagram_io.save")
        self.patch(zxq.diagram_io, "load", "diagram_io.load")
        self.patch(zxq.diagram.Diagram, "digest", "diagram.digest")
        self.patch(zxq.diagram.Diagram, "copy", "diagram.copy")
        self.patch(cli, "simplify", "rewrite.simplify", self._simplified)
        self.patch(rewrite, "simplify", "rewrite.simplify", self._simplified)
        self.patch(rewrite, "p_rule_angles", "phase_algebra.p_rule")
        for name, rule in list(rewrite.RULES.items()):
            self._undo.append((rewrite.RULES, name, rule))
            trial = self._trial if name in OPTIONAL_RULES else None
            rewrite.RULES[name] = dataclasses.replace(
                rule,
                find=self.wrap("rewrite.find", rule.find),
                apply=self.wrap("rewrite.apply", rule.apply, trial),
            )
        self.patch(harness, "generalized_color_swap", "phase_algebra.swap")
        self.patch(harness, "euler_xzx_extract", "phase_algebra.extract")
        for fn in ("verify_rules", "verify_relations", "verify_p_formulas"):
            self.patch(cli, fn, "harness.verify", self._verified)

        orig = numpy.tensordot
        traced = self.wrap("semantics.tensordot", orig, self._contracted)

        def tensordot(*args, **kwargs):
            if self._parent_name() == "semantics.evaluate":
                return traced(*args, **kwargs)
            return orig(*args, **kwargs)

        self._undo.append((numpy, "tensordot", orig))
        numpy.tensordot = tensordot

    # -- results ------------------------------------------------------------------

    def layer_times(self) -> tuple[dict, dict, Counter]:
        """Self time, total time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict = defaultdict(float)
        total: dict = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
            total[name] += end - start
            calls[name] += 1
        return own, total, calls

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "names": names,
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump(doc, f)
