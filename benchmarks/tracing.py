"""Span tracing from outside the program.

The tracer swaps span-recording wrappers in for the names that each
calling module looks up at call time (``braidmat.verify.kron``,
``braidmat.cli.run_suite``, ``BraidFamily.matrix`` and so on), so no file
of the package changes.  ``installed()`` restores the originals on exit;
untraced ops therefore run the unmodified code.

Each span records its own id, its parent's id (-1 at the top), the op it
belongs to, its name and its start and end on ``time.perf_counter``.
Spans are kept in memory; ``write`` dumps them at the end of a run.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from braidmat import braid, cli, config, entangle, verify
from braidmat.braid import BraidFamily

# (module, attribute looked up by that module at call time, span name)
_FUNCTION_TARGETS = (
    (cli, "main", "cli.main"),
    (cli, "load_config", "config.load_config"),
    (cli, "run_suite", "verify.run_suite"),
    (cli, "scan_products", "entangle.scan_products"),
    (cli, "exceptional_scan", "entangle.exceptional_scan"),
    (cli, "matrix_to_json", "linalg.matrix_to_json"),
    (config, "make_parameters", "braid.make_parameters"),
    (verify, "make_parameters", "braid.make_parameters"),
    (verify, "check_braid", "verify.check_braid"),
    (verify, "check_unitarity", "verify.check_unitarity"),
    (verify, "check_factorization", "verify.check_factorization"),
    (verify, "check_exponential", "verify.check_exponential"),
    (verify, "check_composition_law", "verify.check_composition_law"),
    (verify, "projector_checks", "verify.projector_checks"),
    (verify, "reference_checks", "verify.reference_checks"),
    (verify, "kron", "linalg.kron"),
    (verify, "matrix_exponential", "linalg.matrix_exponential"),
    (verify, "projector_family", "projectors.projector_family"),
    (braid, "projector_family", "projectors.projector_family"),
    (entangle, "schmidt_coefficients", "linalg.schmidt_coefficients"),
)
_METHOD_TARGETS = (
    (BraidFamily, "create", "braid.BraidFamily.create"),
    (BraidFamily, "matrix", "braid.BraidFamily.matrix"),
    (BraidFamily, "generator", "braid.BraidFamily.generator"),
)

SPAN_NAMES = frozenset(name for *_, name in _FUNCTION_TARGETS + _METHOD_TARGETS)


class Tracer:
    def __init__(self) -> None:
        # [span id, parent id, op, name, start, end]
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(self.spans), self._stack[-1] if self._stack else -1,
                      self.op, name, 0.0, 0.0]
            self.spans.append(record)
            self._stack.append(record[0])
            record[4] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[5] = perf_counter()
                self._stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        undo = []
        try:
            for module, attr, name in _FUNCTION_TARGETS:
                undo.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(getattr(module, attr), name))
            for cls, attr, name in _METHOD_TARGETS:
                raw = cls.__dict__[attr]
                undo.append((cls, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(raw.__func__, name)))
                else:
                    setattr(cls, attr, self._wrap(raw, name))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def summary(self, ops: set[int]) -> dict[str, dict[str, float]]:
        """Per span name, totals over the given ops: calls, busy seconds
        and self seconds (busy time minus the time of child spans)."""
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, _op, _name, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for span_id, _parent, op, name, start, end in self.spans:
            if op in ops:
                entry = totals[name]
                entry["calls"] += 1
                entry["s"] += end - start
                entry["self_s"] += end - start - child_time[span_id]
        return totals

    def first(self, name: str) -> list | None:
        return next((s for s in self.spans if s[3] == name), None)

    def write(self, path, env: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"env": env,
                       "fields": ["id", "parent", "op", "name", "start", "end"],
                       "spans": self.spans}, fh)
