"""Spans for the traced run.

Spans are recorded from the benchmark's own code, around calls into the
program's public functions; no program file is changed.  They are kept in
memory and written out once, when the run ends.

* Driver-side spans come from :class:`Tracer`.
* Per-batch spans inside Ray workers come from :class:`TimedStage`, a
  wrapper around a ``map_batches`` callable that appends one JSON line per
  batch to a spool file; :meth:`Tracer.absorb_spool` turns those lines into
  child spans of the driver span that was open around them.

Times are ``time.monotonic()`` (CLOCK_MONOTONIC on Linux, one clock for
every process of the machine), so worker spans nest inside driver spans.
A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import glob
import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def rule_flag_columns() -> frozenset:
    from qamd_ray.rules import RULES, flag_col

    return frozenset(flag_col(r.name) for r in RULES)


def rows_with_any_flag(table: pa.Table, flags: frozenset) -> int:
    """Rows with at least one of ``flags`` set."""
    hit = np.zeros(table.num_rows, dtype=bool)
    for c in table.column_names:
        if c in flags:
            hit |= np.asarray(pc.fill_null(table[c], False))
    return int(hit.sum())


class Tracer:
    """In-memory span recorder.  Every span carries the id of its parent
    and of its root; the root span of one job is the job's identifier."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._pending: list[tuple] = []

    @contextmanager
    def span(self, name: str, **counts):
        parent = self._open[-1] if self._open else None
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "root": parent["root"] if parent else len(self.spans),
            "start": time.monotonic(),
            "end": None,
            "counts": dict(counts),
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            self._open.pop()

    def wrap(self, name: str, fn: Callable, counts: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around each call.  ``counts(result, *args)``
        returns counts for the span; it runs later, in :meth:`resolve`,
        so that counting stays outside every timed span."""

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if counts is not None:
                self._pending.append((counts, rec, out, args))
            return out

        return traced

    def resolve(self) -> None:
        """Run the count callbacks of :meth:`wrap` spans closed so far."""
        pending, self._pending = self._pending, []
        for counts, rec, out, args in pending:
            rec["counts"].update(counts(out, *args))

    def absorb_spool(self, spool_dir: str, parent: dict) -> None:
        """Move every worker span line in ``spool_dir`` under ``parent``."""
        for path in sorted(glob.glob(os.path.join(spool_dir, "*.jsonl"))):
            with open(path) as f:
                lines = f.read().splitlines()
            os.remove(path)
            for line in lines:
                w = json.loads(line)
                self.spans.append(
                    {
                        "id": len(self.spans),
                        "name": w["name"],
                        "parent": parent["id"],
                        "root": parent["root"],
                        "start": w["start"],
                        "end": w["end"],
                        "counts": w["counts"],
                        "pid": w["pid"],
                    }
                )

    def self_times(self, root: int) -> dict[int, float]:
        """{span id: self time} for the spans of one root."""
        spans = [s for s in self.spans if s["root"] == root]
        children: dict[int, list[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out = {}
        for s in spans:
            covered = 0.0
            cursor = s["start"]
            for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
                lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def layer_totals(self, roots: list[int]) -> tuple[dict[str, float], dict[str, float]]:
        """Summed self time per span name and summed counts per
        ``<name>.<count>`` over the given roots."""
        self_s: dict[str, float] = {}
        counts: dict[str, float] = {}
        for root in roots:
            st = self.self_times(root)
            for s in self.spans:
                if s["root"] != root:
                    continue
                self_s[s["name"]] = self_s.get(s["name"], 0.0) + st[s["id"]]
                for k, v in s["counts"].items():
                    key = f"{s['name']}.{k}"
                    counts[key] = counts.get(key, 0) + v
        return self_s, counts

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.spans, f)


class TimedStage:
    """A ``map_batches`` callable that times each call of ``inner`` in the
    worker and appends one span line to ``<spool_dir>/<pid>.jsonl``.

    Attribute reads fall through to ``inner`` (callers read e.g.
    ``RowRules(config).enabled``).  Counts: ``rows`` for every layer,
    ``rows_flagged`` for rules, ``rows_rewritten`` for scrub."""

    def __init__(self, layer: str, inner: Callable, spool_dir: str):
        self.layer = layer
        self.inner = inner
        self.spool_dir = spool_dir

    def __getattr__(self, name: str):
        inner = self.__dict__.get("inner")
        if inner is None or name.startswith("__"):
            raise AttributeError(name)
        return getattr(inner, name)

    def __call__(self, batch: pa.Table) -> pa.Table:
        start = time.monotonic()
        out = self.inner(batch)
        end = time.monotonic()
        counts = {"rows": batch.num_rows}
        if self.layer == "rules":
            counts["rows_flagged"] = rows_with_any_flag(out, rule_flag_columns())
        elif self.layer == "scrub":
            counts["rows_rewritten"] = int(pc.sum(out["scrubbed"]).as_py() or 0)
        line = {"name": self.layer, "start": start, "end": end, "counts": counts,
                "pid": os.getpid()}
        with open(os.path.join(self.spool_dir, f"{os.getpid()}.jsonl"), "a") as f:
            f.write(json.dumps(line) + "\n")
        return out


class _TracedClass:
    """Stands in for a program class inside one module while a traced job
    runs: construction and ``from_config`` return :class:`TimedStage`
    wrappers around real instances."""

    def __init__(self, base: type, layer: str, spool_dir: str):
        self.base, self.layer, self.spool_dir = base, layer, spool_dir

    def __call__(self, *args, **kwargs):
        return TimedStage(self.layer, self.base(*args, **kwargs), self.spool_dir)

    def from_config(self, *args, **kwargs):
        out = self.base.from_config(*args, **kwargs)
        if isinstance(out, self.base):
            return TimedStage(self.layer, out, self.spool_dir)
        return out


@contextmanager
def patched(module, replacements: dict):
    """Temporarily replace attributes of ``module`` in this process."""
    saved = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield saved
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def worker_stages(pipeline_module, spool_dir: str) -> dict:
    """Replacements for the stage classes ``qamd_ray.pipeline`` builds its
    ``map_batches`` calls from."""
    return {
        "RowRules": _TracedClass(pipeline_module.RowRules, "rules", spool_dir),
        "ModelScorers": _TracedClass(pipeline_module.ModelScorers, "models", spool_dir),
        "Scrubber": _TracedClass(pipeline_module.Scrubber, "scrub", spool_dir),
    }
