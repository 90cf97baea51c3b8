"""Bench-side layer timing: wrap the library's public methods from outside.

The ledger measures every layer without touching ``src/``: a
:class:`LayerClock` replaces a class attribute (or a module-level name)
with a wrapper that records, per layer, the calls made, the work items
handled, the inclusive time and the *self* time (inclusive minus the
time spent in wrapped callees on the same stack).  :func:`installed`
puts the wrappers in place for the duration of a ``with`` block and
restores the originals afterwards.

Two modes:

* ``timed`` — forest-level and above (``forest.fit``, ``forest.predict``,
  ``labeler``, ``predictor``, ``fleet.ingest``, ``runtime.*``).  Each
  finished call is also kept as a span ``(name, start, duration,
  parent)`` in memory, written out once the run ends.
* ``count`` — calls and items only, no clock reads, plus the tree-level
  methods.  Wrappers on the ~500,000 tree calls of one ``exact-paper``
  window would distort the times, so tree counts come from a separate
  pass whose wall time is thrown away.

Layer names follow the stages :mod:`repro.obs` emits at runtime where
the two coincide (``fleet.ingest``, ``forest.fit``, ``forest.predict``,
``runtime.ingest``).
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: how many work items one call handled, from (args, kwargs, result)
ItemsFn = Callable[[tuple, dict, Any], int]


def one(args: tuple, kwargs: dict, result: Any) -> int:
    return 1


def rows(args: tuple, kwargs: dict, result: Any) -> int:
    """Length of the first positional argument after ``self``."""
    return len(args[1])


def returned(args: tuple, kwargs: dict, result: Any) -> int:
    """Length of the call's result (labels a labeler released)."""
    return len(result)


def frame_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    """Size of a ``send_frame(conn, op, payload)`` frame, re-pickled."""
    return len(pickle.dumps((args[1], args[2]), protocol=pickle.HIGHEST_PROTOCOL))


def reply_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    """Size of the ``(op, payload)`` a ``recv_frame`` returned, re-pickled."""
    return len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))


class LayerClock:
    """Per-layer calls, items, inclusive and self seconds.

    Single-threaded by design: every workload drives its layers from
    one thread per process (the gateway's event loop runs the fleet
    inline), so one call stack per clock is exact.
    """

    def __init__(self, *, timed: bool) -> None:
        self.timed = timed
        self.records: Dict[str, List[float]] = {}
        self.spans: List[Tuple[str, float, float, Optional[str]]] = []
        # (layer name, seconds spent in wrapped callees) per open call
        self._stack: List[List[Any]] = []

    def reset(self) -> None:
        # in place: installed wrappers hold these very objects
        for rec in self.records.values():
            rec[:] = [0, 0, 0.0, 0.0]
        self.spans.clear()
        self._stack.clear()

    def inside(self, name: str) -> bool:
        """Whether a call of layer *name* is open on the stack."""
        return any(frame[0] == name for frame in self._stack)

    def _record(self, name: str) -> List[float]:
        rec = self.records.get(name)
        if rec is None:
            rec = self.records[name] = [0, 0, 0.0, 0.0]
        return rec

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        items: ItemsFn = one,
    ) -> Callable[..., Any]:
        """A wrapper of *fn* that books its calls under layer *name*.

        The timed wrapper is the hot one (four wrapped calls per event
        in exact mode), so everything it touches is bound up front.
        """
        if not self.timed:
            return self.count(fn, lambda: name, items)
        stack = self._stack
        clock = time.perf_counter
        rec = self._record(name)
        add_span = self.spans.append
        per_call = items is one

        def timed_call(*args: Any, **kwargs: Any) -> Any:
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec[0] += 1
                rec[2] += dt
                rec[3] += dt - frame[1]
                add_span((name, t0, dt, parent))
            rec[1] += 1 if per_call else items(args, kwargs, result)
            return result

        return timed_call

    def count(
        self, fn: Callable[..., Any], name: Callable[[], str], items: ItemsFn = one
    ) -> Callable[..., Any]:
        """A clock-free wrapper booking calls and items under ``name()``,
        resolved per call (tree scores count as out-of-bag while a
        ``forest.fit`` is open)."""
        stack = self._stack

        def counted(*args: Any, **kwargs: Any) -> Any:
            layer = name()
            stack.append([layer, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
            rec = self._record(layer)
            rec[0] += 1
            rec[1] += items(args, kwargs, result)
            return result

        return counted

    # ------------------------------------------------------------- results
    def totals(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"calls": rec[0], "items": rec[1], "incl_s": rec[2], "self_s": rec[3]}
            for name, rec in self.records.items() if rec[0]
        }

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.totals()))


def merge_totals(
    parts: Sequence[Dict[str, Dict[str, float]]]
) -> Dict[str, Dict[str, float]]:
    """Sum per-layer totals from several processes or episodes."""
    out: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for name, rec in part.items():
            acc = out.setdefault(name, {k: 0 for k in rec})
            for key, value in rec.items():
                acc[key] += value
    return out


# ------------------------------------------------------------ what to wrap
# (owner, attribute, layer name, items) — owner is a class or a module


def forest_layers() -> List[Tuple[Any, str, str, ItemsFn]]:
    """The in-process layers every shard runs, from fleet down to forest."""
    from repro.core.forest import OnlineRandomForest
    from repro.core.labeler import OnlineLabeler
    from repro.core.predictor import OnlineDiskFailurePredictor
    from repro.service.fleet import FleetMonitor

    return [
        (FleetMonitor, "ingest", "fleet.ingest", rows),
        (OnlineDiskFailurePredictor, "process", "predictor", one),
        (OnlineDiskFailurePredictor, "process_batch", "predictor", rows),
        (OnlineLabeler, "observe", "labeler", returned),
        (OnlineLabeler, "fail", "labeler", returned),
        (OnlineRandomForest, "update", "forest.fit", one),
        (OnlineRandomForest, "partial_fit", "forest.fit", rows),
        (OnlineRandomForest, "predict_one", "forest.predict", one),
        (OnlineRandomForest, "predict_score", "forest.predict", rows),
    ]


def runtime_layers(count: bool) -> List[Tuple[Any, str, str, ItemsFn]]:
    """The supervisor side of the process runtime.

    Frame sizes are re-pickled, which doubles the pickling cost, so the
    timed pass books calls only and the count pass books bytes.
    """
    from repro.runtime import supervisor
    from repro.runtime.supervisor import FleetSupervisor

    return [
        (FleetSupervisor, "ingest", "runtime.ingest", rows),
        (supervisor, "send_frame", "runtime.send", frame_bytes if count else one),
        (supervisor, "recv_frame", "runtime.recv", reply_bytes if count else one),
    ]


@contextlib.contextmanager
def installed(
    clock: LayerClock,
    targets: Sequence[Tuple[Any, str, str, ItemsFn]],
    *,
    trees: bool = False,
) -> Iterator[LayerClock]:
    """Install *clock*'s wrappers on *targets* (and, with *trees*, the
    tree-level count wrappers); restore every original on exit."""
    saved: List[Tuple[Any, str, Any]] = []
    plan: List[Tuple[Any, str, Callable[..., Any]]] = []
    for owner, attr, name, items in targets:
        plan.append((owner, attr, clock.wrap(getattr(owner, attr), name, items)))
    if trees:
        if clock.timed:
            raise ValueError("tree wrappers are count-only")
        plan.extend(_tree_plan(clock))
    try:
        for owner, attr, wrapper in plan:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        yield clock
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _tree_plan(clock: LayerClock) -> List[Tuple[Any, str, Callable[..., Any]]]:
    from repro.core.online_tree import OnlineDecisionTree

    def score_name() -> str:
        return "tree.oob_score" if clock.inside("forest.fit") else "tree.score"

    def update_name() -> str:
        return "tree.inbag_update"

    tree = OnlineDecisionTree
    return [
        (tree, "update_repeated", clock.count(tree.update_repeated, update_name, one)),
        (tree, "update_batch", clock.count(tree.update_batch, update_name, rows)),
        (tree, "predict_one", clock.count(tree.predict_one, score_name, one)),
        (tree, "predict_batch", clock.count(tree.predict_batch, score_name, rows)),
    ]


@contextlib.contextmanager
def worker_dumps(clock: LayerClock, directory: Path) -> Iterator[None]:
    """Make every shard worker forked inside the block write its layer
    totals to ``directory/layers-<pid>.json`` when it drains.

    Workers fork with the parent's wrappers in place, so they record
    into their own copy of *clock*; the copy is reset when the command
    loop starts, which leaves the boot (snapshot load) out.
    """
    from repro.runtime.worker import ShardHost

    original = ShardHost.__dict__["serve"]

    def serve_and_dump(host: Any) -> None:
        clock.reset()
        try:
            original(host)
        finally:
            clock.dump(directory / f"layers-{os.getpid()}.json")

    ShardHost.serve = serve_and_dump  # type: ignore[method-assign]
    try:
        yield
    finally:
        ShardHost.serve = original  # type: ignore[method-assign]


def read_worker_dumps(directory: Path) -> List[Dict[str, Dict[str, float]]]:
    parts = []
    for path in sorted(directory.glob("layers-*.json")):
        parts.append(json.loads(path.read_text()))
        path.unlink()
    return parts
