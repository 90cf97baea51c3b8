"""The repo benchmark: one ledger, four workloads, every layer accounted for.

Replays a pinned synthetic SMART stream through the serving stack and
prints every end-to-end metric by name and unit, checks the outputs,
and (with ``--trace 1``) times each layer from outside by wrapping its
public methods (see ``layers.py``).  ``README.md`` is the glossary.

Every workload starts its episodes from one *warm checkpoint*: the
fleet is grown on the start of the stream until its forests hold a
pinned number of nodes, checkpointed with the library's own rotator,
and each episode restores that checkpoint (the restore is ``setup_s``)
and replays the next window of the stream.  Episodes are identical work, so
they repeat until ``--seconds`` have passed and every one of them must
produce the same alarms, digest and forest bits.

Usage (from the repository root)::

    python3 benchmarks/ledger/ledger.py run --workload exact-paper --seed 1 --seconds 20 --trace 0
    python3 benchmarks/ledger/ledger.py run -o ledger.json          # all workloads, traced too
    python3 benchmarks/ledger/ledger.py run --quick                 # tiny streams, seconds 0
    python3 benchmarks/ledger/ledger.py validate BENCHMARK.json ledger.json
    python3 benchmarks/ledger/ledger.py compare parent/ change/     # verdict per metric
    python3 benchmarks/ledger/ledger.py compare runs/*.json -o benchmarks/ledger/baseline.json

A single-workload ``run`` prints, as its last stdout line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  It exits 1 when a correctness check fails and 2 when the
checkout has no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
from statistics import median
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from loadgen import SATURATION_WINDOW

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"
BASELINE = HERE / "baseline.json"

DEFAULT_SEED = 20180813
N_SHARDS = 2

FORESTS: Dict[str, Dict[str, Any]] = {
    # the paper's T and λn; the split gates are lowered because the
    # paper's α = 200, β = 0.1 leave stumps on synthetic telemetry
    "paper": {
        "n_trees": 30, "n_tests": 20, "min_parent_size": 25,
        "min_gain": 0.005, "lambda_pos": 1.0, "lambda_neg": 0.02,
    },
}
FORESTS["inbag"] = dict(FORESTS["paper"], lambda_neg=1.0)

#: STB preset at this fleet scale, 12 months of daily snapshots
STREAM_SCALE = 0.3
QUICK_SCALE = 0.05
STREAM_MONTHS = 12
QUICK_DIVISOR = 16

#: events per gateway request
GATEWAY_REQUEST_EVENTS = 16

#: how long one run measures (repeating episodes), as BENCHMARK.json says
RUN_SECONDS = 26

#: the paper-forest workloads start from forests grown to this many
#: nodes (both shards, all trees), so every seed measures the same size
#: of model; how fast a stream gets there depends on its failures
WARM_NODES = 700
WARM_CAP = 36864


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    runtime: str          # "inproc" | "process" | "gateway"
    mode: str             # FleetConfig.mode
    forest: str           # key of FORESTS
    batch_size: int       # events per ingest call (per request for the gateway)
    warm_nodes: Optional[int]  # grow the checkpoint's forests to this many nodes ...
    warm_events: int      # ... or through this many stream events, whichever is first
    window_events: int    # events replayed per episode
    saturation_events: int = 0  # gateway only: closed-loop tail of the window
    alarm_threshold: float = 0.5  # FleetConfig.alarm_threshold

    def sized(self, quick: bool) -> "Workload":
        if not quick:
            return self
        return dataclasses.replace(
            self,
            warm_nodes=None,
            warm_events=self.warm_events // QUICK_DIVISOR,
            window_events=self.window_events // QUICK_DIVISOR,
            saturation_events=self.saturation_events // QUICK_DIVISOR,
        )


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "exact-paper",
        "Per-sample Algorithm 2 on a grown paper forest; fit is mostly "
        "out-of-bag tree scoring, so it stresses forest reads and per-call dispatch.",
        "inproc", "exact", "paper", 128, WARM_NODES, WARM_CAP, 8192,
    ),
    Workload(
        "batch-inbag",
        "Batch mode with lambda_neg = 1, so every label updates about every "
        "tree: forest writes dominate and per-sample scoring is absent.",
        # with lambda_neg = 1 the negatives swamp the scores, so 0.5 never
        # fires after warm-up; at 0.05 each window raises a few alarms
        "inproc", "batch", "inbag", 64, None, 4096, 2048, alarm_threshold=0.05,
    ),
    Workload(
        "process-wire",
        "Shard-per-process runtime with small frames, so pickling and the "
        "pipe are visible; the only workload that runs repro.runtime.",
        "process", "batch", "paper", 32, WARM_NODES, WARM_CAP, 12288,
    ),
    Workload(
        "gateway-tcp",
        "One TCP connection: one request in flight, then as many as the gateway "
        "admits; measures the gateway's request path and its micro-batching.",
        "gateway", "batch", "paper", GATEWAY_REQUEST_EVENTS, WARM_NODES, WARM_CAP,
        12288, 9216,
    ),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None            # end-to-end metrics only
    moves: Tuple[Tuple[str, str], ...] = ()  # per-layer: (e2e metric, workload)


#: how much worse a median may get, as a share of the parent's, before
#: ``compare`` calls it a regression, per workload, set from the quartile
#: spreads measured over ten seeds (README, "Bounds"); where the parent's
#: own spread is wider, ``compare`` says unresolved.  BENCHMARK.json has
#: one bound per metric, which every workload's spread must fit under,
#: so it carries the loosest of these.
BOUNDS: Dict[str, Dict[str, float]] = {
    "exact-paper": {"events_per_s": 0.08, "ingest_p50_ms": 0.10, "setup_s": 0.25},
    "batch-inbag": {"events_per_s": 0.08, "ingest_p50_ms": 0.10, "setup_s": 0.25},
    "process-wire": {"events_per_s": 0.25, "ingest_p50_ms": 0.25, "setup_s": 0.25},
    "gateway-tcp": {"events_per_s": 0.15, "ingest_p50_ms": 0.25, "setup_s": 0.25},
}


def _loosest(name: str) -> float:
    return max(bounds[name] for bounds in BOUNDS.values())


END_TO_END: Tuple[Metric, ...] = (
    Metric("events_per_s", "events/s", "higher", _loosest("events_per_s")),
    Metric("ingest_p50_ms", "ms", "lower", _loosest("ingest_p50_ms")),
    Metric("setup_s", "s", "lower", _loosest("setup_s")),
)

#: tail percentiles of the same latency samples; reported in the
#: artifact's ``detail``, not bounded: on this host they measure the
#: neighbours' load more than the program (README, "Bounds")
TAIL_PERCENTILES = (90.0, 99.0)

PER_LAYER: Tuple[Metric, ...] = (
    Metric("forest.fit.us_per_label", "us", "lower", moves=(
        ("events_per_s", "batch-inbag"), ("events_per_s", "exact-paper"),
        ("events_per_s", "gateway-tcp"))),
    Metric("forest.fit.share", "fraction", "lower", moves=(
        ("events_per_s", "batch-inbag"), ("events_per_s", "exact-paper"))),
    Metric("forest.fit.calls_per_event", "count", "lower", moves=(
        ("ingest_p50_ms", "exact-paper"),)),
    Metric("forest.predict.us_per_event", "us", "lower", moves=(
        ("ingest_p50_ms", "exact-paper"),)),
    Metric("forest.predict.share", "fraction", "lower", moves=(
        ("ingest_p50_ms", "exact-paper"),)),
    Metric("labeler.us_per_event", "us", "lower", moves=(
        ("ingest_p50_ms", "process-wire"), ("events_per_s", "gateway-tcp"))),
    Metric("labeler.labels_per_event", "count", "lower", moves=(
        ("events_per_s", "batch-inbag"),)),
    Metric("predictor.self_us_per_event", "us", "lower", moves=(
        ("ingest_p50_ms", "exact-paper"),)),
    Metric("fleet.self_us_per_event", "us", "lower", moves=(
        ("ingest_p50_ms", "process-wire"), ("events_per_s", "gateway-tcp"))),
    Metric("fleet.self_share", "fraction", "lower", moves=(
        ("ingest_p50_ms", "process-wire"),)),
    Metric("fleet.wait_us_per_event", "us", "lower", moves=(
        ("events_per_s", "process-wire"), ("ingest_p50_ms", "process-wire"))),
    Metric("fleet.events_per_call", "count", "higher", moves=(
        ("events_per_s", "gateway-tcp"),)),
    Metric("front.us_per_event", "us", "lower", moves=(
        ("events_per_s", "gateway-tcp"), ("ingest_p50_ms", "gateway-tcp"))),
    Metric("wire.bytes_per_event", "count", "lower", moves=(
        ("events_per_s", "process-wire"), ("events_per_s", "gateway-tcp"))),
    Metric("tree.inbag_updates_per_label", "count", "lower", moves=(
        ("events_per_s", "batch-inbag"),)),
    Metric("tree.oob_scores_per_label", "count", "lower", moves=(
        ("events_per_s", "exact-paper"),)),
    Metric("tree.scores_per_event", "count", "lower", moves=(
        ("ingest_p50_ms", "exact-paper"),)),
    Metric("tree.nodes_end", "count", "lower", moves=(
        ("events_per_s", "exact-paper"), ("ingest_p50_ms", "process-wire"))),
    Metric("tree.replacements", "count", "lower", moves=(
        ("events_per_s", "exact-paper"),)),
    Metric("state.mb", "MB", "lower", moves=(
        ("setup_s", "exact-paper"), ("setup_s", "process-wire"))),
    # measurement quality, not a layer: these qualify the numbers above
    Metric("trace.overhead_frac", "fraction", "lower"),
    Metric("trace.closure_frac", "fraction", "lower"),
)

#: digest keys that do not depend on micro-batch boundaries
STABLE_DIGEST_KEYS = (
    "events", "samples", "failures", "queue_depth", "monitored_disks",
    "tree_replacements", "quarantined",
)

#: the alarm hash of a window that raised no alarm
EMPTY_SHA256 = hashlib.sha256().hexdigest()

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# =================================================================== inputs
def build_stream(seed: int, quick: bool) -> Tuple[int, List[Any]]:
    """The pinned stream: (n_features, DiskEvents in arrival order)."""
    from repro.eval.protocol import prepare_arrays
    from repro.features.selection import FeatureSelection
    from repro.service import fleet_events
    from repro.smart.drive_model import STB, scaled_spec
    from repro.smart.generator import generate_dataset

    spec = scaled_spec(
        STB,
        fleet_scale=QUICK_SCALE if quick else STREAM_SCALE,
        duration_months=STREAM_MONTHS,
    )
    dataset = generate_dataset(spec, seed=seed)
    arrays, _ = prepare_arrays(dataset, FeatureSelection.paper_table2())
    fail_day = {d.serial: d.fail_day for d in dataset.drives if d.failed}
    return arrays.n_features, list(fleet_events(arrays, fail_day))


def fleet_config(wl: Workload, n_features: int, seed: int) -> Any:
    from repro.service import FleetConfig

    return FleetConfig(
        n_features=n_features,
        n_shards=N_SHARDS,
        seed=seed,
        forest=FORESTS[wl.forest],
        mode=wl.mode,
        runtime="process" if wl.runtime == "process" else "inproc",
        alarm_threshold=wl.alarm_threshold,
    )


def warm_checkpoint(
    wl: Workload, cfg: Any, events: Sequence[Any], work: Path
) -> Tuple[Path, int]:
    """Grow a fleet on the stream prefix and checkpoint it; returns the
    checkpoint and how many events went into it.

    Batch and exact mode evolve the forest identically, so the prefix
    runs in batch mode with large batches, whatever the workload's mode.
    """
    from repro.service import CheckpointRotator, FleetMonitor

    fleet = FleetMonitor.build(
        dataclasses.replace(cfg, mode="batch", runtime="inproc"), strict=False
    )
    n_warm = 0
    while n_warm < wl.warm_events:
        step = min(1024, wl.warm_events - n_warm)
        fleet.ingest(events[n_warm:n_warm + step])
        n_warm += step
        nodes = sum(t.n_nodes for shard in fleet.shards for t in shard.forest.trees)
        if wl.warm_nodes is not None and nodes >= wl.warm_nodes:
            break
    rotator = CheckpointRotator(work / "warm", every_samples=1 << 62, retention=1)
    return Path(rotator.rotate(fleet)), n_warm


# =================================================================== checks
def alarm_hash(emitted: Sequence[Any]) -> str:
    h = hashlib.sha256()
    for e in emitted:
        h.update(
            f"{e.seq}|{e.shard}|{e.alarm.disk_id!r}|{e.alarm.tag!r}|"
            f"{e.alarm.score!r}|{e.action.value}\n".encode()
        )
    return h.hexdigest()


def state_check(directory: Path) -> Dict[str, Any]:
    """Bytes, forest-and-labeler fingerprint and node count of the shard
    snapshots in *directory* (predictor stats are left out: alarm counts
    legitimately differ between exact and batch scoring)."""
    import numpy as np

    from repro.persistence import load_model

    h = hashlib.sha256()
    n_bytes = nodes = 0
    for i in range(N_SHARDS):
        path = directory / f"shard{i}.npz"
        n_bytes += path.stat().st_size
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(bytes(data["__meta__"].tobytes()).decode("utf-8"))
            h.update(json.dumps([meta["forest"], meta["disks"]], sort_keys=True).encode())
            for key in sorted(k for k in data.files if k != "__meta__"):
                arr = data[key]
                h.update(f"{key}|{arr.dtype}|{arr.shape}".encode())
                h.update(arr.tobytes())
        nodes += sum(t.n_nodes for t in load_model(path).forest.trees)
    return {"state_bytes": n_bytes, "fingerprint": h.hexdigest(), "nodes": nodes}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ================================================================= episodes
def open_fleet(wl: Workload, cfg: Any, ckpt: Path, work: Path) -> Tuple[Any, Any]:
    """Restore the warm checkpoint; returns (fleet, close)."""
    if wl.runtime == "process":
        from repro.runtime import FleetSupervisor

        fleet = FleetSupervisor.from_checkpoint(
            ckpt, config=cfg, strict=False, spool_dir=fresh_dir(work / "spool")
        )
        return fleet, fleet.close
    from repro.service import FleetMonitor

    fleet = FleetMonitor.from_checkpoint(ckpt, config=cfg, strict=False)
    return fleet, lambda: None


def closed_loop_episode(
    wl: Workload, cfg: Any, ckpt: Path, window: Sequence[Any], work: Path,
    batch_size: int, kind: str,
) -> Dict[str, Any]:
    """Restore, replay *window* in closed loop, snapshot; one episode."""
    import layers

    clock = layers.LayerClock(timed=kind == "timed")
    targets: List[Any] = []
    if kind != "plain":
        targets = layers.forest_layers()
        if wl.runtime == "process":
            targets += layers.runtime_layers(count=kind == "count")
    dumps = fresh_dir(work / "dumps")
    in_workers = (
        layers.worker_dumps(clock, dumps)
        if targets and wl.runtime == "process" else contextlib.nullcontext()
    )
    with layers.installed(clock, targets, trees=kind == "count"):
        with in_workers:
            t0 = time.perf_counter()
            fleet, close = open_fleet(wl, cfg, ckpt, work)
            setup = time.perf_counter() - t0
            try:
                clock.reset()
                latencies: List[float] = []
                emitted: List[Any] = []
                start = time.perf_counter()
                for s in range(0, len(window), batch_size):
                    a = time.perf_counter()
                    out = fleet.ingest(window[s:s + batch_size])
                    latencies.append(time.perf_counter() - a)
                    emitted.extend(out)
                wall = time.perf_counter() - start
                # before the digest and snapshot calls below reach the wire
                replay_layers = clock.totals()
                ingest_s = fleet.instruments.ingest_seconds.sum
                digest = fleet.digest()
                fleet.write_shard_snapshots(fresh_dir(work / "state"))
            finally:
                close()
    parts = [replay_layers] + layers.read_worker_dumps(dumps)
    check = {
        "alarms": alarm_hash(emitted),
        "digest": {k: v for k, v in digest.items()
                   if k not in ("samples_per_sec", "checkpoint_age")},
        **state_check(work / "state"),
    }
    return {
        "kind": kind, "setup": setup, "wall": wall, "events": len(window),
        "latencies": latencies, "front": wall - ingest_s,
        "failed": int(digest["quarantined"]), "check": check,
        "parent_layers": replay_layers, "layers": layers.merge_totals(parts),
        "spans": clock.spans, "bytes": 0,
    }


def gateway_episode(
    wl: Workload, cfg: Any, ckpt: Path, window: Sequence[Any], work: Path,
    kind: str,
) -> Dict[str, Any]:
    import loadgen

    n_serial = wl.window_events - wl.saturation_events
    per = wl.batch_size
    serial_lines = loadgen.encode_requests(window[:n_serial], per, 0)
    sat_lines = loadgen.encode_requests(window[n_serial:], per, len(serial_lines))
    state = fresh_dir(work / "state")
    mode = {"plain": "none", "timed": "time", "count": "count"}[kind]
    cmd = loadgen.server_command(HERE / "ledger.py", ckpt, cfg.to_dict(), mode, state)
    raw = loadgen.gateway_episode(
        cmd, cwd=ROOT, serial_lines=serial_lines, sat_lines=sat_lines
    )
    shed_requests = sum(raw[p]["shed"] + raw[p]["errors"] for p in ("serial", "saturation"))
    digest = raw["digest"]
    sat = raw["sat_server"]
    sat_wall = raw["saturation"]["wall"]
    return {
        "kind": kind, "setup": raw["setup"], "wall": sat_wall,
        "events": len(window), "sat_events": len(window) - n_serial,
        "latencies": raw["serial"]["latency"],
        "front": sat_wall - sat.get("repro_fleet_ingest_seconds_sum", 0.0),
        "failed": shed_requests * per,
        "check": {
            "alarms": None,
            "digest": {k: digest[k] for k in STABLE_DIGEST_KEYS},
            **state_check(state),
        },
        "parent_layers": raw["layers"], "layers": raw["layers"], "spans": [],
        "bytes": raw["bytes"], "raw": raw,
    }


def reference_check(
    wl: Workload, cfg: Any, ckpt: Path, window: Sequence[Any], work: Path
) -> Optional[Dict[str, Any]]:
    """What an in-process batch replay of the same window produces.

    The process runtime must match it bit for bit (same batches); exact
    mode and the gateway must match its forest bits and the digest keys
    micro-batch boundaries cannot move.  ``batch-inbag`` *is* this
    replay, so it has no separate reference.
    """
    if wl.runtime == "inproc" and wl.mode == "batch":
        return None
    ref = dataclasses.replace(wl, runtime="inproc", mode="batch")
    batch = wl.batch_size if wl.runtime == "process" else 1024
    ep = closed_loop_episode(
        ref, dataclasses.replace(cfg, mode="batch", runtime="inproc"), ckpt,
        window, work, batch, "plain",
    )
    return ep["check"]


def comparable(check: Dict[str, Any], full: bool) -> Dict[str, Any]:
    if full:
        return check
    return {
        "digest": {k: check["digest"][k] for k in STABLE_DIGEST_KEYS},
        "fingerprint": check["fingerprint"],
        "nodes": check["nodes"],
    }


# ================================================================= metrics
def pct(values: Sequence[float], q: float) -> float:
    from repro.obs import percentile

    return percentile(list(values), q)


def e2e_metrics(
    wl: Workload, plain: List[Dict[str, Any]]
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, float]]:
    """End-to-end metrics, and the latency tail for the artifact's detail."""
    if wl.runtime == "gateway":
        rates = [ep["sat_events"] / ep["wall"] for ep in plain]
    else:
        rates = [ep["events"] / ep["wall"] for ep in plain]
    lat = [x for ep in plain for x in ep["latencies"]]
    values = {
        "events_per_s": (median(rates), len(rates)),
        "ingest_p50_ms": (1e3 * pct(lat, 50.0), len(lat)),
        "setup_s": (median([ep["setup"] for ep in plain]), len(plain)),
    }
    metrics = {
        m.name: {"value": values[m.name][0], "unit": m.unit, "n": values[m.name][1]}
        for m in END_TO_END
    }
    tail = {f"ingest_p{q:.0f}_ms": 1e3 * pct(lat, q) for q in TAIL_PERCENTILES}
    return metrics, dict(tail, ingest_samples=len(lat))


def layer_metrics(
    wl: Workload,
    plain: List[Dict[str, Any]],
    timed: List[Dict[str, Any]],
    count: Dict[str, Any],
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, float]]:
    """Per-layer metrics (in PER_LAYER) and workload-specific detail."""
    from layers import merge_totals

    fleet_layer = "runtime.ingest" if wl.runtime == "process" else "fleet.ingest"
    T = merge_totals([ep["layers"] for ep in timed])
    E = sum(ep["events"] for ep in timed)
    C = count["layers"]
    EC = count["events"]

    def t(name: str, key: str) -> float:
        return float(T.get(name, {}).get(key, 0.0))

    def c(name: str, key: str) -> float:
        return float(C.get(name, {}).get(key, 0.0))

    compute = sum(rec["self_s"] for name, rec in T.items() if name != "runtime.recv")

    def fleet_s(ep: Dict[str, Any], phase: str) -> float:
        return ep["raw"][f"{phase}_server"]["repro_fleet_ingest_seconds_sum"]

    def cost(ep: Dict[str, Any]) -> float:
        # the gateway's saturating phase coalesces requests by arrival
        # timing, so a traced server does other flushes than an untraced
        # one; its serial phase flushes each request alone in both
        return fleet_s(ep, "serial") if wl.runtime == "gateway" else ep["wall"]

    def filled(ep: Dict[str, Any]) -> float:
        """The time the caller's layers fill: the wall, or the server's fleet time."""
        if wl.runtime == "gateway":
            return fleet_s(ep, "serial") + fleet_s(ep, "sat")
        return ep["wall"]

    # each traced episode against the untraced one run just before it,
    # so drift in the host's speed over a run cancels
    pairs = list(zip(plain, timed))
    overhead = median([cost(t_ep) / cost(p_ep) for p_ep, t_ep in pairs]) - 1.0
    # against the episode the self times were measured in: another
    # episode's wall differs by its own noise (+-15% on process-wire),
    # which would swamp a +-5% check; the overhead is reported above
    closure = median([
        sum(rec["self_s"] for rec in ep["parent_layers"].values()) / filled(ep)
        for ep in timed
    ])
    fit_labels = max(c("forest.fit", "items"), 1.0)
    if wl.runtime == "process":
        wire = (c("runtime.send", "items") + c("runtime.recv", "items")) / EC
    else:
        wire = count["bytes"] / EC
    # the wall "front" is measured over: the window, or the saturation tail
    front_events = wl.saturation_events if wl.runtime == "gateway" else wl.window_events
    values = {
        "forest.fit.us_per_label": 1e6 * t("forest.fit", "incl_s") / max(t("forest.fit", "items"), 1.0),
        "forest.fit.share": t("forest.fit", "incl_s") / compute,
        "forest.fit.calls_per_event": c("forest.fit", "calls") / EC,
        "forest.predict.us_per_event": 1e6 * t("forest.predict", "incl_s") / max(t("forest.predict", "items"), 1.0),
        "forest.predict.share": t("forest.predict", "incl_s") / compute,
        "labeler.us_per_event": 1e6 * t("labeler", "incl_s") / E,
        "labeler.labels_per_event": c("labeler", "items") / EC,
        "predictor.self_us_per_event": 1e6 * t("predictor", "self_s") / E,
        "fleet.self_us_per_event": 1e6 * t(fleet_layer, "self_s") / E,
        "fleet.self_share": t(fleet_layer, "self_s") / compute,
        "fleet.wait_us_per_event": 1e6 * (t(fleet_layer, "incl_s") - t(fleet_layer, "self_s")) / E,
        "fleet.events_per_call": c(fleet_layer, "items") / max(c(fleet_layer, "calls"), 1.0),
        "front.us_per_event": 1e6 * median([ep["front"] for ep in plain]) / front_events,
        "wire.bytes_per_event": wire,
        "tree.inbag_updates_per_label": c("tree.inbag_update", "items") / fit_labels,
        "tree.oob_scores_per_label": c("tree.oob_score", "items") / fit_labels,
        "tree.scores_per_event": c("tree.score", "items") / EC,
        "tree.nodes_end": count["check"]["nodes"],
        "tree.replacements": count["check"]["digest"]["tree_replacements"],
        "state.mb": count["check"]["state_bytes"] / 1e6,
        "trace.overhead_frac": overhead,
        "trace.closure_frac": closure,
    }
    metrics = {
        m.name: {"value": values[m.name], "unit": m.unit, "n": len(timed)}
        for m in PER_LAYER
    }
    detail: Dict[str, float] = {}
    if wl.runtime == "process":
        detail = {
            "runtime.send_us_per_event": 1e6 * t("runtime.send", "incl_s") / E,
            "runtime.wait_us_per_event": 1e6 * t("runtime.recv", "incl_s") / E,
            "runtime.frame_bytes_per_event": c("runtime.send", "items") / EC,
            "runtime.reply_bytes_per_event": c("runtime.recv", "items") / EC,
        }
    elif wl.runtime == "gateway":
        detail = gateway_detail(plain)
    return metrics, detail


def gateway_detail(plain: List[Dict[str, Any]]) -> Dict[str, float]:
    """Serial-phase server numbers from the ``metrics`` op, medians over episodes."""
    rows = []
    for ep in plain:
        srv = ep["raw"]["serial_server"]

        def mean(name: str) -> float:
            return srv[f"{name}_sum"] / max(srv[f"{name}_count"], 1.0)

        server_ms = 1e3 * mean("repro_gateway_request_seconds")
        flush_ms = 1e3 * mean("repro_gateway_flush_seconds")
        rows.append({
            "gateway.server_ms_per_request": server_ms,
            "gateway.queue_ms_per_request": server_ms - flush_ms,
            "gateway.flush_ms": flush_ms,
            "gateway.events_per_flush": mean("repro_gateway_batch_events"),
            "gateway.client_ms_per_request":
                1e3 * statistics.fmean(ep["latencies"]) - server_ms,
        })
    return {key: median([r[key] for r in rows]) for key in rows[0]}


# ===================================================================== run
def run_workload(
    wl: Workload, *, seed: int, seconds: float, trace: Optional[int], quick: bool,
    spans_to: Optional[Path] = None,
) -> Dict[str, Any]:
    wl = wl.sized(quick)
    work = fresh_dir(WORK / f"run-{os.getpid()}-{wl.name}")
    try:
        with one_cpu(wl.runtime != "inproc"):
            return _run_workload(
                wl, seed=seed, seconds=seconds, trace=trace, quick=quick, work=work,
                spans_to=spans_to,
            )
    finally:
        gc.unfreeze()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no other run is using it


@contextlib.contextmanager
def one_cpu(pin: bool) -> Iterator[None]:
    """Keep this process, and every process it starts inside the block,
    on one CPU.

    The process runtime and the gateway hand every call from one process
    to another. Spread over a VM's vCPUs, each hand-off may wake a
    halted vCPU, which takes as long as the host's scheduler makes it;
    on one CPU the hand-offs stay in the guest (README, "One CPU").
    """
    allowed = os.sched_getaffinity(0)
    if pin:
        os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        if pin:
            os.sched_setaffinity(0, allowed)


def _run_workload(
    wl: Workload, *, seed: int, seconds: float, trace: Optional[int], quick: bool,
    work: Path, spans_to: Optional[Path],
) -> Dict[str, Any]:
    n_features, events = build_stream(seed, quick)
    if len(events) < wl.warm_events + wl.window_events:
        raise SystemExit(
            f"stream has {len(events)} events, {wl.name} needs "
            f"{wl.warm_events + wl.window_events}"
        )
    cfg = fleet_config(wl, n_features, seed)
    ckpt, n_warm = warm_checkpoint(wl, cfg, events, work)
    window = events[n_warm:n_warm + wl.window_events]
    # the stream belongs to the load generator: keep the collector from
    # walking it on the clock of the fleet that shares this process
    gc.collect()
    gc.freeze()

    def episode(kind: str) -> Dict[str, Any]:
        if wl.runtime == "gateway":
            return gateway_episode(wl, cfg, ckpt, window, work, kind)
        return closed_loop_episode(wl, cfg, ckpt, window, work, wl.batch_size, kind)

    kinds = ["plain"] if trace == 0 else ["plain", "timed"]
    episodes: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while len(episodes) < len(kinds) or time.perf_counter() - start < seconds:
        episodes.append(episode(kinds[len(episodes) % len(kinds)]))
    if trace != 0:
        episodes.append(episode("count"))
    plain = [ep for ep in episodes if ep["kind"] == "plain"]
    timed = [ep for ep in episodes if ep["kind"] == "timed"]
    count = [ep for ep in episodes if ep["kind"] == "count"]

    problems = correctness(wl, cfg, ckpt, window, work, episodes, n_warm, seed, quick)
    result: Dict[str, Any] = {
        "workload": wl.name,
        "config": run_config(wl, seed, quick, len(events), n_warm),
        "correct": not problems,
        "problems": problems,
        "attempted": sum(ep["events"] for ep in episodes),
        "failed": sum(ep["failed"] for ep in episodes),
        "episodes": {k: sum(ep["kind"] == k for ep in episodes) for k in ("plain", "timed", "count")},
        "check": plain[0]["check"],
        "metrics": {},
        "detail": {},
    }
    if trace != 1:
        e2e, tail = e2e_metrics(wl, plain)
        result["metrics"].update(e2e)
        result["detail"].update(tail)
    if trace != 0:
        layer, detail = layer_metrics(wl, plain, timed, count[0])
        result["metrics"].update(layer)
        result["detail"].update(detail)
        if spans_to is not None:
            spans_to.write_text(json.dumps([list(s) for s in timed[-1]["spans"]]))
    return result


def correctness(
    wl: Workload, cfg: Any, ckpt: Path, window: Sequence[Any], work: Path,
    episodes: List[Dict[str, Any]], n_warm: int, seed: int, quick: bool,
) -> List[str]:
    """Every episode — untraced, traced, counted — must agree with the
    first, with the in-process reference, and at the default seed with
    ``baseline.json``'s expected block."""
    problems: List[str] = []
    # gateway flushes follow arrival timing, so its alarm scores (and the
    # alarm counts in snapshots) may differ; the forest bits may not
    full = wl.runtime != "gateway"
    if wl.runtime == "gateway":
        for i, ep in enumerate(episodes):
            delivered = ep["check"]["digest"]["events"] - n_warm
            if delivered != ep["events"] - ep["failed"]:
                problems.append(
                    f"episode {i}: server ingested {delivered} events, "
                    f"sent {ep['events']} with {ep['failed']} shed"
                )
        clean = [ep for ep in episodes if ep["failed"] == 0]
    else:
        clean = episodes
    if not clean:
        return problems + ["no episode ran without shed or quarantined events"]
    first = comparable(clean[0]["check"], full)
    for i, ep in enumerate(clean[1:], 1):
        if comparable(ep["check"], full) != first:
            problems.append(f"{ep['kind']} episode {i} differs from the first: {ep['check']} != {first}")
    ref = reference_check(wl, cfg, ckpt, window, work)
    if ref is not None:
        same_batches = wl.runtime == "process"
        if comparable(clean[0]["check"], same_batches) != comparable(ref, same_batches):
            problems.append(f"differs from the in-process batch replay: {first} != {ref}")
    if seed == DEFAULT_SEED and not quick and full and first["alarms"] == EMPTY_SHA256:
        problems.append("the window raised no alarms, so the alarm check is empty")
    if seed == DEFAULT_SEED and not quick and BASELINE.exists():
        expected = json.loads(BASELINE.read_text()).get("expected", {}).get(wl.name)
        if expected is not None and comparable(expected, full) != first:
            problems.append(f"differs from baseline.json expected: {first} != {expected}")
    return problems


def run_config(
    wl: Workload, seed: int, quick: bool, n_events: int, n_warm: int
) -> Dict[str, Any]:
    return {
        "stream": "stb-quick" if quick else "stb30",
        "fleet_scale": QUICK_SCALE if quick else STREAM_SCALE,
        "months": STREAM_MONTHS,
        "stream_events": n_events,
        "seed": seed,
        "runtime": wl.runtime,
        "mode": wl.mode,
        "forest_shape": wl.forest,
        "forest": FORESTS[wl.forest],
        "shards": N_SHARDS,
        "batch_size": wl.batch_size,
        "alarm_threshold": wl.alarm_threshold,
        "warm_nodes": wl.warm_nodes,
        "warm_events_cap": wl.warm_events,
        "warm_events": n_warm,
        "window_events": wl.window_events,
        **({"saturation_events": wl.saturation_events,
            "saturation_window": SATURATION_WINDOW} if wl.runtime == "gateway" else {}),
    }


def host_stamp() -> Dict[str, Any]:
    import numpy as np

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "host_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_sha": sha,
    }


def result_line(result: Dict[str, Any]) -> str:
    """The one-line result: the run's metrics without their sample counts."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    })


def cmd_run(args: argparse.Namespace) -> int:
    seconds = args.seconds if args.seconds is not None else (0.0 if args.quick else RUN_SECONDS)
    chosen = [w for w in WORKLOADS if args.workload in (None, w.name)]
    results = []
    for wl in chosen:
        spans_to = None
        if args.output:
            out = Path(args.output)
            spans_to = out.with_name(f"{out.stem}.spans-{wl.name}.json")
        result = run_workload(
            wl, seed=args.seed, seconds=seconds, trace=args.trace, quick=args.quick,
            spans_to=spans_to,
        )
        results.append(result)
        for problem in result["problems"]:
            print(f"{wl.name}: INCORRECT: {problem}", file=sys.stderr)
        for name, m in result["metrics"].items():
            print(f"{wl.name:13s} {name:30s} {m['value']:14.6g} {m['unit']:9s} n={m['n']}",
                  file=sys.stderr if args.workload else sys.stdout)
    if args.output:
        artifact = {
            "format": 1, "host": host_stamp(), "seed": args.seed,
            "quick": args.quick, "seconds": seconds, "runs": results,
        }
        Path(args.output).write_text(json.dumps(artifact, indent=1) + "\n")
    correct = all(r["correct"] for r in results)
    if args.workload:
        print(result_line(results[0]))
    return 0 if correct else 1


# ================================================================ validate
def benchmark_spec() -> Dict[str, Any]:
    """``BENCHMARK.json`` as this ledger defines it."""
    return {
        "command": ["python3", "benchmarks/ledger/ledger.py", "run"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def validate_benchmark(doc: Any) -> List[str]:
    """``BENCHMARK.json`` against this ledger and the limits its format sets."""
    spec = benchmark_spec()
    if doc != spec:
        return ["BENCHMARK.json differs from the ledger's workloads and metrics"]
    p: List[str] = []
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in spec[key]]
    p += [f"bad name {n!r}" for n in names if not NAME_RE.match(n)]
    p += [f"name {n!r} used twice" for n in sorted(set(names)) if names.count(n) > 1]
    if not (2 <= len(WORKLOADS) <= 8 and 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128):
        p.append("2-8 workloads, 1-16 end-to-end and 1-128 per-layer metrics")
    p += [f"workload {w.name}: why is not one line of <= 200 characters"
          for w in WORKLOADS if len(w.why) > 200 or "\n" in w.why]
    for m in END_TO_END + PER_LAYER:
        if not UNIT_RE.match(m.unit) or m.better not in ("lower", "higher"):
            p.append(f"{m.name}: bad unit or direction")
    p += [f"{m.name}: bound must be in (0, 0.25]"
          for m in END_TO_END if not (m.bound and 0 < m.bound <= 0.25)]
    if ("setup_s", "s", "lower") not in [(m.name, m.unit, m.better) for m in END_TO_END]:
        p.append("end_to_end must define setup_s in s, lower is better")
    elif max(m.bound or 0.0 for m in END_TO_END) > _loosest("setup_s"):
        p.append("setup_s must have the largest bound")
    p += [f"BOUNDS[{w!r}] must bound exactly the end-to-end metrics"
          for w in WORKLOAD_NAMES if set(BOUNDS.get(w, {})) != {m.name for m in END_TO_END}]
    if not 1 <= RUN_SECONDS <= 60:
        p.append("run_seconds must be 1 to 60")
    e2e_names = {m.name for m in END_TO_END}
    for m in PER_LAYER:
        if not m.moves and not m.name.startswith("trace."):
            p.append(f"per-layer {m.name}: names no end-to-end metric it moves")
        for target, workload in m.moves:
            if target not in e2e_names or workload not in WORKLOAD_NAMES:
                p.append(f"per-layer {m.name}: moves unknown ({target}, {workload})")
    return p


def validate_artifact(doc: Any) -> List[str]:
    p: List[str] = []
    host = doc.get("host", {}) if isinstance(doc, dict) else {}
    for key in ("host_cpus", "python", "numpy", "git_sha"):
        if key not in host:
            p.append(f"host stamp lacks {key}")
    for run in doc.get("runs", []) if isinstance(doc, dict) else []:
        wl = run.get("workload")
        for key in ("mode", "forest", "batch_size", "stream", "seed"):
            if key not in run.get("config", {}):
                p.append(f"{wl}: config lacks {key}")
        metrics = run.get("metrics", {})
        for m in END_TO_END:
            if m.name in metrics and "n" not in metrics[m.name]:
                p.append(f"{wl}: {m.name} records no sample count")
        closure = metrics.get("trace.closure_frac")
        if closure is not None and not 0.95 <= closure["value"] <= 1.05:
            p.append(f"{wl}: trace.closure_frac {closure['value']:.3f} outside 1 +- 0.05")
        if not run.get("correct"):
            p.append(f"{wl}: run was not correct: {run.get('problems')}")
    return p


def cmd_validate(args: argparse.Namespace) -> int:
    paths = args.paths or [str(ROOT / "BENCHMARK.json")]
    problems: List[str] = []
    for path in paths:
        doc = json.loads(Path(path).read_text())
        found = validate_artifact(doc) if "runs" in doc else validate_benchmark(doc)
        problems += [f"{path}: {x}" for x in found]
    for x in problems:
        print(x, file=sys.stderr)
    if not problems:
        print(f"valid: {', '.join(paths)}")
    return 1 if problems else 0


# ================================================================= compare
def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _load_group(paths: Sequence[Path]) -> List[Dict[str, Dict[str, float]]]:
    """Per artifact file: {workload: {metric: value}}, in file-name order."""
    out = []
    for path in sorted(paths):
        doc = json.loads(path.read_text())
        out.append({
            run["workload"]: {k: v["value"] for k, v in run["metrics"].items()}
            for run in doc["runs"]
        })
    return out


def _groups(paths: Sequence[str]) -> List[List[Path]]:
    """Directories each form a group; loose files group by their directory."""
    groups: Dict[Path, List[Path]] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            groups.setdefault(path, []).extend(
                p for p in sorted(path.glob("*.json")) if ".spans-" not in p.name
            )
        else:
            groups.setdefault(path.parent, []).append(path)
    return list(groups.values())


def verdict(
    metric: Metric, bound: float, parent: List[float], change: List[float]
) -> Tuple[str, int, int]:
    """improved / unresolved / regressed / unchanged, with pair wins;
    *bound* is the workload's (``BOUNDS``)."""
    sign = 1.0 if metric.better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    pq1, pm, pq3 = _quartiles(parent)
    cm = median(change)
    if wins >= 0.9 * len(pairs) and sign * (cm - pm) > pq3 - pq1:
        return "improved", wins, len(pairs)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (pq3 - pq1) / abs(pm) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if -sign * (cm - pm) / abs(pm) > bound:
        return "regressed", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def cmd_compare(args: argparse.Namespace) -> int:
    groups = _groups(args.paths)
    if len(groups) not in (1, 2):
        print("compare takes one group (summary) or two (parent, change)", file=sys.stderr)
        return 2
    loaded = [_load_group(g) for g in groups]
    regressed = False
    summary: Dict[str, Dict[str, Dict[str, float]]] = {}
    metric_by_name = {m.name: m for m in END_TO_END + PER_LAYER}
    for wl in WORKLOAD_NAMES:
        names = [n for n in metric_by_name if all(wl in run and n in run[wl] for run in loaded[0])]
        for name in names:
            parent = [run[wl][name] for run in loaded[0]]
            q1, q2, q3 = _quartiles(parent)
            summary.setdefault(wl, {})[name] = {"median": q2, "q1": q1, "q3": q3, "n": len(parent)}
            line = f"{wl:13s} {name:30s} parent {q2:12.6g} [{q1:.6g}, {q3:.6g}]"
            if len(loaded) == 2 and name in BOUNDS[wl]:
                change = [run[wl][name] for run in loaded[1] if wl in run]
                c1, c2, c3 = _quartiles(change)
                v, wins, n = verdict(metric_by_name[name], BOUNDS[wl][name], parent, change)
                regressed |= v == "regressed"
                line += f"  change {c2:12.6g} [{c1:.6g}, {c3:.6g}]  wins {wins}/{n}  {v}"
            print(line)
    if args.output:
        docs = [json.loads(p.read_text()) for p in sorted(groups[0])]
        baseline: Dict[str, Any] = {
            "format": 1, "host": docs[0]["host"], "runs": len(docs),
            "seed": docs[0]["seed"], "baseline": summary,
        }
        checks: Dict[str, Any] = {}
        for doc in docs:
            if doc["seed"] != DEFAULT_SEED or doc["quick"]:
                continue
            for run in doc["runs"]:
                check = comparable(run["check"], full=run["config"]["runtime"] != "gateway")
                if checks.setdefault(run["workload"], check) != check:
                    print(f"{run['workload']}: runs disagree on the expected check", file=sys.stderr)
                    return 1
        baseline["expected"] = checks
        Path(args.output).write_text(json.dumps(baseline, indent=1) + "\n")
    return 1 if regressed else 0


# =============================================================== entrypoint
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", choices=WORKLOAD_NAMES)
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=None,
                     help="keep repeating episodes this long (default 20; 0 with --quick)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=None,
                     help="0: end-to-end only; 1: per-layer only; default both")
    run.add_argument("--quick", action="store_true", help="tiny streams, for tests")
    run.add_argument("-o", "--output", help="write the full artifact here")
    val = sub.add_parser("validate", help="check BENCHMARK.json and/or artifacts")
    val.add_argument("paths", nargs="*")
    cmp_ = sub.add_parser("compare", help="medians, quartiles and verdicts")
    cmp_.add_argument("paths", nargs="+")
    cmp_.add_argument("-o", "--output", help="write a baseline file from the first group")
    srv = sub.add_parser("serve-gateway", help=argparse.SUPPRESS)
    srv.add_argument("--checkpoint", required=True)
    srv.add_argument("--config", required=True)
    srv.add_argument("--layers", choices=("none", "time", "count"), default="none")
    srv.add_argument("--state-dir", required=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.cmd in ("run", "serve-gateway"):
        if not (SRC / "repro" / "__init__.py").is_file():
            print(f"error: no library to benchmark at {SRC / 'repro'}", file=sys.stderr)
            return 2
        sys.path.insert(0, str(SRC))
    if args.cmd == "run":
        return cmd_run(args)
    if args.cmd == "validate":
        return cmd_validate(args)
    if args.cmd == "compare":
        return cmd_compare(args)
    import loadgen

    return loadgen.serve_gateway(
        args.checkpoint, json.loads(args.config), args.layers, args.state_dir
    )


if __name__ == "__main__":
    # a terminated run unwinds, so it still stops the workers and the
    # gateway server it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    raise SystemExit(main())
