"""The ``gateway-tcp`` workload: a gateway server subprocess and its load.

:func:`serve_gateway` is the server side (``ledger.py serve-gateway``):
an in-process fleet restored from the warm checkpoint behind a real
:class:`~repro.gateway.server.GatewayServer`, optionally with the
ledger's layer wrappers installed.  It prints ``PORT <n>`` once it
listens and, after the drain, one JSON line with its layer totals.

:func:`gateway_episode` is the client side, one connection that runs
two phases against a fresh server:

* **serial** — one request in flight: each request is sent when the
  reply to the one before it arrives, and timed from send to reply.
  With nothing queued, that is the request path's own latency:
  protocol, event loop, one flush of the request's events.  (An open
  loop on a timer leaves the CPU idle between requests, and on a VM
  every request then also waits for the host to wake a halted vCPU:
  README, "One CPU".)
* **saturation** — a closed loop keeping as many requests in flight on
  the same connection as the server admits on one connection
  (``max_inflight``); its delivered rate is the most one connection can
  get through the gateway.  Throughput still rises from a window of 32
  to 64 (README, "Choosing the saturation window"), so no smaller
  window would measure the server rather than the client.

Requests refused with ``overloaded`` may carry ``"id": null`` (the
per-connection in-flight cap answers before it reads the id), so a
refusal is counted as shed without waiting for an id.
"""

from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ADMIN_TOKEN = "ledger-drain"

#: requests kept in flight during the saturation phase; the server is
#: started with this as its per-connection ``max_inflight`` (the
#: gateway's default), so the window is exactly what it admits
SATURATION_WINDOW = 64

#: histograms read from the server's ``metrics`` op around each phase
SERVER_HISTOGRAMS = (
    "repro_gateway_request_seconds",
    "repro_gateway_flush_seconds",
    "repro_gateway_batch_events",
    "repro_fleet_ingest_seconds",
)

#: seconds to wait for the server to listen or to exit after a drain
SERVER_TIMEOUT = 120.0


# ------------------------------------------------------------------ server
def serve_gateway(
    checkpoint: str, config: Dict[str, Any], layers_mode: str, state_dir: str
) -> int:
    import asyncio

    from layers import LayerClock, forest_layers, installed
    from repro.gateway import GatewayServer
    from repro.service import FleetConfig, FleetMonitor

    parent = os.getppid()
    clock = LayerClock(timed=layers_mode == "time")
    targets = [] if layers_mode == "none" else forest_layers()
    with installed(clock, targets, trees=layers_mode == "count"):
        fleet = FleetMonitor.from_checkpoint(
            checkpoint, config=FleetConfig.from_dict(config), strict=False
        )
        server = GatewayServer(
            fleet, port=0, admin_token=ADMIN_TOKEN, max_inflight=SATURATION_WINDOW
        )

        async def main() -> None:
            await server.start()
            print(f"PORT {server.port}", flush=True)
            watchdog = asyncio.create_task(_exit_with_parent(parent))
            try:
                await server.serve_until_drained()
            finally:
                watchdog.cancel()

        asyncio.run(main())
    fleet.write_shard_snapshots(state_dir)
    print(json.dumps({"layers": clock.totals()}), flush=True)
    return 0


async def _exit_with_parent(parent: int) -> None:
    """End the server if the run that started it is gone (killed before
    it could drain the server), instead of serving an empty port forever.

    A task on the server's own loop, not a thread: a second thread would
    take the interpreter lock from the loop mid-request."""
    import asyncio

    while os.getppid() == parent:
        await asyncio.sleep(0.5)
    os._exit(1)


# ------------------------------------------------------------------ client
def parse_histograms(text: str) -> Dict[str, float]:
    """``{name_sum: x, name_count: n}`` for the unlabelled server histograms."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        name, _, value = line.partition(" ")
        for hist in SERVER_HISTOGRAMS:
            if name in (f"{hist}_sum", f"{hist}_count"):
                out[name] = float(value)
    return out


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0.0) for key in after}


class _Connection:
    """One pipelined NDJSON connection that counts the bytes it moves."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=SERVER_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.bytes_out = 0
        self.bytes_in = 0

    def send(self, line: bytes) -> None:
        self.sock.sendall(line)
        self.bytes_out += len(line)

    def recv(self) -> Dict[str, Any]:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("gateway closed the connection")
        self.bytes_in += len(line)
        return json.loads(line)

    def call(self, line: bytes) -> Dict[str, Any]:
        self.send(line)
        return self.recv()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _op(op: str, request_id: str, **fields: Any) -> bytes:
    from repro.gateway.protocol import PROTOCOL_VERSION, encode_message

    return encode_message({"v": PROTOCOL_VERSION, "op": op, "id": request_id, **fields})


def encode_requests(events: Sequence[Any], per_request: int, first_id: int) -> List[bytes]:
    """Pre-encoded ingest lines, so encoding stays off the send schedule."""
    from repro.gateway.protocol import PROTOCOL_VERSION, encode_message, event_to_wire

    return [
        encode_message({
            "v": PROTOCOL_VERSION,
            "op": "ingest",
            "id": first_id + i,
            "events": [event_to_wire(ev) for ev in events[s:s + per_request]],
        })
        for i, s in enumerate(range(0, len(events), per_request))
    ]


def _read_port(proc: "subprocess.Popen[bytes]") -> int:
    assert proc.stdout is not None
    ready, _, _ = select.select([proc.stdout], [], [], SERVER_TIMEOUT)
    line = proc.stdout.readline() if ready else b""
    if not line.startswith(b"PORT "):
        raise RuntimeError(f"gateway server did not start (got {line!r})")
    return int(line.split()[1])


def _serial(conn: _Connection, lines: List[bytes]) -> Dict[str, Any]:
    latency: List[float] = []
    shed = errors = 0
    for line in lines:
        t0 = time.perf_counter()
        msg = conn.call(line)
        if msg.get("ok"):
            latency.append(time.perf_counter() - t0)
        elif msg["error"]["code"] in ("overloaded", "draining"):
            shed += 1
        else:
            errors += 1
    return {"latency": latency, "shed": shed, "errors": errors}


def _saturate(conn: _Connection, lines: List[bytes]) -> Dict[str, Any]:
    shed = errors = 0
    t0 = time.perf_counter()
    in_flight = 0
    for line in lines[:SATURATION_WINDOW]:
        conn.send(line)
        in_flight += 1
    next_line = in_flight
    while in_flight:
        msg = conn.recv()
        in_flight -= 1
        if not msg.get("ok"):
            if msg["error"]["code"] in ("overloaded", "draining"):
                shed += 1
            else:
                errors += 1
        if next_line < len(lines):
            conn.send(lines[next_line])
            next_line += 1
            in_flight += 1
    return {"wall": time.perf_counter() - t0, "shed": shed, "errors": errors}


def gateway_episode(
    server_cmd: Sequence[str],
    *,
    cwd: Path,
    serial_lines: List[bytes],
    sat_lines: List[bytes],
) -> Dict[str, Any]:
    """Start a server, run both phases, drain it; returns the raw numbers."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(list(server_cmd), cwd=cwd, stdout=subprocess.PIPE)
    conn: Optional[_Connection] = None
    try:
        port = _read_port(proc)
        conn = _Connection(port)
        setup = time.perf_counter() - t0
        m0 = parse_histograms(conn.call(_op("metrics", "m0"))["metrics"])
        serial_phase = _serial(conn, serial_lines)
        m1 = parse_histograms(conn.call(_op("metrics", "m1"))["metrics"])
        sat_phase = _saturate(conn, sat_lines)
        m2 = parse_histograms(conn.call(_op("metrics", "m2"))["metrics"])
        digest = conn.call(_op("digest", "d"))["digest"]
        drained = conn.call(_op("drain", "x", token=ADMIN_TOKEN))
        if not drained.get("ok"):
            raise RuntimeError(f"drain refused: {drained}")
        bytes_moved = conn.bytes_out + conn.bytes_in
        conn.close()
        conn = None
        out, _ = proc.communicate(timeout=SERVER_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"gateway server exited with {proc.returncode}")
        final = json.loads(out.decode().strip().splitlines()[-1])
    finally:
        if conn is not None:
            conn.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
    return {
        "setup": setup,
        "serial": serial_phase,
        "saturation": sat_phase,
        "serial_server": delta(m1, m0),
        "sat_server": delta(m2, m1),
        "digest": digest,
        "bytes": bytes_moved,
        "layers": final["layers"],
    }


def server_command(
    ledger_py: Path, checkpoint: Path, config: Dict[str, Any], layers_mode: str,
    state_dir: Path,
) -> List[str]:
    return [
        sys.executable, str(ledger_py), "serve-gateway",
        "--checkpoint", str(checkpoint),
        "--config", json.dumps(config),
        "--layers", layers_mode,
        "--state-dir", str(state_dir),
    ]
