"""The three serving workloads: inputs, set-up, timed phase and oracle.

Every workload serves bio1 (patch 10) at the paper's geometry: 14
channels, 300-sample windows, slide 30, 2 kHz, majority vote over 5.

* ``live_int8`` — one managed session on an int8 server fed on the
  sensor clock.  The prosthesis-controller case: each decision costs a
  batch-1 int8 forward pass, the batcher's flush wait and the session and
  windowing overhead.  Batched GEMM and the worker pool do no work.  One
  push costs about 5.7 ms of the feeder's 15 ms period, so a second
  session would keep the single feeder thread about 75 % busy and let host
  stalls tip it into catch-up.
* ``mixed_int8`` — ``live_int8`` plus a LOW-priority tenant calling
  ``infer`` on 64 windows in a closed loop on the same server.  The only
  workload that exercises the batcher's priority path: each stream window
  rides a batch filled with bulk work, so stream latency trades against
  bulk throughput here.
* ``bulk_float`` — one client calling ``infer`` on 256 windows at LOW
  priority in a closed loop, on a float server with two pool workers.
  Batches are full, so sessions, windowing, the flush wait and the int8
  engine do no work; the float forward pass, the pool, the GIL and the
  BLAS thread policy carry the whole load.  It keeps every vCPU busy, so
  on a shared host its wall-clock figures follow the CPU the hypervisor
  grants; it is run by hand and left out of ``BENCHMARK.json``.

The 15 ms limit is the slide period: a new window completes every 15 ms,
so a controller needs each smoothed decision back before the next window
is due.
"""

from __future__ import annotations

import math
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.windowing import sliding_window_count
from repro.deploy.tracers import trace_model
from repro.eval import RecordingGenerator
from repro.models import build_model
from repro.serve import (
    BackendCache,
    InferenceServer,
    Priority,
    build_float_backend,
    build_int8_backend,
)

from . import oracle
from .sensor import FeedLog, SensorClock, feed, tail_percentile
from .spans import SUBMIT, WINDOWER, Tracer, TracedBackend, layer_times

ARCHITECTURE = "bio1"
PATCH_SIZE = 10
CHANNELS = 14
WINDOW = 300
SLIDE = 30
RATE_HZ = 2000.0
SMOOTHING = 5
CLASSES = 8
SENSOR = SensorClock(rate_hz=RATE_HZ, block=SLIDE)
#: A decision is on time when it returns within one slide period.
DEADLINE_S = SENSOR.block_period_s
#: Gesture segment length of the stream recordings (0.5 s), so each
#: stream crosses a gesture transition every half second.
SEGMENT_SAMPLES = 1000
#: Distinct input blocks a bulk client cycles through.
BULK_BLOCKS = 4
#: Set-ups per run; ``setup_s`` is their median.
SETUP_TRIALS = 21
#: Served but not measured at the start of every phase: the first second
#: carries one-off costs (first calls into each kernel, the bulk client's
#: first queue flood) that a long-running server pays once.
WARMUP_S = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    sessions: int
    bulk_windows: int
    num_workers: int = 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("live_int8", "int8", sessions=1, bulk_windows=0),
        Workload("mixed_int8", "int8", sessions=1, bulk_windows=64),
        Workload("bulk_float", "float", sessions=0, bulk_windows=256, num_workers=2),
    )
}


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #
@dataclass
class Inputs:
    """Everything the program receives, generated from the seed alone."""

    calibration: np.ndarray
    streams: List[np.ndarray]
    bulk: List[np.ndarray]


def make_inputs(workload: Workload, seed: int, seconds: float, phases: int = 1) -> Inputs:
    """Recordings, calibration windows and bulk blocks for ``seed``.

    ``phases`` sets of stream recordings are drawn, one per timed phase
    (each phase opens fresh sessions).
    """
    generator = RecordingGenerator(CHANNELS, CLASSES, RATE_HZ, seed=seed)
    rng = np.random.default_rng((seed, 1))
    samples = SENSOR.blocks_arrived(WARMUP_S + seconds) * SENSOR.block + WINDOW
    segments = math.ceil(samples / SEGMENT_SAMPLES)
    streams = [
        generator.recording(
            rng.integers(0, CLASSES, size=segments), SEGMENT_SAMPLES, seed=index + 1
        ).signal
        for index in range(workload.sessions * phases)
    ]
    calibration, _ = generator.windows(2, WINDOW, seed=0)
    bulk: List[np.ndarray] = []
    if workload.bulk_windows:
        total = BULK_BLOCKS * workload.bulk_windows
        windows, _ = generator.windows(math.ceil(total / CLASSES), WINDOW, seed=1)
        windows = windows[rng.permutation(len(windows))[:total]]
        bulk = list(windows.reshape(BULK_BLOCKS, workload.bulk_windows, CHANNELS, WINDOW))
    return Inputs(calibration=calibration, streams=streams, bulk=bulk)


# --------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------- #
@dataclass
class Rig:
    """One served endpoint: server, session manager and sessions."""

    server: InferenceServer
    sessions: list
    setup_s: float
    backend_s: float

    def close(self) -> None:
        self.server.close()


def build_rig(workload: Workload, inputs: Inputs, tracer: Optional[Tracer] = None) -> Rig:
    """Cold start, timed until the first answer comes back.

    Covers a fresh ``BackendCache``, the model build, calibration and int8
    lowering, the server, the session manager and its sessions.
    """
    start = time.perf_counter()
    marks: Dict[str, float] = {}

    def wrap(backend):
        marks["backend"] = time.perf_counter() - start
        return TracedBackend(backend, tracer) if tracer is not None else backend

    server = InferenceServer(
        ARCHITECTURE,
        workload.backend,
        patch_size=PATCH_SIZE,
        cache=BackendCache(),
        calibration=inputs.calibration if workload.backend == "int8" else None,
        num_workers=workload.num_workers,
        backend_wrapper=wrap,
    )
    try:
        sessions = []
        if workload.sessions:
            manager = server.open_session_manager(slide=SLIDE, smoothing=SMOOTHING)
            sessions = [manager.create_session() for _ in range(workload.sessions)]
        server.infer(inputs.calibration[:1])
    except BaseException:
        server.close()
        raise
    return Rig(server, sessions, time.perf_counter() - start, marks["backend"])


def set_up(workload: Workload, inputs: Inputs) -> Tuple[Rig, List[float], List[float]]:
    """``SETUP_TRIALS`` cold starts, each closed before the next.

    Returns the last rig, every set-up time, and every set-up time minus
    the part spent before the backend existed (model build and lowering).
    """
    rig, totals, server_parts = None, [], []
    for _ in range(SETUP_TRIALS):
        if rig is not None:
            rig.close()
        rig = build_rig(workload, inputs)
        totals.append(rig.setup_s)
        server_parts.append(rig.setup_s - rig.backend_s)
    return rig, totals, server_parts


def reference_backend(workload: Workload, inputs: Inputs):
    """The oracle's backend, built apart from any server or cache."""
    model = build_model(ARCHITECTURE, patch_size=PATCH_SIZE).eval()
    if workload.backend == "int8":
        return build_int8_backend(model, inputs.calibration)
    return build_float_backend(model)


def build_and_lower_s(workload: Workload, inputs: Inputs) -> Tuple[float, float]:
    """Model build and int8 lowering timed on their own (median of trials)."""
    builds, lowers = [], []
    for _ in range(SETUP_TRIALS):
        start = time.perf_counter()
        model = build_model(ARCHITECTURE, patch_size=PATCH_SIZE).eval()
        built = time.perf_counter()
        if workload.backend == "int8":
            build_int8_backend(model, inputs.calibration)
        builds.append(built - start)
        lowers.append(time.perf_counter() - built)
    return float(np.median(builds)), float(np.median(lowers))


# --------------------------------------------------------------------- #
# Timed phase
# --------------------------------------------------------------------- #
@dataclass
class BulkLog:
    """Closed-loop client record: ``(start, end, windows)`` per answered call."""

    attempted: int = 0
    failed: int = 0
    calls: List[Tuple[float, float, int]] = field(default_factory=list)
    results: List[Tuple[int, np.ndarray]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


def _bulk_client(server: InferenceServer, blocks: List[np.ndarray], stop, log: BulkLog) -> None:
    """Closed loop: the next ``infer`` starts when the previous returns."""
    index = 0
    while not stop.is_set():
        block = index % len(blocks)
        index += 1
        log.attempted += 1
        start = time.perf_counter()
        try:
            logits = server.infer(blocks[block], priority=Priority.LOW)
        except Exception as error:  # noqa: BLE001 - counted, client goes on
            log.failed += 1
            if len(log.errors) < 5:
                log.errors.append(f"infer: {type(error).__name__}: {error}")
            continue
        log.calls.append((start, time.perf_counter(), len(logits)))
        log.results.append((block, logits))


@dataclass
class Phase:
    """What one timed phase did, plus the snapshots taken after it.

    Everything before ``measure_from`` (an absolute ``perf_counter``
    instant) is warm-up: it is served and checked, but not measured.
    """

    feed: Optional[FeedLog]
    bulk: Optional[BulkLog]
    streams: List[np.ndarray]
    sessions: list
    measure_from: float
    measure_to: float
    per_worker: Tuple[int, ...]
    health: object
    peak_rss_mb: float

    @property
    def measured_s(self) -> float:
        return self.measure_to - self.measure_from


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_phase(
    workload: Workload,
    rig: Rig,
    streams: List[np.ndarray],
    bulk: List[np.ndarray],
    seconds: float,
    tracer: Optional[Tracer] = None,
) -> Phase:
    """Drive ``rig`` for ``WARMUP_S + seconds``; measure the last ``seconds``."""
    server = rig.server
    pushers = [session.push for session in rig.sessions]
    if tracer is not None:
        tracer.clear()
        pushers = [tracer.wrap_push(push) for push in pushers]
        for session in rig.sessions:
            session.windower.push = tracer.wrap_child(WINDOWER, session.windower.push)
        server.predict = tracer.wrap_predict(server.predict)
        server.submit = tracer.wrap_child(SUBMIT, server.submit)
    before = server.stats.pool
    stop = threading.Event()
    log = BulkLog() if bulk else None
    client = None
    if log is not None:
        client = threading.Thread(
            target=_bulk_client, args=(server, bulk, stop, log), name="bulk-client"
        )
    start = time.perf_counter()
    if client is not None:
        client.start()
    try:
        fed = None
        if rig.sessions:
            fed = feed(
                pushers, streams, SENSOR, WARMUP_S + seconds, window=WINDOW, slide=SLIDE
            )
        else:
            stop.wait(WARMUP_S + seconds)
    finally:
        stop.set()
        if client is not None:
            client.join(timeout=120.0)
            if client.is_alive():
                raise RuntimeError("bulk client did not stop within 120 s")
    end = time.perf_counter()
    peak = _peak_rss_mb()
    after = server.stats.pool
    return Phase(
        feed=fed,
        bulk=log,
        streams=streams,
        sessions=rig.sessions,
        measure_from=(fed.start if fed is not None else start) + WARMUP_S,
        measure_to=end,
        per_worker=(
            tuple(a - b for a, b in zip(after.per_worker, before.per_worker)) if after else ()
        ),
        health=server.health(),
        peak_rss_mb=peak,
    )


# --------------------------------------------------------------------- #
# Oracle
# --------------------------------------------------------------------- #
def verify(workload: Workload, inputs: Inputs, phases: List[Phase]) -> List[str]:
    """Every check of :mod:`oracle` over every phase; empty means correct."""
    reference = reference_backend(workload, inputs)
    problems: List[str] = []
    block_refs = [oracle.reference_logits(reference, block) for block in inputs.bulk]
    for number, phase in enumerate(phases):
        if phase.feed is not None:
            samples = phase.feed.blocks * SENSOR.block
            for index, (session, signal) in enumerate(zip(phase.sessions, phase.streams)):
                labels, smoothed = oracle.reference_stream(
                    reference, signal, samples, window=WINDOW, slide=SLIDE, smoothing=SMOOTHING
                )
                problems += oracle.check_stream(
                    session.decisions, labels, smoothed, f"phase {number} session {index}"
                )
        for call, (block, logits) in enumerate(phase.bulk.results if phase.bulk else ()):
            name = f"phase {number} bulk call {call}"
            if workload.backend == "int8":
                problems += oracle.check_bitwise(logits, block_refs[block], name)
            else:
                problems += oracle.check_close(logits, block_refs[block], name)
            if len(problems) > 10:
                break
    return problems


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
def attempted_failed(phase: Phase) -> Tuple[int, int]:
    """Pushes and ``infer`` calls made, and how many raised."""
    attempted = failed = 0
    if phase.feed is not None:
        attempted += phase.feed.pushes
        failed += phase.feed.failed
    if phase.bulk is not None:
        attempted += phase.bulk.attempted
        failed += phase.bulk.failed
    return attempted, failed


def _measured_calls(phase: Phase) -> List[Tuple[float, float, int]]:
    return [c for c in phase.bulk.calls if c[0] >= phase.measure_from] if phase.bulk else []


def end_to_end(workload: Workload, phase: Phase, setups: List[float]) -> Dict[str, float]:
    """Every end-to-end metric of one untraced phase, plus report extras.

    Latency is the stream decision latency on the sensor clock; without
    streams (``bulk_float``) it is the latency of one bulk ``infer`` call.
    ``windows_per_s`` counts every window answered in the measured
    interval, stream and bulk alike.  The entries after ``peak_rss_mb``
    are reported but not gated (see README.md): ``decision_p99_ms`` is the
    highest percentile (at most the 99th) with ten samples beyond it, and
    ``on_time_share`` counts a missing decision as late.
    """
    calls = _measured_calls(phase)
    stream_windows = due = on_time = 0
    if phase.feed is not None:
        latencies = np.asarray([lat for end, lat in phase.feed.decisions if end >= WARMUP_S])
        stream_windows = len(latencies)
        per_session = sliding_window_count(phase.feed.blocks * SENSOR.block, WINDOW, SLIDE)
        first = math.ceil((WARMUP_S * RATE_HZ - WINDOW) / SLIDE)
        due = workload.sessions * (per_session - first)
        on_time = int(np.sum(latencies <= DEADLINE_S))
    else:
        latencies = np.asarray([end - start for start, end, _ in calls])
    if not len(latencies):
        raise RuntimeError(f"{workload.name}: no operation completed in the measured interval")
    bulk_span = calls[-1][1] - calls[0][0] if calls else 0.0
    bulk_rate = sum(n for _, _, n in calls) / bulk_span if bulk_span > 0 else 0.0
    stream_rate = stream_windows / phase.measured_s
    tail = tail_percentile(len(latencies))
    return {
        "setup_s": float(np.median(setups)),
        "decision_p50_ms": float(np.median(latencies)) * 1e3,
        "windows_per_s": stream_rate + bulk_rate,
        "peak_rss_mb": phase.peak_rss_mb,
        "decision_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
        "decision_p99_ms": float(np.percentile(latencies, tail)) * 1e3,
        "tail_percentile": tail,
        "latency_samples": int(len(latencies)),
        "on_time_share": on_time / due if due else 0.0,
        "stream_windows_per_s": stream_rate,
        "bulk_windows_per_s": bulk_rate,
        "shed": phase.health.shed,
        "expired": phase.health.expired,
        "rejected": phase.health.rejected,
    }


def per_layer(
    workload: Workload,
    rig: Rig,
    phase: Phase,
    tracer: Tracer,
    setup: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric of one traced phase."""
    health = phase.health
    pool = rig.server.pool
    since = phase.measure_from
    metrics = layer_times(tracer, since)
    calls = [(start, end, n) for start, end, n in tracer.calls if start >= since]
    busy = sum(end - start for start, end, _ in calls)
    rows = sum(n for _, _, n in calls)
    if workload.backend == "int8":
        macs = rig.server.backend.quantized.graph.total_macs
    else:
        macs = trace_model(rig.server.backend.model).total_macs
    mean_batch = rows / len(calls) if calls else 0.0
    fed = phase.feed
    wakes = [(lag, chunk) for offset, lag, chunk in fed.wakes if offset >= WARMUP_S] if fed else []
    lags = np.asarray([lag for lag, _ in wakes])
    metrics.update(
        {
            "sessions.pushes": float(fed.pushes if fed is not None else 0),
            "sessions.decisions_retained": float(
                sum(len(session.decisions) for session in phase.sessions)
            ),
            "server.retries": float(health.retries),
            "server.degraded": float(health.degraded_requests),
            "batcher.mean_batch": mean_batch,
            "batcher.fill_ratio": mean_batch / rig.server.batcher.max_batch_size,
            "batcher.shed": float(health.shed),
            "batcher.expired": float(health.expired),
            "batcher.rejected": float(health.rejected),
            "pool.busy_share": busy / (phase.measured_s * pool.num_workers) if pool else 0.0,
            "pool.balance": (
                min(phase.per_worker) / max(phase.per_worker)
                if pool and max(phase.per_worker, default=0)
                else 0.0
            ),
            "pool.restarts": float(health.worker_restarts),
            "pool.timeouts": float(health.worker_timeouts),
            "backend.calls": float(len(calls)),
            "backend.busy_share": busy / phase.measured_s,
            "backend.us_per_window": busy / rows * 1e6 if rows else 0.0,
            "backend.mac_per_s": macs * rows / busy if busy else 0.0,
            "generator.lag_p99_ms": (
                float(np.percentile(lags, tail_percentile(len(lags)))) * 1e3 if len(lags) else 0.0
            ),
            "generator.max_chunk_samples": float(max((c for _, c in wakes), default=0)),
        }
    )
    metrics.update(setup)
    return metrics
