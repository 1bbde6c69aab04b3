"""In-memory spans recorded around the serving API's public seams.

The traced run wraps, from the outside and per instance:

* ``ManagedSession.push`` — the root span of one push; every span the
  push causes carries the push's id;
* the ``push`` of the session's public ``windower`` (``data.windowing``);
* ``InferenceServer.predict`` and ``InferenceServer.submit`` on the server
  instance (``serve.server``; a stream session classifies through
  ``predict``, which admits each window through ``submit``);
* the backend, through the server's ``backend_wrapper=`` argument
  (``serve.backends`` and the engine under it).

Backend calls run on the batcher's (or a pool worker's) thread, so they
cannot inherit the push id from the caller.  ``predict`` therefore records
a fingerprint of each window it sends, and the traced backend matches the
rows of each call against them: a call that carries a row of a stream
request *answered* that request.

Nothing is written while the run measures; :class:`Tracer` keeps plain
tuples in lists and :func:`layer_times` reduces them afterwards.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

import numpy as np

__all__ = ["Tracer", "TracedBackend", "layer_times"]

PUSH = "session.push"
WINDOWER = "windower.push"
PREDICT = "server.predict"
SUBMIT = "server.submit"


def _fingerprint(window: np.ndarray) -> bytes:
    return window[0, :4].tobytes() + window[-1, -4:].tobytes()


class Tracer:
    """Span recorder shared by the wrappers of one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: ``(push_id, name, start, end)``
        self.spans: List[Tuple[int, str, float, float]] = []
        #: ``(start, end, rows)`` of every backend call.
        self.calls: List[Tuple[float, float, int]] = []
        #: push id -> indices into ``calls`` of the calls that answered it.
        self.answers: Dict[int, set] = defaultdict(set)
        self._pending: Dict[bytes, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def clear(self) -> None:
        """Forget everything recorded so far (e.g. set-up traffic)."""
        with self._lock:
            self.spans.clear()
            self.calls.clear()
            self.answers.clear()
            self._pending.clear()

    # -- wrappers --------------------------------------------------------- #
    def wrap_push(self, push: Callable) -> Callable:
        """Root span: one id per ``ManagedSession.push`` call."""

        def traced(samples):
            push_id = next(self._ids)
            self._local.push_id = push_id
            start = self.clock()
            try:
                return push(samples)
            finally:
                self.spans.append((push_id, PUSH, start, self.clock()))
                self._local.push_id = None

        return traced

    def wrap_child(self, name: str, fn: Callable) -> Callable:
        """A span under the current push; calls outside a push pass through."""

        def traced(*args, **kwargs):
            push_id = getattr(self._local, "push_id", None)
            if push_id is None:
                return fn(*args, **kwargs)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append((push_id, name, start, self.clock()))

        return traced

    def wrap_predict(self, predict: Callable) -> Callable:
        """``server.predict`` span that also announces its windows."""
        span = self.wrap_child(PREDICT, predict)

        def traced(windows, *args, **kwargs):
            push_id = getattr(self._local, "push_id", None)
            if push_id is not None:
                with self._lock:
                    for window in np.asarray(windows):
                        self._pending[_fingerprint(window)] = push_id
            return span(windows, *args, **kwargs)

        return traced

    def backend_call(self, start: float, end: float, stacked: np.ndarray) -> None:
        """Record one backend call and the stream requests it answered."""
        with self._lock:
            index = len(self.calls)
            self.calls.append((start, end, int(stacked.shape[0])))
            if self._pending:
                for row in stacked:
                    push_id = self._pending.pop(_fingerprint(row), None)
                    if push_id is not None:
                        self.answers[push_id].add(index)


class TracedBackend:
    """Backend wrapper timing every ``run`` call (``backend_wrapper=``)."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name

    @property
    def input_shape(self):
        return self.inner.input_shape

    @property
    def num_classes(self):
        return self.inner.num_classes

    def run(self, windows: np.ndarray) -> np.ndarray:
        start = self.tracer.clock()
        out = self.inner.run(windows)
        self.tracer.backend_call(start, self.tracer.clock(), np.asarray(windows))
        return out

    def predict(self, windows: np.ndarray) -> np.ndarray:
        return np.argmax(self.run(windows), axis=-1)


def _median_us(values: List[float]) -> float:
    return float(np.median(values)) * 1e6 if values else 0.0


def layer_times(tracer: Tracer, since: float) -> Dict[str, float]:
    """Per-layer self times (median µs per push) of pushes from ``since`` on.

    Per push: ``push = sessions self + windowing + predict`` and
    ``predict = server self + batcher wait + backend``, where *backend* is
    the summed duration of the calls that answered the push's windows and
    *batcher wait* runs from the end of the push's last ``submit`` to the
    start of the first answering call (queueing plus the flush wait).
    """
    by_push: Dict[int, Dict[str, List[Tuple[float, float]]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for push_id, name, start, end in tracer.spans:
        by_push[push_id][name].append((start, end))
    push_us, session_self, windowing, server_self, wait, backend = ([] for _ in range(6))
    rows: List[int] = []
    for push_id, spans in by_push.items():
        if not spans[PUSH] or spans[PUSH][0][0] < since:
            continue
        (p_start, p_end), = spans[PUSH]
        children = spans[WINDOWER] + spans[PREDICT]
        push_us.append(p_end - p_start)
        session_self.append((p_end - p_start) - sum(e - s for s, e in children))
        windowing.extend(e - s for s, e in spans[WINDOWER])
        answered = sorted(tracer.answers.get(push_id, ()))
        if not spans[PREDICT] or not answered:
            continue
        (q_start, q_end), = spans[PREDICT]
        calls = [tracer.calls[i] for i in answered]
        busy = sum(end - start for start, end, _ in calls)
        submitted = max((e for _, e in spans[SUBMIT]), default=q_start)
        waited = max(0.0, calls[0][0] - submitted)
        backend.append(busy)
        wait.append(waited)
        server_self.append((q_end - q_start) - busy - waited)
        rows.extend(n for _, _, n in calls)
    return {
        "sessions.push_us": _median_us(push_us),
        "sessions.push_self_us": _median_us(session_self),
        "windowing.push_us": _median_us(windowing),
        "server.predict_self_us": _median_us(server_self),
        "batcher.wait_us": _median_us(wait),
        "backend.stream_call_us": _median_us(backend),
        "batcher.stream_batch_rows": float(np.mean(rows)) if rows else 0.0,
    }
