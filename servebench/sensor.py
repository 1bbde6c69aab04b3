"""The sensor clock and the catch-up stream feeder.

A 14-channel sEMG front end sampling at 2 kHz hands the host one block of
``slide`` samples every ``slide / rate`` seconds (30 samples every 15 ms at
the paper's geometry).  Sample ``i`` of a stream has arrived ``(i + 1) /
rate`` seconds after the stream started, so window ``w`` — samples
``[w * slide, w * slide + window)`` — is complete at ``(w * slide +
window) / rate``.  Decision latency is measured from that instant, not from
when the feeder got round to pushing the samples: a feeder that falls
behind makes every later decision late, and the metric shows it.

:func:`feed` is the open-loop load generator.  Each time it wakes it pushes
*every* block that has arrived since its last push, as one chunk per
session (catch-up), so a stall shows up as a larger chunk and later
decisions rather than as a growing backlog.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

import numpy as np

__all__ = ["SensorClock", "FeedLog", "feed", "tail_percentile"]


@dataclass(frozen=True)
class SensorClock:
    """Arrival times on the sensor clock, as offsets from stream start."""

    rate_hz: float = 2000.0
    block: int = 30

    @property
    def block_period_s(self) -> float:
        """Seconds between two block arrivals."""
        return self.block / self.rate_hz

    def block_arrival_s(self, index: int) -> float:
        """Offset at which block ``index`` (0-based) has fully arrived."""
        return (index + 1) * self.block / self.rate_hz

    def blocks_arrived(self, elapsed_s: float) -> int:
        """Whole blocks that have arrived ``elapsed_s`` after stream start."""
        if elapsed_s <= 0:
            return 0
        # The epsilon keeps an exact arrival instant (0.015 s -> 1 block)
        # from rounding down through binary floating point.
        return int(math.floor(elapsed_s * self.rate_hz / self.block + 1e-9))

    def window_end_s(self, index: int, window: int, slide: int) -> float:
        """Offset at which the last sample of window ``index`` has arrived."""
        return (index * slide + window) / self.rate_hz


@dataclass
class FeedLog:
    """What one :func:`feed` run pushed and got back.

    Times are offsets from ``start``, the stream's first instant on the
    caller's clock.  ``decisions`` holds ``(window end, latency)`` for every
    returned decision, where latency is the push's return time minus the
    arrival of the window's last sample; ``wakes`` holds ``(offset, lag,
    chunk samples)`` for every wake that pushed, where lag is how late the
    oldest pushed block was.
    """

    start: float = 0.0
    blocks: int = 0
    pushes: int = 0
    failed: int = 0
    decisions: List[Tuple[float, float]] = field(default_factory=list)
    wakes: List[Tuple[float, float, int]] = field(default_factory=list)
    elapsed_s: float = 0.0
    errors: List[str] = field(default_factory=list)


def feed(
    pushers: Sequence[Callable[[np.ndarray], list]],
    signals: Sequence[np.ndarray],
    sensor: SensorClock,
    duration_s: float,
    *,
    window: int,
    slide: int,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> FeedLog:
    """Stream ``signals[i]`` into ``pushers[i]`` on the sensor clock.

    Runs until every block that arrives within ``duration_s`` has been
    pushed.  Sessions are pushed one after another from this single
    thread, in order.  A push that raises counts as failed; its windows
    never get a decision.  ``clock`` and ``sleep`` are injectable so the
    catch-up arithmetic can be tested without real time.
    """
    if len(pushers) != len(signals):
        raise ValueError("need one signal per pusher")
    total = sensor.blocks_arrived(duration_s)
    for signal in signals:
        if signal.shape[1] < total * sensor.block:
            raise ValueError(
                f"signal holds {signal.shape[1]} samples; {duration_s} s of "
                f"stream needs {total * sensor.block}"
            )
    start = clock()
    log = FeedLog(start=start, blocks=total)
    sent = 0
    while sent < total:
        now = clock()
        due = min(sensor.blocks_arrived(now - start), total)
        if due == sent:
            sleep(max(0.0, start + sensor.block_arrival_s(sent) - now))
            continue
        lo, hi = sent * sensor.block, due * sensor.block
        offset = now - start
        log.wakes.append((offset, offset - sensor.block_arrival_s(sent), hi - lo))
        for push, signal in zip(pushers, signals):
            log.pushes += 1
            try:
                decisions = push(signal[:, lo:hi])
            except Exception as error:  # noqa: BLE001 - counted, run goes on
                log.failed += 1
                if len(log.errors) < 5:
                    log.errors.append(f"push: {type(error).__name__}: {error}")
                continue
            returned = clock() - start
            for decision in decisions:
                end = sensor.window_end_s(decision.window_index, window, slide)
                log.decisions.append((end, returned - end))
        sent = due
    log.elapsed_s = clock() - start
    return log


def tail_percentile(count: int, cap: float = 99.0) -> float:
    """Highest percentile (at most ``cap``) with ten samples beyond it.

    With fewer than 20 samples no tail is supported and the median is
    returned.
    """
    if count < 20:
        return 50.0
    return min(cap, 100.0 * (1.0 - 10.0 / count))
