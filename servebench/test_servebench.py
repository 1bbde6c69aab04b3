"""Tests of the serving benchmark's own logic (no timing is asserted)."""

import json
import os

import numpy as np
import pytest

from repro.data.windowing import sliding_window_count
from repro.serve import StreamDecision, StreamSession

from servebench import oracle
from servebench.sensor import SensorClock, feed, tail_percentile
from servebench.spans import PREDICT, PUSH, SUBMIT, WINDOWER, Tracer, layer_times
from servebench.workloads import WORKLOADS, make_inputs

SENSOR = SensorClock(rate_hz=2000.0, block=30)


class FakeClock:
    """Time that moves only when the code under test sleeps or works."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_sensor_clock_arithmetic():
    assert SENSOR.block_period_s == pytest.approx(0.015)
    assert SENSOR.block_arrival_s(0) == pytest.approx(0.015)
    assert SENSOR.block_arrival_s(9) == pytest.approx(0.150)
    assert SENSOR.blocks_arrived(-1.0) == 0
    assert SENSOR.blocks_arrived(0.0149) == 0
    assert SENSOR.blocks_arrived(0.015) == 1
    assert SENSOR.blocks_arrived(0.0299) == 1
    assert SENSOR.blocks_arrived(0.030) == 2
    assert SENSOR.blocks_arrived(1.0) == 66
    # Window w spans samples [30w, 30w + 300); its last sample lands at
    # (30w + 300) / 2000 s.
    assert SENSOR.window_end_s(0, 300, 30) == pytest.approx(0.150)
    assert SENSOR.window_end_s(1, 300, 30) == pytest.approx(0.165)
    for index in range(200):
        # A window is complete exactly when the block holding its last
        # sample has arrived.
        end = SENSOR.window_end_s(index, 300, 30)
        assert SENSOR.blocks_arrived(end) * 30 >= index * 30 + 300
        assert SENSOR.blocks_arrived(end - 1e-6) * 30 < index * 30 + 300


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(5000) == 99.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(100) == pytest.approx(90.0)
    assert tail_percentile(10) == 50.0


def _sessions(count, channels=2):
    return [
        StreamSession(
            lambda w: np.zeros(len(w), dtype=int), window=300, slide=30, num_channels=channels
        )
        for _ in range(count)
    ]


def test_catch_up_pushes_every_sample_exactly_once():
    clock = FakeClock()
    rng = np.random.default_rng(0)
    signals = [rng.standard_normal((2, 3000)) for _ in range(2)]
    sessions = _sessions(2)
    chunks = [[], []]
    # Every seventh push stalls for 50 ms, so later wakes find several
    # blocks waiting and must push them as one chunk.
    costs = iter(0.05 if n % 7 == 3 else 0.002 for n in range(10**6))

    def pusher(index):
        def push(chunk):
            clock.now += next(costs)
            chunks[index].append(chunk.copy())
            return sessions[index].push(chunk)

        return push

    log = feed(
        [pusher(0), pusher(1)], signals, SENSOR, 1.2,
        window=300, slide=30, clock=clock, sleep=clock.sleep,
    )
    assert log.blocks == 80 and log.failed == 0
    for index in range(2):
        pushed = np.concatenate(chunks[index], axis=1)
        np.testing.assert_array_equal(pushed, signals[index][:, : 80 * 30])
        assert all(chunk.shape[1] % 30 == 0 for chunk in chunks[index])
    assert max(chunk for _, _, chunk in log.wakes) > 30
    assert len(log.decisions) == 2 * sliding_window_count(80 * 30, 300, 30)
    assert all(latency > 0 for _, latency in log.decisions)


def test_latency_is_measured_from_the_window_end():
    clock = FakeClock()
    signals = [np.ones((2, 600)), np.ones((2, 600))]
    sessions = _sessions(2)

    def pusher(index):
        def push(chunk):
            clock.now += 0.001
            return sessions[index].push(chunk)

        return push

    log = feed([pusher(0), pusher(1)], signals, SENSOR, 0.3, window=300, slide=30,
               clock=clock, sleep=clock.sleep)
    latencies = [latency for _, latency in log.decisions]
    # On schedule, session 0 answers 1 ms after each window ends and
    # session 1, pushed second, 2 ms after.
    assert latencies == pytest.approx([0.001, 0.002] * (len(latencies) // 2))
    assert all(lag == pytest.approx(0.0, abs=1e-12) for _, lag, _ in log.wakes)


def _decisions(labels, smoothed):
    return [StreamDecision(i, int(a), int(b)) for i, (a, b) in enumerate(zip(labels, smoothed))]


def test_oracle_flags_a_single_flipped_smoothed_label():
    labels = np.array([0, 1, 1, 2, 2, 2, 0])
    smoothed = np.array([0, 0, 1, 1, 1, 2, 2])
    assert oracle.check_stream(_decisions(labels, smoothed), labels, smoothed, "s") == []
    flipped = smoothed.copy()
    flipped[4] = 3
    problems = oracle.check_stream(_decisions(labels, flipped), labels, smoothed, "s")
    assert len(problems) == 1 and "window 4 smoothed" in problems[0]
    gap = _decisions(labels, smoothed)
    del gap[2]
    assert oracle.check_stream(gap, labels, smoothed, "s")


def test_oracle_flags_a_single_changed_int8_logit():
    reference = np.random.default_rng(1).standard_normal((16, 8))
    assert oracle.check_bitwise(reference.copy(), reference, "b") == []
    changed = reference.copy()
    changed[5, 3] = np.nextafter(changed[5, 3], np.inf)
    problems = oracle.check_bitwise(changed, reference, "b")
    assert len(problems) == 1 and "first row 5" in problems[0]
    # The float check tolerates that one-ulp change but not a flipped argmax.
    assert oracle.check_close(changed, reference, "f") == []
    flipped = reference.copy()
    flipped[2] = -flipped[2]
    assert any("argmax" in p for p in oracle.check_close(flipped, reference, "f"))


def test_reference_stream_votes_over_one_window_calls():
    class Backend:
        def run(self, windows):
            assert windows.shape[0] == 1
            return np.eye(3)[[int(windows[0, 0, 0]) % 3]]

    signal = np.repeat(np.arange(20.0)[None, :], 2, axis=0)
    labels, smoothed = oracle.reference_stream(Backend(), signal, 20, window=5, slide=3, smoothing=3)
    np.testing.assert_array_equal(labels, [0, 0, 0, 0, 0, 0])
    signal[0, 3] = 1.0
    signal[0, 6] = 1.0
    labels, smoothed = oracle.reference_stream(Backend(), signal, 20, window=5, slide=3, smoothing=3)
    np.testing.assert_array_equal(labels, [0, 1, 1, 0, 0, 0])
    np.testing.assert_array_equal(smoothed, [0, 0, 1, 1, 0, 0])


def test_layer_times_account_for_the_push_span():
    tracer = Tracer()
    tracer.spans += [
        (1, PUSH, 10.0, 20.0),
        (1, WINDOWER, 10.0, 11.0),
        (1, PREDICT, 11.0, 19.0),
        (1, SUBMIT, 11.0, 12.0),
    ]
    tracer.calls.append((14.0, 17.0, 3))
    tracer.answers[1].add(0)
    times = layer_times(tracer, since=0.0)
    assert times["sessions.push_us"] == pytest.approx(10e6)
    assert times["windowing.push_us"] == pytest.approx(1e6)
    assert times["batcher.wait_us"] == pytest.approx(2e6)
    assert times["backend.stream_call_us"] == pytest.approx(3e6)
    assert times["server.predict_self_us"] == pytest.approx(3e6)
    assert times["sessions.push_self_us"] == pytest.approx(1e6)
    assert times["batcher.stream_batch_rows"] == 3.0
    assert layer_times(tracer, since=15.0)["sessions.push_us"] == 0.0


def test_backend_calls_are_matched_to_the_push_they_answered():
    tracer = Tracer()
    rng = np.random.default_rng(2)
    stream = rng.standard_normal((2, 14, 300))
    bulk = rng.standard_normal((5, 14, 300))

    def server_predict(windows):
        # The first stream window rides a batch with three bulk rows.
        tracer.backend_call(0.0, 1.0, np.concatenate([bulk[:3], windows[:1]]))

    predict = tracer.wrap_predict(server_predict)
    tracer.wrap_push(lambda samples: predict(stream))(None)
    tracer.backend_call(1.0, 2.0, np.concatenate([stream[1:], bulk[3:]]))
    tracer.backend_call(2.0, 3.0, bulk)
    assert dict(tracer.answers) == {1: {0, 1}}
    assert [n for _, _, n in tracer.calls] == [4, 3, 5]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_bitwise_identical_inputs(name):
    workload = WORKLOADS[name]
    first = make_inputs(workload, seed=3, seconds=0.2)
    again = make_inputs(workload, seed=3, seconds=0.2)
    other = make_inputs(workload, seed=4, seconds=0.2)
    arrays = lambda inputs: [inputs.calibration, *inputs.streams, *inputs.bulk]
    assert len(arrays(first)) == len(arrays(again))
    for a, b in zip(arrays(first), arrays(again)):
        assert a.tobytes() == b.tobytes()
    assert not np.array_equal(first.calibration, other.calibration)


def test_benchmark_json_declares_what_run_prints():
    from servebench.run import END_TO_END_UNITS, PER_LAYER_UNITS, ROOT

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER_UNITS
    assert {w["name"] for w in declared["workloads"]} <= set(WORKLOADS)
