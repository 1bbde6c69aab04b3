"""Bitwise pins for the batched integer GEMM path.

The int8 hot path lowers ``conv1d`` (via im2col), ``linear`` and the
attention ``matmul`` onto one shared integer GEMM primitive with the
requantiser applied once per output tile.  Integer arithmetic is exact, so
the GEMM schedule must be *bitwise identical* to the per-op einsum kernels
it replaces — these tests pin that equality (``assert_array_equal``, never
a tolerance) across every registry-reachable architecture, both
nonlinearity op sets, and batch sizes 1/3/8/16, plus batched-vs-single
invariance and the tile metadata the lowering pass precomputes.
"""

import sys
import threading

import numpy as np
import pytest

from repro.deploy import IntegerGraphExecutor, lower_to_int8, trace_model
from repro.deploy.int_engine import _im2col, _int_conv1d, apply_requant, int_gemm, requantize
from repro.deploy.lowering import GemmTileInfo, quantize_multiplier
from repro.models import build_model
from repro.nn.tensor import Tensor, inference_mode

GEOMETRY = dict(num_channels=4, window_samples=60, seed=11)

#: Every registry-reachable (architecture, patch_size) pair; temponet has no
#: patch size knob.
CONFIGS = [
    ("bio1", 10),
    ("bio1", 20),
    ("bio2", 10),
    ("bio2", 20),
    ("temponet", None),
]

BATCH_SIZES = [1, 3, 8, 16]


def config_id(config):
    arch, patch = config
    return arch if patch is None else f"{arch}-p{patch}"


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(23)


@pytest.fixture(scope="module", params=CONFIGS, ids=config_id)
def quantized(request):
    """One lowered graph per config (tables present; flags pick the op set)."""
    arch, patch = request.param
    kwargs = dict(GEOMETRY)
    if patch is not None:
        kwargs["patch_size"] = patch
    model = build_model(arch, **kwargs).eval()
    calibration = np.random.default_rng(5).normal(size=(16, 4, 60))
    return lower_to_int8(trace_model(model), calibration, use_lut=True)


@pytest.fixture(scope="module")
def windows():
    return np.random.default_rng(29).normal(size=(16, 4, 60))


# --------------------------------------------------------------------- #
# The shared GEMM primitive
# --------------------------------------------------------------------- #
class TestIntGemmPrimitive:
    def test_raw_accumulator_matches_einsum(self, rng):
        lhs = rng.integers(-128, 128, size=(7, 5)).astype(np.int8)
        rhs = rng.integers(-128, 128, size=(5, 3)).astype(np.int8)
        expected = np.einsum(
            "mk,kn->mn", lhs.astype(np.int64), rhs.astype(np.int64)
        )
        np.testing.assert_array_equal(int_gemm(lhs, rhs), expected)
        assert int_gemm(lhs, rhs).dtype == np.int64

    def test_batched_lhs_and_rhs(self, rng):
        lhs = rng.integers(-128, 128, size=(4, 6, 5)).astype(np.int8)
        rhs = rng.integers(-128, 128, size=(4, 5, 2)).astype(np.int8)
        expected = np.einsum(
            "bmk,bkn->bmn", lhs.astype(np.int64), rhs.astype(np.int64)
        )
        np.testing.assert_array_equal(int_gemm(lhs, rhs), expected)

    def test_bias_and_requant_match_requantize(self, rng):
        lhs = rng.integers(-128, 128, size=(9, 4)).astype(np.int8)
        rhs = rng.integers(-128, 128, size=(4, 6)).astype(np.int8)
        bias = rng.integers(-(2**15), 2**15, size=6).astype(np.int64)
        factor = 0.0123
        multiplier, shift = quantize_multiplier(factor)
        fused = int_gemm(lhs, rhs, bias=bias, requant=(multiplier, shift, -128, 127))
        accumulator = lhs.astype(np.int64) @ rhs.astype(np.int64) + bias
        np.testing.assert_array_equal(fused, requantize(accumulator, factor))

    def test_apply_requant_matches_requantize_for_encoded_factor(self, rng):
        accumulators = rng.integers(-(2**20), 2**20, size=64)
        for factor in (1.0, 0.37, 3.0e-3, 5.5):
            multiplier, shift = quantize_multiplier(factor)
            np.testing.assert_array_equal(
                apply_requant(np.asarray(accumulators), multiplier, shift),
                requantize(accumulators, factor),
            )

    def test_int64_minimum_is_not_read_as_a_small_peak(self):
        """``np.abs`` wraps ``-2**63`` to itself; the peak must not, or the
        contraction would be routed through float BLAS and round."""
        lhs = np.array([[-(2**63), 1]], dtype=np.int64)
        rhs = np.array([[1], [1]], dtype=np.int64)
        result = int_gemm(lhs, rhs)
        assert result.dtype == np.int64
        assert int(result[0, 0]) == -(2**63) + 1

    def test_float32_tier_just_below_its_bound_is_exact(self, rng):
        # 1040 * 127 * 127 = 16_774_160 < 2**24: every partial sum of
        # same-sign operands climbs to just under the float32 limit.
        k = 1040
        assert k * 127 * 127 < 2**24
        lhs = np.full((3, k), 127, dtype=np.int32)
        lhs[1] = -127
        lhs[2] = rng.integers(-127, 128, size=k)
        rhs = np.full((k, 4), 127, dtype=np.int8)
        rhs[:, 1] = -127
        rhs[:, 2] = rng.integers(-127, 128, size=k)
        expected = np.einsum("mk,kn->mn", lhs.astype(np.int64), rhs.astype(np.int64))
        np.testing.assert_array_equal(int_gemm(lhs, rhs), expected)
        assert expected[0, 0] == k * 127 * 127

    def test_float32_tier_falls_back_just_above_its_bound(self, rng):
        # 1041 * 127 * 127 = 16_790_289 > 2**24 and odd: float32 has no
        # representation for it, so only the float64 tier gets it exact.
        k = 1041
        assert k * 127 * 127 > 2**24
        lhs = np.full((2, k), 127, dtype=np.int32)
        lhs[1, rng.permutation(k)[:5]] = 125  # odd, still same sign
        rhs = np.full((k, 3), 127, dtype=np.int32)
        rhs[:, 1] = -127
        rhs[:, 2] = 2 * rng.integers(-63, 64, size=k) + 1  # odd entries
        expected = np.einsum("mk,kn->mn", lhs.astype(np.int64), rhs.astype(np.int64))
        assert expected[0, 0] == 16_790_289
        assert float(np.float32(expected[0, 0])) != expected[0, 0]
        np.testing.assert_array_equal(int_gemm(lhs, rhs), expected)

    def test_float64_tier_falls_back_just_above_its_bound(self):
        # K * peak * peak = 2**53 + 1: float64 would round the odd result.
        lhs = np.array([[2**53 + 1]], dtype=np.int64)
        rhs = np.array([[1]], dtype=np.int64)
        np.testing.assert_array_equal(int_gemm(lhs, rhs), [[2**53 + 1]])

    def test_bias_and_requant_leave_caller_arrays_untouched(self, rng):
        lhs = rng.integers(-128, 128, size=(5, 8)).astype(np.int32)
        rhs = rng.integers(-128, 128, size=(8, 3)).astype(np.int32)
        bias = rng.integers(-1000, 1000, size=3).astype(np.int64)
        copies = [lhs.copy(), rhs.copy(), bias.copy()]
        int_gemm(lhs, rhs, bias=bias, requant=(*quantize_multiplier(0.01), -128, 127))
        accumulators = rng.integers(-(2**20), 2**20, size=16)
        before = accumulators.copy()
        apply_requant(accumulators, *quantize_multiplier(0.37))
        for array, copy in zip([lhs, rhs, bias, accumulators], copies + [before]):
            np.testing.assert_array_equal(array, copy)

    @pytest.mark.parametrize(
        "stride,padding,dilation", [(1, 0, 1), (2, 1, 1), (1, 2, 2), (3, 0, 1)]
    )
    def test_im2col_gemm_matches_einsum_conv(self, rng, stride, padding, dilation):
        q_x = rng.integers(-128, 128, size=(3, 4, 30)).astype(np.int32)
        q_w = rng.integers(-128, 128, size=(6, 4, 5)).astype(np.int32)
        kernel = q_w.shape[-1]
        patches = _im2col(q_x, kernel, stride, padding, dilation)
        flat_weight = q_w.reshape(6, 4 * kernel)
        via_gemm = int_gemm(patches, flat_weight.T).transpose(0, 2, 1)
        np.testing.assert_array_equal(
            via_gemm, _int_conv1d(q_x, q_w, stride, padding, dilation)
        )


# --------------------------------------------------------------------- #
# Whole-graph bitwise equality: GEMM vs einsum schedule
# --------------------------------------------------------------------- #
class TestExecutorParity:
    @pytest.mark.parametrize("use_lut", [True, False], ids=["lut", "elementwise"])
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_gemm_matches_einsum_bitwise(self, quantized, windows, use_lut, batch):
        gemm = IntegerGraphExecutor(quantized, use_lut=use_lut, use_gemm=True)
        einsum = IntegerGraphExecutor(quantized, use_lut=use_lut, use_gemm=False)
        x = windows[:batch]
        np.testing.assert_array_equal(gemm.run_integer(x), einsum.run_integer(x))

    def test_batched_matches_single_sample_bitwise(self, quantized, windows):
        executor = IntegerGraphExecutor(quantized, use_gemm=True)
        batched = executor.run_integer(windows)
        singles = np.concatenate(
            [executor.run_integer(windows[i : i + 1]) for i in range(windows.shape[0])]
        )
        np.testing.assert_array_equal(batched, singles)

    def test_dequantised_logits_identical_too(self, quantized, windows):
        gemm = IntegerGraphExecutor(quantized, use_gemm=True)
        einsum = IntegerGraphExecutor(quantized, use_gemm=False)
        np.testing.assert_array_equal(gemm.run(windows[:8]), einsum.run(windows[:8]))

    def test_threads_sharing_a_cold_executor_agree_bitwise(self, quantized, windows):
        """The per-executor weight memo fills lazily; executors are shared
        by serving worker threads, so racing first calls must agree."""
        expected = IntegerGraphExecutor(quantized).run_integer(windows[:3])
        shared = IntegerGraphExecutor(quantized)
        results = [None] * 6

        def work(index):
            results[index] = shared.run_integer(windows[:3])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for result in results:
            np.testing.assert_array_equal(result, expected)

    def test_use_gemm_flag_default_and_opt_out(self, quantized):
        assert IntegerGraphExecutor(quantized).use_gemm is True
        assert IntegerGraphExecutor(quantized, use_gemm=False).use_gemm is False


# --------------------------------------------------------------------- #
# Lowering-time tile metadata
# --------------------------------------------------------------------- #
class TestGemmTileMetadata:
    def test_every_mac_node_carries_a_tile(self, quantized):
        mac_nodes = [
            node
            for node in quantized.graph.nodes
            if node.op in ("conv1d", "linear", "matmul")
        ]
        assert mac_nodes  # every registry model has a MAC hot path
        for node in mac_nodes:
            tile = quantized.nodes[node.name].gemm
            assert isinstance(tile, GemmTileInfo)
            assert tile.m > 0 and tile.k > 0 and tile.n > 0
            assert tile.macs == tile.m * tile.k * tile.n

    def test_tile_requantiser_equals_lowered_requantiser(self, quantized):
        """The precomputed per-tile (multiplier, shift) must be the *same
        encoding* the einsum path derives — that identity is what makes the
        two schedules bitwise interchangeable."""
        for node in quantized.graph.nodes:
            if node.op not in ("conv1d", "linear"):
                continue
            lowered = quantized.nodes[node.name]
            multiplier, shift = lowered.requantizers["output"]
            assert lowered.gemm.multiplier == multiplier
            assert lowered.gemm.shift == shift

    def test_non_mac_nodes_have_no_tile(self, quantized):
        for node in quantized.graph.nodes:
            if node.op not in ("conv1d", "linear", "matmul"):
                assert quantized.nodes[node.name].gemm is None


# --------------------------------------------------------------------- #
# Float fast path (inference-mode mirrors) stays bitwise-pinned
# --------------------------------------------------------------------- #
class TestFloatFastPathParity:
    @pytest.mark.parametrize("config", CONFIGS, ids=config_id)
    @pytest.mark.parametrize("batch", [1, 5])
    def test_inference_mode_matches_autograd_forward(self, config, batch):
        arch, patch = config
        kwargs = dict(GEOMETRY)
        if patch is not None:
            kwargs["patch_size"] = patch
        model = build_model(arch, **kwargs).eval()
        x = np.random.default_rng(31).normal(size=(batch, 4, 60))
        expected = model(Tensor(x)).data  # autograd Tensor path
        with inference_mode():
            fast = model(Tensor(x)).data  # ndarray mirror path
        np.testing.assert_array_equal(fast, expected)
