"""Integer-only execution of int8-lowered graphs (the GAP8 numerics).

This is the bit-level counterpart of what the generated C code runs on the
GAP8 cluster: int8 activations and weights, int32 accumulators, fixed-point
requantisation between kernels, and I-BERT integer approximations for the
transformer non-linearities (softmax, GELU, LayerNorm).

When the lowered graph carries precomputed lookup tables
(:class:`~repro.deploy.graph.LookupTable`, emitted by ``lower_to_int8`` by
default), the GELU and softmax-``exp`` nonlinearities execute as a single
vectorised ``np.take`` instead of replaying the I-BERT polynomials per
element.  Both paths are bit-identical over the full representable input
domain (the tables are built from the elementwise kernels, and the
test-suite pins the equality exhaustively); ``use_lut=False`` forces the
legacy elementwise path for cross-checking.

The MAC-heavy operators (``conv1d``, ``linear``, ``matmul``) execute by
default through a shared batched GEMM primitive (:func:`int_gemm`):
``conv1d`` is lowered to im2col + one integer matmul per layer across the
whole micro-batch, and the fixed-point requantisation is applied once per
output tile with the multiplier/shift pair precomputed at lowering time
(:class:`~repro.deploy.lowering.GemmTileInfo`).  Integer arithmetic is
exact, so the GEMM path is bit-identical to the legacy per-op strided
einsum kernels by construction — and the test-suite pins that equality per
shape; ``use_gemm=False`` keeps the einsum path alive for cross-checking.

Nodes whose output only ever reaches the classifier through a
``select_token`` (the class-token pooling of the paper's Bioformers) run on
that one token row: :func:`plan_token_rows` derives the row plan from the
graph once per executor, and :meth:`IntegerGraphExecutor.run_integer`
feeds each planned node a one-row view of its inputs.  Every planned op is
row-independent and every requantiser is a lowering-time constant, so the
logits are bit-identical to running every row (pinned in
``tests/test_row_plan.py``).

The executor is an *emulator*: it exists so the quantised accuracy reported
in Table I, the generated weights and the requantisation constants can all
be validated end-to-end on the host before any code ever reaches the MCU —
which is exactly how MCU deployment flows are qualified in practice.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

import numpy as np

from ..quant import ibert
from .graph import ComputeGraph, GraphNode, TensorSpec
from .lowering import (
    ActivationQuantization,
    QuantizedGraph,
    QuantizedNode,
    quantize_multiplier,
)

__all__ = [
    "IntegerGraphExecutor",
    "RowPlan",
    "apply_requant",
    "int_gemm",
    "plan_token_rows",
    "requantize",
]

_INT8_MIN = -128
_INT8_MAX = 127

_INT64_MAX = np.iinfo(np.int64).max

#: Exactness cascade of the GEMM contraction.  A float GEMM over integer
#: operands is *exact* when ``K * max|lhs| * max|rhs|`` stays below the
#: largest integer magnitude the float type represents exactly: every
#: product and every partial sum is then an integer with an exact
#: representation, so no rounding can occur at any accumulation order.
#: float32 holds integers exactly up to 2**24, float64 up to 2**53.
_EXACT_FLOAT32_GEMM_LIMIT = float(2**24)
_EXACT_FLOAT64_GEMM_LIMIT = float(2**53)


def _peak(values: np.ndarray) -> float:
    """Largest magnitude in ``values`` (0 when empty).

    Taken from ``min``/``max`` in float rather than ``np.abs``, which wraps
    the int64 minimum ``-2**63`` to itself and would read it as small.
    """
    if not values.size:
        return 0.0
    return max(-float(values.min()), float(values.max()))


def _gemm_accumulate(
    lhs: np.ndarray, rhs: np.ndarray, rhs_peak: Optional[float] = None
) -> np.ndarray:
    """Integer matmul with int64 semantics, routed through BLAS when exact.

    NumPy has no vectorised integer matmul (int64 ``@`` falls back to slow
    generic loops), but a float GEMM over integer operands is bit-exact
    below the bounds of the exactness cascade: float32 when
    ``K * max|lhs| * max|rhs| < 2**24``, float64 below 2**53, and the
    exact-by-definition int64 path otherwise.  int8-grid operands (peaks up
    to 128) always take the float32 tier for ``K < 1024``.
    ``rhs_peak`` is the precomputed peak of a constant ``rhs``; the bound
    is checked on every call.  The
    returned int64 accumulator is always a fresh array the caller owns.
    """
    if rhs_peak is None:
        rhs_peak = _peak(rhs)
    bound = lhs.shape[-1] * _peak(lhs) * rhs_peak
    if bound < _EXACT_FLOAT32_GEMM_LIMIT:
        dtype = np.float32
    elif bound < _EXACT_FLOAT64_GEMM_LIMIT:
        dtype = np.float64
    else:
        return lhs.astype(np.int64) @ rhs.astype(np.int64)
    product = lhs.astype(dtype, copy=False) @ rhs.astype(dtype, copy=False)
    return product.astype(np.int64)


def _requant_inplace(
    accumulator: np.ndarray, multiplier: int, shift: int, qmin: int, qmax: int
) -> np.ndarray:
    """Requantise an int64 ``accumulator`` the caller owns, overwriting it.

    Multiply, round-add, shift and clip all run in place; only the final
    int32 cast allocates.
    """
    accumulator *= multiplier
    if shift > 0:
        accumulator += np.int64(1) << (shift - 1)
        accumulator >>= shift
    elif shift < 0:
        left = -shift
        # Left shifts occur only for extreme (>~2) requantisation factors.
        # A saturating value would overflow int64 and wrap sign; clipping
        # to [qmin, qmax] *before* the shift is exact, because the final
        # clip is monotone and qmin <= 0 <= qmax: any value outside the
        # grid before scaling up lands on the same bound after it.
        accumulator = np.clip(accumulator, qmin, qmax)
        if (int(max(abs(qmin), abs(qmax))) << left) > _INT64_MAX:
            # The shift alone exceeds int64: every non-zero value saturates.
            accumulator = np.where(
                accumulator > 0, qmax, np.where(accumulator < 0, qmin, 0)
            )
        else:
            accumulator = accumulator << np.int64(left)
    np.clip(accumulator, qmin, qmax, out=accumulator)
    return accumulator.astype(np.int32)


def apply_requant(
    values: np.ndarray,
    multiplier: int,
    shift: int,
    qmin: int = _INT8_MIN,
    qmax: int = _INT8_MAX,
) -> np.ndarray:
    """Apply an already-encoded fixed-point requantiser to accumulators.

    This is the per-tile half of :func:`requantize`: the caller supplies the
    ``(multiplier, shift)`` pair (precomputed at lowering time, or memoised
    by the executor), so one encoded requantiser is reused across every
    invocation of the kernel instead of re-running the encoding loops of
    :func:`~repro.deploy.lowering.quantize_multiplier` per call.  ``values``
    is left untouched: the arithmetic runs in place on an int64 copy.
    """
    accumulator = np.array(values, dtype=np.int64)
    return _requant_inplace(accumulator, multiplier, shift, qmin, qmax)


def requantize(
    values: np.ndarray,
    factor: float,
    qmin: int = _INT8_MIN,
    qmax: int = _INT8_MAX,
) -> np.ndarray:
    """Rescale integer accumulators by ``factor`` using fixed-point arithmetic.

    ``factor`` is encoded as a 31-bit multiplier plus arithmetic shift (see
    :func:`repro.deploy.lowering.quantize_multiplier`), the result is
    rounded, clipped to ``[qmin, qmax]`` and returned as ``int32`` — the same
    sequence of operations the generated C kernels perform.

    A negative ``factor`` (the I-BERT polynomial kernels track the sign in
    the scale) is handled by negating the accumulators first.
    """
    if factor < 0:
        values = -np.asarray(values)
        factor = -factor
    multiplier, shift = quantize_multiplier(factor)
    return apply_requant(np.asarray(values), multiplier, shift, qmin, qmax)


def int_gemm(
    lhs: np.ndarray,
    rhs: np.ndarray,
    bias: Optional[np.ndarray] = None,
    requant: Optional[Tuple[int, int, int, int]] = None,
    rhs_peak: Optional[float] = None,
) -> np.ndarray:
    """Shared integer GEMM primitive: ``lhs @ rhs`` with int64 accumulation.

    ``lhs`` is ``(..., M, K)`` and ``rhs`` ``(K, N)`` (or ``(..., K, N)``
    for stacked batched multiplies); the whole contraction runs as a single
    matmul with int64 semantics — this is the kernel the im2col'd
    ``conv1d``, ``linear`` and attention ``matmul`` paths all lower onto.
    ``bias`` (integer, broadcast over the trailing axis) is added to the
    accumulator, and ``requant`` — a ``(multiplier, shift, qmin, qmax)``
    tile — applies the fixed-point output requantisation once over the
    full output tile.  Without ``requant`` the raw int64 accumulator is
    returned.  ``rhs_peak`` is the precomputed ``max|rhs|`` of a constant
    weight operand.

    The contraction itself runs through BLAS whenever that is provably
    exact for the operand ranges (see :func:`_gemm_accumulate`) — int8-grid
    inputs always qualify — which is where the GEMM schedule's speedup
    over the per-op integer einsum kernels comes from.  The bias add and
    the requantisation then run in place on the fresh accumulator.
    """
    accumulator = _gemm_accumulate(lhs, rhs, rhs_peak)
    if bias is not None:
        accumulator += bias
    if requant is None:
        return accumulator
    multiplier, shift, qmin, qmax = requant
    return _requant_inplace(accumulator, multiplier, shift, qmin, qmax)


def _im2col(
    q_x: np.ndarray, kernel: int, stride: int, padding: int, dilation: int
) -> np.ndarray:
    """Lower a ``(B, C, L)`` activation to im2col patches ``(B, L_out, C*K)``.

    One fancy-indexed gather builds every ``(output position, tap)`` pair,
    so the convolution becomes a single GEMM against the flattened
    ``(O, C*K)`` weight matrix.  Same index arithmetic as the float
    framework convolution (:func:`repro.nn.functional.conv1d`).
    """
    if padding > 0:
        q_x = np.pad(q_x, ((0, 0), (0, 0), (padding, padding)))
    batch, channels, length = q_x.shape
    effective = dilation * (kernel - 1) + 1
    out_length = (length - effective) // stride + 1
    starts = np.arange(out_length) * stride
    taps = np.arange(kernel) * dilation
    gather_index = starts[:, None] + taps[None, :]
    # (B, C, L_out, K) -> (B, L_out, C, K) -> (B, L_out, C*K)
    columns = q_x[:, :, gather_index].transpose(0, 2, 1, 3)
    return columns.reshape(batch, out_length, channels * kernel)


#: Ops whose every output row along the token axis (axis -2) depends only on
#: the same row of their row-wise inputs: a matmul through its lhs only
#: (the K/V rhs is read in full), a softmax only along the last axis.
_ROW_WISE_OPS = frozenset(
    (
        "linear",
        "layernorm",
        "gelu",
        "relu",
        "add",
        "softmax",
        "split_heads",
        "merge_heads",
        "matmul",
    )
)


@dataclass(frozen=True)
class RowPlan:
    """The nodes that run on one token row only (see :func:`plan_token_rows`).

    ``views`` maps every planned node, in graph order, to the inputs it
    reads through the one-row view ``t[..., row:row + 1, :]`` of a full
    tensor; its other row-wise inputs are already the one-row outputs of
    planned producers, and a matmul rhs is read in full.  ``select`` is the
    ``select_token`` node rewritten to read row 0 of its one-row input
    (``None`` when nothing is planned).
    """

    row: int = 0
    views: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    select: Optional[GraphNode] = None

    @property
    def nodes(self) -> Tuple[str, ...]:
        """Names of the planned nodes, in graph order."""
        return tuple(self.views)


def _token_rows(spec: TensorSpec) -> Optional[int]:
    return spec.shape[-2] if len(spec.shape) >= 2 else None


def _row_reads(
    node: GraphNode, specs: Mapping[str, TensorSpec], tokens: int
) -> Optional[Tuple[FrozenSet[str], FrozenSet[str]]]:
    """``(row reads, full reads)`` of a node that can run on one row, else ``None``.

    A fused node qualifies when every stage does and no tensor is read
    both ways; a stage output read in full by a later stage disqualifies it.
    """
    if node.is_fused:
        local = dict(specs)
        rows, full, produced = set(), set(), set()
        for sub in node.fusion_chain:
            reads = _row_reads(sub, local, tokens)
            if reads is None or reads[1] & produced:
                return None
            rows |= reads[0] - produced
            full |= reads[1]
            produced.add(sub.output.name)
            local[sub.output.name] = sub.output
        return None if rows & full else (frozenset(rows), frozenset(full))
    if node.op not in _ROW_WISE_OPS:
        return None
    if node.op == "softmax" and int(node.attrs.get("axis", -1)) not in (
        -1,
        len(node.output.shape),
    ):
        return None
    if node.op == "matmul":
        rows, full = frozenset(node.inputs[:1]), frozenset(node.inputs[1:])
    else:
        rows, full = frozenset(node.inputs), frozenset()
    if rows & full or _token_rows(node.output) != tokens:
        return None
    if any(_token_rows(specs[name]) != tokens for name in rows):
        return None
    return rows, full


def plan_token_rows(graph: ComputeGraph) -> RowPlan:
    """Plan which nodes need to compute only the row ``select_token`` reads.

    Walking the graph backwards from its single ``select_token`` node, a
    node is planned when its op is row-wise (:data:`_ROW_WISE_OPS`, fused
    nodes stage by stage) and every reader of its output reads it only at
    the selected row: the ``select_token`` itself, or a planned node through
    a row-wise input.  A tensor read as a matmul rhs or by any unplanned
    node stays full, and so does the graph output, which no node reads.
    Graphs without exactly one ``select_token`` (TEMPONet, mean pooling)
    get the empty plan.
    """
    selects = [node for node in graph.nodes if node.op == "select_token"]
    if len(selects) != 1:
        return RowPlan()
    select = selects[0]
    specs = graph.tensor_specs()
    source = specs[select.inputs[0]]
    index = int(select.attrs["index"])
    # select_token indexes axis 1 of the batched tensor: the token axis
    # (-2) only for a (tokens, features) input.
    if len(source.shape) != 2 or not -source.shape[0] <= index < source.shape[0]:
        return RowPlan()
    tokens = source.shape[0]
    # Per tensor, one flag per reader: does it read only the selected row?
    # In reverse SSA order every reader of a node's output is seen first;
    # readers after the select read in full.
    row_only: Dict[str, List[bool]] = {select.inputs[0]: [True]}
    reads_of: Dict[str, Tuple[FrozenSet[str], FrozenSet[str]]] = {}
    for node in reversed(graph.nodes):
        if node is select:
            continue
        flags = row_only.get(node.output.name)
        reads = _row_reads(node, specs, tokens)
        planned = reads is not None and bool(flags) and all(flags)
        if planned:
            reads_of[node.name] = reads
        for name in node.inputs:
            row_only.setdefault(name, []).append(planned and name in reads[0])
    if not reads_of:
        return RowPlan()
    one_row = set()
    views: Dict[str, Tuple[str, ...]] = {}
    for node in graph.nodes:
        if node.name in reads_of:
            rows = reads_of[node.name][0]
            views[node.name] = tuple(
                dict.fromkeys(
                    name for name in node.inputs if name in rows and name not in one_row
                )
            )
            one_row.add(node.output.name)
    return RowPlan(
        row=index % tokens,
        views=views,
        select=replace(select, attrs={**select.attrs, "index": 0}),
    )


class IntegerGraphExecutor:
    """Executes a :class:`QuantizedGraph` with integer-only arithmetic.

    Parameters
    ----------
    quantized:
        The int8-lowered graph to replay.
    use_lut:
        ``None`` (default) runs each nonlinearity through its precomputed
        lookup table whenever the lowered node carries one, falling back to
        the elementwise I-BERT kernels otherwise.  ``False`` forces the
        legacy elementwise path even when tables are present (the
        cross-checking baseline); ``True`` behaves like ``None`` — a graph
        lowered with ``use_lut=False`` simply has no tables to use.
    use_gemm:
        ``None``/``True`` (default) executes ``conv1d`` (via im2col),
        ``linear`` and ``matmul`` through the shared :func:`int_gemm`
        primitive — one integer matmul per layer across the whole
        micro-batch, with the requantiser tile precomputed at lowering
        time.  ``False`` keeps the legacy strided-einsum kernels with
        per-call requantiser encoding (the cross-checking baseline).
        Integer arithmetic is exact, so both paths are bit-identical.
    """

    def __init__(
        self,
        quantized: QuantizedGraph,
        use_lut: Optional[bool] = None,
        use_gemm: Optional[bool] = None,
    ) -> None:
        self.quantized = quantized
        self.graph = quantized.graph
        self.use_lut = use_lut is None or bool(use_lut)
        self.use_gemm = use_gemm is None or bool(use_gemm)
        # Requantiser memo: factor -> (multiplier, shift).  The MAC nodes
        # carry their encoded requantiser from lowering (GemmTileInfo); the
        # remaining ops (avgpool, mean, the I-BERT tails) compute factors
        # at runtime, so the encoding loops of ``quantize_multiplier`` are
        # paid once per distinct factor instead of once per invocation.
        self._multiplier_cache: Dict[float, Tuple[int, int]] = {}
        # GEMM weight memo: node name -> ((K, N) weight matrix, its peak).
        # Only the activation operand is cast per call.
        self._weight_cache: Dict[str, Tuple[np.ndarray, float]] = {}
        # The class-token row plan, and the schedule that applies it: each
        # node with the inputs it reads through a one-row view, or ``None``
        # when it runs on full tensors.
        plan = self.row_plan = plan_token_rows(self.graph)
        self._schedule: List[Tuple[GraphNode, Optional[Tuple[str, ...]]]] = [
            (plan.select, ())
            if plan.select is not None and node.name == plan.select.name
            else (node, plan.views.get(node.name))
            for node in self.graph.nodes
        ]

    @property
    def uses_luts(self) -> bool:
        """Whether any node will execute through a lookup table."""
        return self.use_lut and self.quantized.uses_luts

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _activation(self, tensor_name: str) -> ActivationQuantization:
        return self.quantized.activations[tensor_name]

    def _encode_multiplier(self, factor: float) -> Tuple[int, int]:
        """Memoised :func:`quantize_multiplier` (positive factors only)."""
        cached = self._multiplier_cache.get(factor)
        if cached is None:
            cached = quantize_multiplier(factor)
            self._multiplier_cache[factor] = cached
        return cached

    def _requant_to(self, values: np.ndarray, in_scale: float, tensor_name: str) -> np.ndarray:
        """Requantise ``values`` onto ``tensor_name``'s grid.

        ``values`` is consumed: an int64 array is overwritten in place, so
        callers pass an accumulator they own (never a stored tensor).
        """
        out = self._activation(tensor_name)
        factor = in_scale / out.scale
        values = np.asarray(values, dtype=np.int64)
        if factor < 0:
            np.negative(values, out=values)
            factor = -factor
        multiplier, shift = self._encode_multiplier(factor)
        return _requant_inplace(values, multiplier, shift, out.qmin, out.qmax)

    def _gemm_weight(self, node: GraphNode, weight: np.ndarray) -> Tuple[np.ndarray, float]:
        """The memoised ``(K, N)`` GEMM operand of a conv1d/linear weight.

        The matrix is cast to float32 once when that is exact (every entry
        below 2**24), so the float32 tier never re-casts it; the other
        tiers upcast it exactly.
        """
        cached = self._weight_cache.get(node.name)
        if cached is None:
            matrix = weight.reshape(weight.shape[0], -1).T
            peak = _peak(matrix)
            if peak < _EXACT_FLOAT32_GEMM_LIMIT:
                matrix = matrix.astype(np.float32)
            cached = self._weight_cache[node.name] = (matrix, peak)
        return cached

    def _gemm_requant(
        self, lowered: QuantizedNode, out_name: str, factor: float
    ) -> Tuple[int, int, int, int]:
        """The ``(multiplier, shift, qmin, qmax)`` tile of a GEMM node.

        Prefers the requantiser precomputed at lowering time
        (:class:`~repro.deploy.lowering.GemmTileInfo`); the runtime
        ``factor`` fallback encodes the identical float expression, so both
        sources yield the same fixed-point pair.
        """
        out = self._activation(out_name)
        tile = lowered.gemm
        if tile is not None:
            return (tile.multiplier, tile.shift, out.qmin, out.qmax)
        multiplier, shift = self._encode_multiplier(factor / out.scale)
        return (multiplier, shift, out.qmin, out.qmax)

    # ------------------------------------------------------------------ #
    # Single-node dispatch
    # ------------------------------------------------------------------ #
    def _run_node(self, node: GraphNode, tensors: Dict[str, np.ndarray]) -> np.ndarray:
        if node.is_fused:
            # A fused node (see repro.deploy.passes) replays its original
            # kernel chain with the per-stage requantisers intact — the
            # payloads of absorbed nodes stay in ``quantized.nodes`` — so
            # fusion is bitwise-identical by construction.  Intermediates
            # live only in the local scope (on target: registers/L1).
            local = dict(tensors)
            value = None
            for sub in node.fusion_chain:
                value = self._run_node(sub, local)
                local[sub.output.name] = value
            return value
        lowered = self.quantized.nodes[node.name]
        op = node.op
        q_x = tensors[node.inputs[0]]
        in_scale = self._activation(node.inputs[0]).scale
        out_name = node.output.name
        out_scale = self._activation(out_name).scale

        if op == "conv1d":
            weight = lowered.constants["weight"]
            bias = lowered.constants.get("bias")
            if self.use_gemm:
                out_channels, in_channels, kernel = weight.values.shape
                patches = _im2col(
                    q_x,
                    kernel,
                    stride=int(node.attrs["stride"]),
                    padding=int(node.attrs["padding"]),
                    dilation=int(node.attrs["dilation"]),
                )
                batch, out_length, patch_dim = patches.shape
                flat_weight, weight_peak = self._gemm_weight(node, weight.values)
                quantized = int_gemm(
                    patches.reshape(batch * out_length, patch_dim),
                    flat_weight,
                    bias=bias.values if bias is not None else None,
                    requant=self._gemm_requant(
                        lowered, out_name, in_scale * weight.scale
                    ),
                    rhs_peak=weight_peak,
                )
                return quantized.reshape(batch, out_length, out_channels).transpose(0, 2, 1)
            accumulator = _int_conv1d(
                q_x,
                weight.values,
                stride=int(node.attrs["stride"]),
                padding=int(node.attrs["padding"]),
                dilation=int(node.attrs["dilation"]),
            )
            if bias is not None:
                accumulator += bias.values.reshape(1, -1, 1)
            return self._requant_to(accumulator, in_scale * weight.scale, out_name)

        if op == "linear":
            weight = lowered.constants["weight"]
            bias = lowered.constants.get("bias")
            if self.use_gemm:
                out_features, in_features = weight.values.shape
                lead = q_x.shape[:-1]
                matrix, weight_peak = self._gemm_weight(node, weight.values)
                quantized = int_gemm(
                    q_x.reshape(-1, in_features),
                    matrix,
                    bias=bias.values if bias is not None else None,
                    requant=self._gemm_requant(
                        lowered, out_name, in_scale * weight.scale
                    ),
                    rhs_peak=weight_peak,
                )
                return quantized.reshape(lead + (out_features,))
            accumulator = q_x.astype(np.int64) @ weight.values.T.astype(np.int64)
            if bias is not None:
                accumulator += bias.values
            return self._requant_to(accumulator, in_scale * weight.scale, out_name)

        if op == "channel_affine":
            scale_const = lowered.constants["scale"]
            shift_const = lowered.constants["shift"]
            accumulator = q_x.astype(np.int64) * scale_const.values.reshape(1, -1, 1)
            accumulator += shift_const.values.reshape(1, -1, 1)
            return self._requant_to(accumulator, in_scale * scale_const.scale, out_name)

        if op == "matmul":
            q_other = tensors[node.inputs[1]]
            other_scale = self._activation(node.inputs[1]).scale
            if node.attrs.get("transpose_b", False):
                q_other = np.swapaxes(q_other, -1, -2)
            factor = in_scale * other_scale * float(node.attrs.get("scale", 1.0))
            if self.use_gemm:
                # Fold the leading (batch, heads) axes into one stacked GEMM
                # so the whole micro-batch contracts in a single matmul.
                lead = q_x.shape[:-2]
                quantized = int_gemm(
                    q_x.reshape((-1,) + q_x.shape[-2:]),
                    q_other.reshape((-1,) + q_other.shape[-2:]),
                    requant=self._gemm_requant(lowered, out_name, factor),
                )
                return quantized.reshape(lead + quantized.shape[-2:])
            accumulator = q_x.astype(np.int64) @ q_other.astype(np.int64)
            return self._requant_to(accumulator, factor, out_name)

        if op == "add":
            q_other = tensors[node.inputs[1]]
            other_scale = self._activation(node.inputs[1]).scale
            lhs = self._requant_to(q_x.astype(np.int64), in_scale, out_name)
            rhs = self._requant_to(q_other.astype(np.int64), other_scale, out_name)
            out = self._activation(out_name)
            return np.clip(lhs + rhs, out.qmin, out.qmax).astype(np.int32)

        if op == "append_token":
            token = lowered.constants["token"].values.reshape(1, 1, -1)
            rescaled = self._requant_to(q_x.astype(np.int64), in_scale, out_name)
            token = np.broadcast_to(token, (rescaled.shape[0], 1, rescaled.shape[2]))
            return np.concatenate([rescaled, token.astype(np.int32)], axis=1)

        if op == "add_positional":
            positions = lowered.constants["positions"].values[None, :, :]
            rescaled = self._requant_to(q_x.astype(np.int64), in_scale, out_name)
            out = self._activation(out_name)
            return np.clip(rescaled + positions, out.qmin, out.qmax).astype(np.int32)

        if op == "relu":
            return self._requant_to(np.maximum(q_x, 0), in_scale, out_name)

        if op == "gelu":
            table = lowered.luts.get("gelu") if self.use_lut else None
            if table is not None:
                # The table already fuses the polynomial and the output
                # requantisation: one gather per element.
                return table.take(q_x).astype(np.int32)
            q_out, gelu_scale = ibert.integer_gelu(q_x.astype(np.int64), in_scale)
            return self._requant_to(q_out, gelu_scale, out_name)

        if op == "softmax":
            axis = int(node.attrs.get("axis", -1))
            table = lowered.luts.get("exp") if self.use_lut else None
            if table is not None:
                # One int64 buffer carries the shifted logits, then the
                # normalised numerator: every step after the copy is in place.
                q = q_x.astype(np.int64)
                q -= q.max(axis=axis, keepdims=True)
                q_exp = table.take(q)
                total = np.maximum(q_exp.sum(axis=axis, keepdims=True), 1)
                factor = np.int64(1) << ibert.SOFTMAX_OUTPUT_BITS
                np.multiply(q_exp, factor, out=q)
                q //= total
                return self._requant_to(q, 1.0 / float(factor), out_name)
            q_out, softmax_scale = ibert.integer_softmax(
                q_x.astype(np.int64), in_scale, axis=axis
            )
            return self._requant_to(q_out, softmax_scale, out_name)

        if op == "layernorm":
            weight = lowered.constants["weight"].values
            bias = lowered.constants["bias"].values
            q_out, ln_scale = ibert.integer_layernorm(q_x, in_scale, weight, bias)
            return self._requant_to(q_out, ln_scale, out_name)

        if op == "avgpool1d":
            kernel = int(node.attrs["kernel_size"])
            stride = int(node.attrs["stride"])
            # One strided gather over all taps: (B, C, out_length, kernel).
            windows = np.lib.stride_tricks.sliding_window_view(q_x, kernel, axis=-1)
            accumulator = windows[:, :, ::stride, :].astype(np.int64).sum(axis=-1)
            return self._requant_to(accumulator, in_scale / kernel, out_name)

        if op == "mean_tokens":
            accumulator = q_x.astype(np.int64).sum(axis=1)
            return self._requant_to(accumulator, in_scale / q_x.shape[1], out_name)

        if op == "flatten":
            return q_x.reshape(q_x.shape[0], -1)
        if op == "split_heads":
            heads = int(node.attrs["num_heads"])
            head_dim = int(node.attrs["head_dim"])
            batch, sequence, _ = q_x.shape
            return q_x.reshape(batch, sequence, heads, head_dim).transpose(0, 2, 1, 3)
        if op == "merge_heads":
            batch, heads, sequence, head_dim = q_x.shape
            return q_x.transpose(0, 2, 1, 3).reshape(batch, sequence, heads * head_dim)
        if op == "transpose":
            axes = tuple(node.attrs["axes"])
            return q_x.transpose((0,) + tuple(axis + 1 for axis in axes))
        if op == "select_token":
            return q_x[:, int(node.attrs["index"]), :]
        raise NotImplementedError(f"integer executor does not implement '{op}'")

    # ------------------------------------------------------------------ #
    # Whole-graph execution
    # ------------------------------------------------------------------ #
    def run_integer(self, inputs: np.ndarray) -> np.ndarray:
        """Run the graph; returns the *integer* logits (int8 grid).

        Nodes of the row plan (:attr:`row_plan`) compute only the token row
        the classifier reads; every other node runs on full tensors.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim == len(self.graph.graph_input.shape):
            inputs = inputs[None, ...]
        input_quant = self.quantized.input_quantization
        tensors: Dict[str, np.ndarray] = {
            self.graph.graph_input.name: input_quant.quantize(inputs)
        }
        row = slice(self.row_plan.row, self.row_plan.row + 1)
        for node, views in self._schedule:
            if views is None:
                tensors[node.output.name] = self._run_node(node, tensors)
                continue
            local = {name: tensors[name] for name in node.inputs}
            for name in views:
                local[name] = local[name][..., row, :]
            tensors[node.output.name] = self._run_node(node, local)
        return tensors[self.graph.output.name]

    def run(self, inputs: np.ndarray) -> np.ndarray:
        """Run the graph and return dequantised (float) logits."""
        integer_logits = self.run_integer(inputs)
        return self.quantized.output_quantization.dequantize(integer_logits)

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Class predictions of the integer-only inference path."""
        return np.argmax(self.run_integer(inputs), axis=-1)

    def agreement_with_float(self, inputs: np.ndarray) -> float:
        """Fraction of inputs where int8 and float inference agree on the class."""
        from .engine import FloatGraphExecutor

        float_predictions = FloatGraphExecutor(self.graph).predict(inputs)
        integer_predictions = self.predict(inputs)
        return float(np.mean(float_predictions == integer_predictions))


def _int_conv1d(
    q_x: np.ndarray,
    q_weight: np.ndarray,
    stride: int,
    padding: int,
    dilation: int,
) -> np.ndarray:
    """Integer 1-D convolution with int64 accumulation.

    Vectorised over the kernel dimension: a single strided view gathers
    every ``(output position, tap)`` pair and one integer ``einsum``
    contracts channels and taps at once.  Integer arithmetic is exact, so
    the result is identical to the per-tap accumulation loop it replaced
    (the test-suite pins this equality).
    """
    q_x = q_x.astype(np.int64)
    q_weight = q_weight.astype(np.int64)
    kernel = q_weight.shape[-1]
    if padding > 0:
        q_x = np.pad(q_x, ((0, 0), (0, 0), (padding, padding)))
    effective = dilation * (kernel - 1) + 1
    # (B, C, out_length, kernel): output positions stride the signal, taps
    # sample each window every `dilation` samples.
    windows = np.lib.stride_tricks.sliding_window_view(q_x, effective, axis=-1)
    windows = windows[:, :, ::stride, ::dilation]
    return np.einsum("bclk,ock->bol", windows, q_weight)
