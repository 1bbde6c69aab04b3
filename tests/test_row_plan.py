"""Bitwise pins of the class-token row plan of ``IntegerGraphExecutor``.

``run_integer`` runs the nodes of :func:`plan_token_rows` on the one token
row ``select_token`` reads.  The reference here feeds every node through
the executor's own per-node kernel (``_run_node``) on full tensors, and the
two must agree bit for bit across configs, passes, op sets and batches.

The full matrix is ``slow``; one bio1 case runs in tier-1.  All randomness
comes from local generators.
"""

import numpy as np
import pytest

from repro.deploy import (
    ComputeGraph,
    GraphNode,
    IntegerGraphExecutor,
    TensorSpec,
    lower_to_int8,
    trace_model,
)
from repro.deploy.int_engine import plan_token_rows
from repro.models import build_model

GEOMETRY = dict(num_channels=4, window_samples=60, seed=11)
CONFIGS = {
    "bio1": ("bio1", {}),
    "bio2": ("bio2", {}),
    "temponet": ("temponet", {}),
    "bio1_mean": ("bio1", {"pooling": "mean"}),
}
BATCHES = (1, 3, 16)

#: The 14 nodes of bio1 that only feed the class-token row.
BIO1_PLAN = (
    "block0.attention.query",
    "block0.attention.query_heads",
    "block0.attention.scores",
    "block0.attention.softmax",
    "block0.attention.context",
    "block0.attention.merge",
    "block0.attention.out",
    "block0.attention_residual",
    "block0.ffn_norm",
    "block0.ffn.expand",
    "block0.ffn.gelu",
    "block0.ffn.contract",
    "block0.ffn_residual",
    "final_norm",
)


def full_row_reference(executor, inputs):
    """Every node through ``_run_node`` on full tensors (no row plan)."""
    inputs = np.asarray(inputs, dtype=np.float64)
    tensors = {
        executor.graph.graph_input.name: executor.quantized.input_quantization.quantize(inputs)
    }
    for node in executor.graph.nodes:
        tensors[node.output.name] = executor._run_node(node, tensors)
    return tensors[executor.graph.output.name]


def trace_config(config, geometry=GEOMETRY):
    arch, overrides = CONFIGS[config]
    kwargs = dict(geometry, **overrides)
    if arch != "temponet":
        kwargs["patch_size"] = 10
    return trace_model(build_model(arch, **kwargs).eval())


def lower(graph, seed=3, **lower_kwargs):
    calibration = np.random.default_rng(seed).normal(size=(16,) + graph.graph_input.shape)
    return lower_to_int8(graph, calibration, **lower_kwargs)


def assert_matches_reference(executor, batches=BATCHES, seed=7):
    rng = np.random.default_rng(seed)
    for batch in batches:
        x = rng.normal(size=(batch,) + executor.graph.graph_input.shape)
        planned = executor.run_integer(x)
        reference = full_row_reference(executor, x)
        assert planned.dtype == reference.dtype
        np.testing.assert_array_equal(planned, reference)


@pytest.fixture(scope="module")
def lowered():
    """Lowered graphs, memoised per (config, optimize, use_lut)."""
    cache = {}

    def get(config, optimize=False, use_lut=True):
        key = (config, optimize, use_lut)
        if key not in cache:
            cache[key] = lower(trace_config(config), optimize=optimize, use_lut=use_lut)
        return cache[key]

    return get


# --------------------------------------------------------------------- #
# Bitwise equality with the full-row replay
# --------------------------------------------------------------------- #
def test_bio1_paper_geometry_matches_full_rows():
    """Tier-1 case: bio1 at 14 x 300, default lowering, batches 1/3/16."""
    quantized = lower(trace_config("bio1", geometry={}))
    executor = IntegerGraphExecutor(quantized)
    assert executor.row_plan.nodes == BIO1_PLAN
    assert_matches_reference(executor)


@pytest.mark.slow
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("use_gemm", [True, False], ids=["gemm", "einsum"])
@pytest.mark.parametrize("use_lut", [True, False], ids=["lut", "elementwise"])
@pytest.mark.parametrize("optimize", [False, True], ids=["default", "optimized"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_run_integer_matches_full_rows(lowered, config, optimize, use_lut, use_gemm, batch):
    quantized = lowered(config, optimize, use_lut)
    executor = IntegerGraphExecutor(quantized, use_gemm=use_gemm)
    assert_matches_reference(executor, batches=(batch,), seed=batch)


# --------------------------------------------------------------------- #
# The plan itself
# --------------------------------------------------------------------- #
def test_bio1_plans_the_class_token_path(lowered):
    plan = plan_token_rows(lowered("bio1").graph)
    assert plan.nodes == BIO1_PLAN
    assert plan.row == 6  # 6 patch tokens, the class token appended last
    assert plan.select.attrs["index"] == 0
    assert lowered("bio1").graph.node("class_token_output").attrs["index"] == -1
    # Fusion folds the GELU into the expand stage: one node fewer.
    fused = plan_token_rows(lowered("bio1", optimize=True).graph).nodes
    assert fused == tuple(name for name in BIO1_PLAN if name != "block0.ffn.gelu")


def test_bio2_plans_the_last_block_only(lowered):
    nodes = plan_token_rows(lowered("bio2").graph).nodes
    assert len(nodes) == 14
    assert all(name.startswith("block1.") or name == "final_norm" for name in nodes)


@pytest.mark.parametrize("config", ["temponet", "bio1_mean"])
@pytest.mark.parametrize("optimize", [False, True], ids=["default", "optimized"])
def test_plan_is_empty_without_class_token(lowered, config, optimize):
    executor = IntegerGraphExecutor(lowered(config, optimize))
    assert executor.row_plan.nodes == ()
    assert executor.row_plan.select is None


def _attention_toy(index, mean_after_select=False):
    """input -> a -> (b -> scores lhs, scores rhs) -> merge -> select -> head.

    ``mean_after_select`` also averages ``merged`` over every token after
    the select and adds it to the picked row before the head.
    """
    rng = np.random.default_rng(5)
    tokens, features = 5, 4

    def linear(name, source, output, out_features=features):
        return GraphNode(
            name,
            "linear",
            [source],
            TensorSpec(output, (tokens, out_features)),
            weights={
                "weight": rng.normal(size=(out_features, features)),
                "bias": rng.normal(size=out_features),
            },
        )

    def heads(name, source, output):
        return GraphNode(
            name,
            "split_heads",
            [source],
            TensorSpec(output, (1, tokens, features)),
            attrs={"num_heads": 1, "head_dim": features},
        )

    head = GraphNode(
        "head",
        "linear",
        ["pooled" if mean_after_select else "picked"],
        TensorSpec("logits", (3,)),
        weights={"weight": rng.normal(size=(3, tokens)), "bias": rng.normal(size=3)},
    )
    nodes = [
        linear("a", "input", "a_out"),
        heads("a_heads", "a_out", "a_h"),
        linear("b", "a_out", "b_out"),
        heads("b_heads", "b_out", "b_h"),
        GraphNode(
            "scores",
            "matmul",
            ["b_h", "a_h"],
            TensorSpec("scores_out", (1, tokens, tokens)),
            attrs={"transpose_b": True, "scale": 0.5, "inner_dim": features},
        ),
        GraphNode(
            "merge",
            "merge_heads",
            ["scores_out"],
            TensorSpec("merged", (tokens, tokens)),
            attrs={"num_heads": 1, "head_dim": tokens},
        ),
        GraphNode(
            "pick",
            "select_token",
            ["merged"],
            TensorSpec("picked", (tokens,)),
            attrs={"index": index},
        ),
    ]
    if mean_after_select:
        nodes += [
            GraphNode("mean", "mean_tokens", ["merged"], TensorSpec("mean_out", (tokens,))),
            GraphNode("pool", "add", ["picked", "mean_out"], TensorSpec("pooled", (tokens,))),
        ]
    nodes.append(head)
    return ComputeGraph("toy", TensorSpec("input", (tokens, features)), nodes)


@pytest.mark.parametrize("index", [0, 2, 4, -1, -5])
def test_matmul_rhs_and_graph_output_stay_full(index):
    graph = _attention_toy(index)
    plan = plan_token_rows(graph)
    # ``a_out`` is read row-wise by ``b`` but also, through ``a_heads``, as
    # the scores rhs: neither ``a`` nor ``a_heads`` runs on one row.  The
    # head produces the graph output after the select and stays full too.
    assert plan.nodes == ("b", "b_heads", "scores", "merge")
    assert plan.views == {"b": ("a_out",), "b_heads": (), "scores": (), "merge": ()}
    assert plan.row == index % 5
    executor = IntegerGraphExecutor(lower(graph))
    assert_matches_reference(executor)


@pytest.mark.parametrize("index", [0, 3, 6, -7])
def test_any_constant_select_index_matches_full_rows(index):
    graph = trace_config("bio1")
    graph.node("class_token_output").attrs["index"] = index
    executor = IntegerGraphExecutor(lower(graph))
    assert executor.row_plan.nodes == BIO1_PLAN
    assert executor.row_plan.row == index % 7
    assert_matches_reference(executor, batches=(3,))


def test_reader_after_the_select_keeps_rows_full():
    """``merged`` is also averaged after the select: nothing can be planned."""
    graph = _attention_toy(index=1, mean_after_select=True)
    assert plan_token_rows(graph).nodes == ()
    assert_matches_reference(IntegerGraphExecutor(lower(graph)))


def test_out_of_range_select_index_is_not_planned():
    graph = _attention_toy(index=5)
    assert plan_token_rows(graph).nodes == ()


def test_stored_tensors_are_left_unmodified(lowered):
    """Planned nodes read views of stored tensors; none may write through them."""
    for optimize in (False, True):
        executor = IntegerGraphExecutor(lowered("bio1", optimize))
        stored = []
        run_node = executor._run_node

        def recording(node, tensors):
            if not stored:
                graph_input = tensors[executor.graph.graph_input.name]
                stored.append((graph_input, graph_input.copy()))
            value = run_node(node, tensors)
            stored.append((value, value.copy()))
            return value

        executor._run_node = recording
        x = np.random.default_rng(9).normal(size=(4, 4, 60))
        before = x.copy()
        executor.run_integer(x)
        np.testing.assert_array_equal(x, before)
        assert len(stored) > len(executor.graph.nodes)
        for value, snapshot in stored:
            np.testing.assert_array_equal(value, snapshot)
