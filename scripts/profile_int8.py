"""Per-node wall-time profile of the int8 executor for one registry config.

Builds a registry model, lowers it to int8 with a seeded calibration batch,
and times every graph node of one ``IntegerGraphExecutor`` instance over
``--repeats`` forward passes at ``--batch`` windows.  The timing wraps the
instance's ``_run_node`` from outside, so the program carries no profiling
hook.  Fused nodes (``--optimize``) also list their stages, indented under
the fused row; only top-level rows count towards the total.

Columns: node, op, token rows computed (``1/N`` for the nodes of the
executor's class-token row plan, ``all`` otherwise), per-sample MACs
executed (``GraphNode.macs``, divided by ``N`` for a planned node), median
and p90 wall µs, share of the summed node medians, and achieved MAC/s
(``batch * macs / median``).  The footer compares the summed node medians
with the median end-to-end ``run_integer`` time and reports MAC/s over the
MACs executed.

    PYTHONPATH=src python scripts/profile_int8.py --arch bio1 --patch 10 --batch 16
    PYTHONPATH=src python scripts/profile_int8.py --arch temponet --batch 1 --optimize
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Profile the tree this script lives in, not whichever copy is installed.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.deploy import IntegerGraphExecutor, lower_to_int8, trace_model  # noqa: E402
from repro.models import build_model  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--arch", default="bio1", help="registry architecture")
    parser.add_argument("--patch", type=int, default=10, help="patch size (Bioformers only)")
    parser.add_argument("--batch", type=int, default=16, help="windows per forward pass")
    parser.add_argument("--repeats", type=int, default=50, help="timed forward passes")
    parser.add_argument("--warmup", type=int, default=5, help="untimed forward passes first")
    parser.add_argument("--seed", type=int, default=0, help="calibration/input seed")
    parser.add_argument("--optimize", action="store_true", help="run the optimization passes")
    parser.add_argument("--no-lut", action="store_true", help="lower without lookup tables")
    return parser.parse_args(argv)


def build_executor(args: argparse.Namespace) -> tuple:
    kwargs = {} if args.arch == "temponet" else {"patch_size": args.patch}
    model = build_model(args.arch, **kwargs).eval()
    graph = trace_model(model)
    channels, samples = graph.graph_input.shape
    rng = np.random.default_rng(args.seed)
    calibration = rng.normal(size=(16, channels, samples))
    quantized = lower_to_int8(
        graph, calibration, use_lut=not args.no_lut, optimize=args.optimize
    )
    inputs = rng.normal(size=(args.batch, channels, samples))
    return IntegerGraphExecutor(quantized), inputs


def profile(executor: IntegerGraphExecutor, inputs: np.ndarray, repeats: int, warmup: int):
    """Per-node wall seconds per repeat, plus end-to-end seconds per repeat."""
    samples = defaultdict(list)
    depth, parent = 0, ""
    run_node = executor._run_node  # the bound method, captured before wrapping

    def timed(node, tensors):
        # Fused nodes call ``self._run_node`` per stage, which lands here
        # again one level deeper: stages are keyed under their parent.
        nonlocal depth, parent
        if depth == 0:
            parent = key = node.name
        else:
            key = f"{parent}/{node.name}"
        depth += 1
        start = time.perf_counter()
        try:
            return run_node(node, tensors)
        finally:
            samples[key].append(time.perf_counter() - start)
            depth -= 1

    executor._run_node = timed
    try:
        for _ in range(warmup):
            executor.run_integer(inputs)
        samples.clear()
        wall = []
        for _ in range(repeats):
            start = time.perf_counter()
            executor.run_integer(inputs)
            wall.append(time.perf_counter() - start)
    finally:
        del executor._run_node
    return samples, wall


def executed_macs(node, planned: bool) -> int:
    """MACs one sample actually executes: a planned node runs one token row.

    ``GraphNode.macs`` counts every row; the row plan keeps one of the
    ``output.shape[-2]`` token rows of each planned node (fused stages
    included, since they share the token axis).
    """
    return node.macs // node.output.shape[-2] if planned else node.macs


def render(executor: IntegerGraphExecutor, samples, wall, batch: int) -> str:
    medians = {key: float(np.median(times)) for key, times in samples.items()}
    p90s = {key: float(np.percentile(times, 90)) for key, times in samples.items()}
    nodes = executor.graph.nodes
    planned = set(executor.row_plan.nodes)
    total = sum(medians[node.name] for node in nodes)
    header = (
        f"{'node':<34}{'op':<16}{'rows':>6}{'MACs':>10}{'median us':>12}"
        f"{'p90 us':>10}{'share':>8}{'MAC/s':>11}"
    )
    lines = [header, "-" * len(header)]

    def row(name, key, node, is_planned, indent=""):
        macs = executed_macs(node, is_planned)
        seconds = medians[key]
        rate = f"{batch * macs / seconds:.3g}" if macs and seconds > 0 else "-"
        rows = f"1/{node.output.shape[-2]}" if is_planned else "all"
        lines.append(
            f"{indent + name:<34}{node.op:<16}{rows:>6}{macs:>10}{seconds * 1e6:>12.1f}"
            f"{p90s[key] * 1e6:>10.1f}{seconds / total:>8.1%}{rate:>11}"
        )

    for node in nodes:
        is_planned = node.name in planned
        row(node.name, node.name, node, is_planned)
        if node.is_fused:
            for sub in node.fusion_chain:
                row(sub.name, f"{node.name}/{sub.name}", sub, is_planned, indent="  ")
    lines.append("-" * len(header))
    by_op = defaultdict(float)
    for node in nodes:
        by_op[node.op] += medians[node.name]
    for op, seconds in sorted(by_op.items(), key=lambda item: -item[1]):
        lines.append(f"  {op:<32}{seconds * 1e6:>44.1f}{seconds / total:>18.1%}")
    e2e = float(np.median(wall))
    macs = sum(executed_macs(node, node.name in planned) for node in nodes)
    lines.append(
        f"row plan: {len(planned)} nodes run on one token row "
        f"(rows 1/N: MACs executed; GraphNode.macs counts all N rows)"
    )
    lines.append(
        f"sum of node medians {total * 1e3:.3f} ms; run_integer median {e2e * 1e3:.3f} ms "
        f"(p10 {np.percentile(wall, 10) * 1e3:.3f}, p90 {np.percentile(wall, 90) * 1e3:.3f}); "
        f"{batch * macs / e2e:.3g} MAC/s end to end ({macs} MACs executed per sample)"
    )
    return "\n".join(lines)


def main(argv=None) -> None:
    args = parse_args(argv)
    executor, inputs = build_executor(args)
    samples, wall = profile(executor, inputs, args.repeats, args.warmup)
    threads = {
        name: os.environ[name]
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if name in os.environ
    }
    print(
        f"{args.arch}"
        + ("" if args.arch == "temponet" else f" patch {args.patch}")
        + f", input {executor.graph.graph_input.shape}, batch {args.batch}, "
        f"{args.repeats} repeats, optimize={args.optimize}, lut={not args.no_lut}; "
        f"{os.cpu_count()} CPUs, NumPy {np.__version__}, threads env {threads or 'unset'}"
    )
    print(render(executor, samples, wall, args.batch))


if __name__ == "__main__":
    main()
