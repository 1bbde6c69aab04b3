"""Correctness oracle, run after the timed phase.

The reference for every check is computed on a separately built backend
(same registry seed, same calibration windows), one window per call, so
it shares no batching, queueing or session code with the served path:

* a stream's decisions must be contiguous from window 0 and equal
  ``sliding_windows`` over the pushed samples, classified one window at a
  time, then smoothed by a fresh ``MajorityVoter``;
* int8 logits must be bitwise equal to the reference.  Integer inference
  does not depend on the batch a window rides in, so any difference is a
  defect;
* float logits must give the same argmax and lie within ``FLOAT_ATOL`` of
  the reference.  BLAS sums in a batch-dependent order, which moves float
  logits by a few ulps (up to 4.4e-16 for bio1), so bitwise equality would
  be the wrong test there.

Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.data.windowing import sliding_windows
from repro.serve import MajorityVoter

__all__ = [
    "FLOAT_ATOL",
    "reference_logits",
    "reference_stream",
    "check_stream",
    "check_bitwise",
    "check_close",
]

FLOAT_ATOL = 1e-9
_MAX_REPORTED = 3


def reference_logits(backend, windows: np.ndarray) -> np.ndarray:
    """Logits of ``windows`` computed one window per backend call."""
    return np.stack([np.asarray(backend.run(w[None]))[0] for w in windows])


def reference_stream(
    backend, signal: np.ndarray, samples: int, *, window: int, slide: int, smoothing: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-window ``(labels, smoothed_labels)`` of ``signal[:, :samples]``."""
    windows = sliding_windows(np.asarray(signal[:, :samples]), window, slide)
    labels = [int(np.argmax(backend.run(w[None])[0])) for w in windows]
    voter = MajorityVoter(smoothing)
    smoothed = [voter.vote(label) for label in labels]
    return np.asarray(labels, dtype=np.int64), np.asarray(smoothed, dtype=np.int64)


def check_stream(
    decisions: Sequence, labels: np.ndarray, smoothed: np.ndarray, name: str
) -> List[str]:
    """Decisions must be window 0, 1, 2, ... and match the reference."""
    problems: List[str] = []
    if len(decisions) != len(labels):
        problems.append(
            f"{name}: {len(decisions)} decisions for {len(labels)} complete windows"
        )
    for position, decision in enumerate(decisions[: len(labels)]):
        if len(problems) >= _MAX_REPORTED:
            break
        if decision.window_index != position:
            problems.append(
                f"{name}: decision {position} has window_index {decision.window_index}"
            )
        elif decision.label != labels[position]:
            problems.append(
                f"{name}: window {position} label {decision.label}, "
                f"reference {labels[position]}"
            )
        elif decision.smoothed_label != smoothed[position]:
            problems.append(
                f"{name}: window {position} smoothed label "
                f"{decision.smoothed_label}, reference {smoothed[position]}"
            )
    return problems


def check_bitwise(got: np.ndarray, reference: np.ndarray, name: str) -> List[str]:
    """Every logit equal to the reference, bit for bit."""
    got = np.ascontiguousarray(got, dtype=np.float64)
    if got.shape != reference.shape:
        return [f"{name}: shape {got.shape}, reference {reference.shape}"]
    bits = np.ascontiguousarray(reference, dtype=np.float64).view(np.int64)
    rows = np.flatnonzero((got.view(np.int64) != bits).any(axis=-1))
    if not rows.size:
        return []
    return [f"{name}: {rows.size} row(s) differ from the reference, first row {rows[0]}"]


def check_close(
    got: np.ndarray, reference: np.ndarray, name: str, atol: float = FLOAT_ATOL
) -> List[str]:
    """Same argmax everywhere, and every logit within ``atol``."""
    got = np.asarray(got)
    if got.shape != reference.shape:
        return [f"{name}: shape {got.shape}, reference {reference.shape}"]
    problems: List[str] = []
    flipped = np.flatnonzero(np.argmax(got, axis=-1) != np.argmax(reference, axis=-1))
    if flipped.size:
        problems.append(f"{name}: argmax differs in {flipped.size} row(s), first row {flipped[0]}")
    delta = float(np.max(np.abs(got - reference))) if got.size else 0.0
    if not delta <= atol:
        problems.append(f"{name}: max |logit delta| {delta:.3g} exceeds {atol:g}")
    return problems
