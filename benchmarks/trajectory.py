"""The ``BENCH_*.json`` trajectory files shared by the benchmark modules.

A benchmark module owns one :class:`Trajectory`.  Its tests stash headline
numbers with :meth:`Trajectory.record`, and a module-scoped autouse fixture
calls :meth:`Trajectory.dump` once the module's tests have run.

Appending is opt-in: :meth:`Trajectory.dump` writes only when the
environment sets ``REPRO_RECORD_BENCH=1``, so the trajectory holds
deliberate runs and an ordinary test run leaves the tracked files as they
are.  Every gate runs either way, and gates that compare against the
recorded trajectory read it through :meth:`Trajectory.history`.

    REPRO_RECORD_BENCH=1 PYTHONPATH=src python -m pytest benchmarks/test_serving_throughput.py -q
"""

import json
import os
import time

#: Environment switch that turns on appending to the trajectory files.
RECORD_ENV = "REPRO_RECORD_BENCH"
#: Entries kept per file (oldest dropped first).
HISTORY_CAP = 100

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Trajectory:
    """One trajectory file at the repository root, newest entry last.

    ``context`` (geometry, window counts, ...) is stored with every entry;
    ``digits`` is the rounding applied to recorded metrics.
    """

    def __init__(self, filename: str, description: str, digits: int, **context) -> None:
        self.path = os.path.join(_ROOT, filename)
        self.description = description
        self.digits = digits
        self.context = context
        self.metrics: dict = {}

    def record(self, name: str, **metrics) -> None:
        """Stash ``metrics`` under ``name`` for this run's entry."""
        self.metrics[name] = {
            key: round(float(value), self.digits) for key, value in metrics.items()
        }

    def history(self) -> list:
        """The recorded entries (empty when the file is missing or corrupt)."""
        if not os.path.exists(self.path):
            return []
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                return json.load(handle).get("history", [])
        except (json.JSONDecodeError, OSError):
            return []  # a corrupt trajectory must never fail the suite

    def dump(self) -> bool:
        """Append this run's entry when recording is on; whether it wrote."""
        if not self.metrics or os.environ.get(RECORD_ENV) != "1":
            return False
        history = self.history()
        history.append(
            {
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                **self.context,
                "metrics": dict(sorted(self.metrics.items())),
            }
        )
        payload = {"description": self.description, "history": history[-HISTORY_CAP:]}
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        return True
