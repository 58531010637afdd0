"""Regenerate the golden hybrid-selection fixture (intentional changes only).

Runs the paper's hybrid guidance (``experiments.common.hybrid_strategy``:
information-gain look-ahead plus worker-driven guidance) with an oracle
expert to ``PrecisionReached(1.0)`` on small ``bb`` and ``art`` stand-ins,
and records, per question, the chosen object, the sub-strategy that chose
it, and every candidate score (as ``float.hex`` so the comparison is
bit-exact). ``tests/test_golden_selections.py`` replays the same runs and
asserts the recording is unchanged, so a floating-point drift in the
look-ahead that flips a tie fails loudly.

Run from the repository root::

    PYTHONPATH=src python tests/fixtures/generate_golden_selections.py

Commit the regenerated file together with the change that motivated it,
and say why in the commit message.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import replace

import numpy as np

from repro.experiments.common import hybrid_strategy
from repro.experts.simulated import OracleExpert
from repro.guidance.base import GuidanceStrategy
from repro.process.goals import PrecisionReached
from repro.process.validation_process import ValidationProcess
from repro.simulation.crowd import simulate_crowd
from repro.simulation.realworld import DATASET_SPECS

PATH = pathlib.Path(__file__).parent / "golden_selections.json"

#: (dataset stand-in, object count) pairs recorded in the fixture.
CASES = (("bb", 16), ("art", 20), ("bb", 40), ("art", 40))

#: Seed of the process RNG (roulette wheel and tie-breaks).
PROCESS_SEED = 20260807


class RecordingStrategy(GuidanceStrategy):
    """Delegates to ``inner`` and keeps every :class:`Selection`."""

    name = "recording"

    def __init__(self, inner: GuidanceStrategy) -> None:
        self.inner = inner
        self.selections = []

    def select(self, context):
        selection = self.inner.select(context)
        self.selections.append(selection)
        return selection


def record_case(dataset: str, n_objects: int) -> dict:
    spec = DATASET_SPECS[dataset]
    crowd = simulate_crowd(replace(spec.to_config(), n_objects=n_objects),
                           rng=spec.seed)
    strategy = RecordingStrategy(hybrid_strategy())
    process = ValidationProcess(crowd.answer_set, OracleExpert(crowd.gold),
                                strategy=strategy,
                                goal=PrecisionReached(1.0), gold=crowd.gold,
                                rng=PROCESS_SEED)
    process.run()
    return {
        "dataset": dataset,
        "n_objects": n_objects,
        "objects": [int(s.object_index) for s in strategy.selections],
        "strategies": [s.strategy for s in strategy.selections],
        "scores": [[float(x).hex() for x in np.asarray(s.scores)]
                   for s in strategy.selections],
    }


def main() -> None:
    cases = [record_case(dataset, n) for dataset, n in CASES]
    PATH.write_text(json.dumps({"process_seed": PROCESS_SEED,
                                "cases": cases}, indent=1) + "\n")
    for case in cases:
        print(f"{case['dataset']}/{case['n_objects']}: "
              f"{len(case['objects'])} selections "
              f"({case['strategies'].count('worker')} worker-driven)")


if __name__ == "__main__":
    main()
