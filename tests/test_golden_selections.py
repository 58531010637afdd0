"""Golden-fixture regression: the hybrid strategy's selection sequence.

The look-ahead scorers are optimised under a bit-for-bit contract: every
candidate score must equal the one a plain per-hypothesis ``run_em`` loop
produces. A drift of one ulp can flip an ``argmax`` tie and change which
object the expert sees next without failing any behavioural test, so this
test replays the hybrid guidance runs recorded in
``fixtures/golden_selections.json`` and asserts the chosen objects, the
branch that chose them, and every candidate score are unchanged.

Regenerate the fixture only for an intentional change, with
``PYTHONPATH=src python tests/fixtures/generate_golden_selections.py``.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent / "fixtures"))
import generate_golden_selections as golden  # noqa: E402

GOLDEN = json.loads(golden.PATH.read_text())


def test_fixture_covers_the_recorded_cases():
    assert GOLDEN["process_seed"] == golden.PROCESS_SEED
    recorded = [(c["dataset"], c["n_objects"]) for c in GOLDEN["cases"]]
    assert recorded == list(golden.CASES)
    # Both branches of the hybrid wheel are exercised.
    strategies = {s for c in GOLDEN["cases"] for s in c["strategies"]}
    assert strategies == {"uncertainty", "worker"}


@pytest.mark.parametrize("case", GOLDEN["cases"],
                         ids=lambda c: f"{c['dataset']}-{c['n_objects']}")
def test_hybrid_selections_match_golden(case):
    replayed = golden.record_case(case["dataset"], case["n_objects"])
    assert replayed["objects"] == case["objects"]
    assert replayed["strategies"] == case["strategies"]
    assert replayed["scores"] == case["scores"]
