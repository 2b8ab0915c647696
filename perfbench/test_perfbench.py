"""Smoke-scale tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import common, corpus, layers, serve
from perfbench.layers import END_TO_END, PER_LAYER
from perfbench.run import result_line
from perfbench.tracing import Summary
from repro.api import ReproSession

ROOT = Path(__file__).resolve().parent.parent
RUNNERS = {
    "corpus-cold": lambda seed, trace: corpus.run_cold(seed, 0.2, trace, corpus.SMOKE),
    "corpus-warm": lambda seed, trace: corpus.run_warm(seed, 0.2, trace, corpus.SMOKE),
    "serve-mixed": lambda seed, trace: serve.run(seed, 3, trace, serve.SMOKE),
}


def test_metric_tables_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == ["corpus-cold", "corpus-warm", "serve-mixed"]


@pytest.mark.parametrize("workload", sorted(RUNNERS))
def test_every_metric_is_printed_with_its_unit(workload):
    names = {}
    for seed, trace in ((1, False), (2, False), (3, True)):
        result = RUNNERS[workload](seed, trace)
        line = json.loads(json.dumps(result_line(result, trace)))
        assert line["correct"] is True, result.outcome.problems
        assert line["attempted"] >= 1 and line["failed"] == 0
        expected = PER_LAYER if trace else END_TO_END
        assert {name: entry["unit"] for name, entry in line["metrics"].items()} == expected
        names[seed] = sorted(line["metrics"])
    # a different seed changes the metric values' inputs, never their names
    assert names[1] == names[2]


def test_seed_changes_the_inputs():
    world = common.make_world()
    first = common.make_corpus(world, 4, common.derive_seed(1, "cold-0"), "t")
    again = common.make_corpus(world, 4, common.derive_seed(1, "cold-0"), "t")
    other = common.make_corpus(world, 4, common.derive_seed(2, "cold-0"), "t")
    assert [t.table.to_dict() for t in first] == [t.table.to_dict() for t in again]
    assert [t.table.to_dict() for t in first] != [t.table.to_dict() for t in other]


def test_tampered_outputs_are_caught():
    world = common.make_world()
    session = ReproSession.from_world(world.annotator_view)
    bodies = common.session_golden_bodies(session, world)
    assert sorted(bodies) == ["annotate", "join", "search"]

    outcome = common.Outcome()
    outcome.check_golden(bodies)
    assert outcome.correct and outcome.attempted == 3

    for endpoint, found in bodies.items():
        tampered = {**bodies, endpoint: found[:-1] + [found[-1].replace(b"{", b"{ ", 1)]}
        outcome = common.Outcome()
        outcome.check_golden(tampered)
        assert not outcome.correct and outcome.failed == 1, endpoint

    table = common.golden_tables(world)[0]
    request = serve.Request(0.0, "annotate", serve.annotate_body(table), labeled=table)
    request.status, request.response = 200, bodies["annotate"][0]
    outcome = common.Outcome()
    serve.check_sample(session, [request], 1, 1, outcome)
    assert outcome.correct
    request.response = bodies["annotate"][0][:-2] + b"0}"
    serve.check_sample(session, [request], 1, 1, outcome)
    assert outcome.failed == 1


def test_an_untraced_layer_fails_the_traced_run():
    outcome = common.Outcome()
    layers.check_crossed("corpus-warm", Summary([]), outcome)
    assert outcome.failed == len(layers.CROSSED["corpus-warm"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-cold", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
