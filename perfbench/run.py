"""Run one benchmark workload and print its result as the last stdout line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs with spans
around each layer's public functions and prints every per-layer metric.
The line before the result is a JSON report: provenance, cache state,
latency percentiles with their sample counts, and per-rate load figures.
Exits 2 without a result when the program's sources are not beside it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus-cold", "corpus-warm", "serve-mixed")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if sys.path and Path(sys.path[0]).resolve() == ROOT / "perfbench":
        sys.path.pop(0)  # keep the benchmark's modules under their package
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import common

    trace = bool(args.trace)
    if args.workload == "serve-mixed":
        from perfbench import serve

        result = serve.run(args.seed, args.seconds, trace)
    else:
        from perfbench import corpus

        runner = corpus.run_cold if args.workload == "corpus-cold" else corpus.run_warm
        result = runner(args.seed, args.seconds, trace)
    report = {
        "provenance": common.provenance(args.workload, args.seed, args.seconds, trace),
        "problems": result.outcome.problems,
        "end_to_end": result.end_to_end,
        **result.report,
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result_line(result, trace)))
    return 0


def result_line(result, trace: bool) -> dict:
    """The object the last stdout line carries."""
    return {
        "correct": result.outcome.correct,
        "attempted": result.outcome.attempted,
        "failed": result.outcome.failed,
        "metrics": result.per_layer if trace else result.end_to_end,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
