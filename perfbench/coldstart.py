"""One cold start of the campaign workload, run in a fresh interpreter.

Imports the program and runs the five-case campaign once, then prints one
JSON line with the seconds that took and the campaign's digest, which the
parent run compares with its own::

    python3 perfbench/coldstart.py --backend exact --seed 1
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402

from program import import_program  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    import_program()
    from repro.experiments.runner import EvaluationConfig, run_evaluation

    result = run_evaluation(EvaluationConfig(seed=args.seed, backend=args.backend))
    seconds = time.perf_counter() - STARTED

    from workloads import campaign_digest

    print(json.dumps({"seconds": seconds, "digest": campaign_digest(result)}))


if __name__ == "__main__":
    main()
