"""Record the reference answer digests of a workload list for some seeds.

    python3 perfbench/record_refs.py 1 97

For every workload and seed this runs the request list once, refuses to
record anything unless every answer passes the other checks, and writes
refs/<workload>-<seed>.json. Record from a commit whose answers are
trusted; later runs with the same seed then compare against it.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def record(workload: str, seed: int) -> None:
    cli, requests, _ = run.setup(workload, seed)
    runner = run.Runner(cli, requests, None)
    runner.run_pass()
    if runner.problems:
        raise SystemExit(f"not recording {workload} seed {seed}: "
                         f"{runner.problems[:3]}")
    doc = {"workload": workload, "seed": seed,
           "inputs": run.inputs_digest(requests),
           "digests": runner.digests}
    run.REFS.mkdir(exist_ok=True)
    run.ref_path(workload, seed).write_text(json.dumps(doc, indent=0) + "\n")


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for seed in map(int, argv):
        for workload in workloads.WORKLOADS:
            record(workload, seed)
            print(f"recorded {workload} seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
