"""Fast self-check of the benchmark harness at tiny sizes.

    python3 bench/selfcheck.py

Runs every workload in both modes on tiny inputs, and checks that each run
passes its correctness gate and emits exactly the metrics BENCHMARK.json
names.  Then it tampers with one output digest and checks that the gate
reports the run as incorrect, with a failed invocation.
"""

from __future__ import annotations

import json
import sys

import run

TINY = run.Sizes(render_res=(48, 24), witness_k=2, witness_res="128x16", cusp_max_q=3, trace_fill_q=12)


def quiet(line: str) -> None:
    pass


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(run.SRC))
    for workload in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = run.run_workload(workload, 1, 0, trace, TINY, say=quiet)
            names = {m["name"] for m in bench[section]}
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            assert set(res["metrics"]) == names, sorted(names ^ set(res["metrics"]))
            print(f"ok {workload} --trace {trace}: {len(names)} metrics from {res['attempted']} invocations")

    real = run.sha256_file
    seen = []

    def tampered(path):
        seen.append(path)
        return "0" * 64 if len(seen) == 2 else real(path)

    run.sha256_file = tampered
    try:
        res = run.run_workload("cusp_table", 1, 0, 0, TINY, say=quiet)
    finally:
        run.sha256_file = real
    assert not res["correct"] and res["failed"] == 1, res
    print("ok a tampered digest fails the gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
