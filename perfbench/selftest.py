"""Self-test of the benchmark itself.

Usage, from the root of a checkout: python3 perfbench/selftest.py

Checks that a seed always gives the same job list, that every job of every
job space has a reference digest, and that a traced run reports exactly the
per-layer metric names declared in BENCHMARK.json (and an untraced one the
end-to-end names).  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

from run import BENCH_DIR, JobResult, Runner, end_to_end
from workloads import WORKLOADS, job_key, job_list, job_space

# Small jobs that between them enter every layer.
TRACED_JOBS = [
    ("cohomology", "--complex", "W", "--q", "2", "--format", "json"),
    ("validate", "--complex", "WO", "--q", "3", "--format", "table"),
    ("vey", "--complex", "WO", "--q", "5", "--format", "json"),
    ("manifold", "--preset", "Rq:2", "--format", "json"),
    ("manifold", "--preset", "Rq:2", "--format", "json"),
    ("kappa", "--q", "3"),
]


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: FAILED: {message}")
    print(f"ok  {message}")


def main() -> int:
    root = Path.cwd()
    declared = json.loads((root / "BENCHMARK.json").read_text())
    references = json.loads((BENCH_DIR / "references.json").read_text())

    for w in WORKLOADS.values():
        for seconds in (1, 20, 60):
            first = job_list(w, 7, seconds)
            check(first == job_list(w, 7, seconds), f"{w.name}: seed 7 gives the same list at {seconds} s")
        check(job_list(w, 1, 20) != job_list(w, 2, 20), f"{w.name}: seeds 1 and 2 give different lists")
        missing = [job_key(j) for j in job_space(w) if job_key(j) not in references]
        check(not missing, f"{w.name}: all {len(job_space(w))} jobs have a reference {missing[:3]}")

    workdir = root / ".bench_work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(root, workdir, references, time.monotonic() + 120)
        _, results, layers = runner.run_traced(TRACED_JOBS, (workdir / "cache", workdir / "traced-cache"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check(all(r.failure is None for r in results), "traced jobs pass the correctness gate")
    got = layers.metrics(0.0)
    check(set(got) == {m["name"] for m in declared["per_layer"]},
          "traced run reports exactly the declared per-layer names")
    check(all(got[m["name"]][1] == m["unit"] for m in declared["per_layer"]), "per-layer units match")
    check(got["cache.hit_ratio"][0] == 0.25, "the repeated preset is the one cache hit of four gets")
    e2e = end_to_end(1.0, 0.5, 1.0, [JobResult(0.1, 1024, None)] * 12)
    check({k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in declared["end_to_end"]},
          "end-to-end names and units match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
