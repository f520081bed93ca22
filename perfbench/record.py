"""Record the reference digest of every job in every workload's job space.

Usage, from the root of a checkout: python3 perfbench/record.py

Each job runs once against an empty cache.  A job is recorded only when it
exits 0 and its output passes the independent checks of checks.py, so a
reference never enshrines an output those checks reject.  Writes
perfbench/references.json and the machine fields of perfbench/provenance.json.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

from checks import digest, invariant_failure
from run import BENCH_DIR, LAUNCH, Runner
from workloads import WORKLOADS, job_key, job_space


def main() -> int:
    root = Path.cwd()
    workdir = root / ".bench_work" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    runner = Runner(root, workdir, {}, float("inf"))
    jobs = sorted(set().union(*(job_space(w) for w in WORKLOADS.values())))
    references = {}
    try:
        for job in jobs:
            latency, _, code, out, err = runner.execute([sys.executable, "-c", LAUNCH, *job], None)
            failure = f"exit code {code}: {err.decode()[-300:]}" if code else invariant_failure(
                job, out, root / "tests" / "golden")
            if failure:
                print(f"{job_key(job)}: {failure}", file=sys.stderr)
                return 1
            references[job_key(job)] = {"sha256": digest(out), "bytes": len(out)}
            print(f"{latency:7.3f}s {job_key(job)}", flush=True)
        env = runner.env(workdir / "home", workdir / "cache")
        config_digest = subprocess.run(
            [sys.executable, "-c",
             "from veycalc.cache import Config; print(Config(cache_dir='~/.cache/veycalc').digest())"],
            env=env, cwd=root, check=True, capture_output=True, text=True).stdout.strip()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (BENCH_DIR / "references.json").write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")

    provenance_path = BENCH_DIR / "provenance.json"
    provenance = json.loads(provenance_path.read_text())
    provenance["references_recorded"] = {
        "git_sha": subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True,
                                  capture_output=True, text=True).stdout.strip(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "config_digest": config_digest,
        "config_digest_of": "Config(cache_dir='~/.cache/veycalc'): the default config with the default cache path unexpanded, since Config().digest() hashes the resolved path",
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "jobs": len(references),
    }
    provenance_path.write_text(json.dumps(provenance, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
