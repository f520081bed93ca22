"""Every job of the benchmark prints its reference bytes.

`perfbench/references.json` maps each benchmark job to the sha256 and byte
count of its stdout.  All of them run here in-process against no cache, from
the repository root, where the `--config perfbench/...` paths of the model
jobs resolve; the file is only read.
"""

import hashlib
import json
import pathlib

import pytest

from veycalc import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
JOBS = json.loads((ROOT / "perfbench" / "references.json").read_text())


def test_every_job_is_covered():
    assert len(JOBS) == 229


@pytest.mark.parametrize("job", sorted(JOBS))
def test_output_matches_reference(capsys, monkeypatch, job):
    monkeypatch.chdir(ROOT)
    assert cli.run(job.split() + ["--no-cache"]) == 0
    out = capsys.readouterr().out.encode()
    assert (hashlib.sha256(out).hexdigest(), len(out)) == (
        JOBS[job]["sha256"],
        JOBS[job]["bytes"],
    )
