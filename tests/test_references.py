"""Every `vey` and `manifold` job of the benchmark prints its reference bytes.

`perfbench/references.json` maps each benchmark job to the sha256 and byte
count of its stdout.  The enumeration jobs need no elimination, so all of
them run here in-process against no cache; the file is only read.
"""

import hashlib
import json
import pathlib

import pytest

from veycalc import cli

REFERENCES = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
JOBS = {
    job: ref
    for job, ref in json.loads(REFERENCES.read_text()).items()
    if job.split()[0] in ("vey", "manifold")
}


def test_every_enumeration_job_is_covered():
    assert len(JOBS) == 109


@pytest.mark.parametrize("job", sorted(JOBS))
def test_output_matches_reference(capsys, job):
    assert cli.run(job.split() + ["--no-cache"]) == 0
    out = capsys.readouterr().out.encode()
    assert (hashlib.sha256(out).hexdigest(), len(out)) == (
        JOBS[job]["sha256"],
        JOBS[job]["bytes"],
    )
