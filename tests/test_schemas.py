"""Every JSON document the benchmark's jobs print follows its schema.

Each `--format json` job of `perfbench/references.json`, and `kappa`, runs
in-process against no cache from the repository root, as in
`test_references.py`, and its output is validated against its schema in
`docs/schemas/`, whose `$ref`s resolve to the other schemas there.  Outputs
over 300 KB, the largest `vey` documents, are left out to keep the suite fast.
"""

import json
import pathlib

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from veycalc import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
REFERENCES = json.loads((ROOT / "perfbench" / "references.json").read_text())
JOBS = sorted(job for job, ref in REFERENCES.items()
              if job.endswith("--format json") and ref["bytes"] <= 300_000)
JOBS.append("kappa --q 3 --format json")
SCHEMA_OF = {
    "cohomology": "cohomology_result",
    "vey": "vey_basis",
    "validate": "validation_report",
    "model": "model",
    "manifold": "manifold_report",
    "kappa": "kappa",
}
SCHEMAS = {p.stem: json.loads(p.read_text()) for p in (ROOT / "docs" / "schemas").glob("*.json")}
REGISTRY = Registry().with_resources(
    (s["$id"], Resource.from_contents(s)) for s in SCHEMAS.values()
)


def test_every_json_output_kind_is_covered():
    assert {job.split()[0] for job in JOBS} == set(SCHEMA_OF)
    assert len(JOBS) == 97


@pytest.mark.parametrize("job", JOBS)
def test_output_follows_its_schema(capsys, monkeypatch, job):
    monkeypatch.chdir(ROOT)
    assert cli.run(job.split() + ["--no-cache"]) == 0
    doc = json.loads(capsys.readouterr().out)
    schema = SCHEMAS[SCHEMA_OF[job.split()[0]]]
    Draft202012Validator(schema, registry=REGISTRY).validate(doc)
