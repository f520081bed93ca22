"""Every JSON document the benchmark's jobs print follows its schema.

Each `--format json` job of `perfbench/references.json`, and `kappa`, runs
in-process against no cache from the repository root, as in
`test_references.py`, and its output is validated against its schema in
`docs/schemas/`, whose `$ref`s resolve to the other schemas there.  Outputs
over 300 KB, the largest `vey` documents, are left out to keep the suite fast.
The library's model documents are validated as they stand, with no CLI call.
"""

import itertools
import json
import pathlib
import re

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from veycalc import cli
from veycalc.cache import Config

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
# The documents the program reads or writes: each command's output, and the
# `--config` file that cache.load_config reads
DOCUMENTS = {*SCHEMA_OF.values(), "config"}
SCHEMAS = {p.stem: json.loads(p.read_text()) for p in (ROOT / "docs" / "schemas").glob("*.json")}
REGISTRY = Registry().with_resources(
    (s["$id"], Resource.from_contents(s)) for s in SCHEMAS.values()
)


def test_every_json_output_kind_is_covered():
    assert {job.split()[0] for job in JOBS} == set(SCHEMA_OF)
    assert len(JOBS) == 97


def test_every_schema_describes_a_document_or_a_part_of_one():
    # no schema outlives the value it described: each is a document's, or is
    # reached by $ref from one
    reached, todo = set(), list(DOCUMENTS)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += re.findall(r'"\$ref": "(\w+)\.json"', json.dumps(SCHEMAS[name]))
    assert set(SCHEMAS) == reached


def test_config_schema_names_the_config_keys():
    schema = SCHEMAS["config"]
    assert list(schema["properties"]) == list(Config._fields)
    Draft202012Validator(schema).validate(Config(cache_dir="cache").to_json_obj())


@pytest.mark.parametrize("job", JOBS)
def test_output_follows_its_schema(capsys, monkeypatch, job):
    monkeypatch.chdir(ROOT)
    assert cli.run(job.split() + ["--no-cache"]) == 0
    doc = json.loads(capsys.readouterr().out)
    schema = SCHEMAS[SCHEMA_OF[job.split()[0]]]
    Draft202012Validator(schema, registry=REGISTRY).validate(doc)


def _descriptors():
    from veycalc.manifold import ManifoldDescriptor

    for q in range(1, 13):
        for flags in itertools.product((False, True), repeat=3):
            for cospherical in ((), ((1, 2),), ((1, 2), (3, 1))):
                if all(k < q for k, _ in cospherical):
                    yield ManifoldDescriptor(q, *flags[:2], cospherical, flags[2])


def test_every_manifold_report_follows_its_schema():
    # the records are plain dicts, so the schema is what checks their targets,
    # methods, survival values and ranks
    from veycalc.manifold import report

    validator = Draft202012Validator(SCHEMAS["manifold_report"], registry=REGISTRY)
    descriptors = list(_descriptors())
    assert len(descriptors) == 256
    for d in descriptors:
        validator.validate({"descriptor": d.to_json_obj(), "records": report(d)})


def test_every_library_model_follows_its_schema():
    # ModelStage.to_json_obj() is the whole model document, ranks included
    from veycalc.minimal_model import build_model

    validator = Draft202012Validator(SCHEMAS["model"], registry=REGISTRY)
    for q, cap in [(q, cap) for q in range(1, 5) for cap in range(2, 13)] + [(2, 18), (3, 16)]:
        validator.validate(build_model(q, cap).to_json_obj())
