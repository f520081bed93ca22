"""Per-layer metrics from the spans the tracer writes, summed over a job list.

A span's `.s` is its inclusive time; its self time is that minus the time of
its direct child spans.  A layer is a module of the package; `<module>.errors`
counts exceptions that leave the module through a traced call.
"""

from __future__ import annotations

import json
from collections import defaultdict

from tracer import LAYERS


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class LayerTotals:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.info: dict[tuple[str, str], float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.import_s = 0.0
        self.stdout_bytes = 0
        self.linalg_outer_s = 0.0
        self.inner_vey_classes = 0
        self.distinct_basis_keys = 0

    def add_job(self, spans_path: str, stdout_bytes: int) -> None:
        with open(spans_path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            spans = [json.loads(line) for line in fh]
        self.import_s += header["import_s"]
        self.stdout_bytes += stdout_bytes
        child_s = [0.0] * len(spans)
        for s in spans:
            if s["parent"] >= 0:
                child_s[s["parent"]] += s["end"] - s["start"]
        basis_keys = set()
        for i, s in enumerate(spans):
            name, dur, info = s["name"], s["end"] - s["start"], s["info"] or {}
            module = name.split(".")[0]
            parent = spans[s["parent"]]["name"] if s["parent"] >= 0 else ""
            self.calls[name] += 1
            self.incl[name] += dur
            self.self_s[name] += dur - child_s[i]
            for key, value in info.items():
                if key == "key":
                    basis_keys.add(tuple(value))
                elif key != "error":
                    self.info[name, key] += value
            if "error" in info and not parent.startswith(module + "."):
                self.errors[module] += 1
            if module == "linalg" and not parent.startswith("linalg."):
                self.linalg_outer_s += dur
            if name == "vey.vey_basis" and parent == "vey.variable_set":
                self.inner_vey_classes += info.get("n", 0)
        self.distinct_basis_keys += len(basis_keys)

    def metrics(self, overhead_s: float) -> dict[str, tuple[float, str]]:
        return {
            name: (float(value(self)), unit) for name, unit, value in METRICS
        } | {"trace.overhead_s": (overhead_s, "s")}


# A metric is named after its span unless the span is a method, whose
# metric drops the class name: cache.ResultCache.get -> cache.get.calls.
def _calls(metric, span=None):
    return metric + ".calls", "count", lambda t: t.calls[span or metric]


def _incl(metric, span=None):
    return metric + ".s", "s", lambda t: t.incl[span or metric]


def _self(metric, span=None):
    return metric + ".self_s", "s", lambda t: t.self_s[span or metric]


def _info(metric, span, key, unit="count"):
    return metric, unit, lambda t: t.info[span, key]


FA = "minimal_model.FreeAlgebra"
METRICS = [
    ("cli.import_s", "s", lambda t: t.import_s),
    _self("cli.run"),
    ("cli.stdout_bytes", "bytes", lambda t: t.stdout_bytes),
    _calls("cache.get", "cache.ResultCache.get"),
    _incl("cache.get", "cache.ResultCache.get"),
    _calls("cache.put", "cache.ResultCache.put"),
    _incl("cache.put", "cache.ResultCache.put"),
    _info("cache.put.bytes", "cache.ResultCache.put", "bytes", "bytes"),
    ("cache.hit_ratio", "ratio",
     lambda t: _ratio(t.info["cache.ResultCache.get", "hit"], t.calls["cache.ResultCache.get"])),
    _calls("gca.basis_of_degree"),
    _incl("gca.basis_of_degree"),
    _info("gca.basis_of_degree.monomials", "gca.basis_of_degree", "n"),
    _calls("gca.differential"),
    _incl("gca.differential"),
    _calls("gca.Element.mul"),
    _incl("gca.Element.mul"),
    _self("complexes.build_complex"),
    _info("complexes.basis_elements", "complexes.build_complex", "basis"),
    _info("complexes.diff_nnz", "complexes.build_complex", "nnz"),
    _calls("complexes.diff_matrix", "complexes.GradedComplex.diff_matrix"),
    _info("complexes.diff_matrix.cells", "complexes.GradedComplex.diff_matrix", "cells"),
    _self("complexes.cohomology"),
    ("linalg.s", "s", lambda t: t.linalg_outer_s),
    _calls("linalg.rref"),
    _self("linalg.rref"),
    _info("linalg.rref.cells", "linalg.rref", "cells"),
    _calls("linalg.rank"),
    _calls("linalg.nullspace"),
    _self("linalg.nullspace"),
    _calls("linalg.solve"),
    _calls("linalg.independent_complement"),
    _self("linalg.independent_complement"),
    ("linalg.independent_complement.accept_ratio", "ratio",
     lambda t: _ratio(t.info["linalg.independent_complement", "chosen"],
                      t.info["linalg.independent_complement", "cand"])),
    _calls("vey.vey_basis"),
    _self("vey.vey_basis"),
    _info("vey.vey_basis.classes", "vey.vey_basis", "n"),
    ("vey.variable_set.keep_ratio", "ratio",
     lambda t: _ratio(t.info["vey.variable_set", "n"], t.inner_vey_classes)),
    _calls("vey.extended_basis"),
    _self("vey.extended_basis"),
    _self("vey.validate_vey"),
    _self("minimal_model.build_model"),
    _info("minimal_model.generators", "minimal_model.build_model", "gens"),
    _calls(FA + ".basis"),
    _info(FA + ".basis.words", FA + ".basis", "n"),
    _incl(FA + ".basis"),
    (FA + ".basis.distinct_ratio", "ratio",
     lambda t: _ratio(t.distinct_basis_keys, t.calls[FA + ".basis"])),
    _calls(FA + ".differential"),
    _incl(FA + ".differential"),
    _calls(FA + ".mul"),
    _incl(FA + ".mul"),
    _self("manifold.report"),
    _info("manifold.records", "manifold.report", "n"),
    *((f"{layer}.errors", "count", lambda t, layer=layer: t.errors[layer]) for layer in LAYERS),
]
