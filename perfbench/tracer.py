"""Run one `veycalc` CLI invocation with timing spans around each layer.

Usage: python perfbench/tracer.py SPANS_FILE JOB_ID ARG...

The wrappers are installed from outside the program: after importing
`veycalc.cli`, the traced functions and methods below are replaced by timing
wrappers on their modules and classes, and every module-level name bound to
one of the replaced functions is rebound too.  Spans stay in memory and are
written as JSON lines to SPANS_FILE when the invocation ends.  The first line
holds the job id and the import time of `veycalc.cli`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

LAYERS = ("cli", "cache", "gca", "complexes", "linalg", "vey", "minimal_model", "manifold")

# The layer boundaries: module-level functions and class methods, per module.
# Small helpers that run inside another layer's work (canonical_json,
# cache_key, build_parser, Monomial methods) are left unwrapped, so
# their time counts where they are called from.
TRACED = {
    "cli": ("run",),
    "cache": ("ResultCache.get", "ResultCache.put"),
    "gca": ("basis_of_degree", "differential", "basis_dimension_series", "Element.__mul__"),
    "complexes": (
        "build_complex",
        "cohomology",
        "is_cocycle",
        "is_coboundary",
        "dimension_estimate",
        "GradedComplex.diff_matrix",
    ),
    "linalg": ("rref", "rank", "nullspace", "solve", "independent_complement"),
    "vey": ("vey_basis", "variable_set", "v_count", "extended_basis", "extended_count", "validate_vey"),
    "minimal_model": (
        "build_model",
        "rank_table",
        "loop_poincare",
        "FreeAlgebra.basis",
        "FreeAlgebra.differential",
        "FreeAlgebra.mul",
    ),
    "manifold": ("report", "preset"),
}


def _cache_put_bytes(args, result):
    store, command, params = args[0], args[1], args[2]
    cache_key = sys.modules["veycalc.cache"].cache_key
    return {"bytes": os.path.getsize(store._path(cache_key(command, params)))}


def _matrix_cells(mat) -> int:
    return len(mat) * len(mat[0]) if mat else 0


# What a span records about its call besides timing, computed after the
# span's end time is taken.
PROBES = {
    "cache.ResultCache.get": lambda a, r: {"hit": int(r is not None)},
    "cache.ResultCache.put": _cache_put_bytes,
    "gca.basis_of_degree": lambda a, r: {"n": len(r)},
    "complexes.build_complex": lambda a, r: {
        "basis": sum(len(b) for b in r.bases.values()),
        "nnz": sum(len(t) for t in r.diff.values()),
    },
    "complexes.GradedComplex.diff_matrix": lambda a, r: {"cells": _matrix_cells(r)},
    "linalg.rref": lambda a, r: {"cells": _matrix_cells(a[0])},
    "linalg.independent_complement": lambda a, r: {"chosen": len(r), "cand": len(a[1])},
    "vey.vey_basis": lambda a, r: {"n": len(r)},
    "vey.variable_set": lambda a, r: {"n": len(r)},
    "minimal_model.build_model": lambda a, r: {
        "gens": sum(len(g) for g in r.generators.values())
    },
    "minimal_model.FreeAlgebra.basis": lambda a, r: {
        "n": len(r),
        "key": [len(a[0].degrees), a[1]],
    },
    "manifold.report": lambda a, r: {"n": len(r)},
}


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.replace('__mul__', 'mul')}"


class Tracer:
    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[list] = []  # [name, start, end, parent, info]
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, {"error": 1}]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[4] = probe(args, result) if probe is not None else None
            return result

        return wrapper

    def install(self) -> None:
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"veycalc.{layer}")
            for attr in TRACED[layer]:
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, fn_name)
                wrapped = self.wrap(span_name(layer, attr), original)
                setattr(owner, fn_name, wrapped)
                if not owner_name:
                    replaced[id(original)] = wrapped
        # `from .x import f` copies: rebind them so every call goes through a span
        for name, module in list(sys.modules.items()):
            if name == "veycalc" or name.startswith("veycalc."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replaced:
                        setattr(module, attr, replaced[id(value)])

    def write(self, path: str, import_s: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"job": self.job_id, "import_s": import_s}) + "\n")
            for name, start, end, parent, info in self.spans:
                fh.write(
                    json.dumps({"job": self.job_id, "name": name, "start": start,
                                "end": end, "parent": parent, "info": info}) + "\n"
                )


def main() -> int:
    spans_path, job_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    import veycalc.cli

    import_s = time.perf_counter() - start
    tracer = Tracer(job_id)
    tracer.install()
    try:
        code = veycalc.cli.run(argv)
        sys.stdout.flush()
    finally:
        tracer.write(spans_path, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
