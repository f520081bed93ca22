"""Correctness gate for one job's output.

Every job's stdout must hash to the reference digest recorded for its argv.
Where it is cheap, the output is also checked against facts that do not come
from the references: the per-weight Euler identity of the complex (with the
basis counted here, not by veycalc), the known values of v_q, the golden
manifold reports of the test suite, `validate` saying ok, and every
quasi-isomorphism check of a model being true.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

from workloads import V_Q

GOLDEN = {
    "T2": "manifold_T2.json",
    "Sigma_g:2": "manifold_Sigma_2.json",
    "Sigma_g:3": "manifold_Sigma_3.json",
    "S2": "manifold_S2.json",
    "S3": "manifold_S3.json",
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _arg(job: tuple[str, ...], flag: str) -> str | None:
    return job[job.index(flag) + 1] if flag in job else None


def _partitions(total: int, max_part: int):
    """Exponent vectors (e_1..e_max_part) with sum j * e_j == total."""
    if max_part == 0:
        if total == 0:
            yield ()
        return
    for e in range(total // max_part + 1):
        for rest in _partitions(total - e * max_part, max_part - 1):
            yield rest + (e,)


def euler_by_weight(kind: str, q: int) -> dict[int, int]:
    """Alternating sum of basis dimensions per total weight of W_q / WO_q / I_q.

    A basis monomial is y_I c_J with I drawn from the allowed odd indices and
    c-weight |J| <= q.  y_i and c_i both have weight i, and d(y_i) = c_i keeps
    the total weight, so each weight block is a subcomplex.
    """
    odd = {"W": range(1, q + 1), "WO": range(1, q + 1, 2), "I": ()}[kind]
    chi: dict[int, int] = {}
    for r in range(len(odd) + 1):
        for ys in itertools.combinations(odd, r):
            for cw in range(q + 1):
                for _ in _partitions(cw, q):
                    # degree parity = parity of the number of odd generators
                    w = sum(ys) + cw
                    chi[w] = chi.get(w, 0) + (-1) ** r
    return {w: x for w, x in chi.items() if x}


def _rep_weight(terms: list[dict]) -> int:
    weights = {
        sum(t["m"]["y"]) + sum((j + 1) * e for j, e in enumerate(t["m"]["c"]))
        for t in terms
    }
    if len(weights) != 1:
        raise ValueError("representative is not weight-homogeneous")
    return weights.pop()


def _check_cohomology(job, doc) -> str | None:
    dims = {int(n): d for n, d in doc["dims"].items()}
    reps = {int(n): r for n, r in doc["representatives"].items()}
    if {n: len(r) for n, r in reps.items()} != dims:
        return "representative counts differ from dims"
    if sum(dims.values()) != doc["total_dim_check"]:
        return "total_dim_check differs from the sum of dims"
    chi: dict[int, int] = {}
    for n, rs in reps.items():
        for terms in rs:
            w = _rep_weight(terms)
            chi[w] = chi.get(w, 0) + (-1) ** n
    chi = {w: x for w, x in chi.items() if x}
    if chi != euler_by_weight(_arg(job, "--complex"), int(_arg(job, "--q"))):
        return "per-weight Euler identity fails"
    return None


def _check_vey(job, doc) -> str | None:
    q = int(_arg(job, "--q"))
    if _arg(job, "--complex") != "WO" or q > len(V_Q):
        return None
    top = [c for c in doc["classes"] if c["degree"] == 2 * q + 1 and c["variable_candidate"]]
    return None if len(top) == V_Q[q - 1] else f"v_{q} is {len(top)}, expected {V_Q[q - 1]}"


def _check_manifold(job, doc, out: bytes, golden_dir: Path) -> str | None:
    name = _arg(job, "--preset")
    if name in GOLDEN and out != (golden_dir / GOLDEN[name]).read_bytes():
        return f"report differs from the golden {GOLDEN[name]}"
    q = doc["descriptor"]["q"]
    if doc["descriptor"]["compact"] and q <= len(V_Q):
        gv = sum(r["method"] == "gv_total" for r in doc["records"])
        if gv != V_Q[q - 1]:
            return f"{gv} gv_total records, expected v_{q} = {V_Q[q - 1]}"
    return None


def invariant_failure(job: tuple[str, ...], out: bytes, golden_dir: Path) -> str | None:
    """The first independent check the output fails, or None."""
    command = job[0]
    if _arg(job, "--format") != "json":
        if command == "validate" and not out.split(b"\n", 1)[0].endswith(b": ok"):
            return "validate did not report ok"
        if command == "model" and b"\nquasi_iso_check: ok\n" not in out:
            return "quasi_iso_check failed"
        return None
    doc = json.loads(out)
    if command == "cohomology":
        return _check_cohomology(job, doc)
    if command == "validate":
        return None if doc["ok"] else "validate did not report ok"
    if command == "model":
        return None if all(doc["quasi_iso_check"].values()) else "quasi_iso_check failed"
    if command == "vey":
        return _check_vey(job, doc)
    if command == "manifold":
        return _check_manifold(job, doc, out, golden_dir)
    return None


def job_failure(
    job: tuple[str, ...], returncode: int, out: bytes, reference: dict | None, golden_dir: Path
) -> str | None:
    """Why the job failed the correctness gate, or None when it passed."""
    if returncode != 0:
        return f"exit code {returncode}"
    if reference is None:
        return "no reference digest"
    if digest(out) != reference["sha256"]:
        return "stdout differs from the reference"
    try:
        return invariant_failure(job, out, golden_dir)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
