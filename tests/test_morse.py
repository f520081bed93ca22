"""The checked Morse walk of veycalc.complexes against the elimination oracle.

`complexes.critical_cells` walks the least-index matching (Forman, Adv.
Math. 134, 1998; Skoldberg, Trans. AMS 358, 2006) and checks every cell
against gca.d_terms; its critical cells are the representatives that
`complexes.cohomology` returns.  Here they are compared with the
elimination oracle (tests/elimination.py) where it is affordable, and with
the Vey basis and the Euler characteristic past it; a matching or a d that
is off by one must make the walk raise, also under `python -O`; and neither
`cohomology`, `validate_vey` nor `is_coboundary` eliminates or reads the
assembled triplets.
"""

import ast
import hashlib
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import elimination
import pytest

from veycalc import complexes, gca, linalg, vey
from veycalc.cache import canonical_json
from veycalc.gca import Element, Monomial

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

ORACLE_CASES = (
    [(q, "W") for q in range(1, 9)]
    + [(q, "WO") for q in range(1, 13)]
    + [(q, "I") for q in range(1, 9)]
)


@pytest.mark.parametrize("q, kind", ORACLE_CASES, ids=[f"{k}{q}" for q, k in ORACLE_CASES])
def test_critical_cells_are_the_oracle_representatives(q, kind):
    # the same monomials, in the same order, each with coefficient 1
    cx = complexes.build_complex(q, kind)
    assert complexes.cohomology(cx).representatives == elimination.representatives(cx)


@pytest.mark.parametrize("q, kind", [(5, "W"), (6, "WO"), (6, "I")])
def test_the_matching_is_an_involution(q, kind):
    # a lower cell's partner is an upper cell whose partner it is, and back
    cx = complexes.build_complex(q, kind)
    odd = tuple(sorted(cx.signature.odd_indices))
    for n, basis in cx.bases.items():
        for cell in basis:
            kind_, partner = complexes._cell(cell, n, odd, q)
            if kind_ == "lower":
                assert complexes._cell(partner, n + 1, odd, q) == ("upper", cell)
            elif kind_ == "upper":
                assert complexes._cell(partner, n - 1, odd, q) == ("lower", cell)


@pytest.mark.parametrize("q, kind", [(10, "W"), (11, "W"), (16, "WO")])
def test_validate_past_the_oracle(monkeypatch, q, kind):
    # past the q the elimination oracle affords: every Vey class is an
    # independent class, and above 2q the critical cells are the Vey basis,
    # in the same canonical order; the critical cells have the Euler
    # characteristic of the complex
    real, cells = complexes.critical_cells, {}

    def recorded(cx):
        for n, ms in real(cx):
            cells[n] = ms
            yield n, ms

    monkeypatch.setattr(complexes, "critical_cells", recorded)
    report = vey.validate_vey(q, kind)
    assert report.ok
    for check in report.per_degree:
        assert check.independent
        if check.degree > 2 * q:
            assert check.enumerated == check.oracle_dim == len(cells[check.degree])
    above = [m for n, ms in sorted(cells.items()) if n > 2 * q for m in ms]
    assert above == [v.monomial for v in vey.vey_basis(q, kind)]
    series = gca.basis_dimension_series(complexes.signature_for(q, kind))
    chi = sum((-1) ** n * d for n, d in enumerate(series))
    assert sum((-1) ** n * len(ms) for n, ms in cells.items()) == chi


@pytest.mark.parametrize("target", ["d_terms", "_cell"])
@pytest.mark.parametrize("kind", ["W", "WO"])
@pytest.mark.parametrize("off", [-1, 1])
def test_weight_bound_off_by_one_is_caught(monkeypatch, target, kind, off):
    # the weight room of d_terms, or the bound of the matching, shifted by off
    cx = complexes.build_complex(5, kind)
    if target == "d_terms":
        real = gca.d_terms
        monkeypatch.setattr(gca, "d_terms", lambda m, q: real(m, q + off))
    else:
        real = complexes._cell
        monkeypatch.setattr(complexes, "_cell", lambda c, n, odd, bound: real(c, n, odd, bound + off))
    with pytest.raises(AssertionError):
        list(complexes.critical_cells(cx))


def test_an_unmatched_upper_cell_is_caught(monkeypatch):
    # a critical cell claimed as an upper cell skips the check of its d, so
    # only the bijection with the lower cells one degree down catches it
    real = complexes._cell

    def claimed(cell, n, odd, bound):
        kind, partner = real(cell, n, odd, bound)
        return ("upper", None) if kind == "critical" and n == 7 else (kind, partner)

    cx = complexes.build_complex(2, "W")
    monkeypatch.setattr(complexes, "_cell", claimed)
    with pytest.raises(AssertionError, match="no bijection at degree 7"):
        list(complexes.critical_cells(cx))


def test_the_certificate_survives_python_O():
    code = (
        "from veycalc import complexes, gca\n"
        "real = gca.d_terms\n"
        "gca.d_terms = lambda m, q: real(m, q + 1)\n"
        "list(complexes.critical_cells(complexes.build_complex(3, 'W')))\n"
    )
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(SRC)}, timeout=60)
    assert run.returncode != 0
    assert "AssertionError" in run.stderr


def test_src_has_no_bare_assert():
    # `python -O` strips assert statements; every check raises explicitly
    for path in sorted((SRC / "veycalc").glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)], path.name


# sha256 of the canonical JSON of cohomology and validate_vey, recorded while
# both still eliminated
PROGRAM_PATH_DIGESTS = {
    (5, "W"): ("3c875c13115dd27079b01cf746c919a2c7af3fbd6acb764515ba2efb131ee905",
               "47a35e67eda5ff6a5228504af988cfb663dc26e55afddcfed3c8b33cd36bfd5b"),
    (6, "WO"): ("2032bfee67e841e476df7decdf08c0f3ecdb6b44899b6f910646b3a2294dd7d6",
                "61e70aac5833c154cdaa6054cdea95172ace0333cb387e8136a1955a4bd3a89e"),
}


def _refuse(*args):
    raise AssertionError("an elimination path was taken")


@pytest.mark.parametrize("q, kind", sorted(PROGRAM_PATH_DIGESTS))
def test_program_path_neither_eliminates_nor_reads_the_triplets(monkeypatch, q, kind):
    monkeypatch.setattr(linalg, "column_pass", _refuse)
    monkeypatch.setattr(complexes.GradedComplex, "diff", property(_refuse))
    docs = (
        complexes.cohomology(complexes.build_complex(q, kind)).to_json_obj(),
        vey.validate_vey(q, kind).to_json_obj(),
    )
    digests = tuple(hashlib.sha256(canonical_json(d).encode()).hexdigest() for d in docs)
    assert digests == PROGRAM_PATH_DIGESTS[q, kind]


def _with_classes(monkeypatch, edit):
    real = vey.vey_basis
    monkeypatch.setattr(vey, "vey_basis", lambda q, kind: edit(real(q, kind)))


def test_validate_takes_an_upper_cell_at_its_class(monkeypatch):
    # y2c1^2 is an upper cell: y2c1^2 = d(y1y2c1) + y1c1c2, so in place of
    # the Vey class y1c1c2 it is the same class
    y1c1c2, y2c1sq = Monomial((1,), (1, 1, 0)), Monomial((2,), (2, 0, 0))
    _with_classes(monkeypatch, lambda classes: [
        v._replace(monomial=y2c1sq) if v.monomial == y1c1c2 else v for v in classes
    ])
    report = vey.validate_vey(3, "W")
    assert report.ok
    assert all(c.independent for c in report.per_degree)
    assert any(c.enumerated for c in report.per_degree if c.degree == 7)


def test_validate_finds_a_coboundary_dependent(monkeypatch):
    # c1 = d(y1) is a cocycle whose class is zero
    c1 = vey.VeyClass(Monomial((), (1, 0)), "W", 2, 2)
    _with_classes(monkeypatch, lambda classes: [c1, *classes])
    report = vey.validate_vey(2, "W")
    assert not report.ok
    deg2 = next(c for c in report.per_degree if c.degree == 2)
    assert not deg2.independent
    assert deg2.notes == ["enumerated classes are dependent modulo coboundaries"]


def test_critical_class_refuses_a_non_cocycle():
    # d(y1) = c1: the lower cell y1 cannot cancel
    cx = complexes.build_complex(2, "W")
    with pytest.raises(ValueError, match="not a cocycle"):
        complexes.critical_class(cx, 1, {Monomial((1,), (0, 0)): 1})


SEEDED = 227  # cocycles per complex: with the 412 basis monomials, 1,320 cases
COEFFS = (1, -1, 2, -3, Fraction(1, 2))


@pytest.mark.parametrize("q, kind", [(3, "W"), (4, "W"), (5, "WO"), (4, "I")])
def test_is_coboundary_agrees_with_the_oracle(q, kind):
    # every basis monomial, cocycle or not, and seeded d(x) + critical cells
    cx = complexes.build_complex(q, kind)
    sig = cx.signature
    cases = [Element.monomial(sig, m) for basis in cx.bases.values() for m in basis]
    critical = dict(complexes.critical_cells(cx))
    rng = random.Random(q * 10 + len(kind))
    degrees = [n for n in cx.bases if n > 0]
    for _ in range(SEEDED):
        n = rng.choice(degrees)
        x = {m: rng.choice(COEFFS) for m in rng.sample(cx.basis(n - 1), min(3, len(cx.basis(n - 1))))}
        cells = critical.get(n, [])
        z = {m: rng.choice(COEFFS) for m in rng.sample(cells, rng.randint(0, min(2, len(cells))))}
        cases.append(gca.differential(Element(sig, x)) + Element(sig, z))
    outcomes = set()
    for a in cases:
        exact = complexes.is_coboundary(cx, a)
        assert exact == elimination.is_coboundary(cx, a), a
        outcomes.add(exact)
    assert outcomes == {True, False}


@pytest.mark.slow
@pytest.mark.parametrize("q, kind", [(12, "W"), (20, "WO")])
def test_validate_far_past_the_cap(q, kind):
    # about 10 s / 140 MB and 22 s / 300 MB of CPU time and memory
    assert vey.validate_vey(q, kind).ok
