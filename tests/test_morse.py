"""The checked Morse walk of veycalc.complexes against the elimination oracle
and the enumerator of critical cells.

`complexes.critical_cells` walks the least-index matching (Forman, Adv.
Math. 134, 1998; Skoldberg, Trans. AMS 358, 2006) and checks every cell
against gca.d_terms; `gca.critical_groups` lists its critical cells without
walking, and `complexes.cohomology` returns those as its representatives.
Here the walk is compared with the elimination oracle (tests/elimination.py)
where it is affordable, and with the enumerator, the Vey basis and the Euler
characteristic past it; a matching or a d that is off by one must make the
walk raise, and a Vey condition that is off by one must make `cohomology`
raise, also under `python -O`; and neither `cohomology`, `validate_vey` nor
`is_coboundary` eliminates, reads the bases or reads the assembled triplets.
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
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # the same monomials, in the same order, each with coefficient 1 in the
    # oracle's Element-valued representatives
    cx = complexes.build_complex(q, kind)
    cells = complexes.cohomology(cx).representatives
    assert all(type(m) is Monomial for ms in cells.values() for m in ms)
    as_elements = {n: [Element(cx.signature, {m: 1}) for m in ms] for n, ms in cells.items()}
    assert as_elements == elimination.representatives(cx)


def _listed(sig):
    """Degree -> the cells of gca.critical_groups, in its order."""
    listed = {}
    for n, ys, _, cparts in gca.critical_groups(sig):
        listed.setdefault(n, []).extend(Monomial(ys, c) for c in cparts)
    return listed


ENUMERATED = ORACLE_CASES + [(9, "W"), (13, "WO")]


@pytest.mark.parametrize("q, kind", ENUMERATED, ids=[f"{k}{q}" for q, k in ENUMERATED])
def test_the_enumerator_lists_the_walks_critical_cells(q, kind):
    # every degree, the unit and the pure c_J included, in the same order
    cx = complexes.build_complex(q, kind)
    walked, listed = dict(complexes.critical_cells(cx)), _listed(cx.signature)
    assert set(listed) <= set(walked)
    assert walked == {n: listed.get(n, []) for n in walked}


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


@st.composite
def _sampled_cells(draw):
    """(q, odd, cell): q up to 1000, the kind W or WO, and a random cell, or a
    critical one: an i_1, a weight in [q+1-i_1, q] and a partition with no
    y-index part below i_1, which random cells rarely are at large q."""
    q = draw(st.integers(1, 1000))
    odd = tuple(gca.AlgebraSignature(q, draw(st.sampled_from(["W", "WO"]))).odd_indices)
    picks = draw(st.lists(st.integers(0, len(odd) - 1), max_size=6, unique=True))
    ys, parts, J = tuple(sorted(odd[i] for i in picks)), draw(st.lists(st.integers(1, q))), []
    if draw(st.booleans()):  # random: keep the parts while the weight stays <= q
        for j in parts:
            if sum(J) + j <= q:
                J.append(j)
    else:
        i1, oddset = ys[0] if ys else q + 1, set(odd)

        def fits(r):  # a sum of allowed parts is 0 or itself an allowed part
            return r == 0 or r >= i1 or r not in oddset

        r = draw(st.sampled_from([w for w in range(max(0, q + 1 - i1), q + 1) if fits(w)]))
        for j in parts:
            if j <= r and fits(j) and fits(r - j):
                J.append(j)
                r -= j
        J += [r] if r else []
    cs = [0] * q
    for j in J:
        cs[j - 1] += 1
    return q, odd, Monomial(ys, tuple(cs))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_sampled_cells())
def test_sampled_cells_follow_the_matching_at_any_q(drawn):
    # past the q the walk affords: the matching is an involution, critical
    # is the Vey condition, a lower cell's d starts with its partner and has
    # no other upper cell, and a critical cell's d is 0
    q, odd, cell = drawn
    n = cell.degree()
    kind, partner = complexes._cell(cell, n, odd, q)
    i1 = cell.y_part[0] if cell.y_part else q + 1
    assert (kind == "critical") == gca.is_critical(q, odd, i1, cell.c_part)
    d = list(gca.d_terms(cell, q))
    if kind == "lower":
        assert complexes._cell(partner, n + 1, odd, q) == ("upper", cell)
        assert d[0] == (1, partner)
        assert all(complexes._cell(t, n + 1, odd, q)[0] != "upper" for _, t in d[1:])
    elif kind == "upper":
        assert complexes._cell(partner, n - 1, odd, q) == ("lower", cell)
    else:
        assert d == []


@pytest.mark.parametrize("q, kind", [(10, "W"), (11, "W"), (16, "WO")])
def test_validate_past_the_oracle(monkeypatch, q, kind):
    # past the q the elimination oracle affords: every Vey class is an
    # independent class, in every degree the critical cells are the
    # enumerator's, and above 2q they are the Vey basis, in the same
    # canonical order; the critical cells have the Euler characteristic of
    # the complex
    real, cells = complexes.critical_cells, {}

    def recorded(cx):
        for n, ms in real(cx):
            cells[n] = ms
            yield n, ms

    monkeypatch.setattr(complexes, "critical_cells", recorded)
    report = vey.validate_vey(q, kind)
    assert report["ok"]
    for check in report["per_degree"]:
        assert check["independent"]
        if check["degree"] > 2 * q:
            assert check["enumerated"] == check["oracle_dim"] == len(cells[check["degree"]])
    listed = _listed(gca.AlgebraSignature(q, kind))
    assert set(listed) <= set(cells)
    assert cells == {n: listed.get(n, []) for n in cells}
    above = [m for n, ms in sorted(cells.items()) if n > 2 * q for m in ms]
    assert above == vey.vey_basis(q, kind)
    series = gca.basis_dimension_series(gca.AlgebraSignature(q, kind))
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


@pytest.mark.parametrize("q, kind", [(4, "W"), (6, "WO")])
def test_a_second_upper_cell_is_caught(monkeypatch, q, kind):
    # d_terms with an upper cell other than the partner appended to each lower
    # cell's d: the first term and the bijection still hold, but a gradient path
    # then runs on from that upper cell's own lower partner
    cx = complexes.build_complex(q, kind)
    odd, real = tuple(cx.signature.odd_indices), gca.d_terms
    uppers = {n: [m for m in basis if complexes._cell(m, n, odd, q)[0] == "upper"]
              for n, basis in gca.iter_basis(cx.signature)}

    def planted(m, bound):
        terms = list(real(m, bound))
        n = m.degree()
        if complexes._cell(m, n, odd, bound)[0] == "lower":
            terms += [(1, u) for u in uppers.get(n + 1, []) if u != terms[0][1]][:1]
        return iter(terms)

    monkeypatch.setattr(gca, "d_terms", planted)
    with pytest.raises(AssertionError, match="has a second upper cell"):
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


@pytest.mark.parametrize("off, q, kind", [(-1, 3, "W"), (1, 3, "W"), (1, 1, "WO")])
def test_the_cohomology_check_survives_python_O(off, q, kind):
    # the weight window of the Vey condition shifted by off: -1 lists a cell
    # whose d is not 0, +1 drops cells and so the Euler characteristic of an
    # index weight; on WO_1 it drops the unit and y1c1, which leaves the total
    # Euler characteristic as it was
    code = (
        "from veycalc import complexes, gca\n"
        "real = gca.is_critical\n"
        f"gca.is_critical = lambda q, odd, i1, c: real(q + {off}, odd, i1, c)\n"
        f"complexes.cohomology(complexes.build_complex({q}, {kind!r}))\n"
    )
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(SRC)}, timeout=60)
    assert run.returncode != 0
    assert "AssertionError" in run.stderr
    assert ("has d != 0" if off < 0 else "Euler characteristic") in run.stderr


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
    raise AssertionError("a path off the program path was taken")


# a complex is its signature: every complexes function takes either
MAKE = (complexes.build_complex, gca.AlgebraSignature)


@pytest.mark.parametrize("q, kind", sorted(PROGRAM_PATH_DIGESTS))
def test_program_path_neither_eliminates_nor_reads_the_triplets(monkeypatch, q, kind):
    # nor the bases: cohomology reads the enumerator, and validate_vey walks
    # gca.iter_basis
    monkeypatch.setattr(linalg, "column_pass", _refuse)
    monkeypatch.setattr(complexes.GradedComplex, "diff", property(_refuse))
    monkeypatch.setattr(complexes.GradedComplex, "bases", property(_refuse))
    for make in MAKE:
        docs = (
            complexes.cohomology(make(q, kind)).to_json_obj(),
            vey.validate_vey(q, kind),
        )
        digests = tuple(hashlib.sha256(canonical_json(d).encode()).hexdigest() for d in docs)
        assert digests == PROGRAM_PATH_DIGESTS[q, kind], make


def test_critical_class_takes_an_upper_cell_to_its_class():
    # y2c1^2 is an upper cell: y2c1^2 = d(y1y2c1) + y1c1c2
    y1c1c2, y2c1sq = Monomial((1,), (1, 1, 0)), Monomial((2,), (2, 0, 0))
    for cx in (make(3, "W") for make in MAKE):
        assert complexes.critical_class(cx, 7, {y2c1sq: 1}) == {y1c1c2: 1}
        assert complexes.critical_class(cx, 7, {y2c1sq: 1, y1c1c2: -1}) == {}


def test_validate_finds_a_coboundary_listed(monkeypatch):
    # c1 = d(y1) is an upper cell, listed by the enumerator in degree 2
    real = gca.critical_groups
    monkeypatch.setattr(gca, "critical_groups",
                        lambda sig, degree=None: [(2, (), 1, ((1, 0),)), *real(sig, degree)])
    report = vey.validate_vey(2, "W")
    assert not report["ok"]
    deg2 = next(c for c in report["per_degree"] if c["degree"] == 2)
    assert not deg2["independent"]
    assert deg2["notes"][0] == "the walk's critical cells (0) differ from the enumerator's (1)"


def test_validate_finds_the_enumerator_off_the_walk(monkeypatch):
    # the unit, a critical cell of no Vey class, dropped from the enumerator
    real = gca.critical_groups
    monkeypatch.setattr(gca, "critical_groups",
                        lambda sig, degree=None: [g for g in real(sig, degree) if g[0]])
    report = vey.validate_vey(2, "W")
    assert not report["ok"]
    assert report["per_degree"][0]["degree"] == 0
    assert report["per_degree"][0]["notes"][0] == (
        "the walk's critical cells (1) differ from the enumerator's (0)")
    assert sum("differ" in note for c in report["per_degree"] for note in c["notes"]) == 1


def test_critical_class_refuses_a_non_cocycle():
    # d(y1) = c1: the lower cell y1 cannot cancel
    for cx in (make(2, "W") for make in MAKE):
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
        assert exact == complexes.is_coboundary(gca.AlgebraSignature(q, kind), a)
        assert exact == elimination.is_coboundary(cx, a), a
        outcomes.add(exact)
    assert outcomes == {True, False}


@pytest.mark.slow
@pytest.mark.parametrize("q, kind", [(12, "W"), (20, "WO")])
def test_validate_far_past_the_cap(q, kind):
    # about 10 s / 140 MB and 22 s / 300 MB of CPU time and memory
    assert vey.validate_vey(q, kind)["ok"]
