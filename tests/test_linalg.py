"""Unit tests for the exact rational linear algebra helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veycalc import linalg


def F(x):
    return Fraction(x)


def test_rref_and_rank():
    m = [[F(1), F(2)], [F(2), F(4)], [F(0), F(1)]]
    ech, pivots = linalg.rref(m)
    assert pivots == [0, 1]
    assert linalg.rank(m) == 2
    assert linalg.rank([[F(0), F(0)]]) == 0


def test_nullspace():
    # x + y + z = 0 over three columns
    m = [[F(1), F(1), F(1)]]
    basis = linalg.nullspace(m, 3)
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0
    # empty matrix: full identity basis
    assert linalg.nullspace([], 2) == [[F(1), F(0)], [F(0), F(1)]]


def test_solve():
    m = [[F(2), F(0)], [F(0), F(3)]]
    assert linalg.solve(m, [F(4), F(9)]) == [F(2), F(3)]
    # inconsistent system
    assert linalg.solve([[F(1)], [F(1)]], [F(1), F(2)]) is None


def test_independent_complement():
    span = [[F(1), F(0), F(0)]]
    candidates = [[F(2), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(1), F(1)]]
    # first candidate is already in the span; the other two each extend it
    chosen = linalg.independent_complement(span, candidates)
    assert chosen == [1, 2]


def test_column_pass_reduces_each_column_once(monkeypatch):
    # a kept column is stored as reduced, not reduced again by insert
    calls = []
    real = linalg.Echelon.reduce
    monkeypatch.setattr(linalg.Echelon, "reduce", lambda self, v: calls.append(v) or real(self, v))
    cols = [{0: F(2), 1: F(1)}, {0: F(4), 1: F(2)}, {1: F(3)}, {}, {0: F(1), 2: F(-1)}]
    kernel, image = linalg.column_pass(cols)
    assert len(calls) == len(cols)
    assert (len(kernel), image.rank) == (2, 3)


# -- property test against a textbook dense Gauss-Jordan ----------------------



def _cohomology(d_out, d_in):
    """linalg.cohomology from the sparse columns of d_n and of d_(n-1)."""
    return linalg.cohomology(linalg.column_pass(d_out)[0], linalg.column_pass(d_in)[1])


def test_cohomology_keeps_kernel_outside_image():
    # C^n has basis e0, e1, e2; d_(n-1) hits e0, d_n sends e2 to a nonzero class
    d_out = [{}, {}, {0: F(1)}]
    d_in = [{0: F(2)}]
    assert _cohomology(d_out, d_in) == [{1: F(1)}]
    assert _cohomology(d_out, []) == [{0: F(1)}, {1: F(1)}]


def test_cohomology_checks_rank_bookkeeping():
    # d_n . d_(n-1) != 0: the image is not inside the kernel
    with pytest.raises(AssertionError):
        _cohomology([{0: F(1)}], [{0: F(1)}])


def _reference_rref(mat, ncols):
    """Plain dense Gauss-Jordan over Q: (nonzero RREF rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in mat]
    pivots, r = [], 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _reference_nullspace(mat, ncols):
    ech, pivots = _reference_rref(mat, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(ech, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


_small_ints = st.integers(min_value=-3, max_value=3)


@st.composite
def _matrices(draw):
    """Entries in -3..3, so that non-unit pivots occur; as ints or as Fractions."""
    ncols = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.lists(_small_ints, min_size=ncols, max_size=ncols), max_size=6))
    if draw(st.booleans()):
        rows = [[F(x) for x in row] for row in rows]
    return rows, ncols


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_matrices(), _matrices())
def test_property_kernel_matches_dense_gauss_jordan(a, b):
    mat, ncols = a
    ech, pivots = _reference_rref(mat, ncols)
    got, got_pivots = linalg.rref(mat)
    assert got_pivots == pivots
    assert got[: len(pivots)] == ech
    assert all(x == 0 for row in got[len(pivots):] for x in row)
    assert linalg.rank(mat) == len(pivots)
    assert linalg.nullspace(mat, ncols) == _reference_nullspace(mat, ncols)
    # int rows whose pivots are all +-1 stay ints: no step divides by a pivot
    ech = linalg.Echelon()
    unit_pivots = True
    for row in map(linalg.sparse, mat):
        rest = ech.reduce(row)
        unit_pivots = unit_pivots and (not rest or rest[min(rest)] in (1, -1))
        ech.insert(row)
    if unit_pivots and all(type(x) is int for row in mat for x in row):
        assert all(type(x) is int for row in ech.rows.values() for x in row.values())
    # the column pass over the columns of mat: the same canonical kernel, vector
    # for vector, and the image echelon has the rank of mat
    cols = [{i: row[j] for i, row in enumerate(mat) if row[j]} for j in range(ncols)]
    kernel, image = linalg.column_pass(cols)
    assert [linalg.dense(v, ncols) for v in kernel] == _reference_nullspace(mat, ncols)
    assert image.rank == len(pivots)
    assert all(c < len(mat) for row in image.rows.values() for c in row)  # no tag left
    # its pivots are those of inserting the columns alone; if all are +-1, int
    # columns keep ints in the image rows and in the kernel vectors, which are
    # the combinations of the dependent columns (`linalg.nullspace` is this pass)
    ech = linalg.Echelon()
    unit_pivots = True
    for col in cols:
        rest = ech.reduce(col)
        unit_pivots = unit_pivots and (not rest or rest[min(rest)] in (1, -1))
        ech.insert(col)
    assert image.rows == ech.rows
    if unit_pivots and all(type(x) is int for row in mat for x in row):
        assert all(type(x) is int for row in image.rows.values() for x in row.values())
        assert all(type(x) is int for v in kernel for x in v.values())
    if mat:
        rhs = [F(i % 3) for i in range(len(mat))]
        aug = [row + [y] for row, y in zip(mat, rhs)]
        x = linalg.solve(mat, rhs)
        if len(_reference_rref(aug, ncols + 1)[1]) > len(pivots):
            assert x is None
        else:
            assert [sum(r * y for r, y in zip(row, x)) for row in mat] == rhs
    # greedy complement: candidate i is kept iff it raises the rank of span + kept
    cands = [row[:ncols] + [F(0)] * (ncols - len(row)) for row in b[0]]
    kept, expected = [], []
    for i, cand in enumerate(cands):
        before = len(_reference_rref(mat + kept, ncols)[1])
        if len(_reference_rref(mat + kept + [cand], ncols)[1]) > before:
            kept.append(cand)
            expected.append(i)
    assert linalg.independent_complement(mat, cands) == expected
