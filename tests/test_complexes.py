"""Tests for the cochain complexes, their cohomology and the elimination oracle."""

import hashlib
import re

import elimination
import pytest

from veycalc import complexes, errors, gca, linalg, minimal_model
from veycalc.cache import canonical_json
from veycalc.gca import AlgebraSignature, Element, Monomial


def _labels(cells):
    """The labels of critical cells, each a Monomial: a class is its cell."""
    assert all(type(m) is Monomial for m in cells)
    return [m.label() for m in cells]


def test_build_w1():
    cx = complexes.build_complex(1, "W")
    assert sum(len(b) for b in cx.bases.values()) == 4


def test_wo2_has_only_y1():
    cx = complexes.build_complex(2, "WO")
    assert list(cx.odd_indices) == [1]


def test_w3_dimension():
    cx = complexes.build_complex(3, "W")
    assert sum(len(b) for b in cx.bases.values()) == 56


@pytest.mark.parametrize("kind", errors.KINDS)
def test_a_complex_is_its_signature(kind):
    cx, sig = complexes.GradedComplex(2, kind), AlgebraSignature(2, kind)
    assert issubclass(complexes.GradedComplex, AlgebraSignature)
    assert "__init__" not in vars(complexes.GradedComplex)
    assert cx == sig and sig == cx and hash(cx) == hash(sig)
    assert cx != AlgebraSignature(3, kind) and sig != complexes.GradedComplex(3, kind)
    assert complexes.build_complex(2, kind) == cx
    # elements over the complex and over its signature live over one algebra
    c1, c2 = Monomial((), (1, 0)), Monomial((), (0, 1))
    total = Element(cx, {c1: 1}) + Element(sig, {c2: 1})
    assert total == Element(sig, {c1: 1, c2: 1}) == Element(cx, {c1: 1, c2: 1})


@pytest.mark.parametrize("kind", ["WO", "I"])
def test_build_complex_has_no_size_cap(kind):
    # the q cap is the CLI's; the library builds past its default of 10
    cx = complexes.build_complex(11, kind)
    assert sum(map(len, cx.bases.values())) == complexes.dimension_estimate(11, kind)


@pytest.mark.parametrize("kind", ["W", "WO", "I"])
def test_dimension_estimate_is_the_series_total(kind):
    for q in range(1, 13):
        sig = gca.AlgebraSignature(q, kind)
        assert complexes.dimension_estimate(q, kind) == sum(gca.basis_dimension_series(sig)), q


def test_dimension_estimate_answers_past_ssize_t():
    # a range of 2^63 y-indices has no len(), and 2^(2^63) no int
    ks = [complexes.dimension_estimate(2**63, kind) for kind in ("W", "WO", "I")]
    assert all(re.fullmatch(r">10\^\d+", k) for k in ks)
    assert int(ks[0][4:]) > int(ks[1][4:]) > int(ks[2][4:]) > 0


def test_cohomology_w1():
    h = complexes.cohomology(complexes.build_complex(1, "W"))
    assert h.dims == {0: 1, 3: 1}
    assert _labels(h.representatives[3]) == ["y1c1"]


def test_cohomology_wo2():
    h = complexes.cohomology(complexes.build_complex(2, "WO"))
    assert {n: d for n, d in h.dims.items() if n > 4} == {5: 2}
    assert _labels(h.representatives[5]) == ["y1c1^2", "y1c2"]


def test_cohomology_w2():
    h = complexes.cohomology(complexes.build_complex(2, "W"))
    assert h.dims == {0: 1, 5: 2, 7: 1, 8: 2}
    assert _labels(h.representatives[7]) == ["y2c2"]
    assert _labels(h.representatives[8]) == ["y1y2c1^2", "y1y2c2"]


def test_i_q_cohomology_equals_basis():
    for q in (1, 2, 3):
        cx = complexes.build_complex(q, "I")
        h = complexes.cohomology(cx)
        for n, basis in cx.bases.items():
            assert h.dims.get(n, 0) == len(basis)


def test_euler_characteristic_identity():
    for q, kind in [(1, "W"), (2, "W"), (2, "WO"), (3, "WO")]:
        cx = complexes.build_complex(q, kind)
        h = complexes.cohomology(cx)
        chi_basis = sum((-1) ** n * len(b) for n, b in cx.bases.items())
        chi_h = sum((-1) ** n * d for n, d in h.dims.items())
        assert chi_basis == chi_h


def test_top_degree_vanishing():
    for q, kind in [(2, "W"), (3, "WO")]:
        cx = complexes.build_complex(q, kind)
        h = complexes.cohomology(cx)
        assert all(n <= gca.top_degree(cx) for n in h.dims)


def test_h_2q1_w_equals_wo_for_even_q():
    for q in (2, 4):
        hw = complexes.cohomology(complexes.build_complex(q, "W"))
        hwo = complexes.cohomology(complexes.build_complex(q, "WO"))
        assert hw.dims.get(2 * q + 1, 0) == hwo.dims.get(2 * q + 1, 0)


def test_total_dim_cross_check():
    cx = complexes.build_complex(2, "W")
    h = complexes.cohomology(cx)
    # independent count: sum over degrees of dim ker - rank of previous d
    total = 0
    for n, basis in cx.bases.items():
        kernel = len(linalg.nullspace(cx.diff_matrix(n), len(basis)))
        prev = cx.diff_matrix(n - 1)
        rows = [
            [prev[r][c] for r in range(len(basis))]
            for c in range(len(cx.basis(n - 1)))
        ]
        rank_prev = linalg.rank([r for r in rows if any(x != 0 for x in r)])
        total += kernel - rank_prev
    assert total == h.total_dim_check


def test_a_result_reads_its_dims_from_its_representatives():
    # dims and total_dim_check are read from the critical cells, so a result
    # built by hand cannot write a total that its classes do not add up to
    reps = {0: [Monomial((), (0,))], 3: [Monomial((1,), (0,)), Monomial((1,), (1,))]}
    doc = complexes.CohomologyResult("W", 1, reps).to_json_obj()
    assert (doc["dims"], doc["total_dim_check"]) == ({"0": 1, "3": 2}, 3)
    h = complexes.cohomology(AlgebraSignature(3, "W"))
    assert h._fields == ("kind", "q", "representatives")
    assert h.dims == {n: len(r) for n, r in h.representatives.items()}
    assert h.total_dim_check == sum(h.dims.values())


def test_is_cocycle_is_coboundary():
    cx = complexes.build_complex(2, "W")
    y2c1sq = Element(cx, {Monomial((2,), (2, 0)): 1})
    assert complexes.is_cocycle(cx, y2c1sq)
    assert complexes.is_coboundary(cx, y2c1sq)  # = d(y1 y2 c1)
    c1 = Element(cx, {Monomial((), (1, 0)): 1})
    assert complexes.is_cocycle(cx, c1)
    assert complexes.is_coboundary(cx, c1)  # = d(y1)

    wo = complexes.build_complex(2, "WO")
    c2 = Element(wo, {Monomial((), (0, 1)): 1})
    assert complexes.is_cocycle(wo, c2)
    assert not complexes.is_coboundary(wo, c2)  # surviving Pontrjagin class
    assert not complexes.is_coboundary(AlgebraSignature(2, "WO"), c2)
    # an element is checked over its own algebra, never over another's matching
    with pytest.raises(gca.SignatureMismatch):
        complexes.is_coboundary(AlgebraSignature(2, "W"), c2)
    with pytest.raises(gca.SignatureMismatch):
        complexes.is_cocycle(AlgebraSignature(5, "I"), c2)


def test_non_homogeneous_rejected():
    cx = complexes.build_complex(2, "W")
    mixed = Element(cx, {Monomial((1,), (0, 0)): 1, Monomial((), (1, 0)): 1})
    with pytest.raises(ValueError):
        complexes.is_cocycle(cx, mixed)


def test_d_squared_zero_matrixwise():
    for q, kind in [(2, "W"), (3, "WO")]:
        cx = complexes.build_complex(q, kind)
        for n in list(cx.bases):
            d_n = cx.diff_matrix(n)
            d_n1 = cx.diff_matrix(n + 1)
            cols = len(cx.basis(n))
            for c in range(cols):
                v = [d_n[r][c] for r in range(len(cx.basis(n + 1)))]
                w = [
                    sum(d_n1[r][k] * v[k] for k in range(len(v)))
                    for r in range(len(cx.basis(n + 2)))
                ]
                assert all(x == 0 for x in w)


@pytest.mark.parametrize("kind", errors.KINDS)
@pytest.mark.parametrize("q", range(1, 6))
def test_assembly_matches_the_differential(q, kind):
    # build_complex writes the triplets of d by index arithmetic; gca.differential
    # on each basis monomial, its terms in canonical order, is the reference
    cx = complexes.build_complex(q, kind)
    for n, basis in cx.bases.items():
        index = {m: i for i, m in enumerate(cx.basis(n + 1))}
        expected = [
            (index[mm], col, coeff)
            for col, m in enumerate(basis)
            for mm, coeff in gca.differential(Element(cx, {m: 1})).sorted_terms()
        ]
        assert cx.diff.get(n, []) == expected
        assert all(type(coeff) is int for _, _, coeff in cx.diff.get(n, []))


@pytest.mark.parametrize("kind", ("W", "WO"))
def test_unit_pivots_keep_elimination_in_ints(kind):
    # every pivot the elimination oracle meets in W_q and WO_q is +-1, so no
    # step divides: the echelon rows and the representatives hold ints
    cx = complexes.build_complex(5, kind)
    for n, kernel, coboundaries in elimination.passes(cx):
        rows = coboundaries.rows.values()
        assert all(type(x) is int for row in rows for x in row.values())
        assert all(type(x) is int for v in kernel for x in v.values())
    reps = elimination.representatives(cx).values()
    assert all(type(c) is int for els in reps for e in els for c in e.terms.values())


@pytest.mark.parametrize("q, kind, cells, offered", [(5, "W", 608, 385), (6, "WO", 240, 157)])
def test_cohomology_eliminates_each_differential_once(monkeypatch, q, kind, cells, offered):
    # the elimination oracle makes one reduce per column of d_n, in its column
    # pass, which stores a kept column as reduced (one per basis element), and
    # one per kernel vector offered to a coboundary echelon (dim ker d_n): 608
    # + 385 for W_5 and 240 + 157 for WO_6.  A second elimination of any d_n,
    # or of a kept column, adds more.
    cx = complexes.build_complex(q, kind)
    assert sum(len(b) for b in cx.bases.values()) == cells
    assert sum(len(kernel) for _, kernel, _ in elimination.passes(cx)) == offered
    real = linalg.Echelon.reduce
    calls = []
    monkeypatch.setattr(linalg.Echelon, "reduce", lambda self, v: calls.append(1) or real(self, v))
    elimination.representatives(cx)
    assert len(calls) == cells + offered


def test_w5_cohomology_digest_is_pinned():
    # sha256 of the canonical JSON of H*(W_5), dimensions and representatives:
    # any drift in the chosen representatives fails here
    doc = complexes.cohomology(complexes.build_complex(5, "W")).to_json_obj()
    digest = hashlib.sha256(canonical_json(doc).encode()).hexdigest()
    assert digest == "3c875c13115dd27079b01cf746c919a2c7af3fbd6acb764515ba2efb131ee905"


# sha256 of the canonical JSON of build_model(q, cap), less its `ranks`, for
# the heaviest models of the benchmark, recorded at commit c57946b, for
# (2, 22), whose elimination builds Fractions, recorded at commit 46daeae, and
# for (2, 26), the largest with the most pivots other than +-1, recorded at
# commit 1c4a421
MODEL_DIGESTS = {
    (2, 18): "360f21ada024a985c227b46b3b71d99ec6c174b3c552b1d3abb208cf2b8d0fc3",
    (3, 16): "3aa1dd46e9e01b8f1abccb0a2cec48d4b55fc948ba78f9ec84223dd4bc7995d0",
    (4, 14): "291d5ac2d6ed9dd815ca4cd077e26e717b6e571572eddac98dc7b8d92a62c19c",
    (2, 22): "2b992ca9ecaff568f6d1455e2ec79c2f073b66e090c58b79674e0cebd640df54",
    (2, 26): "d486570861727bc46f2d44b9c2561af1216dc32255095d3ae3f488122ca49753",
}


@pytest.mark.parametrize("q, cap", sorted(MODEL_DIGESTS))
def test_model_digest_is_pinned(q, cap):
    # the minimal model takes its representatives from the same cohomology
    # routine, so any drift in them or in the generator order fails here
    model = minimal_model.build_model(q, cap)
    doc = model.to_json_obj()
    assert doc.pop("ranks") == {str(d): r for d, r in minimal_model.rank_table(model).items()}
    digest = hashlib.sha256(canonical_json(doc).encode()).hexdigest()
    assert digest == MODEL_DIGESTS[q, cap]
