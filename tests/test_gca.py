"""Unit tests for the graded-commutative algebra core."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veycalc import gca
from veycalc.gca import AlgebraSignature, Element, Monomial, SignatureMismatch


def test_signatures():
    w = AlgebraSignature(3, "W")
    assert list(w.odd_indices) == [1, 2, 3]
    wo = AlgebraSignature(4, "WO")
    assert list(wo.odd_indices) == [1, 3]
    i = AlgebraSignature(2, "I")
    assert list(i.odd_indices) == []
    with pytest.raises(ValueError):
        AlgebraSignature(0, "W")


def test_monomial_degree_weight():
    m = Monomial((1, 2), (2, 1))  # y1 y2 c1^2 c2 over q=2
    assert m.degree() == 1 + 3 + 4 + 4
    assert m.weight() == 4
    assert m.partition() == (1, 1, 2)
    assert m.label() == "y1y2c1^2c2"
    assert Monomial((), (0, 0)).label() == "1"


def test_canonical_order_partitions_before_larger_parts():
    # c1^2 sorts before c2 in equal degree (partition order, not raw exponents)
    sig = AlgebraSignature(2, "W")
    basis = gca.basis_of_degree(sig, 7)
    labels = [m.label() for m in basis]
    assert labels == ["y1y2c1c2", "y2c1^2", "y2c2", "y1c1^3"] or labels.index(
        "y2c1^2"
    ) < labels.index("y2c2")
    for s in (AlgebraSignature(4, "W"), AlgebraSignature(5, "WO")):
        for n, b in gca.iter_basis(s):
            assert b == sorted(b, key=Monomial.sort_key), n


def test_basis_w1():
    sig = AlgebraSignature(1, "W")
    all_monomials = [m for _, b in gca.iter_basis(sig) for m in b]
    assert sorted(m.label() for m in all_monomials) == ["1", "c1", "y1", "y1c1"]


def test_basis_w3_total_dimension():
    sig = AlgebraSignature(3, "W")
    assert sum(len(b) for _, b in gca.iter_basis(sig)) == 56


def test_multiplication_koszul_sign():
    sig = AlgebraSignature(2, "W")
    y1 = Element(sig, {Monomial((1,), (0, 0)): 1})
    y2 = Element(sig, {Monomial((2,), (0, 0)): 1})
    assert y1 * y2 == -(y2 * y1)
    assert (y1 * y1).is_zero()


def test_truncation():
    sig = AlgebraSignature(2, "W")
    c1 = Element(sig, {Monomial((), (1, 0)): 1})
    assert not (c1 * c1).is_zero()  # weight 2 = q
    assert (c1 * c1 * c1).is_zero()  # weight 3 > q


def test_differential_examples():
    sig = AlgebraSignature(2, "W")
    y1 = Element(sig, {Monomial((1,), (0, 0)): 1})
    y2 = Element(sig, {Monomial((2,), (0, 0)): 1})
    c1 = Element(sig, {Monomial((), (1, 0)): 1})
    c2 = Element(sig, {Monomial((), (0, 1)): 1})
    assert gca.differential(y1) == c1
    assert gca.differential(c1).is_zero()
    # d(y1 y2) = c1 y2 - y1 c2
    d = gca.differential(y1 * y2)
    expected = c1 * y2 - y1 * c2
    assert d == expected


def test_differential_respects_truncation():
    # d(y2 c1^2) would carry weight 4 > 2, hence vanishes
    sig = AlgebraSignature(2, "W")
    el = Element(sig, {Monomial((2,), (2, 0)): 1})
    assert gca.differential(el).is_zero()


def test_signature_mismatch():
    a = Element(AlgebraSignature(2, "W"), {Monomial((1,), (0, 0)): 1})
    b = Element(AlgebraSignature(3, "W"), {Monomial((1,), (0, 0, 0)): 1})
    with pytest.raises(SignatureMismatch):
        _ = a + b


# monomials that are no cell of their algebra: wrong kind of index or exponent,
# a negative exponent, an unsorted or repeated I, a y-index the kind lacks, a
# c-part of the wrong length, an over-weight c_J
NOT_CELLS = [
    ((2, "W"), Monomial((), (-1, 1))),
    ((2, "W"), Monomial((), (0.5, 0))),
    ((2, "W"), Monomial((), (False, 1))),
    ((2, "W"), Monomial((True,), (0, 0))),
    ((2, "W"), Monomial((1.0,), (0, 0))),
    ((2, "W"), Monomial((2, 1), (0, 0))),
    ((2, "W"), Monomial((1, 1), (0, 0))),
    ((2, "W"), Monomial((3,), (0, 0))),
    ((2, "WO"), Monomial((2,), (0, 0))),
    ((2, "I"), Monomial((1,), (0, 0))),
    ((2, "W"), Monomial((), (0, 0, 0))),
    ((2, "W"), Monomial((), (1, 1))),
]


@pytest.mark.parametrize("sig, m", NOT_CELLS,
                         ids=[f"{k}{q}-{m.y_part}-{m.c_part}" for (q, k), m in NOT_CELLS])
def test_the_constructor_refuses_what_is_not_a_cell(sig, m):
    sig = AlgebraSignature(*sig)
    assert not m.is_valid(sig)
    # the monomial is checked before its coefficient is read
    message = re.escape(f"monomial {m} invalid for signature {sig}")
    for coeff in (1, 0, 0.1):
        with pytest.raises(ValueError, match=message):
            Element(sig, {m: coeff})


def test_every_basis_monomial_is_a_cell():
    for sig in (AlgebraSignature(3, "W"), AlgebraSignature(4, "WO"), AlgebraSignature(3, "I")):
        assert all(m.is_valid(sig) for _, b in gca.iter_basis(sig) for m in b)


def test_the_constructor_refuses_what_is_not_a_signature():
    for bad in ((2, "W"), "W", 2, None):
        with pytest.raises(TypeError, match="AlgebraSignature"):
            Element(bad)


def test_coefficients_are_exact():
    # 0.1 as a binary float is 3602879701896397/2^55, not 1/10, and True is no number
    from fractions import Fraction

    sig = AlgebraSignature(1, "W")
    y1 = Monomial((1,), (0,))
    for bad in (0.1, 1.0, True, False):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            Element(sig, {y1: bad})
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            Element(sig, {y1: 1}).scale(bad)
    assert Element(sig, {y1: "1/10"}).terms == {y1: Fraction(1, 10)}
    assert Element(sig, {y1: Fraction(4, 2)}).terms == {y1: 2}
    assert type(Element(sig, {y1: Fraction(4, 2)}).terms[y1]) is int
    assert Element(sig, {y1: 1}).scale("-3/6").terms == {y1: Fraction(-1, 2)}


def test_dimension_series_matches_enumeration():
    for q in range(1, 5):
        for sig in (
            AlgebraSignature(q, "W"),
            AlgebraSignature(q, "WO"),
            AlgebraSignature(q, "I"),
        ):
            series = gca.basis_dimension_series(sig)
            for n, basis in gca.iter_basis(sig):
                assert len(basis) == series[n], (sig, n)


def _free_algebra_counts(degrees: list[int], cap: int) -> list[int]:
    """Word counts per degree of the free algebra on generators of these
    (nondecreasing) degrees, by enumerating the words."""
    from veycalc.minimal_model import FreeAlgebra

    alg = FreeAlgebra()
    for k, d in enumerate(degrees):
        alg.add_generator(f"g{k}", d, {})
    return [len(alg.basis(n)) for n in range(cap + 1)]


@pytest.mark.parametrize(
    "degrees",
    [[], [1], [3, 3, 5], [2], [2, 2, 4], [1, 2, 3, 4, 5, 6], [3, 20], [15, 16]],
    ids=["empty", "one-odd", "odd-repeated", "one-even", "even-repeated",
         "mixed", "over-cap", "all-over-cap"],
)
def test_free_series_counts_the_free_algebra(degrees):
    assert gca.free_series(degrees, 14) == _free_algebra_counts(degrees, 14)


def test_free_series_counts_random_free_algebras():
    rng = random.Random(20261018)
    for _ in range(200):
        degrees = sorted(rng.randint(1, 16) for _ in range(rng.randint(0, 6)))
        assert gca.free_series(degrees, 14) == _free_algebra_counts(degrees, 14), degrees


def test_free_series_multiplies_the_given_series_in_place():
    series = [1, 1, 0, 0, 0]  # 1 + t
    assert gca.free_series([2], 4, series) is series
    assert series == [1, 1, 1, 1, 1]  # (1 + t) / (1 - t^2)


# -- hypothesis property tests ----------------------------------------------


def _elements(sig: AlgebraSignature):
    monomials = [m for _, b in gca.iter_basis(sig) for m in b]
    coeffs = st.fractions(
        min_value=-5, max_value=5, max_denominator=7
    )
    return st.lists(
        st.tuples(st.sampled_from(monomials), coeffs), max_size=4
    ).map(lambda ts: Element(sig, {m: c for m, c in ts}))


SIG = AlgebraSignature(3, "W")
_PAIRS = {sig: st.tuples(_elements(sig), _elements(sig)) for sig in (SIG, AlgebraSignature(5, "WO"))}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(list(_PAIRS)).flatmap(_PAIRS.get))
def test_property_d_squared_zero_and_leibniz(pair):
    # d is the derivation fixed by d(y_i) = c_i, d(c_i) = 0 and the truncation,
    # checked through the independent Element.__mul__
    a, b = pair
    sig = a.signature
    da = gca.differential(a)
    assert gca.differential(da).is_zero()
    # Leibniz on homogeneous pieces: d(ab) = da*b + (-1)^|a| a*db
    for m, c in a.terms.items():
        am = Element(sig, {m: c})
        sign = (-1) ** m.degree()
        lhs = gca.differential(am * b)
        rhs = gca.differential(am) * b + (am * gca.differential(b)).scale(sign)
        assert lhs == rhs
    # d_terms is the one formula: differential is the sum of its terms, each
    # of degree one more and of weight <= q
    for m in {**a.terms, **b.terms}:
        terms = list(gca.d_terms(m, sig.q))
        expected = sum((Element(sig, {mm: s}) for s, mm in terms), Element(sig))
        assert gca.differential(Element(sig, {m: 1})) == expected
        assert all(mm.degree() == m.degree() + 1 and mm.weight() <= sig.q for _, mm in terms)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_elements(SIG), _elements(SIG))
def test_property_graded_commutativity(a, b):
    for m, c in a.terms.items():
        am = Element(SIG, {m: c})
        for mm, cc in b.terms.items():
            bm = Element(SIG, {mm: cc})
            sign = (-1) ** (m.degree() * mm.degree())
            assert am * bm == (bm * am).scale(sign)
