"""Tests for the bigraded minimal model and loop-space Poincare series."""

from fractions import Fraction

import pytest

from veycalc import gca, linalg, minimal_model
from veycalc.errors import ResourceBudgetError
from veycalc.gca import AlgebraSignature, Element, Monomial
from veycalc.minimal_model import (
    FreeAlgebra,
    add_into,
    build_model,
    loop_poincare,
    rank_table,
)


def test_free_algebra_words():
    alg = FreeAlgebra()
    x = alg.add_generator("x", 2, {})
    a = alg.add_generator("a", 3, {})
    b = alg.add_generator("b", 3, {})
    # odd generators anticommute and square to zero
    ab = alg.mul({((a, 1),): 1}, {((b, 1),): 1})
    ba = alg.mul({((b, 1),): 1}, {((a, 1),): 1})
    add_into(ab, ba)
    assert ab == {}
    assert alg.mul({((a, 1),): 1}, {((a, 1),): 1}) == {}
    # basis enumeration
    assert [alg.word_label(w) for w in alg.basis(6)] == ["x^3", "ab"]
    # generators come in nondecreasing degree; a refused one leaves no trace
    with pytest.raises(ValueError, match="^generator degree must be at least 3$"):
        alg.add_generator("y", 2, {})
    assert alg.gids == ["x", "a", "b"] and alg.degrees == [2, 3, 3]
    assert alg.generators == {2: ["x"], 3: ["a", "b"]}


@pytest.mark.parametrize("q, cap", [(2, 18), (3, 16), (4, 14)])
def test_free_algebra_basis_is_sorted_and_counted_by_its_series(q, cap):
    # the word counts of the free algebra on the model's generators are the
    # coefficients of its Poincare series, computed without enumerating words
    m = build_model(q, cap)
    series = loop_poincare(rank_table(m), 0, cap + 4)
    for n, count in enumerate(series):
        words = m.algebra.basis(n)
        assert len(words) == count, n
        assert words == sorted(words), n


def test_free_algebra_differential_leibniz():
    alg = FreeAlgebra()
    x = alg.add_generator("x", 2, {})
    dw = {((x, 2),): Fraction(1)}  # d(w) = x^2
    w = alg.add_generator("w", 3, dw)
    # d(x w) = x * x^2 = x^3
    xw = alg.mul({((x, 1),): 1}, {((w, 1),): 1})
    assert alg.differential(xw) == {((x, 3),): Fraction(1)}
    # d(w * w) = 0 automatically (w odd, w^2 = 0)
    assert alg.differential(alg.differential(xw)) == {}


def test_model_q1():
    m = build_model(1, 8)
    assert rank_table(m) == {2: 1, 3: 1}
    assert all(m.quasi_iso_check.values())
    # the degree-3 generator kills the square of the degree-2 one
    (gid3,) = m.generators[3]
    d = m.differentials[gid3]
    assert [m.algebra.word_label(w) for w in d] == ["x2_0^2"]


def test_model_q2_degree6():
    m = build_model(2, 6)
    assert rank_table(m) == {2: 1, 4: 1, 5: 2}
    assert all(m.quasi_iso_check.values())


def test_model_q2_degree8():
    m = build_model(2, 8)
    ranks = rank_table(m)
    assert ranks[5] == 2
    assert ranks[7] == 1
    assert all(m.quasi_iso_check.values())


def test_model_q3():
    m = build_model(3, 10)
    assert all(m.quasi_iso_check.values())
    ranks = rank_table(m)
    assert ranks[2] == 1 and ranks[4] == 1 and ranks[6] == 1
    assert ranks[7] == 4


def test_model_trivial_cap():
    m = build_model(4, 3)
    assert rank_table(m) == {2: 1}


def test_minimality_no_linear_terms():
    for q, cap in [(1, 8), (2, 8), (3, 10)]:
        m = build_model(q, cap)
        for gid, d in m.differentials.items():
            for w in d:
                assert not (len(w) == 1 and w[0][1] == 1), (gid, q)


def test_d_squared_zero_in_model():
    m = build_model(2, 8)
    for gid, d in m.differentials.items():
        assert m.algebra.differential(d) == {}


def test_determinism():
    a = build_model(2, 8).to_json_obj()
    b = build_model(2, 8).to_json_obj()
    assert a == b



def test_model_is_built_over_the_c_i_its_cap_reads():
    # I_q has no relation below degree 2q+2, so through the cap the model over
    # c_1..c_min(q, cap // 2) is the one the builder gives at the full q
    for cap in range(2, 17):
        for q in range(cap // 2, cap // 2 + 5):
            model, full = build_model(q, cap), minimal_model._ModelBuilder(q, cap).build()
            assert model.to_json_obj() == full.to_json_obj(), (q, cap)
            assert rank_table(model) == rank_table(full), (q, cap)
            assert {len(c) for c in model.images.values() if c} <= {min(q, cap // 2)}

def test_model_solves_each_degree_once_per_stage(monkeypatch):
    # for I_3 to degree 16, one column pass over d_n in each of the 11 stages
    # whose degree has words, and one over the psi-images in each of the 15
    # stages; the quasi-iso check takes only ranks, so it adds no pass
    real = linalg.column_pass
    calls = []
    monkeypatch.setattr(linalg, "column_pass", lambda cols: calls.append(cols) or real(cols))
    build_model(3, 16)
    assert len(calls) == 11 + 15


def _snapshot(ech: linalg.Echelon) -> dict:
    return {p: dict(row) for p, row in ech.rows.items()}


@pytest.mark.parametrize("q, cap", [(3, 16), (2, 22)])
def test_model_takes_im_d_from_the_stage_before_as_it_stands(monkeypatch, q, cap):
    # each stage's column pass over d_n comes just before its cohomology call,
    # and the next stage with words receives that pass's image echelon: the
    # same object, with the rows the pass returned, since every word keeps its
    # column for the whole build
    real_pass, real_cohomology = linalg.column_pass, linalg.cohomology
    passes, received = [], []

    def column_pass(cols):
        kernel, image = real_pass(cols)
        passes.append((image, _snapshot(image)))
        return kernel, image

    def cohomology(kernel, coboundaries):
        received.append((coboundaries, _snapshot(coboundaries), passes[-1]))
        return real_cohomology(kernel, coboundaries)

    monkeypatch.setattr(linalg, "column_pass", column_pass)
    monkeypatch.setattr(linalg, "cohomology", cohomology)
    builder = minimal_model._ModelBuilder(q, cap)
    model = builder.build()
    assert received[0][1] == {}  # stage 2 has no im d_1
    for (echelon, rows, _), (_, _, (image, image_rows)) in zip(received[1:], received):
        assert echelon is image and rows == image_rows
    assert sum(len(rows) for _, rows, _ in received) > 0
    assert not hasattr(builder, "psi")  # psi is the c-exponents, read once by build()
    monkeypatch.undo()
    assert model.to_json_obj() == build_model(q, cap).to_json_obj()


def _count_listings(monkeypatch) -> list[tuple[int, int]]:
    """(degree, word count) of every FreeAlgebra.basis call from now on."""
    real, listed = FreeAlgebra.basis, []

    def basis(self, degree):
        words = real(self, degree)
        listed.append((degree, len(words)))
        return words

    monkeypatch.setattr(FreeAlgebra, "basis", basis)
    return listed


def test_model_lists_no_target_of_d(monkeypatch):
    # for I_3 to degree 16, each of the 15 stages lists its own degree once,
    # and the quasi-iso check lists degrees 2..15 once more, with their last
    # generators; d_n's target degree is counted and never listed
    listed = _count_listings(monkeypatch)
    build_model(3, 16)
    assert [n for n, _ in listed] == list(range(2, 17)) + list(range(2, 16))
    assert len(listed) == 29


@pytest.mark.parametrize("budget", [2, 192, 254, 255, 270])
def test_budget_refuses_before_a_basis_is_listed(monkeypatch, budget):
    # (2, 22) first goes over 192, and over 254, at degree 23, the target of
    # d_22, with 255 words: the refusal reads the count, so no basis longer
    # than the budget is ever listed
    monkeypatch.setattr(minimal_model, "WORD_BUDGET", budget)
    listed = _count_listings(monkeypatch)
    if budget < 255:
        with pytest.raises(ResourceBudgetError) as exc:
            build_model(2, 22)
        assert exc.value.estimate > budget
    else:
        assert all(build_model(2, 22).quasi_iso_check.values())
    assert listed and max(count for _, count in listed) <= budget


def test_quasi_iso_check_catches_a_coboundary_lost_at_the_top_stage(monkeypatch):
    # drop one row of im d_11 as stage 12 of I_4 to degree 12 receives it: the
    # coboundary it spanned passes for a class in psi's kernel, so a needless
    # w_11 kills it, and H^11 grows by one.  The Euler-Poincare identity through
    # t^11 misses this (w_11 has internal degree >= 12), and so does rank d_11
    # taken as the stage's image rank plus the degree-11 w's; the ranks that
    # the quasi-iso check recomputes over the final bases do not
    real, calls = linalg.cohomology, []
    monkeypatch.setattr(linalg, "cohomology", lambda k, im: calls.append(1) or real(k, im))
    clean = build_model(4, 12)
    assert all(clean.quasi_iso_check.values())
    last, calls[:] = len(calls), []  # the top stage makes the last call

    def dropping(kernel, coboundaries):
        calls.append(1)
        if len(calls) == last:
            assert coboundaries.rows
            coboundaries.rows.pop(max(coboundaries.rows))
        return real(kernel, coboundaries)

    monkeypatch.setattr(linalg, "cohomology", dropping)
    model = build_model(4, 12)
    assert rank_table(model)[11] == rank_table(clean)[11] + 1
    assert model.quasi_iso_check[11] is False
    assert [n for n, ok in model.quasi_iso_check.items() if not ok] == [11]


def test_quasi_iso_check_counts_the_target_in_closed_form(monkeypatch):
    # an enumerator of I_3^6 that drops its last monomial, c_3, loses x6_0
    # from the stages; a check that counted dim I_3^6 with the same
    # enumerator would certify the wrong model, and the closed form does not
    real = gca.c_parts
    assert real(3, 3)[-1] == (0, 0, 1)  # c_3

    def dropping(q, weight):
        out = real(q, weight)
        return out[:-1] if (q, weight) == (3, 3) else out

    monkeypatch.setattr(gca, "c_parts", dropping)
    model = build_model(3, 10)
    assert "x6_0" not in model.algebra.gids
    assert [n for n, ok in model.quasi_iso_check.items() if not ok] == [6]


def test_word_count_certificate_refuses_a_short_basis(monkeypatch):
    # an enumerator that drops 1 of the 4 degree-8 words of the model of I_3
    # would give ranks {7: 3, 9: 2, 11: 2} where {7: 4, 9: 1, 11: 1} are right,
    # with every quasi-iso check True; each listed basis is held to the count
    # that gca.free_series keeps.  It raises explicitly, so `python -O` keeps it
    real = FreeAlgebra.basis
    monkeypatch.setattr(FreeAlgebra, "basis",
                        lambda self, degree: real(self, degree)[: -1 if degree == 8 else None])
    with pytest.raises(AssertionError, match="degree 8 lists 3 words, not 4"):
        build_model(3, 12)


def test_mul_words_takes_its_sign_from_merge_y(monkeypatch):
    alg = FreeAlgebra()
    x, a, b = (alg.add_generator(g, d, {}) for g, d in (("x", 2), ("a", 3), ("b", 5)))
    assert alg.mul_words(((b, 1),), ((x, 2), (a, 1))) == (-1, ((x, 2), (a, 1), (b, 1)))
    assert alg.mul_words(((a, 1),), ((a, 1),)) is None
    seen = []
    real = gca._merge_y
    monkeypatch.setattr(gca, "_merge_y", lambda p, r: seen.append((p, r)) or real(p, r))
    alg.mul_words(((b, 1),), ((x, 2), (a, 1)))
    assert seen == [((b,), (a,))]  # the odd generators alone, in index order


def _psi_word(model, w) -> Element:
    """psi of a word as the Element product of its generators' images, the
    reference for the builder's exponent addition: an image is the c-part of
    one monomial c_J, or None for 0."""
    sig = AlgebraSignature(model.q, "I")
    out = Element(sig, {Monomial((), (0,) * model.q): 1})
    for idx, e in w:
        c = model.images[model.algebra.gids[idx]]
        image = Element(sig, {Monomial((), c): 1} if c else {})
        for _ in range(e):
            out = out * image
    return out


@pytest.mark.parametrize("q, cap", [(2, 18), (3, 16), (4, 14)])
def test_psi_is_exponent_addition(q, cap):
    builder = minimal_model._ModelBuilder(q, cap)
    model = builder.build()
    assert list(model.images) == model.algebra.gids
    for gid, c in model.images.items():
        if gid.startswith("x"):  # the c-part of one c_J of the generator's degree
            assert type(c) is tuple and len(c) == q, gid
            assert f"x{Monomial((), c).degree()}" == gid.split("_")[0]
        else:
            assert c is None, gid
    for n in range(2, cap + 1):
        basis = gca.basis_of_degree(AlgebraSignature(q, "I"), n)
        index = {m.c_part: i for i, m in enumerate(basis)}
        for w in builder._basis(n):
            expected = {index[m.c_part]: c for m, c in _psi_word(model, w).terms.items()}
            assert builder._psi_vector({w: 1}, index) == expected, model.algebra.word_label(w)


def test_model_multiplies_no_element(monkeypatch):
    # nor builds a Monomial: I_q^n is read from gca.c_parts as exponent tuples
    expected = build_model(3, 16).to_json_obj()

    def refuse(*args, **kwargs):
        raise AssertionError("Element.__mul__ or Monomial on the model path")

    monkeypatch.setattr(Element, "__mul__", refuse)
    monkeypatch.setattr(gca.Monomial, "__new__", refuse)
    assert build_model(3, 16).to_json_obj() == expected


def test_minimality_certificate_refuses_a_linear_term():
    # it raises explicitly, so it also holds under `python -O`, which strips
    # assert statements (tests/test_morse.py scans src/ for them)
    alg = FreeAlgebra()
    x = alg.add_generator("x2_0", 2, {})
    alg.add_generator("w3_0", 3, {((x, 1),): 1})
    model = minimal_model.ModelStage(1, 4, alg, {}, {})
    with pytest.raises(AssertionError, match="w3_0 has the linear term x2_0"):
        minimal_model._assert_minimal(model)


def test_model_holds_each_generator_once():
    assert minimal_model.ModelStage._fields == (
        "q", "degree_cap", "algebra", "images", "quasi_iso_check")
    m = build_model(2, 6)
    with pytest.raises(ValueError):
        m._replace(generators={})
    for q, cap in [(2, 6), (3, 16), (4, 14)]:
        m = build_model(q, cap)
        assert m.generators == m.algebra.generators
        assert list(m.differentials) == m.algebra.gids


def test_budget_error(monkeypatch):
    monkeypatch.setattr(minimal_model, "WORD_BUDGET", 2)
    with pytest.raises(ResourceBudgetError) as exc:
        build_model(3, 12)
    assert exc.value.estimate > 2


def test_budget_covers_every_enumerated_basis(monkeypatch):
    # the top stage enumerates degree cap + 1, the target of d_cap: 255 words
    # for (2, 22) then, 270 once the last generators are in (never enumerated);
    # the builder reads WORD_BUDGET when it enumerates a basis
    expected = build_model(2, 22).to_json_obj()
    monkeypatch.setattr(minimal_model, "WORD_BUDGET", 192)
    with pytest.raises(ResourceBudgetError) as exc:
        build_model(2, 22)
    assert exc.value.estimate == 255
    monkeypatch.setattr(minimal_model, "WORD_BUDGET", 254)
    with pytest.raises(ResourceBudgetError):
        build_model(2, 22)
    monkeypatch.setattr(minimal_model, "WORD_BUDGET", 255)
    assert build_model(2, 22).to_json_obj() == expected
    monkeypatch.setattr(minimal_model, "WORD_BUDGET", 270)
    assert all(build_model(2, 22).quasi_iso_check.values())


def test_rank_table():
    # a plain dict, degree -> generator count, sorted by degree
    m = build_model(2, 8)
    t = rank_table(m)
    assert type(t) is dict
    assert t == {d: len(g) for d, g in m.generators.items()} == {2: 1, 4: 1, 5: 2, 7: 1}
    assert list(t) == sorted(t)


def test_loop_poincare_single_even():
    assert loop_poincare({3: 1}, 1, 10) == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_loop_poincare_single_odd():
    assert loop_poincare({5: 2}, 2, 9) == [1, 0, 0, 2, 0, 0, 1, 0, 0, 0]


def test_loop_poincare_empty_and_drops():
    assert loop_poincare({}, 0, 4) == [1, 0, 0, 0, 0]
    # a generator delooped to nonpositive degree is dropped
    assert loop_poincare({2: 1}, 3, 4) == [1, 0, 0, 0, 0]


def test_loop_poincare_mixed():
    # even in degree 2 and odd in degree 3: (1+t^3)/(1-t^2)
    assert loop_poincare({4: 1, 5: 1}, 2, 6) == [1, 0, 1, 1, 1, 1, 1]
