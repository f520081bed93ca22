"""Tests for Vey basis enumeration, classification, counts, validation."""

import itertools

import pytest

from veycalc import manifold, vey


def _names(classes):
    return [c.name() for c in classes]


def test_vey_basis_wo1():
    assert _names(vey.vey_basis(1, "WO")) == ["y1c1"]


def test_vey_basis_w2_degrees():
    classes = vey.vey_basis(2, "W")
    assert _names([c for c in classes if c.degree == 5]) == ["y1c1^2", "y1c2"]
    # y2c1^2 excluded: i_1 = 2 > j_1 = 1
    assert _names([c for c in classes if c.degree == 7]) == ["y2c2"]


def test_vey_basis_wo3_degree7():
    classes = [c for c in vey.vey_basis(3, "WO") if c.degree == 7]
    assert _names(classes) == ["y1c1^3", "y1c1c2", "y1c3"]


def test_classification():
    classes = {c.name(): c for c in vey.vey_basis(2, "W")}
    gv = classes["y1c1^2"]
    assert gv.is_generalized_gv and gv.is_residual and not gv.is_rigid
    rigid = classes["y2c2"]
    assert rigid.is_rigid and rigid.is_residual and not rigid.is_generalized_gv
    assert not rigid.is_variable_candidate  # rigid classes cannot vary

    y1c3 = {c.name(): c for c in vey.vey_basis(3, "WO")}["y1c3"]
    assert y1c3.is_generalized_gv and y1c3.is_residual and not y1c3.is_rigid


def test_variable_sets_and_counts():
    assert _names(vey.variable_set(1)) == ["y1c1"]
    assert _names(vey.variable_set(2)) == ["y1c1^2", "y1c2"]
    assert _names(vey.variable_set(3)) == ["y1c1^3", "y1c1c2", "y1c3"]
    assert [vey.v_count(q) for q in (1, 2, 3)] == [1, 2, 3]


def test_wo_basis_enumerated_once_per_q(monkeypatch):
    # a compact parallelizable report needs the variable set and its braced
    # extension; they and every extended_count share one degree-(2q+1) slice
    # of vey_basis and never build the whole WO_q basis
    real = vey.vey_basis
    calls = []

    def counting(q, kind, degree=None):
        calls.append((q, kind, degree))
        return real(q, kind, degree)

    monkeypatch.setattr(vey, "vey_basis", counting)
    vey._variable_classes.cache_clear()
    manifold.report(manifold.preset("T3"))
    assert [vey.extended_count(3, d) for d in (7, 10, 13)] == [3, 3, 0]
    vey.variable_set(3).clear()  # the caller's list, not the cached set
    assert vey.v_count(3) == 3
    assert calls == [(3, "WO", 7)]
    assert vey._variable_classes.cache_info().misses == 1


SLICED = [("W", q) for q in range(1, 9)] + [("WO", q) for q in range(1, 13)]


@pytest.mark.parametrize("kind, q", SLICED, ids=[f"{k}{q}" for k, q in SLICED])
def test_degree_slice_is_the_filtered_basis(kind, q):
    from veycalc import complexes, gca

    full = vey.vey_basis(q, kind)
    top = gca.top_degree(complexes.signature_for(q, kind))
    assert max(v.degree for v in full) <= top
    for d in range(-1, top + 2):
        assert vey.vey_basis(q, kind, d) == [v for v in full if v.degree == d], d


@pytest.mark.parametrize("q", range(1, 13))
def test_variable_set_is_the_degree_2q_plus_1_slice(q):
    wo = vey.vey_basis(q, "WO")
    assert vey.variable_set(q) == [v for v in wo if v.is_variable_candidate]


def _partitions(n, parts):
    ways = [1] + [0] * n
    for p in parts:
        for k in range(p, n + 1):
            ways[k] += ways[k - p]
    return ways[n]


def test_v_count_matches_a_partition_count():
    # v_q counts y_i c_J with odd i and J a partition of q+1-i whose odd
    # parts are all >= i, counted here by coin-change on the allowed parts
    def by_partitions(q):
        return sum(
            _partitions(q + 1 - i, [j for j in range(1, q + 1) if j % 2 == 0 or j >= i])
            for i in range(1, q + 1, 2)
        )

    assert [vey.v_count(q) for q in range(1, 31)] == [by_partitions(q) for q in range(1, 31)]
    assert vey.v_count(24) == 1957
    assert vey.v_count(30) == 6841


@pytest.mark.parametrize("kind", ["W", "WO"])
def test_enumerated_flags_follow_classify(kind):
    # the flags recomputed from the monomial alone match the enumerated ones
    for q in range(1, 11):
        for v in vey.vey_basis(q, kind):
            m = v.monomial
            flags = vey._flags(v.q, m.y_part, m.weight(), m.degree())
            assert vey.VeyClass(m, v.complex_kind, v.q, m.degree(), *flags) == v, v.name()


def test_kappa():
    assert vey.kappa(3) == 1
    assert vey.kappa(7) == 2
    assert vey.kappa(2) == 0
    # monotone, and the defining inequalities hold
    prev = 0
    for q in range(1, 20):
        k = vey.kappa(q)
        assert k >= prev
        assert 4 * k <= q + 1 < 4 * (k + 1)
        prev = k


def test_extended_basis_q3():
    classes, counts = vey.extended_basis(3)
    assert counts[7] == 3  # empty I' reproduces the variable set
    assert counts[10] == 3
    deg10 = [e.name() for e in classes if e.degree == 10]
    assert deg10 == ["y1y2c1^3", "y1y2c1c2", "y1y2c3"]
    assert vey.extended_count(3, 10) == 3


def test_extended_basis_empty_iprime_is_variable_set():
    for q in (1, 2, 3):
        classes, counts = vey.extended_basis(q)
        base = [e for e in classes if not e.i_prime]
        assert [e.name() for e in base] == _names(vey.variable_set(q))
        assert counts[2 * q + 1] == vey.v_count(q)


@pytest.mark.parametrize("q", range(1, 15))
def test_extended_basis_matches_a_monomial_degree_reference(q):
    # each braced class built from its monomial alone: Monomial.degree() for
    # its degree, a sort on Monomial.sort_key() for its place
    from veycalc.gca import Monomial

    reference, counts = [], {}
    for v in vey.variable_set(q):
        i1 = v.monomial.y_part[0]
        evens = [i for i in range(2, (q + 1) // 2 + 1, 2) if i > i1]
        for r in range(len(evens) + 1):
            for iprime in itertools.combinations(evens, r):
                m = Monomial(tuple(sorted((i1,) + iprime)), v.monomial.c_part)
                counts[m.degree()] = counts.get(m.degree(), 0) + 1
                reference.append(vey.ExtendedClass(v, iprime, m, m.degree()))
    reference.sort(key=lambda e: e.monomial.sort_key())
    classes, by_degree = vey.extended_basis(q)
    assert classes == reference
    assert list(by_degree.items()) == sorted(counts.items())


def test_extended_basis_q7_allows_i_prime_4():
    classes, counts = vey.extended_basis(7)
    # 2*4 = 8 <= q+1 = 8, so I' = (2,4) and (4,) appear
    i_primes = {e.i_prime for e in classes}
    assert (4,) in i_primes and (2, 4) in i_primes


def test_extended_monomials_are_cocycles():
    from veycalc import complexes, gca

    cx = complexes.build_complex(3, "W")
    classes, _ = vey.extended_basis(3)
    for e in classes:
        el = gca.Element.monomial(cx.signature, e.monomial)
        assert complexes.is_cocycle(cx, el), e.name()


def test_degree_range_filter():
    # callers slice the extension by degree themselves; the slice is the count
    classes, counts = vey.extended_basis(3)
    at_10 = [e for e in classes if e.degree == 10]
    assert all(e.degree == 10 for e in at_10)
    assert len(at_10) == counts[10] == 3


@pytest.mark.parametrize(
    "kind, q",
    [(kind, q) for kind in ("W", "WO") for q in (1, 2, 3)]
    + [("W", 8), ("W", 9)] + [("WO", q) for q in range(7, 11)] + [("WO", 14)],
)
def test_validate(q, kind):
    report = vey.validate_vey(q, kind)
    assert report.ok
    for check in report.per_degree:
        assert check.independent
        if check.degree > 2 * q:
            assert check.enumerated == check.oracle_dim


def test_validate_reports_a_non_cocycle_and_a_dependent_class(monkeypatch):
    # y1 (degree 1) has d y1 = c1, and a repeated class of degree > 2q is
    # dependent on its first copy and breaks the count
    from veycalc.gca import Monomial

    real = vey.vey_basis

    def faulty(q, kind):
        classes = real(q, kind)
        y1 = vey.VeyClass(Monomial((1,), (0,) * q), kind, q, 1)
        return [y1, *classes, next(v for v in classes if v.degree > 2 * q)]

    monkeypatch.setattr(vey, "vey_basis", faulty)
    report = vey.validate_vey(2, "W")
    assert not report.ok
    checks = {c.degree: c for c in report.per_degree}
    assert not checks[1].independent
    assert checks[1].notes == ["y1 is not a cocycle"]
    assert (checks[5].enumerated, checks[5].oracle_dim, checks[5].independent) == (3, 2, False)
    assert checks[5].notes == [
        "enumerated classes are dependent modulo coboundaries",
        "count mismatch above 2q: enumerated 3 vs oracle 2",
    ]
    assert all(c.independent for c in report.per_degree if c.degree not in (1, 5))


def test_validate_flags_w2_degree8():
    report = vey.validate_vey(2, "W")
    deg8 = next(c for c in report.per_degree if c.degree == 8)
    assert deg8.oracle_dim == 2
    assert any("classical generator tables" in n for n in deg8.notes)


def test_vey_cocycles_q4():
    from veycalc import complexes, gca

    for kind in ("W", "WO"):
        cx = complexes.build_complex(4, kind)
        for v in vey.vey_basis(4, kind):
            el = gca.Element.monomial(cx.signature, v.monomial)
            assert complexes.is_cocycle(cx, el), v.name()


def test_v_count_through_q8():
    assert [vey.v_count(q) for q in range(1, 9)] == [1, 2, 3, 6, 8, 14, 17, 29]


def test_validate_w6_against_oracle():
    assert vey.validate_vey(6, "W").ok


def test_validate_w7_under_the_default_cap():
    assert vey.validate_vey(7, "W").ok


# -- the `vey` JSON rows and table cells against the dict-based references ----

BASES = [("W", q) for q in range(1, 8)] + [("WO", q) for q in range(1, 11)]


def _dict_document(q, kind, classes) -> dict:
    return {
        "q": q,
        "complex": kind,
        "wo_condition": vey.WO_CONDITION,
        "classes": [c.to_json_obj() for c in classes],
    }


def _dict_cells(c) -> list[str]:
    d = c.to_json_obj()
    marks = ("generalized_gv", "residual", "rigid", "variable_candidate")
    return [d["name"], str(d["degree"]), *("x" if d[k] else "" for k in marks)]


class _Writes:
    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return len(text)


def _written(q, kind, classes) -> list[str]:
    out = _Writes()
    vey.write_basis_json(q, kind, classes, out)
    return out.chunks


@pytest.mark.parametrize("kind, q", BASES, ids=[f"{k}{q}" for k, q in BASES])
def test_json_rows_and_table_cells_match_the_dicts(kind, q):
    from veycalc.cache import canonical_json

    classes = vey.vey_basis(q, kind)
    rows = list(vey._json_rows(classes))
    assert rows == [canonical_json(c.to_json_obj()) for c in classes]
    assert vey.basis_table_rows(classes) == [_dict_cells(c) for c in classes]
    chunks = _written(q, kind, classes)
    assert "".join(chunks) == canonical_json(_dict_document(q, kind, classes)) + "\n"
    # one write for the head, one per batch of rows, one for the tail
    assert len(chunks) == -(-len(classes) // vey._BATCH) + 2


@pytest.mark.parametrize("extra", [0, 1], ids=["at-batch-size", "one-past"])
def test_json_document_at_the_batch_boundary(monkeypatch, extra):
    from veycalc.cache import canonical_json

    classes = vey.vey_basis(5, "WO")
    monkeypatch.setattr(vey, "_BATCH", len(classes) - extra)
    chunks = _written(5, "WO", classes)
    assert len(chunks) == 3 + extra
    assert "".join(chunks) == canonical_json(_dict_document(5, "WO", classes)) + "\n"


@pytest.mark.parametrize(
    "kind, q, degree",
    [("W", 4, 9), ("W", 6, 15), ("WO", 9, 19), ("WO", 10, 21), ("W", 3, 2), ("WO", 4, 0)],
)
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_cli_degree_filter_matches_the_dicts(capsys, kind, q, degree, fmt):
    from veycalc import cli
    from veycalc.cache import canonical_json

    argv = ["vey", "--complex", kind, "--q", str(q), "--degree", str(degree), "--format", fmt]
    assert cli.run(argv) == 0
    out = capsys.readouterr().out
    classes = [c for c in vey.vey_basis(q, kind) if c.degree == degree]
    doc = _dict_document(q, kind, classes)
    if fmt == "json":
        assert out == canonical_json(doc) + "\n"
        assert ('"classes":[]' in out) == (not classes)
    else:
        head = f"Vey basis of {kind}_{q} ({len(classes)} classes)\n"
        headers = ["name", "degree", "gv", "residual", "rigid", "variable"]
        assert out == head + cli._table(headers, [_dict_cells(c) for c in classes])
