"""Tests for Vey basis enumeration, classification, counts, validation."""

import io
import itertools
import re

import pytest

from veycalc import complexes, manifold, vey


def _names(classes):
    return [m.label() for m in classes]


def _row(q, kind, m) -> dict:
    """The `vey` row of the class m, its flags read off the monomial alone."""
    rigid = m.y_part[0] + m.weight() >= q + 2
    return {
        "monomial": m.to_json_obj(),
        "name": m.label(),
        "complex": kind,
        "q": q,
        "degree": m.degree(),
        "generalized_gv": m.y_part == (1,),
        "residual": m.weight() == q,
        "rigid": rigid,
        "variable_candidate": m.degree() == 2 * q + 1 and not rigid,
    }


def test_vey_basis_wo1():
    assert _names(vey.vey_basis(1, "WO")) == ["y1c1"]


def test_vey_basis_w2_degrees():
    classes = vey.vey_basis(2, "W")
    assert _names([m for m in classes if m.degree() == 5]) == ["y1c1^2", "y1c2"]
    # y2c1^2 excluded: i_1 = 2 > j_1 = 1
    assert _names([m for m in classes if m.degree() == 7]) == ["y2c2"]


def test_vey_basis_wo3_degree7():
    classes = [m for m in vey.vey_basis(3, "WO") if m.degree() == 7]
    assert _names(classes) == ["y1c1^3", "y1c1c2", "y1c3"]


def _flags_by_name(q, kind):
    from veycalc.gca import Monomial

    return {Monomial(ys, c).label(): flags
            for _, ys, cparts, flags in vey.vey_groups(q, kind) for c in cparts}


def test_classification():
    # flags: (generalized GV, residual, rigid, variable candidate)
    flags = _flags_by_name(2, "W")
    assert flags["y1c1^2"] == (True, True, False, True)
    assert flags["y2c2"] == (False, True, True, False)  # rigid classes cannot vary
    assert _flags_by_name(3, "WO")["y1c3"] == (True, True, False, True)


def test_variable_sets_and_counts():
    assert _names(vey.variable_set(1)) == ["y1c1"]
    assert _names(vey.variable_set(2)) == ["y1c1^2", "y1c2"]
    assert _names(vey.variable_set(3)) == ["y1c1^3", "y1c1c2", "y1c3"]
    assert [vey.v_count(q) for q in (1, 2, 3)] == [1, 2, 3]


def test_wo_basis_enumerated_only_in_degree_2q_plus_1(monkeypatch):
    # a compact parallelizable report needs the variable set and its braced
    # extension; they, every extended_count and v_count enumerate only the
    # degree-(2q+1) slice of WO_q and never the whole basis
    from veycalc import gca

    real = gca.critical_groups
    calls = []

    def counting(sig, degree=None):
        calls.append((sig, degree))
        return real(sig, degree)

    monkeypatch.setattr(gca, "critical_groups", counting)
    manifold.report(manifold.preset("T3"))
    assert [vey.extended_count(3, d) for d in (7, 10, 13)] == [3, 3, 0]
    assert vey.v_count(3) == 3
    assert calls and set(calls) == {(gca.AlgebraSignature(3, "WO"), 7)}


SLICED = [("W", q) for q in range(1, 9)] + [("WO", q) for q in range(1, 13)]


@pytest.mark.parametrize("kind, q", SLICED, ids=[f"{k}{q}" for k, q in SLICED])
def test_degree_slice_is_the_filtered_basis(kind, q):
    from veycalc import gca

    full, groups = vey.vey_basis(q, kind), vey.vey_groups(q, kind)
    top = gca.top_degree(gca.AlgebraSignature(q, kind))
    assert max(m.degree() for m in full) <= top
    for d in range(-1, top + 2):
        assert vey.vey_basis(q, kind, d) == [m for m in full if m.degree() == d], d
        assert vey.vey_groups(q, kind, d) == [g for g in groups if g[0] == d], d


@pytest.mark.parametrize("q", range(1, 13))
def test_variable_set_is_the_degree_2q_plus_1_slice(q):
    wo = vey.vey_basis(q, "WO")
    assert vey.variable_set(q) == [m for m in wo if _row(q, "WO", m)["variable_candidate"]]


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
    # each class of a group has the group's degree and y-part, and the flags
    # read off its monomial alone are the group's; the groups list vey_basis
    from veycalc.gca import Monomial

    marks = ("generalized_gv", "residual", "rigid", "variable_candidate")
    for q in range(1, 11):
        groups = vey.vey_groups(q, kind)
        for n, ys, cparts, flags in groups:
            for c in cparts:
                row = _row(q, kind, Monomial(ys, c))
                assert (row["degree"], *(row[k] for k in marks)) == (n, *flags), row["name"]
        assert vey.vey_basis(q, kind) == [Monomial(ys, c) for _, ys, cs, _ in groups for c in cs]


def test_classes_are_their_monomials():
    from veycalc.gca import Monomial

    assert vey.vey_basis(2, "W")[0] == Monomial((1,), (2, 0))
    assert all(type(m) is Monomial for m in vey.vey_basis(3, "WO") + vey.variable_set(3))


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


NON_INT_Q = [
    ("write_basis_json",
     lambda q: vey.write_basis_json(q, "WO", vey.vey_groups(q, "WO"), io.StringIO())),
    ("cohomology", lambda q: complexes.cohomology(complexes.build_complex(q, "W"))),
    ("validate_vey", lambda q: vey.validate_vey(q, "WO")),
    ("vey_basis", lambda q: vey.vey_basis(q, "W")),
    ("vey_groups", lambda q: vey.vey_groups(q, "W")),
    ("variable_set", vey.variable_set),
    ("v_count", vey.v_count),
    ("extended_basis", vey.extended_basis),
    ("extended_count", lambda q: vey.extended_count(q, 7)),
    ("kappa", vey.kappa),
]


@pytest.mark.parametrize("q", [True, 2.0, "3", None, [3]],
                         ids=["bool", "float", "str", "None", "list"])
@pytest.mark.parametrize("name, call", NON_INT_Q, ids=[n for n, _ in NON_INT_Q])
def test_non_integer_q_is_refused(name, call, q):
    # q is written into every document: True would print as `true` (`True` in
    # the vey rows, which is not JSON); 2.0, "3" and None failed as a bare
    # TypeError at `q < 1` or `2 * q + 1`
    with pytest.raises(ValueError, match=re.escape(f"q must be an integer, got {q!r}")):
        call(q)


def test_negative_degree_is_an_empty_request():
    # a degree has no least value (tests/test_inputs.py refuses a non-int one):
    # `veycalc vey --degree -1` prints 0 classes
    assert vey.vey_basis(3, "W", -1) == []
    assert vey.vey_groups(3, "W", -1) == []
    assert vey.extended_count(3, -1) == 0


@pytest.mark.parametrize("call", [lambda k: vey.vey_basis(3, k), lambda k: vey.vey_groups(3, k),
                                  lambda k: vey.validate_vey(3, k)],
                         ids=["vey_basis", "vey_groups", "validate_vey"])
@pytest.mark.parametrize("kind", ["X", "I", None])
def test_kind_without_a_vey_basis_is_refused_before_the_complex(monkeypatch, call, kind):
    # validate_vey refused "X" from build_complex, with another message, and
    # built I_3 before it refused "I"
    def no_complex(*args):
        raise AssertionError("build_complex ran")

    monkeypatch.setattr(complexes, "build_complex", no_complex)
    with pytest.raises(ValueError, match=re.escape(
            f"complex kind must be one of W, WO, got {kind!r}")):
        call(kind)


def test_extended_basis_q3():
    classes, counts = vey.extended_basis(3)
    assert counts[7] == 3  # empty I' reproduces the variable set
    assert counts[10] == 3
    deg10 = [m.label() for d, m in classes if d == 10]
    assert deg10 == ["y1y2c1^3", "y1y2c1c2", "y1y2c3"]
    assert vey.extended_count(3, 10) == 3


def test_extended_basis_empty_iprime_is_variable_set():
    for q in (1, 2, 3):
        classes, counts = vey.extended_basis(q)
        base = [m for _, m in classes if len(m.y_part) == 1]  # I' empty
        assert [m.label() for m in base] == _names(vey.variable_set(q))
        assert counts[2 * q + 1] == vey.v_count(q)


@pytest.mark.parametrize("q", range(1, 15))
def test_extended_basis_matches_a_monomial_degree_reference(q):
    # each braced class built from its monomial alone: Monomial.degree() for
    # its degree, a sort on Monomial.sort_key() for its place
    from veycalc.gca import Monomial

    reference, counts = [], {}
    for v in vey.variable_set(q):
        i1 = v.y_part[0]
        evens = [i for i in range(2, (q + 1) // 2 + 1, 2) if i > i1]
        for r in range(len(evens) + 1):
            for iprime in itertools.combinations(evens, r):
                m = Monomial(tuple(sorted((i1,) + iprime)), v.c_part)
                counts[m.degree()] = counts.get(m.degree(), 0) + 1
                reference.append((m.degree(), m))
    reference.sort(key=lambda e: e[1].sort_key())
    classes, by_degree = vey.extended_basis(q)
    assert classes == reference
    assert list(by_degree.items()) == sorted(counts.items())


@pytest.mark.parametrize("q", range(1, 21))
def test_extended_basis_braces_with_the_even_indices_up_to_2_kappa(q):
    # every class is y_{i_1} y_{I'} c_J with I' among 2, 4, ..., 2 kappa(q)
    # above i_1, and each y_{i_1} c_J is braced by every such I'
    evens = range(2, 2 * vey.kappa(q) + 1, 2)
    braced = {}
    for _, m in vey.extended_basis(q)[0]:
        i1, iprime = m.y_part[0], m.y_part[1:]
        assert set(iprime) <= set(evens) and all(i > i1 for i in iprime), m.label()
        braced[i1, m.c_part] = braced.get((i1, m.c_part), 0) + 1
    assert set(braced) == {(v.y_part[0], v.c_part) for v in vey.variable_set(q)}
    for (i1, _), n in braced.items():
        assert n == 2 ** sum(1 for i in evens if i > i1)


def test_extended_basis_q7_allows_i_prime_4():
    classes, counts = vey.extended_basis(7)
    # 2*4 = 8 <= q+1 = 8, so I' = (2,4) and (4,) appear
    i_primes = {m.y_part[1:] for _, m in classes}
    assert (4,) in i_primes and (2, 4) in i_primes


def test_extended_monomials_are_cocycles():
    from veycalc import complexes, gca

    cx = complexes.build_complex(3, "W")
    classes, _ = vey.extended_basis(3)
    for _, m in classes:
        el = gca.Element.monomial(cx.signature, m)
        assert complexes.is_cocycle(cx, el), m.label()


def test_degree_range_filter():
    # callers slice the extension by degree themselves; the slice is the count
    classes, counts = vey.extended_basis(3)
    at_10 = [m for d, m in classes if d == 10]
    assert all(m.degree() == 10 for m in at_10)
    assert len(at_10) == counts[10] == 3


@pytest.mark.parametrize(
    "kind, q",
    [(kind, q) for kind in ("W", "WO") for q in (1, 2, 3)]
    + [("W", 8), ("W", 9)] + [("WO", q) for q in range(7, 11)] + [("WO", 14)],
)
def test_validate(q, kind):
    report = vey.validate_vey(q, kind)
    assert report["ok"]
    for check in report["per_degree"]:
        assert check["independent"]
        if check["degree"] > 2 * q:
            assert check["enumerated"] == check["oracle_dim"]


def test_validate_reports_cells_off_the_walk(monkeypatch):
    # an enumerator that lists y1 (d y1 = c1, a lower cell) and repeats the
    # two cells y1c1^2, y1c2 of degree 5 > 2q fails in those two degrees and nowhere else
    from veycalc import gca

    real = gca.critical_groups

    def faulty(sig, degree=None):
        groups = real(sig, degree)
        return [(1, (1,), 0, ((0,) * sig.q,)), *groups, next(g for g in groups if g[0] > 2 * sig.q)]

    monkeypatch.setattr(gca, "critical_groups", faulty)
    report = vey.validate_vey(2, "W")
    assert not report["ok"]
    checks = {c["degree"]: c for c in report["per_degree"]}
    assert checks[1] == {"degree": 1, "enumerated": 1, "oracle_dim": 0, "independent": False,
                         "notes": ["the walk's critical cells (0) differ from the enumerator's (1)"]}
    assert checks[5] == {"degree": 5, "enumerated": 4, "oracle_dim": 2, "independent": False,
                         "notes": ["the walk's critical cells (2) differ from the enumerator's (4)"]}
    assert all(c["independent"] for n, c in checks.items() if n not in (1, 5))


def test_validate_flags_w2_degree8():
    report = vey.validate_vey(2, "W")
    deg8 = next(c for c in report["per_degree"] if c["degree"] == 8)
    assert deg8["oracle_dim"] == 2
    assert any("classical generator tables" in n for n in deg8["notes"])


def test_vey_cocycles_q4():
    from veycalc import complexes, gca

    for kind in ("W", "WO"):
        cx = complexes.build_complex(4, kind)
        for m in vey.vey_basis(4, kind):
            el = gca.Element.monomial(cx.signature, m)
            assert complexes.is_cocycle(cx, el), m.label()


def test_v_count_through_q8():
    assert [vey.v_count(q) for q in range(1, 9)] == [1, 2, 3, 6, 8, 14, 17, 29]


def test_validate_w6_against_oracle():
    assert vey.validate_vey(6, "W")["ok"]


def test_validate_w7_under_the_default_cap():
    assert vey.validate_vey(7, "W")["ok"]


# -- the `vey` JSON rows and table cells against the dict-based references ----

BASES = [("W", q) for q in range(1, 8)] + [("WO", q) for q in range(1, 11)]


def _dict_document(q, kind, classes) -> dict:
    return {
        "q": q,
        "complex": kind,
        "wo_condition": vey.WO_CONDITION,
        "classes": [_row(q, kind, m) for m in classes],
    }


def _dict_cells(q, kind, m) -> list[str]:
    d = _row(q, kind, m)
    marks = ("generalized_gv", "residual", "rigid", "variable_candidate")
    return [d["name"], str(d["degree"]), *("x" if d[k] else "" for k in marks)]


class _Writes:
    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return len(text)


def _written(q, kind, groups) -> list[str]:
    out = _Writes()
    vey.write_basis_json(q, kind, groups, out)
    return out.chunks


@pytest.mark.parametrize("kind, q", BASES, ids=[f"{k}{q}" for k, q in BASES])
def test_json_rows_and_table_cells_match_the_dicts(kind, q):
    from veycalc.cache import canonical_json

    classes, groups = vey.vey_basis(q, kind), vey.vey_groups(q, kind)
    rows = list(vey._json_rows(q, kind, groups))
    assert rows == [canonical_json(_row(q, kind, m)) for m in classes]
    assert vey.basis_table_rows(groups) == [_dict_cells(q, kind, m) for m in classes]
    chunks = _written(q, kind, groups)
    assert "".join(chunks) == canonical_json(_dict_document(q, kind, classes)) + "\n"
    # one write for the head, one per batch of rows, one for the tail
    assert len(chunks) == -(-len(classes) // vey._BATCH) + 2


@pytest.mark.parametrize("extra", [0, 1], ids=["at-batch-size", "one-past"])
def test_json_document_at_the_batch_boundary(monkeypatch, extra):
    from veycalc.cache import canonical_json

    classes = vey.vey_basis(5, "WO")
    monkeypatch.setattr(vey, "_BATCH", len(classes) - extra)
    chunks = _written(5, "WO", vey.vey_groups(5, "WO"))
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
    classes = [m for m in vey.vey_basis(q, kind) if m.degree() == degree]
    doc = _dict_document(q, kind, classes)
    if fmt == "json":
        assert out == canonical_json(doc) + "\n"
        assert ('"classes":[]' in out) == (not classes)
    else:
        head = f"Vey basis of {kind}_{q} ({len(classes)} classes)\n"
        headers = ["name", "degree", "gv", "residual", "rigid", "variable"]
        assert out == head + cli._table(headers, [_dict_cells(q, kind, m) for m in classes])
