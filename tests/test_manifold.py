"""Tests for manifold class inventories, including golden-file matches."""

import itertools
import json
import pathlib
import re

import pytest

from veycalc import vey
from veycalc.cache import canonical_json
from veycalc.manifold import (
    ManifoldDescriptor,
    UnsupportedInputError,
    fiber_integrate_degree,
    preset,
    report,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
SCHEMA = pathlib.Path(__file__).parents[1] / "docs" / "schemas" / "manifold_report.json"
RECORD = json.loads(SCHEMA.read_text())["properties"]["records"]["items"]["properties"]
METHODS = RECORD["method"]["enum"]  # the published method vocabulary


def _doc(descriptor):
    return {
        "descriptor": descriptor.to_json_obj(),
        "records": report(descriptor),
    }


def test_fiber_integrate_degree():
    assert fiber_integrate_degree(5, 2) == 3
    assert fiber_integrate_degree(4, 4) == 0
    assert fiber_integrate_degree(7, 3) == 4
    with pytest.raises(ValueError):
        fiber_integrate_degree(1, 2)


def test_closed_and_orientable_are_derived():
    # no descriptor has a boundary or lacks an orientation, so neither is an input
    for compact in (False, True):
        d = ManifoldDescriptor(2, compact, True)
        assert (d.closed, d.orientable) == (compact, True)
        assert (d.to_json_obj()["closed"], d.to_json_obj()["orientable"]) == (compact, True)


def test_bad_cospherical_degree_rejected():
    with pytest.raises(UnsupportedInputError):
        ManifoldDescriptor(2, True, True, ((2, 1),))


@pytest.mark.parametrize(
    "q,cospherical",
    [(2.5, ()), (True, ()), (3, ((1.0, 2),)), (3, ((1, 2.5),)), (3, ((True, 1),))],
)
def test_non_integer_descriptor_rejected(q, cospherical):
    # a float degree would reach the records as 6.0, a float count would fail
    # in report with a bare TypeError, and bool is no integer here either
    with pytest.raises(UnsupportedInputError, match="integer"):
        ManifoldDescriptor(q, True, False, cospherical)


@pytest.mark.parametrize(
    "flags, match",
    [(dict(compact=1), "compact"), (dict(parallelizable="yes"), "parallelizable"),
     (dict(trivialized_over_cycles="no"), "trivialized_over_cycles"),
     (dict(trivialized_over_cycles=None), "trivialized_over_cycles"),
     (dict(label=5), "label"), (dict(label=None), "label")],
)
def test_non_bool_flag_or_non_str_label_rejected(flags, match):
    # the descriptor is copied into manifold_report.json, whose schema wants
    # booleans and a string: "no" is truthy, and 5 is no label
    args = {"q": 3, "compact": True, "parallelizable": False, **flags}
    with pytest.raises(UnsupportedInputError, match=match):
        ManifoldDescriptor(**args)


@pytest.mark.parametrize(
    "cospherical, named",
    [(((1, 2, 3),), "(1, 2, 3)"), (((1,),), "(1,)"), ("12", "'12'"), ((1, 2), "1"),
     (None, "None")],
)
def test_malformed_cospherical_entry_rejected(cospherical, named):
    # each entry is a (degree, count) pair; anything else is refused by name,
    # not left to fail unpacking it; (1, 2) lacks its nesting
    with pytest.raises(UnsupportedInputError,
                       match=rf"^co-spherical (entry|degrees) {re.escape(named)} must be a"):
        ManifoldDescriptor(3, True, False, cospherical)


def test_repeated_cospherical_degree_rejected():
    # 1:2,1:3 would split the five degree-1 cycles into two gamma ranks
    with pytest.raises(UnsupportedInputError, match="co-spherical degree 1 is listed twice"):
        ManifoldDescriptor(3, True, True, ((1, 2), (2, 1), (1, 3)))


@pytest.mark.parametrize(
    "name,fname",
    [
        ("T2", "manifold_T2.json"),
        ("Sigma_g:2", "manifold_Sigma_2.json"),
        ("Sigma_g:3", "manifold_Sigma_3.json"),
        ("S2", "manifold_S2.json"),
        ("S3", "manifold_S3.json"),
        ("S1", "manifold_S1.json"),
        ("T3", "manifold_T3.json"),
        ("Rq:2", "manifold_Rq_2.json"),
        ("Rq:3", "manifold_Rq_3.json"),
    ],
)
def test_golden_reports(name, fname):
    got = canonical_json(_doc(preset(name))) + "\n"
    assert got == (GOLDEN / fname).read_text()


def test_t2_table_values():
    records = report(preset("T2"))
    by_method = {}
    for r in records:
        by_method.setdefault(r["method"], []).append(r)
    alphas = by_method["fiber_integration"]
    assert [r["degree"] for r in alphas] == [3, 3]
    assert all(r["detection_rank"] == 2 and r["survives_to_BDiff_delta"] == "yes"
               for r in alphas)
    gammas = by_method["cycle_integration"]
    assert len(gammas) == 4
    assert all(
        r["degree"] == 4 and r["detection_rank"] == 4
        and r["survives_to_BDiff_delta"] == "killed"
        for r in gammas
    )
    betas = by_method["section_pullback"]
    assert [r["degree"] for r in betas] == [5, 5]
    gvs = by_method["gv_total"]
    assert all(r["degree"] == 5 and r["target"] == "MDiff_delta" for r in gvs)


def test_sigma_g_rank_4g():
    for g in (2, 3):
        records = report(preset(f"Sigma_g:{g}"))
        gammas = [r for r in records if r["method"] == "cycle_integration"]
        assert len(gammas) == 4 * g
        assert all(r["detection_rank"] == 4 * g for r in gammas)
        # no section pullbacks: Sigma_g is not parallelizable
        assert not any(r["method"] == "section_pullback" for r in records)


def test_s2_report():
    records = report(preset("S2"))
    methods = {r["method"] for r in records}
    assert methods == {"gv_total", "fiber_integration"}
    alphas = [r for r in records if r["method"] == "fiber_integration"]
    assert [(r["degree"], r["detection_rank"]) for r in alphas] == [(3, 2), (3, 2)]


def test_s3_report():
    records = report(preset("S3"))
    degrees = sorted({(r["method"], r["degree"], r["detection_rank"]) for r in records})
    assert ("fiber_integration", 4, 3) in degrees
    assert ("section_pullback", 7, 3) in degrees
    assert ("braced", 10, 3) in degrees


def test_t3_reader_exercise_records():
    records = report(preset("T3"))
    extras = [r for r in records if "note" in r]
    assert extras
    assert {r["note"] for r in extras} == {"reader-exercise"}
    assert {r["degree"] for r in extras} == {8, 9}
    assert all(r["method"] == "cycle_integration" for r in extras)


def test_rq_loop_family_only():
    records = report(preset("Rq:2"))
    assert records
    assert all(r["method"] == "loop_family" for r in records)
    assert not any(r["method"] == "section_pullback" for r in records)


@pytest.mark.parametrize("q", range(2, 7))
def test_rq_loop_coefficients_past_t_q_plus_1_are_lower_bounds(q):
    # the Rq:q model is built to cap 2q+2, certified through degree 2q+1, and
    # the coefficient of t^k reads generators up to degree k+q; a model to cap
    # 3q+3 certifies every published degree, through t^(2q+2)
    from veycalc import minimal_model

    cap = 2 * q + 2
    published = [0] * (cap + 1)
    for r in report(preset(f"Rq:{q}")):
        published[r["degree"]] = r["detection_rank"]
    deeper = minimal_model.build_model(q, 3 * q + 3)
    certified = minimal_model.loop_poincare(minimal_model.rank_table(deeper), q, cap)
    assert published[1 : q + 2] == certified[1 : q + 2]
    assert all(p <= c for p, c in zip(published[q + 2 :], certified[q + 2 :]))


def test_degree_consistency():
    for name in ("T2", "S2", "Sigma_g:2", "S3", "T3"):
        d = preset(name)
        q = d.q
        for r in report(d):
            if r["method"] == "fiber_integration":
                assert r["degree"] == (2 * q + 1) - q
            if r["method"] == "gv_total" or r["method"] == "section_pullback":
                assert r["degree"] == 2 * q + 1


def test_monotonicity_in_cosphericals():
    base = ManifoldDescriptor(2, True, True, ((1, 1),))
    more = ManifoldDescriptor(2, True, True, ((1, 2),))
    r1 = report(base)
    r2 = report(more)
    assert len(r2) > len(r1)
    non_cycle = lambda rs: sorted(
        (r["name"], r["degree"]) for r in rs if r["method"] != "cycle_integration"
    )
    assert non_cycle(r1) == non_cycle(r2)


def test_report_is_pure():
    d = preset("T3")
    assert report(d) == report(d)


def test_a_descriptor_keeps_what_its_constructor_checked():
    # the descriptor stores its own tuples, so editing the caller's list
    # afterwards changes neither the descriptor nor its report
    cospherical = [[1, 2]]
    d = ManifoldDescriptor(3, True, True, cospherical)
    cospherical[0][0] = 7
    cospherical.append([2, 1])
    assert d.cospherical_degrees == ((1, 2),)
    assert {r["degree"] for r in report(d) if r["method"] == "cycle_integration"} == {6, 9}
    for field in d._fields:
        with pytest.raises(AttributeError):
            setattr(d, field, 0)
    assert d == ManifoldDescriptor(3, True, True, ((1, 2),))


@pytest.mark.parametrize("name", ["S1", "S2", "T2", "S3", "T3", "Sigma_g:2", "Rq:3"])
def test_a_preset_is_a_value(name):
    assert preset(name) == preset(name)
    assert hash(preset(name)) == hash(preset(name))
    assert ManifoldDescriptor(*preset(name)) == preset(name)


def test_unknown_preset():
    with pytest.raises(UnsupportedInputError):
        preset("Klein")


COSPHERICAL_LISTS = [(), ((1, 1),), ((1, 2),), ((1, 4),), ((2, 1),), ((1, 3), (2, 3)),
                     ((1, 3),), ((3, 1), (1, 1)), ((2, 3), (3, 1)), ((2, 2), (4, 1))]


def _descriptors():
    for q in range(1, 7):
        for compact, parallelizable, trivialized in itertools.product((False, True), repeat=3):
            for cospherical in COSPHERICAL_LISTS:
                if all(k < q for k, _ in cospherical):
                    yield ManifoldDescriptor(q, compact, parallelizable, cospherical, trivialized)


@pytest.mark.parametrize("q", range(1, 9))
def test_braced_records_exactly_when_kappa_is_positive(q):
    # a global section braces once a Pontrjagin class is usable for bracing
    records = report(ManifoldDescriptor(q, True, True))
    assert any(r["method"] == "braced" for r in records) == (vey.kappa(q) >= 1)


def test_inventory_follows_the_rules():
    descriptors = list(_descriptors())
    assert len(descriptors) == 336
    for d in descriptors:
        q = d.q
        records = report(d)
        names = [r["name"] for r in records]
        assert len(set(names)) == len(names)
        assert records == sorted(records, key=lambda r: (r["degree"], r["method"], r["name"]))
        if not d.compact and d.parallelizable:
            assert {r["method"] for r in records} == {"loop_family"}
            continue
        counts = dict.fromkeys(METHODS, 0)
        for r in records:
            if r.get("note") != "reader-exercise":
                counts[r["method"]] += 1
        # one class per variable class in each family over them; a global
        # section needs a compact parallelizable manifold, and integration
        # over a lower co-spherical cycle needs the tangent bundle trivial
        # over the cycles; braced classes are the extended classes above
        # degree 2q+1
        vq = vey.v_count(q)
        section = d.compact and d.parallelizable
        framed = d.parallelizable or d.trivialized_over_cycles
        _, by_degree = vey.extended_basis(q)
        braced = sum(n for deg, n in by_degree.items() if deg > 2 * q + 1)
        assert counts == {
            "gv_total": vq,
            "fiber_integration": vq,
            "section_pullback": vq if section else 0,
            "cycle_integration": sum(c for _, c in d.cospherical_degrees) * vq if framed else 0,
            "braced": braced if section and q >= 3 else 0,
            "loop_family": 0,
        }, d.to_json_obj()
