"""One planted-defect matrix: which runtime check of a CLI job catches which defect.

Each row plants one defect in the library in-process, runs one job through
`cli.run` with `--no-cache`, and asserts what the named runtime check does
with it; the row's id is `<check>-<defect>`.  A check that raises lets the
job's `AssertionError` out of `run`.  Two checks do not raise: the model's
`quasi_iso_check` marks a degree false and `model` still prints its document
with exit 0, and `validate` reports `"ok": false` where `cohomology`, whose
Euler check counts per index weight, answers with exit 0.  Those rows record
today's behaviour.

The plantings are those of the planted-defect tests in `test_morse.py`,
`test_minimal_model.py` and `test_vey.py`, run here on the CLI path.
"""

import json

import pytest

from veycalc import cli, complexes, gca, linalg, minimal_model
from veycalc.minimal_model import FreeAlgebra


def _flip_the_second_term_of_d(patch):
    real = gca.d_terms

    def flipped(m, bound):
        for k, (sign, term) in enumerate(real(m, bound)):
            yield (-sign if k == 1 else sign), term

    patch.setattr(gca, "d_terms", flipped)


def _shift_the_weight_window(off):
    def plant(patch):
        real = gca.is_critical
        patch.setattr(gca, "is_critical", lambda q, odd, i1, c: real(q + off, odd, i1, c))

    return plant


def _drop_the_y_index_rule(patch):
    # with no y-index below i_1, every c-part in the weight window is allowed
    real = gca.is_critical
    patch.setattr(gca, "is_critical", lambda q, odd, i1, c: real(q, (), i1, c))


def _add_a_second_upper_term(q, kind):
    # each lower cell's d gains an upper cell other than its partner
    def plant(patch):
        cx = complexes.build_complex(q, kind)
        odd, real = tuple(cx.odd_indices), gca.d_terms
        uppers = {n: [m for m in basis if complexes._cell(m, n, odd, q)[0] == "upper"]
                  for n, basis in gca.iter_basis(cx)}

        def planted(m, bound):
            terms = list(real(m, bound))
            n = m.degree()
            if complexes._cell(m, n, odd, bound)[0] == "lower":
                terms += [(1, u) for u in uppers.get(n + 1, []) if u != terms[0][1]][:1]
            return iter(terms)

        patch.setattr(gca, "d_terms", planted)

    return plant


def _drop_a_word(patch):
    # 1 of the 4 degree-8 words of the model of I_3
    real = FreeAlgebra.basis
    patch.setattr(FreeAlgebra, "basis",
                  lambda self, degree: real(self, degree)[: -1 if degree == 8 else None])


def _lose_a_coboundary(patch):
    # one row of im d_11 dropped as the top stage of I_4 to degree 12 receives it
    real, calls = linalg.cohomology, []
    patch.setattr(linalg, "cohomology", lambda k, im: calls.append(1) or real(k, im))
    minimal_model.build_model(4, 12)
    last, calls[:] = len(calls), []  # the top stage makes the last call

    def dropping(kernel, coboundaries):
        calls.append(1)
        if len(calls) == last:
            coboundaries.rows.pop(max(coboundaries.rows))
        return real(kernel, coboundaries)

    patch.setattr(linalg, "cohomology", dropping)


def _drop_a_c_part(patch):
    # c_3, the last c-part of I_3^6
    real = gca.c_parts
    patch.setattr(gca, "c_parts",
                  lambda q, w: real(q, w)[:-1] if (q, w) == (3, 3) else real(q, w))


def _drop_an_even_and_an_odd_cell(patch):
    # y1y2c3 (degree 10) and y3c3 (degree 11) of W_3, both of index weight 6
    real = gca.critical_groups
    dropped = {((1, 2), (0, 0, 1)), ((3,), (0, 0, 1))}

    def dropping(sig, degree=None):
        groups = ((n, ys, w, tuple(c for c in cs if (ys, c) not in dropped))
                  for n, ys, w, cs in real(sig, degree))
        return [g for g in groups if g[3]]

    patch.setattr(gca, "critical_groups", dropping)


# (check, defect, planting, job, the AssertionError's message)
RAISED = [
    ("walk-d-squared", "sign-flip-in-d", _flip_the_second_term_of_d,
     "validate --complex W --q 3", r"^d\(d\(y1y[23]\)\) has the term 2 c1c[23]$"),
    ("cohomology-euler", "window-shifted-up", _shift_the_weight_window(1),
     "cohomology --complex WO --q 1", r"misses the Euler characteristic at N = "),
    ("cohomology-cocycle", "window-shifted-down", _shift_the_weight_window(-1),
     "cohomology --complex W --q 3", r"^the representative \S+ has d != 0$"),
    ("cohomology-euler", "y-index-rule-dropped", _drop_the_y_index_rule,
     "cohomology --complex W --q 3", r"misses the Euler characteristic at N = "),
    ("walk-second-upper-cell", "second-upper-term-in-d", _add_a_second_upper_term(4, "W"),
     "validate --complex W --q 4", r"has a second upper cell"),
    ("model-word-count", "word-dropped-from-basis", _drop_a_word,
     "model --q 3 --max-degree 12", r"^degree 8 lists 3 words, not 4"),
]


@pytest.mark.parametrize("plant, job, message", [row[2:] for row in RAISED],
                         ids=[f"{check}-{defect}" for check, defect, *_ in RAISED])
def test_the_check_raises(monkeypatch, capsys, plant, job, message):
    plant(monkeypatch)
    with pytest.raises(AssertionError, match=message):
        cli.run(job.split() + ["--no-cache"])
    assert capsys.readouterr().out == ""


# (check, defect, planting, job, the degrees the check marks false)
REPORTED = [
    ("model-quasi-iso-check", "coboundary-lost", _lose_a_coboundary,
     "model --q 4 --max-degree 12", ["11"]),
    ("model-quasi-iso-check", "c-part-dropped", _drop_a_c_part,
     "model --q 3 --max-degree 10", ["6"]),
    ("validate-walk-against-enumerator", "even-and-odd-cell-dropped",
     _drop_an_even_and_an_odd_cell, "validate --complex W --q 3", [10, 11]),
]


@pytest.mark.parametrize("plant, job, failed", [row[2:] for row in REPORTED],
                         ids=[f"{check}-{defect}" for check, defect, *_ in REPORTED])
def test_the_check_reports_false_and_the_job_exits_0(monkeypatch, capsys, plant, job, failed):
    plant(monkeypatch)
    assert cli.run(job.split() + ["--format", "json", "--no-cache"]) == 0
    doc = json.loads(capsys.readouterr().out)
    if job.startswith("model"):
        assert [n for n, ok in doc["quasi_iso_check"].items() if not ok] == failed
    else:
        assert doc["ok"] is False
        assert [c["degree"] for c in doc["per_degree"] if not c["independent"]] == failed


def test_cohomology_euler_misses_an_even_and_an_odd_cell_of_one_index_weight(
        monkeypatch, capsys):
    # the pair leaves each index weight's Euler characteristic as it was, so
    # `cohomology` answers, one class short in degrees 10 and 11; only validate
    # (above) sees it
    assert cli.run(["cohomology", "--complex", "W", "--q", "3", "--format", "json",
                    "--no-cache"]) == 0
    dims = json.loads(capsys.readouterr().out)["dims"]
    _drop_an_even_and_an_odd_cell(monkeypatch)
    assert cli.run(["cohomology", "--complex", "W", "--q", "3", "--format", "json",
                    "--no-cache"]) == 0
    planted = json.loads(capsys.readouterr().out)["dims"]
    assert {n: dims[n] - planted.get(n, 0) for n in dims if dims[n] != planted.get(n, 0)} == {
        "10": 1, "11": 1}
