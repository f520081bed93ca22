"""Acceptance gate: one test per criterion, reported in the terminal summary.

Each test states its tolerance (exact arithmetic throughout — coefficients
are rationals, counts are integers) and asserts its runtime budget where the
criterion specifies one.
"""

import json
import pathlib
import random
import time
from fractions import Fraction

import elimination
from veycalc import cli, complexes, gca, minimal_model, vey
from veycalc.cache import canonical_json
from veycalc.gca import AlgebraSignature, Element, Monomial

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _labels(cells):
    """The labels of critical cells, each a Monomial: a class is its cell."""
    assert all(type(m) is Monomial for m in cells)
    return [m.label() for m in cells]


def test_criterion_01_oracle_q1():
    """cohomology(W_1) = {0:1, 3:1} with degree-3 representative y1c1; < 1 s."""
    start = time.monotonic()
    h = complexes.cohomology(complexes.build_complex(1, "W"))
    elapsed = time.monotonic() - start
    assert h.dims == {0: 1, 3: 1}
    assert _labels(h.representatives[3]) == ["y1c1"]
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s over the 1 s budget"


def test_criterion_02_oracle_q2():
    """WO_2 dims >4 = {5:2} spanning <y1c1^2, y1c2>; W_2 = {5:2, 7:1} with
    degree-7 class y2c2; degree-8 oracle result flagged in the validation
    report; < 5 s."""
    start = time.monotonic()
    hwo = complexes.cohomology(complexes.build_complex(2, "WO"))
    assert {n: d for n, d in hwo.dims.items() if n > 4} == {5: 2}
    assert _labels(hwo.representatives[5]) == ["y1c1^2", "y1c2"]

    hw = complexes.cohomology(complexes.build_complex(2, "W"))
    assert hw.dims[5] == 2 and hw.dims[7] == 1
    assert _labels(hw.representatives[7]) == ["y2c2"]
    # degree 8 is whatever the oracle computes (hand computation: 2) ...
    assert hw.dims.get(8, 0) == 2
    # ... and the validation report must flag and document it
    report = vey.validate_vey(2, "W")
    deg8 = next(c for c in report["per_degree"] if c["degree"] == 8)
    assert any("classical generator tables" in n for n in deg8["notes"])
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s over the 5 s budget"


def test_criterion_03_oracle_q3():
    """WO_3 degree-7 dim = 3 spanned by {y1c1^3, y1c1c2, y1c3}; the three
    braced classes are independent cocycle classes in degree 10 of W_3; < 60 s."""
    start = time.monotonic()
    hwo = complexes.cohomology(complexes.build_complex(3, "WO"))
    assert hwo.dims[7] == 3
    assert _labels(hwo.representatives[7]) == ["y1c1^3", "y1c1c2", "y1c3"]

    cx = complexes.build_complex(3, "W")
    braced = [m for d, m in vey.extended_basis(3)[0] if d == 10]
    assert [m.label() for m in braced] == ["y1y2c1^3", "y1y2c1c2", "y1y2c3"]
    for m in braced:
        assert complexes.is_cocycle(cx, Element(cx, {m: 1}))
    # independence modulo coboundaries, by exact rank computation
    from veycalc import linalg

    basis10 = cx.basis(10)
    d9 = cx.diff_matrix(9)
    image = [
        [d9[r][c] for r in range(len(basis10))] for c in range(len(cx.basis(9)))
    ]
    image = [row for row in image if any(x != 0 for x in row)]
    vecs = [
        linalg.dense(
            elimination.element_vector(cx, Element(cx, {m: 1}), 10), len(basis10)
        )
        for m in braced
    ]
    assert linalg.rank(image + vecs) == linalg.rank(image) + 3
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s over the 60 s budget"


def test_criterion_04_vey_cross_validation():
    """validate_vey: independence in every degree for q in {1,2,3}, both
    kinds; enumerated counts equal oracle dims in all degrees > 2q. Exact."""
    for q in (1, 2, 3):
        for kind in ("W", "WO"):
            report = vey.validate_vey(q, kind)
            assert report["ok"], (q, kind)
            for check in report["per_degree"]:
                assert check["independent"], (q, kind, check["degree"])
                if check["degree"] > 2 * q:
                    assert check["enumerated"] == check["oracle_dim"], (q, kind, check["degree"])


def test_criterion_05_counts():
    """v_1=1, v_2=2, v_3=3; kappa_3=1, kappa_7=2; v-hat_{3,10}=3. Exact."""
    assert [vey.v_count(q) for q in (1, 2, 3)] == [1, 2, 3]
    assert vey.kappa(3) == 1
    assert vey.kappa(7) == 2
    assert vey.extended_count(3, 10) == 3


def test_criterion_06_property_suites():
    """Randomized properties, >= 1000 cases per signature for q <= 4:
    d^2 = 0, graded commutativity, Leibniz, generating-function basis
    counts. Exact arithmetic; zero failures tolerated."""
    rng = random.Random(20260823)
    signatures = [
        AlgebraSignature(q, kind)
        for q in range(1, 5)
        for kind in ("W", "WO", "I")
    ]
    for sig in signatures:
        per_degree = {n: b for n, b in gca.iter_basis(sig) if b}
        monomials = [m for b in per_degree.values() for m in b]
        series = gca.basis_dimension_series(sig)
        # basis counts vs the independent generating-function oracle
        for n in range(len(series)):
            assert len(per_degree.get(n, [])) == series[n], (sig, n)

        def random_element():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                m = rng.choice(monomials)
                terms[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            return Element(sig, terms)

        for case in range(1000):
            a = random_element()
            b = random_element()
            # d^2 = 0
            assert gca.differential(gca.differential(a)).is_zero()
            # graded commutativity on the homogeneous pieces
            ma = rng.choice(monomials)
            mb = rng.choice(monomials)
            ea, eb = Element(sig, {ma: 1}), Element(sig, {mb: 1})
            sign = (-1) ** (ma.degree() * mb.degree())
            assert ea * eb == (eb * ea).scale(sign)
            # Leibniz: d(ea * b) = d(ea) b + (-1)^|ea| ea d(b)
            lhs = gca.differential(ea * b)
            rhs = gca.differential(ea) * b + (ea * gca.differential(b)).scale(
                (-1) ** ma.degree()
            )
            assert lhs == rhs


def test_criterion_07_minimal_model():
    """build_model(1,8) ranks {2:1,3:1}; build_model(2,8) quasi-iso with
    rank(5)=2; build_model(3,10) quasi-iso; ranks(4k+1) > 0 for q=2 within
    the cap. Total runtime < 5 min."""
    start = time.monotonic()
    m1 = minimal_model.build_model(1, 8)
    assert minimal_model.rank_table(m1) == {2: 1, 3: 1}
    assert all(m1.quasi_iso_check.values())

    m2 = minimal_model.build_model(2, 8)
    assert all(m2.quasi_iso_check.values())
    assert minimal_model.rank_table(m2)[5] == 2

    m3 = minimal_model.build_model(3, 10)
    assert all(m3.quasi_iso_check.values())

    # positivity pattern for q=2 in degrees 4k+1 within the default cap
    m2big = minimal_model.build_model(2, 12)
    ranks = minimal_model.rank_table(m2big)
    for ell in (5, 9):
        assert ranks.get(ell, 0) > 0, ell
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"runtime {elapsed:.2f}s over the 5 min budget"


def test_criterion_08_loop_series_closed_forms():
    """Single even generator -> geometric series; single odd -> 1 + t^m.
    Exact to the cap."""
    cap = 24
    for m in (2, 4, 6):
        s = minimal_model.loop_poincare({m: 1}, 0, cap)
        assert s == [1 if k % m == 0 else 0 for k in range(cap + 1)]
    for m in (3, 5, 7):
        s = minimal_model.loop_poincare({m: 1}, 0, cap)
        expected = [0] * (cap + 1)
        expected[0] = 1
        expected[m] = 1
        assert s == expected


def test_criterion_09_manifold_golden_files():
    """T2, Sigma_2, Sigma_3, S2, and the parallelizable closed 3-manifold
    preset match the stored golden reports byte-for-byte, including survival
    annotations."""
    from veycalc import manifold

    cases = [
        ("T2", "manifold_T2.json"),
        ("Sigma_g:2", "manifold_Sigma_2.json"),
        ("Sigma_g:3", "manifold_Sigma_3.json"),
        ("S2", "manifold_S2.json"),
        ("S3", "manifold_S3.json"),
    ]
    for name, fname in cases:
        d = manifold.preset(name)
        doc = {
            "descriptor": d.to_json_obj(),
            "records": manifold.report(d),
        }
        assert canonical_json(doc) + "\n" == (GOLDEN / fname).read_text(), name
    # spot-check the stated annotations
    t2 = json.loads((GOLDEN / "manifold_T2.json").read_text())
    gammas = [r for r in t2["records"] if r["method"] == "cycle_integration"]
    assert gammas and all(r["survives_to_BDiff_delta"] == "killed" for r in gammas)
    alphas = [r for r in t2["records"] if r["method"] == "fiber_integration"]
    assert alphas and all(r["survives_to_BDiff_delta"] == "yes" for r in alphas)


def test_criterion_10_cli(tmp_path, capsys):
    """JSON round-trip identity on all result types; cold vs warm cache
    byte-identical; exit codes 0/2/3 exercised."""
    cache_dir = str(tmp_path / "cache")

    def run(argv):
        code = cli.run(argv + ["--cache-dir", cache_dir])
        out = capsys.readouterr().out
        return code, out

    # exit 0 + round-trip identity on every result type
    for argv in (
        ["cohomology", "--complex", "W", "--q", "1", "--format", "json"],
        ["vey", "--q", "2", "--complex", "WO", "--format", "json"],
        ["validate", "--q", "1", "--complex", "W", "--format", "json"],
        ["model", "--q", "2", "--max-degree", "6", "--format", "json"],
        ["manifold", "--preset", "T2", "--format", "json"],
        ["kappa", "--q", "3", "--format", "json"],
    ):
        code, out = run(argv)
        assert code == 0, argv
        assert canonical_json(json.loads(out)) + "\n" == out, argv

    # cold vs warm cache: byte identical
    argv = ["cohomology", "--complex", "WO", "--q", "3", "--format", "json"]
    _, cold = run(argv)
    _, warm = run(argv)
    assert cold == warm

    # exit 2: invalid input; exit 3: resource refusal
    code, _ = run(["manifold", "--preset", "bogus"])
    assert code == 2
    code, _ = run(["cohomology", "--complex", "W", "--q", "99"])
    assert code == 3
