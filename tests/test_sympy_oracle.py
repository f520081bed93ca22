"""An exact oracle independent of `veycalc.linalg`: sympy's sparse
`DomainMatrix` (the SDM format) over QQ, which shares no code with `Echelon`.

dim H^n = dim C^n - rank d_n - rank d_(n-1), from sympy's rank of every
differential, must agree with the elimination in `complexes.cohomology` and
with the quasi-isomorphism check of a minimal model.
"""

import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.sdm import SDM

from veycalc import complexes, gca, minimal_model


def _rank(entries, shape) -> int:
    """Rank of the matrix with these distinct, nonzero (row, column, value) entries."""
    rows: dict[int, dict[int, object]] = {}
    for r, c, x in entries:
        rows.setdefault(r, {})[c] = QQ(x.numerator, x.denominator)
    return DomainMatrix.from_rep(SDM(rows, shape, QQ)).rank()


@pytest.mark.parametrize("q, kind", [(8, "W"), (12, "WO")])
def test_cohomology_dims_match_sympy_ranks(q, kind):
    cx = complexes.build_complex(q, kind)
    ranks = {
        n: _rank(cx.diff.get(n, []), (len(cx.basis(n + 1)), len(basis)))
        for n, basis in cx.bases.items()
    }
    dims = {n: len(basis) - ranks[n] - ranks.get(n - 1, 0) for n, basis in cx.bases.items()}
    assert {n: d for n, d in dims.items() if d} == complexes.cohomology(cx).dims


def test_model_quasi_iso_check_matches_sympy_ranks():
    q, cap = 2, 22
    model = minimal_model.build_model(q, cap)
    alg = model.algebra

    def rank_d(n):
        source, target = alg.basis(n), alg.basis(n + 1)
        index = {w: i for i, w in enumerate(target)}
        entries = [
            (index[image], j, c)
            for j, w in enumerate(source)
            for image, c in alg.differential({w: 1}).items()
        ]
        return _rank(entries, (len(target), len(source)))

    ranks = {n: rank_d(n) for n in range(1, cap)}
    sig = gca.AlgebraSignature.I(q)
    assert sorted(model.quasi_iso_check) == list(range(2, cap))
    for n in model.quasi_iso_check:
        dim_h = len(alg.basis(n)) - ranks[n] - ranks[n - 1]
        assert dim_h == len(gca.basis_of_degree(sig, n)), n
    assert all(model.quasi_iso_check.values())
