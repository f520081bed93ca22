"""Finite cochain complexes W_q, WO_q, I_q and their exact cohomology.

The complexes are assembled degree by degree from the monomial bases of
:mod:`veycalc.gca`; assembly reads d from ``gca.d_terms``, and differentials
are sparse triplet lists with coefficients +-1.  Cohomology, by elimination
over Q with each differential eliminated once (:func:`passes`), is the
brute-force oracle for the basis enumeration.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from . import gca, linalg
from .errors import DEFAULT_Q_CAP, KINDS, ResourceBudgetError
from .gca import AlgebraSignature, Element, Monomial


def signature_for(q: int, kind: str) -> AlgebraSignature:
    if kind == "W":
        return AlgebraSignature.W(q)
    if kind == "WO":
        return AlgebraSignature.WO(q)
    if kind == "I":
        return AlgebraSignature.I(q)
    raise ValueError(f"unknown complex kind {kind!r}")


def dimension_estimate(q: int, kind: str) -> int:
    """Total monomial count in closed form: every y-subset times every c_J."""
    return 2 ** len(signature_for(q, kind).odd_indices) * sum(gca.c_series(q))


Triplet = tuple[int, int, int]


class GradedComplex:
    __slots__ = ("signature", "kind", "bases", "diff", "_indices")

    def __init__(self, signature: AlgebraSignature, kind: str,
                 bases: dict[int, list[Monomial]], diff: dict[int, list[Triplet]]) -> None:
        self.signature = signature
        self.kind = kind
        self.bases = bases
        self.diff = diff  # degree n -> triplets of d: C^n -> C^(n+1)
        self._indices: dict[int, dict[Monomial, int]] = {}

    @property
    def q(self) -> int:
        return self.signature.q

    @property
    def top_degree(self) -> int:
        return gca.top_degree(self.signature)

    def basis(self, n: int) -> list[Monomial]:
        return self.bases.get(n, [])

    def diff_matrix(self, n: int) -> linalg.Matrix:
        """Dense matrix of d: C^n -> C^(n+1), rows indexed by the degree-(n+1) basis."""
        from fractions import Fraction

        rows = len(self.basis(n + 1))
        cols = len(self.basis(n))
        m = [[Fraction(0)] * cols for _ in range(rows)]
        for r, c, v in self.diff.get(n, []):
            m[r][c] += v
        return m

    def index(self, n: int) -> dict[Monomial, int]:
        """Position of each monomial in the degree-n basis, built once per degree."""
        index = self._indices.get(n)
        if index is None:
            index = self._indices[n] = {m: i for i, m in enumerate(self.basis(n))}
        return index

    def element_vector(self, a: Element, n: int) -> linalg.SparseRow:
        index = self.index(n)
        for m in a.terms:
            if m not in index:
                raise ValueError(f"monomial {m.label()} not in the degree-{n} basis")
        return {index[m]: coeff for m, coeff in a.terms.items()}


def check_q_cap(q: int, kind: str, q_cap: int = DEFAULT_Q_CAP) -> None:
    """Refuse a q that is not positive or is over the cap, before any work."""
    if q < 1:
        raise ValueError("q must be positive")
    if q > q_cap:
        raise ResourceBudgetError(
            f"{kind}_{q} exceeds the configured cap q <= {q_cap}",
            estimate=dimension_estimate(q, kind),
        )


def build_complex(q: int, kind: str, q_cap: int = DEFAULT_Q_CAP) -> GradedComplex:
    """Assemble the full complex with per-degree bases and differentials."""
    check_q_cap(q, kind, q_cap)
    sig = signature_for(q, kind)
    bases: dict[int, list[Monomial]] = {}
    for n, basis in gca.iter_basis(sig):
        if basis:
            bases[n] = basis
    cx = GradedComplex(sig, kind, bases, {})
    for n, basis in bases.items():
        target = cx.index(n + 1)
        triplets: list[Triplet] = []
        for col, m in enumerate(basis):
            column = [(target[mm], col, sign) for sign, mm in gca.d_terms(m, sig.q)]
            column.sort()  # by row, the canonical order of the target monomials
            triplets += column
        if triplets:
            cx.diff[n] = triplets
    return cx


class CohomologyResult(NamedTuple):
    kind: str
    q: int
    dims: dict[int, int]
    representatives: dict[int, list[Element]]
    total_dim_check: int = 0

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "q": self.q,
            "dims": {str(n): d for n, d in sorted(self.dims.items())},
            "representatives": {
                str(n): [e.to_json_obj() for e in reps]
                for n, reps in sorted(self.representatives.items())
            },
            "total_dim_check": self.total_dim_check,
        }


def _columns(cx: GradedComplex, n: int) -> list[linalg.SparseRow]:
    """Columns of d_n: the image of each basis element of C^n, as a sparse vector."""
    cols: list[linalg.SparseRow] = [{} for _ in cx.basis(n)]
    for r, c, v in cx.diff.get(n, []):
        cols[c][r] = v
    return cols


def passes(cx: GradedComplex) -> Iterator[tuple[int, list[linalg.SparseRow], linalg.Echelon]]:
    """(n, ker d_n, the echelon of im d_(n-1)) for n upward: the image echelon
    of degree n's column pass is degree n+1's coboundary echelon."""
    coboundaries = linalg.Echelon()
    for n in range(cx.top_degree + 1):
        kernel, image = linalg.column_pass(_columns(cx, n))
        yield n, kernel, coboundaries
        coboundaries = image


def cohomology(cx: GradedComplex) -> CohomologyResult:
    """H^n = ker d_n / im d_(n-1) with deterministic representatives."""
    dims: dict[int, int] = {}
    reps: dict[int, list[Element]] = {}
    for n, kernel, coboundaries in passes(cx):
        chosen = linalg.cohomology(kernel, coboundaries)
        if chosen:
            dims[n] = len(chosen)
            basis = cx.basis(n)
            reps[n] = [Element(cx.signature, {basis[j]: x for j, x in v.items()}) for v in chosen]
    return CohomologyResult(cx.kind, cx.q, dims, reps, sum(dims.values()))


def is_cocycle(cx: GradedComplex, a: Element) -> bool:
    if a.is_zero():
        return True
    if not a.is_homogeneous():
        raise ValueError("input must be homogeneous")
    return gca.differential(a).is_zero()


def is_coboundary(cx: GradedComplex, a: Element) -> bool:
    if a.is_zero():
        return True
    if not a.is_homogeneous():
        raise ValueError("input must be homogeneous")
    n = a.degree()
    return not linalg.Echelon(_columns(cx, n - 1)).reduce(cx.element_vector(a, n))
