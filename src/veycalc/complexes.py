"""Finite cochain complexes W_q, WO_q, I_q and their exact cohomology.

A complex is its monomial bases from :mod:`veycalc.gca`; its differential, as
triplet lists with coefficients +-1, is assembled from ``gca.d_terms`` on
first read.  Cohomology is one walk (:func:`critical_cells`) of the
least-index algebraic Morse matching (Forman, Adv. Math. 134, 1998;
Skoldberg, Trans. AMS 358, 2006), checked against ``gca.d_terms`` cell by
cell, whose critical cells are a basis of H^n.  Nothing here eliminates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple

from . import gca
from .errors import DEFAULT_Q_CAP, KINDS, ResourceBudgetError  # re-exported
from .gca import AlgebraSignature, Coeff, Element, Monomial

if TYPE_CHECKING:  # annotations only: a cohomology job never loads linalg
    from . import linalg


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
    __slots__ = ("signature", "kind", "bases", "_diff", "_indices")

    def __init__(self, signature: AlgebraSignature, kind: str, bases: dict[int, list[Monomial]],
                 diff: dict[int, list[Triplet]] | None = None) -> None:
        self.signature = signature
        self.kind = kind
        self.bases = bases
        self._diff = diff
        self._indices: dict[int, dict[Monomial, int]] = {}

    @property
    def diff(self) -> dict[int, list[Triplet]]:
        """Degree n -> the triplets (row, column, sign) of d: C^n -> C^(n+1),
        assembled from gca.d_terms on first read, each column in row order."""
        if self._diff is None:
            self._diff = {}
            for n, basis in self.bases.items():
                target, triplets = self.index(n + 1), []
                for col, m in enumerate(basis):
                    triplets += sorted((target[t], col, sign) for sign, t in gca.d_terms(m, self.q))
                if triplets:
                    self._diff[n] = triplets
        return self._diff

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


def build_complex(q: int, kind: str) -> GradedComplex:
    """The complex with its per-degree bases, for any q; d is assembled on first read."""
    sig = signature_for(q, kind)
    return GradedComplex(sig, kind, {n: basis for n, basis in gca.iter_basis(sig) if basis})


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


def _cell(cell: Monomial, n: int, odd: tuple[int, ...], bound: int) -> tuple[str, Monomial | None]:
    """("lower" or "upper", its partner) or ("critical", None) for a cell y_I c_J of
    degree n, over the sorted y-indices odd.  With m the least of I and of the
    parts of J in odd, it is lower if m = i_1 and weight + m <= bound, paired
    with y_(I - m) c_(J + m), and upper if m is a part of J below i_1."""
    ys, cs = cell
    for m in odd:
        if ys and m == ys[0]:
            if (n - 2 * sum(ys) + len(ys)) // 2 + m > bound:  # c_J has degree 2 weight
                return "critical", None
            return "lower", Monomial(ys[1:], cs[: m - 1] + (cs[m - 1] + 1,) + cs[m:])
        if cs[m - 1]:
            return "upper", Monomial((m,) + ys, cs[: m - 1] + (cs[m - 1] - 1,) + cs[m:])
    return "critical", None


def critical_cells(cx: GradedComplex) -> Iterator[tuple[int, list[Monomial]]]:
    """(n, the critical cells of degree n in basis order) for n upward, each yielded
    after every cell of degree n is checked against gca.d_terms, or else raising
    AssertionError: a lower cell's d starts with (1, its partner), a critical
    cell's d is 0, and the upper cells are the partners of the lower cells one
    degree down.  Gradient paths have length 1, so these cells are a basis of H^n."""
    q, odd = cx.q, tuple(sorted(cx.signature.odd_indices))
    partners: set[Monomial] = set()  # of the lower cells one degree down
    for n in range(cx.top_degree + 1):
        critical, claimed, lowers, uppers = [], set(), 0, set()
        for cell in cx.basis(n):
            kind, partner = _cell(cell, n, odd, q)
            if kind == "upper":
                uppers.add(cell)
                continue
            first = next(gca.d_terms(cell, q), None)
            if kind == "lower":
                if first != (1, partner):
                    raise AssertionError(f"d({cell.label()}) does not start with {partner.label()}")
                lowers += 1
                claimed.add(partner)
            elif first is not None:
                raise AssertionError(f"critical cell {cell.label()} has d != 0")
            else:
                critical.append(cell)
        if uppers != partners or lowers != len(claimed):
            raise AssertionError(f"the matching is no bijection at degree {n}")
        partners = claimed
        yield n, critical
    if partners:
        raise AssertionError("a lower cell of the top degree has a partner")


def critical_class(cx: GradedComplex, n: int, terms: Mapping[Monomial, Coeff]) -> dict:
    """{critical cell: coefficient}, the class of a degree-n cocycle: a critical
    cell maps to itself and an upper cell u to minus the rest of d(l) = u + rest
    for its lower partner l; lower cells must cancel, or ValueError is raised."""
    q, odd = cx.q, tuple(sorted(cx.signature.odd_indices))
    out: dict[Monomial, Coeff] = {}
    for cell, x in terms.items():
        kind, partner = _cell(cell, n, odd, q)
        if kind != "upper":
            out[cell] = out.get(cell, 0) + x
            continue
        d_l = gca.d_terms(partner, q)
        if next(d_l, None) != (1, cell):
            raise AssertionError(f"d({partner.label()}) does not start with {cell.label()}")
        for sign, term in d_l:
            if _cell(term, n, odd, q)[0] == "upper":
                raise AssertionError(f"d({partner.label()}) has a second upper cell {term.label()}")
            out[term] = out.get(term, 0) - sign * x
    out = {cell: x for cell, x in out.items() if x}
    for cell in out:
        if _cell(cell, n, odd, q)[0] == "lower":
            raise ValueError(f"not a cocycle: the lower cell {cell.label()} does not cancel")
    return out


def cohomology(cx: GradedComplex) -> CohomologyResult:
    """H^n with the critical cells of degree n, in basis order, as its representatives."""
    reps = {n: [Element(cx.signature, {m: 1}) for m in ms] for n, ms in critical_cells(cx) if ms}
    dims = {n: len(r) for n, r in reps.items()}
    return CohomologyResult(cx.kind, cx.q, dims, reps, sum(dims.values()))


def is_cocycle(cx: GradedComplex, a: Element) -> bool:
    if a.is_zero():
        return True
    if not a.is_homogeneous():
        raise ValueError("input must be homogeneous")
    return gca.differential(a).is_zero()


def is_coboundary(cx: GradedComplex, a: Element) -> bool:
    """True iff a is a cocycle whose class over the critical cells is empty."""
    if not is_cocycle(cx, a):
        return False
    return a.is_zero() or not critical_class(cx, a.degree(), a.terms)
