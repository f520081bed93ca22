"""Finite cochain complexes W_q, WO_q, I_q and their exact cohomology.

A complex is its signature: every function here takes an ``AlgebraSignature``,
and ``GradedComplex(q, kind)`` is one that adds the elimination oracle's view,
its monomial bases (``gca.iter_basis``) and its differential as triplets with
coefficients +-1 from ``gca.d_terms``, built on first read.  The least-index
algebraic Morse matching (Forman, Adv. Math. 134, 1998; Skoldberg, Trans. AMS
358, 2006) leaves critical exactly the cells that ``gca.critical_groups``
lists, a basis of H^n: :func:`cohomology` reads them there and checks that
each is a cocycle and that they have the Euler characteristic of the complex
in each index weight.  A class is its critical cell, kept as the ``Monomial``
it is; only its JSON writes it as the one-term sum of
``docs/schemas/element.json``.
:func:`critical_cells` walks the matching over every cell, checked against
``gca.d_terms`` cell by cell; it is the certificate that ``validate_vey``
compares with the enumerator.  Nothing here eliminates.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple, Sequence

from . import gca
from .gca import AlgebraSignature, Coeff, Element, Monomial

if TYPE_CHECKING:  # annotations only: a cohomology job never loads linalg
    from . import linalg


_EXACT_Q = 1000  # the largest q with an exact estimate: W_1000's has 334 digits


def dimension_estimate(q: int, kind: str) -> int | str:
    """The size of the complex, at once at any q: through q = _EXACT_Q the int
    count of its monomials in closed form, every y-subset times every c_J, and
    past it the str ">10^k" of a lower bound, 10^k <= 2^(y + m): the y-subsets
    times the c_J with distinct parts from 1..m, of weight at most m(m+1)/2 <= q."""
    odd = AlgebraSignature(q, kind).odd_indices
    y = (odd.stop - odd.start + odd.step - 1) // odd.step  # len() refuses past 2^63
    if q <= _EXACT_Q:
        return 2**y * sum(gca.c_series(q))
    m = (math.isqrt(8 * q + 1) - 1) // 2
    return f">10^{(y + m) * 30102999 // 10**8}"  # 30102999/10^8 < log10 2


Triplet = tuple[int, int, int]


class GradedComplex(AlgebraSignature):
    """The signature (q, kind), equal to AlgebraSignature(q, kind), with its
    complex's monomial bases and triplets of d, built on first read."""

    signature = property(lambda self: self)

    @cached_property
    def bases(self) -> dict[int, list[Monomial]]:
        """Degree n -> the monomial basis of C^n, for each n with C^n != 0."""
        return {n: basis for n, basis in gca.iter_basis(self) if basis}

    @cached_property
    def diff(self) -> dict[int, list[Triplet]]:
        """Degree n -> the triplets (row, column, sign) of d: C^n -> C^(n+1),
        assembled from gca.d_terms, each column in row order."""
        diff = {}
        for n, basis in self.bases.items():
            target, triplets = self.index(n + 1), []
            for col, m in enumerate(basis):
                triplets += sorted((target[t], col, sign) for sign, t in gca.d_terms(m, self.q))
            if triplets:
                diff[n] = triplets
        return diff

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
        """Position of each monomial in the degree-n basis."""
        return {m: i for i, m in enumerate(self.basis(n))}


def build_complex(q: int, kind: str) -> GradedComplex:
    """The complex of the given kind, for any q; its bases and d are built on first read."""
    return GradedComplex(q, kind)


class CohomologyResult(NamedTuple):
    kind: str
    q: int
    representatives: dict[int, list[Monomial]]  # the critical cells, which fix the dims

    dims = property(lambda self: {n: len(r) for n, r in self.representatives.items()})
    total_dim_check = property(lambda self: sum(map(len, self.representatives.values())))

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "q": self.q,
            "dims": {str(n): d for n, d in sorted(self.dims.items())},
            "representatives": {
                str(n): [[{"coeff": "1", "m": m.to_json_obj()}] for m in reps]
                for n, reps in sorted(self.representatives.items())
            },
            "total_dim_check": self.total_dim_check,
        }


def _cell(cell: Monomial, n: int, odd: Sequence[int], bound: int) -> tuple[str, Monomial | None]:
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


def critical_cells(sig: AlgebraSignature) -> Iterator[tuple[int, list[Monomial]]]:
    """(n, the critical cells of degree n in basis order) for n upward, each yielded
    after every cell of degree n is checked against gca.d_terms, or else raising
    AssertionError: a lower cell's d starts with (1, its partner), a critical
    cell's d is 0, and the upper cells are the partners of the lower cells one
    degree down.  No later term of a lower cell's d is an upper cell, so gradient
    paths have length 1 and these cells are a basis of H^n.  A later term
    y_(I - i_k) c_(J + i_k) keeps i_1 and gains a part above it, so whether it is
    upper depends on I alone: the first lower cell of each group (n, I) checks it."""
    q, odd = sig.q, tuple(sig.odd_indices)
    partners: set[Monomial] = set()  # of the lower cells one degree down
    for n, basis in gca.iter_basis(sig):
        critical, claimed, lowers, uppers, checked = [], set(), 0, set(), None
        for cell in basis:
            kind, partner = _cell(cell, n, odd, q)
            if kind == "upper":
                uppers.add(cell)
                continue
            d = gca.d_terms(cell, q)
            first = next(d, None)
            if kind == "lower":
                if first != (1, partner):
                    raise AssertionError(f"d({cell.label()}) does not start with {partner.label()}")
                lowers += 1
                claimed.add(partner)
                if cell.y_part != checked:  # the first lower cell of its group (n, I)
                    checked = cell.y_part
                    for _, term in d:
                        if _cell(term, n + 1, odd, q)[0] == "upper":
                            raise AssertionError(
                                f"d({cell.label()}) has a second upper cell {term.label()}")
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


def critical_class(sig: AlgebraSignature, n: int, terms: Mapping[Monomial, Coeff]) -> dict:
    """{critical cell: coefficient}, the class of a degree-n cocycle: a critical
    cell maps to itself and an upper cell u to minus the rest of d(l) = u + rest
    for its lower partner l; lower cells must cancel, or ValueError is raised."""
    q, odd = sig.q, tuple(sig.odd_indices)
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


def cohomology(sig: AlgebraSignature) -> CohomologyResult:
    """H^n with the critical cells of degree n (gca.critical_groups), in basis order,
    as its representatives.  Each must be a cocycle, and they must have the Euler
    characteristic of the complex in each index weight, or AssertionError is raised;
    the cell-by-cell certificate is the walk of critical_cells, which validate_vey runs."""
    q, kind, odd = sig.q, sig.kind, sig.odd_indices
    # d y_i = c_i keeps the index weight N = sum(I) + weight(J), so the Euler
    # characteristic in N is [s^N] of prod_(i in odd) (1 - s^i) * sum_w p(w) s^w,
    # p(w) the count of c_J of weight w <= q
    chi = gca.c_series(q)[::2] + [0] * sum(odd)
    for i in odd:
        for k in range(len(chi) - 1, i - 1, -1):
            chi[k] -= chi[k - i]
    reps: dict[int, list[Monomial]] = {}
    for n, ys, w, cs in gca.critical_groups(sig):
        chi[sum(ys) + w] -= (-1) ** n * len(cs)
        for c in cs:
            m = Monomial(ys, c)
            if next(gca.d_terms(m, q), None) is not None:
                raise AssertionError(f"the representative {m.label()} has d != 0")
            reps.setdefault(n, []).append(m)
    for N, x in enumerate(chi):
        if x:
            raise AssertionError(f"H*({kind}_{q}) misses the Euler characteristic at N = {N}")
    return CohomologyResult(kind, q, reps)


def is_cocycle(sig: AlgebraSignature, a: Element) -> bool:
    """True iff d(a) = 0; a must be homogeneous and live over sig, or it raises."""
    if a.signature != sig:
        raise gca.SignatureMismatch(f"the element lives over {a.signature}, not {sig}")
    if a.is_zero():
        return True
    if not a.is_homogeneous():
        raise ValueError("input must be homogeneous")
    return gca.differential(a).is_zero()


def is_coboundary(sig: AlgebraSignature, a: Element) -> bool:
    """True iff a is a cocycle whose class over the critical cells is empty."""
    if not is_cocycle(sig, a):
        return False
    return a.is_zero() or not critical_class(sig, a.degree(), a.terms)
