"""Exact graded-commutative algebra with odd generators y_i and even generators c_i.

The algebra carries odd exterior generators y_i of degree 2i-1, for the
indices its kind allows (all of 1..q in W_q, the odd ones in WO_q, none in
I_q), and q even polynomial generators c_1..c_q of degree 2i.  Products
whose total c-weight (sum of j over each factor c_j) exceeds the weight cap
q are identified with zero; this is the truncation that makes every complex
here finite dimensional.  The differential is d(y_i) = c_i, d(c_i) = 0,
extended by the graded Leibniz rule; d_terms is its one formula, on a
monomial, which both differential and the assembly of a complex read.

The Vey condition, is_critical, is stated here once: critical_groups lists
the cells y_I c_J that meet it, the critical cells of the least-index Morse
matching of :mod:`veycalc.complexes`, without building the others; they are
both the cohomology's representatives and, with I nonempty, the Vey basis.

Dimensions are counted without enumerating: free_series is the one routine
for the Poincare series of a free graded-commutative algebra, which counts
the bases here, the size estimates of a refusal and the loop-space series of
:mod:`veycalc.minimal_model`.

All coefficients are exact rationals: an integral coefficient is a Python
int, and any other one a fractions.Fraction, which is only imported when a
coefficient needs it.  A signature is an immutable (q, kind) tuple; an
Element is a value too, but its fields are not write-protected, and every
operation is a pure function.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import KINDS, check_int

if TYPE_CHECKING:
    from fractions import Fraction

Coeff = Union[int, "Fraction"]


class SignatureMismatch(ValueError):
    """Raised when combining elements over different algebra signatures."""


class _Signature(NamedTuple):
    q: int  # also the weight cap
    kind: str


class AlgebraSignature(_Signature):
    """Shape of one truncated algebra: codimension q and the kind W, WO or I,
    which fixes the y-indices.  A kind outside `kinds` is refused before q."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, q: int, kind: str, kinds: tuple[str, ...] = KINDS):
        if kind not in kinds:
            raise ValueError(f"complex kind must be one of {', '.join(kinds)}, got {kind!r}")
        return super().__new__(cls, check_int("q", q, 1), kind)

    @property
    def odd_indices(self) -> range:
        """The allowed y-indices: 1..q for W, the odd ones for WO, none for I."""
        return range(1, 1 if self.kind == "I" else self.q + 1, 2 if self.kind == "WO" else 1)


class Monomial(NamedTuple):
    """y_I c_J with I strictly increasing and c_part the exponent vector of J."""

    y_part: tuple[int, ...]
    c_part: tuple[int, ...]

    def degree(self) -> int:
        return sum(2 * i - 1 for i in self.y_part) + sum(
            2 * (j + 1) * e for j, e in enumerate(self.c_part)
        )

    def weight(self) -> int:
        return _weight(self.c_part)

    def partition(self) -> tuple[int, ...]:
        """c-part as the weakly increasing tuple J = (j_1 <= ... <= j_l)."""
        return _partition(self.c_part)

    def sort_key(self) -> tuple:
        # Canonical order: degree, then y-indices, then the partition J.
        # Comparing partitions (not raw exponent vectors) puts e.g. c_1^2
        # before c_2, matching the conventional table ordering.
        return (self.degree(), self.y_part, self.partition())

    def is_valid(self, sig: AlgebraSignature) -> bool:
        ys, odd = self.y_part, sig.odd_indices
        return (len(self.c_part) == sig.q and list(ys) == sorted(set(ys))
                and all(i in odd for i in ys) and self.weight() <= sig.q)

    def label(self) -> str:
        """Human-readable name like 'y1y2c1^2c3' ('1' for the unit)."""
        return "".join(f"y{i}" for i in self.y_part) + _c_label(self.c_part) or "1"

    def to_json_obj(self) -> dict:
        return {"y": list(self.y_part), "c": list(self.c_part)}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "Monomial":
        return cls(tuple(obj["y"]), tuple(obj["c"]))


@lru_cache(maxsize=None)
def _weight(c_part: tuple[int, ...]) -> int:
    return sum((j + 1) * e for j, e in enumerate(c_part))


@lru_cache(maxsize=None)
def _partition(c_part: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(j + 1 for j, e in enumerate(c_part) for _ in range(e))


@lru_cache(maxsize=None)
def _c_label(c_part: tuple[int, ...]) -> str:
    return "".join(f"c{j + 1}" + (f"^{e}" if e > 1 else "") for j, e in enumerate(c_part) if e)


def _merge_y(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Merge two strictly increasing index tuples with the Koszul sign: (sign,
    merged), or None when an index repeats (y_i^2 = 0)."""
    if set(a) & set(b):
        return None
    inversions = sum(1 for x in a for y in b if y < x)
    return (-1) ** inversions, tuple(sorted(a + b))


def _exact(c) -> Coeff:
    """c as an int if integral, else a Fraction; c may be a str ("1/10"), not a float or bool."""
    if type(c) is int:
        return c
    if isinstance(c, (float, bool)):
        raise ValueError(f"coefficient must be an int, a Fraction or a rational string, got {c!r}")
    from fractions import Fraction

    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Element:
    """Sparse linear combination of monomials with rational coefficients."""

    __slots__ = ("signature", "terms")

    def __init__(self, signature: AlgebraSignature, terms: Mapping[Monomial, Coeff] | None = None):
        self.signature = signature
        clean: dict[Monomial, Coeff] = {}
        for m, c in (terms or {}).items():
            if c := _exact(c):
                clean[m] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def monomial(cls, sig: AlgebraSignature, m: Monomial, coeff=1) -> "Element":
        if not m.is_valid(sig):
            raise ValueError(f"monomial {m} invalid for signature {sig}")
        return cls(sig, {m: coeff})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        degs = {m.degree() for m in self.terms}
        return len(degs) <= 1

    def degree(self) -> int | None:
        """Degree of a homogeneous element (None for zero)."""
        degs = {m.degree() for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()

    def sorted_terms(self) -> list[tuple[Monomial, Coeff]]:
        return sorted(self.terms.items(), key=lambda mc: mc[0].sort_key())

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "Element") -> None:
        if self.signature != other.signature:
            raise SignatureMismatch("elements live over different signatures")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Element(self.signature, out)

    def __neg__(self) -> "Element":
        return Element(self.signature, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, k) -> "Element":
        k = _exact(k)
        return Element(self.signature, {m: c * k for m, c in self.terms.items()})

    def __mul__(self, other: "Element") -> "Element":
        self._check(other)
        sig = self.signature
        out: dict[Monomial, Coeff] = {}
        for ma, ca in self.terms.items():
            wa = ma.weight()
            for mb, cb in other.terms.items():
                if wa + mb.weight() > sig.q:
                    continue  # truncation: over-weight products vanish
                merged = _merge_y(ma.y_part, mb.y_part)
                if merged is None:
                    continue
                sign, ypart = merged
                cpart = tuple(a + b for a, b in zip(ma.c_part, mb.c_part))
                m = Monomial(ypart, cpart)
                out[m] = out.get(m, 0) + sign * ca * cb
        return Element(sig, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.signature == other.signature
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.signature, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.sorted_terms():
            bits.append(f"{c}*{m.label()}" if c != 1 else m.label())
        return " + ".join(bits)


# -- module-level operations ------------------------------------------------


def d_terms(m: Monomial, q: int) -> Iterator[tuple[int, Monomial]]:
    """(sign, monomial) for each term of d(y_I c_J) = sum_k (-1)^k y_(I - i_k) c_(i_k) c_J
    (k from 0) of weight <= q, the one formula for d; the signs are ints, so the
    elimination of a complex builds no Fraction.  I is increasing, so the first
    i_k over the room left ends the sum."""
    ys, cs = m
    room = q - _weight(cs)
    for k, i in enumerate(ys):
        if i > room:
            return
        yield (-1) ** k, Monomial(ys[:k] + ys[k + 1 :], cs[: i - 1] + (cs[i - 1] + 1,) + cs[i:])


def differential(a: Element) -> Element:
    """d(y_i) = c_i, d(c_i) = 0, extended by the graded Leibniz rule (d_terms)."""
    out: dict[Monomial, Coeff] = {}
    for m, coeff in a.terms.items():
        for sign, mm in d_terms(m, a.signature.q):
            out[mm] = out.get(mm, 0) + sign * coeff
    return Element(a.signature, out)


@lru_cache(maxsize=None)
def c_parts(q: int, weight: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors over c_1..c_q of the given weight, in partition order.

    The parts of J are picked smallest first, so the partitions come out in
    lexicographic order, and a branch ends as soon as its weight is spent.
    """
    out: list[tuple[int, ...]] = []
    exps = [0] * q

    def rec(smallest: int, remaining: int) -> None:
        if remaining == 0:
            out.append(tuple(exps))
            return
        for j in range(smallest, min(q, remaining) + 1):
            exps[j - 1] += 1
            rec(j, remaining - j)
            exps[j - 1] -= 1

    rec(1, weight)
    return tuple(out)


def _y_subsets(odd: Sequence[int], budget: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(degree, I) for the subsets I of odd of degree <= budget, in lexicographic order."""
    yield 0, ()
    for k, i in enumerate(odd):
        if 2 * i - 1 > budget:
            break
        for d, rest in _y_subsets(odd[k + 1 :], budget - 2 * i + 1):
            yield d + 2 * i - 1, (i,) + rest


def basis_of_degree(sig: AlgebraSignature, n: int) -> list[Monomial]:
    """All valid monomials of degree n, in canonical order (deterministic): the
    y-subsets in lexicographic order, each followed by its c-parts."""
    out: list[Monomial] = []
    for ydeg, ys in _y_subsets(tuple(sig.odd_indices), n):
        weight, odd = divmod(n - ydeg, 2)  # c_J has degree 2 * weight
        if not odd and weight <= sig.q:
            out.extend(Monomial(ys, c) for c in c_parts(sig.q, weight))
    return out


def iter_basis(sig: AlgebraSignature) -> Iterator[tuple[int, list[Monomial]]]:
    """Per-degree bases from 0 up to the top degree of the algebra."""
    for n in range(top_degree(sig) + 1):
        yield n, basis_of_degree(sig, n)


def is_critical(q: int, odd: Sequence[int], i1: int, c_part: tuple[int, ...]) -> bool:
    """The Vey condition on y_I c_J, with i_1 the least index of I (q+1 when I is
    empty) and odd the y-indices: no part of J below i_1 is a y-index, and
    q+1-i_1 <= weight <= q."""
    return q + 1 - i1 <= _weight(c_part) <= q and not any(c_part[j - 1] for j in odd if j < i1)


def critical_groups(sig: AlgebraSignature, degree: int | None = None) -> list[tuple]:
    """(degree, I, weight, c-parts) for each y_I with cells y_I c_J that meet
    is_critical, in every degree or in the given one, sorted by (degree, I),
    each c-part tuple in partition order: the cells of a degree in basis order."""
    q, odd = sig.q, tuple(sig.odd_indices)
    kept: dict[tuple[int, int], tuple] = {}  # (i_1, weight) -> its critical c-parts
    groups = []
    for ydeg, ys in _y_subsets(odd, top_degree(sig) if degree is None else degree):
        i1 = ys[0] if ys else q + 1
        for w in range(q + 1):
            n = ydeg + 2 * w
            if degree is not None and n != degree:
                continue
            cs = kept.get((i1, w))
            if cs is None:
                cs = kept[i1, w] = tuple(c for c in c_parts(q, w) if is_critical(q, odd, i1, c))
            if cs:
                groups.append((n, ys, w, cs))
    groups.sort(key=lambda g: g[:2])
    return groups


def top_degree(sig: AlgebraSignature) -> int:
    return sum(2 * i - 1 for i in sig.odd_indices) + 2 * sig.q


def free_series(degrees: Iterable[int], cap: int, series: list[int] | None = None) -> list[int]:
    """Poincare series through t^cap of the free graded-commutative algebra on
    generators of the given positive degrees, times series (default 1), which
    is multiplied in place: by 1 + t^d for each odd d, by 1/(1 - t^d) for each
    even d."""
    if series is None:
        series = [1] + [0] * cap
    for d in degrees:
        if d % 2:
            for k in range(cap, d - 1, -1):
                series[k] += series[k - d]
        else:
            for k in range(d, cap + 1):
                series[k] += series[k - d]
    return series


def c_series(q: int) -> list[int]:
    """Monomials c_J of weight <= q per degree 0..2q: c_i has degree 2i, and
    weight <= q is degree <= 2q."""
    return free_series(range(2, 2 * q + 1, 2), 2 * q)


def basis_dimension_series(sig: AlgebraSignature) -> list[int]:
    """Count of monomials per degree from the generating function, independent
    of the enumerator: the c-series times (1 + t^(2i-1)) per allowed y-index."""
    top = top_degree(sig)
    series = c_series(sig.q) + [0] * (top - 2 * sig.q)
    return free_series((2 * i - 1 for i in sig.odd_indices), top, series)
