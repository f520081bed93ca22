"""Combinatorial basis of H*(W_q) and H*(WO_q), classification, and counts.

The cohomology of the truncated complexes has an explicit monomial basis
y_I c_J cut out by index inequalities (the Vey basis).  This module
enumerates it, classifies each class (generalized Godbillon-Vey, residual,
rigid, variable candidate), builds the variable set and its braced
extension, and cross-validates everything against the exact cohomology
of :mod:`veycalc.complexes`.
"""

from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING, Iterator, NamedTuple

# The algebra stack is imported where it is used, so `kappa` loads this
# module alone.
if TYPE_CHECKING:
    from .gca import Monomial

# Reading of the WO condition "i_1 <= any odd j_k": i_1 <= every odd entry
# of J, vacuously true when J has no odd entries.  It reproduces the oracle
# dimensions; the reading "some odd entry" fails validate_vey from q = 2 on.
WO_CONDITION = "forall_odd"


class VeyClass(NamedTuple):
    monomial: Monomial
    complex_kind: str  # "W" or "WO"
    q: int
    degree: int
    is_generalized_gv: bool = False
    is_residual: bool = False
    is_rigid: bool = False
    is_variable_candidate: bool = False

    def name(self) -> str:
        return self.monomial.label()

    def to_json_obj(self) -> dict:
        return {
            "monomial": self.monomial.to_json_obj(),
            "name": self.name(),
            "complex": self.complex_kind,
            "q": self.q,
            "degree": self.degree,
            "generalized_gv": self.is_generalized_gv,
            "residual": self.is_residual,
            "rigid": self.is_rigid,
            "variable_candidate": self.is_variable_candidate,
        }


def _vey_condition(i_min: int, cpart: tuple[int, ...], kind: str) -> bool:
    """The index condition on (i_1, J); the caller enforces q+1-i_1 <= weight <= q."""
    entries = [j + 1 for j, e in enumerate(cpart) if e > 0]
    if kind == "W":
        # i_1 <= j_1 (smallest part of J); weight >= q+1-i_1 >= 1, so J is nonempty
        return i_min <= entries[0]
    return all(i_min <= j for j in entries if j % 2 == 1)


def _flags(q: int, y_part: tuple[int, ...], weight: int, degree: int) -> tuple[bool, ...]:
    """(generalized GV, residual, rigid, variable candidate) of y_I c_J in W_q or WO_q."""
    rigid = y_part[0] + weight >= q + 2
    # Variability proxy: degree-(2q+1) non-rigid classes.  Reproduces the
    # known counts v_1=1, v_2=2, v_3=3; rigid classes cannot vary.
    return y_part == (1,), weight == q, rigid, degree == 2 * q + 1 and not rigid


def _admissible(q: int, i_min: int, weight: int, kind: str) -> list[tuple[int, ...]]:
    """The c-parts of the given weight that meet the Vey condition, in partition order."""
    from . import gca

    return [c for c in gca.c_parts(q, weight) if _vey_condition(i_min, c, kind)]


def vey_basis(q: int, kind: str, degree: int | None = None) -> list[VeyClass]:
    """All Vey-form monomials y_I c_J (s >= 1) for the given complex, classified,
    in canonical order; given `degree`, only the classes of that degree, built
    without the others.  Pure c_J survivors (Pontrjagin monomials in WO_q) are
    not Vey-form and are reported by the oracle instead."""
    if q < 1:
        raise ValueError("q must be positive")
    if kind not in ("W", "WO"):
        raise ValueError("kind must be 'W' or 'WO'")
    from .gca import AlgebraSignature, Monomial

    sig = AlgebraSignature.W(q) if kind == "W" else AlgebraSignature.WO(q)
    odd = sorted(sig.odd_indices)
    groups = []
    for k, i1 in enumerate(odd):
        rest_odd = odd[k + 1 :]
        for w in range(q + 1 - i1, q + 1):
            base = 2 * i1 - 1 + 2 * w  # the degree of y_{i_1} c_J
            cparts = None  # shared by every I starting at i_1; built once a class keeps it
            for r in range(len(rest_odd) + 1):
                if degree is not None and base + sum(2 * i - 1 for i in rest_odd[:r]) > degree:
                    break  # the lightest r-subset (the first r) is too heavy, so is every larger r
                for rest in itertools.combinations(rest_odd, r):
                    d = base + sum(2 * i - 1 for i in rest)
                    if degree is not None and d != degree:
                        continue
                    if cparts is None:
                        cparts = _admissible(q, i1, w, kind)
                    ys = (i1,) + rest
                    flags = _flags(q, ys, w, d)
                    classes = [VeyClass(Monomial(ys, c), kind, q, d, *flags) for c in cparts]
                    groups.append((d, ys, classes))
    # (degree, I) fixes the weight, so sorting the groups and keeping each in
    # partition order gives the canonical (degree, I, J) order
    groups.sort(key=lambda g: g[:2])
    return [v for _, _, classes in groups for v in classes]


_BATCH = 256  # JSON rows per write; on an unbuffered stdout each write is a system call


class _Pieces(dict):
    """A y_part (is_y) or c_part -> (its JSON list text, its label), encoded on first use."""

    def __init__(self, is_y: bool):
        self.is_y = is_y

    def __missing__(self, part: tuple[int, ...]) -> tuple[str, str]:
        from .gca import Monomial

        m = Monomial(part, ()) if self.is_y else Monomial((), part)
        piece = self[part] = ("[" + ",".join(map(str, part)) + "]", m.label())
        return piece


def _json_rows(classes: list[VeyClass]) -> Iterator[str]:
    """Each class's `canonical_json(c.to_json_obj())`, built from its pieces."""
    ys, cs = _Pieces(True), _Pieces(False)
    b = ("false", "true")
    for v in classes:
        (yj, yl), (cj, cl) = ys[v.monomial.y_part], cs[v.monomial.c_part]
        yield (
            f'{{"complex":"{v.complex_kind}","degree":{v.degree},'
            f'"generalized_gv":{b[v.is_generalized_gv]},"monomial":{{"c":{cj},"y":{yj}}},'
            f'"name":"{yl}{cl}","q":{v.q},"residual":{b[v.is_residual]},'
            f'"rigid":{b[v.is_rigid]},"variable_candidate":{b[v.is_variable_candidate]}}}'
        )


def write_basis_json(q: int, kind: str, classes: list[VeyClass], out) -> None:
    """Write the `vey` JSON document and a newline to `out`, _BATCH rows per
    write: the bytes of `canonical_json` of {"q", "complex", "wo_condition",
    "classes": [c.to_json_obj() for c in classes]}, without that dict or text."""
    from .cache import canonical_json

    rows = _json_rows(classes)
    out.write('{"classes":[')
    sep = ""
    while batch := list(itertools.islice(rows, _BATCH)):
        out.write(sep + ",".join(batch))
        sep = ","
    tail = canonical_json({"complex": kind, "q": q, "wo_condition": WO_CONDITION})
    out.write("]," + tail[1:] + "\n")


def basis_table_rows(classes: list[VeyClass]) -> list[list[str]]:
    """The `vey` table cells of each class: name, degree and the four flag marks."""
    ys, cs = _Pieces(True), _Pieces(False)
    x = ("", "x")
    return [
        [ys[v.monomial.y_part][1] + cs[v.monomial.c_part][1], str(v.degree),
         x[v.is_generalized_gv], x[v.is_residual], x[v.is_rigid], x[v.is_variable_candidate]]
        for v in classes
    ]


def variable_set(q: int) -> list[VeyClass]:
    """Degree-(2q+1) WO_q Vey classes flagged as independently variable."""
    return list(_variable_classes(q))


@functools.cache
def _variable_classes(q: int) -> tuple[VeyClass, ...]:
    # Degree 2q+1 forces I = (i_1) with i_1 odd and weight q+1-i_1 (a second
    # y index pushes the degree past 2q+1), so no class of the slice is rigid
    # and every one is a variable candidate.
    return tuple(vey_basis(q, "WO", 2 * q + 1))


def v_count(q: int) -> int:
    return len(variable_set(q))


def kappa(q: int) -> int:
    """Greatest integer with 4*kappa <= q+1 (number of usable Pontrjagin classes)."""
    if q < 1:
        raise ValueError("q must be positive")
    return (q + 1) // 4


class ExtendedClass(NamedTuple):
    base: VeyClass
    i_prime: tuple[int, ...]
    monomial: Monomial
    degree: int

    def name(self) -> str:
        return self.monomial.label()

    def to_json_obj(self) -> dict:
        return {
            "monomial": self.monomial.to_json_obj(),
            "name": self.name(),
            "base": self.base.name(),
            "i_prime": list(self.i_prime),
            "degree": self.degree,
        }


def extended_basis(q: int) -> tuple[list[ExtendedClass], dict[int, int]]:
    """Braced extension of the variable set: y_{i_1} y_{I'} c_J with I' strictly
    increasing even indices, i_1 < i_1' and 2 i_r' <= q+1.  Returns the classes
    and the per-degree counts."""
    from .gca import Monomial

    groups = []
    counts: dict[int, int] = {}
    # the variable set runs by i_1, each i_1's classes in partition order
    for i1, run in itertools.groupby(variable_set(q), key=lambda v: v.monomial.y_part[0]):
        base = list(run)
        evens = range(i1 + 1, (q + 1) // 2 + 1, 2)  # the even i' > i_1 (odd), 2 i' <= q+1
        for r in range(len(evens) + 1):
            for iprime in itertools.combinations(evens, r):
                ypart = (i1,) + iprime  # increasing, as every i' > i_1
                deg = base[0].degree + sum(2 * i - 1 for i in iprime)
                counts[deg] = counts.get(deg, 0) + len(base)
                groups.append((deg, ypart, [
                    ExtendedClass(v, iprime, Monomial(ypart, v.monomial.c_part), deg) for v in base
                ]))
    # as in vey_basis, sorting the groups by (degree, I) and keeping each in
    # partition order gives the canonical (degree, I, J) order
    groups.sort(key=lambda g: g[:2])
    return [e for _, _, classes in groups for e in classes], dict(sorted(counts.items()))


def extended_count(q: int, degree: int) -> int:
    """The count of braced classes in one degree (v-hat_{q,degree})."""
    return extended_basis(q)[1].get(degree, 0)


class DegreeCheck(NamedTuple):
    degree: int
    enumerated: int
    oracle_dim: int
    independent: bool
    notes: list[str]


class ValidationReport(NamedTuple):
    q: int
    kind: str
    per_degree: list[DegreeCheck]
    ok: bool

    def to_json_obj(self) -> dict:
        return {
            "q": self.q,
            "kind": self.kind,
            "ok": self.ok,
            "per_degree": [
                {
                    "degree": c.degree,
                    "enumerated": c.enumerated,
                    "oracle_dim": c.oracle_dim,
                    "independent": c.independent,
                    "notes": c.notes,
                }
                for c in self.per_degree
            ],
        }


def validate_vey(q: int, kind: str) -> ValidationReport:
    """Cross-check the enumerated basis against the cohomology of the complex.

    Per degree: the classes must be cocycles, independent modulo coboundaries,
    that is over the critical cells (`complexes.critical_class`), whose count
    is the dimension.  Above degree 2q the counts must match; in low degrees
    the complex may have extra non-Vey survivors (the unit, surviving
    Pontrjagin monomials), which are listed as notes rather than failures."""
    from . import complexes, gca, linalg

    cx = complexes.build_complex(q, kind)
    by_degree: dict[int, list[VeyClass]] = {}
    for v in vey_basis(q, kind):
        by_degree.setdefault(v.degree, []).append(v)

    checks: list[DegreeCheck] = []
    ok = True
    for n, cells in complexes.critical_cells(cx):
        vs = by_degree.get(n, [])
        # d of a basis monomial has no repeated term, so it is zero exactly
        # when d_terms yields none
        notes = [f"{v.name()} is not a cocycle" for v in vs if any(gca.d_terms(v.monomial, q))]
        independent = not notes
        if independent and vs:
            position, classes = {m: i for i, m in enumerate(cells)}, linalg.Echelon()
            independent = all(classes.insert({
                position[m]: x for m, x in complexes.critical_class(cx, n, {v.monomial: 1}).items()
            }) for v in vs)
            if not independent:
                notes.append("enumerated classes are dependent modulo coboundaries")
        dim = len(cells)
        if not vs and not dim:
            continue
        if n > 2 * q and len(vs) != dim:
            ok = False
            notes.append(f"count mismatch above 2q: enumerated {len(vs)} vs oracle {dim}")
        if n <= 2 * q and dim > len(vs):
            labels = ", ".join(m.label() for m in cells)
            notes.append(f"oracle sees {dim - len(vs)} non-Vey survivor(s) in low degree: {labels}")
        if kind == "W" and q == 2 and n == 8:
            notes.append(
                "degree-8 dimension is 2 (y1y2c1^2 and y1y2c2 both survive); "
                "classical generator tables for this algebra list only y1y2c2"
            )
        if not independent:
            ok = False
        checks.append(DegreeCheck(n, len(vs), dim, independent, notes))
    return ValidationReport(q, kind, checks, ok)
