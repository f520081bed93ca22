"""Combinatorial basis of H*(W_q) and H*(WO_q), classification, and counts.

The cohomology of the truncated complexes has an explicit monomial basis
y_I c_J cut out by index inequalities (the Vey basis): the cells with a
y-part among those that ``gca.critical_groups`` enumerates.  A Vey class is
its critical cell, a ``Monomial``.  This module classifies the classes
(generalized Godbillon-Vey, residual, rigid, variable candidate) once per
group of ``vey_groups``, whose classes share their flags, writes the ``vey``
rows from those groups, builds the variable set and its braced extension, as
(degree, monomial) pairs, and cross-validates everything against the checked
Morse walk of :mod:`veycalc.complexes`.  ``validate_vey`` returns that check
as the ``validation_report.json`` document the CLI prints, a plain dict.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterator

from .errors import VEY_KINDS, check_int  # VEY_KINDS re-exported

# The algebra stack is imported where it is used, so `kappa` loads this
# module alone.
if TYPE_CHECKING:
    from .gca import Monomial

# Reading of the WO condition "i_1 <= any odd j_k" (`gca.is_critical`): i_1 <=
# every odd entry of J, vacuously true when J has no odd entries.  It is what
# the Morse walk leaves critical; the reading "some odd entry" fails
# validate_vey from q = 2 on.
WO_CONDITION = "forall_odd"


def _flags(q: int, y_part: tuple[int, ...], weight: int, degree: int) -> tuple[bool, ...]:
    """(generalized GV, residual, rigid, variable candidate) of y_I c_J in W_q or WO_q."""
    rigid = y_part[0] + weight >= q + 2
    # Variability proxy: degree-(2q+1) non-rigid classes.  Reproduces the
    # known counts v_1=1, v_2=2, v_3=3; rigid classes cannot vary.
    return y_part == (1,), weight == q, rigid, degree == 2 * q + 1 and not rigid


def vey_groups(q: int, kind: str, degree: int | None = None) -> list[tuple]:
    """(degree, I, c-parts, flags) for each group of `gca.critical_groups` with
    a y-part, in canonical order: the Vey classes y_I c_J of the group, which
    share their degree and their flags (generalized GV, residual, rigid,
    variable candidate); given `degree`, only the groups of that degree, built
    without the others.  A negative degree is an empty request."""
    from .gca import AlgebraSignature, critical_groups

    sig = AlgebraSignature(q, kind, VEY_KINDS)
    if degree is not None:
        check_int("degree", degree)
    return [(n, ys, cparts, _flags(q, ys, w, n))
            for n, ys, w, cparts in critical_groups(sig, degree) if ys]


def vey_basis(q: int, kind: str, degree: int | None = None) -> list[Monomial]:
    """All Vey classes y_I c_J (I nonempty) of W_q or WO_q, each its critical
    cell, in canonical order; given `degree`, only those of that degree.  The
    unit and the pure c_J survivors (Pontrjagin monomials in WO_q) are not of
    Vey form; `complexes.cohomology` lists them with the rest."""
    from .gca import Monomial

    return [Monomial(ys, c) for _, ys, cparts, _ in vey_groups(q, kind, degree) for c in cparts]


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


def _json_rows(q: int, kind: str, groups: list[tuple]) -> Iterator[str]:
    """The `canonical_json` text of each class's row of `vey_basis.json`, the
    text its group shares built once."""
    ys, cs = _Pieces(True), _Pieces(False)
    b = ("false", "true")
    for n, y, cparts, (gv, residual, rigid, variable) in groups:
        yj, yl = ys[y]
        head = f'{{"complex":"{kind}","degree":{n},"generalized_gv":{b[gv]},"monomial":{{"c":'
        mid = f',"y":{yj}}},"name":"{yl}'
        tail = (f'","q":{q},"residual":{b[residual]},"rigid":{b[rigid]},'
                f'"variable_candidate":{b[variable]}}}')
        for c in cparts:
            cj, cl = cs[c]
            yield head + cj + mid + cl + tail


def write_basis_json(q: int, kind: str, groups: list[tuple], out) -> None:
    """Write the `vey` JSON document of `vey_groups(q, kind, ...)` and a newline
    to `out`, _BATCH rows per write: the bytes of `canonical_json` of {"q",
    "complex", "wo_condition", "classes": the rows}, without that dict or text."""
    from .cache import canonical_json

    rows = _json_rows(q, kind, groups)
    out.write('{"classes":[')
    sep = ""
    while batch := list(itertools.islice(rows, _BATCH)):
        out.write(sep + ",".join(batch))
        sep = ","
    tail = canonical_json({"complex": kind, "q": q, "wo_condition": WO_CONDITION})
    out.write("]," + tail[1:] + "\n")


def basis_table_rows(groups: list[tuple]) -> list[list[str]]:
    """The `vey` table cells of each class: name, degree and the four flag marks."""
    ys, cs = _Pieces(True), _Pieces(False)
    x = ("", "x")
    rows = []
    for n, y, cparts, flags in groups:
        yl, cells = ys[y][1], [str(n), *(x[f] for f in flags)]
        rows += ([yl + cs[c][1], *cells] for c in cparts)
    return rows


def variable_set(q: int) -> list[Monomial]:
    """Degree-(2q+1) WO_q Vey classes flagged as independently variable."""
    # Degree 2q+1 forces I = (i_1) with i_1 odd and weight q+1-i_1 (a second
    # y index pushes the degree past 2q+1), so no class of the slice is rigid
    # and every one is a variable candidate.
    return vey_basis(check_int("q", q, 1), "WO", 2 * q + 1)


def v_count(q: int) -> int:
    return len(variable_set(q))


def kappa(q: int) -> int:
    """Greatest integer with 4*kappa <= q+1: the count of bracing indices 2, 4, ..., 2*kappa."""
    return (check_int("q", q, 1) + 1) // 4


def extended_basis(q: int) -> tuple[list[tuple[int, Monomial]], dict[int, int]]:
    """Braced extension of the variable set: y_{i_1} y_{I'} c_J with I' strictly
    increasing even indices above i_1, the even indices up to 2 kappa(q).  Returns
    the (degree, monomial) pairs in canonical order and the per-degree counts."""
    from .gca import Monomial, _y_subsets

    groups = []
    counts: dict[int, int] = {}
    # degree 2q+1 makes each group one i_1 (see variable_set), in partition order
    for n, (i1,), cparts, _ in vey_groups(check_int("q", q, 1), "WO", 2 * q + 1):
        evens = range(i1 + 1, 2 * kappa(q) + 1, 2)  # the even i' up to 2 kappa above i_1 (odd)
        for ydeg, iprime in _y_subsets(evens, sum(2 * i - 1 for i in evens)):  # every subset
            counts[n + ydeg] = counts.get(n + ydeg, 0) + len(cparts)
            groups.append((n + ydeg, (i1,) + iprime, cparts))  # increasing, as every i' > i_1
    # as in gca.critical_groups, sorting the groups by (degree, I) and keeping
    # each in partition order gives the canonical (degree, I, J) order
    groups.sort(key=lambda g: g[:2])
    return ([(deg, Monomial(ys, c)) for deg, ys, cparts in groups for c in cparts],
            dict(sorted(counts.items())))


def extended_count(q: int, degree: int) -> int:
    """The count of braced classes in one degree (v-hat_{q,degree})."""
    check_int("degree", degree)
    return extended_basis(q)[1].get(degree, 0)


def validate_vey(q: int, kind: str) -> dict:
    """Cross-check the enumerated basis against the cohomology of the complex;
    returns the ``docs/schemas/validation_report.json`` document.

    Per degree, the critical cells of the checked walk (`complexes.critical_cells`)
    must be those that `gca.critical_groups` lists, in the same order.  The Vey
    classes are the listed cells with a y-part, so where the two agree each
    class is a critical cell: a cocycle, independent of the others modulo
    coboundaries, and above degree 2q, where no pure c_J is critical, the
    whole of H^n.  In low degrees the complex has non-Vey survivors (the
    unit, surviving Pontrjagin monomials), listed as notes, not failures."""
    from . import complexes, gca

    sig = gca.AlgebraSignature(q, kind, VEY_KINDS)
    listed: dict[int, list[Monomial]] = {}
    for n, ys, _, cparts in gca.critical_groups(sig):
        listed.setdefault(n, []).extend(gca.Monomial(ys, c) for c in cparts)

    per_degree = []
    for n, cells in complexes.critical_cells(sig):
        expected = listed.get(n, [])
        if not cells and not expected:
            continue
        agree, dim, vey = cells == expected, len(cells), sum(1 for m in expected if m.y_part)
        notes = [] if agree else [
            f"the walk's critical cells ({dim}) differ from the enumerator's ({len(expected)})"]
        if n <= 2 * q and dim > vey:
            labels = ", ".join(m.label() for m in cells)
            notes.append(f"oracle sees {dim - vey} non-Vey survivor(s) in low degree: {labels}")
        if kind == "W" and q == 2 and n == 8:
            notes.append(
                "degree-8 dimension is 2 (y1y2c1^2 and y1y2c2 both survive); "
                "classical generator tables for this algebra list only y1y2c2"
            )
        per_degree.append({"degree": n, "enumerated": vey, "oracle_dim": dim,
                           "independent": agree, "notes": notes})
    return {"q": q, "kind": kind, "ok": all(c["independent"] for c in per_degree),
            "per_degree": per_degree}
