"""Exact rational linear algebra: one incremental sparse echelon kernel.

:class:`Echelon` does all elimination.  It keeps sparse rows
``{column: value}`` keyed by their pivot, the lowest nonzero column, and
scaled to 1 there.  Values are Python ints while they are integral: a row
with pivot 1 is stored as it is and one with pivot -1 negated, and only a
row with any other pivot is divided by it as a ``fractions.Fraction``.  The
complexes W_q and WO_q only meet pivots +-1, so their elimination never
builds a Fraction.  A new row is reduced against the stored pivots in
ascending column order, so a span grows one row at a time.  Results are
deterministic whatever order rows arrive in: pivots are lowest columns and
the RREF of a row space is unique, so ranks, echelon forms and canonical
nullspace bases are reproducible, and a greedy pass over candidates keeps
exactly those outside the span of the ones before.  :func:`column_pass`
eliminates a map once, for both its kernel and its image echelon, and
:func:`cohomology` is the minimal model's "cohomology in degree n".  The dense
list-of-rows functions serve tests and tracing only and return Fractions;
:func:`rref`, :func:`nullspace` and :func:`solve` each read a column pass, so
``Echelon.reduce`` is the one elimination procedure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from fractions import Fraction

Row = list["Fraction"]
Matrix = list[Row]
SparseRow = dict[int, Union[int, "Fraction"]]


class Echelon:
    """Row echelon form over Q of the span of the rows inserted so far."""

    def __init__(self, rows=()) -> None:
        self.rows: dict[int, SparseRow] = {}  # pivot column -> row, 1 at the pivot
        for row in rows:
            self.insert(row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: SparseRow) -> SparseRow:
        """The remainder of vec after eliminating the stored pivots in ascending
        column order; empty iff vec lies in the span.  A row has no entry left
        of its pivot, so fill-in only lands right of the column being cleared."""
        v = {c: x for c, x in vec.items() if x}
        rows = self.rows
        todo = sorted((c for c in v if c in rows), reverse=True)  # popped lowest first
        while todo:
            p = todo.pop()
            f = v.get(p)
            if f is None:
                continue
            for c, x in rows[p].items():  # clears v[p], since rows[p][p] == 1
                y = v.get(c)
                if y is None:
                    v[c] = -f * x
                    if c in rows:
                        todo.append(c)
                else:
                    y -= f * x
                    if y:
                        v[c] = y
                    else:
                        del v[c]
            todo.sort(reverse=True)
        return v

    def insert(self, vec: SparseRow) -> bool:
        """Add vec to the span; True iff it was not already in it."""
        v = self.reduce(vec)
        if v:
            self._store(v)
        return bool(v)

    def _store(self, v: SparseRow) -> None:
        """Store v, a nonzero remainder of `reduce`, scaled to 1 at its pivot."""
        p = min(v)
        pivot = v[p]
        if pivot == 1:
            self.rows[p] = v
        elif pivot == -1:
            self.rows[p] = {c: -x for c, x in v.items()}
        else:
            from fractions import Fraction

            inv = 1 / Fraction(pivot)
            self.rows[p] = {c: x * inv for c, x in v.items()}


def sparse(row: Row) -> SparseRow:
    return {c: x for c, x in enumerate(row) if x}


def _columns(mat: Matrix, ncols: int) -> list[SparseRow]:
    return [{i: row[j] for i, row in enumerate(mat) if row[j]} for j in range(ncols)]


def dense(vec: SparseRow, ncols: int) -> Row:
    from fractions import Fraction

    out = [Fraction(0)] * ncols
    for c, x in vec.items():
        out[c] = Fraction(x)
    return out


def column_pass(cols: list[SparseRow]) -> tuple[list[SparseRow], Echelon]:
    """The canonical kernel basis and the image echelon of the map with these
    columns, in one pass: column j carries its combination {j: 1} past every
    row index, and is a kernel vector if nothing but tags is left.  The
    pivots are the greedy basis of the column space, over which a column's
    coordinates are unique, so the kernel is the RREF's canonical nullspace."""
    shift = 1 + max((max(col) for col in cols if col), default=-1)
    tagged = Echelon()
    kernel = []
    for j, col in enumerate(cols):
        v = tagged.reduce({**col, shift + j: 1})
        if min(v) >= shift:
            kernel.append({c - shift: x for c, x in v.items()})
        else:
            tagged._store(v)
    image = Echelon()
    image.rows = {p: {c: x for c, x in row.items() if c < shift} for p, row in tagged.rows.items()}
    return kernel, image


def cohomology(kernel: list[SparseRow], coboundaries: Echelon) -> list[SparseRow]:
    """Representatives of ker d_n / im d_(n-1), from the canonical kernel of
    d_n and the echelon of im d_(n-1): the kernel vectors kept greedily, in
    order, outside the image and the ones before.  Each one chosen is inserted
    into `coboundaries`, which ends up spanning ker d_n.  Checks the count
    against dim ker - rank d_(n-1)."""
    dim_h = len(kernel) - coboundaries.rank
    chosen = [v for v in kernel if coboundaries.insert(v)]
    if len(chosen) != dim_h:
        raise AssertionError(f"rank bookkeeping mismatch: {len(chosen)} representatives "
                             f"vs dim ker - rank = {dim_h}")
    return chosen


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (echelon matrix, pivot columns), read off
    the canonical kernel: pivot p's row is 1 at p and 0 at the other pivots, and
    in each free column j it is minus the p entry of j's kernel vector, whose
    largest key is j."""
    if not mat:
        return [], []
    ncols = len(mat[0])
    free = {max(v): v for v in column_pass(_columns(mat, ncols))[0]}
    pivots = [p for p in range(ncols) if p not in free]
    ech = [dense({p: 1, **{j: -v[p] for j, v in free.items() if p in v}}, ncols) for p in pivots]
    ech += [dense({}, ncols) for _ in range(len(mat) - len(ech))]
    return ech, pivots


def rank(mat: Matrix) -> int:
    return Echelon(map(sparse, mat)).rank


def nullspace(mat: Matrix, ncols: int) -> list[Row]:
    """Basis of {x : mat @ x = 0}, canonical (one vector per free column)."""
    return [dense(v, ncols) for v in column_pass(_columns(mat, ncols))[0]]


def solve(mat: Matrix, b: Row) -> Row | None:
    """One solution of mat @ x = b (free variables 0), or None if inconsistent,
    that is when b, appended as a last column, is a pivot; else minus b's kernel
    vector on the first ncols entries."""
    if not mat:
        return None if any(b) else []
    ncols = len(mat[0])
    kernel = column_pass(_columns([r + [y] for r, y in zip(mat, b)], ncols + 1))[0]
    if not kernel or max(kernel[-1]) != ncols:
        return None
    return dense({c: -x for c, x in kernel[-1].items() if c < ncols}, ncols)


def independent_complement(span_rows: Matrix, candidates: Matrix) -> list[int]:
    """Indices of candidate rows that extend the row span, greedily in order:
    the dense form of the selection :func:`cohomology` makes."""
    ech = Echelon(map(sparse, span_rows))
    return [i for i, cand in enumerate(candidates) if ech.insert(sparse(cand))]
