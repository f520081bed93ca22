"""The elimination oracle: the cohomology of W_q, WO_q and I_q by exact
elimination over Q, the reference for the Morse walk of veycalc.complexes.

It reads the assembled triplets of each differential.  Walking n upward,
one column pass over d_n (linalg.column_pass) gives both ker d_n and the
echelon of its image, which is the coboundary echelon of degree n+1, so each
differential is eliminated once; linalg.cohomology keeps the kernel vectors
outside the coboundaries, greedily in order.
"""

from veycalc import gca, linalg
from veycalc.gca import Element


def columns(cx, n):
    """Columns of d_n: the image of each basis element of C^n, as a sparse vector."""
    cols = [{} for _ in cx.basis(n)]
    for r, c, v in cx.diff.get(n, []):
        cols[c][r] = v
    return cols


def passes(cx):
    """(n, ker d_n, the echelon of im d_(n-1)) for n upward: the image echelon
    of degree n's column pass is degree n+1's coboundary echelon."""
    coboundaries = linalg.Echelon()
    for n in range(gca.top_degree(cx) + 1):
        kernel, image = linalg.column_pass(columns(cx, n))
        yield n, kernel, coboundaries
        coboundaries = image


def representatives(cx):
    """Degree n -> the representatives of H^n, for each n with H^n != 0."""
    reps = {}
    for n, kernel, coboundaries in passes(cx):
        chosen = linalg.cohomology(kernel, coboundaries)
        if chosen:
            basis = cx.basis(n)
            reps[n] = [Element(cx.signature, {basis[j]: x for j, x in v.items()}) for v in chosen]
    return reps


def element_vector(cx, a, n):
    """a as a sparse vector over the degree-n basis of cx."""
    index = cx.index(n)
    for m in a.terms:
        if m not in index:
            raise ValueError(f"monomial {m.label()} not in the degree-{n} basis")
    return {index[m]: coeff for m, coeff in a.terms.items()}


def is_coboundary(cx, a):
    """Whether the homogeneous a lies in the image of all of d_(n-1)."""
    if a.is_zero():
        return True
    n = a.degree()
    return not linalg.Echelon(columns(cx, n - 1)).reduce(element_vector(cx, a, n))
