"""Fixed reference task that measures how fast the machine is right now.

Usage: python3 perfbench/speedref.py

run.py times this script in a fresh interpreter between the jobs of a run
and scales the run's times by nominal / measured reference time (see
run.py).  It depends on the standard library only, never on veycalc, so no
change to the program can move it.  Its work resembles the jobs': an
interpreter start, exact rational elimination, tuple-keyed dictionary
enumeration and JSON rendering.  It prints a digest of its results, which
must be the same on every call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

SIZE = 30
VARIABLES = 9
DEGREE = 4


def rank(rows: list[list[Fraction]]) -> int:
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def monomial_products() -> dict[tuple[int, ...], int]:
    """Coefficients of (x_1 + ... + x_n)^2 restricted to degree-DEGREE monomials, by enumeration."""
    basis = list(itertools.combinations_with_replacement(range(VARIABLES), DEGREE // 2))
    out: dict[tuple[int, ...], int] = {}
    for a in basis:
        for b in basis:
            key = tuple(sorted(a + b))
            out[key] = out.get(key, 0) + 1
    return out


def main() -> None:
    rng = random.Random(1)
    rows = [[Fraction(rng.randint(-3, 3)) for _ in range(SIZE)] for _ in range(SIZE)]
    products = monomial_products()
    text = json.dumps(
        {"rank": rank(rows), "products": [[list(k), v] for k, v in sorted(products.items())]},
        indent=1,
    )
    print(hashlib.sha256(text.encode()).hexdigest())


if __name__ == "__main__":
    main()
