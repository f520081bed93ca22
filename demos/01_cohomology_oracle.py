"""Exact cohomology of the truncated Weil complexes.

Builds W_q / WO_q for small q and prints per-degree dimensions with
deterministic cocycle representatives, each a critical cell y_I c_J of
the Morse matching, all over exact rationals.  A complex is its signature
AlgebraSignature(q, kind): every function of veycalc.complexes takes one.
"""

from veycalc import complexes
from veycalc.gca import AlgebraSignature, Monomial, top_degree


def show(q: int, kind: str) -> None:
    sig = AlgebraSignature(q, kind)
    h = complexes.cohomology(sig)
    total = complexes.dimension_estimate(q, kind)
    print(f"\n{kind}_{q}  (complex dimension {total}, top degree {top_degree(sig)})")
    for n in sorted(h.dims):
        reps = "; ".join(m.label() for m in h.representatives[n])
        print(f"  H^{n} = Q^{h.dims[n]}   [{reps}]")


def main() -> None:
    for q, kind in [(1, "W"), (2, "WO"), (2, "W"), (3, "WO"), (3, "W")]:
        show(q, kind)

    print("\nPontrjagin survival: c2 represents a class of H^4(WO_2):")
    reps = complexes.cohomology(AlgebraSignature(2, "WO")).representatives[4]
    print(f"  c2 in representatives[4] = {Monomial((), (0, 1)) in reps}")


if __name__ == "__main__":
    main()
