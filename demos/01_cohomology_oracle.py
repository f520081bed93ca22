"""Exact cohomology of the truncated Weil complexes.

Builds W_q / WO_q for small q and prints per-degree dimensions with
deterministic cocycle representatives, each a critical cell y_I c_J of
the Morse matching, all over exact rationals.
"""

from veycalc import complexes


def show(q: int, kind: str) -> None:
    cx = complexes.build_complex(q, kind)
    h = complexes.cohomology(cx)
    total = sum(len(b) for b in cx.bases.values())
    print(f"\n{kind}_{q}  (complex dimension {total}, top degree {cx.top_degree})")
    for n in sorted(h.dims):
        reps = "; ".join(m.label() for m in h.representatives[n])
        print(f"  H^{n} = Q^{h.dims[n]}   [{reps}]")


def main() -> None:
    for q, kind in [(1, "W"), (2, "WO"), (2, "W"), (3, "WO"), (3, "W")]:
        show(q, kind)

    print("\nPontrjagin survival: c2 is a cocycle but not a coboundary in WO_2:")
    from veycalc.gca import Element, Monomial

    cx = complexes.build_complex(2, "WO")
    c2 = Element.monomial(cx.signature, Monomial((), (0, 1)))
    print(
        f"  is_cocycle = {complexes.is_cocycle(cx, c2)}, "
        f"is_coboundary = {complexes.is_coboundary(cx, c2)}"
    )


if __name__ == "__main__":
    main()
