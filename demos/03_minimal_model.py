"""Bigraded minimal models of the truncated polynomial algebras I_q.

Builds the model stagewise, prints the generator rank table (the dual
homotopy data) with each generator's differential, and expands loop-space
Poincare series for the delooped generating sets.
"""

from veycalc import minimal_model


def main() -> None:
    for q, cap in [(1, 8), (2, 8), (3, 10)]:
        model = minimal_model.build_model(q, cap)
        print(f"\nminimal model of I_{q}, certified through degree {cap - 1}:")
        for deg, gids in sorted(model.generators.items()):
            print(f"  degree {deg}: {', '.join(gids)}")
        for gid, d in sorted(model.differentials.items()):
            if d:
                expr = " + ".join(
                    model.algebra.word_label(w) if c == 1 else f"{c}*{model.algebra.word_label(w)}"
                    for w, c in sorted(d.items())
                )
                print(f"  d({gid}) = {expr}")
        print(f"  quasi-iso check: {all(model.quasi_iso_check.values())}")

    print("\nloop-space series (delooping the q=2 rank table by q):")
    model = minimal_model.build_model(2, 8)
    ranks = minimal_model.rank_table(model)
    series = minimal_model.loop_poincare(ranks, 2, 10)
    print(f"  ranks {ranks} -> coefficients {series}")

    print("\nclosed forms: even generator -> geometric, odd -> two terms:")
    print("  {2:1}:", minimal_model.loop_poincare({2: 1}, 0, 8))
    print("  {3:1}:", minimal_model.loop_poincare({3: 1}, 0, 8))


if __name__ == "__main__":
    main()
