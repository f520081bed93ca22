"""Characteristic-class inventories for the preset manifolds.

For each preset the report lists every class the construction rules
produce: total classes, fiber integrations, section pullbacks, cycle
integrations over co-spherical cycles, braced classes, and (for open
manifolds) the loop-space families.
"""

from veycalc import manifold


def main() -> None:
    for name in ("S1", "S2", "T2", "Sigma_g:2", "S3", "T3", "Rq:2"):
        descriptor = manifold.preset(name)
        records = manifold.report(descriptor)  # the records of manifold_report.json
        print(f"\n{name} (q={descriptor.q}, {len(records)} records):")
        for r in records:
            note = f"  [{r['note']}]" if "note" in r else ""
            print(
                f"  deg {r['degree']:2d}  rank {r['detection_rank']:2d}  "
                f"{r['method']:18s} {r['target']:12s} survives={r['survives_to_BDiff_delta']:8s}"
                f" {r['name']}{note}"
            )

    print("\ndegree arithmetic helper:")
    print("  fiber_integrate_degree(7, 3) =", manifold.fiber_integrate_degree(7, 3))


if __name__ == "__main__":
    main()
