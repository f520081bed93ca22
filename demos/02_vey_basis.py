"""The combinatorial Vey basis, classification, and oracle cross-check.

Enumerates y_I c_J monomials cut out by the index inequalities, classifies
each one (generalized Godbillon-Vey / residual / rigid / variable), and runs
the validation that compares the enumeration against the exact cohomology.
"""

from veycalc import vey


def main() -> None:
    for q in (1, 2, 3):
        for kind in ("W", "WO"):
            classes = vey.vey_basis(q, kind)
            print(f"\nVey basis of {kind}_{q} ({len(classes)} classes):")
            for c in classes:
                flags = [
                    name
                    for name, on in [
                        ("gv", c.is_generalized_gv),
                        ("residual", c.is_residual),
                        ("rigid", c.is_rigid),
                        ("variable", c.is_variable_candidate),
                    ]
                    if on
                ]
                print(f"  deg {c.degree:2d}  {c.name():12s} {', '.join(flags)}")

    print("\nvariable-class counts:", {q: vey.v_count(q) for q in (1, 2, 3)})
    print("kappa:", {q: vey.kappa(q) for q in (1, 3, 7, 11)})
    braced, counts = vey.extended_basis(3)
    print("braced extension for q=3, per-degree counts:", counts)
    print("  degree 10:", ", ".join(m.label() for d, m in braced if d == 10))

    print("\ncross-validation of WO_3 against the oracle:")
    report = vey.validate_vey(3, "WO")  # the validation_report.json document
    for check in report["per_degree"]:
        note = f"  ({'; '.join(check['notes'])})" if check["notes"] else ""
        print(
            f"  deg {check['degree']:2d}: enumerated {check['enumerated']}, "
            f"oracle {check['oracle_dim']}, independent={check['independent']}{note}"
        )
    print("overall:", "ok" if report["ok"] else "FAILED")


if __name__ == "__main__":
    main()
