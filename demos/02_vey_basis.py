"""The combinatorial Vey basis, classification, and oracle cross-check.

Enumerates y_I c_J monomials cut out by the index inequalities, classifies
each group of them that shares a degree and a y-part (generalized
Godbillon-Vey / residual / rigid / variable), and runs the validation that
compares the enumeration against the exact cohomology.
"""

from veycalc import vey
from veycalc.gca import Monomial


def main() -> None:
    for q in (1, 2, 3):
        for kind in ("W", "WO"):
            groups = vey.vey_groups(q, kind)
            count = sum(len(c_parts) for _, _, c_parts, _ in groups)
            print(f"\nVey basis of {kind}_{q} ({count} classes):")
            for degree, y_part, c_parts, flags in groups:
                marks = [name for name, on in zip(("gv", "residual", "rigid", "variable"), flags)
                         if on]
                for c_part in c_parts:
                    name = Monomial(y_part, c_part).label()
                    print(f"  deg {degree:2d}  {name:12s} {', '.join(marks)}")

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
