"""A certified algebraic Morse matching on the monomial basis of W_q, WO_q and I_q.

The least-index matching (Forman, Adv. Math. 134, 1998; Skoldberg, Trans.
AMS 358, 2006): for a cell y_I c_J let m be the least index in I together
with the parts of J that are y-indices of the signature.  If m = i_1 and
weight(J) + m <= q, the cell is a lower cell, matched with y_(I - m)
c_(J + m), the first term of its d with coefficient +1.  If m is a part of J
and not in I, it is the upper cell of y_(I + m) c_(J - m).  Every other cell
is critical.  A gradient path has length 1, so the matching is acyclic; a
critical cell has d = 0, so the Morse complex has a zero differential and the
critical cells themselves are a basis of cohomology.

Every cell is checked against gca.d_terms, the one formula for d, and the
critical cells are compared with the elimination oracle where it is
affordable and with the Vey basis past it.
"""

import pytest

from veycalc import complexes, gca, vey
from veycalc.gca import AlgebraSignature, Element, Monomial


def _match(m: Monomial, n: int, odd: tuple[int, ...], bound: int):
    """("lower", partner), ("upper", None) or ("critical", None) for a cell of
    degree n over the y-indices odd; bound is the weight cap.  An upper cell's
    partner is checked as the lower cell whose partner it is."""
    ys, cs = m
    i_1 = ys[0] if ys else None
    for least in odd:
        if least == i_1 or cs[least - 1]:
            break
    else:
        return "critical", None
    if least == i_1:
        if (n - 2 * sum(ys) + len(ys)) // 2 + least > bound:  # c_J has degree 2 weight
            return "critical", None
        return "lower", Monomial(ys[1:], cs[: least - 1] + (cs[least - 1] + 1,) + cs[least:])
    return "upper", None


def morse_cells(sig: AlgebraSignature, bound: int | None = None) -> dict[int, list[Monomial]]:
    """The critical cells per degree, in basis order, after checking every cell:
    a lower cell's first term of d is (1, partner), a critical cell has no term,
    and the upper cells of degree n+1 are exactly the partners of the lower
    cells of degree n.  Any failure raises AssertionError."""
    bound = sig.q if bound is None else bound
    odd = tuple(sorted(sig.odd_indices))
    critical: dict[int, list[Monomial]] = {}
    partners: set[Monomial] = set()  # of the lower cells one degree down
    for n, basis in gca.iter_basis(sig):
        lowers, uppers, next_partners = 0, 0, set()
        for m in basis:
            kind, partner = _match(m, n, odd, bound)
            if kind == "upper":
                assert m in partners, m
                uppers += 1
                continue
            first = next(gca.d_terms(m, sig.q), None)
            if kind == "lower":
                assert first == (1, partner), (m, first, partner)
                lowers += 1
                next_partners.add(partner)
            else:
                assert first is None, (m, first)
                critical.setdefault(n, []).append(m)
        assert uppers == len(partners), n
        assert lowers == len(next_partners), n
        partners = next_partners
    assert not partners
    return critical


ORACLE_CASES = (
    [(q, "W") for q in range(1, 9)]
    + [(q, "WO") for q in range(1, 13)]
    + [(q, "I") for q in range(1, 9)]
)


@pytest.mark.parametrize("q, kind", ORACLE_CASES, ids=[f"{k}{q}" for q, k in ORACLE_CASES])
def test_critical_cells_are_the_oracle_representatives(q, kind):
    # the same monomials, in the same order, each with coefficient 1
    sig = complexes.signature_for(q, kind)
    cells = morse_cells(sig)
    oracle = complexes.cohomology(complexes.build_complex(q, kind, q_cap=q))
    assert oracle.representatives == {
        n: [Element.monomial(sig, m) for m in ms] for n, ms in cells.items()
    }


@pytest.mark.parametrize("q, kind", [(10, "W"), (16, "WO")])
def test_critical_cells_past_the_oracle_are_the_vey_basis(q, kind):
    # past the q the elimination oracle affords; above degree 2q every class
    # is Vey-form, in the same canonical order
    sig = complexes.signature_for(q, kind)
    cells = morse_cells(sig)
    above = [m for n, ms in sorted(cells.items()) if n > 2 * q for m in ms]
    assert above == [v.monomial for v in vey.vey_basis(q, kind)]


@pytest.mark.parametrize("kind", ["W", "WO"])
@pytest.mark.parametrize("off", [-1, 1])
def test_weight_bound_off_by_one_is_caught(kind, off):
    sig = complexes.signature_for(5, kind)
    with pytest.raises(AssertionError):
        morse_cells(sig, bound=sig.q + off)
