"""Bigraded minimal model of the truncated polynomial algebra I_q.

The target algebra has zero differential, so the model is built in one pass
per degree n = 2..cap, lower degree first: H^n(model) is solved once, from one
elimination of d_n over word columns that never move, whose image echelon is
stage n + 1's im d_n as it stands; new degree-(n-1) generators kill the kernel
of H^n(model) -> I_q^n, and (below the cap) new closed degree-n generators hit
its cokernel.  I_q has no relation below degree 2q+2, so the model is built
over I_min(q, cap//2), alike through degree cap.  psi is a monomial map: each
x generator goes to one c_J, which ``ModelStage.images`` holds as its exponent
vector, and each w to 0, held as None.  I_q^n is read from gca.c_parts, the
one c-exponent enumerator.  The quasi-iso check takes dim H^n = words -
rank d_n - rank d_(n-1) against dim I_q^n in closed form, and each word basis
listed must have the size gca.free_series counts.  Generator counts per degree
are the dual homotopy ranks; the free-algebra Poincare series of a rank table
after delooping describes the loop-space homology families.

A degree of more than ``WORD_BUDGET`` words, counted before any is listed,
raises ``ResourceBudgetError`` with the count as its estimate.  Everything is
exact and deterministic.  Coefficients are ints while they are integral; a
Fraction only comes from the elimination in :mod:`veycalc.linalg`, past a
pivot other than +-1.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import NamedTuple

from . import gca, linalg
from .errors import ResourceBudgetError, check_int
from .gca import Coeff

WORD_BUDGET = 50_000


# A word in the free algebra is a sparse, index-sorted exponent tuple:
# ((gen_index, exponent), ...).  Odd-degree generators square to zero.
Word = tuple[tuple[int, int], ...]
FreeElement = dict[Word, Coeff]

UNIT_WORD: Word = ()


def add_into(out: FreeElement, terms: FreeElement, k: Coeff = 1) -> None:
    """out += k * terms, in place, dropping the words that cancel."""
    for w, c in terms.items():
        nc = out.get(w, 0) + k * c
        if nc:
            out[w] = nc
        else:
            out.pop(w, None)


class FreeAlgebra:
    """Free graded-commutative algebra on generators appended in nondecreasing
    degree, each a positive int: add_generator refuses any other, by name."""

    def __init__(self) -> None:
        self.gids: list[str] = []
        self.degrees: list[int] = []
        self.diffs: list[FreeElement] = []
        self.generators: dict[int, list[str]] = {}  # degree -> gids, in order added

    def add_generator(self, gid: str, degree: int, diff: FreeElement) -> int:
        check_int("generator degree", degree, self.degrees[-1] if self.degrees else 1)
        self.gids.append(gid)
        self.degrees.append(degree)
        self.diffs.append(diff)
        self.generators.setdefault(degree, []).append(gid)
        return len(self.gids) - 1

    # -- words -----------------------------------------------------------

    def word_label(self, w: Word) -> str:
        return "".join(self.gids[i] + (f"^{e}" if e > 1 else "") for i, e in w) or "1"

    def mul_words(self, a: Word, b: Word) -> tuple[int, Word] | None:
        """(Koszul sign, product), or None if an odd generator repeats: the
        odd generators of each word, in index order, merge as gca's y's do."""
        degrees = self.degrees
        merged = gca._merge_y(*(tuple(i for i, _ in w if degrees[i] % 2) for w in (a, b)))
        if merged is None:
            return None
        exps: dict[int, int] = dict(a)
        for i, e in b:
            exps[i] = exps.get(i, 0) + e
        return merged[0], tuple(sorted(exps.items()))

    # -- elements ----------------------------------------------------------

    def mul(self, a: FreeElement, b: FreeElement) -> FreeElement:
        out: FreeElement = {}
        for wa, ca in a.items():
            for wb, cb in b.items():
                prod = self.mul_words(wa, wb)
                if prod is None:
                    continue
                sign, w = prod
                nc = out.get(w, 0) + sign * ca * cb
                if nc:
                    out[w] = nc
                else:
                    out.pop(w, None)
        return out

    def differential(self, a: FreeElement) -> FreeElement:
        """d by the Leibniz rule.  For word = prefix * g^e * suffix, the term of g
        is (-1)^(|prefix| + |dg| |suffix|) * factor * (word / g) * dg, where the
        factor is e for even g and 1 for odd g: dg moves past the suffix."""
        out: FreeElement = {}
        for word, coeff in a.items():
            suffix_deg = sum(self.degrees[i] * e for i, e in word)
            prefix_deg = 0
            for t, (idx, e) in enumerate(word):
                dg = self.diffs[idx]
                gdeg = self.degrees[idx]
                suffix_deg -= gdeg * e
                if dg:
                    block: Word = ((idx, e - 1),) if e > 1 else UNIT_WORD
                    quotient = word[:t] + block + word[t + 1 :]
                    sign = (-1) ** (prefix_deg + (gdeg + 1) * suffix_deg)
                    factor = coeff * sign * (e if gdeg % 2 == 0 else 1)
                    add_into(out, self.mul({quotient: factor}, dg))
                prefix_deg += gdeg * e
        return out

    def basis(self, degree: int) -> list[Word]:
        """All words of the given total degree, in sorted order: generators are
        taken in index order with exponents ascending.  add_generator keeps their
        degrees nondecreasing, so a branch ends at the first that exceeds what remains."""
        out: list[Word] = []
        degrees = self.degrees

        def rec(start: int, remaining: int, acc: Word) -> None:
            if remaining == 0:
                out.append(acc)
                return
            for idx in range(start, len(degrees)):
                d = degrees[idx]
                if d > remaining:
                    break
                for e in range(1, (1 if d % 2 == 1 else remaining // d) + 1):
                    rec(idx + 1, remaining - d * e, acc + ((idx, e),))

        rec(0, degree, UNIT_WORD)
        return out


class ModelStage(NamedTuple):
    q: int
    degree_cap: int
    algebra: FreeAlgebra
    images: dict[str, tuple[int, ...] | None]  # psi into I_q: c-exponents, None for 0
    quasi_iso_check: dict[int, bool]

    # read from the algebra, which holds each generator once
    generators = property(lambda self: self.algebra.generators)  # degree -> generator ids
    differentials = property(lambda self: dict(zip(self.algebra.gids, self.algebra.diffs)))

    def to_json_obj(self) -> dict:
        """The whole model.json document, as `model` prints it; `ranks` is rank_table's."""
        alg = self.algebra
        return {
            "q": self.q,
            "degree_cap": self.degree_cap,
            "generators": {str(d): list(g) for d, g in sorted(self.generators.items())},
            "ranks": {str(d): r for d, r in rank_table(self).items()},
            "differentials": {
                gid: sorted(
                    ({"word": alg.word_label(w), "coeff": str(c)} for w, c in d.items()),
                    key=lambda t: t["word"],
                )
                for gid, d in self.differentials.items()
                if d
            },
            "quasi_iso_check": {str(n): ok for n, ok in sorted(self.quasi_iso_check.items())},
        }


class _ModelBuilder:
    def __init__(self, q: int, cap: int):
        self.q = q
        self.cap = cap
        self.alg = FreeAlgebra()
        self._c_parts: list[tuple[int, ...] | None] = []  # psi(g) as c-exponents, None for 0
        # each word keeps the column it is first given, for the whole build
        self._columns: dict[Word, int] = defaultdict(itertools.count().__next__)
        self._image = linalg.Echelon()  # im d_(n-1) for stage n, over word columns
        # d of a word never changes: generators are appended, with d set once
        self._d_cache: dict[Word, linalg.SparseRow] = {}
        self._counts = [1] + [0] * (cap + 1)  # words per degree through cap + 1

    def _check_budget(self, n: int) -> None:
        """Refuse a degree with more than WORD_BUDGET words, from its count."""
        count = self._counts[n]
        if count > WORD_BUDGET:
            raise ResourceBudgetError(
                f"free-algebra basis at degree {n} has {count} words, "
                f"over the budget of {WORD_BUDGET}",
                estimate=count,
            )

    def _basis(self, n: int) -> list[Word]:
        self._check_budget(n)  # before a word is listed
        words = self.alg.basis(n)
        if len(words) != self._counts[n]:  # the enumerator against its count
            raise AssertionError(f"degree {n} lists {len(words)} words, not {self._counts[n]}")
        return words

    def _psi_vector(self, elem: FreeElement, target_index) -> linalg.SparseRow:
        """psi of a word is a monomial map: its generators' c-exponents summed."""
        v: linalg.SparseRow = {}
        for w, c in elem.items():
            parts = [(e, self._c_parts[idx]) for idx, e in w]
            if all(p for _, p in parts):  # else a w factor, which psi sends to 0
                exps = tuple(sum(e * p[j] for e, p in parts) for j in range(self.q))
                i = target_index.get(exps)  # None past the weight cap
                if i is not None:
                    v[i] = v.get(i, 0) + c
        return v

    def _d_column(self, w: Word) -> linalg.SparseRow:
        """d of a word, as a sparse vector over word columns."""
        dw = self._d_cache.get(w)
        if dw is None:
            dw = self.alg.differential({w: 1})
            dw = self._d_cache[w] = {self._columns[t]: c for t, c in dw.items()}
        return dw

    def _cohomology_reps(self, n: int) -> list[FreeElement]:
        """Cocycle representatives of a basis of H^n(model), from the one column
        pass over d_n, whose image echelon is stage n + 1's im d_n as it stands:
        each word keeps its column, and the only degree-n words added in
        between are closed x generators, so the span does not change."""
        basis_n = self._basis(n)
        if not basis_n:  # d_n = 0, and the kept image, over no words then, is empty
            return []
        self._check_budget(n + 1)  # d_n's target is counted, never listed
        kernel, image = linalg.column_pass([self._d_column(w) for w in basis_n])
        cols = [self._columns[w] for w in basis_n]
        reps = linalg.cohomology([{cols[j]: x for j, x in v.items()} for v in kernel], self._image)
        self._image = image
        return [{w: v[c] for w, c in zip(basis_n, cols) if c in v} for v in reps]

    def _add_generator(self, prefix: str, degree: int, diff: FreeElement, c_part=None) -> None:
        gid = f"{prefix}{degree}_{len(self.alg.generators.get(degree, ()))}"
        self.alg.add_generator(gid, degree, diff)
        gca.free_series((degree,), self.cap + 1, self._counts)
        self._c_parts.append(c_part)

    def _stage(self, n: int) -> None:
        """Stage n: solve H^n(model) once; one column pass gives psi's kernel,
        killed by degree-(n-1) generators w, and image, whose cokernel closed
        degree-n generators x hit below the cap.  The w only remove classes that
        psi sends to 0 and add no degree-n words (generators have degree >= 2),
        so one solve serves both.  I_q^n is spanned by the c_J of weight n / 2."""
        target_basis = gca.c_parts(self.q, n // 2) if n % 2 == 0 and n <= 2 * self.q else ()
        target_index = {c: i for i, c in enumerate(target_basis)}
        reps = self._cohomology_reps(n)
        kernel, image = linalg.column_pass([self._psi_vector(r, target_index) for r in reps])
        for combo in kernel:
            target: FreeElement = {}
            for j in sorted(combo):
                add_into(target, reps[j], combo[j])
            self._add_generator("w", n - 1, target)
        if n == self.cap:
            return
        for pick, c_part in enumerate(target_basis):
            if image.insert({pick: 1}):
                self._add_generator("x", n, {}, c_part)

    def build(self) -> ModelStage:
        for n in range(2, self.cap + 1):
            self._stage(n)
        target_dims = gca.c_series(self.q) + [0] * self.cap  # dim I_q^n, not enumerated
        check, rank = {}, {1: 0}  # rank d_n; no word has degree 1
        for n in range(2, self.cap):
            basis_n = self._basis(n)
            rank[n] = linalg.Echelon(map(self._d_column, basis_n)).rank
            check[n] = len(basis_n) - rank[n] - rank[n - 1] == target_dims[n]
        alg = self.alg
        model = ModelStage(self.q, self.cap, alg, dict(zip(alg.gids, self._c_parts)), check)
        _assert_minimal(model)
        return model


def _assert_minimal(model: ModelStage) -> None:
    for gid, d in model.differentials.items():
        for w in d:
            if len(w) == 1 and w[0][1] == 1:
                raise AssertionError(
                    f"differential of {gid} has the linear term {model.algebra.word_label(w)}"
                )


def check_input(q: int, degree_cap: int) -> None:
    """Refuse a q or a degree cap that no model has, before any work."""
    check_int("q", q, 1)
    check_int("degree cap", degree_cap, 2)


def build_model(q: int, degree_cap: int) -> ModelStage:
    """Stagewise bigraded model of I_q, certified through degree_cap - 1."""
    check_input(q, degree_cap)
    return _ModelBuilder(min(q, degree_cap // 2), degree_cap).build()._replace(q=q)


def rank_table(model: ModelStage) -> dict[int, int]:
    """Dual homotopy ranks: degree -> generator count of the model, by degree."""
    return {d: len(g) for d, g in sorted(model.generators.items())}


def loop_poincare(ranks: dict[int, int], loops: int, cap: int) -> list[int]:
    """Poincare series coefficients, t^0..t^cap, of the free graded-commutative
    algebra on the delooped generating set ranks (degree -> count, as rank_table
    returns): each degree-m generator shifts to m - loops, dropping nonpositive
    degrees (gca.free_series)."""
    check_int("loops", loops, 0)
    check_int("cap", cap, 0)
    for deg, count in ranks.items():
        check_int("degree", deg, 1)
        check_int("count", count, 0)
    degrees = (deg - loops for deg, count in ranks.items() if deg > loops for _ in range(count))
    return gca.free_series(degrees, cap)
