"""Per-manifold inventories of secondary characteristic classes.

:func:`report` lists the classes that a codimension-q manifold descriptor
gives on the classifying spaces of its diffeomorphism groups, from one rule
table.  Here v runs over ``vey.variable_set(q)``, C_i over the lower
co-spherical cycles and e over the braced classes of degree > 2q+1; a
global section exists when the manifold is compact and parallelizable.

    family              target       method             applies when
    gv[v]               MDiff_delta  gv_total           always
    alpha[v]            BDiff_delta  fiber_integration  always
    beta[v]             BbarDiff     section_pullback   a global section
    gamma[C_i][v]       BDiff_delta  cycle_integration  parallelizable or trivialized
    braced[e]           BbarDiff     braced             a global section, q >= 3
    gamma_braced[C_i]   BDiff_delta  cycle_integration  a global section, q = 3
    loop[t^d]           BbarDiff     loop_family        open and parallelizable

The loop family replaces every other row; gamma_braced records are reader
exercises.  Detection ranks are the variable-class counts from
:mod:`veycalc.vey` and are lower bounds; survival annotations are recorded
only where known.
"""

from __future__ import annotations

from .errors import UnsupportedInputError

TARGETS = ("BDiff_delta", "BbarDiff", "MDiff_delta")
METHODS = (
    "fiber_integration",
    "section_pullback",
    "cycle_integration",
    "braced",
    "gv_total",
    # loop_family extends the published method list: it carries the
    # loop-space generating-function data used for open manifolds.
    "loop_family",
)
SURVIVAL = ("yes", "unknown", "killed")


class ManifoldDescriptor:
    __slots__ = ("q", "compact", "closed", "orientable", "parallelizable",
                 "cospherical_degrees", "trivialized_over_cycles", "label")

    def __init__(self, q: int, compact: bool, closed: bool, orientable: bool,
                 parallelizable: bool, cospherical_degrees: tuple[tuple[int, int], ...] = (),
                 trivialized_over_cycles: bool = False, label: str = "") -> None:
        # cospherical_degrees: (degree k, count) with 0 < k < q; the fundamental
        # class (k = q) is implicit
        if q < 1:
            raise UnsupportedInputError("dimension q must be positive")
        if not orientable:
            raise UnsupportedInputError("non-orientable manifolds are unsupported")
        for i, (k, count) in enumerate(cospherical_degrees):
            if not 0 < k < q:
                raise UnsupportedInputError(
                    f"co-spherical degree {k} must lie strictly between 0 and {q}"
                )
            if count < 1:
                raise UnsupportedInputError("co-spherical counts must be positive")
            if any(k == j for j, _ in cospherical_degrees[:i]):
                raise UnsupportedInputError(f"co-spherical degree {k} is listed twice")
        self.q = q
        self.compact = compact
        self.closed = closed
        self.orientable = orientable
        self.parallelizable = parallelizable
        self.cospherical_degrees = cospherical_degrees
        self.trivialized_over_cycles = trivialized_over_cycles
        self.label = label

    def to_json_obj(self) -> dict:
        return {
            "q": self.q,
            "compact": self.compact,
            "closed": self.closed,
            "orientable": self.orientable,
            "parallelizable": self.parallelizable,
            "cospherical_degrees": [list(kc) for kc in self.cospherical_degrees],
            "trivialized_over_cycles": self.trivialized_over_cycles,
            "label": self.label,
        }


class ClassRecord:
    __slots__ = ("name", "degree", "target", "method", "detection_rank",
                 "survives_to_BDiff_delta", "note")

    def __init__(self, name: str, degree: int, target: str, method: str, detection_rank: int,
                 survives_to_BDiff_delta: str, note: str = "") -> None:
        if target not in TARGETS:
            raise ValueError(f"unknown target {target!r}")
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        if survives_to_BDiff_delta not in SURVIVAL:
            raise ValueError(f"unknown survival value {survives_to_BDiff_delta!r}")
        if detection_rank < 1:
            raise ValueError("detection_rank must be at least 1")
        self.name = name
        self.degree = degree
        self.target = target
        self.method = method
        self.detection_rank = detection_rank
        self.survives_to_BDiff_delta = survives_to_BDiff_delta
        self.note = note

    def __eq__(self, other) -> bool:
        if type(other) is not ClassRecord:
            return NotImplemented
        return self.to_json_obj() == other.to_json_obj()

    def to_json_obj(self) -> dict:
        obj = {
            "name": self.name,
            "degree": self.degree,
            "target": self.target,
            "method": self.method,
            "detection_rank": self.detection_rank,
            "survives_to_BDiff_delta": self.survives_to_BDiff_delta,
        }
        if self.note:
            obj["note"] = self.note
        return obj


def fiber_integrate_degree(n: int, q: int) -> int:
    """Degree after integration over a closed q-dimensional fiber."""
    if n < q:
        raise ValueError(f"cannot integrate a degree-{n} class over a {q}-fiber")
    return n - q


def brace_degree(i: int, j: int) -> int:
    """Degree of the brace product of classes in degrees i and j."""
    if i < 1 or j < 1:
        raise ValueError("brace degrees must be positive")
    return i + j - 1


def hurewicz_ok(r: int, k: int) -> str:
    """Rational Hurewicz range for an r-connected space in degree k."""
    if r < 1:
        raise ValueError("connectivity must be at least 1")
    if k <= 2 * r:
        return "iso"
    if k == 2 * r + 1:
        return "surjection"
    return "outside"


def report(m: ManifoldDescriptor) -> list[ClassRecord]:
    """Characteristic-class inventory for the descriptor; pure and deterministic."""
    q = m.q
    if not m.compact and m.parallelizable:
        # Open parallelizable case: only the loop-space family applies.
        return _loop_family_records(q)

    from . import vey

    names = [v.name() for v in vey.variable_set(q)]
    vq = len(names)
    top = 2 * q + 1
    has_section = m.compact and m.parallelizable
    # The lower co-spherical cycles, numbered C_1, C_2, ... in degree order, as
    # (i, (degree k, count of cycles in degree k)); the fundamental class is implicit.
    cycles = list(enumerate((kc for kc in sorted(m.cospherical_degrees) for _ in range(kc[1])), 1))
    # One row per family over the variable classes: (name prefix, degree,
    # target, method, detection rank, survival, applies).
    families = [
        ("gv", top, "MDiff_delta", "gv_total", vq, "yes", True),
        # the degree 2q+1 exceeds 2q, and the fundamental class is co-spherical
        ("alpha", fiber_integrate_degree(top, q), "BDiff_delta", "fiber_integration",
         vq, "yes", True),
        ("beta", top, "BbarDiff", "section_pullback", vq, "unknown", has_section),
    ] + [
        # needs the tangent bundle trivial over the cycle supports
        (f"gamma[C_{i}]", top - k, "BDiff_delta", "cycle_integration", count * vq,
         "killed" if q == 2 and k == 1 else "unknown",
         m.parallelizable or m.trivialized_over_cycles)
        for i, (k, count) in cycles
    ]
    records = [
        ClassRecord(f"{prefix}[{name}]", degree, target, method, rank, survival)
        for prefix, degree, target, method, rank, survival, applies in families
        if applies
        for name in names
    ]
    if has_section and q >= 3:
        extended, counts = vey.extended_basis(q)
        records += [
            ClassRecord(f"braced[{e.name()}]", e.degree, "BbarDiff", "braced",
                        counts[e.degree], "unknown")
            for e in extended
            if e.degree > top
        ]
        if q == 3:
            # cycle integration of the braced classes: sketched but not carried
            # out in detail in the source material, so marked reader-exercise
            records += [
                ClassRecord(f"gamma_braced[C_{i}][deg{d}]", d - k, "BDiff_delta",
                            "cycle_integration", count * vq, "unknown", note="reader-exercise")
                for i, (k, count) in cycles
                for d in counts
                if d > top
            ]

    records.sort(key=lambda r: (r.degree, r.method, r.name))
    return records


def _loop_family_records(q: int) -> list[ClassRecord]:
    from . import minimal_model

    cap = 2 * q + 2
    model = minimal_model.build_model(q, cap)
    series = minimal_model.loop_poincare(minimal_model.rank_table(model), q, cap)
    out = []
    for deg, coeff in enumerate(series.coefficients):
        if deg >= 1 and coeff > 0:
            out.append(
                ClassRecord(
                    name=f"loop[t^{deg}]",
                    degree=deg,
                    target="BbarDiff",
                    method="loop_family",
                    detection_rank=coeff,
                    survives_to_BDiff_delta="unknown",
                )
            )
    return out


def _preset_int(base: str, arg: str, noun: str) -> int:
    """The integer parameter ``arg`` of the preset ``base:arg``."""
    if not arg:
        raise UnsupportedInputError(f"{base} needs a {noun}, e.g. {base}:2")
    try:
        return int(arg)
    except ValueError as exc:
        raise UnsupportedInputError(
            f"bad preset {base}:{arg}; {base} expects an integer {noun}, e.g. {base}:2"
        ) from exc


# The compact, closed, orientable presets without a parameter: name -> (q,
# parallelizable, co-spherical degrees).
_FIXED_PRESETS = {
    "S1": (1, True, ()),
    "S2": (2, False, ()),
    "T2": (2, True, ((1, 2),)),
    "S3": (3, True, ()),
    "T3": (3, True, ((1, 3), (2, 3))),
}


def preset(name: str) -> ManifoldDescriptor:
    """Named descriptors: S1, S2, T2, Sigma_g:g, S3, T3, Rq:q."""
    base, colon, arg = name.partition(":")
    if base in _FIXED_PRESETS:
        if colon:
            raise UnsupportedInputError(f"bad preset {name}; {base} takes no argument")
        q, parallelizable, cospherical = _FIXED_PRESETS[base]
        return ManifoldDescriptor(q, True, True, True, parallelizable, cospherical, label=base)
    if base == "Sigma_g":
        g = _preset_int(base, arg, "genus")
        if g < 2:
            raise UnsupportedInputError("Sigma_g needs genus g >= 2")
        return ManifoldDescriptor(
            2,
            True,
            True,
            True,
            False,
            ((1, 2 * g),),
            trivialized_over_cycles=True,
            label=f"Sigma_{g}",
        )
    if base == "Rq":
        q = _preset_int(base, arg, "dimension")
        return ManifoldDescriptor(q, False, False, True, True, (), label=f"R{q}")
    raise UnsupportedInputError(f"unknown preset {name!r}")
