"""Per-manifold inventories of secondary characteristic classes.

:func:`report` lists the classes that a codimension-q manifold descriptor
gives on the classifying spaces of its diffeomorphism groups, from one rule
table.  A descriptor is orientable and has no boundary: ``closed`` reads
``compact`` and ``orientable`` reads True.  Here v runs over
``vey.variable_set(q)``, C_i over the lower co-spherical cycles and e over
the braced classes of degree > 2q+1; a global section exists when the
manifold is compact and parallelizable.

    family              target       method             applies when
    gv[v]               MDiff_delta  gv_total           always
    alpha[v]            BDiff_delta  fiber_integration  always
    beta[v]             BbarDiff     section_pullback   a global section
    gamma[C_i][v]       BDiff_delta  cycle_integration  parallelizable or trivialized
    braced[e]           BbarDiff     braced             a global section, kappa(q) >= 1
    gamma_braced[C_i]   BDiff_delta  cycle_integration  a global section, q = 3
    loop[t^d]           BbarDiff     loop_family        open and parallelizable

The loop family replaces every other row, and its method extends the published
list with the loop-space data of open manifolds; gamma_braced records are
reader exercises, the only records with a ``note``.  Each record is the dict
that ``docs/schemas/manifold_report.json``, the one statement of the record
vocabulary, describes, so the CLI prints the list as it stands.  Detection
ranks are the variable-class counts from :mod:`veycalc.vey` and are lower
bounds; survival annotations are recorded only where known.  The loop family
of ``Rq:q`` reads its coefficient of t^k from the model generators up to
degree k+q, and its model is certified through degree 2q+1, so the
coefficients through t^(q+1) are exact and those from t^(q+2) to t^(2q+2) are
lower bounds: each is at most the value a model built to degree 3q+3 gives, as
the tests check for q = 2..6.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import UnsupportedInputError, check_int


class _Descriptor(NamedTuple):
    q: int
    compact: bool
    parallelizable: bool
    cospherical_degrees: tuple[tuple[int, int], ...]  # (degree k, count), 0 < k < q
    trivialized_over_cycles: bool
    label: str


class ManifoldDescriptor(_Descriptor):
    """A compact or open, oriented manifold without boundary, validated, with the
    co-spherical list stored as (k, count) tuples; the fundamental class is implicit."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, q: int, compact: bool, parallelizable: bool,
                cospherical_degrees: tuple[tuple[int, int], ...] = (),
                trivialized_over_cycles: bool = False, label: str = ""):
        check_int("dimension q", q, 1, UnsupportedInputError)
        if not isinstance(cospherical_degrees, (tuple, list)):
            raise UnsupportedInputError(
                f"co-spherical degrees {cospherical_degrees!r} must be a tuple of pairs")
        for i, entry in enumerate(cospherical_degrees):
            if not isinstance(entry, (tuple, list)) or len(entry) != 2:
                raise UnsupportedInputError(
                    f"co-spherical entry {entry!r} must be a (degree, count) pair")
            k, count = entry
            if not 0 < check_int("co-spherical degree", k, error=UnsupportedInputError) < q:
                raise UnsupportedInputError(
                    f"co-spherical degree {k} must lie strictly between 0 and {q}"
                )
            check_int("co-spherical count", count, 1, UnsupportedInputError)
            if any(k == j for j, _ in cospherical_degrees[:i]):
                raise UnsupportedInputError(f"co-spherical degree {k} is listed twice")
        for name, flag in (("compact", compact), ("parallelizable", parallelizable),
                           ("trivialized_over_cycles", trivialized_over_cycles)):
            if type(flag) is not bool:
                raise UnsupportedInputError(f"{name} must be True or False, got {flag!r}")
        if type(label) is not str:
            raise UnsupportedInputError(f"label must be a string, got {label!r}")
        return super().__new__(cls, q, compact, parallelizable,
                               tuple((k, count) for k, count in cospherical_degrees),
                               trivialized_over_cycles, label)

    closed = property(lambda self: self.compact)  # no descriptor has a boundary
    orientable = property(lambda self: True)  # nor lacks an orientation

    def to_json_obj(self) -> dict:
        return {**self._asdict(), "closed": self.closed, "orientable": self.orientable,
                "cospherical_degrees": [list(kc) for kc in self.cospherical_degrees]}


def _record(name: str, degree: int, target: str, method: str, rank: int,
            survival: str) -> dict:
    """One record of ``docs/schemas/manifold_report.json``, without a note."""
    return {"name": name, "degree": degree, "target": target, "method": method,
            "detection_rank": rank, "survives_to_BDiff_delta": survival}


def fiber_integrate_degree(n: int, q: int) -> int:
    """Degree after integration over a closed q-dimensional fiber."""
    if check_int("degree", n) < check_int("q", q, 1):
        raise ValueError(f"cannot integrate a degree-{n} class over a {q}-fiber")
    return n - q


def report(m: ManifoldDescriptor) -> list[dict]:
    """Characteristic-class inventory for the descriptor, as the ``records`` of
    its ``manifold_report.json`` document, sorted by (degree, method, name);
    pure and deterministic."""
    q = m.q
    if not m.compact and m.parallelizable:
        # Open parallelizable case: only the loop-space family applies.
        return _loop_family_records(q)

    from . import vey

    names = [v.label() for v in vey.variable_set(q)]
    vq = len(names)
    top = 2 * q + 1
    has_section = m.compact and m.parallelizable
    # The lower co-spherical cycles C_1, C_2, ... in degree order, as (i, (degree k,
    # count)), listed only where the tangent bundle is trivial over their supports.
    cycles = list(enumerate((kc for kc in sorted(m.cospherical_degrees) for _ in range(kc[1])), 1)
                  if m.parallelizable or m.trivialized_over_cycles else ())
    # One row per family over the variable classes: (name prefix, degree,
    # target, method, detection rank, survival).
    families = [
        ("gv", top, "MDiff_delta", "gv_total", vq, "yes"),
        # the degree 2q+1 exceeds 2q, and the fundamental class is co-spherical
        ("alpha", fiber_integrate_degree(top, q), "BDiff_delta", "fiber_integration",
         vq, "yes"),
    ] + [
        (f"gamma[C_{i}]", top - k, "BDiff_delta", "cycle_integration", count * vq,
         "killed" if q == 2 and k == 1 else "unknown")
        for i, (k, count) in cycles
    ]
    if has_section:
        families.append(("beta", top, "BbarDiff", "section_pullback", vq, "unknown"))
    records = [
        _record(f"{prefix}[{name}]", degree, target, method, rank, survival)
        for prefix, degree, target, method, rank, survival in families
        for name in names
    ]
    if has_section and vey.kappa(q):
        extended, counts = vey.extended_basis(q)
        records += [
            _record(f"braced[{e.label()}]", d, "BbarDiff", "braced", counts[d], "unknown")
            for d, e in extended
            if d > top
        ]
        if q == 3:
            # cycle integration of the braced classes: sketched but not carried
            # out in detail in the source material, so marked reader-exercise
            records += [
                {**_record(f"gamma_braced[C_{i}][deg{d}]", d - k, "BDiff_delta",
                           "cycle_integration", count * vq, "unknown"), "note": "reader-exercise"}
                for i, (k, count) in cycles
                for d in counts
                if d > top
            ]

    records.sort(key=lambda r: (r["degree"], r["method"], r["name"]))
    return records


def _loop_family_records(q: int) -> list[dict]:
    from . import minimal_model

    cap = 2 * q + 2
    model = minimal_model.build_model(q, cap)
    series = minimal_model.loop_poincare(minimal_model.rank_table(model), q, cap)
    return [
        _record(f"loop[t^{deg}]", deg, "BbarDiff", "loop_family", coeff, "unknown")
        for deg, coeff in enumerate(series)
        if deg >= 1 and coeff > 0
    ]


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


# The compact presets without a parameter, shared: a descriptor cannot change.
_FIXED_PRESETS = {d.label: d for d in (
    ManifoldDescriptor(1, True, True, label="S1"),
    ManifoldDescriptor(2, True, False, label="S2"),
    ManifoldDescriptor(2, True, True, ((1, 2),), label="T2"),
    ManifoldDescriptor(3, True, True, label="S3"),
    ManifoldDescriptor(3, True, True, ((1, 3), (2, 3)), label="T3"),
)}


def preset(name: str) -> ManifoldDescriptor:
    """Named descriptors: S1, S2, T2, Sigma_g:g, S3, T3, Rq:q."""
    base, colon, arg = name.partition(":")
    if base in _FIXED_PRESETS:
        if colon:
            raise UnsupportedInputError(f"bad preset {name}; {base} takes no argument")
        return _FIXED_PRESETS[base]
    if base == "Sigma_g":
        g = _preset_int(base, arg, "genus")
        if g < 2:
            raise UnsupportedInputError("Sigma_g needs genus g >= 2")
        return ManifoldDescriptor(
            2,
            True,
            False,
            ((1, 2 * g),),
            trivialized_over_cycles=True,
            label=f"Sigma_{g}",
        )
    if base == "Rq":
        q = _preset_int(base, arg, "dimension")
        return ManifoldDescriptor(q, False, True, (), label=f"R{q}")
    raise UnsupportedInputError(f"unknown preset {name!r}")
