"""Job spaces of the benchmark workloads and the seeded job lists drawn from them.

A job is a tuple of `veycalc` CLI arguments.  Each workload is a list of
slots; a slot is a tuple of interchangeable jobs of about the same cost (the
same computation with another output format, a neighbouring parameter, ...)
plus how many of them a run draws.  The seed decides which jobs fill the
slots and in which order they run, so different seeds give different job
lists with the same cost profile.  The job space of a workload, the union
of its slots, is finite, and every job in it has a reference digest in
`references.json`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FORMATS = ("json", "table")
# Raises model_degree_cap to 18; the only job inputs that leave the default caps.
MODEL_CONFIG = "perfbench/model_cap18.json"
# The eight q = 1..8 values of v_q, the number of variable classes of WO_q.
V_Q = (1, 2, 3, 6, 8, 14, 17, 29)
RUN_S = 20.0


@dataclass(frozen=True)
class Slot:
    jobs: tuple[tuple[str, ...], ...]
    draws: int


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple[Slot, ...]
    # replay: every drawn request is sent this many times against one cache.
    repeats: int = 1
    shared_cache: bool = False


def _fmt(*argv: str) -> tuple[tuple[str, ...], ...]:
    return tuple((*argv, "--format", f) for f in FORMATS)


def _cohomology(kind: str, q: int):
    return _fmt("cohomology", "--complex", kind, "--q", str(q))


def _validate(kind: str, q: int):
    return _fmt("validate", "--complex", kind, "--q", str(q))


def _model(q: int, degree: int):
    extra = ("--config", MODEL_CONFIG) if degree > 12 else ()
    return _fmt("model", "--q", str(q), "--max-degree", str(degree), *extra)


def _vey(kind: str, q: int):
    return _fmt("vey", "--complex", kind, "--q", str(q))


def _preset(name: str):
    return _fmt("manifold", "--preset", name)


# Co-spherical cycle lists for `manifold --dim`; the class count grows with
# them but stays far below the cost of the Vey enumeration behind it.
COSPHERICAL = ("1:2", "1:2,3:1", "2:1,4:2")


def _dim(q: int):
    out = []
    for cos in COSPHERICAL:
        out.extend(
            _fmt("manifold", "--dim", str(q), "--compact", "--parallelizable",
                 "--cospherical", cos)
        )
    return tuple(out)


def _kappa(q: int):
    return (("kappa", "--q", str(q)),)


def _pool(*groups) -> tuple[tuple[str, ...], ...]:
    return tuple(job for group in groups for job in group)


# The draws fill about RUN_S seconds on a 2-core x86 machine.  Every slot
# holds jobs of one cost band, so the cost profile of a run is the same for
# every seed.  The counts put the median job (job_p50_s) well inside the band
# of light jobs, which interpreter start-up dominates, and the 11th-slowest
# job (job_tail_s) well inside one band of heavy jobs, away from its edges,
# where the job-to-job noise of a shared machine would move it most.  A
# draw count that is a multiple of its slot's size fixes the slot's mix.
ORACLE = Workload(
    "oracle",
    (
        # validate W_5 runs a little longer than cohomology W_5; two of them
        # above fourteen cohomology jobs put the 11th-slowest job in the
        # middle of one band instead of on the step between the two.
        Slot(_validate("W", 5), draws=2),
        Slot(_cohomology("W", 5), draws=14),
        Slot(_pool(_cohomology("W", 4), _cohomology("WO", 6), _validate("W", 4), _validate("WO", 6)), draws=2),
        Slot(
            _pool(
                *(_cohomology("W", q) for q in range(1, 4)),
                *(_cohomology("WO", q) for q in range(1, 5)),
                *(_cohomology("I", q) for q in range(1, 7)),
                *(_validate("W", q) for q in range(1, 4)),
                *(_validate("WO", q) for q in range(1, 5)),
            ),
            draws=30,
        ),
    ),
)

MODEL = Workload(
    "model",
    (
        Slot(_pool(_model(2, 18), _model(3, 18)), draws=2),
        # One job only: q = 2 and q = 3, and even JSON and table, differ
        # enough that a mix would put the 11th-slowest job on a step.
        Slot((("model", "--q", "3", "--max-degree", "16", "--config", MODEL_CONFIG, "--format", "json"),), draws=18),
        Slot(_pool(_model(2, 16), *(_model(q, 14) for q in (2, 3, 4)), _model(2, 12), _preset("Rq:6")), draws=2),
        Slot(
            _pool(
                *(_model(q, d) for q in (2, 3, 4) for d in (6, 8, 10)),
                _model(3, 12),
                _model(4, 12),
                *(_preset(f"Rq:{q}") for q in range(2, 6)),
            ),
            draws=34,
        ),
    ),
)

ENUMERATE = Workload(
    "enumerate",
    (
        # JSON only: the 5.7 MB document is the largest output, and one
        # format keeps peak_rss_mb the same for every seed.
        Slot((("vey", "--complex", "W", "--q", "10", "--format", "json"),), draws=1),
        Slot(_vey("WO", 14), draws=1),
        Slot(_dim(12), draws=2),
        Slot(_pool(_vey("WO", 12), _vey("W", 8), _dim(11)), draws=1),
        Slot(_dim(10), draws=12),
        Slot(_pool(_vey("WO", 9), _vey("WO", 10), *(_dim(q) for q in range(7, 10))), draws=4),
        Slot(
            _pool(
                *(_vey("WO", q) for q in range(1, 9)),
                *(_vey("W", q) for q in range(1, 7)),
                _dim(6),
                *(_preset(p) for p in ("S1", "S2", "T2", "S3", "T3")),
                *(_preset(f"Sigma_g:{g}") for g in range(2, 6)),
                *(_kappa(q) for q in range(1, 31)),
            ),
            draws=34,
        ),
    ),
)

# Requests as one user of every subcommand might send them; each drawn request
# is sent `repeats` times, and only its first send of a cached command misses.
# One format per request, so no two drawn requests share a cache key and the
# hit count is the same for every seed.
def _json(jobs):
    return tuple(job for job in jobs if job[-1] == "json")


REPLAY = Workload(
    "replay",
    (
        Slot(
            _json(
                _pool(
                    *(_cohomology("W", q) for q in range(1, 4)),
                    *(_cohomology("WO", q) for q in range(1, 5)),
                    *(_cohomology("I", q) for q in range(1, 7)),
                )
            ),
            draws=7,
        ),
        Slot(_json(_pool(*(_validate("W", q) for q in range(1, 4)), *(_validate("WO", q) for q in range(1, 5)))), draws=7),
        Slot(_json(_pool(*(_model(q, d) for q in (2, 3, 4) for d in (6, 8, 10)))), draws=7),
        Slot(
            _json(
                _pool(
                    *(_preset(p) for p in ("S1", "S2", "T2", "S3", "T3")),
                    *(_preset(f"Sigma_g:{g}") for g in range(2, 6)),
                )
            ),
            draws=7,
        ),
        Slot(_json(_pool(*(_vey("WO", q) for q in range(1, 9)), *(_vey("W", q) for q in range(1, 6)))), draws=7),
        Slot(_pool(*(_kappa(q) for q in range(1, 31))), draws=7),
    ),
    repeats=3,
    shared_cache=True,
)

WORKLOADS = {w.name: w for w in (ORACLE, MODEL, ENUMERATE, REPLAY)}


def job_space(workload: Workload) -> set[tuple[str, ...]]:
    return {job for slot in workload.slots for job in slot.jobs}


def repetitions(seconds: float) -> int:
    """A run of --seconds S draws every slot round(S / RUN_S) times, so the
    work in a run is fixed by S and never by the speed of the program."""
    return max(1, round(seconds / RUN_S))


def job_list(workload: Workload, seed: int, seconds: float) -> list[tuple[str, ...]]:
    """The run's jobs in launch order; a pure function of its arguments.

    Each slot's jobs are spread evenly over the run, each at a random place
    within its share, so every cost band sees the slow and fast spells of a
    shared machine in the same proportion as the whole run does.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    reps = repetitions(seconds)
    keyed: list[tuple[float, tuple[str, ...]]] = []
    for slot in workload.slots:
        # Without replacement until the slot runs out: replay then sends
        # distinct requests, and its hit count is the same for every seed.
        picks: list[tuple[str, ...]] = []
        count = slot.draws * reps
        while len(picks) < count:
            picks.extend(rng.sample(slot.jobs, min(count - len(picks), len(slot.jobs))))
        picks = [job for job in picks for _ in range(workload.repeats)]
        rng.shuffle(picks)
        keyed.extend(((i + rng.random()) / len(picks), job) for i, job in enumerate(picks))
    keyed.sort(key=lambda item: item[0])
    return [job for _, job in keyed]


def job_key(job: tuple[str, ...]) -> str:
    return " ".join(job)
