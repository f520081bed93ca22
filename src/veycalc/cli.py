"""Command-line front end.

Subcommands: cohomology, vey, model, manifold, validate, kappa.  Results are
emitted as byte-deterministic JSON or aligned fixed-width tables; heavyweight
results are cached content-addressed under the configured cache directory.
Exit codes: 0 success, 2 invalid input, 3 resource-budget refusal.

Each subcommand is one row of `_SUBCOMMANDS`: help, flags as (flag, argparse
kwargs) pairs, job, table renderer and, for `vey` alone, a JSON writer;
`build_parser` adds a subparser per row.  A job checks its input and returns
(cache params or None, compute); a capped compute checks its cap first, so a
cached result is served under any cap.  `run` serves the cached document for
those params or stores what compute returns, and reports every budget refusal
at one site.  `vey` is never cached: its compute returns (q, kind, classes),
which `veycalc.vey` writes row by row.  `main`, the console entry point, runs
`run`, then freezes the heap so that exit skips collecting it.

compute imports the algebra modules it runs when it runs, and the other
renderers read only the result document, so argument parsing, a cache hit and
every error path load none of them; only a cohomology table imports `gca`, to
label its representatives.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import Callable, NamedTuple

from . import __version__
from .cache import Config, ConfigError, ResultCache, canonical_json, load_config
from .errors import KINDS, ModelBudgetError, ResourceBudgetError, UnsupportedInputError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3

_HUGE = 10**1000  # the smallest estimate with more than 1000 digits


def _estimate_text(estimate: int) -> str:
    """The estimate in full, or as ~10^k past 1000 digits, which `str` may refuse."""
    if estimate < _HUGE:
        return str(estimate)
    import math

    return f"~10^{math.floor(math.log10(estimate))}"


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _element_label(terms: list[dict]) -> str:
    from .gca import Monomial

    bits = []
    for t in terms:
        label = Monomial.from_json_obj(t["m"]).label()
        coeff = t["coeff"]
        bits.append(label if coeff == "1" else f"{coeff}*{label}")
    return " + ".join(bits) if bits else "0"


# -- table renderers ---------------------------------------------------------


def _render_cohomology(doc: dict) -> str:
    rows = []
    for deg in sorted(doc["dims"], key=int):
        reps = doc["representatives"].get(deg, [])
        rows.append(
            [deg, str(doc["dims"][deg]), "; ".join(_element_label(r) for r in reps)]
        )
    head = f"H*({doc['kind']}_{doc['q']})  total dim {doc['total_dim_check']}\n"
    return head + _table(["degree", "dim", "representatives"], rows)


def _render_vey(doc) -> str:
    from . import vey

    q, kind, classes = doc
    head = f"Vey basis of {kind}_{q} ({len(classes)} classes)\n"
    return head + _table(
        ["name", "degree", "gv", "residual", "rigid", "variable"], vey.basis_table_rows(classes)
    )


def _write_vey_json(doc, out) -> None:
    from . import vey

    vey.write_basis_json(*doc, out)


def _render_validation(doc: dict) -> str:
    rows = []
    for c in doc["per_degree"]:
        rows.append(
            [
                str(c["degree"]),
                str(c["enumerated"]),
                str(c["oracle_dim"]),
                "yes" if c["independent"] else "NO",
                "; ".join(c["notes"]),
            ]
        )
    head = (
        f"validate {doc['kind']}_{doc['q']}: "
        f"{'ok' if doc['ok'] else 'FAILED'}\n"
    )
    return head + _table(
        ["degree", "enumerated", "oracle", "independent", "notes"], rows
    )


def _render_model(doc: dict) -> str:
    rows = []
    for deg in sorted(doc["generators"], key=int):
        rows.append([deg, str(len(doc["generators"][deg])), ", ".join(doc["generators"][deg])])
    out = f"minimal model of I_{doc['q']} through degree {doc['degree_cap'] - 1}\n"
    out += _table(["degree", "rank", "generators"], rows)
    diff_lines = []
    for gid in sorted(doc["differentials"]):
        terms = doc["differentials"][gid]
        expr = " + ".join(
            t["word"] if t["coeff"] == "1" else f"{t['coeff']}*{t['word']}"
            for t in terms
        )
        diff_lines.append(f"d({gid}) = {expr}")
    if diff_lines:
        out += "\n" + "\n".join(diff_lines) + "\n"
    ok = all(doc["quasi_iso_check"].values())
    out += f"quasi_iso_check: {'ok' if ok else 'FAILED'}\n"
    return out


def _render_manifold(doc: dict) -> str:
    rows = []
    for r in doc["records"]:
        rows.append(
            [
                r["name"],
                str(r["degree"]),
                r["target"],
                r["method"],
                str(r["detection_rank"]),
                r["survives_to_BDiff_delta"],
                r.get("note", ""),
            ]
        )
    label = doc["descriptor"].get("label") or f"q={doc['descriptor']['q']}"
    head = f"class inventory for {label} ({len(rows)} records)\n"
    return head + _table(
        ["name", "degree", "target", "method", "rank", "survives", "note"], rows
    )


def _render_kappa(doc: dict) -> str:
    return f"{doc['kappa']}\n"


# -- the subcommand table ---------------------------------------------------


def _check_q_cap(q: int, kind: str, q_cap: int) -> None:
    """Refuse a q that is not positive or is over the cap, before the progress line."""
    if q < 1:
        raise ValueError("q must be positive")
    if q > q_cap:
        from . import complexes

        raise ResourceBudgetError(f"{kind}_{q} exceeds the configured cap q <= {q_cap}",
                                  estimate=complexes.dimension_estimate(q, kind))


def _cohomology_job(args, config: Config):
    def compute() -> dict:
        _check_q_cap(args.q, args.complex, config.q_cap)
        from . import complexes

        _progress(f"computing H*({args.complex}_{args.q}) ...")
        cx = complexes.build_complex(args.q, args.complex)
        return complexes.cohomology(cx).to_json_obj()

    return {"q": args.q, "kind": args.complex}, compute


def _vey_job(args, config: Config):
    def compute() -> dict:
        from . import vey

        return args.q, args.complex, vey.vey_basis(args.q, args.complex, args.degree)

    return None, compute


def _validate_job(args, config: Config):
    def compute() -> dict:
        _check_q_cap(args.q, args.complex, config.q_cap)
        from . import vey

        _progress(f"validating Vey basis of {args.complex}_{args.q} against the oracle ...")
        return vey.validate_vey(args.q, args.complex).to_json_obj()

    return {"q": args.q, "kind": args.complex}, compute


def _model_job(args, config: Config):
    def compute() -> dict:
        if args.max_degree > config.model_degree_cap:
            raise ModelBudgetError(
                f"--max-degree {args.max_degree} exceeds the configured cap "
                f"{config.model_degree_cap}", attempted_dimension=args.max_degree)
        from . import minimal_model

        minimal_model.check_input(args.q, args.max_degree)  # before the progress line
        _progress(f"building the minimal model of I_{args.q} to degree {args.max_degree} ...")
        model = minimal_model.build_model(args.q, args.max_degree)
        doc = model.to_json_obj()
        doc["ranks"] = minimal_model.rank_table(model).to_json_obj()["ranks"]
        return doc

    return {"q": args.q, "max_degree": args.max_degree}, compute


def _parse_cospherical(text: str) -> tuple[tuple[int, int], ...]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        k, _, count = chunk.partition(":")
        try:
            out.append((int(k), int(count or "1")))
        except ValueError as exc:
            raise UnsupportedInputError(
                f"bad --cospherical entry {chunk!r}; expected k:count"
            ) from exc
    return tuple(out)


def _manifold_job(args, config: Config):
    from . import manifold

    if args.preset is not None:
        # each flag of the row after --preset builds a descriptor; absent, a
        # switch reads False and any other flag None
        given = [flag for flag, kwargs in _SUBCOMMANDS["manifold"].flags[1:]
                 if getattr(args, flag[2:].replace("-", "_"))
                 is not (False if kwargs.get("action") == "store_true" else None)]
        if given:
            raise UnsupportedInputError(
                f"--preset {args.preset} conflicts with {', '.join(given)}; "
                "a preset fixes the whole descriptor"
            )
        descriptor = manifold.preset(args.preset)
    else:
        if args.dim is None:
            raise UnsupportedInputError("either --preset or --dim is required")
        descriptor = manifold.ManifoldDescriptor(
            q=args.dim,
            compact=args.compact,
            closed=args.compact,
            orientable=True,
            parallelizable=args.parallelizable,
            cospherical_degrees=_parse_cospherical(args.cospherical or ""),
            trivialized_over_cycles=args.trivialized_over_cycles,
        )

    def compute() -> dict:
        records = manifold.report(descriptor)
        return {
            "descriptor": descriptor.to_json_obj(),
            "records": [r.to_json_obj() for r in records],
        }

    return {"descriptor": descriptor.to_json_obj()}, compute


def _kappa_job(args, config: Config):
    def compute() -> dict:
        from . import vey

        return {"q": args.q, "kappa": vey.kappa(args.q)}

    return None, compute


class _Subcommand(NamedTuple):
    help: str
    flags: tuple  # (flag, argparse kwargs) pairs
    job: Callable  # (args, config) -> (cache params or None, compute)
    render: Callable[..., str]  # the result as a table
    write_json: Callable | None = None  # (result, out): writes it itself, in place of canonical_json


_Q = ("--q", {"type": int, "required": True})
_VEY_COMPLEX = ("--complex", {"choices": ("W", "WO"), "required": True})
_SWITCH = {"action": "store_true"}

_SUBCOMMANDS = {
    "cohomology": _Subcommand(
        "exact cohomology of W_q / WO_q / I_q",
        (("--complex", {"choices": KINDS, "required": True}), _Q),
        _cohomology_job, _render_cohomology,
    ),
    "vey": _Subcommand(
        "Vey basis enumeration and classification",
        (_VEY_COMPLEX, _Q, ("--degree", {"type": int})), _vey_job, _render_vey, _write_vey_json,
    ),
    "validate": _Subcommand(
        "cross-check the Vey basis against the oracle",
        (_VEY_COMPLEX, _Q), _validate_job, _render_validation,
    ),
    "model": _Subcommand(
        "bigraded minimal model of I_q",
        (_Q, ("--max-degree", {"type": int, "required": True})), _model_job, _render_model,
    ),
    "manifold": _Subcommand(
        "characteristic-class inventory for a manifold",
        (("--preset", {"help": "S1|S2|T2|Sigma_g:g|S3|T3|Rq:q"}), ("--dim", {"type": int}),
         ("--compact", _SWITCH), ("--parallelizable", _SWITCH),
         ("--trivialized-over-cycles", _SWITCH),
         ("--cospherical", {"help": "comma list of k:count"})),
        _manifold_job, _render_manifold,
    ),
    "kappa": _Subcommand(
        "number of Pontrjagin classes usable for bracing", (_Q,), _kappa_job, _render_kappa,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    # Common flags are accepted both before and after the subcommand; the
    # SUPPRESS defaults keep a subparser from clobbering a value given earlier.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", default=argparse.SUPPRESS, help="path to a JSON config file"
    )
    common.add_argument(
        "--format",
        choices=("table", "json"),
        default=argparse.SUPPRESS,
        help="output format",
    )
    common.add_argument(
        "--cache-dir", default=argparse.SUPPRESS, help="override the cache directory"
    )
    common.add_argument(
        "--no-cache",
        action="store_true",
        default=argparse.SUPPRESS,
        help="bypass the result cache",
    )
    parser = argparse.ArgumentParser(
        prog="veycalc",
        description="Exact secondary characteristic classes of foliations.",
        parents=[common],
    )
    parser.add_argument(
        "--version", action="store_true", help="print version and config digest"
    )
    sub = parser.add_subparsers(dest="command")
    for name, subcommand in _SUBCOMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=subcommand.help)
        for flag, kwargs in subcommand.flags:
            p.add_argument(flag, **kwargs)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # SUPPRESS defaults leave the attribute unset when the flag is absent
        config = load_config(getattr(args, "config", None))
        cache_dir = getattr(args, "cache_dir", None)
        if cache_dir is not None:
            config = Config(**{**config.to_json_obj(), "cache_dir": cache_dir})
        if args.version:
            print(f"veycalc {__version__} (config {config.digest()})")
            return EXIT_OK
        if not args.command:
            parser.print_usage(sys.stderr)
            print("veycalc: a subcommand is required", file=sys.stderr)
            return EXIT_INVALID
        subcommand = _SUBCOMMANDS[args.command]
        params, compute = subcommand.job(args, config)
        cache = None
        if params is not None and not getattr(args, "no_cache", False):
            cache = ResultCache(config.cache_dir)
        hit = cache.get(args.command, params) if cache else None
        doc, text = hit or (None, None)  # text: canonical_json(doc), once the cache holds it
        if doc is None:
            doc = compute()
            if cache:
                try:
                    text = cache.put(args.command, params, doc)
                except OSError as exc:
                    _progress(f"veycalc: result not cached: {exc}")
    except (ConfigError, UnsupportedInputError, ValueError) as exc:
        print(f"veycalc: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ResourceBudgetError as exc:
        print(
            f"veycalc: resource budget exceeded: {exc} "
            f"(dimension estimate {_estimate_text(exc.estimate)})",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    if getattr(args, "format", "table") != "json":
        sys.stdout.write(subcommand.render(doc))
    elif subcommand.write_json is not None:
        subcommand.write_json(doc, sys.stdout)
    else:
        sys.stdout.write((text or canonical_json(doc)) + "\n")
    return EXIT_OK


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader went away: point stdout at devnull so the flush at exit
        # cannot raise again, and exit 1 as for EPIPE, with no traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    # Move every live object to the permanent generation, so interpreter
    # teardown does not collect the module graph after the output is written.
    # atexit handlers, stream flushes and the exit code are unchanged; the
    # collector ran as usual during the job.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
