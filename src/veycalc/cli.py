"""Command-line front end.

Subcommands: cohomology, vey, model, manifold, validate, kappa.  Results are
emitted as byte-deterministic JSON or aligned fixed-width tables; heavyweight
results are cached content-addressed in `--cache-dir` or `ResultCache`'s default.
Exit codes: 0 success, 2 invalid input (a usage error too), 3 budget refusal.

Each subcommand is one row of `_SUBCOMMANDS`: help, flags as (flag, argparse
kwargs) pairs, a plain `compute(args, config)` that checks its input and
returns the result, a table renderer and, for `vey` alone, a JSON writer.
`build_parser` builds one parser per invocation: the common flags, accepted on
either side of the subcommand, then the invoked row's flags.  A command is
cached iff `cache.REQUIRED_KEYS` names it, under params that are the values of
its row's own flags, so no common flag, cap or format is among them: `run`
serves the cached document for those params or stores what compute returns,
and reports every budget refusal at one site.  A capped compute checks its
input, then its cap, so a cached result is served under any cap.  `vey`'s
compute returns (q, kind, groups) of `vey.vey_groups`, which `veycalc.vey`
writes row by row, with no object per class.  `main`, the console entry
point, runs `run`, then freezes the heap so that exit skips collecting it.

compute imports the algebra modules it runs when it runs, and the other
renderers read only the result document, so argument parsing, a cache hit and
a usage error load none of them; only a cohomology table imports `gca`, to
label its representatives.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from typing import Callable, NamedTuple

from . import __version__
from .cache import REQUIRED_KEYS, Config, ResultCache, canonical_json, load_config
from .errors import KINDS, VEY_KINDS, ResourceBudgetError, UnsupportedInputError, check_int

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3

_HUGE = 10**1000  # the smallest estimate with more than 1000 digits


def _estimate_text(estimate: int | str) -> str:
    """The estimate in full, a bound as its text, or ~10^k past 1000 digits, which
    `str` may refuse."""
    if isinstance(estimate, str) or estimate < _HUGE:
        return str(estimate)
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


def _sum_label(terms) -> str:
    """The sum "coeff*label + ..." of (coeff, label) text pairs, a coefficient 1 unwritten."""
    bits = [label if coeff == "1" else f"{coeff}*{label}" for coeff, label in terms]
    return " + ".join(bits) or "0"


# -- table renderers ---------------------------------------------------------


def _render_cohomology(doc: dict) -> str:
    from .gca import Monomial

    rows = []
    for deg in sorted(doc["dims"], key=int):
        labels = (_sum_label((t["coeff"], Monomial.from_json_obj(t["m"]).label()) for t in r)
                  for r in doc["representatives"].get(deg, []))
        rows.append([deg, str(doc["dims"][deg]), "; ".join(labels)])
    head = f"H*({doc['kind']}_{doc['q']})  total dim {doc['total_dim_check']}\n"
    return head + _table(["degree", "dim", "representatives"], rows)


def _render_vey(doc) -> str:
    from . import vey

    q, kind, groups = doc
    rows = vey.basis_table_rows(groups)
    head = f"Vey basis of {kind}_{q} ({len(rows)} classes)\n"
    return head + _table(["name", "degree", "gv", "residual", "rigid", "variable"], rows)


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
        expr = _sum_label((t["coeff"], t["word"]) for t in doc["differentials"][gid])
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
    """Refuse a q that is not a positive int or is over the cap, before the progress
    line, with complexes.dimension_estimate, which answers at once at any q."""
    check_int("q", q, 1)
    if q > q_cap:
        from .complexes import dimension_estimate

        raise ResourceBudgetError(f"{kind}_{q} exceeds the configured cap q <= {q_cap}",
                                  dimension_estimate(q, kind))


def _cohomology(args, config: Config) -> dict:
    _check_q_cap(args.q, args.complex, config.q_cap)
    from . import complexes, gca

    _progress(f"computing H*({args.complex}_{args.q}) ...")
    return complexes.cohomology(gca.AlgebraSignature(args.q, args.complex)).to_json_obj()


def _vey(args, config: Config) -> tuple:
    from . import vey

    return args.q, args.complex, vey.vey_groups(args.q, args.complex, args.degree)


def _validate(args, config: Config) -> dict:
    _check_q_cap(args.q, args.complex, config.q_cap)
    from . import vey

    _progress(f"validating Vey basis of {args.complex}_{args.q} against the oracle ...")
    return vey.validate_vey(args.q, args.complex)


def _model(args, config: Config) -> dict:
    from . import minimal_model

    minimal_model.check_input(args.q, args.max_degree)  # before the cap and progress
    if args.max_degree > config.model_degree_cap:
        raise ResourceBudgetError(
            f"--max-degree {args.max_degree} exceeds the configured cap "
            f"{config.model_degree_cap}", estimate=args.max_degree)
    _progress(f"building the minimal model of I_{args.q} to degree {args.max_degree} ...")
    return minimal_model.build_model(args.q, args.max_degree).to_json_obj()


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


def _manifold(args, config: Config) -> dict:
    from . import manifold

    if args.preset is not None:
        # each flag of the row after --preset builds a descriptor; absent, a
        # switch reads False and any other flag None
        given = [flag for flag, kwargs in _SUBCOMMANDS["manifold"].flags[1:]
                 if getattr(args, _dest(flag))
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
            parallelizable=args.parallelizable,
            cospherical_degrees=_parse_cospherical(args.cospherical or ""),
            trivialized_over_cycles=args.trivialized_over_cycles,
        )
    return {"descriptor": descriptor.to_json_obj(), "records": manifold.report(descriptor)}


def _kappa(args, config: Config) -> dict:
    from . import vey

    return {"q": args.q, "kappa": vey.kappa(args.q)}


def _dest(flag: str) -> str:
    """The attribute of the parsed args that holds flag's value."""
    return flag[2:].replace("-", "_")


class _Subcommand(NamedTuple):
    help: str
    flags: tuple  # (flag, argparse kwargs) pairs
    compute: Callable  # (args, config) -> the result
    render: Callable[..., str]  # the result as a table
    write_json: Callable | None = None  # (result, out): writes it itself, in place of canonical_json


_Q = ("--q", {"type": int, "required": True})
_VEY_COMPLEX = ("--complex", {"choices": VEY_KINDS, "required": True})
_SWITCH = {"action": "store_true"}

_SUBCOMMANDS = {
    "cohomology": _Subcommand(
        "exact cohomology of W_q / WO_q / I_q",
        (("--complex", {"choices": KINDS, "required": True}), _Q),
        _cohomology, _render_cohomology,
    ),
    "vey": _Subcommand(
        "Vey basis enumeration and classification",
        (_VEY_COMPLEX, _Q, ("--degree", {"type": int})), _vey, _render_vey, _write_vey_json,
    ),
    "validate": _Subcommand(
        "cross-check the Vey basis against the oracle",
        (_VEY_COMPLEX, _Q), _validate, _render_validation,
    ),
    "model": _Subcommand(
        "bigraded minimal model of I_q",
        (_Q, ("--max-degree", {"type": int, "required": True})), _model, _render_model,
    ),
    "manifold": _Subcommand(
        "characteristic-class inventory for a manifold",
        (("--preset", {"help": "S1|S2|T2|Sigma_g:g|S3|T3|Rq:q"}), ("--dim", {"type": int}),
         ("--compact", _SWITCH), ("--parallelizable", _SWITCH),
         ("--trivialized-over-cycles", _SWITCH),
         ("--cospherical", {"help": "comma list of k:count"})),
        _manifold, _render_manifold,
    ),
    "kappa": _Subcommand(
        "number of Pontrjagin classes usable for bracing", (_Q,), _kappa, _render_kappa,
    ),
}


class _Parser(argparse.ArgumentParser):
    """Raises a usage error, which `run` reports as invalid input, in place of
    exiting."""

    def error(self, message: str):
        raise UnsupportedInputError(message)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The one parser for argv: the common flags and the subcommand, which a
    first pass finds, then -h and that subcommand's flags.  -h joins only then,
    so that `veycalc cohomology --help` is the subcommand's help."""
    parser = _Parser(prog="veycalc", description="Exact secondary characteristic classes of "
                     "foliations.", formatter_class=argparse.RawDescriptionHelpFormatter,
                     add_help=False)
    parser.add_argument("--version", action="store_true", help="print version and config digest")
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--format", choices=("table", "json"), default="table", help="output format")
    parser.add_argument("--cache-dir", help="override the cache directory")
    parser.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    command = parser.add_argument("command", nargs="?", choices=_SUBCOMMANDS,
                                  help="the subcommand, listed below")
    name = parser.parse_known_args(argv)[0].command
    parser.add_argument("-h", "--help", action="help", help="show this help message and exit")
    if name is None:
        parser.epilog = "subcommands:\n" + "\n".join(
            f"  {n:<12}{s.help}" for n, s in _SUBCOMMANDS.items())
        return parser
    parser.prog, parser.description = f"veycalc {name}", _SUBCOMMANDS[name].help
    command.help = argparse.SUPPRESS
    for flag, kwargs in _SUBCOMMANDS[name].flags:
        parser.add_argument(flag, **kwargs)
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser(argv).parse_args(argv)
        config = load_config(args.config)
        if args.cache_dir == "":  # refused, never a fallback to the default directory
            raise UnsupportedInputError("cache_dir must be a non-empty string, got ''")
        if args.version:
            print(f"veycalc {__version__} (config {config.digest()})")
            return EXIT_OK
        if not args.command:
            raise UnsupportedInputError("a subcommand is required")
        subcommand = _SUBCOMMANDS[args.command]
        cache = None
        if args.command in REQUIRED_KEYS and not args.no_cache:
            cache = ResultCache(args.cache_dir)
            params = {d: getattr(args, d) for d in (_dest(flag) for flag, _ in subcommand.flags)}
        hit = cache.get(args.command, params) if cache else None
        doc, text = hit or (None, None)  # text: canonical_json(doc), once the cache holds it
        if doc is None:
            doc = subcommand.compute(args, config)
            if cache:
                try:
                    text = cache.put(args.command, params, doc)
                except OSError as exc:
                    _progress(f"veycalc: result not cached: {exc}")
    except ValueError as exc:
        print(f"veycalc: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ResourceBudgetError as exc:
        print(
            f"veycalc: resource budget exceeded: {exc} "
            f"(dimension estimate {_estimate_text(exc.estimate)})",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    if args.format != "json":
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
