"""Command-line interface.

Subcommands: solve, analyze, emit, interpolate, corpus.  Exit codes: 0 the
command ran to a verdict, 1 usage error, 2 input error, 3 backend or
resource error (including an interpolant that fails verification, and a
RecursionError or MemoryError), 4 internal error (a bug in this package,
such as a model that fails validation).  A reader that closes standard
output early, such as `head` or `grep -q`, ends the command quietly with
exit code 0: what it did not read was not wanted.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import corpus as corpus_mod
from . import backend as backend_mod
from .errors import (
    AdtSolveError, InputError, InternalError, ProtocolError, ResourceLimitError,
    SpawnError,
)
from .interp import InterpolatingBackend, InterpolationProblem, interpolate
from .normalize import flatten, to_nnf
from .parser import parse_script
from .reduce import reduce, rformula_nodes, simplify
from .semantics import print_formula, print_model
from .signature import cardinality, check_expanding, size_image
from .sizesolve import completeness_report, decide, reduction_mode
from .terms import formula_nodes


def _count(least: int):
    """An argparse type: an integer no smaller than `least`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}: {value}")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="adtsolve", add_help=True)
    sub = p.add_subparsers(dest="command", required=True)

    # shared flags; each subcommand takes only the ones it reads
    flags = {
        "--external-cmd": dict(default=None,
                               help="command line of an SMT-LIB solver on stdio "
                                    "(default: $ADTSOLVE_EXTERNAL_CMD)"),
        "--fuel": dict(type=_count(0), default=100),
        "--no-opt": dict(action="store_true",
                         help="disable the guarded-selector and enumeration optimizations"),
        "--stats": dict(action="store_true"),
    }

    def add(sp, *names):
        for name in names:
            sp.add_argument(name, **flags[name])

    sp = sub.add_parser("solve", help="decide a script")
    sp.add_argument("file")
    add(sp, "--external-cmd", "--fuel", "--no-opt", "--stats")

    sp = sub.add_parser("analyze", help="print signature analyses")
    sp.add_argument("file")

    sp = sub.add_parser("emit", help="print the EUF+LIA reduct as SMT-LIB")
    sp.add_argument("file")
    sp.add_argument("--no-simplify", action="store_true")
    add(sp, "--no-opt", "--stats")

    sp = sub.add_parser("interpolate", help="interpolate two scripts")
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.add_argument("--dialect", choices=["smtinterpol", "cvc5"],
                    default="smtinterpol")
    add(sp, "--external-cmd", "--fuel", "--no-opt")

    sp = sub.add_parser("corpus", help="run the seeded random agreement suite")
    sp.add_argument("--count", type=_count(0), default=100)
    sp.add_argument("--sigs", type=_count(1), default=5)
    sp.add_argument("--seed", type=int, default=0)
    return p


def _external(args) -> str | None:
    """The external solver's command line: --external-cmd, else the
    environment variable; None selects the built-in backend."""
    return args.external_cmd or os.environ.get("ADTSOLVE_EXTERNAL_CMD") or None


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:  # missing, a directory, not UTF-8
        raise InputError(f"cannot read {path}: {e}") from e
    return parse_script(text)


def cmd_solve(args, out) -> int:
    """One answer per check-sat, for the assertions before it, each from a
    decide of its own, and the model of a sat answer that a get-model asks
    for."""
    script = _load(args.file)
    ext = _external(args)
    for phi, shown in zip(script.queries(), script.shown_models()):
        result = decide(phi, script.sig, fuel=args.fuel, opt=not args.no_opt,
                        external_cmd=ext)
        print(result.status, file=out)
        if result.status == "sat" and shown is not None:
            print(print_model(script.sig, result.model, *shown), file=out)
        elif result.status == "unknown" and result.diagnosis:
            print(result.diagnosis.text, file=out)
        if args.stats:
            print(f"nodes: input={formula_nodes(phi)} "
                  f"reduced={rformula_nodes(result.reduct.formula)}", file=out)
    return 0


def cmd_analyze(args, out) -> int:
    script = _load(args.file)
    sig = script.sig
    report = check_expanding(sig)
    for sort in sig.sorts:
        card = cardinality(sig, sort)
        image = size_image(sig, sort)
        print(f"{sort}: cardinality {'infinite' if card is None else card}", file=out)
        print(f"{sort}: size image {image.describe()}", file=out)
        print(f"{sort}: expanding" if report.is_expanding(sort)
              else report.cycle_line(sort), file=out)
    print(completeness_report(sig), file=out)
    return 0


def cmd_emit(args, out) -> int:
    script = _load(args.file)
    phi = script.formula()
    flat = flatten(to_nnf(phi), script.sig)
    reduct = reduce(flat, script.sig, reduction_mode(phi), not args.no_opt)
    nodes = f"; nodes: input={formula_nodes(phi)} reduced={rformula_nodes(reduct.formula)}"
    if not args.no_simplify:
        reduct = simplify(reduct)
        nodes += f" simplified={rformula_nodes(reduct.formula)}"
    print(backend_mod.emit_smtlib(reduct), end="", file=out)
    if args.stats:
        print(nodes, file=out)
    return 0


def cmd_interpolate(args, out) -> int:
    script_a = _load(args.file_a)
    script_b = _load(args.file_b)
    sig = script_a.sig
    if script_b.sig.sorts and script_b.sig != sig:
        raise InputError("the two scripts declare different datatypes")
    ext = _external(args)
    if not ext:
        print("no external interpolating backend configured "
              "(--external-cmd or ADTSOLVE_EXTERNAL_CMD)", file=sys.stderr)
        return 3
    prob = InterpolationProblem(script_a.formula(), script_b.formula(), sig)
    backend = InterpolatingBackend(ext, dialect=args.dialect)
    outcome = interpolate(prob, backend, fuel=args.fuel, opt=not args.no_opt)
    if outcome.kind == "interpolant":
        print(print_formula(sig, outcome.interpolant), file=out)
        return 0
    if outcome.kind == "not-unsat":
        print("not-unsat", file=out)
        print(print_model(sig, outcome.model, {**script_a.var_sorts, **script_b.var_sorts},
                          {**script_a.ufuns, **script_b.ufuns}), file=out)
        return 0
    if outcome.kind == "untranslatable":
        print(f"untranslatable: {outcome.raw}", file=out)
        return 0
    print(f"unknown: {outcome.diagnosis}", file=out)
    return 0


def cmd_corpus(args, out) -> int:
    stats = corpus_mod.run_agreement(args.seed, count=args.count, n_sigs=args.sigs)
    print(stats.summary(), file=out)
    return 0 if not stats.failures else 3


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    commands = {"solve": cmd_solve, "analyze": cmd_analyze, "emit": cmd_emit,
                "interpolate": cmd_interpolate, "corpus": cmd_corpus}
    try:
        code = commands[args.command](args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered, and the final
        # flush at exit, to /dev/null instead
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except (SpawnError, ProtocolError, ResourceLimitError) as e:
        print(f"backend error: {e}", file=sys.stderr)
        return 3
    except (RecursionError, MemoryError) as e:  # too deep or too large an input
        print(f"resource error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    except AdtSolveError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
