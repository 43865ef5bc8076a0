"""Command-line surface.

Subcommands: quotient, closure, verify, congruence, census.
Exit codes: 0 success/decided, 1 input error, 2 undecided (a cap was hit).
A reader that closes stdout early (`| head`) ends the command with exit 0.
Structured output (--format json) is newline-delimited JSON records headed
by a version record, and round-trips through the report parsers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .closure import DEFAULT_ELEMENT_CAP, UndecidedError
from .golden_ring import Modulus, parse_golden
from .hecke_matrices import decompose, eval_word, parse_word
from .quotients import build_quotient, kernel_subgroup, normal_closure
from .congruence import (
    DEFAULT_COSET_CAP, coset_table, enumerate_index,
    is_congruence, is_normal_table, levels,
)
from .farey import parse_hfs, side_pairing
from .verify import REGISTRY, run_all, run_check

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNDECIDED = 2

# the parameter names of every verify check, from the registry's grids
VERIFY_PARAMS = sorted({k for c in REGISTRY.values() for g in c.grid for k in g})

IDEAL_HELP = ("ideal generator, e.g. 2+L; write one with a leading minus "
              "as --ideal=-3-L")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _emit(args, items) -> None:
    """Print (record, text line) pairs as they come; either may be None.

    JSON output is headed by a version record.  Each line is flushed, so a
    generator of items streams rows as they are decided.
    """
    json_out = args.format == "json"
    if json_out:
        print(json.dumps({"record": "version", "version": __version__}),
              flush=True)
    for rec, line in items:
        if json_out and rec is not None:
            print(json.dumps(rec, sort_keys=True), flush=True)
        elif not json_out and line is not None:
            print(line, flush=True)


def _modulus(args) -> Modulus:
    if args.mod is not None:
        return Modulus.rational(args.mod)
    return Modulus.ideal(parse_golden(args.ideal))


def cmd_quotient(args) -> int:
    mod = _modulus(args)
    q = build_quotient(mod, projective=not args.homogeneous,
                       element_cap=args.element_cap)
    rec = {"record": "quotient", "modulus": str(mod), "order": q.order,
           "projective": q.projective}
    items = [(rec, f"quotient mod {mod}: order {q.order}")]
    if args.histogram:
        hist = q.order_histogram()
        rec["order_histogram"] = {str(k): v for k, v in sorted(hist.items())}
        items.append((None, "element orders: "
                      + ", ".join(f"{k}:{v}" for k, v in sorted(hist.items()))))
    _emit(args, items)
    return EXIT_OK


def cmd_closure(args) -> int:
    mod = _modulus(args)
    q = build_quotient(mod, projective=True, element_cap=args.element_cap)
    seed = eval_word(parse_word(args.seed))
    h = normal_closure(q, [seed])
    # d is a kernel level iff h is the kernel of Q(M) -> Q(d); a kernel's
    # members compare by their number first, so only one of h's order is built
    matches = []
    if mod.c == 0 and mod.d1 == mod.d2:  # (M) = (n) for a rational n
        n = mod.d1
        matches = [d for d in range(1, n + 1) if n % d == 0 and
                   kernel_subgroup(q, Modulus.rational(d)).members == h.members]
    rec = {"record": "closure", "modulus": str(mod), "seed": args.seed,
           "order": h.order, "kernel_levels": matches}
    items = [(rec, f"normal closure of {args.seed} mod {mod}: order {h.order}")]
    if matches:
        items.append((None, "equals kernel of reduction to level "
                      + ", ".join(map(str, matches))))
    _emit(args, items)
    return EXIT_OK


def cmd_verify(args) -> int:
    params = {k: getattr(args, k) for k in VERIFY_PARAMS
              if getattr(args, k) is not None}
    if args.all and params:
        raise ValueError("--all runs the default grids and takes no parameters")
    results = run_all() if args.all else run_check(args.lemma, **params)
    _emit(args, [({"record": "check", "id": r.check_id, "params": r.params,
                   "passed": r.passed, "detail": r.detail}, r.line())
                 for r in results])
    return EXIT_OK if all(r.passed for r in results) else EXIT_INPUT


def _input_words(args) -> list:
    if args.gens:
        return [parse_word(g) for g in args.gens]
    text = args.hfs if args.hfs is not None else Path(args.hfs_file).read_text()
    return [decompose(g) for g in side_pairing(parse_hfs(text))]


def cmd_congruence(args) -> int:
    words = _input_words(args)
    try:
        table = coset_table(words, cap=args.coset_cap)
    except UndecidedError as exc:
        raise UndecidedError(f"{exc}; raise --coset-cap") from exc
    report = is_congruence(words, table=table)
    rec = report.to_dict()
    rec["record"] = "congruence"
    _emit(args, [
        (rec, f"index {report.index}, geometric level {report.geometric_level}, "
              f"test modulus {report.test_modulus}"),
        (None, f"quotient order {report.quotient_order}, "
               f"image order {report.image_order}"),
        (None, f"verdict: {report.verdict}"
               + (f", algebraic level {report.algebraic_level}"
                  if report.algebraic_level else "")),
    ])
    return EXIT_OK


def cmd_census(args) -> int:
    tables = enumerate_index(args.index)

    def rows():  # each row is printed as soon as it is decided
        for i, t in enumerate(tables):
            normal = is_normal_table(t)
            m, _, level = levels(t)
            level = None if level is None else str(level)
            verdict = "congruence" if level else "not-congruence"
            note = "unasserted" if normal and args.index == 5 else ""
            rec = {"record": "census-row", "id": i, "index": t.degree,
                   "v2": sum(1 for j in range(t.degree) if t.perm_s[j] == j),
                   "geometric_level": m, "normal": normal,
                   "verdict": verdict, "algebraic_level": level, "note": note}
            yield rec, (
                f"#{i}: index {t.degree}, v2 {rec['v2']}, level {m}, "
                f"{'normal, ' if normal else ''}{verdict}"
                + (f" ({level})" if level else "")
                + (f" [{note}]" if note else ""))
        yield None, f"total: {len(tables)} subgroups of index {args.index}"

    _emit(args, rows())
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="hecke5", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")

    def quotient_options(sp):  # the modulus and cap of build_quotient
        common(sp)
        one = sp.add_mutually_exclusive_group(required=True)
        one.add_argument("--mod", type=int)
        one.add_argument("--ideal", help=IDEAL_HELP)
        sp.add_argument("--element-cap", type=int, default=DEFAULT_ELEMENT_CAP,
                        help="most elements (residue table entries included) "
                             "to enumerate before giving up (exit 2); "
                             "default %(default)s")

    sp = sub.add_parser("quotient", help="order of the image mod a modulus")
    sp.add_argument("--homogeneous", action="store_true")
    sp.add_argument("--histogram", action="store_true")
    quotient_options(sp)
    sp.set_defaults(fn=cmd_quotient)

    sp = sub.add_parser("closure", help="normal closure of a word in a quotient")
    sp.add_argument("--seed", required=True, help='word, e.g. "T^4"')
    quotient_options(sp)
    sp.set_defaults(fn=cmd_closure)

    sp = sub.add_parser("verify", help="run registered structural checks")
    one = sp.add_mutually_exclusive_group(required=True)
    one.add_argument("--lemma", choices=sorted(REGISTRY))
    one.add_argument("--all", action="store_true")
    for name in VERIFY_PARAMS:  # typed by run_check, from the check's grid
        sp.add_argument(f"--{name}")
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("congruence", help="decide congruence for a subgroup")
    one = sp.add_mutually_exclusive_group(required=True)
    one.add_argument("--hfs", help="inline symbol, e.g. '[-inf; *; 0; *; inf]'")
    one.add_argument("--hfs-file")
    one.add_argument("--gens", action="append",
                     help="generator word (repeatable)")
    sp.add_argument("--coset-cap", type=int, default=DEFAULT_COSET_CAP,
                    help="most cosets to enumerate before giving up "
                         "(exit 2); default %(default)s")
    common(sp)
    sp.set_defaults(fn=cmd_congruence)

    sp = sub.add_parser("census", help="all subgroups of a given index")
    sp.add_argument("--index", type=int, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_census)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UndecidedError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except BrokenPipeError:  # the reader wants no more output
        # point stdout at devnull, so the flush at exit writes nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ValueError, OSError) as exc:  # NotInG5Error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
