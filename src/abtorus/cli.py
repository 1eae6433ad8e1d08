"""Batch command-line surface over the library, with machine-readable output.

Exit codes: 0 success, 1 precondition violation, 2 verification failure,
64 usage error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from math import gcd

import numpy as np

from . import irregular, measures, moran, torus, typecount
from .torus import mult_indep_check

USAGE_ERROR = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _emit(args, payload: dict, csv_lines: list[str] | None = None) -> None:
    if args.format == "csv":
        sys.stdout.write("\n".join(csv_lines) + "\n")
    else:
        if args.cmd != "equidist":  # the equidist report has never carried a seed
            payload.setdefault("seed", args.seed)
        sys.stdout.write(json.dumps(payload) + "\n")


def _horizons(text: str) -> list[int]:
    """The --horizons integers; a bad list is a one-line error naming the flag."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"--horizons value {text!r} is not a comma-separated list of integers") from None


def _point(text: str) -> torus.TorusPoint:
    """The -x point p/q or p; a bad one is a one-line error naming the flag."""
    try:
        return torus.TorusPoint.parse(text)
    except ValueError:
        raise ValueError(f"-x value {text!r} is not p or p/q with integers p and q != 0") from None


def _fraction(flag: str, text: str) -> Fraction:
    """One rational value of option `flag`; a bad one is a one-line error naming the flag."""
    if "e" in text.lower():  # an exponent form: 1e-4000000 alone builds a 4-million-digit integer
        raise ValueError(f"{flag} value {text!r} has an exponent; write it as p/q or a decimal")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} value {text!r} is not a rational p/q with q != 0") from None


@functools.cache
def build_parser() -> _Parser:
    p = _Parser(prog="abtorus", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, (_, options) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--format", choices=["csv", "json"], default="json")
        sp.add_argument("--seed", type=int, default=0)
        for spec in options:
            flag, default, help = (spec, None, None) if isinstance(spec, str) else spec
            kind = float if flag == "-t" else str if flag in _STR_OPTIONS else int
            sp.add_argument(flag, type=kind, required=default is None, default=default, help=help)
    return p


def _warn_dependent(a: int, b: int) -> None:
    if not mult_indep_check(a, b):
        sys.stderr.write(
            f"warning: {a} and {b} are multiplicatively dependent\n"
        )


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 0
    if args.format == "csv" and args.cmd not in _CSV_COMMANDS:
        sys.stderr.write(f"error: {args.cmd} has no csv format\n")
        return USAGE_ERROR
    try:
        return _COMMANDS[args.cmd][0](args) or 0  # a handler returns None for 0
    except irregular.ScheduleError as e:
        _emit(args, {"error": str(e), "best_N": e.best_N, "estimate": vars(e.estimate)})
        return 2
    except (ValueError, IndexError, ZeroDivisionError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


def _orbit(args):
    """Write each block of rows as it is formatted: the output is the `_emit` text, one block in memory."""
    _warn_dependent(args.a, args.b)
    x = _point(args.x)
    blocks = torus.orbit_residues(x, args.a, args.b, args.N)  # checks a, b and N before any output
    if args.format == "csv":
        head, sep, tail, cell, line = "", "", "", ",", "{}\n"
    else:  # json.dumps({"orbit": rows, "seed": s}) is its text around [] with the rows joined by ", ",
        # and json.dumps of a row of "n/d" strings, which need no escapes, is ["..."] around '", "'.join(row)
        head, tail = json.dumps({"orbit": [], "seed": args.seed}).split("[]")
        head, sep, tail, cell, line = head + "[", ", ", "]" + tail + "\n", '", "', '["{}"]'
    # x is reduced, so when gcd(ab, den) = 1 every residue r is a unit and r/den is in lowest terms
    units = gcd(args.a * args.b, x.den) == 1
    for blk in blocks:
        if units:  # one join per row
            rows = (f"/{x.den}{cell}".join(map(str, row)) + f"/{x.den}" for row in blk.tolist())
        else:  # each cell r/den in lowest terms, as TorusPoint would print it
            g = np.gcd(blk, x.den)
            rows = (cell.join(f"{n}/{d}" for n, d in zip(*row)) for row in zip((blk // g).tolist(), (x.den // g).tolist()))
        sys.stdout.write(head + sep.join(map(line.format, rows)))
        head = sep
    sys.stdout.write(tail)


def _empirical(args):
    _warn_dependent(args.a, args.b)
    x = _point(args.x)
    mu = measures.empirical_measure(x, args.a, args.b, args.N, args.d, args.K)
    payload = {
        "d": mu.d,
        "N": mu.N,
        "weights": [repr(w) for w in mu.weights],
        "fourier": {
            str(k): [repr(c.real), repr(c.imag)]
            for k, c in sorted(mu.fourier.items())
        },
    }
    csv = ["bin,weight"] + [f"{j},{w!r}" for j, w in enumerate(mu.weights)]
    _emit(args, payload, csv)


def _fourier(args):
    x = _point(args.x)
    c = measures.fourier_average(x, args.a, args.b, args.N, args.K)
    _emit(args, {"k": args.K, "real": repr(c.real), "imag": repr(c.imag)})


def _moran_dim(args):
    struct = moran.MoranStructure.parse(args.struct)
    dims = moran.moran_dims(struct, args.K)
    _emit(args, {"s1": repr(dims.s1), "s2": repr(dims.s2), "exact": dims.exact})


def _box_dim(args):
    struct = moran.MoranStructure.parse(args.struct)
    intervals = moran.realize_intervals(struct, args.depth)
    scales = [_fraction("--scales", v) for v in args.scales.split(",")]
    est = moran.box_counting_estimate(intervals, scales)
    _emit(args, {"estimate": repr(est), "depth": args.depth})


def _synthesize(args):
    """Schedule and synthesize a point: (word, recipe).  A ScheduleError reaches `run`.

    `choose_schedule` checks the least chain's grid sides before any search,
    so a huge --depth is a one-line error at once.
    """
    _warn_dependent(args.a, args.b)
    sched = irregular.choose_schedule(args.a, args.b, _fraction("-r", args.r), args.depth, seed=args.seed)
    return irregular.synthesize_point(sched, seed=args.seed)


def _synth_irregular(args):
    word, recipe = _synthesize(args)
    sched = recipe.schedule  # golden key order: the schedule with depth after r, then the rest
    fields = dict(a=sched.a, b=sched.b, r=str(sched.r), depth=sched.depth, l=sched.l, N=sched.N, L=sched.L)
    fields.update(seed=recipe.seed, donors=recipe.donors, donor_tries=recipe.donor_tries)
    _emit(args, {"recipe": fields, "word": str(word)})


def _verify_irregular(args):
    report = irregular.verify_irregular(*_synthesize(args))
    _emit(args, asdict(report))
    return 0 if report.passed else 2


def _count_r(args):
    sys.stdout.write(f"{typecount.count_R(args.K, args.N, args.t)}\n")


def _growth(args):
    prof = typecount.growth_profile(args.K, args.t, _horizons(args.horizons))
    csv = ["N,value"] + [f"{N},{v!r}" for N, v in prof]
    _emit(args, {"profile": [[N, repr(v)] for N, v in prof]}, csv)


def _itinerary(args):
    x = _point(args.x)
    rec = typecount.itinerary_choices(x, args.a, args.d, args.M, args.N)
    _emit(
        args,
        {
            "indices": list(rec.indices),
            "q": [str(v) for v in rec.q],
            "entropy": repr(typecount.entropy(rec.q)),
        },
    )


def _kt_bound(args):
    _emit(args, {"bound": repr(typecount.kt_bound(args.a, args.b, args.t))})


def _q_bound(args):
    _emit(args, {"bound": repr(typecount.q_bound(args.a, args.t))})


def _equidist(args):
    _warn_dependent(args.a, args.b)
    x = _point(args.x)
    if args.U.count(",") != 1:
        raise ValueError(f"-U takes two values lo,hi, not {args.U!r}")
    lo, hi = (_fraction("-U", v) for v in args.U.split(","))
    report = measures.semiequidist_profile(
        x, args.a, args.b, (lo, hi), _horizons(args.horizons), args.t
    )
    csv = ["horizon,ratio"] + [f"{N},{v!r}" for N, v in zip(report.horizons, report.ratios)]
    _emit(args, {**asdict(report), "verdict": "pass" if report.verdict else "fail"}, csv)
    return 0 if report.verdict else 2


# Each subcommand, in help order, with its handler and options. An option is
# a required flag or (flag, default, help); every subcommand also takes
# --format and --seed. -t is a float, the flags in _STR_OPTIONS strings and
# the rest ints.
_STR_OPTIONS = {"-x", "-r", "-U", "--struct", "--scales", "--horizons"}
_ORBIT = ("-a", "-b", "-x", "-N")
_IRREGULAR = ("-a", "-b", "-r", ("--depth", 2, None))
_ALPHABET = ("-K", None, "alphabet size k")
# The subcommands with a --format csv form; the rest reject it as a usage error.
_CSV_COMMANDS = {"orbit", "empirical", "growth", "equidist"}
_COMMANDS = {
    "orbit": (_orbit, _ORBIT),
    "empirical": (_empirical, (*_ORBIT, ("-d", 10, None), ("-K", 16, None))),
    "fourier": (_fourier, (*_ORBIT, ("-K", None, "single frequency k"))),
    "moran-dim": (_moran_dim, ("--struct", ("-K", 64, None))),
    "box-dim": (_box_dim, ("--struct", "--depth", ("--scales", None, "comma-separated rationals"))),
    "synth-irregular": (_synth_irregular, _IRREGULAR),
    "verify-irregular": (_verify_irregular, _IRREGULAR),
    "count-r": (_count_r, (_ALPHABET, "-N", "-t")),
    "growth": (_growth, (_ALPHABET, "-t", "--horizons")),
    "itinerary": (_itinerary, ("-a", "-x", "-d", "-M", "-N")),
    "kt-bound": (_kt_bound, ("-a", "-b", "-t")),
    "q-bound": (_q_bound, ("-a", "-t")),
    "equidist": (_equidist, (
        "-a", "-b", "-x", ("-t", None, "t_claim"),
        ("-U", None, "interval as lo,hi (rationals)"), "--horizons",
    )),
}


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
