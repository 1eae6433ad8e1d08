"""Batch command-line surface over the library, with machine-readable output.

Exit codes: 0 success, 1 precondition violation, 2 verification failure,
64 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import irregular, measures, moran, torus, typecount
from .torus import mult_indep_check

USAGE_ERROR = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _emit(args, payload: dict, csv_lines: list[str] | None = None) -> None:
    if args.format == "csv" and csv_lines is not None:
        sys.stdout.write("\n".join(csv_lines) + "\n")
    else:
        payload.setdefault("seed", getattr(args, "seed", 0))
        sys.stdout.write(json.dumps(payload) + "\n")


def _horizons(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def build_parser() -> _Parser:
    p = _Parser(prog="abtorus", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, **kw):
        sp = sub.add_parser(name, **kw)
        sp.add_argument("--format", choices=["csv", "json"], default="json")
        sp.add_argument("--seed", type=int, default=0)
        return sp

    sp = add("orbit")
    sp.add_argument("-a", type=int, required=True)
    sp.add_argument("-b", type=int, required=True)
    sp.add_argument("-x", required=True)
    sp.add_argument("-N", type=int, required=True)

    sp = add("empirical")
    sp.add_argument("-a", type=int, required=True)
    sp.add_argument("-b", type=int, required=True)
    sp.add_argument("-x", required=True)
    sp.add_argument("-N", type=int, required=True)
    sp.add_argument("-d", type=int, default=10)
    sp.add_argument("-K", type=int, default=16)

    sp = add("fourier")
    sp.add_argument("-a", type=int, required=True)
    sp.add_argument("-b", type=int, required=True)
    sp.add_argument("-x", required=True)
    sp.add_argument("-N", type=int, required=True)
    sp.add_argument("-K", type=int, required=True, help="single frequency k")

    sp = add("moran-dim")
    sp.add_argument("--struct", required=True)
    sp.add_argument("-K", type=int, default=64)

    sp = add("box-dim")
    sp.add_argument("--struct", required=True)
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--scales", required=True, help="comma-separated rationals")

    sp = add("synth-irregular")
    sp.add_argument("-a", type=int, required=True)
    sp.add_argument("-b", type=int, required=True)
    sp.add_argument("-r", required=True)
    sp.add_argument("--depth", type=int, default=2)

    sp = add("verify-irregular")
    sp.add_argument("-a", type=int, required=True)
    sp.add_argument("-b", type=int, required=True)
    sp.add_argument("-r", required=True)
    sp.add_argument("--depth", type=int, default=2)

    sp = add("count-r")
    sp.add_argument("-K", type=int, required=True, help="alphabet size k")
    sp.add_argument("-N", type=int, required=True)
    sp.add_argument("-t", type=float, required=True)

    sp = add("growth")
    sp.add_argument("-K", type=int, required=True, help="alphabet size k")
    sp.add_argument("-t", type=float, required=True)
    sp.add_argument("--horizons", required=True)

    sp = add("itinerary")
    sp.add_argument("-a", type=int, required=True)
    sp.add_argument("-x", required=True)
    sp.add_argument("-d", type=int, required=True)
    sp.add_argument("-M", type=int, required=True)
    sp.add_argument("-N", type=int, required=True)

    sp = add("kt-bound")
    sp.add_argument("-a", type=int, required=True)
    sp.add_argument("-b", type=int, required=True)
    sp.add_argument("-t", type=float, required=True)

    sp = add("q-bound")
    sp.add_argument("-a", type=int, required=True)
    sp.add_argument("-t", type=float, required=True)

    sp = add("equidist")
    sp.add_argument("-a", type=int, required=True)
    sp.add_argument("-b", type=int, required=True)
    sp.add_argument("-x", required=True)
    sp.add_argument("-t", type=float, required=True, help="t_claim")
    sp.add_argument("-U", required=True, help="interval as lo,hi (rationals)")
    sp.add_argument("--horizons", required=True)
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
    try:
        return _dispatch(args)
    except (ValueError, IndexError, ZeroDivisionError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


def _dispatch(args) -> int:
    cmd = args.cmd
    if cmd == "orbit":
        _warn_dependent(args.a, args.b)
        x = torus.TorusPoint.parse(args.x)
        grid = torus.orbit_grid(x, args.a, args.b, args.N)
        rows = [",".join(str(p) for p in row) for row in grid]
        _emit(args, {"orbit": [[str(p) for p in row] for row in grid]}, rows)
        return 0

    if cmd == "empirical":
        _warn_dependent(args.a, args.b)
        x = torus.TorusPoint.parse(args.x)
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
        return 0

    if cmd == "fourier":
        x = torus.TorusPoint.parse(args.x)
        c = measures.fourier_average(x, args.a, args.b, args.N, args.K)
        c = complex(c)
        _emit(args, {"k": args.K, "real": repr(c.real), "imag": repr(c.imag)})
        return 0

    if cmd == "moran-dim":
        struct = moran.MoranStructure.parse(args.struct)
        dims = moran.moran_dims(struct, args.K)
        _emit(args, {"s1": repr(dims.s1), "s2": repr(dims.s2), "exact": dims.exact})
        return 0

    if cmd == "box-dim":
        struct = moran.MoranStructure.parse(args.struct)
        intervals = moran.realize_intervals(struct, args.depth)
        scales = [Fraction(s) for s in args.scales.split(",")]
        est = moran.box_counting_estimate(intervals, scales)
        _emit(args, {"estimate": repr(est), "depth": args.depth})
        return 0

    if cmd in ("synth-irregular", "verify-irregular"):
        _warn_dependent(args.a, args.b)
        r = Fraction(args.r)
        family = build_default_family(args.depth)
        try:
            sched = irregular.choose_schedule(
                args.a, args.b, r, args.depth, family, seed=args.seed
            )
        except irregular.ScheduleError as e:
            _emit(args, {"error": str(e), "best_N": e.best_N, "estimate": vars(e.estimate)})
            return 2
        word, recipe = irregular.synthesize_point(sched, family, seed=args.seed)
        if cmd == "synth-irregular":
            _emit(args, {"recipe": json.loads(recipe.to_json()), "word": str(word)})
            return 0
        report = irregular.verify_irregular(word, recipe, family)
        _emit(args, json.loads(report.to_json()))
        return 0 if report.passed else 2

    if cmd == "count-r":
        sys.stdout.write(f"{typecount.count_R(args.K, args.N, args.t)}\n")
        return 0

    if cmd == "growth":
        prof = typecount.growth_profile(args.K, args.t, _horizons(args.horizons))
        csv = ["N,value"] + [f"{N},{v!r}" for N, v in prof]
        _emit(args, {"profile": [[N, repr(v)] for N, v in prof]}, csv)
        return 0

    if cmd == "itinerary":
        x = torus.TorusPoint.parse(args.x)
        rec = typecount.itinerary_choices(x, args.a, args.d, args.M, args.N)
        _emit(
            args,
            {
                "indices": list(rec.indices),
                "q": [str(v) for v in rec.q.p],
                "entropy": repr(rec.q.entropy()),
            },
        )
        return 0

    if cmd == "kt-bound":
        _emit(args, {"bound": repr(typecount.kt_bound(args.a, args.b, args.t))})
        return 0

    if cmd == "q-bound":
        _emit(args, {"bound": repr(typecount.q_bound(args.a, args.t))})
        return 0

    if cmd == "equidist":
        _warn_dependent(args.a, args.b)
        x = torus.TorusPoint.parse(args.x)
        lo, hi = (Fraction(v) for v in args.U.split(","))
        report = measures.semiequidist_profile(
            x, args.a, args.b, (lo, hi), _horizons(args.horizons), args.t
        )
        if args.format == "csv":
            sys.stdout.write(report.to_csv())
        else:
            sys.stdout.write(report.to_json() + "\n")
        return 0 if report.verdict else 2

    raise AssertionError(f"unhandled command {cmd}")


def build_default_family(depth: int) -> irregular.TestFamily:
    return irregular.build_test_family(max(depth, 2))


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
