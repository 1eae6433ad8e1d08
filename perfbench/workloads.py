"""Seeded inputs and job lists of the three benchmark workloads.

A workload is a list of jobs that one pass runs in order. A job is either
an in-process CLI call, ``abtorus.cli.run(argv)``, or a direct call of a
library function that has no CLI command. Everything a job receives is
generated here from the workload seed; the library sees only these inputs.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("irregular-d2", "orbit-stats", "moran-types")

# Parameter sets per size. "full" is what the benchmark measures; "tiny" is
# the same job list at a size the smoke self-test can run in seconds.
SIZES = {
    "full": {
        "irregular_depth": 2,
        "orbit_points": 2,
        "orbit_N": 1000,
        "orbit_horizons": (250, 500, 1000),
        "orbit_d": 20,
        "orbit_K": 16,
        "orbit_grid_N": 300,
        "moran_depth": 10,
        "moran_scales": "1/16,1/64,1/256,1/1024,1/4096",
        "count_r": ((2, 2000), (3, 600), (4, 80), (5, 40)),
        "growth_horizons": (250, 500, 1000, 2000),
        "itinerary_N": 5000,
    },
    "tiny": {
        "irregular_depth": 1,
        "orbit_points": 1,
        "orbit_N": 40,
        "orbit_horizons": (10, 20, 40),
        "orbit_d": 8,
        "orbit_K": 4,
        "orbit_grid_N": 6,
        "moran_depth": 4,
        "moran_scales": "1/4,1/16,1/64",
        "count_r": ((2, 50), (3, 20), (4, 8), (5, 6)),
        "growth_horizons": (10, 20, 40),
        "itinerary_N": 50,
    },
}

A, B = 2, 3
# Periodic Moran structures: CLI spec -> (child counts of one cycle, m) for ratio 1/m.
MORAN_STRUCTS = {"n=2,4;c=1/4 periodic": ((2, 4), 4), "n=3;c=1/4 periodic": ((3,), 4)}
MORAN_DIM_STRUCT = "n=2,4;c=1/4 periodic"


@dataclass
class Job:
    """One unit of timed work and the data its output check needs."""

    name: str
    argv: list[str] | None = None  # CLI job: abtorus.cli.run(argv)
    module: str | None = None  # library job: module.func(TorusPoint(*point), *args)
    func: str | None = None
    point: tuple[int, int] | None = None
    args: tuple = ()
    expect: dict = field(default_factory=dict)  # inputs for the output check


def _point(rng: random.Random) -> tuple[int, int]:
    """A reduced p/q with 2^30 <= q < 2^31 and q coprime to a*b.

    Coprimality keeps every orbit point at denominator q, so the orbit
    strings and bin counts are those of a generic point.
    """
    q = rng.randrange(2**30, 2**31) | 1
    while q % 3 == 0:
        q += 2
    p = rng.randrange(1, q)
    while math.gcd(p, q) != 1:
        p = rng.randrange(1, q)
    return p, q


def _threshold(rng: random.Random, k: int, lengths, entropies) -> float:
    """A threshold t in [0.70, 0.72]·log k, at least 1e-6 from every type entropy.

    count-r compares entropies with t in floating point; keeping t away from
    every attained value makes the expected count independent of rounding.
    The narrow band keeps the work per seed steady: count_R computes a
    multinomial for every type class inside the threshold, so its cost
    grows several-fold from t = 0.3·log k to t = log k.
    """
    t = round(rng.uniform(0.70, 0.72) * math.log(k), 6)
    while any(abs(h - t) < 1e-6 for N in lengths for h in entropies(k, N)):
        t = round(t + 1e-4, 6)
    return t


def irregular_jobs(seed: int, size: dict) -> list[Job]:
    depth = size["irregular_depth"]
    argv = ["verify-irregular", "-a", str(A), "-b", str(B), "-r", "1/2",
            "--depth", str(depth), "--seed", str(seed)]
    return [Job("verify-irregular", argv=argv, expect={"seed": seed, "depth": depth})]


def orbit_stats_jobs(seed: int, size: dict) -> list[Job]:
    rng = random.Random(f"orbit-stats/{seed}")
    N, K, d = size["orbit_N"], size["orbit_K"], size["orbit_d"]
    horizons = size["orbit_horizons"]
    jobs = []
    for i in range(size["orbit_points"]):
        p, q = _point(rng)
        x = f"{p}/{q}"
        lo = rng.randrange(0, 12)
        width = rng.randrange(2, 5)
        U = (lo, lo + width)  # sixteenths
        t_claim = round(rng.uniform(0.5, 1.0), 2)
        k_single = rng.randrange(1, K + 1)
        k_defect = rng.randrange(1, K + 1)
        side = rng.choice("ab")
        point = {"p": p, "q": q}
        common = ["-a", str(A), "-b", str(B), "-x", x]
        jobs += [
            Job(f"empirical[{i}]", argv=["empirical", *common, "-N", str(N), "-d", str(d), "-K", str(K)],
                expect={**point, "N": N, "d": d, "K": K}),
            Job(f"equidist[{i}]",
                argv=["equidist", *common, "-t", str(t_claim), "-U", f"{U[0]}/16,{U[1]}/16",
                      "--horizons", ",".join(map(str, horizons))],
                expect={**point, "U": U, "t": t_claim, "horizons": horizons}),
            Job(f"fourier[{i}]", argv=["fourier", *common, "-N", str(N), "-K", str(k_single)],
                expect={**point, "N": N, "k": k_single}),
            Job(f"orbit[{i}]", argv=["orbit", *common, "-N", str(size["orbit_grid_N"])],
                expect={**point, "N": size["orbit_grid_N"]}),
            Job(f"convergence_diagnostic[{i}]", module="measures", func="convergence_diagnostic",
                point=(p, q), args=(A, B, list(horizons), K),
                expect={**point, "horizons": horizons, "K": K}),
            Job(f"invariance_defect[{i}]", module="measures", func="invariance_defect",
                point=(p, q), args=(A, B, N, k_defect, side),
                expect={**point, "N": N, "k": k_defect, "side": side}),
        ]
    return jobs


def moran_types_jobs(seed: int, size: dict, entropies) -> list[Job]:
    """Moran realization, type counting and the bound formulas.

    `entropies(k, N)` lists the entropy of every type class; it keeps the
    generated count-r thresholds away from ties.
    """
    rng = random.Random(f"moran-types/{seed}")
    depth, scales = size["moran_depth"], size["moran_scales"]
    jobs = [
        Job(f"box-dim[{s.split(';')[0]}]",
            argv=["box-dim", "--struct", s, "--depth", str(depth), "--scales", scales],
            expect={"counts": counts, "m": m, "depth": depth, "scales": scales})
        for s, (counts, m) in MORAN_STRUCTS.items()
    ]
    for k, N in size["count_r"]:
        t = _threshold(rng, k, (N,), entropies)
        jobs.append(Job(f"count-r[{k},{N}]", argv=["count-r", "-K", str(k), "-N", str(N), "-t", str(t)],
                        expect={"k": k, "N": N, "t": t}))
    horizons = size["growth_horizons"]
    t = _threshold(rng, 2, horizons, entropies)
    jobs.append(Job("growth", argv=["growth", "-K", "2", "-t", str(t),
                                    "--horizons", ",".join(map(str, horizons))],
                    expect={"k": 2, "t": t, "horizons": horizons}))
    p, q = _point(rng)
    N_it = size["itinerary_N"]
    jobs.append(Job("itinerary", argv=["itinerary", "-a", str(A), "-x", f"{p}/{q}",
                                       "-d", "2", "-M", "3", "-N", str(N_it)],
                    expect={"p": p, "q": q, "d": 2, "M": 3, "N": N_it}))
    counts, m = MORAN_STRUCTS[MORAN_DIM_STRUCT]
    jobs.append(Job("moran-dim", argv=["moran-dim", "--struct", MORAN_DIM_STRUCT],
                    expect={"counts": counts, "m": m}))
    t_kt = round(rng.uniform(0.01, 0.43), 6)
    jobs.append(Job("kt-bound", argv=["kt-bound", "-a", str(A), "-b", str(B), "-t", str(t_kt)],
                    expect={"t": t_kt}))
    t_q = round(rng.uniform(0.01, 0.69), 6)
    jobs.append(Job("q-bound", argv=["q-bound", "-a", str(A), "-t", str(t_q)], expect={"t": t_q}))
    return jobs


def build_jobs(workload: str, seed: int, size_name: str, entropies) -> list[Job]:
    size = SIZES[size_name]
    if workload == "irregular-d2":
        return irregular_jobs(seed, size)
    if workload == "orbit-stats":
        return orbit_stats_jobs(seed, size)
    if workload == "moran-types":
        return moran_types_jobs(seed, size, entropies)
    raise ValueError(f"unknown workload {workload!r}")
