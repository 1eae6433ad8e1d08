import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abtorus import TorusPoint, irregular, torus
from abtorus.cli import build_default_family, build_parser, mult_indep_check, run

GOLDEN_HELP = Path(__file__).parent / "golden" / "cli_help.txt"
GOLDEN_EXAMPLES = json.loads((Path(__file__).parent / "golden" / "readme_examples.json").read_text())
GOLDEN_BOX_DIM = json.loads((Path(__file__).parent / "golden" / "box_dim.json").read_text())
README = Path(__file__).parents[1] / "README.md"
COMMANDS = [
    "orbit", "empirical", "fourier", "moran-dim", "box-dim", "synth-irregular",
    "verify-irregular", "count-r", "growth", "itinerary", "kt-bound", "q-bound", "equidist",
]


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_kt_bound_json(capsys):
    code, out, _ = capture(capsys, ["kt-bound", "-a", "2", "-b", "3", "-t", "0.1"])
    assert code == 0
    payload = json.loads(out)
    root = math.sqrt(math.log(3) * 0.1)
    assert float(payload["bound"]) == pytest.approx(
        2 * root / (math.log(2) + root), abs=1e-12
    )
    assert payload["seed"] == 0


def test_kt_bound_out_of_range_exit_code(capsys):
    code, out, err = capture(capsys, ["kt-bound", "-a", "2", "-b", "3", "-t", "5.0"])
    assert code == 1
    assert "error" in err


def test_count_r_plain_output(capsys):
    code, out, _ = capture(capsys, ["count-r", "-K", "2", "-N", "3", "-t", "0.5"])
    assert code == 0
    assert out.strip() == "2"


def test_orbit_csv(capsys):
    code, out, _ = capture(
        capsys,
        ["orbit", "-a", "2", "-b", "3", "-x", "1/5", "-N", "2", "--format", "csv"],
    )
    assert code == 0
    assert out == "1/5,3/5\n2/5,1/5\n"


def test_orbit_json_and_dependence_warning(capsys):
    code, out, err = capture(capsys, ["orbit", "-a", "2", "-b", "4", "-x", "1/3", "-N", "1"])
    assert code == 0
    assert "multiplicatively dependent" in err
    assert json.loads(out)["orbit"] == [["1/3"]]


def test_unknown_subcommand_usage_exit(capsys):
    code, _, err = capture(capsys, ["no-such-cmd"])
    assert code == 64
    code, _, err = capture(capsys, ["orbit", "-a", "2"])
    assert code == 64


def test_bad_point_string_is_precondition_error(capsys):
    code, _, err = capture(capsys, ["orbit", "-a", "2", "-b", "3", "-x", "junk", "-N", "2"])
    assert code == 1


def test_equidist_exit_codes(capsys):
    base = ["equidist", "-a", "2", "-b", "3", "-t", "0.9", "--horizons", "50,100,200,300"]
    code, out, _ = capture(capsys, base + ["-x", "3/100003", "-U", "0,1/2"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"
    code, out, _ = capture(capsys, base + ["-x", "0/1", "-U", "2/5,3/5"])
    assert code == 2
    assert json.loads(out)["verdict"] == "fail"


def test_equidist_csv(capsys):
    code, out, _ = capture(
        capsys,
        [
            "equidist", "-a", "2", "-b", "3", "-x", "0/1", "-t", "1.0",
            "-U=-1/10,1/10", "--horizons", "10,20", "--format", "csv",
        ],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "horizon,ratio"
    assert len(lines) == 3


def test_moran_dim_json(capsys):
    code, out, _ = capture(capsys, ["moran-dim", "--struct", "n=2;c=1/3 periodic"])
    assert code == 0
    payload = json.loads(out)
    assert float(payload["s1"]) == pytest.approx(math.log(2) / math.log(3), abs=1e-12)
    assert payload["exact"] is True


def test_box_dim_json(capsys):
    scales = ",".join(f"1/{3**j}" for j in range(4, 9))
    code, out, _ = capture(
        capsys,
        ["box-dim", "--struct", "n=2;c=1/3 periodic", "--depth", "9", "--scales", scales],
    )
    assert code == 0
    assert float(json.loads(out)["estimate"]) == pytest.approx(
        math.log(2) / math.log(3), abs=0.02
    )


def test_fourier_and_empirical(capsys):
    code, out, _ = capture(
        capsys, ["fourier", "-a", "2", "-b", "3", "-x", "0/1", "-N", "5", "-K", "3"]
    )
    assert code == 0
    payload = json.loads(out)
    assert float(payload["real"]) == 1.0 and float(payload["imag"]) == 0.0

    code, out, _ = capture(
        capsys,
        ["empirical", "-a", "2", "-b", "3", "-x", "1/5", "-N", "2", "-d", "5", "-K", "2"],
    )
    payload = json.loads(out)
    assert [float(w) for w in payload["weights"]] == [0.0, 0.5, 0.25, 0.25, 0.0]


def test_growth_csv(capsys):
    code, out, _ = capture(
        capsys, ["growth", "-K", "2", "-t", "0.5", "--horizons", "5,10", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,value"
    assert len(lines) == 3


def test_itinerary_json(capsys):
    code, out, _ = capture(
        capsys, ["itinerary", "-a", "2", "-x", "1/3", "-d", "2", "-M", "1", "-N", "4"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["indices"] == [1, 2, 1, 2]
    assert float(payload["entropy"]) == pytest.approx(math.log(2), abs=1e-12)


def test_synth_reproducible(capsys):
    argv = ["synth-irregular", "-a", "2", "-b", "3", "-r", "1/2", "--depth", "1", "--seed", "4"]
    _, out1, _ = capture(capsys, argv)
    _, out2, _ = capture(capsys, argv)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["seed"] == 4
    word = payload["word"]
    assert word.startswith("b6:")
    _, out3, _ = capture(
        capsys,
        ["synth-irregular", "-a", "2", "-b", "3", "-r", "1/2", "--depth", "1", "--seed", "5"],
    )
    assert out3 != out1


def test_verify_irregular_depth_one(capsys):
    code, out, _ = capture(
        capsys, ["verify-irregular", "-a", "2", "-b", "3", "-r", "1/2", "--depth", "1"]
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("horizons", ["0,5", "-3,5"])
def test_equidist_nonpositive_horizons_exit_one(capsys, horizons):
    code, out, err = capture(
        capsys,
        ["equidist", "-a", "2", "-b", "3", "-x", "1/7", "-t", "0.5", "-U", "0,1/2",
         f"--horizons={horizons}"],
    )
    assert (code, out) == (1, "")
    assert err == "error: horizons must be >= 1\n"


@pytest.mark.parametrize("cmd", ["synth-irregular", "verify-irregular"])
def test_irregular_zero_denominator_r_exit_one(capsys, cmd):
    code, out, err = capture(capsys, [cmd, "-a", "2", "-b", "3", "-r", "1/0", "--depth", "1"])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("cmd", ["synth-irregular", "verify-irregular"])
def test_schedule_error_exit_two_with_best_estimate(capsys, monkeypatch, cmd):
    def unreachable(*args, **kwargs):
        est = irregular.MeasureEstimate(value=0.25, half_width=0.07, samples=150)
        raise irregular.ScheduleError("good-set measure condition not met at level 1", 31, est)

    monkeypatch.setattr(irregular, "choose_schedule", unreachable)
    code, out, err = capture(capsys, [cmd, "-a", "2", "-b", "3", "-r", "99/100", "--depth", "1"])
    assert (code, err) == (2, "")
    assert json.loads(out) == {
        "error": "good-set measure condition not met at level 1",
        "best_N": 31,
        "estimate": {"value": 0.25, "half_width": 0.07, "samples": 150},
        "seed": 0,
    }


def test_moran_dim_one_term_explicit_structure(capsys):
    code, out, err = capture(capsys, ["moran-dim", "--struct", "n=2;c=1/3"])
    assert (code, out) == (1, "")
    assert err == "error: explicit structure needs at least 2 terms\n"


def test_mult_indep_check_values():
    assert mult_indep_check(2, 3) is True
    assert mult_indep_check(4, 8) is False
    assert mult_indep_check(6, 12) is True
    assert mult_indep_check(9, 27) is False
    assert mult_indep_check(10**400, 10**150) is False  # beyond float range
    assert mult_indep_check(10**400, 3) is True
    assert mult_indep_check(2**1000 * 3, 2**999 * 3) is True
    assert mult_indep_check(12**401, 144**7) is False
    with pytest.raises(ValueError):
        mult_indep_check(1, 2)


def _dependent_reference(a, b):
    """a = c^p and b = c^q are dependent: a^q = b^p with q <= log2 b and p <= log2 a."""
    return any(a**q == b**p for q in range(1, b.bit_length()) for p in range(1, a.bit_length()))


# Pairs c^i m, c^j (dependent when m = 1) and unrelated pairs.
power_pairs = st.builds(
    lambda c, i, j, m: (c**i * m, c**j),
    st.integers(2, 12), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
)
free_pairs = st.tuples(st.integers(2, 2000), st.integers(2, 2000))


@settings(max_examples=300, deadline=None)
@given(st.one_of(power_pairs, free_pairs), st.booleans())
def test_mult_indep_check_matches_brute_force(pair, swap):
    a, b = pair[::-1] if swap else pair
    assert mult_indep_check(a, b) is not _dependent_reference(a, b)


def orbit_reference(a: int, b: int, x: str, N: int) -> list[list[str]]:
    """Each cell a^m b^n x as a per-cell TorusPoint of the exact big-integer product."""
    p = TorusPoint.parse(x)
    return [[str(TorusPoint(a**m * b**n * p.num, p.den)) for n in range(N)] for m in range(N)]


@pytest.mark.parametrize(
    "a, b, x, N",
    [
        (2, 3, "1234567/2147483647", 9),  # int64 rows, den = 2^31 - 1 coprime to 6
        (2, 3, "5/54432", 9),  # den = 6^5 * 7: cells reduce
        (5, 4, "7/3600", 6),  # cells reduce by powers of 2 and 5
        (2, 3, f"1/{6**13}", 9),  # den >= 2^31 dividing 6^13
        (2, 3, f"{10**17 + 3}/{2**61 - 1}", 9),  # den = 2^61 - 1: object rows
        (2, 3, "0", 4),
        (2, 3, "1/-3", 4),  # a negative denominator, as TorusPoint.parse takes it
    ],
)
def test_orbit_stdout_matches_per_cell_reference(capsys, monkeypatch, a, b, x, N):
    def unused(*args, **kwargs):
        raise AssertionError("orbit formats the residue rows, not the TorusPoint grid")

    monkeypatch.setattr(torus, "orbit_grid", unused)
    want = orbit_reference(a, b, x, N)
    argv = ["orbit", "-a", str(a), "-b", str(b), "-x", x, "-N", str(N)]
    assert capture(capsys, argv) == (0, json.dumps({"orbit": want, "seed": 0}) + "\n", "")
    csv = "".join(",".join(row) + "\n" for row in want)
    assert capture(capsys, argv + ["--format", "csv"]) == (0, csv, "")


@pytest.mark.parametrize("N", [2, 3, 4, 7])
@pytest.mark.parametrize("x", ["1234567/2147483647", f"{10**17 + 3}/{2**61 - 1}"])
def test_orbit_stdout_across_block_edges(capsys, monkeypatch, x, N):
    """Blocks of three residue rows: N = R - 1, R, R + 1 and 2R + 1 on the int64 and object paths."""
    monkeypatch.setattr(torus, "_BLOCK_CELLS", 3 * N)
    want = orbit_reference(2, 3, x, N)
    argv = ["orbit", "-a", "2", "-b", "3", "-x", x, "-N", str(N)]
    assert capture(capsys, argv) == (0, json.dumps({"orbit": want, "seed": 0}) + "\n", "")


def test_orbit_with_huge_multiplier_is_exact(capsys):
    a = 10**400
    code, out, err = capture(capsys, ["orbit", "-a", str(a), "-b", "3", "-x", "1/7", "-N", "3"])
    assert (code, err) == (0, "")
    want = [[f"{pow(a, m, 7) * 3**n % 7}/7" for n in range(3)] for m in range(3)]
    assert json.loads(out)["orbit"] == want


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fourier", "-a", "1", "-b", "3", "-x", "1/5", "-N", "3", "-K", "1"], "a, b must be >= 2"),
        (["fourier", "-a", "0", "-b", "0", "-x", "1/5", "-N", "3", "-K", "1"], "a, b must be >= 2"),
        (["itinerary", "-a", "0", "-x", "1/5", "-d", "2", "-M", "2", "-N", "4"], "a must be >= 2"),
        (["box-dim", "--struct", "n=1;c=1/2 periodic", "--depth", "10001", "--scales", "1/3,1/9,1/27"],
         "depth 10001 exceeds the limit 10000"),
        (["fourier", "-a", "2", "-b", "3", "-x", "1/5", "-N", "8193", "-K", "1"],
         "N = 8193 exceeds the grid side limit 8192"),
        (["fourier", "-a", "2", "-b", "3", "-x", f"1/{6**13}", "-N", "100000", "-K", "1"],
         "N = 100000 exceeds the grid side limit 8192"),  # den >= 2^31 takes the digit path
        (["empirical", "-a", "2", "-b", "3", "-x", "1/5", "-N", "3", "-d", "1000000000", "-K", "1"],
         "need N >= 1, 1 <= d <= 1048576, K >= 0"),
        (["itinerary", "-a", "2", "-x", "1/3", "-d", "2", "-M", "3", "-N", "2"],
         "need d >= 1, M >= 1, N >= M"),
        (["empirical", "-a", "2", "-b", "3", "-x", "1/5", "-N", "3", "-d", "1048577", "-K", "1"],
         "need N >= 1, 1 <= d <= 1048576, K >= 0"),
        (["equidist", "-a", "2", "-b", "3", "-x", "1/7", "-t", "0.5", "-U", "1/2", "--horizons", "5"],
         "-U takes two values lo,hi, not '1/2'"),
        (["equidist", "-a", "2", "-b", "3", "-x", "1/7", "-t", "0.5", "-U", "0,1/4,1/2", "--horizons", "5"],
         "-U takes two values lo,hi, not '0,1/4,1/2'"),
        (["count-r", "-K", "1200", "-N", "1200", "-t", "0.1"],
         "min(k, N) = 1200 exceeds the part limit 500"),  # the walk recurses once per part
        (["equidist", "-a", "2", "-b", "3", "-x", "1/7", "-t", "0.5", "-U", "1/2,x", "--horizons", "5"],
         "-U value 'x' is not a rational p/q with q != 0"),
        (["equidist", "-a", "2", "-b", "3", "-x", "1/7", "-t", "0.5", "-U", "1/0,1", "--horizons", "5"],
         "-U value '1/0' is not a rational p/q with q != 0"),
        (["synth-irregular", "-a", "2", "-b", "3", "-r", "x", "--depth", "1"],
         "-r value 'x' is not a rational p/q with q != 0"),
        (["verify-irregular", "-a", "2", "-b", "3", "-r", "1/0", "--depth", "1"],
         "-r value '1/0' is not a rational p/q with q != 0"),
        (["box-dim", "--struct", "n=2;c=1/3 periodic", "--depth", "2", "--scales", "1/3,1/0"],
         "--scales value '1/0' is not a rational p/q with q != 0"),
        (["box-dim", "--struct", "n=2;c=1/3 periodic", "--depth", "2", "--scales", "1/3,,1/9"],
         "--scales value '' is not a rational p/q with q != 0"),
        # exponent forms: 1e-4000000 would build a 4-million-digit integer before any check
        (["equidist", "-a", "2", "-b", "3", "-x", "1/7", "-t", "0.5", "-U", "0,1e-4000000", "--horizons", "5"],
         "-U value '1e-4000000' has an exponent; write it as p/q or a decimal"),
        (["synth-irregular", "-a", "2", "-b", "3", "-r", "5E-1", "--depth", "1"],
         "-r value '5E-1' has an exponent; write it as p/q or a decimal"),
        (["box-dim", "--struct", "n=2;c=1/3 periodic", "--depth", "2", "--scales", "1/3,1e-2,1/9"],
         "--scales value '1e-2' has an exponent; write it as p/q or a decimal"),
        (["moran-dim", "--struct", "n=2;c=1e-300000 periodic"],
         "struct spec 'c' entry must be written without exponents"),
        (["moran-dim", "--struct", '{"n": [2], "c": ["1E-3"], "periodic": true}'],
         "struct spec 'c' entry must be written without exponents"),
        (["kt-bound", "-a", "2", "-b", "1", "-t", "0.1"], "a, b must be >= 2"),
        (["kt-bound", "-a", "0", "-b", "3", "-t", "0.1"], "a, b must be >= 2"),
        (["kt-bound", "-a", "1", "-b", "3", "-t", "0.1"], "a, b must be >= 2"),
        (["q-bound", "-a", "1", "-t", "0.1"], "a must be >= 2"),
        (["q-bound", "-a", "0", "-t", "0.1"], "a must be >= 2"),
        # orbit keeps every cell string, so it has a side limit below the kernel's
        (["orbit", "-a", "2", "-b", "3", "-x", "1/5", "-N", "2049"],
         "N = 2049 exceeds the orbit side limit 2048"),
        # the itinerary record holds (M + 1) d^M Fractions; -d 64 -M 3 is exactly 2^20
        (["itinerary", "-a", "2", "-x", "1/7", "-d", "10", "-M", "30", "-N", "40"],
         "(M + 1) * d^M exceeds the limit 1048576 at -d 10 -M 30"),
        (["itinerary", "-a", "2", "-x", "1/7", "-d", "65", "-M", "3", "-N", "5"],
         "(M + 1) * d^M exceeds the limit 1048576 at -d 65 -M 3"),
        (["itinerary", "-a", "2", "-x", "1/7", "-d", "2", "-M", "16", "-N", "20"],
         "(M + 1) * d^M exceeds the limit 1048576 at -d 2 -M 16"),
        (["itinerary", "-a", "2", "-x", "1/7", "-d", "2", "-M", "1000000000", "-N", "1000000000"],
         "(M + 1) * d^M exceeds the limit 1048576 at -d 2 -M 1000000000"),
        # parse errors name their flag
        (["orbit", "-a", "2", "-b", "3", "-x", "junk", "-N", "2"],
         "-x value 'junk' is not p or p/q with integers p and q != 0"),
        (["fourier", "-a", "2", "-b", "3", "-x", "1/0", "-N", "2", "-K", "1"],
         "-x value '1/0' is not p or p/q with integers p and q != 0"),
        (["itinerary", "-a", "2", "-x", "1/2/3", "-d", "2", "-M", "2", "-N", "4"],
         "-x value '1/2/3' is not p or p/q with integers p and q != 0"),
        (["growth", "-K", "2", "-t", "0.5", "--horizons", "3,a"], "--horizons value '3,a' is not a comma-separated list of integers"),
        (["equidist", "-a", "2", "-b", "3", "-x", "1/7", "-t", "0.5", "-U", "0,1/2", "--horizons", "5,,6"],
         "--horizons value '5,,6' is not a comma-separated list of integers"),
        (["moran-dim", "--struct", "n=a;c=1/2"], "struct spec 'n' entry must be a list of numbers"),
        (["moran-dim", "--struct", "n=2;c=1/0 periodic"], "struct spec 'c' entry must be a list of numbers"),
        (["box-dim", "--struct", "n=2;c=x", "--depth", "2", "--scales", "1/3"],
         "struct spec 'c' entry must be a list of numbers"),
        (["moran-dim", "--struct", '{"n": ["a"], "c": ["1/2"]}'], "struct spec 'n' entry must be a list of numbers"),
        (["moran-dim", "--struct", '{"n": [2], "c": ["1/0"]}'], "struct spec 'c' entry must be a list of numbers"),
    ],
)
def test_out_of_range_input_exit_one(capsys, argv, message):
    assert capture(capsys, argv) == (1, "", f"error: {message}\n")


def test_default_family_depth():
    assert len(build_default_family(1)) == 2
    assert len(build_default_family(3)) == 3


def test_python_dash_m_entry_points():
    src = str(Path(irregular.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["orbit", "-a", "2", "-b", "3", "-x", "1/5", "-N", "2"]
    runs = {
        module: subprocess.run(
            [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env
        )
        for module in ("abtorus", "abtorus.cli")
    }
    for proc in runs.values():
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["orbit"] == [["1/5", "3/5"], ["2/5", "1/5"]]
    assert "RuntimeWarning" not in runs["abtorus"].stderr


def test_help_text_matches_golden(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    text = ""
    for argv in [[]] + [[name] for name in COMMANDS]:
        code, out, err = capture(capsys, argv + ["--help"])
        assert (code, err) == (0, "")
        text += out
    assert text == GOLDEN_HELP.read_text()


def test_parser_built_once_without_leaking_defaults(capsys):
    assert build_parser() is build_parser()
    argv = ["empirical", "-a", "2", "-b", "3", "-x", "1/5", "-N", "2"]
    _, out, _ = capture(capsys, argv + ["-d", "5"])
    assert len(json.loads(out)["weights"]) == 5
    _, out, _ = capture(capsys, argv)
    assert len(json.loads(out)["weights"]) == 10


@pytest.mark.parametrize("cmd", [["moran-dim"], ["box-dim", "--depth", "2", "--scales", "1/3"]])
@pytest.mark.parametrize(
    "spec, key",
    [("c=1/4", "n"), ("periodic", "n"), ("n=2,4", "c"), ('{"n": [2]}', "c"), ('{"c": ["1/3"]}', "n")],
)
def test_struct_spec_missing_key_exit_one(capsys, cmd, spec, key):
    code, out, err = capture(capsys, [*cmd, "--struct", spec])
    assert (code, out) == (1, "")
    assert err == f"error: struct spec has no {key!r} entry\n"


@pytest.mark.parametrize(
    "spec, key",
    [
        ('{"n": 2, "c": ["1/3"]}', "n"),
        ('{"n": [2], "c": "1/3"}', "c"),
        ('{"n": [2], "c": 0.5}', "c"),
        ('{"n": [true, true], "c": ["1/3", "1/3"]}', "n"),
    ],
)
def test_struct_spec_entry_not_a_list_exit_one(capsys, spec, key):
    code, out, err = capture(capsys, ["moran-dim", "--struct", spec])
    assert (code, out) == (1, "")
    assert err == f"error: struct spec {key!r} entry must be a list of numbers\n"


NAN_ERRORS = {"count-r": "need k >= 1, N >= 1, t >= 0", "growth": "need k >= 1, N >= 1, t >= 0",
              "kt-bound": "t must be positive"}


@pytest.mark.parametrize(
    "argv",
    [
        ["count-r", "-K", "2", "-N", "5", "-t", "nan"],
        ["growth", "-K", "2", "-t", "nan", "--horizons", "5"],
        ["kt-bound", "-a", "2", "-b", "3", "-t", "nan"],
    ],
)
def test_nan_threshold_exit_one(capsys, argv):
    code, out, err = capture(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"error: {NAN_ERRORS[argv[0]]}\n"


def test_count_r_alphabet_larger_than_length(capsys):
    code, out, _ = capture(capsys, ["count-r", "-K", "1500", "-N", "2", "-t", "1"])
    assert (code, out) == (0, "2250000\n")


# Minimal valid arguments of each subcommand with no CSV form.
NO_CSV = {
    "fourier": ["-a", "2", "-b", "3", "-x", "1/5", "-N", "2", "-K", "1"],
    "moran-dim": ["--struct", "n=2;c=1/3 periodic"],
    "box-dim": ["--struct", "n=2;c=1/3 periodic", "--depth", "2", "--scales", "1/3,1/9,1/27"],
    "synth-irregular": ["-a", "2", "-b", "3", "-r", "1/2"],
    "verify-irregular": ["-a", "2", "-b", "3", "-r", "1/2"],
    "count-r": ["-K", "2", "-N", "3", "-t", "0.5"],
    "itinerary": ["-a", "2", "-x", "1/3", "-d", "2", "-M", "1", "-N", "4"],
    "kt-bound": ["-a", "2", "-b", "3", "-t", "0.1"],
    "q-bound": ["-a", "2", "-t", "0.1"],
}


@pytest.mark.parametrize("cmd", sorted(set(COMMANDS) - {"orbit", "empirical", "growth", "equidist"}))
def test_csv_format_rejected_without_csv_form(capsys, cmd):
    code, out, err = capture(capsys, [cmd, *NO_CSV[cmd], "--format", "csv"])
    assert (code, out) == (64, "")
    assert err == f"error: {cmd} has no csv format\n"


@pytest.mark.parametrize(
    "spec",
    ['{"n": [2.7, 2], "c": ["1/3", "1/3"]}', '{"n": [2, 0.5], "c": ["1/3", "1/3"], "periodic": true}'],
)
def test_struct_spec_fractional_count_exit_one(capsys, spec):
    code, out, err = capture(capsys, ["moran-dim", "--struct", spec])
    assert (code, out) == (1, "")
    assert err == "error: child counts must be integers\n"


@pytest.mark.parametrize("spec", ['{"n": [2, 2], "c": [Infinity, "1/3"]}', '{"n": [2], "c": [1e400]}'])
def test_struct_spec_non_finite_ratio_exit_one(capsys, spec):
    code, out, err = capture(capsys, ["moran-dim", "--struct", spec])
    assert (code, out) == (1, "")
    assert err == "error: struct spec 'c' entry must be finite\n"


@pytest.mark.parametrize(
    "fields",
    ['"periodic": true, "preamble": null', '"periodic": true, "preamble": 1.5', '"periodic": true, "preamble": true',
     '"periodic": "no"'],
)
def test_struct_spec_periodic_and_preamble_types_exit_one(capsys, fields):
    spec = f'{{"n": [2, 4], "c": ["1/4", "1/4"], {fields}}}'
    code, out, err = capture(capsys, ["moran-dim", "--struct", spec])
    assert (code, out) == (1, "")
    assert err == "error: periodic must be true or false and preamble an integer\n"


def test_struct_spec_preamble_without_periodic_exit_one(capsys):
    code, out, err = capture(capsys, ["moran-dim", "--struct", '{"n": [2, 2], "c": ["1/3", "1/3"], "preamble": 1}'])
    assert (code, out) == (1, "")
    assert err == "error: preamble out of range\n"


@pytest.mark.parametrize(
    "spec, key",
    [
        ('{"n": [2], "c": ["1/3"], "peroidic": true}', "peroidic"),
        ('{"n": [2], "c": ["1/3"], "c": ["1/4"], "periodic": true}', "c"),
        ("n=2;c=1/3;x=5 periodic", "x"),
        ("n=2;c=1/3;c=1/4 periodic", "c"),
    ],
)
def test_struct_spec_unknown_or_repeated_key_exit_one(capsys, spec, key):
    code, out, err = capture(capsys, ["moran-dim", "--struct", spec])
    assert (code, out) == (1, "")
    assert err == f"error: struct spec key {key!r} is unknown or repeated\n"


@pytest.mark.parametrize("line", list(GOLDEN_BOX_DIM))
def test_box_dim_matches_golden(capsys, line):
    code, out, _ = capture(capsys, shlex.split(line)[1:])
    assert {"exit": code, "stdout": out} == GOLDEN_BOX_DIM[line]


@pytest.mark.parametrize("counts", ["[2, 4]", "[2.0, 4]"])
def test_struct_spec_integral_json_counts_match_compact_form(capsys, counts):
    spec = f'{{"n": {counts}, "c": ["1/4", "1/4"], "periodic": true}}'
    assert capture(capsys, ["moran-dim", "--struct", spec]) == capture(
        capsys, ["moran-dim", "--struct", "n=2,4;c=1/4 periodic"]
    )


def readme_examples() -> list[str]:
    """The command lines of the README "CLI examples" block, continuations joined."""
    block = README.read_text().split("## CLI examples", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [" ".join(line.split()) for line in block.replace("\\\n", " ").splitlines()]


def test_readme_examples_are_the_golden_corpus():
    assert readme_examples() == list(GOLDEN_EXAMPLES)


def serve_depth_two_from_fixtures(request, monkeypatch):
    """Replace the depth-2 schedule search and verification with the session fixtures."""
    schedule = request.getfixturevalue("schedule_d2")
    word, _ = request.getfixturevalue("synth_d2")
    report = request.getfixturevalue("report_d2")

    def search(a, b, r, depth, family, seed):
        assert (a, b, r, depth, seed) == (2, 3, Fraction(1, 2), 2, 0)
        return schedule

    def verify(w, recipe, family):
        assert w == word and recipe.schedule == schedule
        return report

    monkeypatch.setattr(irregular, "choose_schedule", search)
    monkeypatch.setattr(irregular, "verify_irregular", verify)


@pytest.mark.parametrize("line", list(GOLDEN_EXAMPLES))
def test_readme_example_matches_golden(capsys, monkeypatch, request, line):
    argv = shlex.split(line)[1:]
    if argv[0] in ("synth-irregular", "verify-irregular"):
        serve_depth_two_from_fixtures(request, monkeypatch)
    code, out, _ = capture(capsys, argv)
    assert {"exit": code, "stdout": out} == GOLDEN_EXAMPLES[line]
