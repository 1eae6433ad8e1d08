import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abtorus import (
    DigitWord,
    TorusPoint,
    build_test_family,
    bump_function,
    choose_schedule,
    cli,
    estimate_X_measure,
    induced_moran_structure,
    irregular,
    membership_X,
    modulus_l,
    moran_dims,
    orbit_fracs,
    point_of_word,
    synthesize_point,
)
from abtorus.irregular import (
    SAMPLE_DEN,
    IrregularRecipe,
    Schedule,
    ScheduleError,
    TrigTestFunction,
)
from references import bump_mean, ld_member_mean, member_values

GOLDEN_D2 = Path(__file__).parent / "golden" / "verify_irregular_d2_seed0.json"


def test_family_values_and_integral():
    fam = build_test_family(4)
    psi1, psi2 = fam[0], fam[1]
    assert member_values(psi1, 0.0) == pytest.approx(1.0)
    assert member_values(psi2, 0.0) == pytest.approx(0.505)
    for f in fam:
        assert f.integral == pytest.approx(0.505)
    assert fam[2].freq == 2 and fam[2].kind == "cos"
    # every cell at 0: S_j = 1, and each average is the member's value at 0
    assert psi1.average([1 + 0j]) == pytest.approx(1.0) and psi2.average([1 + 0j]) == pytest.approx(0.505)


def test_family_bounds():
    fam = tuple(TrigTestFunction(freq, kind, eta=0.05) for freq, kind in ((1, "cos"), (1, "sin"), (2, "cos")))
    xs = np.linspace(0, 1, 1001)
    for f in fam:
        vals = member_values(f, xs)
        assert (vals > 0).all() and (vals <= 1 + 1e-12).all()
        # modulus of continuity on a fine grid
        step = xs[1] - xs[0]
        assert abs(np.diff(vals)).max() <= f.lipschitz * step + 1e-9


def test_membership_fixed_point_fails():
    assert not membership_X(TorusPoint(0, 1), 1, 30, 2, 3)


def test_membership_generic_point_passes():
    x = TorusPoint(123456789, 1000000007)
    assert membership_X(x, 1, 60, 2, 3)


def reference_membership(x, k, N, a, b):
    """The decision on the np.cos and np.sin orbit averages of build_test_family(k)."""
    family = build_test_family(k)
    averages = [member_values(f, orbit_fracs(x, a, b, N)).mean() for f in family]
    return all(abs(avg - f.integral) < 1.0 / (3.0 * k) for avg, f in zip(averages, family))


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=1, max_value=SAMPLE_DEN - 1),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([(2, 3), (3, 2), (2, 5)]),
)
# Points whose decision turns if member i reads frequency i + 1 in place of
# ceil(i/2), each average at least 0.09 from its threshold.
@example(1133435240, 2, 2, (2, 3))
@example(1051555289, 3, 2, (2, 5))
@example(1794745447, 3, 3, (3, 2))
@example(1879333603, 2, 4, (3, 2))
def test_membership_matches_reference_decision(num, N, k, ab):
    x = TorusPoint(num, SAMPLE_DEN)
    assert membership_X(x, k, N, *ab) == reference_membership(x, k, N, *ab)


# N = 1 points 2000 / SAMPLE_DEN on both sides of a crossing of
# |f(x) - integral| = 1/3 for the family's first member, whose floor is eta:
# the decision turns between them.
@pytest.mark.parametrize(
    "eta, num, expected",
    [
        (0.01, 789378651, True),
        (0.01, 789380651, False),
        (0.01, 284361172, False),
        (0.01, 284363172, True),
    ],
)
def test_membership_near_the_threshold(eta, num, expected):
    assert build_test_family(1) == (TrigTestFunction(1, "cos", eta),)
    x = TorusPoint(num, SAMPLE_DEN)
    assert membership_X(x, 1, 1, 2, 3) is expected
    assert reference_membership(x, 1, 1, 2, 3) is expected


def test_membership_of_a_cell_rounding_to_one():
    # digit path: 1 - 6^-30 rounds to 1.0, which is 0 on the circle
    x = TorusPoint(6**30 - 1, 6**30)
    assert orbit_fracs(x, 2, 3, 1)[0, 0] == 1.0
    for k in range(1, 5):
        assert membership_X(x, k, 1, 2, 3) is reference_membership(x, k, 1, 2, 3)


def test_membership_and_verify_read_one_orbit_grid(monkeypatch):
    """One full orbit_fracs grid per membership_X call, through the character sums, and one per verify_irregular."""
    sides = []

    def counted(x, a, b, N):
        sides.append(N)
        return orbit_fracs(x, a, b, N)

    monkeypatch.setattr(irregular, "orbit_fracs", counted)  # measures builds no orbit_fracs grid
    assert membership_X(TorusPoint(123456789, SAMPLE_DEN), 2, 60, 2, 3)
    assert sides == [60]
    schedule = Schedule(a=2, b=3, r=Fraction(1, 2), l=(2,), N=(5,), L=(12,))
    recipe = IrregularRecipe(schedule, seed=0, donors=[], donor_tries=[])
    irregular.verify_irregular(DigitWord(6, tuple(range(6)) * 2), recipe)
    assert sides == [60, 12]


def test_test_family_and_least_chain_refuse_out_of_range_arguments():
    with pytest.raises(ValueError, match="^count must be >= 1$"):
        build_test_family(0)
    with pytest.raises(ValueError, match="^depth must be >= 1$"):
        irregular._least_chain(2, 3, Fraction(1, 2), 0)
    for r in (Fraction(0), Fraction(1)):
        with pytest.raises(ValueError, match=r"^r must be in \(0, 1\)$"):
            irregular._least_chain(2, 3, r, 1)


def test_synthesis_gives_up_after_its_donor_budget(monkeypatch):
    """With every donor refused, level 1 draws exactly _MAX_TRIES of them and then stops."""
    drawn = []
    monkeypatch.setattr(irregular, "_MAX_TRIES", 3)
    monkeypatch.setattr(irregular, "membership_X", lambda *args: drawn.append(args) and False)
    schedule = Schedule(a=2, b=3, r=Fraction(1, 2), l=(2,), N=(5,), L=(60,))
    with pytest.raises(RuntimeError, match="^sampling budget exhausted at level 1$"):
        synthesize_point(schedule, seed=0)
    assert len(drawn) == 3


def test_membership_rejects_bad_horizon():
    with pytest.raises(ValueError):
        membership_X(TorusPoint(1, 3), 1, 0, 2, 3)


def test_estimate_X_measure(monkeypatch):
    monkeypatch.setattr(irregular, "_SAMPLES", 200)
    est = estimate_X_measure(1, 60, 2, 3, seed=5)
    assert est.value >= 0.9 and est.samples == 200
    small = estimate_X_measure(1, 1, 2, 3, seed=5)
    assert small.value < est.value


def test_modulus_l_values():
    assert modulus_l(1, 2, 3) == 2
    prev = 0
    for k in range(1, 7):
        # smallest l with lip * 6^-l < 1/(3k), lip = 0.99 pi ceil(k/2) of the family's last member
        l, lip = modulus_l(k, 2, 3), 0.99 * math.pi * ((k + 1) // 2)
        assert lip * 6.0**-l < 1 / (3 * k) <= lip * 6.0 ** -(l - 1)
        assert l >= prev
        prev = l


def test_a_b_below_two_are_refused_before_the_l_search():
    """a b = 1 would never stop the l loops of modulus_l and bump_function, so a, b < 2 are refused first.

    The calls run in a child with a timeout, so a hang fails the test instead of stalling the suite.
    """
    src = str(Path(irregular.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "from fractions import Fraction\n"
        "from abtorus import bump_function, choose_schedule, irregular, modulus_l\n"
        "r = Fraction(1, 2)\n"
        "for call in (lambda: choose_schedule(1, 1, r, 1), lambda: modulus_l(1, 1, 1),\n"
        "             lambda: bump_function(1, 1, r), lambda: irregular._least_chain(1, 2, r, 1),\n"
        "             lambda: modulus_l(1, 2, 0), lambda: bump_function(3, -2, r)):\n"
        "    try:\n"
        "        print('returned', call())\n"
        "    except ValueError as err:\n"
        "        print(err)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["a, b must be >= 2"] * 6


def test_schedule_depth_one_inequalities():
    sched = choose_schedule(2, 3, Fraction(1, 2), 1, seed=0)
    (l1,), (N1,), (L1,) = sched.l, sched.N, sched.L
    assert 0 < N1 < sched.floor_rL(1) < L1
    c = 0 + l1
    assert 6 * 1 * (2 * N1 * c - c * c) < N1 * N1
    assert 1 * (0 + N1) < L1


def test_schedule_depth_two_inequalities(schedule_d2):
    sched = schedule_d2
    L_prev = 0
    prev_sum = 0
    for k in range(1, 3):
        l_k, N_k, L_k = sched.l[k - 1], sched.N[k - 1], sched.L[k - 1]
        assert L_prev < N_k < sched.floor_rL(k) < L_k
        assert N_k > L_prev + l_k
        c = L_prev + l_k
        assert 6 * k * (2 * N_k * c - c * c) < N_k * N_k
        assert k * prev_sum < N_k
        assert k * (prev_sum + N_k) < L_k
        prev_sum += N_k + L_k
        L_prev = L_k


def least_N_by_steps(k, c, prev_sum):
    """The first horizon of a level by counting up, from the schedule's lower bounds."""
    N = max(c + 1, k * prev_sum + 1)
    while 6 * k * (2 * N * c - c * c) >= N * N:
        N += 1
    return N


def least_L_by_steps(k, prev_sum, N, r):
    L = max(k * (prev_sum + N) + 1, N + 1)
    while r.numerator * L // r.denominator <= N:
        L += 1
    return L


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 300),
    st.integers(0, 10**4),
    st.integers(0, 10**3),
    st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda r: 0 < r < 1),
)
def test_closed_form_horizons_match_counting_up(k, c, prev_sum, grow, r):
    N = irregular._least_N(k, c, prev_sum)
    assert N == least_N_by_steps(k, c, prev_sum)
    N += grow  # the Monte Carlo search may raise N before L is chosen
    assert irregular._least_L(k, prev_sum, N, r) == least_L_by_steps(k, prev_sum, N, r)


def test_schedule_unreachable_measure_reports_best(monkeypatch):
    monkeypatch.setattr(irregular, "_SAMPLES", 100)
    monkeypatch.setattr(irregular, "_GROWTH", 1.01)
    monkeypatch.setattr(irregular, "_MAX_EXPANSIONS", 2)
    with pytest.raises(ScheduleError) as exc:
        choose_schedule(2, 3, Fraction(99, 100), 1, seed=0)
    assert exc.value.best_N > 0


def test_schedule_error_best_N_is_where_the_best_estimate_was_taken(monkeypatch):
    reported = []
    monkeypatch.setattr(irregular, "_SAMPLES", 100)
    monkeypatch.setattr(irregular, "_MAX_EXPANSIONS", 1)
    for growth in (1.5, 3.0):  # one attempt: no expansion, so growth cannot matter
        monkeypatch.setattr(irregular, "_GROWTH", growth)
        with pytest.raises(ScheduleError) as exc:
            choose_schedule(2, 3, Fraction(99, 100), 1, seed=0)
        reported.append((exc.value.best_N, exc.value.estimate))
    assert reported[0] == reported[1]


@pytest.mark.parametrize(
    "r, depth, growth, rejected, searched",
    [
        (Fraction(1, 20), 2, 1.3, "N_2 = 11322 at level 2", []),  # L_1 = 480 makes the least N_2 large
        (Fraction(1, 1000), 1, 1.3, "L_1 = 24000 at level 1", []),  # L_1 >= 1000 (N_1 + 1)
        (Fraction(99, 100), 1, 400.0, "N_1 = 9200 at level 1", [(1, 23)]),  # an expanded N_1
    ],
)
def test_schedule_rejects_a_side_past_the_grid_limit_before_its_search(monkeypatch, r, depth, growth, rejected, searched):
    """A level's N_k or L_k above MAX_SIDE is an error before that N_k is estimated, naming -r and --depth."""
    estimated = []
    estimate = irregular.estimate_X_measure
    monkeypatch.setattr(irregular, "estimate_X_measure", lambda *args: estimated.append(args[:2]) or estimate(*args))
    monkeypatch.setattr(irregular, "_GROWTH", growth)
    message = f"-r {r} --depth {depth} needs {rejected}, above the grid side limit 8192"
    with pytest.raises(ValueError, match=f"^{message}$"):
        choose_schedule(2, 3, r, depth, seed=0)
    assert estimated == searched


def test_synthesized_word_blocks(schedule_d2, synth_d2):
    word, recipe = synth_d2
    sched = schedule_d2
    assert len(word) == sched.L[-1]
    L_prev = 0
    for k in range(1, sched.depth + 1):
        rL, L_k = sched.floor_rL(k), sched.L[k - 1]
        assert all(d == 0 for d in word.digits[rL:L_k])
        # copied block agrees with the donor's digits
        from abtorus import digits_of, TorusPoint

        donor = TorusPoint.parse(recipe.donors[k - 1])
        N_k = sched.N[k - 1]
        donor_digits = digits_of(donor, 6, N_k).digits
        assert word.digits[L_prev:N_k] == donor_digits[L_prev:N_k]
        assert membership_X(donor, k, N_k, 2, 3)
        L_prev = L_k


def test_synthesis_determinism():
    sched = choose_schedule(2, 3, Fraction(1, 2), 1, seed=0)
    w1, _ = synthesize_point(sched, seed=9)
    w2, _ = synthesize_point(sched, seed=9)
    w3, _ = synthesize_point(sched, seed=10)
    assert w1 == w2
    assert w1 != w3


def _cli_stdout(cmd, synth, report, monkeypatch, capsys):
    """stdout of `abtorus <cmd> -a 2 -b 3 -r 1/2` with the depth-2 fixtures in place of the search."""
    word, recipe = synth
    monkeypatch.setattr(cli, "_synthesize", lambda args: (word, recipe))
    monkeypatch.setattr(irregular, "verify_irregular", lambda *args: report)
    assert cli.run([cmd, "-a", "2", "-b", "3", "-r", "1/2"]) == 0
    return capsys.readouterr().out


def test_depth_two_pipeline_matches_golden(synth_d2, report_d2, monkeypatch, capsys):
    # a=2, b=3, r=1/2, seed 0; captured before the digit-automaton orbit path
    golden = json.loads(GOLDEN_D2.read_text())
    word = json.dumps(str(synth_d2[0]))
    synth_out = _cli_stdout("synth-irregular", synth_d2, report_d2, monkeypatch, capsys)
    assert synth_out == f'{{"recipe": {golden["recipe"]}, "word": {word}, "seed": 0}}\n'
    verify_out = _cli_stdout("verify-irregular", synth_d2, report_d2, monkeypatch, capsys)
    assert verify_out == golden["report"][:-1] + ', "seed": 0}\n'


def golden_level(level: int) -> dict:
    return json.loads(json.loads(GOLDEN_D2.read_text())["report"])["levels"][level - 1]


def test_golden_bump_average_is_the_exact_mean(synth_d2):
    """Level 1's bump average is the double nearest the exact mean of its L_1^2 bump cells."""
    word, recipe = synth_d2
    cells = orbit_fracs(point_of_word(word), 2, 3, recipe.schedule.L[0])
    mean = bump_mean(bump_function(2, 3, Fraction(1, 2)), cells)
    assert golden_level(1)["bump_average"] == float(mean) == 0.29746184174920753


def test_golden_sine_average_is_the_extended_precision_mean(synth_d2):
    """Level 2's sine average is the double nearest its mean over the N_2^2 cells in 64-bit-significand arithmetic.

    `test_verify_reductions_match_exact_means` checks that mean against mpmath.
    """
    if np.finfo(np.longdouble).nmant < 63:
        pytest.skip("np.longdouble has no 64-bit significand here")
    word, recipe = synth_d2
    cells = orbit_fracs(point_of_word(word), 2, 3, recipe.schedule.N[1])
    assert golden_level(2)["averages"][1] == float(ld_member_mean(build_test_family(2)[1], cells)) == 0.5073419566444172


def test_verify_report_passes(synth_d2, report_d2, monkeypatch, capsys):
    rep = report_d2
    assert rep.passed
    assert rep.bump_l == 2
    for lc in rep.levels:
        assert all(m > 0 for m in lc.deviation_margins)
        assert lc.bump_margin > 0
        assert lc.bump_threshold == pytest.approx(0.125)
    assert json.loads(_cli_stdout("verify-irregular", synth_d2, rep, monkeypatch, capsys))["passed"] is True
    assert [len(lc.averages) for lc in rep.levels] == [1, 2]  # level k reads the first k members


def test_verify_refuses_a_word_not_in_base_ab():
    """A word in another base codes another point, so it is an error, not a verdict."""
    schedule = Schedule(a=2, b=3, r=Fraction(1, 2), l=(2,), N=(5,), L=(12,))
    recipe = IrregularRecipe(schedule, seed=0, donors=[], donor_tries=[])
    with pytest.raises(ValueError, match="^word base 10 is not a\\*b = 6$"):
        irregular.verify_irregular(DigitWord(10, tuple(range(10)) * 2), recipe)
    with pytest.raises(ValueError, match="^word shorter than the schedule's final level$"):
        irregular.verify_irregular(DigitWord(6, (1,) * 11), recipe)


def test_bump_function_values():
    bump = bump_function(2, 3, Fraction(1, 2))
    assert bump.l == 2
    assert bump.integral == Fraction(1, 24)
    assert bump(0.0) == 1.0
    assert bump(1.0 / 36) == 1.0
    assert bump(0.5) == 0.0
    assert float(bump.integral) < 0.5 * (1 - 0.5) ** 2


def test_bump_function_range_check():
    with pytest.raises(ValueError):
        bump_function(2, 3, Fraction(3, 2))


def test_induced_moran_structure(schedule_d2):
    assert (schedule_d2.N, schedule_d2.L) == ((23, 1175), (48, 2493))
    struct = induced_moran_structure(schedule_d2)
    dims = moran_dims(struct, len(struct.counts) - 1)
    assert 0 < dims.s2 <= dims.s1 <= 1 + 1e-12
    assert dims.s1 == pytest.approx(0.9790231112493912, rel=0, abs=1e-12)
    assert dims.s2 == pytest.approx(0.4898621317230368, rel=0, abs=1e-12)


def test_recipe_serialization(synth_d2, report_d2, monkeypatch, capsys):
    word, recipe = synth_d2
    obj = json.loads(_cli_stdout("synth-irregular", synth_d2, report_d2, monkeypatch, capsys))["recipe"]
    assert obj["seed"] == 0
    assert obj["N"] == list(recipe.schedule.N)
    assert len(obj["donors"]) == recipe.schedule.depth


def test_synthesized_point_in_donor_cylinder(synth_d2):
    word, recipe = synth_d2
    x = point_of_word(word)
    # first-level agreement: x lies in the donor's depth-N_1 base-6 cylinder
    from abtorus import TorusPoint, digits_of

    donor = TorusPoint.parse(recipe.donors[0])
    N1 = recipe.schedule.N[0]
    assert digits_of(x, 6, N1) == digits_of(donor, 6, N1)
