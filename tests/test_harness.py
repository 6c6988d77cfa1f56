import json
from dataclasses import replace
from fractions import Fraction

import pytest

from cyclodiff import harness
from cyclodiff.cli import main
from cyclodiff.constants import estimate_constants
from cyclodiff.differentials import FlatDecomposition
from cyclodiff.errors import DomainError
from cyclodiff.harness import SUITE_NAMES, SUITES, check_sample_count, run_all, run_suite
from cyclodiff.reportio import canonical_dumps, validate_report
from cyclodiff.tower import CyclotomicTower, TowerParams

# small sample counts keep the whole file fast; the acceptance module runs
# the desk-scale configuration
SMALL = {
    "rnbdd": 40,
    "gaminv": 2,
    "rhoval": 9,
    "fouvar": 6,
    "nopdiv": 5,
    "base-change": 2,
    "rnk2": 12,
    "diffvec": 2,
}


@pytest.fixture(scope="module")
def t3():
    return CyclotomicTower(TowerParams(3, 1, 3, prec=20))


@pytest.fixture(scope="module")
def cons3(t3):
    return estimate_constants(t3, seed=0, samples=15)


@pytest.fixture(scope="module")
def t2():
    return CyclotomicTower(TowerParams(2, 2, 3, prec=20))


@pytest.fixture(scope="module")
def cons2(t2):
    return estimate_constants(t2, seed=0, samples=15)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_passes_p3(t3, cons3, name):
    rep = run_suite(t3, name, seed=0, constants=cons3, samples=SMALL.get(name))
    validate_report(rep)
    assert rep["suite"] == name
    assert rep["passed"], [a for a in rep["assertions"] if not a["passed"]]
    assert all(a["anchor"] == name for a in rep["assertions"])
    assert rep["tower"] == t3.description()


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_passes_p2(t2, cons2, name):
    rep = run_suite(t2, name, seed=0, constants=cons2, samples=SMALL.get(name))
    validate_report(rep)
    assert rep["passed"], [a for a in rep["assertions"] if not a["passed"]]


def test_fouvar_skips_when_tower_too_shallow(t2, cons2):
    # this tower needs level n_1 + 1 = 4 for the decomposition but stops at 3
    rep = run_suite(t2, "fouvar", seed=0, constants=cons2)
    assert rep["passed"]
    assert rep["assertions"][0]["skipped"] is True
    assert "reason" in rep["assertions"][0]["witness"]


def test_fouvar_runs_at_sufficient_depth(t3, cons3):
    rep = run_suite(t3, "fouvar", seed=0, constants=cons3, samples=4)
    assert not rep["assertions"][0].get("skipped")
    witness = rep["assertions"][0]["witness"]
    assert witness["elements"] == witness["reconstructed"] == 4


def test_fouvar_margin_floor_is_the_least_margin(t3, cons3, monkeypatch):
    # two failing elements: the floor must keep the lower margin, -2, not
    # the last one seen
    margins = iter([(Fraction(-2),), (Fraction(-1),)])

    def fake(tower, x, n1):
        return FlatDecomposition((), tower.zero(n1), next(margins))

    monkeypatch.setattr(harness, "flat_decompose", fake)
    rep = run_suite(t3, "fouvar", seed=0, constants=cons3, samples=2)
    assert not rep["passed"]
    assert rep["assertions"][0]["witness"]["margin_floor"] == "-2"


def test_theorem_b_fails_when_level_1_is_not_exact(t3, cons3, monkeypatch):
    # (0, 1) at level 1 is within the n_1 bound, so only the exact level-1
    # check can fail it
    real = harness.commensurability_check

    def fake(p, phi, cols_sum, cols_ker):
        return (0, 1) if phi == t3.phi(1) else real(p, phi, cols_sum, cols_ker)

    monkeypatch.setattr(harness, "commensurability_check", fake)
    assert cons3.n_1 >= 1
    rep = run_suite(t3, "theorem-b", seed=0, constants=cons3)
    assert not rep["passed"]
    assert [a["name"] for a in rep["assertions"] if not a["passed"]] == [
        "lattice-commensurability-level-1"
    ]


def test_theorem_a_shadow_fails_when_the_gap_stops_growing(t3, cons3, monkeypatch):
    # w2 = m - 1 at level m makes every gap 1, a gap that does not grow
    monkeypatch.setattr(harness, "w2_valuation", lambda tower, x: x.level - 1)
    rep = run_suite(t3, "theorem-a-shadow", seed=0, constants=cons3)
    grows = rep["assertions"][-1]
    assert not rep["passed"]
    assert grows["name"] == "gap-grows-with-level" and not grows["passed"]
    assert grows["witness"]["gaps"] == ["1", "1", "1"]


def nudged_normalized_trace(monkeypatch):
    """Patch R_n to add p^k to slot 0, k the last digit that the honest
    route p^-(m-n) Tr(x) keeps: R_n and the honest route then differ at their
    common cap by exactly one digit, which `-` must not read as bottom."""
    real = CyclotomicTower.normalized_trace

    def nudged(tower, x, level):
        k = x.cap - (x.level - level) - 1
        return real(tower, x, level) + tower.scale_p(tower.one(level), k)

    monkeypatch.setattr(CyclotomicTower, "normalized_trace", nudged)


def test_rnbdd_fails_when_the_mask_misses_one_digit(t3, cons3, monkeypatch):
    nudged_normalized_trace(monkeypatch)
    rep = run_suite(t3, "rnbdd", seed=0, constants=cons3, samples=SMALL["rnbdd"])
    samples = rep["assertions"][1]
    assert not rep["passed"] and not samples["passed"]
    assert samples["witness"]["mask_mismatches"] > 0


def test_gaminv_fails_below_the_measured_c3(t3, cons3):
    # c3* - 1 is below every cell, and below the defect of x - g(x)
    rep = run_suite(
        t3, "gaminv", seed=0, constants=replace(cons3, c3_star=cons3.c3_star - 1),
        samples=SMALL["gaminv"],
    )
    assert not rep["passed"]
    assert [a["passed"] for a in rep["assertions"]] == [False, False]
    assert rep["assertions"][1]["witness"]["violations"] > 0


def test_rhoval_fails_on_a_chain_that_is_not_norm_compatible(t3, cons3, monkeypatch):
    # rho_n zeta_n is a uniformizer too, but rho_1^3 zeta_0 - rho_0 has val 1,
    # not the 7/6 of the norm-compatible chain
    real = CyclotomicTower.uniformizer

    def twisted(tower, level):
        return real(tower, level) * tower.zeta(level) if level else real(tower, level)

    monkeypatch.setattr(CyclotomicTower, "uniformizer", twisted)
    rep = run_suite(t3, "rhoval", seed=0, constants=cons3, samples=SMALL["rhoval"])
    base = rep["assertions"][-1]
    assert not rep["passed"]
    assert base["name"] == "base-step-witness" and not base["passed"]
    assert base["witness"]["value"] == "1"


def test_a_failing_rnbdd_exits_1_through_the_cli(monkeypatch, tmp_path):
    nudged_normalized_trace(monkeypatch)
    out = tmp_path / "rep.json"
    argv = ["verify", "rnbdd", "--p", "3", "--levels", "2", "--prec", "16"]
    assert main([*argv, "--constants-samples", "2", "--samples", "8", "--out", str(out)]) == 1
    rep = json.loads(out.read_text())
    assert rep["passed"] is False
    assert rep["assertions"][1]["witness"]["mask_mismatches"] > 0


def failing(rep):
    return [a["name"] for a in rep["assertions"] if not a["passed"]]


def test_fonemb_fails_on_a_wrong_iterate_threshold(t3, cons3):
    rep = run_suite(t3, "fonemb", seed=0, constants=replace(cons3, m_c=cons3.m_c + 1))
    assert not rep["passed"]
    assert failing(rep) == ["iterate-threshold"]


def test_nopdiv_fails_below_the_divisibility_ceiling(t3, cons3):
    rep = run_suite(
        t3, "nopdiv", seed=0, constants=replace(cons3, n_1=cons3.n_1 - 50),
        samples=SMALL["nopdiv"],
    )
    assert not rep["passed"]
    assert failing(rep) == ["divisibility-ceiling"]


def test_fouvar_fails_when_a_part_is_dropped(t3, cons3, monkeypatch):
    real = harness.flat_decompose

    def short(tower, x, n1):
        dec = real(tower, x, n1)
        return replace(dec, parts=dec.parts[1:])

    monkeypatch.setattr(harness, "flat_decompose", short)
    rep = run_suite(t3, "fouvar", seed=0, constants=cons3, samples=SMALL["fouvar"])
    witness = rep["assertions"][0]["witness"]
    assert not rep["passed"]
    assert failing(rep) == ["flat-decomposition"]
    assert witness["reconstructed"] < witness["elements"]


def test_rnk2_fails_when_reconstruction_is_off_by_one(t3, cons3, monkeypatch):
    real = harness.series_reconstruct
    monkeypatch.setattr(harness, "series_reconstruct", lambda tower, s: real(tower, s) + 1)
    rep = run_suite(t3, "rnk2", seed=0, constants=cons3, samples=SMALL["rnk2"])
    roundtrip = rep["assertions"][0]
    assert not rep["passed"]
    assert roundtrip["name"] == "decompose-reconstruct-roundtrip" and not roundtrip["passed"]
    assert roundtrip["witness"]["roundtrips"] == 0


def test_diffvec_fails_when_roots_of_unity_read_as_members(t3, cons3, monkeypatch):
    real = harness.layered_sum_membership
    monkeypatch.setattr(
        harness, "layered_sum_membership",
        lambda tower, y: replace(real(tower, y), slack_needed=0),
    )
    rep = run_suite(t3, "diffvec", seed=0, constants=cons3, samples=SMALL["diffvec"])
    assert not rep["passed"]
    assert failing(rep) == ["root-of-unity-witnesses-rejected"]


def test_a_wrong_different_fails_tatediff_with_exit_1(monkeypatch, tmp_path):
    # p g'(rho) has valuation one too many at every level and over both
    # bases: `different` measures it, tatediff judges it, and constants
    # reads it as the drift b = 1 without failing
    real = CyclotomicTower.minpoly_derivative_at_rho
    monkeypatch.setattr(
        CyclotomicTower, "minpoly_derivative_at_rho",
        lambda tower, *args, **kw: real(tower, *args, **kw) * tower.p,
    )
    out = tmp_path / "rep.json"
    tower = ["--p", "3", "--levels", "2", "--prec", "16"]
    argv = ["verify", "tatediff", *tower, "--constants-samples", "4", "--out", str(out)]
    assert main(argv) == 1
    rep = json.loads(out.read_text())
    assert rep["passed"] is False
    assert failing(rep) == [a["name"] for a in rep["assertions"]]
    assert main(["constants", *tower, "--samples", "4", "--out", str(out)]) == 0
    drift = json.loads(out.read_text())["constants"]
    assert (drift["a"], drift["b"]) == ("0", "1")


def test_base_change_fails_when_the_classes_disagree(t3, cons3, monkeypatch):
    monkeypatch.setattr(harness, "base_change_compare", lambda tower, x: False)
    rep = run_suite(t3, "base-change", seed=0, constants=cons3, samples=SMALL["base-change"])
    assert not rep["passed"]
    assert failing(rep) == ["classes-agree-after-rescaling"]


# one control per suite, each a way to make that suite report a failure;
# a suite added without one fails here
NEGATIVE_CONTROLS = {
    "tatediff": test_a_wrong_different_fails_tatediff_with_exit_1,
    "fonemb": test_fonemb_fails_on_a_wrong_iterate_threshold,
    "rnbdd": test_rnbdd_fails_when_the_mask_misses_one_digit,
    "gaminv": test_gaminv_fails_below_the_measured_c3,
    "rhoval": test_rhoval_fails_on_a_chain_that_is_not_norm_compatible,
    "theorem-b": test_theorem_b_fails_when_level_1_is_not_exact,
    "fouvar": test_fouvar_fails_when_a_part_is_dropped,
    "nopdiv": test_nopdiv_fails_below_the_divisibility_ceiling,
    "base-change": test_base_change_fails_when_the_classes_disagree,
    "rnk2": test_rnk2_fails_when_reconstruction_is_off_by_one,
    "diffvec": test_diffvec_fails_when_roots_of_unity_read_as_members,
    "theorem-a-shadow": test_theorem_a_shadow_fails_when_the_gap_stops_growing,
}


def test_every_suite_has_a_negative_control():
    assert set(NEGATIVE_CONTROLS) == set(SUITE_NAMES)


def test_unknown_suite_rejected(t3):
    with pytest.raises(DomainError):
        run_suite(t3, "nonesuch")


@pytest.mark.parametrize("samples", [0, -1])
def test_bad_sample_count_rejected(t3, cons3, samples):
    # rejected before any constants are measured or suites run
    with pytest.raises(DomainError):
        run_suite(t3, "rhoval", constants=cons3, samples=samples)
    with pytest.raises(DomainError):
        run_all(t3, samples=samples)


def test_constants_from_another_tower_rejected(t2, cons3):
    # p = 3 constants on a p = 2 tower would fail fonemb for the wrong reason
    with pytest.raises(DomainError, match="constants measured"):
        run_suite(t2, "rhoval", constants=cons3, samples=3)
    with pytest.raises(DomainError, match="constants measured"):
        run_all(t2, samples=2, constants=cons3)


@pytest.mark.parametrize("field", ["p", "s", "max_level", "prec"])
def test_constants_must_match_every_tower_parameter(t3, cons3, field):
    wrong = replace(cons3, **{field: getattr(cons3, field) + 1})
    with pytest.raises(DomainError, match="constants measured"):
        run_suite(t3, "rhoval", constants=wrong, samples=3)


def test_run_all_shares_constants(t3, cons3):
    rep = run_all(t3, seed=0, samples=2, constants=cons3)
    validate_report(rep)
    assert set(rep["suites"]) == set(SUITE_NAMES)
    assert rep["passed"]
    assert all(r["constants_samples"] == cons3.samples for r in rep["suites"].values())


def test_reports_are_deterministic(t3, cons3):
    a = run_suite(t3, "rnk2", seed=11, constants=cons3, samples=5)
    b = run_suite(t3, "rnk2", seed=11, constants=cons3, samples=5)
    assert canonical_dumps(a) == canonical_dumps(b)
    c = run_suite(t3, "rnk2", seed=12, constants=cons3, samples=5)
    assert c["seed"] != a["seed"]


def test_default_sample_table_covers_all_suites():
    # one table holds every suite's runner and default sample count, and each
    # default is one that run_suite itself would accept
    for runner, default in SUITES.values():
        assert callable(runner)
        check_sample_count(default)


def test_margin_tally_counts_violations_and_keeps_the_least_margin():
    tally = harness._Margins()
    assert not tally.ok
    assert tally.witness() == {"checked": 0, "violations": 0, "worst_margin": None}
    for margin in (Fraction(2), Fraction(-1, 3), Fraction(0), Fraction(-1, 6)):
        tally.add(margin)
    assert not tally.ok
    assert tally.witness(k_cap=4) == {
        "checked": 4,
        "violations": 2,
        "worst_margin": "-1/3",
        "k_cap": 4,
    }


def test_witness_margins_nonnegative(t3, cons3):
    rep = run_suite(t3, "rnbdd", seed=0, constants=cons3, samples=SMALL["rnbdd"])
    w = rep["assertions"][1]["witness"]
    assert w["violations"] == 0 and w["mask_mismatches"] == 0
    rep = run_suite(t3, "gaminv", seed=0, constants=cons3, samples=SMALL["gaminv"])
    w = rep["assertions"][1]["witness"]
    assert w["violations"] == 0
