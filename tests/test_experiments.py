import inspect
import json
import math
from pathlib import Path

import pytest

from tridecomp import experiments
from tridecomp.config import Tolerances
from tridecomp.errors import CapacityError, InvalidStateError
from tridecomp.experiments import (
    TrialConfig,
    run_closure_test,
    run_instability_sweep,
    run_isolation_scan,
    run_stability_campaign,
)


class TestConfig:
    def test_rejects_empty_trials(self):
        with pytest.raises(InvalidStateError):
            TrialConfig(trials=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(InvalidStateError, match="seed"):
            TrialConfig(seed=-1)

    @pytest.mark.parametrize("field", ["seed", "trials"])
    @pytest.mark.parametrize("value", [2.5, 2.0, float("nan"), True, False])
    def test_seed_and_trials_are_integers(self, field, value):
        # a float used to pass and fail mid-run with a bare TypeError; a bool
        # is an int, and trials=True used to run one trial
        with pytest.raises(InvalidStateError, match=f"{field} must be an "):
            TrialConfig(**{field: value})

    def test_rejects_oversized_dims(self):
        with pytest.raises(CapacityError):
            TrialConfig(dims=(300, 300, 300))

    @pytest.mark.parametrize("name", ["theta_grid", "delta_scan",
                                      "witness_size", "epsilon_grid"])
    def test_theta_grid_is_the_instability_sweeps_alone(self, name):
        # the sweep's grid and the isolation scan's witness size and epsilons
        # are constants; only the sweep's report echoes its grid
        with pytest.raises(TypeError):
            TrialConfig(**{name: 3})
        assert name not in TrialConfig().as_dict()
        rep = run_instability_sweep()
        assert rep.to_json()["config"]["theta_grid"] == [0.3, 0.1, 0.03, 0.01]

    def test_unknown_selector(self):
        with pytest.raises(InvalidStateError):
            run_stability_campaign(TrialConfig(trials=1, selector="nope"))

    @pytest.mark.parametrize("runner,selector,dims", [
        (run_stability_campaign, "all", (2, 2)),
        (run_stability_campaign, "component-match", (3, 3, 3, 3)),
        (run_isolation_scan, "all", (3, 3, 3, 3)),
        (run_closure_test, "all", (2, 2)),
    ])
    def test_dims_without_three_factors_fail_before_any_trial(
            self, monkeypatch, runner, selector, dims):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "_rng", no_trial)
        monkeypatch.setattr(experiments, "isolation_witness_3", no_trial)
        with pytest.raises(InvalidStateError, match="3 factor dims"):
            runner(TrialConfig(trials=2, dims=dims, selector=selector))


class TestInstabilitySweep:
    def test_default_grid_passes(self):
        rep = run_instability_sweep()
        assert rep.pass_rate == 1.0
        assert rep.aggregate["family_gap_decreasing"]
        assert rep.aggregate["reduced_gap_decreasing"]
        # the grid is a constant, and every theta on it runs Example 3.3
        assert "theta_grid" not in inspect.signature(
            run_instability_sweep).parameters
        assert [r["theta"] for r in rep.records] == \
            list(experiments.INSTABILITY_THETAS)
        assert all(r["diverging_certified"] for r in rep.records)


class TestStabilityCampaign:
    def test_product_match_thousand_trials(self):
        cfg = TrialConfig(seed=15, trials=1000, dims=(6, 6),
                          selector="product-match")
        rep = run_stability_campaign(cfg)
        assert rep.pass_rate == 1.0
        assert rep.aggregate["trials"] == 1000

    def test_component_match_including_ties(self):
        cfg = TrialConfig(seed=2, trials=60, dims=(6, 6, 6),
                          selector="component-match")
        rep = run_stability_campaign(cfg)
        assert rep.pass_rate == 1.0
        ties = [r for r in rep.records if r.get("tie")]
        assert ties and all(r["pass"] for r in ties)
        assert rep.aggregate["worst_overlap_margin"] > 0

    def test_mixed_selector(self):
        cfg = TrialConfig(seed=5, trials=20, dims=(6, 6, 6), selector="all")
        rep = run_stability_campaign(cfg)
        kinds = {r["kind"] for r in rep.records}
        assert kinds == {"product-match", "component-match"}
        assert rep.pass_rate == 1.0


class TestIsolationScan:
    def test_scan_passes(self):
        for seed in (0, 1, 2, 7, 9):
            rep = run_isolation_scan(TrialConfig(seed=seed, dims=(4, 4, 4)))
            assert rep.pass_rate == 1.0
            witness = next(r for r in rep.records if r["kind"] == "witness-3")
            assert witness["entropy"] == pytest.approx(math.log(4), abs=1e-10)
            # no 3-term product sum within 0.5; the 3-term truncation lies
            # at (2 - sqrt(3))^(1/2) = 0.5176
            assert witness["radius"] == pytest.approx(0.5, abs=1e-9)
            assert witness["truncation_distance"] == pytest.approx(
                math.sqrt(2.0 - math.sqrt(3.0)), abs=1e-12)
            mismatches = [r for r in rep.records
                          if r["kind"].startswith("mismatch")]
            assert len(mismatches) == 6  # two cases across the epsilon grid
            for r in mismatches:
                assert r["distance_sq"] <= r["budget"] + 1e-12
                assert r["r1_gap_13"] > 1e-6
                # no triorthogonal state within the radius, and the
                # triorthogonal psi0 the perturbation left lies at
                # sqrt(distance_sq)
                assert 0.0 < r["radius"] <= math.sqrt(r["distance_sq"])

    def test_scan_proves_rather_than_samples(self):
        # the radii come from the spectra, so the trial count changes nothing
        one, many = (run_isolation_scan(TrialConfig(seed=3, trials=t,
                                                    dims=(4, 4, 4)))
                     for t in (1, 100))
        assert one.records == many.records
        for name in ("_perturbed_within", "ISOLATION_RADIUS"):
            assert not hasattr(experiments, name)

    def test_a_radius_beyond_its_known_state_fails(self, monkeypatch):
        # the sandwich can fail: a radius of 1 reaches past the truncation
        # and every psi0, all within 0.64; witness 4 reads no radius
        monkeypatch.setattr(experiments, "isolation_radii",
                            lambda *args: (1.0, 1.0))
        rep = run_isolation_scan(TrialConfig(seed=1, dims=(4, 4, 4)))
        assert [r["pass"] for r in rep.records] == [False, True] + [False] * 6

    def test_uniform_levels_read_the_zero_cut(self):
        # witness 4 at n1 = 3 has four levels of 0.25, all below this cut
        cfg = TrialConfig(trials=1, dims=(4, 4, 4),
                          tolerances=Tolerances(zero_coeff=0.5))
        witness = run_isolation_scan(cfg).records[1]
        assert witness["kind"] == "witness-4"
        assert witness["uniform_levels"] == 0
        assert not witness["pass"]


class TestClosure:
    def test_sequence_converges_to_extracted_limit(self):
        rep = run_closure_test(TrialConfig(seed=21, dims=(4, 4, 4)))
        assert rep.pass_rate == 1.0
        by_n = {r["n"]: r for r in rep.records}
        assert by_n[10]["component_distance"] > by_n[10000]["component_distance"]
        assert by_n["limit"]["coefficients_vs_spectrum"] <= 1e-8

    def test_constant_sequence_is_trivial(self):
        # drift scales with 1/n, so a very large n is effectively constant
        rep = run_closure_test(TrialConfig(seed=21, dims=(4, 4, 4)))
        last = next(r for r in rep.records if r["n"] == 10000)
        assert last["equivalent_to_member"]
        assert last["component_distance"] < 1e-3


PIN_FILE = Path(__file__).parent / "data" / "campaign_pin.json"


def assert_matches_pin(fresh, pinned, path):
    """Floats within 1e-12 absolute; everything else exactly, types included."""
    if isinstance(pinned, float):
        assert isinstance(fresh, float), path
        assert fresh == pytest.approx(pinned, rel=0.0, abs=1e-12), path
    elif isinstance(pinned, dict):
        assert isinstance(fresh, dict) and fresh.keys() == pinned.keys(), path
        for key in pinned:
            assert_matches_pin(fresh[key], pinned[key], f"{path}/{key}")
    elif isinstance(pinned, list):
        fresh = list(fresh) if isinstance(fresh, tuple) else fresh
        assert isinstance(fresh, list) and len(fresh) == len(pinned), path
        for i, (f, p) in enumerate(zip(fresh, pinned)):
            assert_matches_pin(f, p, f"{path}[{i}]")
    else:
        assert type(fresh) is type(pinned) and fresh == pinned, path


class TestReportPlumbing:
    def test_determinism_byte_identical(self):
        cfg = TrialConfig(seed=33, trials=12, dims=(5, 5, 5), selector="all")
        a = run_stability_campaign(cfg)
        b = run_stability_campaign(cfg)
        assert json.dumps(a.to_json(), sort_keys=True) == \
            json.dumps(b.to_json(), sort_keys=True)

    def test_reports_match_recorded_values(self):
        # Recorded when partial traces were einsum contractions.  A faster
        # reduction may sum in another order, so floats are pinned to 1e-12
        # absolute; verdicts, flags and every other field match exactly.
        # The stability runs have 10 trials so that trial 9's exact tie, and
        # with it the degenerate-block path, is covered.
        pinned = json.loads(PIN_FILE.read_text())
        fresh = {}
        for seed in (1, 2):
            cfg = TrialConfig(seed=seed, trials=4, dims=(4, 4, 4))
            fresh[f"isolation/{seed}"] = run_isolation_scan(cfg).to_json()
            fresh[f"closure/{seed}"] = run_closure_test(cfg).to_json()
            stability = TrialConfig(seed=seed, trials=10, dims=(6, 6, 6),
                                    selector="all")
            fresh[f"stability/{seed}"] = \
                run_stability_campaign(stability).to_json()
        fresh["instability"] = run_instability_sweep().to_json()
        assert_matches_pin(fresh, pinned, "")

    def test_config_holds_the_fields_each_campaign_reads(self):
        cfg = TrialConfig(seed=3, trials=2, dims=(4, 4, 4))
        scanned = ["seed", "dims", "tolerances"]
        assert list(run_isolation_scan(cfg).config) == scanned
        assert list(run_closure_test(cfg).config) == scanned
        assert list(run_stability_campaign(cfg).config) == [
            "seed", "trials", "dims", "selector", "tolerances"]
        assert list(run_instability_sweep().config) == [
            "theta_grid", "tolerances"]

    def test_environment_block(self):
        rep = run_instability_sweep()
        env = rep.to_json()["environment"]
        assert env["log_base"] == "natural log"
        assert "binary64" in env["precision"]
        assert env["tolerances"]["li"] == 1e-8

    def test_csv_has_one_row_per_trial(self):
        cfg = TrialConfig(seed=4, trials=7, dims=(5, 5), selector="product-match")
        rep = run_stability_campaign(cfg)
        lines = rep.to_csv().strip().splitlines()
        assert len(lines) == 8  # header + one row per trial
        header = lines[0].split(",")
        assert "pass" in header
        assert header[0] == "schema"
        assert lines[1].startswith("tridecomp-report/1,")

    def test_report_schema_field(self):
        rep = run_instability_sweep()
        assert rep.to_json()["schema"] == "tridecomp-report/1"
