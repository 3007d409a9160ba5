import itertools
import json

import pytest

from ctivalidator import bench
from ctivalidator.errors import ContractError


def brute_force_combinations(n):
    """Count proper non-empty subsets of n attributes by enumeration."""
    total = 0
    for r in range(1, n):
        total += sum(1 for _ in itertools.combinations(range(n), r))
    return total


class TestFeatureCombinations:
    def test_known_values(self):
        assert bench.count_feature_combinations(6) == 62
        assert bench.count_feature_combinations(13) == 8190

    @pytest.mark.parametrize("n", range(2, 17))
    def test_matches_enumeration(self, n):
        assert bench.count_feature_combinations(n) == brute_force_combinations(n)

    def test_too_few_attributes_rejected(self):
        with pytest.raises(ContractError):
            bench.count_feature_combinations(1)


class TestExperimentCounts:
    def test_on_demand_plan(self):
        plan = bench.ExperimentPlan(name="mixed", n_attributes=13, n_labels=5,
                                    n_requirements=18)
        assert bench.count_experiments(plan, bench.MODE_ON_DEMAND) == 1440

    def test_ds1_counts(self):
        plan = bench.preset_plan("ds1")
        assert plan.combinations == 62
        assert bench.count_experiments(plan, bench.MODE_ON_DEMAND) == 112
        assert bench.count_experiments(plan, bench.MODE_PREBUILD) == 992

    def test_ds2_counts(self):
        plan = bench.preset_plan("ds2")
        assert plan.combinations == 8190
        assert bench.count_experiments(plan, bench.MODE_ON_DEMAND) == 704
        assert bench.count_experiments(plan, bench.MODE_PREBUILD) == 524160

    def test_on_demand_total_across_presets(self):
        total = sum(
            bench.count_experiments(bench.preset_plan(name), bench.MODE_ON_DEMAND)
            for name in ("ds1", "ds2"))
        assert total == 816

    def test_unknown_mode_rejected(self):
        plan = bench.preset_plan("ds1")
        with pytest.raises(ContractError):
            bench.count_experiments(plan, "lazy")

    def test_unknown_preset_rejected(self):
        with pytest.raises(ContractError):
            bench.preset_plan("ds99")

    def test_plan_validation(self):
        with pytest.raises(ContractError):
            bench.ExperimentPlan(name="bad", n_attributes=1, n_labels=1,
                                 n_requirements=1)
        with pytest.raises(ContractError):
            bench.ExperimentPlan(name="bad", n_attributes=5, n_labels=0,
                                 n_requirements=1)


class TestSavings:
    def test_ds2_savings_exceed_99_percent(self):
        ratio = bench.savings_ratio(bench.preset_plan("ds2"))
        assert ratio == pytest.approx(1 - 704 / 524160, abs=1e-12)
        assert ratio >= 0.99

    def test_ds1_savings_are_modest(self):
        ratio = bench.savings_ratio(bench.preset_plan("ds1"))
        assert ratio == pytest.approx(1 - 112 / 992, abs=1e-12)
        assert ratio < 0.99  # small grids barely benefit

    def test_aggregate_savings(self):
        plans = [bench.preset_plan("ds1"), bench.preset_plan("ds2")]
        agg = bench.aggregate_savings(plans)
        assert agg == pytest.approx(1 - 816 / 524160, abs=1e-12)
        assert agg >= 0.99


class TestReport:
    def plans(self):
        return [bench.preset_plan("ds1"), bench.preset_plan("ds2")]

    def test_extrapolation_is_linear(self):
        report = bench.bench_report(self.plans(), samples=(10.0,))
        assert report.sample_mean == 10.0
        assert report.total_on_demand == 816
        # projected wall time scales with the experiment count
        doc = bench.report_to_doc(report)
        ds2 = doc["plans"][1]["projected_seconds"]
        assert ds2["on_demand"] == pytest.approx(7040.0)
        assert ds2["prebuild"] == pytest.approx(5241600.0)

    def test_mean_of_samples(self):
        report = bench.bench_report(self.plans(), samples=(2.0, 4.0))
        assert report.sample_mean == pytest.approx(3.0)

    def test_no_samples_is_allowed(self):
        report = bench.bench_report(self.plans())
        assert report.sample_mean is None
        assert "projected_seconds" not in bench.report_to_doc(report)["plans"][0]

    def test_timed_out_fraction(self):
        report = bench.bench_report(self.plans(), timed_out=204)
        assert report.timed_out_fraction == pytest.approx(204 / 816)
        assert bench.bench_report(self.plans()).timed_out_fraction == 0.0

    def test_timed_out_bounded(self):
        with pytest.raises(ContractError):
            bench.bench_report(self.plans(), timed_out=817)

    def test_render_mentions_key_numbers(self):
        text = bench.render_report(bench.bench_report(self.plans(),
                                                      samples=(1.0,)))
        assert "524160" in text
        assert "99.8443%" in text  # aggregate savings
        assert "timed-out" in text

    def test_doc_is_json_serializable(self):
        doc = bench.report_to_doc(bench.bench_report(self.plans(),
                                                     samples=(1.5,),
                                                     timed_out=3))
        parsed = json.loads(json.dumps(doc))
        assert parsed["aggregate_savings"] >= 0.99
        assert parsed["plans"][0]["plan"] == "ds1"


class TestCustomDimensions:
    def test_algorithm_and_encoding_dimensions(self):
        plan = bench.ExperimentPlan(name="small", n_attributes=4, n_labels=2,
                                    n_requirements=3, n_algorithms=2)
        assert bench.count_experiments(plan, bench.MODE_ON_DEMAND) == 3 * 2 * 2 * 2
        assert bench.count_experiments(plan, bench.MODE_PREBUILD) == 14 * 2 * 2 * 2

    def test_preset_with_restricted_tiers(self):
        plan = bench.preset_plan("ds1", n_algorithms=5)
        assert bench.count_experiments(plan, bench.MODE_ON_DEMAND) == 7 * 5 * 2 * 1

    def test_default_plans_cover_presets(self):
        names = [p.name for p in bench.default_plans()]
        assert names == ["ds1", "ds2"]
