import random

import pytest

from ctivalidator import evaluation as E
from ctivalidator.errors import ContractError


def brute_force(actual, predicted, averaging):
    """Independent per-class counting in pure Python, no shared code paths."""
    labels = sorted(set(actual) | set(predicted))
    per_class = []
    for label in labels:
        tp = sum(1 for a, p in zip(actual, predicted) if a == label and p == label)
        fp = sum(1 for a, p in zip(actual, predicted) if a != label and p == label)
        fn = sum(1 for a, p in zip(actual, predicted) if a == label and p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        support = tp + fn
        per_class.append((precision, recall, f1, support))
    n = len(actual)
    accuracy = sum(1 for a, p in zip(actual, predicted) if a == p) / n
    if averaging == "macro":
        k = len(labels)
        agg = tuple(sum(row[i] for row in per_class) / k for i in range(3))
    else:
        agg = tuple(sum(row[i] * row[3] for row in per_class) / n for i in range(3))
    return (accuracy, *agg)


class TestWorkedExample:
    ACTUAL = ["a", "a", "b", "b", "c"]
    PREDICTED = ["a", "b", "b", "b", "c"]

    def test_confusion_counts(self):
        counts = E.confusion(self.ACTUAL, self.PREDICTED)
        by_label = {c.label: c for c in counts.classes}
        assert (by_label["a"].tp, by_label["a"].fp, by_label["a"].fn,
                by_label["a"].tn) == (1, 0, 1, 3)
        assert (by_label["b"].tp, by_label["b"].fp, by_label["b"].fn,
                by_label["b"].tn) == (2, 1, 0, 2)
        assert (by_label["c"].tp, by_label["c"].fp, by_label["c"].fn,
                by_label["c"].tn) == (1, 0, 0, 4)
        assert counts.n_items == 5

    def test_macro_metrics(self):
        report = E.metrics(E.confusion(self.ACTUAL, self.PREDICTED), E.MACRO)
        assert report.accuracy == pytest.approx(4 / 5, abs=1e-12)
        assert report.precision == pytest.approx((1 + 2 / 3 + 1) / 3, abs=1e-12)
        assert report.recall == pytest.approx((1 / 2 + 1 + 1) / 3, abs=1e-12)
        assert report.f1 == pytest.approx((2 / 3 + 4 / 5 + 1) / 3, abs=1e-12)

    def test_weighted_metrics(self):
        report = E.metrics(E.confusion(self.ACTUAL, self.PREDICTED), E.WEIGHTED)
        assert report.precision == pytest.approx(
            (1 * 2 + (2 / 3) * 2 + 1 * 1) / 5, abs=1e-12)
        assert report.f1 == pytest.approx(
            ((2 / 3) * 2 + (4 / 5) * 2 + 1 * 1) / 5, abs=1e-12)


class TestRandomOracle:
    @pytest.mark.parametrize("averaging", E.AVERAGING_MODES)
    def test_matches_brute_force(self, averaging):
        rng = random.Random(1234)
        for _ in range(250):
            n_classes = rng.randint(1, 5)
            n = rng.randint(1, 200)
            labels = [f"c{i}" for i in range(n_classes)]
            actual = [rng.choice(labels) for _ in range(n)]
            predicted = [rng.choice(labels) for _ in range(n)]
            report = E.metrics(E.confusion(actual, predicted), averaging)
            acc, prec, rec, f1 = brute_force(actual, predicted, averaging)
            assert report.accuracy == pytest.approx(acc, abs=1e-9)
            assert report.precision == pytest.approx(prec, abs=1e-9)
            assert report.recall == pytest.approx(rec, abs=1e-9)
            assert report.f1 == pytest.approx(f1, abs=1e-9)


class TestEdgeCases:
    def test_perfect_prediction(self):
        report = E.metrics(E.confusion(["x", "y"], ["x", "y"]), E.MACRO)
        assert (report.accuracy, report.precision, report.recall,
                report.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_absent_predicted_class_flags_zero_division(self):
        # "b" is never predicted: precision for it is 0/0, flagged not crashed
        report = E.metrics(E.confusion(["a", "b"], ["a", "a"]), E.MACRO)
        by_label = {c.label: c for c in report.per_class}
        assert by_label["b"].precision == 0.0
        assert "precision" in by_label["b"].zero_division

    def test_phantom_actual_class_flags_zero_division(self):
        # "z" is predicted but never occurs: recall for it is 0/0
        report = E.metrics(E.confusion(["a", "a"], ["a", "z"]), E.MACRO)
        by_label = {c.label: c for c in report.per_class}
        assert by_label["z"].recall == 0.0
        assert "recall" in by_label["z"].zero_division

    def test_single_item(self):
        report = E.metrics(E.confusion(["only"], ["only"]), E.MACRO)
        assert report.f1 == 1.0 and report.n_items == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            E.confusion(["a", "b"], ["a"])

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            E.confusion([], [])

    def test_unknown_averaging_rejected(self):
        counts = E.confusion(["a"], ["a"])
        with pytest.raises(ContractError):
            E.metrics(counts, "harmonic")


class TestInvariants:
    def test_accuracy_equals_micro_recall(self):
        rng = random.Random(9)
        labels = ["a", "b", "c"]
        actual = [rng.choice(labels) for _ in range(60)]
        predicted = [rng.choice(labels) for _ in range(60)]
        counts = E.confusion(actual, predicted)
        report = E.metrics(counts, E.MACRO)
        total_tp = sum(c.tp for c in counts.classes)
        assert report.accuracy == pytest.approx(total_tp / counts.n_items)

    def test_item_order_invariant(self):
        actual = ["a", "b", "a", "c", "b"]
        predicted = ["a", "a", "b", "c", "b"]
        forward = E.metrics(E.confusion(actual, predicted), E.MACRO)
        backward = E.metrics(
            E.confusion(actual[::-1], predicted[::-1]), E.MACRO)
        assert forward == backward

    def test_per_class_tn_complement(self):
        counts = E.confusion(["a", "b", "c"], ["a", "c", "c"])
        for c in counts.classes:
            assert c.tp + c.fp + c.fn + c.tn == counts.n_items


class TestTiming:
    def test_computation_time_is_sum(self):
        timing = E.TimingReport(train_time=1.5, predict_time=0.25)
        assert timing.computation_time == 1.75

    def test_negative_times_rejected(self):
        with pytest.raises(ContractError):
            E.TimingReport(train_time=-0.1, predict_time=0.0)
        with pytest.raises(ContractError):
            E.TimingReport(train_time=0.0, predict_time=-1.0)


class TestDocuments:
    def report(self):
        return E.metrics(E.confusion(["a", "a", "b"], ["a", "b", "b"]), E.MACRO)

    def test_report_round_trip(self):
        report = self.report()
        assert E.report_from_doc(E.report_to_doc(report)) == report

    def test_doc_carries_version(self):
        assert E.report_to_doc(self.report())["format_version"] == "1"
