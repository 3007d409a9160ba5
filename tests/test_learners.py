import collections
import itertools
import json
import math
import types

import numpy as np
import pytest

from ctivalidator import evaluation, features, ingest, learners
from ctivalidator.errors import (
    BudgetExceededError,
    ContractError,
    NoModelFoundError,
    SpecMismatchError,
)
from ctivalidator.learners import _kernels, algorithms, training
from ctivalidator.learners.algorithms import (
    GaussianNbModel,
    KnnModel,
    make_model,
    mlp_loss_and_grad,
    model_from_payload,
)

from fixture_lib import (
    CallCountClock,
    PlainRequirement,
    banded_dataset,
    later_looks_faster,
    later_looks_slower,
    noisy_dataset,
    planted_dataset,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def seq_block_classification(values, codes, n_classes, min_leaf):
    """The sequential kernel column by column; strict > keeps the earliest."""
    best = (-1.0, -1, -1)
    for j in range(values.shape[1]):
        score, pos = _kernels._split_class_seq(values[:, j], codes[:, j],
                                               n_classes, min_leaf)
        if pos >= 0 and score > best[0]:
            best = (float(score), j, int(pos))
    return best


def seq_block_regression(values, grad, hess, lam, min_leaf):
    best = (-np.inf, -1, -1)
    for j in range(values.shape[1]):
        score, pos = _kernels._split_reg_seq(values[:, j], grad[:, j],
                                             hess[:, j], lam, min_leaf)
        if pos >= 0 and score > best[0]:
            best = (float(score), j, int(pos))
    return best


def tied_blocks(seed, count=150):
    """Sorted column blocks with ties across positions and across columns."""
    r = np.random.default_rng(seed)
    blocks = []
    for i in range(count):
        n = int(r.integers(1, 40))
        m = int(r.integers(1, 6))
        values = np.sort(r.choice([0.0, 1.0, 2.5, 2.5, 7.0], size=(n, m)), axis=0)
        if m > 1 and i % 3 == 0:
            values[:, 1] = values[:, 0]  # duplicate column: an exact tie
        if m > 2 and i % 5 == 0:
            values[:, 2] = 1.0  # constant column: no valid cut
        min_leaf = (1, 1, 2, 3)[i % 4]
        blocks.append((values, min_leaf, r))
    # hand-picked: two identical columns with mirror-image cuts (see below)
    blocks.append((np.repeat(np.arange(8.0)[:, None], 2, axis=1), 1, r))
    blocks.append((np.zeros((8, 2)), 1, r))
    blocks.append((np.ones((4, 1)), 1, r))
    blocks.append((np.array([[0.0], [1.0]]), 1, r))
    blocks.append((np.array([[0.0, 0.0], [1.0, 1.0]]), 1, r))
    blocks.append((np.array([[3.0]]), 1, r))
    return blocks


class TestKernelBackends:
    """The batched kernels agree bit for bit with the sequential reference."""

    def test_classification_agreement(self):
        for values, min_leaf, r in tied_blocks(77):
            codes = r.integers(0, 3, size=values.shape).astype(np.int64)
            if values.shape[1] > 1:
                codes[:, 1] = codes[:, 0]
            if values.shape == (8, 2):  # cuts after rows 1 and 5 score the same
                codes[:] = np.array([0, 0, 1, 1, 1, 1, 0, 0])[:, None]
            score, column, pos, left, right = _kernels.best_split_classification(
                values, codes, 3, min_leaf)
            assert (score, column, pos) == seq_block_classification(
                values, codes, 3, min_leaf)
            if pos >= 0:
                assert left.tolist() == np.bincount(
                    codes[:pos + 1, column], minlength=3).tolist()
                assert right.tolist() == np.bincount(
                    codes[pos + 1:, column], minlength=3).tolist()

    def test_regression_agreement(self):
        for values, min_leaf, r in tied_blocks(78):
            grad = r.normal(size=values.shape)
            hess = np.abs(r.normal(size=values.shape)) + 0.5
            if values.shape[1] > 1:
                grad[:, 1] = grad[:, 0]
                hess[:, 1] = hess[:, 0]
            result = _kernels.best_split_regression(values, grad, hess, 1.0, min_leaf)
            assert result == seq_block_regression(values, grad, hess, 1.0, min_leaf)

    def test_no_valid_cut(self):
        for n in (1, 2, 5):
            values = np.ones((n, 3))
            codes = np.zeros((n, 3), dtype=np.int64)
            assert _kernels.best_split_classification(values, codes, 2, 1)[2] == -1
            assert _kernels.best_split_regression(values, values, values, 1.0, 1)[2] == -1
        # two rows cannot both keep min_leaf=2
        values = np.array([[0.0], [1.0]])
        assert _kernels.best_split_regression(values, values, values, 1.0, 2)[2] == -1

    def test_backend_flag_is_reported(self):
        assert learners.KERNEL_BACKEND == "numpy"
        assert learners.HAS_NUMBA is False


class _ReferenceBuilder:
    """Per-feature depth-first tree growth on the sequential kernels.

    The same growth rules as ``algorithms._TreeBuilder``, written the plain
    way: every candidate feature is sorted and scanned on its own, and a
    later feature wins only with a strictly higher score.
    """

    def __init__(self, X, max_depth, min_leaf, n_sub=None, rng=None, clock=None):
        self.X = X
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.n_sub = n_sub
        self.rng = rng

    def build(self, idx):
        arrays = {"feature": [], "threshold": [], "left": [], "right": [], "leaf": []}

        def new_node():
            for name, value in (("feature", -1), ("threshold", 0.0), ("left", -1),
                                ("right", -1), ("leaf", self.leaf_zero)):
                arrays[name].append(value)
            return len(arrays["feature"]) - 1

        stack = [(new_node(), idx, 0)]
        while stack:
            node, rows, depth = stack.pop()
            split = None
            if depth < self.max_depth and rows.shape[0] >= 2 * self.min_leaf \
                    and not self.is_pure(rows):
                split = self.best_split(rows)
            if split is None:
                arrays["leaf"][node] = self.leaf_value(rows)
                continue
            feat, pos, order = split
            values = self.X[rows, feat][order]
            arrays["feature"][node] = feat
            arrays["threshold"][node] = (values[pos] + values[pos + 1]) / 2.0
            left, right = new_node(), new_node()
            arrays["left"][node], arrays["right"][node] = left, right
            stack.append((right, rows[order][pos + 1:], depth + 1))
            stack.append((left, rows[order][:pos + 1], depth + 1))
        leaf_dtype = np.int64 if isinstance(self.leaf_zero, int) else np.float64
        return algorithms._Tree(
            np.asarray(arrays["feature"], dtype=np.int64),
            np.asarray(arrays["threshold"], dtype=np.float64),
            np.asarray(arrays["left"], dtype=np.int64),
            np.asarray(arrays["right"], dtype=np.int64),
            np.asarray(arrays["leaf"], dtype=leaf_dtype))

    def best_split(self, rows):
        width = self.X.shape[1]
        if self.n_sub is None or self.n_sub >= width:
            candidates = range(width)
        else:
            candidates = np.sort(self.rng.choice(width, size=self.n_sub, replace=False))
        best_score, best = self.parent_score(rows), None
        for feat in candidates:
            col = self.X[rows, feat]
            order = np.argsort(col, kind="stable")
            score, pos = self.scan(col[order], rows[order])
            if pos >= 0 and score > best_score:
                best_score, best = score, (int(feat), int(pos), order)
        return best


class _ReferenceGini(_ReferenceBuilder):
    leaf_zero = 0

    def __init__(self, X, codes, n_classes, **kwargs):
        super().__init__(X, **kwargs)
        self.codes = codes
        self.n_classes = n_classes

    def counts(self, rows):
        return np.bincount(self.codes[rows], minlength=self.n_classes)

    def is_pure(self, rows):
        return (self.counts(rows) > 0).sum() <= 1

    def parent_score(self, rows):
        counts = self.counts(rows)
        return float(int((counts * counts).sum()) / rows.shape[0])

    def scan(self, values, sorted_rows):
        return _kernels._split_class_seq(values, self.codes[sorted_rows],
                                         self.n_classes, self.min_leaf)

    def leaf_value(self, rows):
        return int(np.argmax(self.counts(rows)))


class _ReferenceNewton(_ReferenceBuilder):
    leaf_zero = 0.0

    def __init__(self, X, grad, hess, lam, **kwargs):
        super().__init__(X, **kwargs)
        self.grad, self.hess, self.lam = grad, hess, float(lam)

    def is_pure(self, rows):
        return False

    def parent_score(self, rows):
        g, h = float(np.sum(self.grad[rows])), float(np.sum(self.hess[rows]))
        return g * g / (h + self.lam)

    def scan(self, values, sorted_rows):
        return _kernels._split_reg_seq(values, self.grad[sorted_rows],
                                       self.hess[sorted_rows], self.lam,
                                       self.min_leaf)

    def leaf_value(self, rows):
        g, h = float(np.sum(self.grad[rows])), float(np.sum(self.hess[rows]))
        return -g / (h + self.lam)


def _fixture_matrix(dataset, observed, rows, columns=None):
    """A seeded row sample; optionally only the ``columns`` densest columns."""
    table = ingest.select_columns(dataset, PlainRequirement(observed, "attack"))
    _, codes = learners.make_label_map(table.labels)
    matrix, _ = features.fit_transform(table.observed, scheme=features.ONEHOT_COUNT)
    pick = rng(0).permutation(len(codes))[:rows]
    X = matrix.values[pick]
    if columns is not None:
        X = X[:, np.argsort(-X.sum(axis=0), kind="stable")[:columns]]
    return X, codes[pick]


def _tied_matrix():
    r = np.random.default_rng(31)
    X = r.choice([0.0, 0.0, 1.0, 2.5], size=(90, 9))
    X[:, 4] = X[:, 1]  # identical features tie at every node
    X[:, 7] = 0.0
    return X, r.integers(0, 3, size=90).astype(np.int64)


TREE_MATRICES = {
    # noisy: sparse count columns, most constant within a node
    "noisy": lambda: _fixture_matrix(noisy_dataset(), ("domain",), 150, 40),
    "banded": lambda: _fixture_matrix(banded_dataset(), ("timestamp", "port"), 200),
    "tied": _tied_matrix,
}

TREE_FAMILIES = {
    "dt": [{"max_depth": 16, "min_leaf": 1}, {"max_depth": 8, "min_leaf": 4}],
    "rf": [{"n_trees": 4, "max_depth": 8}],
    "xgb": [{"n_rounds": 3, "max_depth": 3}, {"n_rounds": 2, "max_depth": 5}],
}


class TestTreeOracle:
    """Tree payloads equal those grown one feature at a time by the reference."""

    @pytest.mark.parametrize("cells", [None, 64])
    @pytest.mark.parametrize("matrix", sorted(TREE_MATRICES))
    @pytest.mark.parametrize("family", sorted(TREE_FAMILIES))
    def test_payload_matches_reference_builder(self, family, matrix, cells,
                                               monkeypatch):
        X, y = TREE_MATRICES[matrix]()
        n_classes = int(y.max()) + 1
        if cells is not None:  # split every node's columns into small blocks
            monkeypatch.setattr(algorithms, "_BLOCK_CELLS", cells)
        for params in TREE_FAMILIES[family]:
            model = make_model(family, params)
            model.fit(X, y, n_classes, rng(4))
            with monkeypatch.context() as patch:
                patch.setattr(algorithms, "_GiniTreeBuilder", _ReferenceGini)
                patch.setattr(algorithms, "_NewtonTreeBuilder", _ReferenceNewton)
                reference = make_model(family, params)
                reference.fit(X, y, n_classes, rng(4))
            assert json.dumps(model.payload()) == json.dumps(reference.payload())


class TestKnnOracle:
    def brute_force(self, model, X):
        out = []
        for row in X:
            dist = [(float(np.sum((row - p) ** 2)), i)
                    for i, p in enumerate(model.points)]
            dist.sort()  # stable on (distance, index), same as the model
            votes = [int(model.codes[i]) for _, i in dist[:model.k]]
            counter = collections.Counter(votes)
            top = max(counter.values())
            out.append(min(c for c, v in counter.items() if v == top))
        return np.array(out)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_exhaustive_search(self, k):
        r = rng(101)
        X_train = r.normal(size=(120, 4)).round(2)  # rounding forces real ties
        y_train = r.integers(0, 3, size=120).astype(np.int64)
        X_test = r.normal(size=(40, 4)).round(2)
        model = KnnModel(k=k)
        model.fit(X_train, y_train, 3, r)
        assert (model.predict_codes(X_test) == self.brute_force(model, X_test)).all()

    def test_k_larger_than_train_set(self):
        model = KnnModel(k=50)
        model.fit(np.array([[0.0], [1.0]]), np.array([0, 1]), 2, rng())
        assert model.predict_codes(np.array([[0.2]])).tolist() == [0]

    def test_non_finite_matrix_rejected(self):
        model = KnnModel(k=1)
        with pytest.raises(ContractError):
            model.fit(np.array([[np.nan]]), np.array([0]), 1, rng())


class TestGaussianNbOracle:
    def test_matches_hand_computed_likelihoods(self):
        X = np.array([[1.0, 10.0], [2.0, 12.0], [3.0, 11.0],
                      [8.0, 2.0], [9.0, 1.0]])
        y = np.array([0, 0, 0, 1, 1])
        model = GaussianNbModel(var_floor=1e-9)
        model.fit(X, y, 2, rng())

        def log_lik(x, c):
            mask = y == c
            mean = X[mask].mean(axis=0)
            var = np.maximum(X[mask].var(axis=0), 1e-9)
            prior = math.log(mask.sum() / len(y))
            return prior + float(np.sum(
                -0.5 * (np.log(2 * np.pi * var) + (x - mean) ** 2 / var)))

        probe = np.array([[2.5, 11.0], [8.5, 1.5], [5.0, 6.0]])
        expected = [int(np.argmax([log_lik(x, 0), log_lik(x, 1)])) for x in probe]
        assert model.predict_codes(probe).tolist() == expected
        # the class means must match exactly
        assert model.mean[0].tolist() == [2.0, 11.0]
        assert model.mean[1].tolist() == [8.5, 1.5]

    def test_absent_class_never_predicted(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 0, 2])
        model = GaussianNbModel()
        model.fit(X, y, 3, rng())  # class 1 has no rows
        codes = model.predict_codes(np.linspace(-1, 3, 9).reshape(-1, 1))
        assert 1 not in set(codes.tolist())


class TestMlpGradient:
    def test_analytic_gradient_matches_finite_differences(self):
        r = rng(5)
        X = r.normal(size=(12, 4))
        onehot = np.eye(3)[r.integers(0, 3, size=12)]
        params = {
            "W1": r.normal(size=(4, 6)) * 0.3,
            "b1": r.normal(size=6) * 0.1,
            "W2": r.normal(size=(6, 3)) * 0.3,
            "b2": r.normal(size=3) * 0.1,
        }
        _, grads = mlp_loss_and_grad(params, X, onehot)
        eps = 1e-6
        worst = 0.0
        for key in params:
            flat = params[key].reshape(-1)
            grad_flat = grads[key].reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                up, _ = mlp_loss_and_grad(params, X, onehot)
                flat[idx] = orig - eps
                down, _ = mlp_loss_and_grad(params, X, onehot)
                flat[idx] = orig
                numeric = (up - down) / (2 * eps)
                scale = max(abs(numeric), abs(grad_flat[idx]), 1e-8)
                worst = max(worst, abs(numeric - grad_flat[idx]) / scale)
        assert worst < 1e-4


# The stored keys of each family's payload: its dataclass fields.
PAYLOAD_KEYS = {
    "dt": {"max_depth", "min_leaf", "n_classes", "tree"},
    "rf": {"n_trees", "max_depth", "min_leaf", "n_classes", "trees"},
    "knn": {"k", "n_classes", "points", "codes"},
    "gbay": {"var_floor", "n_classes", "log_prior", "mean", "var"},
    "rid": {"alpha", "n_classes", "weights"},
    "svm": {"lam", "epochs", "n_classes", "weights", "bias"},
    "mlp": {"hidden", "lr", "epochs", "n_classes", "params"},
    "xgb": {"n_rounds", "max_depth", "lr", "lam", "min_leaf", "n_classes", "trees"},
}

# A model file of format "2": a `dt` on label-tfidf over one structured-text
# column (vocabulary and idf) and one categorical column (categories), built
# from planted_dataset(n=10, seed=5) with seed 7.  Loading it and writing it
# again must give these bytes.
DT_FORMAT_2 = (
    r'{"encoder_spec":"{\"columns\":[{\"categories\":[],\"encoder_type'
    r'\":\"tfidf\",\"idf\":[2.7047480922384253,1.7884573603642702,1.0,'
    r'1.0,2.7047480922384253,2.7047480922384253,2.7047480922384253,2.7'
    r'047480922384253,2.2992829841302607,2.7047480922384253,2.70474809'
    r'22384253,1.7884573603642702,2.7047480922384253,2.704748092238425'
    r'3,2.7047480922384253],\"kind\":\"structured-string\",\"mean\":0.'
    r'0,\"name\":\"domain\",\"stddev\":1.0,\"vocabulary\":[\"host4\",\"'
    r'floodway\",\"example\",\"com\",\"host5\",\"host6\",\"host7\",\"h'
    r'ost8\",\"credful\",\"host9\",\"host0\",\"cryptlock\",\"host1\",\"'
    r'host2\",\"host3\"]},{\"categories\":[\"443\",\"8080\",\"80\"],\"'
    r'encoder_type\":\"label\",\"idf\":[],\"kind\":\"categorical\",\"m'
    r'ean\":0.0,\"name\":\"port\",\"stddev\":1.0,\"vocabulary\":[]}],\"'
    r'format_version\":\"1\",\"scheme\":\"label-tfidf\",\"text\":{\"st'
    r'em\":true,\"stop_words\":[\"a\",\"an\",\"and\",\"any\",\"are\",\"'
    r'as\",\"at\",\"be\",\"been\",\"but\",\"by\",\"for\",\"from\",\"ha'
    r's\",\"have\",\"in\",\"is\",\"it\",\"its\",\"of\",\"on\",\"or\",\"'
    r'that\",\"the\",\"these\",\"this\",\"those\",\"to\",\"was\",\"wer'
    r'e\",\"with\"]}}","eval":{"accuracy":1.0,"averaging":"macro","f1"'
    r':1.0,"format_version":"1","n_items":3,"per_class":[{"f1":1.0,"fn'
    r'":0,"fp":0,"label":"ddos","precision":1.0,"recall":1.0,"support"'
    r':1,"tn":2,"tp":1,"zero_division":[]},{"f1":1.0,"fn":0,"fp":0,"la'
    r'bel":"phishing","precision":1.0,"recall":1.0,"support":1,"tn":2,'
    r'"tp":1,"zero_division":[]},{"f1":1.0,"fn":0,"fp":0,"label":"rans'
    r'om","precision":1.0,"recall":1.0,"support":1,"tn":2,"tp":1,"zero'
    r'_division":[]}],"precision":1.0,"recall":1.0},"family":"dt","for'
    r'mat_version":"2","label_map":["ddos","phishing","ransom"],"param'
    r's":{"max_depth":4,"min_leaf":1},"payload":{"max_depth":4,"min_le'
    r'af":1,"n_classes":3,"tree":{"feature":{"data":"AQAAAAAAAAACAAAAA'
    r'AAAAP///////////////////////////////w==","dtype":"int64","shape"'
    r':[5]},"leaf":{"data":"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAQAAAAAAAA'
    r'ACAAAAAAAAAA==","dtype":"int64","shape":[5]},"left":{"data":"AQA'
    r'AAAAAAAADAAAAAAAAAP///////////////////////////////w==","dtype":"'
    r'int64","shape":[5]},"right":{"data":"AgAAAAAAAAAEAAAAAAAAAP/////'
    r'//////////////////////////w==","dtype":"int64","shape":[5]},"thr'
    r'eshold":{"data":"qlYb+5Qt0D9STVHcf2vRPwAAAAAAAAAAAAAAAAAAAAAAAAA'
    r'AAAAAAA==","dtype":"float64","shape":[5]}}},"requirement_key":"l'
    r'iteral","scheme":"label-tfidf","seed":700022}'
)


def fitted_family(family):
    r = rng(21)
    X = r.normal(size=(80, 5))
    y = (X[:, 0] + X[:, 1] > 0).astype(np.int64)
    model = make_model(family, learners.grid_points(family)[0])
    model.fit(X, y, 2, rng(3))
    return model, X


class TestPayloadRoundTrip:
    @pytest.mark.parametrize("family", sorted(learners.FAMILIES))
    def test_predictions_survive_json(self, family):
        model, X = fitted_family(family)
        payload = json.loads(json.dumps(model.payload()))
        clone = model_from_payload(family, payload)
        assert (clone.predict_codes(X) == model.predict_codes(X)).all()

    @pytest.mark.parametrize("family", sorted(learners.FAMILIES))
    def test_payload_bytes_survive_json(self, family):
        model, _ = fitted_family(family)
        text = json.dumps(model.payload(), sort_keys=True)
        clone = model_from_payload(family, json.loads(text))
        assert json.dumps(clone.payload(), sort_keys=True) == text

    def test_payload_keys_are_pinned(self):
        assert set(PAYLOAD_KEYS) == set(learners.FAMILIES)
        for family, keys in PAYLOAD_KEYS.items():
            assert set(fitted_family(family)[0].payload()) == keys, family

    def test_format_2_file_reloads_to_its_own_bytes(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(DT_FORMAT_2, encoding="utf-8")
        back = learners.TrainedModel.load(path)
        assert back.canonical_bytes() == DT_FORMAT_2.encode("utf-8")
        spec = {a.name: a for a in back.encoder_spec.artifacts}
        assert spec["port"].categories == ("443", "8080", "80")
        assert len(spec["domain"].vocabulary) == len(spec["domain"].idf) == 15

    def test_unknown_family_rejected(self):
        with pytest.raises(ContractError):
            make_model("perceptron9000", {})

    def test_trained_model_file_round_trip(self, tmp_path):
        table = ingest.select_columns(
            banded_dataset(), PlainRequirement(("timestamp", "port"), "attack"))
        report = learners.build_candidates(table, seed=7)
        best = learners.select_optimal(report.candidates)
        path = tmp_path / "model.json"
        best.save(path)
        assert path.read_bytes() == best.canonical_bytes()
        back = learners.TrainedModel.load(path)
        assert back.canonical_bytes() == best.canonical_bytes()
        assert best.timing is not None and back.timing is None
        # replayed predictions through the stored encoder must agree
        replayed = back.predict_labels(
            features.transform(table.observed, back.encoder_spec))
        assert replayed == best.predict_labels(
            features.transform(table.observed, best.encoder_spec))
        assert len(set(replayed)) > 1
        assert back.f1 == best.f1
        assert back.family == best.family

    def test_version_mismatch_rejected(self, tmp_path):
        table = ingest.select_columns(
            banded_dataset(), PlainRequirement(("timestamp", "port"), "attack"))
        report = learners.build_candidates(table, seed=7, tiers=("required",),
                                           n_trials=1)
        best = learners.select_optimal(report.candidates)
        path = tmp_path / "model.json"
        best.save(path)
        doc = json.loads(path.read_text())
        doc["format_version"] = "999"
        path.write_text(json.dumps(doc))
        with pytest.raises(SpecMismatchError):
            learners.TrainedModel.load(path)


def reference_split(y_codes, test_fraction, seed):
    """The split as it was when the fraction was a parameter, kept verbatim
    as the oracle for the fixed-fraction rewrite."""
    n = int(y_codes.shape[0])
    if not 0.0 < test_fraction < 1.0:
        raise ContractError("test_fraction must be in (0, 1)")
    if n < 2:
        raise ContractError("need at least two rows to split")
    n_test = int(round(test_fraction * n))
    n_test = min(max(n_test, 1), n - 1)
    rng = np.random.default_rng(seed)

    counts = np.bincount(y_codes)
    present = np.flatnonzero(counts)
    stratified = bool((counts[present] >= 2).all())
    if not stratified:
        perm = rng.permutation(n)
        return training.SplitResult(train_idx=np.sort(perm[n_test:]),
                                    test_idx=np.sort(perm[:n_test]), stratified=False)

    # Largest-remainder allocation: per-class quotas floor(fraction * n_c),
    # leftovers handed out by fractional part so the total is exactly n_test.
    # Quotas are capped at n_c - 1 to keep every class represented in train.
    exact = counts[present] * test_fraction
    quota = np.floor(exact).astype(np.int64)
    cap = counts[present].astype(np.int64) - 1
    quota = np.minimum(quota, cap)
    deficit = n_test - int(quota.sum())
    order = np.argsort(-(exact - quota), kind="stable")
    step = 0
    while deficit > 0 and step < 2 * len(order) * (1 + n_test):
        pos = order[step % len(order)]
        if quota[pos] < cap[pos]:
            quota[pos] += 1
            deficit -= 1
        step += 1
    if int(quota.sum()) != n_test:
        # capacity exhausted (huge fraction, many tiny classes): plain split
        perm = rng.permutation(n)
        return training.SplitResult(train_idx=np.sort(perm[n_test:]),
                                    test_idx=np.sort(perm[:n_test]), stratified=False)
    test_parts = []
    for cls, q in zip(present, quota):
        rows = np.flatnonzero(y_codes == cls)
        rows = rows[rng.permutation(rows.shape[0])]
        test_parts.append(rows[:int(q)])
    test_idx = np.sort(np.concatenate(test_parts))
    mask = np.ones(n, dtype=bool)
    mask[test_idx] = False
    return training.SplitResult(train_idx=np.flatnonzero(mask), test_idx=test_idx,
                                stratified=True)


def split_label_vectors():
    """Every count vector of 1-4 classes with 1-7 rows each, rows shuffled,
    then random vectors with gaps in the codes."""
    r = rng(11)
    for k in range(1, 5):
        for counts in itertools.product(range(1, 8), repeat=k):
            yield r.permutation(np.repeat(np.arange(k), counts))
    for _ in range(300):
        codes = r.choice(40, size=r.integers(1, 7), replace=False)
        yield r.choice(codes, size=int(r.integers(2, 90)))


class TestSplit:
    def test_matches_the_reference_at_the_fixed_fraction(self):
        compared = 0
        for y in split_label_vectors():
            if y.shape[0] < 2:
                with pytest.raises(ContractError):
                    learners.split(y, seed=0)
                continue
            for seed in (0, 1):
                got = learners.split(y, seed=seed)
                want = reference_split(y, learners.TEST_FRACTION, seed)
                assert got.stratified == want.stratified
                assert got.train_idx.tolist() == want.train_idx.tolist()
                assert got.test_idx.tolist() == want.test_idx.tolist()
                compared += 1
        assert compared == 2 * (7 + 7**2 + 7**3 + 7**4 - 1 + 300)

    def test_sizes_follow_fraction(self):
        result = learners.split(np.arange(10) % 2, seed=1)
        assert len(result.test_idx) == 3
        assert len(result.train_idx) == 7

    def test_disjoint_and_exhaustive(self):
        for seed in range(25):
            y = np.random.default_rng(seed).integers(0, 3, size=53)
            result = learners.split(y, seed=seed)
            train, test = set(result.train_idx), set(result.test_idx)
            assert train & test == set()
            assert train | test == set(range(53))

    def test_stratified_keeps_every_class_in_train(self):
        y = np.array([0] * 30 + [1] * 3 + [2] * 3)
        for seed in range(20):
            result = learners.split(y, seed=seed)
            assert result.stratified
            assert set(y[result.train_idx]) == {0, 1, 2}

    def test_deterministic_per_seed(self):
        y = np.arange(40) % 4
        a = learners.split(y, seed=9)
        b = learners.split(y, seed=9)
        assert (a.train_idx == b.train_idx).all()
        c = learners.split(y, seed=10)
        assert set(c.test_idx) != set(a.test_idx)

    def test_tiny_sets_never_empty(self):
        result = learners.split(np.array([0, 1]), seed=0)
        assert len(result.train_idx) == 1 and len(result.test_idx) == 1

    def test_fewer_than_two_rows_rejected(self):
        with pytest.raises(ContractError):
            learners.split(np.array([0]), seed=0)
        with pytest.raises(ContractError):
            learners.split(np.array([], dtype=np.int64), seed=0)


def default_clock():
    return learners.BudgetClock(learners.DEFAULT_BUDGET)


class TestTune:
    def two_cluster_problem(self):
        # overlapping clusters plus label flips spread the trial scores out,
        # so the best trial is a unique argmax and tuning is repeatable
        r = rng(44)
        a = r.normal(loc=0.0, scale=0.6, size=(60, 2))
        b = r.normal(loc=1.2, scale=0.6, size=(60, 2))
        X = np.vstack([a, b])
        y = np.array([0] * 60 + [1] * 60, dtype=np.int64)
        y[:6] = 1
        return X, y

    def test_best_params_achieve_max_trial_score(self):
        X, y = self.two_cluster_problem()
        result = learners.tune("knn", X, y, 2, default_clock(), seed=2)
        scores = [f1 for _, f1 in result.trials]
        assert scores.count(max(scores)) == 1  # fixture gives a unique winner
        winner = max(result.trials, key=lambda t: t[1])[0]
        assert result.best_params == winner

    def test_deterministic_per_seed(self):
        X, y = self.two_cluster_problem()
        a = learners.tune("rf", X, y, 2, default_clock(), seed=8)
        b = learners.tune("rf", X, y, 2, default_clock(), seed=8)
        assert a.best_params == b.best_params
        assert a.trials == b.trials

    def test_trials_cover_grid_scores(self):
        X, y = self.two_cluster_problem()
        result = learners.tune("gbay", X, y, 2, default_clock(), seed=3)
        assert 1 <= len(result.trials) <= len(learners.grid_points("gbay"))
        for params, f1 in result.trials:
            assert 0.0 <= f1 <= 1.0
            assert set(params) == {"var_floor"}

    def test_f1_tie_goes_to_the_earliest_grid_point(self, monkeypatch):
        # two far-apart clusters: every k scores F1 1.0 on the inner cut
        r = rng(45)
        X = np.vstack([r.normal(0.0, 0.3, size=(40, 2)),
                       r.normal(5.0, 0.3, size=(40, 2))])
        y = np.array([0] * 40 + [1] * 40, dtype=np.int64)
        monkeypatch.setattr(training.time, "perf_counter",
                            CallCountClock(later_looks_faster))
        result = learners.tune("knn", X, y, 2, default_clock(), seed=4)
        points = learners.grid_points("knn")
        tied = [p for p, f1 in result.trials if f1 == 1.0]
        assert len(tied) >= 2
        # the last tied trial looks fastest on this clock, and is not the pick
        assert tied[-1] != min(tied, key=points.index)
        assert result.best_params == min(tied, key=points.index)


class TestBudget:
    def test_wall_clock_exhaustion(self):
        X = rng(1).normal(size=(300, 8))
        y = (X[:, 0] > 0).astype(np.int64)
        budget = learners.BuildBudget(wall_clock_limit=1e-9)
        with pytest.raises(BudgetExceededError):
            learners.train("rf", {"n_trees": 50, "max_depth": 8}, X, y, 2,
                           learners.BudgetClock(budget), seed=0)

    def test_memory_limit_blocks_wide_problems(self):
        X = rng(2).normal(size=(400, 50))
        y = (X[:, 0] > 0).astype(np.int64)
        budget = learners.BuildBudget(memory_limit=10_000)
        with pytest.raises(BudgetExceededError):
            learners.train("rf", {"n_trees": 50, "max_depth": 8}, X, y, 2,
                           learners.BudgetClock(budget), seed=0)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ContractError):
            learners.BuildBudget(wall_clock_limit=0)
        with pytest.raises(ContractError):
            learners.BuildBudget(memory_limit=-1)

    def test_build_candidates_records_timeouts(self):
        table = ingest.select_columns(
            banded_dataset(), PlainRequirement(("timestamp", "port"), "attack"))
        budget = learners.BuildBudget(wall_clock_limit=1e-9)
        report = learners.build_candidates(table, budget=budget, seed=0)
        assert report.candidates == []
        assert len(report.failures) == 10  # 5 required families x 2 schemes
        assert {f.kind for f in report.failures} == {"time"}
        with pytest.raises(NoModelFoundError):
            learners.select_optimal(report.candidates)


class FakeCandidate:
    """Bare object with the attributes a candidate carries: F1, model size
    (the length of ``canonical_bytes()``), family, scheme and timing."""

    def __init__(self, f1, size, family, scheme, computation_time=1.0):
        self.family = family
        self.scheme = scheme
        self.size = size
        self.eval_report = types.SimpleNamespace(f1=f1)
        self.timing = evaluation.TimingReport(
            train_time=computation_time, predict_time=0.0)

    @property
    def f1(self):
        return self.eval_report.f1

    def canonical_bytes(self):
        return b"x" * self.size


class TestSelectOptimal:
    def test_highest_f1_wins(self):
        best = learners.select_optimal([
            FakeCandidate(0.3, 50, "dt", "label-tfidf"),
            FakeCandidate(0.9, 100, "rf", "label-tfidf"),
            FakeCandidate(0.7, 10, "knn", "label-tfidf"),
        ])
        assert best.f1 == 0.9

    def test_f1_tie_falls_to_smallest_model(self):
        best = learners.select_optimal([
            FakeCandidate(0.3, 5, "dt", "label-tfidf"),
            FakeCandidate(0.9, 100, "rf", "label-tfidf"),
            FakeCandidate(0.9, 20, "knn", "label-tfidf"),
        ])
        assert (best.family, best.size) == ("knn", 20)

    def test_timing_does_not_change_the_pick(self):
        def pick(rf_time, knn_time):
            return learners.select_optimal([
                FakeCandidate(0.9, 100, "rf", "label-tfidf", rf_time),
                FakeCandidate(0.9, 20, "knn", "label-tfidf", knn_time),
            ]).family

        assert pick(1.0, 9.0) == pick(9.0, 1.0) == "knn"

    def test_candidates_below_the_top_f1_are_never_sized(self):
        class Unsizable(FakeCandidate):
            def canonical_bytes(self):
                raise AssertionError("sized a candidate below the top F1")

        best = learners.select_optimal([
            Unsizable(0.5, 5, "dt", "label-tfidf"),
            FakeCandidate(0.9, 100, "rf", "label-tfidf"),
            FakeCandidate(0.9, 20, "knn", "label-tfidf"),
        ])
        assert (best.family, best.size) == ("knn", 20)

    def test_full_tie_falls_to_family_rank_then_scheme(self):
        best = learners.select_optimal([
            FakeCandidate(0.9, 20, "knn", "label-tfidf"),
            FakeCandidate(0.9, 20, "dt", "onehot-count"),
            FakeCandidate(0.9, 20, "dt", "label-tfidf"),
        ])
        assert (best.family, best.scheme) == ("dt", "label-tfidf")

    def test_empty_pool_rejected(self):
        with pytest.raises(NoModelFoundError):
            learners.select_optimal([])


class TestReproducibility:
    def test_selection_is_byte_for_byte_stable(self):
        table = ingest.select_columns(
            banded_dataset(), PlainRequirement(("timestamp", "port"), "attack"))
        picks = []
        for _ in range(2):
            report = learners.build_candidates(table, seed=7)
            picks.append(learners.select_optimal(report.candidates))
        assert picks[0].canonical_bytes() == picks[1].canonical_bytes()
        assert picks[0].family == "dt"
        assert picks[0].f1 == pytest.approx(0.7829448760636329, abs=1e-12)
        # a strict argmax: the pinned winner rests on the F1 rule alone
        ranked = sorted((c.f1 for c in report.candidates), reverse=True)
        assert ranked[0] > ranked[1]

    def test_tied_build_is_byte_identical_whatever_the_clock(self, monkeypatch):
        # the required candidates tie at the top F1 on a small planted feed;
        # one build reads a clock on which later work looks faster, the
        # other one on which it looks slower
        table = ingest.select_columns(
            planted_dataset(n=300), PlainRequirement(("domain", "port"), "attack"))
        picks = []
        for stamp in (later_looks_faster, later_looks_slower):
            monkeypatch.setattr(training.time, "perf_counter", CallCountClock(stamp))
            report = learners.build_candidates(table, seed=7)
            top = max(c.f1 for c in report.candidates)
            assert sum(c.f1 == top for c in report.candidates) >= 2
            picks.append(learners.select_optimal(report.candidates))
        assert picks[0].canonical_bytes() == picks[1].canonical_bytes()

    def test_candidate_timing_identity(self):
        table = ingest.select_columns(
            banded_dataset(), PlainRequirement(("timestamp", "port"), "attack"))
        report = learners.build_candidates(table, seed=7, tiers=("required",))
        for cand in report.candidates:
            timing = cand.timing
            assert timing.computation_time == pytest.approx(
                timing.train_time + timing.predict_time, abs=1e-12)
