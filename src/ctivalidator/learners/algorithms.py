"""From-scratch classifier families behind one small interface.

Every family is a dataclass whose fields are its hyperparameters,
``n_classes`` and its fitted state, and implements
``fit(X, y, n_classes, rng, clock)`` and ``predict_codes(X)``.  Its JSON-able
payload is exactly those fields: the shared ``payload()`` /
``from_payload()`` store arrays through :mod:`.codec` and trees as their
arrays.  Labels are integer codes ``0..n_classes-1``; every predictor
resolves score ties toward the lowest code so predictions are fully
deterministic.  ``clock`` is a cooperative budget: trainers call
``clock.check()`` at node/tree/epoch/round boundaries and abort by
exception when over budget.

The required tier (dt, rf, knn, gbay, rid) keeps the package buildable
from first principles; svm, mlp and xgb are an optional tier with
deliberately simple formulations (batch subgradient hinge, one hidden
tanh layer, additive regression trees on the softmax objective).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from ..errors import ContractError, SpecMismatchError
from . import _kernels
from .codec import array_to_doc, doc_to_array

REQUIRED_TIER = "required"
OPTIONAL_TIER = "optional"


# ---------------------------------------------------------------------------
# Shared tree machinery


@dataclass
class _Tree:
    feature: np.ndarray   # int64, -1 marks a leaf
    threshold: np.ndarray  # float64
    left: np.ndarray      # int64
    right: np.ndarray     # int64
    leaf: np.ndarray      # int64 codes or float64 values

    def apply(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        node = np.zeros(n, dtype=np.int64)
        if n == 0:
            return node
        while True:
            feat = self.feature[node]
            active = feat >= 0
            if not active.any():
                return node
            cols = np.where(active, feat, 0)
            go_left = X[np.arange(n), cols] <= self.threshold[node]
            nxt = np.where(go_left, self.left[node], self.right[node])
            node = np.where(active, nxt, node)

    def to_doc(self) -> dict:
        return {f.name: array_to_doc(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_doc(cls, doc: dict) -> "_Tree":
        return cls(**{f.name: doc_to_array(doc[f.name]) for f in fields(cls)})


# Cap on rows x columns per split-kernel call.  The kernels' prefix-sum
# temporaries grow with the block, so on wide matrices an uncapped node would
# hold several int64 copies of its whole candidate sub-matrix at once.
_BLOCK_CELLS = 65_536


class _TreeBuilder:
    """Grows one axis-aligned tree depth-first (left child first).

    Each node gathers its candidate feature columns, drops those constant
    over its rows, sorts the rest once and scans them with one kernel call
    per block of columns.  Score ties keep the earliest (feature, position),
    so the tree does not depend on how the columns are blocked.  A node
    carries ``stats`` from its parent's split (class counts for Gini trees)
    so that it does not recount its rows.
    """

    def __init__(self, X, max_depth, min_leaf, n_sub=None, rng=None, clock=None):
        self.X = np.asarray(X, dtype=np.float64)
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.n_sub = n_sub
        self.rng = rng
        self.clock = clock
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.leaf: list = []

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.leaf.append(self._leaf_zero())
        return len(self.feature) - 1

    def _candidates(self, width: int) -> np.ndarray:
        if self.n_sub is None or self.n_sub >= width:
            return np.arange(width)
        picked = self.rng.choice(width, size=self.n_sub, replace=False)
        picked.sort()
        return picked

    def build(self, idx: np.ndarray) -> "_Tree":
        root = self._new_node()
        stack = [(root, idx, 0, self._root_stats(idx))]
        width = self.X.shape[1]
        while stack:
            node, rows, depth, stats = stack.pop()
            if self.clock is not None:
                self.clock.check()
            split = None
            if depth < self.max_depth and rows.shape[0] >= 2 * self.min_leaf \
                    and not self._is_pure(stats):
                split = self._best_split(rows, stats, self._candidates(width))
            if split is None:
                self.leaf[node] = self._leaf_value(rows, stats)
                continue
            feat, threshold, sorted_rows, pos, (left_stats, right_stats) = split
            self.feature[node] = feat
            self.threshold[node] = threshold
            left_node = self._new_node()
            right_node = self._new_node()
            self.left[node] = left_node
            self.right[node] = right_node
            # push right first so the left subtree is built first
            stack.append((right_node, sorted_rows[pos + 1:], depth + 1, right_stats))
            stack.append((left_node, sorted_rows[:pos + 1], depth + 1, left_stats))
        leaf_dtype = np.int64 if isinstance(self.leaf[0], (int, np.integer)) else np.float64
        return _Tree(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            leaf=np.asarray(self.leaf, dtype=leaf_dtype),
        )

    def _best_split(self, rows, stats, candidates):
        if candidates.shape[0] == self.X.shape[1]:  # every column: rows only
            sub = self.X.take(rows, axis=0)
        else:
            sub = self.X[rows[:, None], candidates]
        varies = (sub != sub[0]).any(axis=0)  # a constant column has no cut
        if not varies.all():
            candidates = candidates[varies]
            sub = sub[:, varies]
        n, m = sub.shape
        if m == 0:
            return None
        order = sub.argsort(axis=0, kind="stable")
        targets = self._targets(rows)
        step = max(1, _BLOCK_CELLS // n)
        best_score = self._parent_score(rows, stats)
        best = None
        for start in range(0, m, step):
            block = order[:, start:start + step]
            values = sub[block, np.arange(start, start + block.shape[1])]
            score, column, pos, child_stats = self._kernel(values, block, targets)
            if pos >= 0 and score > best_score:
                best_score = score
                best = (start + column, pos, child_stats)
        if best is None:
            return None
        j, pos, child_stats = best
        col_order = order[:, j]
        values = sub[col_order, j]
        threshold = (values[pos] + values[pos + 1]) / 2.0
        return int(candidates[j]), threshold, rows[col_order], pos, child_stats

    # subclass hooks
    def _leaf_zero(self):
        raise NotImplementedError

    def _root_stats(self, rows):
        raise NotImplementedError

    def _is_pure(self, stats) -> bool:
        raise NotImplementedError

    def _parent_score(self, rows, stats) -> float:
        raise NotImplementedError

    def _targets(self, rows):
        """Per-row training targets of the node, in ``rows`` order."""
        raise NotImplementedError

    def _kernel(self, values, order, targets):
        """Scan a sorted block: ``(score, column, pos, (left, right) stats)``."""
        raise NotImplementedError

    def _leaf_value(self, rows, stats):
        raise NotImplementedError


class _GiniTreeBuilder(_TreeBuilder):
    def __init__(self, X, codes, n_classes, **kwargs):
        super().__init__(X, **kwargs)
        self.codes = codes
        self.n_classes = n_classes

    def _leaf_zero(self):
        return 0

    def _root_stats(self, rows):
        return np.bincount(self.codes[rows], minlength=self.n_classes).astype(np.int64)

    def _is_pure(self, stats) -> bool:
        return np.count_nonzero(stats) <= 1

    def _parent_score(self, rows, stats) -> float:
        return float(int(stats @ stats) / rows.shape[0])

    def _targets(self, rows):
        return self.codes[rows]

    def _kernel(self, values, order, targets):
        score, column, pos, left, right = _kernels.best_split_classification(
            values, targets[order], self.n_classes, self.min_leaf)
        return score, column, pos, (left, right)

    def _leaf_value(self, rows, stats):
        return int(stats.argmax())  # tie -> lowest code


class _NewtonTreeBuilder(_TreeBuilder):
    def __init__(self, X, grad, hess, lam, **kwargs):
        super().__init__(X, **kwargs)
        self.grad = grad
        self.hess = hess
        self.lam = float(lam)

    def _leaf_zero(self):
        return 0.0

    # Newton nodes carry no stats.  Their totals stay np.sum over the node's
    # rows: a prefix-sum total adds in another order and would change the
    # leaf values' last bits.
    def _root_stats(self, rows):
        return None

    def _is_pure(self, stats) -> bool:
        return False

    def _parent_score(self, rows, stats) -> float:
        g = float(np.sum(self.grad[rows]))
        h = float(np.sum(self.hess[rows]))
        return g * g / (h + self.lam)

    def _targets(self, rows):
        return self.grad[rows], self.hess[rows]

    def _kernel(self, values, order, targets):
        grad, hess = targets
        score, column, pos = _kernels.best_split_regression(
            values, grad[order], hess[order], self.lam, self.min_leaf)
        return score, column, pos, (None, None)

    def _leaf_value(self, rows, stats):
        g = float(np.sum(self.grad[rows]))
        h = float(np.sum(self.hess[rows]))
        return -g / (h + self.lam)


# ---------------------------------------------------------------------------
# Payloads: a family's payload is its dataclass fields


# (encode, decode) pairs for fitted state that JSON cannot hold as is
_ARRAY = (array_to_doc, doc_to_array)
_TREE = (_Tree.to_doc, _Tree.from_doc)


def _each(codec):
    encode, decode = codec
    return (lambda items: [encode(item) for item in items],
            lambda docs: [decode(doc) for doc in docs])


def _by_name(codec):
    encode, decode = codec
    return (lambda items: {name: encode(item) for name, item in items.items()},
            lambda docs: {name: decode(doc) for name, doc in docs.items()})


def _fitted(codec, **kwargs):
    """A fitted-state field, stored in the payload through ``codec``."""
    return field(metadata={"codec": codec}, **kwargs)


_CASTS = {"int": int, "float": float}


class _Family:
    """Payload codec shared by the families.

    Each field is one payload key; hyperparameters and ``n_classes`` are
    stored as they are, fitted state through its field's codec.
    """

    def __post_init__(self):
        # hyperparameters keep the JSON type their annotation names
        for f in fields(self):
            cast = _CASTS.get(f.type)
            if cast is not None:
                setattr(self, f.name, cast(getattr(self, f.name)))

    def payload(self) -> dict:
        doc = {}
        for f in fields(self):
            value = getattr(self, f.name)
            codec = f.metadata.get("codec")
            doc[f.name] = value if codec is None else codec[0](value)
        return doc

    @classmethod
    def from_payload(cls, doc: dict):
        values = {}
        for f in fields(cls):
            codec = f.metadata.get("codec")
            values[f.name] = doc[f.name] if codec is None else codec[1](doc[f.name])
        return cls(**values)


# ---------------------------------------------------------------------------
# Families


@dataclass(eq=False)
class DecisionTreeModel(_Family):
    """Single axis-aligned tree; impurity scanned with the Gini criterion."""

    family = "dt"

    max_depth: int = 16
    min_leaf: int = 1
    n_classes: int = 0
    tree: _Tree | None = _fitted(_TREE, default=None)

    def fit(self, X, y, n_classes, rng, clock=None):
        self.n_classes = n_classes
        builder = _GiniTreeBuilder(X, y, n_classes, max_depth=self.max_depth,
                                   min_leaf=self.min_leaf, clock=clock)
        self.tree = builder.build(np.arange(X.shape[0]))

    def predict_codes(self, X) -> np.ndarray:
        return self.tree.leaf[self.tree.apply(X)]



@dataclass(eq=False)
class RandomForestModel(_Family):
    """Bagged Gini trees with sqrt-width feature subsampling per node."""

    family = "rf"

    n_trees: int = 100
    max_depth: int = 16
    min_leaf: int = 1
    n_classes: int = 0
    trees: list[_Tree] = _fitted(_each(_TREE), default_factory=list)

    def fit(self, X, y, n_classes, rng, clock=None):
        self.n_classes = n_classes
        n, width = X.shape
        n_sub = max(1, math.isqrt(width)) if width else None
        self.trees = []
        for child in rng.spawn(self.n_trees):
            if clock is not None:
                clock.check()
            boot = child.integers(0, n, size=n)
            builder = _GiniTreeBuilder(X, y, n_classes, max_depth=self.max_depth,
                                       min_leaf=self.min_leaf, n_sub=n_sub,
                                       rng=child, clock=clock)
            self.trees.append(builder.build(boot))

    def predict_codes(self, X) -> np.ndarray:
        votes = np.zeros((X.shape[0], self.n_classes), dtype=np.int64)
        rows = np.arange(X.shape[0])
        for tree in self.trees:
            votes[rows, tree.leaf[tree.apply(X)]] += 1
        return np.argmax(votes, axis=1).astype(np.int64)



@dataclass(eq=False)
class KnnModel(_Family):
    """Brute-force k-nearest-neighbours on stored training points.

    Neighbour order is squared-Euclidean distance with stable index
    tie-breaking; the vote resolves ties toward the lowest code.
    """

    family = "knn"

    k: int = 5
    n_classes: int = 0
    points: np.ndarray | None = _fitted(_ARRAY, default=None)
    codes: np.ndarray | None = _fitted(_ARRAY, default=None)

    def fit(self, X, y, n_classes, rng, clock=None):
        if not np.isfinite(X).all():
            raise ContractError("knn requires a finite matrix")
        self.n_classes = n_classes
        self.points = np.array(X, dtype=np.float64)
        self.codes = np.array(y, dtype=np.int64)
        if clock is not None:
            clock.check()

    def predict_codes(self, X) -> np.ndarray:
        n = X.shape[0]
        out = np.zeros(n, dtype=np.int64)
        k = min(self.k, self.points.shape[0])
        # ||a-b||^2 = ||a||^2 - 2ab + ||b||^2 keeps memory at chunk x train
        train_sq = np.einsum("ij,ij->i", self.points, self.points)
        for start in range(0, n, 256):
            chunk = X[start:start + 256]
            chunk_sq = np.einsum("ij,ij->i", chunk, chunk)
            dist = chunk_sq[:, None] - 2.0 * (chunk @ self.points.T) + train_sq[None, :]
            near = np.argsort(dist, axis=1, kind="stable")[:, :k]
            for i in range(chunk.shape[0]):
                counts = np.bincount(self.codes[near[i]], minlength=self.n_classes)
                out[start + i] = int(np.argmax(counts))
        return out



@dataclass(eq=False)
class GaussianNbModel(_Family):
    """Per-class Gaussian likelihoods with a variance floor."""

    family = "gbay"

    var_floor: float = 1e-9
    n_classes: int = 0
    log_prior: np.ndarray | None = _fitted(_ARRAY, default=None)
    mean: np.ndarray | None = _fitted(_ARRAY, default=None)
    var: np.ndarray | None = _fitted(_ARRAY, default=None)

    def fit(self, X, y, n_classes, rng, clock=None):
        self.n_classes = n_classes
        n, width = X.shape
        mean = np.zeros((n_classes, width))
        var = np.full((n_classes, width), self.var_floor)
        log_prior = np.full(n_classes, -np.inf)
        for c in range(n_classes):
            mask = y == c
            count = int(mask.sum())
            if count == 0:
                continue  # class absent from the training split
            log_prior[c] = math.log(count / n)
            mean[c] = X[mask].mean(axis=0) if width else mean[c]
            if width:
                var[c] = np.maximum(X[mask].var(axis=0), self.var_floor)
        self.log_prior, self.mean, self.var = log_prior, mean, var
        if clock is not None:
            clock.check()

    def predict_codes(self, X) -> np.ndarray:
        scores = np.tile(self.log_prior, (X.shape[0], 1))
        for c in range(self.n_classes):
            if not np.isfinite(self.log_prior[c]):
                continue
            diff = X - self.mean[c]
            scores[:, c] += np.sum(
                -0.5 * (np.log(2.0 * np.pi * self.var[c]) + diff * diff / self.var[c]),
                axis=1,
            )
        return np.argmax(scores, axis=1).astype(np.int64)



@dataclass(eq=False)
class RidgeModel(_Family):
    """One-vs-rest ridge regression on +/-1 targets, closed form.

    A bias column is appended and regularized with the rest; alpha > 0
    keeps the normal equations positive definite.
    """

    family = "rid"

    alpha: float = 1.0
    n_classes: int = 0
    weights: np.ndarray | None = _fitted(_ARRAY, default=None)  # (width+1, n_classes)

    def fit(self, X, y, n_classes, rng, clock=None):
        if self.alpha <= 0:
            raise ContractError("ridge alpha must be positive")
        self.n_classes = n_classes
        n = X.shape[0]
        Xb = np.hstack([X, np.ones((n, 1))])
        Y = np.full((n, n_classes), -1.0)
        Y[np.arange(n), y] = 1.0
        A = Xb.T @ Xb + self.alpha * np.eye(Xb.shape[1])
        self.weights = np.linalg.solve(A, Xb.T @ Y)
        if clock is not None:
            clock.check()

    def _scores(self, X) -> np.ndarray:
        Xb = np.hstack([X, np.ones((X.shape[0], 1))])
        return Xb @ self.weights

    def predict_codes(self, X) -> np.ndarray:
        return np.argmax(self._scores(X), axis=1).astype(np.int64)



@dataclass(eq=False)
class LinearSvmModel(_Family):
    """One-vs-rest linear hinge classifier, batch subgradient descent.

    Minimizes lam/2 ||w||^2 + mean(hinge) per class with the diminishing
    step 1/(lam * (t+1)); epochs are the budget boundary.
    """

    family = "svm"

    lam: float = 1e-2
    epochs: int = 100
    n_classes: int = 0
    weights: np.ndarray | None = _fitted(_ARRAY, default=None)  # (width, n_classes)
    bias: np.ndarray | None = _fitted(_ARRAY, default=None)

    def fit(self, X, y, n_classes, rng, clock=None):
        self.n_classes = n_classes
        n, width = X.shape
        Y = np.full((n, n_classes), -1.0)
        Y[np.arange(n), y] = 1.0
        W = np.zeros((width, n_classes))
        b = np.zeros(n_classes)
        for t in range(self.epochs):
            if clock is not None:
                clock.check()
            margins = Y * (X @ W + b)
            viol = (margins < 1.0).astype(np.float64)
            grad_w = self.lam * W - X.T @ (Y * viol) / n
            grad_b = -(Y * viol).sum(axis=0) / n
            step = 1.0 / (self.lam * (t + 1))
            W -= step * grad_w
            b -= step * grad_b
        self.weights, self.bias = W, b

    def predict_codes(self, X) -> np.ndarray:
        return np.argmax(X @ self.weights + self.bias, axis=1).astype(np.int64)



def mlp_loss_and_grad(params: dict, X: np.ndarray, onehot: np.ndarray):
    """Cross-entropy loss and analytic gradients for the one-hidden-layer MLP.

    Exposed at module level so the gradients can be checked against finite
    differences without touching training internals.
    """
    W1, b1, W2, b2 = params["W1"], params["b1"], params["W2"], params["b2"]
    n = X.shape[0]
    z1 = X @ W1 + b1
    a1 = np.tanh(z1)
    z2 = a1 @ W2 + b2
    z2 = z2 - z2.max(axis=1, keepdims=True)
    expz = np.exp(z2)
    probs = expz / expz.sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.sum(onehot * np.log(probs + 1e-300), axis=1)))
    dz2 = (probs - onehot) / n
    grads = {
        "W2": a1.T @ dz2,
        "b2": dz2.sum(axis=0),
    }
    da1 = dz2 @ W2.T
    dz1 = da1 * (1.0 - a1 * a1)
    grads["W1"] = X.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    return loss, grads


@dataclass(eq=False)
class MlpModel(_Family):
    """One hidden tanh layer, softmax output, full-batch gradient descent."""

    family = "mlp"

    hidden: int = 32
    lr: float = 0.1
    epochs: int = 150
    n_classes: int = 0
    params: dict[str, np.ndarray] = _fitted(_by_name(_ARRAY), default_factory=dict)

    def fit(self, X, y, n_classes, rng, clock=None):
        self.n_classes = n_classes
        n, width = X.shape
        scale = 1.0 / math.sqrt(width) if width else 1.0
        self.params = {
            "W1": rng.standard_normal((width, self.hidden)) * scale,
            "b1": np.zeros(self.hidden),
            "W2": rng.standard_normal((self.hidden, n_classes)) / math.sqrt(self.hidden),
            "b2": np.zeros(n_classes),
        }
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), y] = 1.0
        for _ in range(self.epochs):
            if clock is not None:
                clock.check()
            _, grads = mlp_loss_and_grad(self.params, X, onehot)
            for key, grad in grads.items():
                self.params[key] = self.params[key] - self.lr * grad

    def predict_codes(self, X) -> np.ndarray:
        a1 = np.tanh(X @ self.params["W1"] + self.params["b1"])
        scores = a1 @ self.params["W2"] + self.params["b2"]
        return np.argmax(scores, axis=1).astype(np.int64)



@dataclass(eq=False)
class XgbLikeModel(_Family):
    """Additive Newton regression trees on the multiclass logistic loss."""

    family = "xgb"

    n_rounds: int = 50
    max_depth: int = 3
    lr: float = 0.2
    lam: float = 1.0
    min_leaf: int = 1
    n_classes: int = 0
    trees: list[list[_Tree]] = _fitted(  # [round][class]
        _each(_each(_TREE)), default_factory=list)

    @staticmethod
    def _softmax(F: np.ndarray) -> np.ndarray:
        shifted = F - F.max(axis=1, keepdims=True)
        expf = np.exp(shifted)
        return expf / expf.sum(axis=1, keepdims=True)

    def fit(self, X, y, n_classes, rng, clock=None):
        self.n_classes = n_classes
        n = X.shape[0]
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), y] = 1.0
        F = np.zeros((n, n_classes))
        rows = np.arange(n)
        self.trees = []
        for _ in range(self.n_rounds):
            if clock is not None:
                clock.check()
            probs = self._softmax(F)
            round_trees: list[_Tree] = []
            for c in range(n_classes):
                grad = probs[:, c] - onehot[:, c]
                hess = probs[:, c] * (1.0 - probs[:, c])
                builder = _NewtonTreeBuilder(X, grad, hess, self.lam,
                                             max_depth=self.max_depth,
                                             min_leaf=self.min_leaf, clock=clock)
                tree = builder.build(rows)
                round_trees.append(tree)
                F[:, c] += self.lr * tree.leaf[tree.apply(X)]
            self.trees.append(round_trees)

    def predict_codes(self, X) -> np.ndarray:
        F = np.zeros((X.shape[0], self.n_classes))
        for round_trees in self.trees:
            for c, tree in enumerate(round_trees):
                F[:, c] += self.lr * tree.leaf[tree.apply(X)]
        return np.argmax(F, axis=1).astype(np.int64)



# ---------------------------------------------------------------------------
# Family registry


@dataclass(frozen=True)
class FamilyInfo:
    tier: str
    rank: int  # fixed tie-break order for select_optimal
    factory: type
    grid: dict[str, tuple] = field(default_factory=dict)
    memory_factor: int = 4  # rough bytes-per-cell multiplier for estimates


FAMILIES: dict[str, FamilyInfo] = {
    "dt": FamilyInfo(REQUIRED_TIER, 0, DecisionTreeModel,
                     {"max_depth": (4, 8, 16, 32), "min_leaf": (1, 4)}, 6),
    "rf": FamilyInfo(REQUIRED_TIER, 1, RandomForestModel,
                     {"n_trees": (50, 100), "max_depth": (8, 16)}, 8),
    "knn": FamilyInfo(REQUIRED_TIER, 2, KnnModel, {"k": (1, 3, 5, 9)}, 3),
    "gbay": FamilyInfo(REQUIRED_TIER, 3, GaussianNbModel,
                       {"var_floor": (1e-9, 1e-7)}, 2),
    "rid": FamilyInfo(REQUIRED_TIER, 4, RidgeModel, {"alpha": (0.1, 1.0, 10.0)}, 4),
    "svm": FamilyInfo(OPTIONAL_TIER, 5, LinearSvmModel,
                      {"lam": (1e-4, 1e-2), "epochs": (50, 100)}, 3),
    "mlp": FamilyInfo(OPTIONAL_TIER, 6, MlpModel,
                      {"hidden": (16, 64), "lr": (0.05, 0.2)}, 6),
    "xgb": FamilyInfo(OPTIONAL_TIER, 7, XgbLikeModel,
                      {"n_rounds": (40, 80), "max_depth": (3, 5)}, 8),
}

TIERS: dict[str, tuple[str, ...]] = {
    REQUIRED_TIER: tuple(f for f, i in FAMILIES.items() if i.tier == REQUIRED_TIER),
    OPTIONAL_TIER: tuple(f for f, i in FAMILIES.items() if i.tier == OPTIONAL_TIER),
}


def families_for_tiers(tiers) -> tuple[str, ...]:
    names: list[str] = []
    for tier in tiers:
        if tier not in TIERS:
            raise ContractError(f"unknown algorithm tier: {tier!r}")
        names.extend(TIERS[tier])
    return tuple(names)


def make_model(family: str, params: dict):
    info = FAMILIES.get(family)
    if info is None:
        raise ContractError(f"unknown algorithm family: {family!r}")
    return info.factory(**params)


def model_from_payload(family: str, payload: dict):
    info = FAMILIES.get(family)
    if info is None:
        raise SpecMismatchError(f"payload names unknown family: {family!r}")
    return info.factory.from_payload(payload)
