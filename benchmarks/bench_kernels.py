"""Time the batched split-scan kernels against the sequential reference.

The tree learners spend most of their time scanning sorted feature columns
for the best split.  One kernel call scans a whole (rows x columns) block;
the sequential python kernels scan one column at a time and are the
reference the batched kernels must match bit for bit.  This script times
both on identical blocks and exits non-zero on any disagreement in
(score, column, position).

Run:  python3 benchmarks/bench_kernels.py [--shapes 1000x8,200x300]
"""

import argparse
import time

import numpy as np

from ctivalidator.learners import _kernels


def time_call(fn, args, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def sorted_block(rows, columns, rng):
    return np.sort(rng.normal(size=(rows, columns)).round(1), axis=0)


def classification_inputs(rows, columns, rng):
    codes = rng.integers(0, 4, size=(rows, columns)).astype(np.int64)
    return sorted_block(rows, columns, rng), codes, 4, 1


def regression_inputs(rows, columns, rng):
    grad = rng.normal(size=(rows, columns))
    hess = np.abs(rng.normal(size=(rows, columns))) + 0.5
    return sorted_block(rows, columns, rng), grad, hess, 1.0, 1


def classification_reference(values, codes, n_classes, min_leaf):
    """The sequential kernel column by column; strict > keeps the earliest."""
    best = (-1.0, -1, -1)
    for j in range(values.shape[1]):
        score, pos = _kernels._split_class_seq(values[:, j], codes[:, j],
                                               n_classes, min_leaf)
        if pos >= 0 and score > best[0]:
            best = (float(score), j, int(pos))
    return best


def regression_reference(values, grad, hess, lam, min_leaf):
    best = (-np.inf, -1, -1)
    for j in range(values.shape[1]):
        score, pos = _kernels._split_reg_seq(values[:, j], grad[:, j],
                                             hess[:, j], lam, min_leaf)
        if pos >= 0 and score > best[0]:
            best = (float(score), j, int(pos))
    return best


KERNELS = (
    ("classification", classification_inputs,
     _kernels.best_split_classification, classification_reference),
    ("regression", regression_inputs,
     _kernels.best_split_regression, regression_reference),
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shapes", default="1000x8,200x300,60x1000",
                        help="comma list of ROWSxCOLUMNS blocks to scan")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repetitions (best of N)")
    args = parser.parse_args()
    shapes = [tuple(int(x) for x in s.split("x")) for s in args.shapes.split(",") if s]

    print(f"{'kernel':<16}{'block':>12}{'batched':>12}{'python':>12}   agreement")
    rng = np.random.default_rng(12345)
    for kind, make_inputs, batched, reference in KERNELS:
        for rows, columns in shapes:
            inputs = make_inputs(rows, columns, rng)
            got = tuple(batched(*inputs)[:3])
            want = reference(*inputs)
            fast = time_call(batched, inputs, args.repeats)
            slow = time_call(reference, inputs, 1)
            agree = got == want
            print(f"{kind:<16}{f'{rows}x{columns}':>12}{fast * 1e3:>10.3f}ms"
                  f"{slow * 1e3:>10.1f}ms   " +
                  ("identical" if agree else f"MISMATCH {got} != {want}"))
            if not agree:
                raise SystemExit(1)

    print("\nbatched kernels returned the reference (score, column, position) "
          "on every block.")


if __name__ == "__main__":
    main()
