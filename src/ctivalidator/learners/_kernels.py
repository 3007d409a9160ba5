"""Split-search kernels: one call scans a block of sorted feature columns.

Tree building spends almost all of its time looking for the best cut point
in the candidate feature columns of a node.  Each kernel takes a
``(rows x columns)`` block whose columns are each sorted ascending and
scans every column at once with prefix sums.  It returns
``(best_score, best_column, best_pos)`` where the cut separates rows
``[0..pos]`` from ``[pos+1..]`` of that column; ``pos == -1`` means no
valid split exists.  Score ties go to the earliest column, then the earliest
position.

The sequential ``_split_*_seq`` functions scan one column with plain loops.
They are the reference the tests hold the kernels to, and the kernels agree
with them bit for bit: class counts accumulate in int64 (exact,
order-independent), gradient prefix sums accumulate row by row in the loop's
order, and every per-split score is the same short float64 expression.
"""

from __future__ import annotations

import numpy as np


# --- sequential reference (one column) --------------------------------------


def _split_class_seq(values, codes, n_classes, min_leaf):
    n = values.shape[0]
    left = np.zeros(n_classes, dtype=np.int64)
    right = np.zeros(n_classes, dtype=np.int64)
    for i in range(n):
        right[codes[i]] += 1
    best_score = -1.0
    best_pos = -1
    for i in range(n - 1):
        c = codes[i]
        left[c] += 1
        right[c] -= 1
        if values[i] == values[i + 1]:
            continue
        nl = i + 1
        nr = n - nl
        if nl < min_leaf or nr < min_leaf:
            continue
        sl = np.int64(0)
        sr = np.int64(0)
        for k in range(n_classes):
            sl += left[k] * left[k]
            sr += right[k] * right[k]
        score = sl / nl + sr / nr
        if score > best_score:
            best_score = score
            best_pos = i
    return best_score, best_pos


def _split_reg_seq(values, grad, hess, lam, min_leaf):
    n = values.shape[0]
    g_total = 0.0
    h_total = 0.0
    for i in range(n):
        g_total += grad[i]
        h_total += hess[i]
    best_score = -np.inf
    best_pos = -1
    gl = 0.0
    hl = 0.0
    for i in range(n - 1):
        gl += grad[i]
        hl += hess[i]
        if values[i] == values[i + 1]:
            continue
        nl = i + 1
        nr = n - nl
        if nl < min_leaf or nr < min_leaf:
            continue
        gr = g_total - gl
        hr = h_total - hl
        score = gl * gl / (hl + lam) + gr * gr / (hr + lam)
        if score > best_score:
            best_score = score
            best_pos = i
    return best_score, best_pos


# --- batched kernels (a block of columns) -----------------------------------


def _valid_cuts(values, min_leaf):
    """(n-1, m) mask of cuts between distinct values with both sides >= min_leaf."""
    valid = values[1:] != values[:-1]
    if min_leaf > 1:
        valid[:min_leaf - 1] = False
        valid[max(values.shape[0] - min_leaf, 0):] = False
    return valid


def _argmax_by_column(score, valid):
    """First valid maximum, column by column: ``(score, column, pos)``."""
    score = np.where(valid, score, -np.inf)
    column, pos = divmod(int(score.T.argmax()), score.shape[0])
    return float(score[pos, column]), column, pos


# Numpy's function wrappers cost more than the arithmetic on the small blocks
# of deep nodes, so the kernels call array methods and ufuncs directly.


def best_split_classification(values, codes, n_classes, min_leaf):
    """Best Gini cut over a block, with the int64 class counts on each side.

    Returns ``(score, column, pos, left_counts, right_counts)``; the counts
    are zeros when ``pos == -1``.
    """
    n = values.shape[0]
    if n >= 2:
        valid = _valid_cuts(values, min_leaf)
        onehot = (codes[:, :, None] == np.arange(n_classes)).astype(np.int64)
        prefix = np.add.accumulate(onehot, axis=0)  # (n, m, n_classes)
        left = prefix[:-1]
        right = prefix[-1] - left
        sl = np.einsum("ijk,ijk->ij", left, left)  # int64: exact in any order
        sr = np.einsum("ijk,ijk->ij", right, right)
        nl = np.arange(1, n, dtype=np.int64)[:, None]
        score, column, pos = _argmax_by_column(sl / nl + sr / nl[::-1], valid)
        if score > -np.inf:
            left_counts = prefix[pos, column].copy()  # a view would pin prefix
            return score, column, pos, left_counts, prefix[-1, column] - left_counts
    empty = np.zeros(n_classes, dtype=np.int64)
    return -1.0, -1, -1, empty, empty.copy()


def best_split_regression(values, grad, hess, lam, min_leaf):
    """Best Newton-gain cut over a block: ``(score, column, pos)``."""
    if values.shape[0] < 2:
        return -np.inf, -1, -1
    valid = _valid_cuts(values, min_leaf)
    # accumulate adds row by row, the same op order as the loop.
    cg = np.add.accumulate(grad, axis=0)
    ch = np.add.accumulate(hess, axis=0)
    gl = cg[:-1]
    hl = ch[:-1]
    gr = cg[-1] - gl
    hr = ch[-1] - hl
    score, column, pos = _argmax_by_column(
        gl * gl / (hl + lam) + gr * gr / (hr + lam), valid)
    if score == -np.inf:
        return -np.inf, -1, -1
    return score, column, pos
