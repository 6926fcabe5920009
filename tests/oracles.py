"""Independent reference implementations used to verify the package.

Everything here is written the slow, obvious way (explicit loops, no
shared code with src/) so a bug in the optimized code cannot hide in its
own oracle.
"""

import re
from collections import Counter, deque
from itertools import combinations, islice, repeat
from pathlib import Path

import numpy as np

from gesturekit.errors import ParseError, ValidationError
from gesturekit.features import Scaler, feature_names, sample_count
from gesturekit.imu import ADL_LABEL
from gesturekit.pipeline import GESTURE_WINDOW_LABEL
from gesturekit.seeding import BALANCE, FINAL, derive_rng
from gesturekit.svm import KernelConfig, OvoSvmModel, ovo_train_many


def naive_embed(series, m, tau):
    r = np.asarray(series, dtype=np.float64)
    n_states = len(r) - (m - 1) * tau
    out = np.empty((n_states, m))
    for i in range(n_states):
        for j in range(m):
            out[i, j] = r[i + j * tau]
    return out


def naive_recurrence_matrix(states, epsilon, norm):
    """Double-loop recurrence matrix; ties at epsilon are recurrences."""
    x = np.asarray(states, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n = len(x)
    out = np.zeros((n, n), dtype=np.uint8)
    for i in range(n):
        for j in range(n):
            diff = x[i] - x[j]
            if norm == "L1":
                d = np.sum(np.abs(diff))
            elif norm == "L2":
                d = np.sqrt(np.sum(diff * diff))
            elif norm == "Linf":
                d = np.max(np.abs(diff))
            else:
                raise ValueError(norm)
            if d <= epsilon:
                out[i, j] = 1
        out[i, i] = 1
    return out


def naive_recurrence_rate(matrix):
    n = len(matrix)
    total = 0
    for i in range(n):
        for j in range(n):
            total += int(matrix[i, j])
    return total / (n * n)


def naive_transitivity(matrix):
    """Closed ordered triples over connected ordered triples, by loops."""
    n = len(matrix)
    a = np.array(matrix, dtype=np.int64)
    for i in range(n):
        a[i, i] = 0
    closed = 0
    connected = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if j != k and a[i, j] and a[i, k]:
                    connected += 1
                    if a[j, k]:
                        closed += 1
    if connected == 0:
        return 0.0
    return closed / connected


def naive_fnn_fraction(series, m, tau, r_tol=10.0, a_tol=2.0):
    """Direct nearest-neighbour scan for the false-neighbour fraction."""
    r = np.asarray(series, dtype=np.float64)
    y = naive_embed(r, m, tau)
    n1 = len(r) - m * tau
    y = y[:n1]
    attractor = float(np.std(r))
    false = 0
    for i in range(n1):
        best, best_j = np.inf, -1
        for j in range(n1):
            if j == i:
                continue
            d = np.sqrt(np.sum((y[i] - y[j]) ** 2))
            if d < best:
                best, best_j = d, j
        d_new = abs(r[i + m * tau] - r[best_j + m * tau])
        if best <= 1e-9 * attractor:
            false += d_new > 1e-9 * attractor
        elif attractor > 0.0:
            lifted = np.sqrt(best ** 2 + d_new ** 2)
            false += (d_new / best > r_tol) or (lifted / attractor > a_tol)
        else:
            false += d_new / best > r_tol
    return false / n1


def project_box_simplex(v, y, cost, iters=100):
    """Project v onto {0 <= a <= C, sum(a*y) = 0} (Euclidean).

    The projection is clip(v - lam*y) for the lam making the constraint
    hold; the constraint value is monotone in lam, found by bisection.
    """
    v = np.asarray(v, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    def constraint(lam):
        return float(np.clip(v - lam * y, 0.0, cost) @ y)

    span = float(np.abs(v).max() + cost + 1.0)
    lo, hi = -span, span
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if constraint(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * span:
            break
    lam = 0.5 * (lo + hi)
    return np.clip(v - lam * y, 0.0, cost)


def pg_dual_solve(K, y, cost, steps=20000, lr=None, gap_tol=1e-5):
    """Projected-gradient ascent on the SVM dual.

    Maximizes ``sum(a) - 0.5 (a*y)' K (a*y)`` over the box-simplex via
    small gradient steps followed by exact projection. Slow but simple;
    used as the ground-truth objective for SMO. Every 10 steps it stops
    once ``duality_gap`` certifies that the objective is within
    ``gap_tol`` of the optimum; otherwise after ``steps`` steps or once a
    step moves no multiplier by 1e-12.
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if lr is None:
        # inverse spectral bound keeps plain gradient ascent stable
        lr = 1.0 / (np.linalg.norm(K, 2) + 1.0)
    alpha = np.full(n, min(cost / 2.0, 1.0 / n))
    alpha = project_box_simplex(alpha, y, cost)
    for step in range(steps):
        grad = 1.0 - y * (K @ (alpha * y))
        stepped = project_box_simplex(alpha + lr * grad, y, cost)
        moved = float(np.max(np.abs(stepped - alpha)))
        alpha = stepped
        if moved < 1e-12:
            break
        if step % 10 == 9 and duality_gap(K, y, alpha, cost) <= gap_tol:
            break
    return alpha


def duality_gap(K, y, alpha, cost):
    """Primal minus dual objective of the classifier that ``alpha`` gives.

    The primal ``0.5 w'w + cost * sum(hinge)`` is taken at its best bias.
    The hinge sum is convex and piecewise linear in the bias, so its
    minimum lies on a breakpoint ``b = y_i - f_i``. For a positive
    semi-definite K and a feasible alpha, the gap bounds from above how
    far alpha's dual objective falls short of the optimum.
    """
    v = alpha * y
    f = K @ v
    margins = y * (f + (y - f)[:, None])      # one row per breakpoint
    hinge = np.maximum(0.0, 1.0 - margins).sum(axis=1).min()
    return float(v @ f - alpha.sum() + cost * hinge)


def dual_objective(K, y, alpha):
    ay = alpha * y
    return float(np.sum(alpha) - 0.5 * ay @ K @ ay)


def kkt_max_violation(K, y, alpha, bias, cost) -> float:
    """Largest KKT violation, with the same semantics the solver uses.

    A point can be pushed up while alpha < C and its margin residual
    r = y f - 1 is negative, or pushed down while alpha > 0 and r is
    positive; the violation is the residual magnitude on whichever side
    applies. A converged model keeps the maximum at or below KKT_TOL.
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    r = y * (K @ (alpha * y) + bias) - 1.0
    viol = np.zeros(len(y))
    below_cap = alpha < cost
    above_zero = alpha > 0.0
    viol[below_cap] = np.maximum(viol[below_cap], -r[below_cap])
    viol[above_zero] = np.maximum(viol[above_zero], r[above_zero])
    return float(viol.max(initial=0.0))


def naive_best_split(X, yi, n_classes, feat_ids, min_leaf):
    """Exhaustive scan over every feature and midpoint threshold.

    Mirrors the tie rules: first feature in feat_ids order, lowest
    threshold, and only strictly positive impurity decreases count.
    """
    X = np.asarray(X, dtype=np.float64)
    yi = np.asarray(yi)
    n = len(yi)

    def gini(members):
        counts = np.bincount(yi[members], minlength=n_classes)
        p = counts / counts.sum()
        return 1.0 - float((p * p).sum())

    g_parent = gini(np.arange(n))
    best, best_dec = None, 0.0
    for f in feat_ids:
        values = np.unique(X[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = 0.5 * (lo + hi)
            left = np.flatnonzero(X[:, f] <= thr)
            right = np.flatnonzero(X[:, f] > thr)
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            dec = g_parent - (len(left) * gini(left)
                              + len(right) * gini(right)) / n
            if dec > best_dec:
                best, best_dec = (int(f), float(thr), float(dec)), float(dec)
    return best


def loop_grow_tree(X, yi, n_classes, max_depth, rng):
    """One CART tree grown a node at a time from a breadth-first queue.

    Returns its (feature, threshold, left, right, value) lists in level
    order, the layout of ``forest.Tree``. Each node with two or more
    classes below the depth cap draws ``rng.choice(d, k, replace=False)``
    in queue order, and every cut between distinct values of every drawn
    feature is scored from Python-int class counts as
    ``sl2 / nl + sr2 / nr``; the first highest score wins, and only if
    ``n * (sl2 * nr + sr2 * nl) > sum(p * p) * nl * nr``.
    """
    X = np.asarray(X, dtype=np.float64)
    yi = [int(c) for c in yi]
    n, d = X.shape
    k = max(1, int(np.sqrt(d)))
    feature, threshold, left, right, value = [], [], [], [], []
    queue = deque([(list(range(n)), 0)])
    while queue:
        members, depth = queue.popleft()
        counts = [0] * n_classes
        for i in members:
            counts[yi[i]] += 1
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(counts.index(max(counts)))
        if depth >= max_depth or sum(c > 0 for c in counts) < 2:
            continue
        total = len(members)
        best = None
        for f in rng.choice(d, k, replace=False):
            f = int(f)
            ordered = sorted(members, key=lambda i: X[i, f])
            lc = [0] * n_classes
            for j in range(total - 1):
                lc[yi[ordered[j]]] += 1
                lo, hi = X[ordered[j], f], X[ordered[j + 1], f]
                if not lo < hi:
                    continue
                nl, nr = j + 1, total - j - 1
                sl2 = sum(c * c for c in lc)
                sr2 = sum((p - c) ** 2 for p, c in zip(counts, lc))
                score = sl2 / nl + sr2 / nr
                if best is None or score > best[0]:
                    best = (score, f, float(0.5 * (lo + hi)),
                            nl, nr, sl2, sr2)
        if best is None:
            continue
        _, f, thr, nl, nr, sl2, sr2 = best
        if not total * (sl2 * nr + sr2 * nl) > \
                sum(c * c for c in counts) * nl * nr:
            continue
        at = len(feature) - 1
        feature[at], threshold[at] = f, thr
        left[at] = len(feature) + len(queue)
        right[at] = left[at] + 1
        queue.append(([i for i in members if X[i, f] <= thr], depth + 1))
        queue.append(([i for i in members if X[i, f] > thr], depth + 1))
    return feature, threshold, left, right, value


def loop_smo_solve(K, y, cost, tol=1e-3, max_iter=None):
    """The one-problem WSS2 loop that the lockstep SMO stack replaced.

    Kept verbatim as a differential oracle (only its two error types are
    builtins here, and its default budget has the solver's 10 000-step
    floor): the stacked solve must return the same alpha and bias, bit for
    bit.
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if K.shape != (n, n):
        raise ValueError("Gram matrix shape does not match labels")
    if not 0.0 < cost < np.inf:
        raise ValueError("cost must be positive and finite")
    if max_iter is None:
        max_iter = max(10_000, 100 * n)

    # v = alpha y lives in the box [lo, hi]; g = y - K v is the gradient
    v = np.zeros(n)
    hi = np.where(y > 0.0, cost, 0.0)
    lo = hi - cost
    g = y.copy()
    diag = np.diag(K)
    curvature = np.maximum(diag[:, None] + diag - 2.0 * K, 1e-12)
    for step in range(max_iter + 1):
        up_g = np.where(v < hi, g, -np.inf)     # g over I_up
        low_g = np.where(v > lo, g, np.inf)     # g over I_low
        i = int(up_g.argmax())
        gap = up_g[i] - low_g.min()
        if not gap > tol:
            break
        if step == max_iter:
            raise RuntimeError(
                f"SMO did not converge within {max_iter} steps "
                f"(n={n}, cost={cost}, gap={gap:.3g})")
        b = np.maximum(up_g[i] - low_g, 0.0)
        j = int((b * b / curvature[i]).argmax())
        # v_i grows and v_j shrinks by t, keeping sum(v) = 0; a capped
        # multiplier lands exactly on its bound
        cap_i, cap_j = hi[i] - v[i], v[j] - lo[j]
        t = min(b[j] / curvature[i, j], cap_i, cap_j)
        v[i] = hi[i] if t == cap_i else v[i] + t
        v[j] = lo[j] if t == cap_j else v[j] - t
        g -= t * (K[i] - K[j])
    alpha = np.abs(v)
    bias = 0.0
    # settle the bias from the final multipliers: unbound points pin it
    # exactly, otherwise the feasible interval's midpoint is taken. This
    # drops the drift the incremental updates accumulate.
    target = y - K @ (alpha * y)
    unbound = (alpha > 0.0) & (alpha < cost)
    if unbound.any():
        bias = float(target[unbound].mean())
    else:
        ends = []
        lo_mask = ((alpha == 0.0) & (y > 0.0)) | ((alpha == cost) & (y < 0.0))
        hi_mask = ((alpha == 0.0) & (y < 0.0)) | ((alpha == cost) & (y > 0.0))
        if lo_mask.any():
            ends.append(float(target[lo_mask].max()))
        if hi_mask.any():
            ends.append(float(target[hi_mask].min()))
        if ends:
            bias = sum(ends) / len(ends)
    return alpha, bias


def naive_vote_winner(classes, pairs, decisions):
    """OvO vote count with the tie rules spelled out long-hand.

    ``decisions[p]`` is the decision value of pair ``pairs[p]`` for one
    sample; d >= 0 votes the first class of the pair. Vote ties break by
    the larger sum of |d| over the pairs each tied class won, then by
    class order.
    """
    votes = {c: 0 for c in classes}
    margin = {c: 0.0 for c in classes}
    for (a, b), d in zip(pairs, decisions):
        winner = a if d >= 0.0 else b
        votes[winner] += 1
        margin[winner] += abs(d)
    best = max(votes.values())
    tied = [c for c in classes if votes[c] == best]
    if len(tied) == 1:
        return tied[0]
    strongest = max(margin[c] for c in tied)
    for c in tied:
        if margin[c] == strongest:
            return c


def loop_channel_statistics(x):
    """The 7 statistics of one channel, one numpy reduction each.

    The per-channel body that the one-pass ``featurize_segments`` replaced,
    kept verbatim as a differential oracle: each of its values must equal
    the featurizer's cell bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    mean = float(np.mean(x))
    med = float(np.median(x))
    rms = float(np.sqrt(np.mean(x * x)))
    m2 = float(np.mean((x - mean) ** 2))
    std = float(np.sqrt(m2))
    if m2 > 0.0:
        m3 = float(np.mean((x - mean) ** 3))
        m4 = float(np.mean((x - mean) ** 4))
        skew = m3 / m2 ** 1.5
        kurt = m4 / m2 ** 2
    else:
        skew = 0.0
        kurt = 0.0
    return [mean, med, rms, std, m2, skew, kurt]


def loop_label_windows(stream, intervals, win, overlap_fraction):
    """Binary window labels, one window and one interval at a time.

    The loop ``label_windows`` replaced with one broadcast over window
    starts and intervals, kept as a differential oracle: its out-of-bounds
    check is left out, and ADL intervals are skipped, since they mark no
    window.
    """
    n = len(stream)
    labels = []
    for s in win.starts(n):
        s = int(s)
        e = s + win.window_len
        hit = any(min(iv.end, e) - max(iv.start, s)
                  >= overlap_fraction * len(iv) for iv in intervals
                  if iv.label != "ADL")
        labels.append("gesture" if hit else "ADL")
    return labels


def loop_identify_segments(starts, pred, step, window_len):
    """Candidate intervals from window starts and their predicted labels.

    The run-building loop ``identify_segments`` replaced with ``np.diff``,
    kept verbatim as a differential oracle: runs of positive windows one
    step apart collapse to one interval at the run's midpoint start, and
    an emission that overlaps the previous one is dropped.
    """
    positive = [int(s) for s, p in zip(starts, pred) if p == "gesture"]
    runs = []
    for s in positive:
        if runs and s - runs[-1][-1] == step:
            runs[-1].append(s)
        else:
            runs.append([s])
    out = []
    for run in runs:
        mid = (run[0] + run[-1]) // 2
        iv = (mid, mid + window_len)
        if out and iv[0] < out[-1][1]:
            continue
        out.append(iv)
    return out


def loop_confusion_matrix(classes, true_labels, pred_labels):
    """(K, K) counts of (true, predicted) pairs, one row at a time.

    The loop ``confusion_matrix`` replaced with one ``bincount``, kept
    verbatim as a differential oracle.
    """
    index = {c: i for i, c in enumerate(classes)}
    out = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for t, p in zip(true_labels, pred_labels):
        out[index[t], index[p]] += 1
    return out


def loop_identifier_batch(args):
    """``pipeline._identifier_batch`` as it was before draws became row
    indices: each fold copies its training rows, each balance draw finds
    its gesture and ADL rows by label text, and each draw's predicted
    labels are scored as strings by ``loop_confusion_matrix``. Kept as a
    differential oracle of the report rows and the final model."""
    classes = (ADL_LABEL, GESTURE_WINDOW_LABEL)
    dataset, cfg, seed, folds, final = args

    def balanced_subset(data, rng):
        gesture = np.flatnonzero(data.labels == GESTURE_WINDOW_LABEL)
        adl = np.flatnonzero(data.labels == ADL_LABEL)
        if len(gesture) == 0:
            raise ValidationError("no gesture windows in the training data")
        if len(adl) < len(gesture):
            raise ValidationError("not enough ADL windows for a balanced "
                                  "draw")
        pick = rng.choice(adl, size=len(gesture), replace=False)
        return data.take(np.concatenate([gesture, np.sort(pick)]))

    def scores(conf):
        totals = conf.sum(axis=1)
        present = totals > 0
        recalls = np.diag(conf)[present] / totals[present]
        return float(np.trace(conf) / conf.sum()), float(recalls.mean())

    def draws():
        for fi, subject in folds:
            train = dataset.take(dataset.subjects != subject)
            for it in range(cfg.n_balance_iters):
                yield balanced_subset(
                    train, derive_rng(seed, BALANCE, fi, it)), None
        if final:
            yield balanced_subset(dataset, derive_rng(seed, FINAL)), None

    tests = [dataset.take(dataset.subjects == s) for _, s in folds]
    models = ovo_train_many(draws(), cfg.kernel, cfg.cost)
    rows = []
    for (_, subject), test in zip(folds, tests):
        accs, bals = [], []
        gesture_votes = np.zeros(len(test), dtype=np.int64)
        for model in islice(models, cfg.n_balance_iters):
            pred = model.predict(test.X)
            acc, bal = scores(loop_confusion_matrix(classes, test.labels,
                                                    pred))
            accs.append(acc)
            bals.append(bal)
            gesture_votes += pred == GESTURE_WINDOW_LABEL
        majority = np.where(2 * gesture_votes > cfg.n_balance_iters,
                            GESTURE_WINDOW_LABEL, ADL_LABEL)
        rows.append((subject, float(np.mean(accs)), float(np.mean(bals)),
                     loop_confusion_matrix(classes, test.labels, majority)))
    return rows, next(models, None)


def loop_stratified_split(labels):
    """Per class, even ranks train and odd ranks test, one row at a time.

    The dict loop ``pipeline._stratified_split`` replaced with one mask
    per class, kept as a differential oracle without its too-small check.
    """
    train_idx, test_idx = [], []
    by_class = {}
    for i, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(i)
    for lab in sorted(by_class):
        rows = by_class[lab]
        train_idx.extend(rows[0::2])
        test_idx.extend(rows[1::2])
    return np.sort(train_idx), np.sort(test_idx)


def loop_take(X, labels, subjects, rows):
    """``(X, labels, subjects)`` of the given rows, with labels and
    subjects as lists, as ``LabeledDataset.take`` built them when they
    were lists; kept as a differential oracle."""
    rows = np.asarray(rows)
    if rows.dtype == bool:
        rows = np.flatnonzero(rows)
    return X[rows], [labels[i] for i in rows], [subjects[i] for i in rows]


def loop_tree_predict(tree, X):
    """Each row walked down each tree of the node arrays on its own, to
    its leaf's class index; a differential oracle for ``tree_predict``'s
    level-by-level walk. The roots are the nodes no split points to."""
    children = set(tree.left.tolist()) | set(tree.right.tolist())
    roots = [i for i in range(len(tree.feature)) if i not in children]
    out = []
    for x in np.atleast_2d(X):
        leaves = []
        for i in roots:
            while tree.feature[i] >= 0:
                go_left = x[tree.feature[i]] <= tree.threshold[i]
                i = tree.left[i] if go_left else tree.right[i]
            leaves.append(int(tree.value[i]))
        out.append(leaves)
    return out


def loop_vote_tally(classes, pairs, D):
    """Vote counts and per-class |decision| sums, one pair column at a
    time with a class-position dict, as ``svm.vote_tally`` computed them
    before its single bincount; kept as a differential oracle."""
    index = {c: i for i, c in enumerate(classes)}
    n = D.shape[0]
    votes = np.zeros((n, len(classes)), dtype=np.int64)
    margins = np.zeros((n, len(classes)))
    for p, (a, b) in enumerate(pairs):
        d = D[:, p]
        won_a = d >= 0.0
        ia, ib = index[a], index[b]
        votes[won_a, ia] += 1
        votes[~won_a, ib] += 1
        margins[won_a, ia] += np.abs(d[won_a])
        margins[~won_a, ib] += np.abs(d[~won_a])
    return votes, margins


STREAM_HEADER = ("t", "acc_x", "acc_y", "acc_z", "gyro_x", "gyro_y",
                 "gyro_z", "mag_x", "mag_y", "mag_z")

# README's number grammar, once the whitespace str.strip strips is gone
# from around the number: ASCII digits only, and nan, inf and infinity in
# any case
GRAMMAR_INT = re.compile(r"[+-]?[0-9]+")
GRAMMAR_FLOAT = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)"
                           r"(?:[eE][+-]?[0-9]+)?|nan|inf|infinity)",
                           re.IGNORECASE)


def grammar_int(cell):
    """An int64 cell by the grammar, converted by int; ValueError with
    Python's message for a literal int rejects, OverflowError past int64."""
    if GRAMMAR_INT.fullmatch(cell.strip()) is None:
        raise ValueError("invalid literal for int() with base 10: "
                         + repr(cell)[:200])
    value = int(cell.strip())
    if not -2 ** 63 <= value < 2 ** 63:
        raise OverflowError(f"{cell.strip()} is outside the int64 range")
    return value


def grammar_float(cell):
    """A float64 cell by the grammar, converted by float; ValueError with
    Python's message for a literal float rejects."""
    if GRAMMAR_FLOAT.fullmatch(cell.strip()) is None:
        raise ValueError(f"could not convert string to float: {cell!r}")
    return float(cell.strip())


def read_grammar_lines(path):
    """A UTF-8 file's lines, split at "\r\n", "\r" and "\n" alone."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None
    lines = re.split(r"\r\n|\r|\n", text)
    return lines[:-1] if lines[-1] == "" else lines


def _loop_convert_rows(rows):
    """Sample indices and (len, 9) channels of stream CSV rows, through
    ``grammar_int`` and ``grammar_float``; ValueError or OverflowError if
    a row fails."""
    n = len(rows)
    if list(map(str.count, rows, repeat(","))).count(9) != n:
        raise ValueError("a row without 10 cells")
    cells = ",".join(rows).split(",")
    t = np.fromiter(map(grammar_int, cells[0::10]), dtype=np.int64, count=n)
    del cells[0::10]
    ch = np.fromiter(map(grammar_float, cells), dtype=np.float64,
                     count=9 * n)
    return t, ch.reshape(n, 9)


def _loop_row_error(row, lineno):
    cells = row.split(",")
    if len(cells) != 10:
        return f"expected 10 cells at line {lineno}, got {len(cells)}"
    try:
        _loop_convert_rows([row])
    except ValueError as exc:
        return f"non-numeric cell at line {lineno}: {exc}"
    except OverflowError:
        return f"sample index out of int64 range at line {lineno}"
    return None


def loop_parse_imu_csv(path, block_rows=1024):
    """``(subject id, channels)`` of a stream CSV, or ParseError with the
    message ``imu.parse_imu_csv`` gives: rows go through the grammar's
    int and float in blocks of ``block_rows``, and a block that fails is
    scanned row by row for the first bad row."""
    path = Path(path)
    lines = read_grammar_lines(path)
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = tuple(c.strip() for c in lines[0].split(","))
    if header != STREAM_HEADER:
        missing = set(STREAM_HEADER) - set(header)
        dupes = {c for c, k in Counter(header).items() if k > 1}
        if dupes:
            raise ParseError(f"{path}: duplicate columns {sorted(dupes)}")
        if missing:
            raise ParseError(f"{path}: missing columns {sorted(missing)}")
        raise ParseError(f"{path}: unexpected header {header}")
    # file line of each row: blank lines are skipped but still counted
    linenos = [i for i, ln in enumerate(lines[1:], 2) if ln.strip()]
    rows = [ln for ln in lines[1:] if ln.strip()]
    if not rows:
        raise ParseError(f"{path}: empty stream")
    n = len(rows)
    t = np.empty(n, dtype=np.int64)
    ch = np.empty((n, 9), dtype=np.float64)
    problems = []
    for lo in range(0, n, block_rows):
        block = rows[lo: lo + block_rows]
        try:
            t[lo: lo + len(block)], ch[lo: lo + len(block)] = \
                _loop_convert_rows(block)
        except (ValueError, OverflowError):
            for j, row in enumerate(block):
                message = _loop_row_error(row, linenos[lo + j])
                if message is not None:
                    break
            t[lo: lo + j], ch[lo: lo + j] = _loop_convert_rows(block[:j])
            n = lo + j
            problems.append((n, message))
            break
    t, ch = t[:n], ch[:n]
    for bad, offset, what in (
            (~np.isfinite(ch).all(axis=1), 0, "non-finite value at line"),
            (t[1:] <= t[:-1], 1, "non-monotonic index at line"),
            (t[1:] != t[:-1] + 1, 1, "missing sample before line")):
        rows_hit = np.flatnonzero(bad)
        if len(rows_hit):
            row = int(rows_hit[0]) + offset
            problems.append((row, f"{what} {linenos[row]}"))
    if problems:
        row, message = min(problems, key=lambda p: p[0])
        raise ParseError(f"{path}: {message}")
    return path.stem, ch


def _loop_floats(path, section, line, prefix, expect=None):
    if not (line.startswith(prefix + " ") or line == prefix):
        raise ParseError(f"{path}: expected a {prefix!r} line in {section}")
    try:
        out = np.array([grammar_float(token)
                        for token in line[len(prefix):].split()])
    except ValueError:
        raise ParseError(f"{path}: bad number in {section} section") from None
    if expect is not None and len(out) != expect:
        raise ParseError(f"{path}: wrong value count in {section} section")
    if not np.all(np.isfinite(out)):
        raise ParseError(f"{path}: non-finite value in {section} section")
    return out


def loop_load_model(path) -> OvoSvmModel:
    """``svm.load_model`` with every number line converted on its own,
    token by token through ``grammar_float``, section by section: the
    model, or the ParseError ``svm.load_model`` gives. The [pair]
    sections' titles are checked first, then their alpha_y lines, then
    their bias lines."""
    path = Path(path)
    lines = read_grammar_lines(path)
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError(f"{path}: empty model file")
    head = re.fullmatch(r"GKMODEL v(\d+)", lines[0].strip())
    if head is None:
        raise ParseError(f"{path}: not a GKMODEL file")
    if head.group(1) == "1":
        raise ParseError(f"{path}: GKMODEL v1 files are not read; retrain "
                         "the model to write v2")
    if head.group(1) != "2":
        raise ParseError(f"{path}: unsupported model version v{head.group(1)}")

    sections = []       # (header line, the lines under it)
    for ln in lines[1:]:
        if ln.startswith("[") or not sections:
            sections.append((ln, []))
        else:
            sections[-1][1].append(ln)
    rqa = ()
    if sections and sections[0][0] == "[rqa]":
        rqa = tuple(tuple(ln.split()) for ln in sections.pop(0)[1])
        if not rqa or any(len(kv) != 2 for kv in rqa):
            raise ParseError(f"{path}: [rqa] needs `key value` lines")
    if ([h for h, _ in sections[:4]]
            != ["[kernel]", "[scaler]", "[registry]", "[sv]"]):
        raise ParseError(f"{path}: expected [kernel], [scaler], [registry] "
                         "and [sv] sections")
    (_, kernel), (_, scaler), (_, names), (_, rows) = sections[:4]

    try:
        fields = dict(ln.split(None, 1) for ln in kernel)
        cfg = KernelConfig(kind=fields["kind"],
                           gamma=grammar_float(fields["gamma"]),
                           coef0=grammar_float(fields["coef0"]),
                           degree=grammar_int(fields["degree"]))
        cost = grammar_float(fields["cost"])
    except (KeyError, ValueError, OverflowError, ValidationError) as e:
        raise ParseError(f"{path}: bad [kernel] section: {e}") from None
    if len(kernel) != 5 or not np.isfinite(cost) or cost <= 0.0:
        raise ParseError(f"{path}: bad [kernel] section")

    if len(scaler) != 2:
        raise ParseError(f"{path}: [scaler] needs a mean and a std line")
    mean = _loop_floats(path, "[scaler]", scaler[0], "mean")
    std = _loop_floats(path, "[scaler]", scaler[1], "std", expect=len(mean))
    if np.any(std <= 0.0):
        raise ParseError(f"{path}: scaler std must be positive")
    names = [ln.strip() for ln in names]
    if not names or len(names) != len(mean):
        raise ParseError(f"{path}: registry size differs from scaler width")
    try:
        produced = feature_names(sample_count(names))
    except ValidationError as e:
        raise ParseError(f"{path}: bad [registry] section: {e}") from None
    recognizer = not rqa and any(name in produced for name in names)
    for name in names if recognizer else ():
        if name not in produced:
            raise ParseError(f"{path}: bad [registry] section: segment "
                             f"featurization does not produce {name!r}")
    sv = np.array([_loop_floats(path, "[sv]", ln, "sv", expect=len(names))
                   for ln in rows]).reshape(len(rows), len(names))

    pairs, coef, bias = [], [], []
    for title, body in sections[4:]:
        m = re.fullmatch(r"\[pair (\S+) (\S+)\]", title)
        if m is None or len(body) != 2:
            raise ParseError(f"{path}: expected a [pair] section with an "
                             f"alpha_y and a bias line, got {title!r}")
        pairs.append(m.groups())
    for title, body in sections[4:]:
        coef.append(_loop_floats(path, title, body[0], "alpha_y",
                                 expect=len(sv)))
    for title, body in sections[4:]:
        bias.append(_loop_floats(path, title, body[1], "bias", expect=1)[0])
    classes = tuple(dict.fromkeys(c for pair in pairs for c in pair))
    if not pairs or pairs != list(combinations(classes, 2)):
        raise ParseError(f"{path}: [pair] sections must cover every class "
                         "pair once, in order")
    try:
        return OvoSvmModel(classes=classes, cfg=cfg, cost=cost, sv=sv,
                           coef=np.reshape(coef, (len(pairs), len(sv))).T,
                           bias=np.array(bias), scaler=Scaler(mean, std),
                           feature_names=tuple(names), rqa=rqa)
    except ValidationError as e:
        raise ParseError(f"{path}: inconsistent model: {e}") from None
