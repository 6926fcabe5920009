"""Independent reference implementations used to verify the package.

Everything here is written the slow, obvious way (explicit loops, no
shared code with src/) so a bug in the optimized code cannot hide in its
own oracle.
"""

import numpy as np


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


def loop_best_split(X, yi, n_classes, feat_ids, min_leaf):
    """The per-feature split scan that the batched ``_best_split`` replaced.

    Kept verbatim as a differential oracle: the batched scan must return
    the same tuple, bit for bit, including every tie.
    """
    n = len(yi)
    parent = np.bincount(yi, minlength=n_classes).astype(np.float64)
    g_parent = 1.0 - ((parent / n) ** 2).sum()
    best = None
    best_dec = 0.0
    for f in feat_ids:
        x = X[:, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = yi[order]
        cut = np.flatnonzero(xs[:-1] < xs[1:])
        if len(cut) == 0:
            continue
        left_n = cut + 1
        keep = (left_n >= min_leaf) & (n - left_n >= min_leaf)
        cut = cut[keep]
        if len(cut) == 0:
            continue
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), ys] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        lc = prefix[cut]
        rc = parent - lc
        nl = (cut + 1).astype(np.float64)
        nr = n - nl
        gl = 1.0 - ((lc / nl[:, None]) ** 2).sum(axis=1)
        gr = 1.0 - ((rc / nr[:, None]) ** 2).sum(axis=1)
        dec = g_parent - (nl * gl + nr * gr) / n
        j = int(np.argmax(dec))
        if dec[j] > best_dec:
            best_dec = float(dec[j])
            thr = 0.5 * (xs[cut[j]] + xs[cut[j] + 1])
            best = (int(f), float(thr), best_dec)
    return best


def loop_smo_solve(K, y, cost, tol=1e-3, max_iter=None):
    """The one-problem WSS2 loop that the lockstep SMO stack replaced.

    Kept verbatim as a differential oracle (only its two error types are
    builtins here): the stacked solve must return the same alpha and bias,
    bit for bit.
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if K.shape != (n, n):
        raise ValueError("Gram matrix shape does not match labels")
    if not 0.0 < cost < np.inf:
        raise ValueError("cost must be positive and finite")
    if max_iter is None:
        max_iter = 100 * n

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
    starts and intervals, kept verbatim (its out-of-bounds check aside) as
    a differential oracle.
    """
    n = len(stream)
    labels = []
    for s in win.starts(n):
        s = int(s)
        e = s + win.window_len
        hit = any(min(iv.end, e) - max(iv.start, s)
                  >= overlap_fraction * len(iv) for iv in intervals)
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
