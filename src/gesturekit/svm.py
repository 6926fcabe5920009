"""Soft-margin kernel SVM trained by sequential minimal optimization.

Binary models are solved two Lagrange multipliers at a time, each pair
picked by deterministic second-order working-set selection (WSS2), so a
trained model depends on its data and settings alone. Multiclass problems
train one binary model per unordered class pair and combine them by
voting. The pairs of a stream of datasets (the folds of an evaluation,
say) are solved in zero-padded stacks that step in lockstep, which pays
numpy's per-call cost once per step instead of once per pair. A
problem leaves its stack at the end of the step it converges in, with
all others converging there, through one selection of the stacked
solver state, and reports its step count and closing gap. A stack
may span datasets and closes at a byte budget or a problem count, and
each dataset's model streams out as soon as its last pair is solved.
Every step is elementwise per problem, so each model is bit-equal to
solving its pairs one by one. A radial kernel's pair matrices are cut
from one Gram per dataset. The pairs share one store of support vectors,
each row held once with one weight column per pair, so prediction takes
one kernel matrix.
Models serialize to a line-oriented text format that round-trips
decision values exactly (17 significant digits).

Conventions used throughout: labels are +1/-1 on the binary level, a
decision value of exactly 0 counts as +1, and within a class pair (a, b)
the +1 side is a. Ties in the multiclass vote fall back to the largest
summed |decision value| among the tied classes, then to canonical class
order.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations, count, repeat
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, ParseError, ValidationError
from .features import Scaler, feature_names, sample_count
from .imu import (class_indices, loadtxt_or_none, read_lines, read_number,
                  write_file)

KERNEL_KINDS = ("linear", "polynomial", "radial", "sigmoid")

KKT_TOL = 1e-3      # solver stopping tolerance on the KKT gap
MIN_STEPS = 10_000  # floor of the default step budget, max(MIN_STEPS, 100n)


@dataclass(frozen=True)
class KernelConfig:
    """Kernel family and its shape parameters.

    Every kind but linear needs a gamma; linear ignores gamma and coef0,
    which still have to be finite.
    """
    kind: str = "radial"
    gamma: float | None = None
    coef0: float = 0.0
    degree: int = 3

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValidationError(f"unknown kernel kind {self.kind!r}")
        if self.gamma is None:
            if self.kind != "linear":
                raise ValidationError(f"a {self.kind} kernel needs a gamma")
        elif not np.isfinite(self.gamma):
            raise ValidationError("gamma must be finite")
        elif self.kind != "linear" and not self.gamma > 0:
            raise ValidationError("gamma must be positive")
        if not np.isfinite(self.coef0):
            raise ValidationError("coef0 must be finite")
        if self.degree < 1 or int(self.degree) != self.degree:
            raise ValidationError("degree must be a positive integer")
        object.__setattr__(self, "degree", int(self.degree))


def gram(cfg: KernelConfig, A, B) -> np.ndarray:
    """Kernel matrix between the rows of A and the rows of B."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[1] != B.shape[1]:
        raise ValidationError("dimension mismatch between kernel arguments")
    if cfg.kind == "linear":
        return A @ B.T
    if cfg.kind == "polynomial":
        return (cfg.gamma * (A @ B.T) + cfg.coef0) ** cfg.degree
    if cfg.kind == "sigmoid":
        return np.tanh(cfg.gamma * (A @ B.T) + cfg.coef0)
    if A.shape[0] == 0 or B.shape[0] == 0:
        return np.zeros((A.shape[0], B.shape[0]))
    # only the radial kernel loads scipy.spatial, so the commands that
    # train or apply no radial model run without it
    from scipy.spatial.distance import cdist, pdist, squareform
    if A is B:
        # each distance once: pdist runs cdist's kernel on the upper
        # triangle, and the squared difference is symmetric, so the
        # matrix is the same to the bit; scaled in place, as it is n^2
        D = squareform(pdist(A, "sqeuclidean"))
        D *= -cfg.gamma
        return np.exp(D, out=D)
    return np.exp(-cfg.gamma * cdist(A, B, "sqeuclidean"))


def check_cost(cost) -> None:
    """Reject a soft-margin cost, or an array of them, that is not
    positive and finite."""
    if not np.all((0.0 < cost) & (cost < np.inf)):
        raise ValidationError("cost must be positive and finite")


class Solution(tuple):
    """One problem's ``(alpha, bias)``, which unpacks as that pair, with
    the solver's ``steps`` (the multiplier-pair updates it made) and
    ``gap`` (its KKT gap at the step it left the stack, at most the
    tolerance) as attributes."""

    def __new__(cls, alpha, bias, steps, gap):
        solution = super().__new__(cls, (alpha, bias))
        solution.steps, solution.gap = steps, gap
        return solution


def smo_solve_stack(Ks, ys, costs, tol=KKT_TOL, max_iter=None):
    """Solve several dual QPs in lockstep; one ``Solution`` each.

    Each step moves one pair of multipliers per problem, picked by
    second-order working-set selection (Fan, Chen & Lin 2005, JMLR
    6:1889) from the gradient g = y - K(alpha y): i maximizes g over I_up,
    the points whose alpha y may grow, and j maximizes the gain b^2/a over
    I_low, those whose alpha y may shrink. Ties go to the lowest index, so
    a result depends on its own inputs alone. Curvature a <= 0 (an
    indefinite kernel) is floored at 1e-12. A problem closes once its gap
    max g(I_up) - min g(I_low) is at most ``tol``; one that is still open
    after its ``max_iter`` steps (default max(MIN_STEPS, 100n) for its own
    n, a floor as in LIBSVM) raises ConvergenceError.

    The problems are zero-padded to a common size n, and a padded row sits
    in neither I_up nor I_low, so it never wins an argmax. Every step runs
    the one-problem arithmetic elementwise, row by row of the stack, and
    the bias is settled per problem on its own unpadded Gram, contiguous
    as when solved alone, so each alpha and bias is bit-equal to solving
    that problem alone. A problem's multipliers, step count and gap are
    recorded at the step it closes; its rows leave the stack at the end of
    that step, all problems closing there at once, through one selection
    of the stacked solver state. ``Ks`` is read once, in order, into the
    padded stack, so it may form each matrix on demand and hold none of
    them. The labels must be +1/-1 and each Gram square over its labels'
    rows; the callers build them so.
    """
    cost = np.asarray(costs, dtype=np.float64)[:, None]
    check_cost(cost)
    sizes = [len(y) for y in ys]
    n = max(sizes)
    K = np.zeros((len(ys), n, n))
    y = np.zeros((len(ys), n))
    for p, (Kp, yp) in enumerate(zip(Ks, ys)):
        K[p, :len(yp), :len(yp)] = Kp
        y[p, :len(yp)] = yp
    budget = np.array([max(MIN_STEPS, 100 * m) if max_iter is None
                       else max_iter for m in sizes])
    # v = alpha y lives in the box [lo, hi] (lo is exactly hi - cost on a
    # real row), which is empty on padded rows; g = y - K v is the
    # gradient. The five (open problems, n) arrays are the rows of one
    # state array, so that dropping problems is one selection; the loop
    # keeps the rows of open problems, ids ``live``. It is filled in
    # place, as stacking five made arrays holds them twice at the peak.
    state = np.zeros((5,) + y.shape)
    v, hi, lo, g, diag = state
    np.copyto(hi, cost, where=y > 0.0)
    np.copyto(lo, -cost, where=y < 0.0)
    np.copyto(g, y)
    np.copyto(diag, np.einsum("pii->pi", K))
    final = np.zeros_like(y)
    steps, gaps = np.zeros(len(ys), dtype=np.int64), np.zeros(len(ys))
    # Gathers and scatters go through flat indices, which numpy's take
    # and put serve faster than (row, column) pairs: element (p, k) of a
    # C-ordered (open problems, n) array sits at at[p] + k, and row k of
    # open problem p's Gram at row_at[p] + k of K_rows. A row minimum is
    # taken as the value at its argmin, which is faster than min along
    # a short axis.
    K_rows = K.reshape(-1, n)
    live = np.arange(len(ys))
    at, row_at = live * n, live * n
    limit = budget.min()    # no open budget runs out before this step
    for step in count():
        up_g = np.where(v < hi, g, -np.inf)     # g over I_up
        low_g = np.where(v > lo, g, np.inf)     # g over I_low
        i = up_g.argmax(axis=1)
        g_i = up_g.take(at + i)
        gap = g_i - low_g.take(at + low_g.argmin(axis=1))
        if closing := not (open_ := gap > tol).all():
            shut = ~open_
            closed = live[shut]
            final[closed], steps[closed], gaps[closed] = (v[shut], step,
                                                          gap[shut])
            if not open_.any():
                break
        if step == limit and (due := open_ & (budget == step)).any():
            p = int(np.argmax(due))
            raise ConvergenceError(
                f"SMO did not converge within {step} steps "
                f"(n={sizes[live[p]]}, cost={costs[live[p]]}, "
                f"gap={gap[p]:.3g})")
        b = np.maximum(g_i[:, None] - low_g, 0.0)
        K_i = K_rows.take(row_at + i, axis=0)
        i += at                             # a flat index from here on
        # row i of the curvature diag_i + diag - 2 K, for this step only
        curvature = np.maximum(diag.take(i)[:, None] + diag - 2.0 * K_i,
                               1e-12)
        gain = b * b
        gain /= curvature
        j = gain.argmax(axis=1)
        K_i -= K_rows.take(row_at + j, axis=0)   # K_i - K_j from here on
        j += at                             # a flat index from here on
        # v_i grows and v_j shrinks by t, keeping sum(v) = 0; a capped
        # multiplier lands exactly on its bound. t is min(step, cap_i,
        # cap_j) by Python's rule: a later value wins only if smaller
        v_i, hi_i, lo_j = v.take(i), hi.take(i), lo.take(j)
        cap_i, cap_j = hi_i - v_i, v.take(j) - lo_j
        t = b.take(j) / curvature.take(j)
        t = np.where(cap_i < t, cap_i, t)
        t = np.where(cap_j < t, cap_j, t)
        v.put(i, np.where(t == cap_i, hi_i, v_i + t))
        v.put(j, np.where(t == cap_j, lo_j, v.take(j) - t))
        K_i *= t[:, None]
        g -= K_i
        if closing:
            # the closed problems' rows took this step too, which changes
            # nothing recorded and spares compacting the step's arrays;
            # compress, unlike a mask index, keeps each state row C-ordered
            state = state.compress(open_, axis=1)
            live, budget = live[open_], budget[open_]
            v, hi, lo, g, diag = state
            at, row_at = np.arange(len(live)) * n, live * n
            limit = budget.min()
    # the elementwise parts of settling the biases, for all problems at
    # once; padded entries are 0 and never unbound. alpha y takes the
    # place of v, which is read no more, so no array is added while the
    # padded Grams are held
    alpha = np.abs(final)
    weight = np.multiply(alpha, y, out=final)
    unbound = (alpha > 0.0) & (alpha < cost)
    return [Solution(alpha[p, :m], _settle_bias(
                np.ascontiguousarray(K[p, :m, :m]), ys[p], alpha[p, :m],
                weight[p, :m], unbound[p, :m], costs[p]), n_steps, gap)
            for p, (m, n_steps, gap) in enumerate(
                zip(sizes, steps.tolist(), gaps.tolist()))]


def _settle_bias(K, y, alpha, weight, unbound, cost) -> float:
    """The bias from final multipliers, given their ``weight`` alpha y and
    which are ``unbound``: unbound points pin it exactly, otherwise the
    feasible interval's midpoint is taken. This drops the drift the
    incremental updates accumulate."""
    target = y - K @ weight
    if len(pinned := target[unbound]):
        # np.mean's sum and its division by the count, without its
        # per-call bookkeeping
        return float(np.add.reduce(pinned)) / len(pinned)
    ends = []
    lo_mask = ((alpha == 0.0) & (y > 0.0)) | ((alpha == cost) & (y < 0.0))
    hi_mask = ((alpha == 0.0) & (y < 0.0)) | ((alpha == cost) & (y > 0.0))
    if lo_mask.any():
        ends.append(float(target[lo_mask].max()))
    if hi_mask.any():
        ends.append(float(target[hi_mask].min()))
    return sum(ends) / len(ends) if ends else 0.0


@dataclass(frozen=True)
class OvoSvmModel:
    """One-against-one ensemble over one shared set of support vectors.

    ``sv`` holds each distinct support vector once. Column p of ``coef``
    holds the dual weights alpha_i y_i of pair p, 0 where a row is not a
    support vector of that pair, and ``bias[p]`` is that pair's bias.
    Pairs run in ``combinations(classes, 2)`` order; pair (a, b) treats a
    as the +1 side. All pairs share one kernel and one cost. ``rqa`` holds
    an identifier's window geometry as ``(key, value)`` text pairs; it is
    empty for a recognizer.
    """
    classes: tuple[str, ...]
    cfg: KernelConfig
    cost: float
    sv: np.ndarray
    coef: np.ndarray
    bias: np.ndarray
    scaler: Scaler
    feature_names: tuple[str, ...]
    rqa: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        # one contiguous, read-only layout, so a loaded model multiplies
        # exactly as the trained one did
        for name in ("sv", "coef", "bias"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValidationError("duplicate feature names")
        d, n_pairs = len(self.feature_names), len(self.pairs)
        if self.sv.ndim != 2 or self.sv.shape[1] != d:
            raise ValidationError("support-vector width differs from registry")
        if (self.coef.shape != (len(self.sv), n_pairs)
                or self.bias.shape != (n_pairs,)):
            raise ValidationError("need one weight column and one bias per "
                                  "class pair, K(K-1)/2 in all")
        if len(self.scaler.mean) != d:
            raise ValidationError("scaler dimension differs from registry")

    @property
    def pairs(self) -> list[tuple[str, str]]:
        return list(combinations(self.classes, 2))

    def decision_matrix(self, X) -> np.ndarray:
        """(n, n_pairs) decision values f(x) = K(x, sv) @ coef + bias.

        Accepts one feature vector or a matrix of rows. A value of
        exactly 0 counts as a vote for the pair's +1 side.
        """
        Xs = self.scaler.transform(X)
        return gram(self.cfg, Xs, self.sv) @ self.coef + self.bias

    def predict_index(self, X) -> np.ndarray:
        """The position in ``classes`` of each row's winning class."""
        D = self.decision_matrix(X)
        return vote_ranking(*vote_tally(len(self.classes), D))[:, 0]

    def predict(self, X) -> np.ndarray:
        return np.asarray(self.classes)[self.predict_index(X)]


def vote_tally(n_classes: int, D):
    """Vote counts and per-class |decision| sums for a decision matrix.

    Column p of ``D`` is the p-th class pair (a, b) of
    ``np.triu_indices(n_classes, 1)``, which is ``combinations`` order;
    a non-negative value is a vote for a, any other for b. The margin sum
    for a class accumulates only over pairs that class won, in pair order.
    """
    n = D.shape[0]
    a, b = _pair_sides(n_classes)
    cell = (np.arange(n)[:, None] * n_classes
            + np.where(D >= 0.0, a, b)).ravel()
    size = n * n_classes
    votes = np.bincount(cell, minlength=size).reshape(n, n_classes)
    margins = np.bincount(cell, weights=np.abs(D).ravel(),
                          minlength=size).reshape(n, n_classes)
    return votes, margins


@cache
def _pair_sides(n_classes: int):
    """``np.triu_indices(n_classes, 1)``, read-only, made once per count."""
    a, b = np.triu_indices(n_classes, 1)
    a.flags.writeable = b.flags.writeable = False
    return a, b


def vote_ranking(votes, margins) -> np.ndarray:
    """Class indices per row of a ``vote_tally`` result, best first.

    Most votes ranks first; a tie goes to the larger margin sum, then
    (the sort is stable) to the earlier class in canonical order. Column
    0 is the predicted class.
    """
    return np.lexsort((-margins, -votes), axis=1)


# one lockstep SMO stack closes before its padded Gram matrices pass
# _STACK_BYTES or it holds _STACK_PROBLEMS problems; the count bounds the
# live arrays when problems are small, the bytes when they are large. A
# stack's arrays add to a process's peak memory, and on 30-row problems
# 96 keeps most of the per-step saving of larger stacks at less of it.
_STACK_BYTES = 8 << 20
_STACK_PROBLEMS = 96


def ovo_train(dataset, cfg: KernelConfig, cost: float,
              scaler: Scaler | None = None) -> OvoSvmModel:
    """Train the full pairwise ensemble on a labeled dataset.

    By default a scaler is fit on the given rows (training rows only by
    construction) and applied before solving. A given ``scaler`` means the
    rows are already scaled by it: ``dataset.X`` is trained as-is and the
    scaler is embedded for prediction time; this is how noise-augmented
    (already standardized) matrices are trained.
    """
    return next(ovo_train_many([(dataset, scaler)], cfg, cost))


def ovo_train_many(datasets, cfg: KernelConfig, cost: float):
    """``ovo_train`` on each ``(dataset, scaler)`` of an iterable; a
    generator of one model per dataset, in order.

    The class pairs of consecutive datasets share lockstep stacks of
    ``smo_solve_stack``. A stack closes when one more problem would take
    its padded Gram matrices past ``_STACK_BYTES`` or it already holds
    ``_STACK_PROBLEMS`` problems. A model is yielded as soon as its
    dataset's last pair is solved, and the next dataset is pulled only
    when the open stack needs more problems, so only the datasets that one
    stack spans are held at once.
    """
    waiting = deque()   # (build, pair count, fits) per dataset, in order
    stack = []          # (rows, y, Gram maker, fits of its dataset)
    n = 0               # the open stack's largest problem
    for dataset, scaler in datasets:
        build, n_pairs, problems = _pair_problems(dataset, cfg, cost, scaler)
        fits = []
        waiting.append((build, n_pairs, fits))
        for rows, y, pair_gram in problems:
            m = max(n, len(y))
            if stack and (len(stack) == _STACK_PROBLEMS
                          or (len(stack) + 1) * m * m * 8 > _STACK_BYTES):
                _solve(stack, cost)
                yield from _finished(waiting)
                stack, m = [], len(y)
            stack.append((rows, y, pair_gram, fits))
            n = m
    if stack:
        _solve(stack, cost)
    yield from _finished(waiting)


def _pair_problems(dataset, cfg, cost, scaler):
    """``(build, n_pairs, problems)`` of one dataset: ``problems`` lazily
    yields each of its ``n_pairs`` class pairs' ``(rows, y, pair_gram)`` in
    ``combinations`` order, where ``pair_gram()`` forms the pair's Gram
    matrix when its stack is solved, and ``build(fits)`` makes the model
    from their ``(rows, y, solution)``. The model keeps the scaled rows,
    not the dataset.

    A radial kernel takes each pair's Gram out of one Gram over all rows,
    bit-equal because each distance is computed on its own, when that Gram
    takes at most a quarter of ``_STACK_BYTES``: it lives until its last
    pair is solved, and a stack may span datasets, so larger datasets form
    each pair's Gram from its own rows. The other kernels always do, with
    one array as both arguments: numpy then forms X @ X.T as a symmetric
    product, whose rounding differs from any other product.
    """
    classes = dataset.classes
    if len(classes) < 2:
        raise ValidationError("need at least 2 classes")
    fitted = scaler if scaler is not None else Scaler.fit(dataset.X)
    Xs = dataset.X if scaler is not None else fitted.transform(dataset.X)
    if not np.all(np.isfinite(Xs)):
        raise ValidationError("non-finite features")
    codes = class_indices(classes, dataset.labels)
    whole = cfg.kind == "radial" and len(Xs) ** 2 * 8 <= _STACK_BYTES // 4
    G = gram(cfg, Xs, Xs) if whole else None
    # every pair's rows and labels at once: the pairs one after another,
    # each pair's rows ascending, pair p in [ends[p - 1], ends[p])
    a, b = _pair_sides(len(classes))
    in_pair = (codes == a[:, None]) | (codes == b[:, None])
    pair_of, all_rows = np.nonzero(in_pair)
    all_y = np.where(codes[all_rows] == a[pair_of], 1.0, -1.0)
    ends = np.cumsum(in_pair.sum(axis=1)).tolist()

    def problems():
        for start, end in zip([0] + ends, ends):
            rows, y = all_rows[start:end], all_y[start:end]
            if G is None:
                X = Xs[rows]
                yield rows, y, partial(gram, cfg, X, X)
            else:
                yield rows, y, partial(_submatrix, G, rows)
    build = partial(_shared_sv_model, tuple(classes),
                    tuple(dataset.feature_names), cfg, cost, fitted, Xs)
    return build, len(ends), problems()


def _submatrix(G, rows) -> np.ndarray:
    return G.take(rows, 0).take(rows, 1)


def _solve(stack, cost) -> None:
    """Solve one stack, forming each Gram as it is padded in; each
    problem's ``(rows, y, solution)`` joins the fits of its dataset, the
    ``Solution`` keeping the solver's step count and closing gap beside
    its alpha and bias."""
    solved = smo_solve_stack((pair_gram() for _, _, pair_gram, _ in stack),
                             [y for _, y, _, _ in stack],
                             [cost] * len(stack))
    for (rows, y, _, fits), solution in zip(stack, solved):
        fits.append((rows, y, solution))


def _finished(waiting):
    """The models of the leading datasets whose pairs are all solved."""
    while waiting and len(waiting[0][2]) == waiting[0][1]:
        build, _, fits = waiting.popleft()
        yield build(fits)


def _shared_sv_model(classes, feature_names, cfg, cost, scaler, Xs,
                     fits) -> OvoSvmModel:
    """Build one ensemble from its pairs' ``(rows, y, (alpha, bias))``.

    A row that is a support vector of several pairs is stored once, and
    equal rows merge with their weights added within each pair's column.
    Rows merge on their training index first, so the sort that merges
    equal values (and orders ``sv``) runs only over distinct rows. The
    pairs' rows, labels and multipliers are joined end to end, so each
    step is one numpy call for all pairs.
    """
    rows, y, alpha = (np.concatenate(part) for part in zip(
        *[(rows, y, alpha) for rows, y, (alpha, _) in fits]))
    column = np.repeat(np.arange(len(fits)), [len(y) for _, y, _ in fits])
    is_sv = alpha > 0.0
    index, first = np.unique(rows[is_sv], return_inverse=True)
    sv, row = _unique_rows(Xs[index])
    coef = np.zeros((len(sv), len(fits)))
    np.add.at(coef, (row.ravel()[first], column[is_sv]), (alpha * y)[is_sv])
    return OvoSvmModel(classes=classes, cfg=cfg, cost=cost, sv=sv, coef=coef,
                       bias=np.array([bias for _, _, (_, bias) in fits]),
                       scaler=scaler, feature_names=feature_names)


def _unique_rows(X):
    """``np.unique(X, axis=0, return_inverse=True)``. When the first column
    has no ties, it alone decides the rows' lexicographic order and no two
    rows are equal, so one argsort of it is enough."""
    order = np.argsort(X[:, 0])
    lead = X[order, 0]
    if np.any(lead[1:] == lead[:-1]):
        return np.unique(X, axis=0, return_inverse=True)
    row = np.empty_like(order)
    row[order] = np.arange(len(order))
    return X[order], row


def _fmt(values) -> str:
    """A value or 1-D values, 17 significant digits each, space-separated;
    formatted from Python floats, which is faster than numpy scalars."""
    return " ".join(map("{:.17g}".format,
                        np.ravel(np.asarray(values, np.float64)).tolist()))


def _check_token(kind: str, token: str) -> str:
    if not token or any(ch.isspace() for ch in token):
        raise ValidationError(f"{kind} {token!r} must be non-empty and "
                              "contain no whitespace")
    return token


def save_model(model: OvoSvmModel, path) -> None:
    """Write the ensemble to the GKMODEL v2 text format: the ``rqa`` pairs
    (if any) as a leading ``[rqa]`` section, one ``sv`` line per support
    vector, then per class pair one weight per ``sv`` line and the bias.

    Every value is written with 17 significant digits, so a loaded model's
    arrays are bit-equal to the saved one's; the rows of the arrays are
    formatted from the Python floats of their ``tolist``."""
    cfg = model.cfg
    lines = ["GKMODEL v2"]
    if model.rqa:
        lines.append("[rqa]")
        lines.extend(f"{_check_token('[rqa] key', k)} "
                     f"{_check_token('[rqa] value', v)}" for k, v in model.rqa)
    lines += ["[kernel]",
             f"kind {cfg.kind}",
             f"gamma {_fmt(cfg.gamma if cfg.gamma is not None else 0.0)}",
             f"coef0 {_fmt(cfg.coef0)}",
             f"degree {cfg.degree}",
             f"cost {_fmt(model.cost)}",
             "[scaler]",
             "mean " + _fmt(model.scaler.mean),
             "std " + _fmt(model.scaler.std),
             "[registry]"]
    lines.extend(_check_token("feature name", nm) for nm in model.feature_names)
    lines.append("[sv]")
    lines.extend("sv " + _fmt(row) for row in model.sv)
    for p, (a, b) in enumerate(model.pairs):
        _check_token("class name", a)
        _check_token("class name", b)
        lines.append(f"[pair {a} {b}]")
        lines.append("alpha_y " + _fmt(model.coef[:, p]))
        lines.append("bias " + _fmt(model.bias[p]))
    write_file(path, "\n".join(lines) + "\n")


def _number_line(path, section, line, prefix, width=None) -> np.ndarray:
    """The values of one ``prefix`` line of ``section``, as ``np.loadtxt``
    reads them. ParseError naming the section if the line lacks the
    prefix, holds a value outside the grammar, holds other than ``width``
    values (any count if None), or a value that is not finite."""
    if not (line.startswith(prefix + " ") or line == prefix):
        raise ParseError(f"{path}: expected a {prefix!r} line in {section}")
    text = line[len(prefix):]
    # loadtxt reads a line of no values as no line at all
    values = (loadtxt_or_none([text], dtype=np.float64, comments=None,
                              ndmin=1) if text.split() else np.empty(0))
    if values is None:
        raise ParseError(f"{path}: bad number in {section} section")
    if width is not None and len(values) != width:
        raise ParseError(f"{path}: wrong value count in {section} section")
    if not np.all(np.isfinite(values)):
        raise ParseError(f"{path}: non-finite value in {section} section")
    return values


def _number_block(path, sections, lines, prefix, width) -> np.ndarray:
    """The values of ``prefix`` lines as one (len(lines), width) array,
    converted by a single ``np.loadtxt`` over the text after each prefix.
    If that fails, ``_number_line`` checks the lines in order, with
    ``sections[i]`` naming line i's section, and raises for the first bad
    one."""
    head = prefix + " "
    if all(ln.startswith(head) for ln in lines):
        block = loadtxt_or_none([ln[len(head):] for ln in lines],
                                dtype=np.float64, comments=None, ndmin=2)
        if (block is not None and block.shape == (len(lines), width)
                and np.isfinite(block).all()):
            return block
    return np.array([_number_line(path, section, ln, prefix, width)
                     for section, ln in zip(sections, lines)]
                    ).reshape(len(lines), width)


def load_model(path) -> OvoSvmModel:
    """Parse a GKMODEL v2 file back into an ensemble.

    Lines end at ``"\n"``, ``"\r\n"`` or ``"\r"``, and every number is
    read as ``np.loadtxt`` reads it (README, "File formats"): the ``sv``
    lines by one ``np.loadtxt`` call, and so all ``alpha_y`` lines and all
    ``bias`` lines (see ``_number_block``). An error names the section of
    the first bad line. A ``cost`` that is not positive and finite is
    rejected, as no trainer takes it, and so is a ``[registry]`` whose
    sample names ask for a length ``features.check_samples`` refuses, or,
    in a recognizer (no ``[rqa]`` section, and a registry that names a
    segment feature), one that names a column ``featurize_segments`` does
    not produce.
    """
    path = Path(path)
    lines = read_lines(path)
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
                           gamma=read_number(fields["gamma"], float),
                           coef0=read_number(fields["coef0"], float),
                           degree=read_number(fields["degree"], int))
        cost = read_number(fields["cost"], float)
    except (KeyError, ValueError, OverflowError, ValidationError) as e:
        raise ParseError(f"{path}: bad [kernel] section: {e}") from None
    if len(kernel) != 5 or not 0.0 < cost < np.inf:
        raise ParseError(f"{path}: bad [kernel] section")

    if len(scaler) != 2:
        raise ParseError(f"{path}: [scaler] needs a mean and a std line")
    mean = _number_line(path, "[scaler]", scaler[0], "mean")
    std = _number_line(path, "[scaler]", scaler[1], "std", width=len(mean))
    if np.any(std <= 0.0):
        raise ParseError(f"{path}: scaler std must be positive")
    names = [ln.strip() for ln in names]
    if not names or len(names) != len(mean):
        raise ParseError(f"{path}: registry size differs from scaler width")
    try:
        produced = set(feature_names(sample_count(names)))
    except ValidationError as e:
        raise ParseError(f"{path}: bad [registry] section: {e}") from None
    # a recognizer (no [rqa]) picks its columns from the segment features
    # by name; an identifier's registry (rr, tra) names none of them, and
    # one saved without [rqa] is left to load_identifier's message
    if (not rqa and not produced.isdisjoint(names)
            and (unknown := [nm for nm in names if nm not in produced])):
        raise ParseError(f"{path}: bad [registry] section: segment "
                         f"featurization does not produce {unknown[0]!r}")
    sv = _number_block(path, repeat("[sv]"), rows, "sv", len(names))

    pair_title = re.compile(r"\[pair (\S+) (\S+)\]")
    titles = [title for title, _ in sections[4:]]
    bodies = [body for _, body in sections[4:]]
    for title, body in sections[4:]:
        if pair_title.fullmatch(title) is None or len(body) != 2:
            raise ParseError(f"{path}: expected a [pair] section with an "
                             f"alpha_y and a bias line, got {title!r}")
    coef = _number_block(path, titles, [body[0] for body in bodies],
                         "alpha_y", len(sv))
    bias = _number_block(path, titles, [body[1] for body in bodies],
                         "bias", 1)
    pairs = [pair_title.fullmatch(title).groups() for title in titles]
    classes = tuple(dict.fromkeys(c for pair in pairs for c in pair))
    if not pairs or pairs != list(combinations(classes, 2)):
        raise ParseError(f"{path}: [pair] sections must cover every class "
                         "pair once, in order")
    try:
        return OvoSvmModel(classes=classes, cfg=cfg, cost=cost, sv=sv,
                           coef=np.reshape(coef, (len(pairs), len(sv))).T,
                           bias=np.reshape(bias, len(pairs)),
                           scaler=Scaler(mean, std),
                           feature_names=tuple(names), rqa=rqa)
    except ValidationError as e:
        raise ParseError(f"{path}: inconsistent model: {e}") from None
