"""Soft-margin kernel SVM trained by sequential minimal optimization.

Binary models are solved two Lagrange multipliers at a time, each pair
picked by deterministic second-order working-set selection (WSS2), so a
trained model depends on its data and settings alone. Multiclass problems
train one binary model per unordered class pair and combine them by
voting. All pairs (of one dataset or of several) are solved as one
zero-padded stack that steps in lockstep, which pays numpy's per-call
cost once per step instead of once per pair; every step is elementwise
per problem, so each model is bit-equal to solving its pairs one by one.
The pairs share one store of support vectors, each row held once
with one weight column per pair, so prediction takes one kernel matrix.
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
from dataclasses import dataclass
from itertools import combinations, count
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ConvergenceError, ParseError, ValidationError
from .features import FeatureRegistry, Scaler
from .imu import read_text, write_file

KERNEL_KINDS = ("linear", "polynomial", "radial", "sigmoid")

KKT_TOL = 1e-3      # solver stopping tolerance on the KKT gap


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


# tuned hyperparameter presets: (kernel, cost)
PRESETS = {
    "identification": (KernelConfig(kind="polynomial", gamma=0.95,
                                    coef0=2.0, degree=3), 3.0),
    "recognition": (KernelConfig(kind="radial", gamma=0.005), 1.0),
}


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
    return np.exp(-cfg.gamma * cdist(A, B, "sqeuclidean"))


def dual_objective(K: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> float:
    """Dual objective W(alpha) = sum(alpha) - 1/2 (alpha y)' K (alpha y)."""
    v = alpha * y
    return float(alpha.sum() - 0.5 * (v @ K @ v))


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


def smo_solve(K, y, cost, tol=KKT_TOL, max_iter=None):
    """Solve the dual QP on a precomputed Gram matrix.

    Returns ``(alpha, bias)`` for labels ``y`` of +1/-1. This is
    ``smo_solve_stack`` on a stack of one: the lockstep loop that
    ``ovo_train`` runs over all class pairs at once, which documents the
    steps and why a problem's result is bit-equal in any stack. ``max_iter``
    (default 100n) budgets the steps, past which a ConvergenceError is
    raised instead of returning a half-optimized model.
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if K.shape != (len(y), len(y)):
        raise ValidationError("Gram matrix shape does not match labels")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValidationError("labels must be +1 or -1")
    return smo_solve_stack([K], [y], [cost], tol, max_iter)[0]


def smo_solve_stack(Ks, ys, costs, tol=KKT_TOL, max_iter=None):
    """Solve several dual QPs in lockstep; one ``(alpha, bias)`` each.

    Each step moves one pair of multipliers per problem, picked by
    second-order working-set selection (Fan, Chen & Lin 2005, JMLR
    6:1889) from the gradient g = y - K(alpha y): i maximizes g over I_up,
    the points whose alpha y may grow, and j maximizes the gain b^2/a over
    I_low, those whose alpha y may shrink. Ties go to the lowest index, so
    a result depends on its own inputs alone. Curvature a <= 0 (an
    indefinite kernel) is floored at 1e-12. A problem leaves the stack
    once its gap max g(I_up) - min g(I_low) is at most ``tol``; one that
    is still open after its ``max_iter`` steps (default 100n for its own
    n) raises ConvergenceError.

    The problems are zero-padded to a common size n, and a padded row sits
    in neither I_up nor I_low, so it never wins an argmax. Every step runs
    the one-problem arithmetic elementwise, row by row of the stack, and
    the bias is settled per problem on its own unpadded Gram, so each
    alpha and bias is bit-equal to solving that problem alone.
    """
    cost = np.asarray(costs, dtype=np.float64)[:, None]
    if not np.all((0.0 < cost) & (cost < np.inf)):
        raise ValidationError("cost must be positive and finite")
    sizes = [len(y) for y in ys]
    n = max(sizes)
    K = np.zeros((len(Ks), n, n))
    y = np.zeros((len(Ks), n))
    for p, (Kp, yp) in enumerate(zip(Ks, ys)):
        K[p, :len(yp), :len(yp)] = Kp
        y[p, :len(yp)] = yp
    budget = np.array([100 * m if max_iter is None else max_iter
                       for m in sizes])
    # v = alpha y lives in the box [lo, hi] (lo is exactly hi - cost on a
    # real row), which is empty on padded rows; g = y - K v is the
    # gradient. The loop keeps the rows of open problems, ids ``live``.
    v = np.zeros_like(y)
    hi = np.where(y > 0.0, cost, 0.0)
    lo = np.where(y < 0.0, -cost, 0.0)
    g = y.copy()
    diag = np.einsum("pii->pi", K)
    final = np.zeros_like(y)
    live = np.arange(len(Ks))
    for step in count():
        up_g = np.where(v < hi, g, -np.inf)     # g over I_up
        low_g = np.where(v > lo, g, np.inf)     # g over I_low
        i = up_g.argmax(axis=1)
        r = np.arange(len(live))
        gap = up_g[r, i] - low_g.min(axis=1)
        if not np.all(open_ := gap > tol):
            final[live[~open_]] = v[~open_]
            live, v, hi, lo, g, diag, budget, i, up_g, low_g, gap = (
                a[open_] for a in (live, v, hi, lo, g, diag, budget, i,
                                   up_g, low_g, gap))
            if not len(live):
                break
            r = np.arange(len(live))
        if np.any(budget == step):
            p = int(np.argmax(budget == step))
            raise ConvergenceError(
                f"SMO did not converge within {step} steps "
                f"(n={sizes[live[p]]}, cost={costs[live[p]]}, "
                f"gap={gap[p]:.3g})")
        b = np.maximum(up_g[r, i][:, None] - low_g, 0.0)
        K_i = K[live, i]
        # row i of the curvature diag_i + diag - 2 K, for this step only
        curvature = np.maximum(diag[r, i][:, None] + diag - 2.0 * K_i, 1e-12)
        gain = b * b
        gain /= curvature
        j = gain.argmax(axis=1)
        # v_i grows and v_j shrinks by t, keeping sum(v) = 0; a capped
        # multiplier lands exactly on its bound. t is min(step, cap_i,
        # cap_j) by Python's rule: a later value wins only if smaller
        v_i, hi_i, lo_j = v[r, i], hi[r, i], lo[r, j]
        cap_i, cap_j = hi_i - v_i, v[r, j] - lo_j
        t = b[r, j] / curvature[r, j]
        t = np.where(cap_i < t, cap_i, t)
        t = np.where(cap_j < t, cap_j, t)
        v[r, i] = np.where(t == cap_i, hi_i, v_i + t)
        v[r, j] = np.where(t == cap_j, lo_j, v[r, j] - t)
        g -= t[:, None] * (K_i - K[live, j])
    alphas = [np.abs(final[p, :m]) for p, m in enumerate(sizes)]
    return [(a, _settle_bias(Kp, yp, a, c))
            for a, Kp, yp, c in zip(alphas, Ks, ys, costs)]


def _settle_bias(K, y, alpha, cost) -> float:
    """The bias from final multipliers: unbound points pin it exactly,
    otherwise the feasible interval's midpoint is taken. This drops the
    drift the incremental updates accumulate."""
    target = y - K @ (alpha * y)
    unbound = (alpha > 0.0) & (alpha < cost)
    if unbound.any():
        return float(target[unbound].mean())
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
    registry: FeatureRegistry
    rqa: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        # one contiguous, read-only layout, so a loaded model multiplies
        # exactly as the trained one did
        for name in ("sv", "coef", "bias"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        d, n_pairs = len(self.registry), len(self.pairs)
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

    def predict(self, X) -> list[str]:
        D = self.decision_matrix(X)
        ranking = vote_ranking(*vote_tally(self.classes, self.pairs, D))
        return [self.classes[i] for i in ranking[:, 0]]


def vote_tally(classes, pairs, D):
    """Vote counts and per-class |decision| sums for a decision matrix.

    For pair column (a, b), a non-negative value is a vote for a. The
    margin sum for a class accumulates only over pairs that class won.
    """
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


def vote_ranking(votes, margins) -> np.ndarray:
    """Class indices per row of a ``vote_tally`` result, best first.

    Most votes ranks first; a tie goes to the larger margin sum, then
    (the sort is stable) to the earlier class in canonical order. Column
    0 is the predicted class.
    """
    return np.lexsort((-margins, -votes), axis=1)


# bytes of padded Gram matrices one lockstep SMO stack may hold; a longer
# list of problems is solved in consecutive stacks under this budget
_STACK_BYTES = 8 << 20


def ovo_train(dataset, cfg: KernelConfig, cost: float,
              scaler: Scaler | None = None) -> OvoSvmModel:
    """Train the full pairwise ensemble on a labeled dataset.

    By default a scaler is fit on the given rows (training rows only by
    construction) and applied before solving. A given ``scaler`` means the
    rows are already scaled by it: ``dataset.X`` is trained as-is and the
    scaler is embedded for prediction time; this is how noise-augmented
    (already standardized) matrices are trained.
    """
    return ovo_train_many([dataset], cfg, cost, scaler)[0]


def ovo_train_many(datasets, cfg: KernelConfig, cost: float,
                   scaler: Scaler | None = None) -> list[OvoSvmModel]:
    """``ovo_train`` on each dataset, the class pairs of all of them solved
    together by ``smo_solve_stack``; one model per dataset. Consecutive
    pairs share a stack while their padded Gram matrices fit in
    ``_STACK_BYTES``."""
    setups = []
    for dataset in datasets:
        if len(dataset.classes) < 2:
            raise ValidationError("need at least 2 classes")
        fitted = scaler if scaler is not None else Scaler.fit(dataset.X)
        Xs = dataset.X if scaler is not None else fitted.transform(dataset.X)
        if not np.all(np.isfinite(Xs)):
            raise ValidationError("non-finite features")
        labels = np.asarray(dataset.labels)
        pairs = [(rows, np.where(labels[rows] == a, 1.0, -1.0))
                 for a, b in combinations(dataset.classes, 2)
                 for rows in [np.flatnonzero((labels == a) | (labels == b))]]
        setups.append((dataset, fitted, Xs, pairs))
    solved, Ks, ys = [], [], []
    for _, _, Xs, pairs in setups:
        for rows, y in pairs:
            n = max(len(y), *map(len, ys)) if ys else len(y)
            if ys and (len(ys) + 1) * n * n * 8 > _STACK_BYTES:
                solved += smo_solve_stack(Ks, ys, [cost] * len(ys))
                Ks, ys = [], []
            X = Xs[rows]
            # one array as both arguments: numpy then forms X @ X.T as a
            # symmetric product, whose rounding differs from X @ copy.T
            Ks.append(gram(cfg, X, X))
            ys.append(y)
    solved = iter(solved + smo_solve_stack(Ks, ys, [cost] * len(ys)))
    return [_shared_sv_model(dataset, cfg, cost, fitted, Xs,
                             [(rows, y, *next(solved)) for rows, y in pairs])
            for dataset, fitted, Xs, pairs in setups]


def _shared_sv_model(dataset, cfg, cost, scaler, Xs, fits) -> OvoSvmModel:
    """Build one ensemble from its pairs' ``(rows, y, alpha, bias)``.

    A row that is a support vector of several pairs is stored once, and
    equal rows merge with their weights added within each pair's column.
    Rows merge on their training index first, so the sort that merges
    equal values (and orders ``sv``) runs only over distinct rows.
    """
    sv_of = [rows[alpha > 0.0] for rows, _, alpha, _ in fits]
    index, first = np.unique(np.concatenate(sv_of), return_inverse=True)
    sv, row = np.unique(Xs[index], axis=0, return_inverse=True)
    column = np.repeat(np.arange(len(fits)), [len(s) for s in sv_of])
    coef = np.zeros((len(sv), len(fits)))
    np.add.at(coef, (row.ravel()[first], column),
              np.concatenate([(alpha * y)[alpha > 0.0]
                              for _, y, alpha, _ in fits]))
    return OvoSvmModel(classes=tuple(dataset.classes), cfg=cfg, cost=cost,
                       sv=sv, coef=coef,
                       bias=np.array([bias for _, _, _, bias in fits]),
                       scaler=scaler,
                       registry=FeatureRegistry(tuple(dataset.feature_names)))


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _check_token(kind: str, token: str) -> str:
    if not token or any(ch.isspace() for ch in token):
        raise ValidationError(f"{kind} {token!r} must be non-empty and "
                              "contain no whitespace")
    return token


def save_model(model: OvoSvmModel, path) -> None:
    """Write the ensemble to the GKMODEL v2 text format: the ``rqa`` pairs
    (if any) as a leading ``[rqa]`` section, one ``sv`` line per support
    vector, then per class pair one weight per ``sv`` line and the bias."""
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
             "mean " + " ".join(_fmt(v) for v in model.scaler.mean),
             "std " + " ".join(_fmt(v) for v in model.scaler.std),
             "[registry]"]
    lines.extend(_check_token("feature name", nm) for nm in model.registry.names)
    lines.append("[sv]")
    lines.extend("sv " + " ".join(_fmt(v) for v in row) for row in model.sv)
    for p, (a, b) in enumerate(model.pairs):
        _check_token("class name", a)
        _check_token("class name", b)
        lines.append(f"[pair {a} {b}]")
        lines.append("alpha_y " + " ".join(_fmt(v) for v in model.coef[:, p]))
        lines.append("bias " + _fmt(model.bias[p]))
    write_file(path, "\n".join(lines) + "\n")


def _floats(path, section, line, prefix, expect=None):
    if not (line.startswith(prefix + " ") or line == prefix):
        raise ParseError(f"{path}: expected a {prefix!r} line in {section}")
    try:
        out = np.array([float(v) for v in line[len(prefix):].split()])
    except ValueError:
        raise ParseError(f"{path}: bad number in {section} section") from None
    if expect is not None and len(out) != expect:
        raise ParseError(f"{path}: wrong value count in {section} section")
    if not np.all(np.isfinite(out)):
        raise ParseError(f"{path}: non-finite value in {section} section")
    return out


def load_model(path) -> OvoSvmModel:
    """Parse a GKMODEL v2 file back into an ensemble."""
    path = Path(path)
    lines = read_text(path).splitlines()
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
        cfg = KernelConfig(kind=fields["kind"], gamma=float(fields["gamma"]),
                           coef0=float(fields["coef0"]),
                           degree=int(fields["degree"]))
        cost = float(fields["cost"])
    except (KeyError, ValueError, ValidationError) as e:
        raise ParseError(f"{path}: bad [kernel] section: {e}") from None
    if len(kernel) != 5 or not np.isfinite(cost):
        raise ParseError(f"{path}: bad [kernel] section")

    if len(scaler) != 2:
        raise ParseError(f"{path}: [scaler] needs a mean and a std line")
    mean = _floats(path, "[scaler]", scaler[0], "mean")
    std = _floats(path, "[scaler]", scaler[1], "std", expect=len(mean))
    if np.any(std <= 0.0):
        raise ParseError(f"{path}: scaler std must be positive")
    names = [ln.strip() for ln in names]
    if not names or len(names) != len(mean):
        raise ParseError(f"{path}: registry size differs from scaler width")
    sv = np.array([_floats(path, "[sv]", ln, "sv", expect=len(names))
                   for ln in rows]).reshape(len(rows), len(names))

    pairs, coef, bias = [], [], []
    for title, body in sections[4:]:
        m = re.fullmatch(r"\[pair (\S+) (\S+)\]", title)
        if m is None or len(body) != 2:
            raise ParseError(f"{path}: expected a [pair] section with an "
                             f"alpha_y and a bias line, got {title!r}")
        pairs.append(m.groups())
        coef.append(_floats(path, title, body[0], "alpha_y", expect=len(sv)))
        bias.append(_floats(path, title, body[1], "bias", expect=1)[0])
    classes = tuple(dict.fromkeys(c for pair in pairs for c in pair))
    if not pairs or pairs != list(combinations(classes, 2)):
        raise ParseError(f"{path}: [pair] sections must cover every class "
                         "pair once, in order")
    try:
        return OvoSvmModel(classes=classes, cfg=cfg, cost=cost, sv=sv,
                           coef=np.reshape(coef, (len(pairs), len(sv))).T,
                           bias=np.array(bias), scaler=Scaler(mean, std),
                           registry=FeatureRegistry(tuple(names)), rqa=rqa)
    except ValidationError as e:
        raise ParseError(f"{path}: inconsistent model: {e}") from None
