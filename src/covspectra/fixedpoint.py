"""
Fixed-point machinery for the deterministic-equivalent diagonal.

The map takes a diagonal L (with Im L > 0 and Im(L/z) > 0) to
``z - diag((1/n) tr(Sigma_i Q(L)))`` with
``Q(L) = (I_p - (1/n) sum_j Sigma_j / L_j)^{-1}``.  It is a contraction for
the semi-metric d_s, which gives existence and uniqueness of the fixed point
and justifies the Picard iteration used here.  Plain iteration slows down
drastically near the real axis, so an accelerated step is layered on top,
under one rule: a row takes it where it is in the domain and its d_s
residual fell, and otherwise its Picard step, which contracts (Kelley,
Iterative Methods for Linear and Nonlinear Equations, SIAM 1995).  On a
diagonal model of at most _NEWTON_CLASSES classes the step is Newton's on
the class values, with the Jacobian I - Psi from one product.  Elsewhere it
is Anderson's (Walker & Ni, SIAM J. Numer. Anal. 2011), whose coefficients
solve normal equations on a Gram matrix that rolls with the history, with a
ridge so rank-deficient histories stay solvable (Scieur, d'Aspremont &
Bach, NeurIPS 2016).  Either takes one small stacked solve per iteration.

``_contract`` is the one iteration loop of the package.  It iterates the rows
of an (m, d) array, m independent contractions side by side, each with its
own stop rule and guarded accelerated step; a row stops at tol_ds or
at its roundoff floor, whichever is larger.  ``qve.solve_qve`` runs it on the
quadratic vector equation, a d_s contraction of the same kind, with Anderson
steps.  Column i enters the map only through Sigma_i, so its value is
constant on column classes for any L, and the fixed point is too:
``solve_lambda`` (one row) and ``continuation_solve`` (one row per node of a
path) iterate the k class values through one batched evaluation,
``EnsembleModel.class_traces`` (``class_pair_traces`` under Newton steps).
Every map, resolvent and Psi goes through the model's class kernels, which
take the class sums of the weights 1/L_i and batch them within the model's
memory budget; ``lambda_derivative`` solves its k x k system on class values.
A cold row starts from one map application at z*ones, or on a model whose
resolvent takes the p x p LU at the fixed point of the model's mean field, the
one-class diagonal model of the average second moment's eigenvalues, solved
by Newton steps at O(p) each.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .model import EnsembleModel
from .semimetric import UpperDiagonal, _domain_values, _ds, _in_domain, _upper_z

__all__ = [
    "SolverOptions",
    "FixedPointResult",
    "NonConvergenceError",
    "apply_Iz",
    "contraction_factor",
    "solve_lambda",
    "continuation_solve",
    "psi_matrix",
    "lambda_derivative",
]

_ANDERSON_WINDOW = 5  # Anderson mixes this many latest differences of iterates
_RIDGE = 1e-13  # the Anderson solve's ridge, relative to max diag of the Gram matrix
# a row stops once its d_s step is below this many ulps of max|x - anchor|/Im x,
# the roundoff floor of d_s, even where that is above tol_ds: only the map's
# computed term x - anchor rounds, the anchor (z, or z + a for the QVE) is exact
_FLOOR_ULPS = 16
_EPS = np.finfo(np.float64).eps
# a warm node starts from the polynomial in z through this many solved
# nodes around it, two on each side where there are: cubic
_PREDICTOR_POINTS = 4
# a diagonal model of at most this many classes takes Newton steps on its
# class values, and Anderson steps above it.  A 100-node density grid at
# y = 1e-3 on seeded diagonal models (n = 160; 2 cores, one BLAS thread)
# took a third to a half fewer row iterations under Newton at every k.  It
# took less time for k <= 4 at p = 80 and 800 (p = 80, k = 4: 16 against
# 28 ms), about the same at p = 4000, k = 4 (45-75 ms either way on a noisy
# host), and more for k = 16 from p = 800 and for k = 40 at every p: the
# pair product grows as k^2 p per node
_NEWTON_CLASSES = 4


class NonConvergenceError(RuntimeError):
    """Picard iteration exhausted max_iter without reaching tolerance, or
    produced a non-finite residual."""

    def __init__(self, iterations: int, last_residual: float, index: int | None = None):
        self.iterations = iterations
        self.last_residual = last_residual
        self.index = index
        where = "" if index is None else f" at path index {index}"
        super().__init__(
            f"no convergence after {iterations} iterations{where} "
            f"(last residual {last_residual:.3e})"
        )


@dataclass(frozen=True)
class SolverOptions:
    tol_ds: float = 1e-12
    max_iter: int = 50_000
    # "anderson", the accelerated mode (Newton on few diagonal classes,
    # Anderson elsewhere; see _contract), or "none" for Picard steps only
    acceleration: str = "anderson"

    def __post_init__(self) -> None:
        if not 0.0 < self.tol_ds < np.inf:
            raise ValueError("tol_ds must be positive and finite")
        if not (isinstance(self.max_iter, (int, np.integer)) and self.max_iter >= 1):
            raise ValueError("max_iter must be an integer >= 1")
        if self.acceleration not in ("anderson", "none"):
            raise ValueError("acceleration must be 'anderson' or 'none'")


@dataclass(frozen=True)
class FixedPointResult:
    """A solved node: the k class values of Lambda and the model's
    column_class, which expands them to the n-long ``lam`` on first read."""

    class_values: NDArray[np.complex128]
    column_class: NDArray[np.intp]
    iterations: int
    residual_ds: float
    contraction_estimate: float  # the ratio of the last two d_s residuals
    phi: float

    @functools.cached_property
    def lam(self) -> UpperDiagonal:
        return UpperDiagonal(self.class_values[self.column_class])


def _class_sums(model: EnsembleModel, L: UpperDiagonal, z: complex | None = None) -> NDArray:
    """The class sums of the weights 1/L_i, as one row (1, k); a DomainError
    unless L has n entries and, given z, lies in the solver domain at z."""
    return model._class_weights(1.0 / _domain_values(L, model.n, z))[None]


def _class_map(model: EnsembleModel, z: NDArray | complex, Wc: NDArray) -> NDArray:
    """The map at the class sums Wc (m, k) of the weights 1/L_i, row by row:
    z - tr(Sigma_c Q)/n for each class c."""
    return z - model.class_traces(Wc) / model.n


def apply_Iz(model: EnsembleModel, z: complex, L: UpperDiagonal) -> UpperDiagonal:
    """One application of the fixed-point map; stays in the solver domain."""
    z = _upper_z(z)
    return UpperDiagonal(_class_map(model, z, _class_sums(model, L, z))[0, model.column_class])


def contraction_factor(
    model: EnsembleModel, z: complex, L: UpperDiagonal, Lp: UpperDiagonal
) -> float:
    """sqrt((1 - phi(z, L)) (1 - phi(z, L'))) with phi = Im z / max Im(map(L))."""
    z = _upper_z(z)
    pL, pLp = (z.imag / float(_class_map(model, z, _class_sums(model, D, z)).imag.max())
               for D in (L, Lp))
    return float(np.sqrt(max(1.0 - pL, 0.0) * max(1.0 - pLp, 0.0)))


def _anderson_coefficients(gram: NDArray, rhs: NDArray) -> NDArray:
    """gamma (m, h, 1) from (G + mu I) gamma = rhs row by row, G = dF^H dF,
    rhs = dF^H f, mu = _RIDGE max diag G + tiny (so G = 0 gives gamma = 0)."""
    A = gram.copy()  # in C order, so diag is a view of it
    diag = A.reshape(len(A), -1)[:, :: A.shape[1] + 1]
    diag += _RIDGE * diag.real.max(axis=1, keepdims=True) + np.finfo(float).tiny
    return np.linalg.solve(A, rhs)


def _contract(
    step: Callable[[NDArray, NDArray], NDArray],
    x0: NDArray,
    opts: SolverOptions,
    in_domain: Callable[[NDArray, NDArray], NDArray],
    labels: NDArray | None = None,
    newton: bool = False,
    anchor: NDArray | complex = 0.0,
) -> tuple[NDArray, NDArray, NDArray, NDArray]:
    """Iterate every row of x <- step(x) from the rows of x0 (m, d) until
    consecutive iterates are closer in d_s than opts.tol_ds or than the row's
    roundoff floor _FLOOR_ULPS * eps * max|x - anchor|/Im x, the anchor being
    the exact part of each row's map, (m, 1) or (m, d); with a per-row
    accelerated step unless opts.acceleration is "none".

    An iteration forms at most one candidate step for its rows, and one rule
    judges it: a row takes the candidate only where it is in the domain and
    the row's d_s residual fell below its previous one, and otherwise its
    Picard step gx, which contracts (Kelley 1995).  With newton, step(x,
    rows) returns (gx, Psi), Psi (m, d, d) the derivative of the map at x,
    and the candidate is Newton's on x = step(x): x + (I - Psi)^-1 (gx - x),
    from one stacked d x d solve for all rows (none if I - Psi is singular).
    Otherwise, from the second iteration on, it is Anderson's (Walker & Ni
    2011): gx - dG gamma, gamma minimising |f - dF gamma| over the latest
    _ANDERSON_WINDOW differences dF of steps and dG of map values, kept in
    rings with the Gram matrices dF^H dF (one new column per iteration).
    All rows take gamma from one stacked h x h solve of the normal
    equations, ridged (Scieur, d'Aspremont & Bach 2016) because once d < h
    every history is rank-deficient and the solve singular.

    step(x, rows) and in_domain(x, rows) get the rows still iterating and
    their indices into x0; in_domain answers per row.  All rows start
    together, so they share one history depth; a converged row leaves.
    Returns per row (x, iterations, residual, ratio of the last two
    residuals).  Raises NonConvergenceError after max_iter steps, or at once
    on a non-finite residual, naming the lowest failing row's label."""
    m, d = x0.shape
    out = np.empty_like(x0)
    iterations = np.empty(m, dtype=np.intp)
    residuals = np.empty(m)
    ratios = np.empty(m)
    active = np.arange(m)
    # the rings of dG and of conj(dF), and the Gram matrices dF^H dF
    w = _ANDERSON_WINDOW if opts.acceleration == "anderson" and not newton else 0
    dg, dfc = np.zeros((2, m, w, d), dtype=np.complex128)
    gram = np.zeros((m, w, w), dtype=np.complex128)
    g_prev = f_prev = x0
    anchor = np.zeros((m, 1)) + anchor

    def failure(k: int, rows: NDArray, residual: NDArray) -> NonConvergenceError:
        index = None if labels is None else int(labels[active[rows[0]]])
        return NonConvergenceError(k, float(residual[rows[0]]), index)

    x = x0
    residual = np.full(m, np.inf)
    for k in range(1, opts.max_iter + 1):
        gx, psi = step(x, active) if newton else (step(x, active), None)
        f = gx - x
        prev, residual = residual, _ds(gx, x, axis=1)
        if not np.isfinite(residual).all():
            raise failure(k, np.flatnonzero(~np.isfinite(residual)), residual)
        floor = _FLOOR_ULPS * _EPS * (np.abs(gx - anchor) / gx.imag).max(axis=1)
        done = residual < np.maximum(opts.tol_ds, floor)
        if done.any():
            rows = active[done]
            out[rows] = gx[done]
            iterations[rows] = k
            residuals[rows] = residual[done]
            ratios[rows] = residual[done] / prev[done] if k > 1 else 1.0
            if done.all():
                return out, iterations, residuals, ratios
            keep = ~done
            active, x, gx, f, residual, prev, anchor = (
                a[keep] for a in (active, x, gx, f, residual, prev, anchor))
            psi = psi if psi is None else psi[keep]
            dg, dfc, gram, g_prev, f_prev = (a[keep] for a in (dg, dfc, gram, g_prev, f_prev))

        candidate = None
        if newton:
            A = -psi
            A.reshape(len(A), -1)[:, :: d + 1] += 1.0
            try:
                candidate = x + np.linalg.solve(A, f[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:  # a singular I - Psi: Picard steps
                pass
        elif w and k > 1:
            # slot s takes the newest differences; the first h are written
            s, h = (k - 2) % w, min(k - 1, w)
            df = f - f_prev
            dg[:, s], dfc[:, s] = gx - g_prev, df.conj()
            # the new Gram column dF^H df and the right side dF^H f, one product
            prod = dfc[:, :h] @ np.concatenate([df[:, :, None], f[:, :, None]], axis=2)
            gram[:, :h, s], gram[:, s, :h] = prod[:, :, 0], prod[:, :, 0].conj()
            gamma = _anderson_coefficients(gram[:, :h, :h], prod[:, :, 1:])
            candidate = gx - (gamma.transpose(0, 2, 1) @ dg[:, :h])[:, 0]
        g_prev, f_prev, x = gx, f, gx
        if candidate is not None:
            take = (residual < prev) & in_domain(candidate, active)
            x = np.where(take[:, None], candidate, gx)

    raise failure(opts.max_iter, np.arange(active.size), residual)


def solve_lambda(
    model: EnsembleModel,
    z: complex,
    opts: SolverOptions | None = None,
    warm: UpperDiagonal | None = None,
) -> FixedPointResult:
    """Solve the fixed-point equation at z (Im z > 0).

    Starts from one application of the map, which lands strictly inside the
    domain, at the boundary point z*ones (on a model of the p x p LU layout, at
    its mean field's fixed point: _mean_field_values), or from a warm start.
    Stops when consecutive iterates are closer than tol_ds in the d_s
    semi-metric, or than their roundoff floor.
    """
    z = _upper_z(z)
    opts = opts or SolverOptions()

    if warm is not None:
        # the domain is convex, so each class's average stays in it
        x = (model._class_weights(_domain_values(warm, model.n, z)) / model._class_size)[None]
    else:
        x = np.full((1, model._class_size.size), np.nan, dtype=np.complex128)
    x, k, residual, contraction = (a[0] for a in _stage(model, np.array([[z]]), x, opts))
    return _result(model, z, x, k, residual, contraction)


def _result(model: EnsembleModel, z: complex, x: NDArray, k: int, residual: float,
            contraction: float) -> FixedPointResult:
    return FixedPointResult(
        class_values=x,
        column_class=model.column_class,
        iterations=int(k),
        residual_ds=float(residual),
        contraction_estimate=min(float(contraction), 1.0 - 1e-16),
        phi=z.imag / float(x.imag.max()),
    )


def continuation_solve(
    model: EnsembleModel,
    zs: Sequence[complex],
    opts: SolverOptions | None = None,
) -> list[FixedPointResult]:
    """Solve along an ordered z-path, warm-starting each point from an
    interpolant through solved points around it.

    The path is solved coarse to fine.  Level 0 solves every s-th node and
    the last one from cold starts (one map application at z*ones or, on the
    p x p LU layout, at the mean field's fixed point), s the power of two at or
    above (m - 1) / b: b = ceil(sqrt(m)) balances cold starts against
    levels, capped at one batch.  Each later level halves s and solves the
    nodes halfway between solved ones.  Such a node starts from the
    Lagrange polynomial in z through the 4 solved nodes around it,
    two on each side where there are (weights from the actual z's, which
    handles corners and uneven steps), its imaginary parts floored at Im z.
    Where that start leaves the domain, the nearest solved node's solution so
    floored replaces it; where that leaves the domain too, a cold start.  A
    level is one batched ``_contract``, in batches within the model's memory
    budget.  Only the start changes with the prediction: the fixed point is
    unique, so the answers agree to the tolerance.  The unknowns are the k
    class values of Lambda (equal within a class), which ``_solve_path``
    returns and the grids read; a result expands them to n when its ``lam``
    is first read.  A NonConvergenceError's index is the path index of the
    failing node (the lowest one, if several nodes of a batch fail)."""
    zs, lam, stats = _solve_path(model, zs, opts)
    return [_result(model, z, row, *st) for z, row, st in zip(zs, lam, stats)]


def _solve_path(model: EnsembleModel, zs: Sequence[complex], opts: SolverOptions | None
                ) -> tuple[NDArray, NDArray, NDArray]:
    """continuation_solve on class values: the checked path zs (m,), the
    class values (m, k) of its nodes' Lambda and their statistics (m, 3),
    iterations, d_s residual and ratio of the last two residuals."""
    zs = np.array([_upper_z(z) for z in np.ravel(zs)], dtype=np.complex128)
    if zs.size == 0:
        raise ValueError("empty z path")
    opts = opts or SolverOptions()
    m, k = zs.size, model._class_size.size
    lam = np.empty((m, k), dtype=np.complex128)
    stats = np.empty((m, 3))  # iterations, residual, ratio
    batch = model._rows_within_budget()
    # level 0: every s-th node and the last, s the least power of two at or
    # above (m - 1) / min(ceil(sqrt(m)), batch); then the odd multiples of
    # s / 2, s / 4, ..., 1 below the last node, each halfway between solved ones
    s = 1 << max(0, math.ceil((m - 1) / min(math.isqrt(m - 1) + 1, batch)) - 1).bit_length()
    levels = [np.r_[0:m - 1:s, m - 1]]
    while s > 1:
        s //= 2
        levels.append(np.arange(s, m - 1, 2 * s))
    solved = np.zeros(m, dtype=bool)
    for idx in levels:
        known = np.flatnonzero(solved)
        for rows in np.split(idx, range(batch, idx.size, batch)):
            x = _starts(zs, lam, known, rows)
            lam[rows], *info = _stage(model, zs[rows, None], x, opts, labels=rows)
            stats[rows] = np.column_stack(info)
        solved[idx] = True
    return zs, lam, stats


def _starts(zs: NDArray, lam: NDArray, known: NDArray, idx: NDArray) -> NDArray:
    """Starts (m, k) for the nodes idx of the path zs from the solutions lam
    at the sorted solved nodes known (none: NaN, which _stage starts cold):
    the interpolant through the _PREDICTOR_POINTS solved nodes around each
    node, else its nearest solved node, lifted at Im z."""
    z = zs[idx, None]
    if not known.size:
        return np.full((idx.size, lam.shape[1]), np.nan, dtype=np.complex128)
    pos = np.searchsorted(known, idx)  # known[pos - 1] < idx < known[pos]
    q = min(_PREDICTOR_POINTS, known.size)
    lo = np.clip(pos - q // 2, 0, known.size - q)
    around = known[lo[:, None] + np.arange(q)]
    x = _lift(_extrapolate(zs[around], lam[around], z), z)
    out = ~_in_domain(x, z, axis=1)
    left, right = known[pos - 1], known[pos]
    near = np.where(idx - left <= right - idx, left, right)
    x[out] = _lift(lam[near[out]], z[out])
    return x


def _lift(x: NDArray, z: NDArray) -> NDArray:
    """The rows of x (m, k) with imaginary parts floored at Im z (m, 1)."""
    return x.real + 1j * np.maximum(x.imag, z.imag)


def _extrapolate(zp: NDArray, xp: NDArray, z: NDArray) -> NDArray:
    """Row by row, the Lagrange polynomial through the nodes zp (m, q) with
    values xp (m, q, k), evaluated at z (m, 1); coincident nodes give NaN,
    which the domain test rejects."""
    off = ~np.eye(zp.shape[1], dtype=bool)
    with np.errstate(all="ignore"):
        ratio = (z[:, None] - zp[:, None, :]) / (zp[:, :, None] - zp[:, None, :])
        x = np.einsum("rj,rjk->rk", np.where(off, ratio, 1.0).prod(axis=2), xp)
    return np.where(np.isfinite(x), x, np.nan)


def _stage(model: EnsembleModel, z: NDArray, x: NDArray, opts: SolverOptions,
           labels: NDArray | None = None) -> tuple[NDArray, ...]:
    """Solve the map on class values at each z[row] (m, 1) from the starts x
    (m, k) in one batched _contract; a start outside the domain (NaN: none)
    is replaced by one map application at _mean_field_values, a cold start
    strictly inside it.  A diagonal model of at most _NEWTON_CLASSES classes
    gives _contract the map's derivative, so its accelerated steps are Newton's."""
    size = model._class_size

    def step(v: NDArray, r: NDArray) -> NDArray:
        return _class_map(model, z[r], size / v)

    def newton_step(v: NDArray, r: NDArray) -> tuple[NDArray, NDArray]:
        t, pair = model.class_pair_traces(size / v)
        return z[r] - t / model.n, _class_psi(model, v, pair)

    cold = ~_in_domain(x, z, axis=1)
    if cold.any():
        start = _mean_field_values(model, z[cold], opts)
        x[cold] = step(np.repeat(start, x.shape[1], axis=1), cold)
    newton = (opts.acceleration == "anderson" and model.is_diagonal
              and size.size <= _NEWTON_CLASSES)
    return _contract(newton_step if newton else step, x, opts,
                     lambda v, r: _in_domain(v, z[r], axis=1), labels=labels,
                     newton=newton, anchor=z)


def _mean_field_values(model: EnsembleModel, z: NDArray, opts: SolverOptions) -> NDArray:
    """Where the cold rows at z (m, 1) take their first map application, as
    (m, 1): where the model's resolvent takes the p x p LU (model._lu) the
    fixed point of its mean field (EnsembleModel._mean_field), and z, the
    boundary point, elsewhere or where that solve does not converge.  The
    mean field is one diagonal class, so it takes Newton steps whatever
    opts.acceleration says: only the start depends on them.  On the Woodbury
    path it would cost a p x p eigensolve next to r x r inverses."""
    if not model._lu:
        return z
    try:
        return _stage(model._mean_field, z, np.full_like(z, np.nan),
                      SolverOptions(opts.tol_ds, opts.max_iter))[0]
    except NonConvergenceError:
        return z


def _class_psi(model: EnsembleModel, x: NDArray, pair: NDArray) -> NDArray:
    """Psi on the class values x (m, k) from the class_pair_traces pair
    (m, k, k) at their class sums: entry (c, c') of each row is
    n_c' tr(Sigma_c Q Sigma_c' Q) / (n^2 x_c'^2), the derivative of the class
    map's entry c in x_c'."""
    return pair / (model.n * model.n * x * x)[:, None, :] * model._class_size


def psi_matrix(
    model: EnsembleModel, D: UpperDiagonal, Dp: UpperDiagonal
) -> NDArray[np.complex128]:
    """Stability matrix: entry (i, j) is
    (1/n^2) tr(Sigma_i Q(D) Sigma_j Q(D')) / (D_j D'_j).

    This is the transfer matrix of the fixed-point map: at a solved point,
    d(lambda)/dz = (I - Psi)^{-1} ones and ||Psi|| < 1."""
    n, cc = model.n, model.column_class
    pair = model.class_pair_traces(_class_sums(model, D), _class_sums(model, Dp))[1][0]
    return pair[np.ix_(cc, cc)] / (n * n * D.values * Dp.values)


def lambda_derivative(
    model: EnsembleModel, z: complex, lam: UpperDiagonal
) -> NDArray[np.complex128]:
    """d(lambda)/dz at a converged fixed point: solves (I - Psi) x = ones.
    Lambda is constant on column classes, and so is x: it comes from the
    k x k system of Psi on the class values n_c / W_c, W_c the class sums of
    1/lambda_i, expanded through column_class."""
    _upper_z(z)
    Wc = _class_sums(model, lam)
    psi = _class_psi(model, model._class_size / Wc, model.class_pair_traces(Wc)[1])[0]
    A = np.eye(len(psi), dtype=np.complex128) - psi
    try:
        y = np.linalg.solve(A, np.ones(len(psi), dtype=np.complex128))
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "I - Psi is singular; input is not a converged fixed point"
        ) from exc
    return y[model.column_class]
