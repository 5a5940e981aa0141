"""Seeded sweeps of hard models and points z through solve_lambda, the
package's other entry points and solve_qve, and the regressions they found:
every draw gives an answer within its stop rule's bound or a typed error,
never a silent stall."""

import collections

import numpy as np
import pytest

from conftest import full_grid_support

from covspectra import (
    Column,
    Dense,
    Diagonal,
    DomainError,
    EnsembleModel,
    NonConvergenceError,
    RotatedFamily,
    ContourSpec,
    QveProblem,
    ScaledIdentity,
    SolverOptions,
    apply_Iz,
    continuation_solve,
    contraction_factor,
    density_grid,
    eigenvalue_count,
    lambda_derivative,
    r_tilde,
    random_orthogonal,
    solve_lambda,
    solve_qve,
    support_scan,
)
from covspectra import equivalent, fixedpoint
from covspectra.model import ModelError
from covspectra.semimetric import _ds

SEED = 0
OPTS = SolverOptions(max_iter=5000)


def hard_draw(rng: np.random.Generator) -> tuple[EnsembleModel, complex]:
    """A model of p in [1, 30) and n in [1, 50) whose columns take one of 1-3
    specs: Diagonal entries up to 1e3, the same with about half of them 0,
    sigma2 I with sigma2 log-uniform in [1e-3, 1e3], Dense A A^T / p, a
    rotated family (each column a rotation count in [0, 4)) or a zero
    column; 30% of the columns carry a mean of norm about 30 sqrt(p).  Then
    z = x + iy with x in [-1, 3] nu_hat and y log-uniform in [1e-9, 1]."""
    p, n = int(rng.integers(1, 30)), int(rng.integers(1, 50))
    specs = []
    for _ in range(int(rng.integers(1, 4))):
        kind = rng.integers(6)
        if kind == 0:
            specs.append(Diagonal(rng.uniform(0.0, 1e3, p)))
        elif kind == 1:
            specs.append(Diagonal(rng.uniform(0.0, 1e3, p) * (rng.random(p) < 0.5)))
        elif kind == 2:
            specs.append(ScaledIdentity(float(10.0 ** rng.uniform(-3, 3))))
        elif kind == 3:
            A = rng.standard_normal((p, p))
            specs.append(Dense(A @ A.T / p))
        elif kind == 4:
            base = rng.uniform(0.0, 10.0, p)
            specs.append((base, random_orthogonal(p, int(rng.integers(1 << 30)))))
        else:
            specs.append(Diagonal(np.zeros(p)))
    cols = []
    for _ in range(n):
        spec = specs[rng.integers(len(specs))]
        if isinstance(spec, tuple):
            spec = RotatedFamily(*spec, int(rng.integers(4)))
        mean = 30.0 * rng.standard_normal(p) if rng.random() < 0.3 else None
        cols.append(Column(spec, mean))
    model = EnsembleModel(p, n, cols, mean_norm_bound=np.inf)
    return model, complex(rng.uniform(-1, 3) * model.nu_hat(), 10.0 ** rng.uniform(-9, 0))


def map_move(model: EnsembleModel, z: complex, x: np.ndarray) -> tuple[float, float]:
    """How far one more map application moves the class values x in d_s, and
    the bound the stop rule gives it.  x is the map value whose d_s step fell
    below max(tol_ds, F), F = _FLOOR_ULPS eps max|x - z|/Im x the roundoff
    floor at x.  The map contracts in d_s, so one more application moves x
    by at most that step, plus its own rounding, which the floor bounds: the
    bound is 2 max(tol_ds, F).  The map is applied on class values, as the
    solver iterates it."""
    x = x[None]
    gx = fixedpoint._class_map(model, z, model._class_size / x)
    floor = fixedpoint._FLOOR_ULPS * fixedpoint._EPS * float((np.abs(x - z) / x.imag).max())
    return float(_ds(gx, x)), 2.0 * max(OPTS.tol_ds, floor)


def test_hard_input_sweep():
    # 150 draws, each an answer within its bound or a typed error; none is
    # dropped.  The draws reach every kind of kernel and the zero class: 75
    # have a dense class, 69 vectors and no dense class, 6 are diagonal, and
    # 47 have a zero class
    rng = np.random.default_rng(SEED)
    outcomes, kinds = collections.Counter(), collections.Counter()
    for i in range(150):
        model, z = hard_draw(rng)
        zero = model.class_traces_of(np.eye(model.p)[None])[0] == 0
        kinds.update(zero=int(zero.any()), dense=int(model._dense_rows.size > 0),
                     vectors=int(model._V.shape[1] > 0), diagonal=int(model.is_diagonal))
        try:
            res = solve_lambda(model, z, OPTS)
        except (DomainError, NonConvergenceError) as exc:
            outcomes[type(exc).__name__] += 1
            continue
        move, bound = map_move(model, z, res.class_values)
        assert move <= bound, f"draw {i}: moved {move:.3g} in d_s, bound {bound:.3g}"
        outcomes["answer"] += 1
    assert sum(outcomes.values()) == 150
    assert min(kinds[k] for k in ("zero", "dense", "vectors", "diagonal")) > 0


TYPED = (DomainError, NonConvergenceError, ModelError)


def _finite(value) -> bool:
    return bool(np.isfinite(value).all())


def _support_ok(est) -> bool:
    edges = np.ravel(est.intervals)
    return (_finite(edges) and bool(np.all(np.diff(edges) >= 0.0))
            and (edges.size == 0 or 0.0 <= edges[0] and edges[-1] <= est.upper_bound_x0))


def test_hard_inputs_through_the_other_entry_points():
    # the first 20 draws of the sweep through a density grid around the
    # draw's x, the support scan, an eigenvalue count, and the derivative and
    # resolvent at its z: each call answers within range or raises a typed
    # error.  At max_iter 5000 every support scan answers.  Draws 8, 14, 16
    # and 19 have no dense class and 2r >= p, so their resolvents take the
    # p x p LU: through the r x r Woodbury system, whose G = V^T D^-1 V is
    # rank-deficient or nearly so there, their d_s residuals stuck between
    # 5e-12 and 2e-11 at the scan's first node, x = 1e-12, and the scan raised
    # NonConvergenceError.  The scan skips the nodes past its bound on the
    # support: each answer is the one of the crossing rule on the full grid,
    # and each error the full grid's
    rng = np.random.default_rng(SEED)
    outcomes = collections.defaultdict(collections.Counter)
    for i in range(20):
        model, z = hard_draw(rng)
        nu = model.nu_hat()
        half = 0.5 * max(abs(z.real), nu, 1.0)

        def derivative_and_resolvent():
            lam = solve_lambda(model, z, OPTS).lam
            return lambda_derivative(model, z, lam), r_tilde(model, z, lam)

        def support_as_full_grid():
            try:
                est = support_scan(model, opts=OPTS)
            except TYPED as exc:
                with pytest.raises(type(exc)):
                    full_grid_support(model, opts=OPTS)
                raise
            assert est.intervals == full_grid_support(model, opts=OPTS)[1], f"draw {i}"
            return est

        calls = {
            "density_grid": (
                lambda: density_grid(model, z.real - half, z.real + half, 20,
                                     max(z.imag, 1e-6), OPTS),
                lambda g: _finite(g.density) and g.density.min() >= 0.0),
            "support_scan": (support_as_full_grid, _support_ok),
            "eigenvalue_count": (
                lambda: eigenvalue_count(model, ContourSpec(0.5 * nu, 2.0 * nu + 1.0, 0.3, 8),
                                         OPTS),
                _finite),
            "derivative_and_resolvent": (derivative_and_resolvent,
                                         lambda dr: _finite(dr[0]) and _finite(dr[1])),
        }
        for name, (call, check) in calls.items():
            try:
                value = call()
            except TYPED as exc:
                outcomes[name][type(exc).__name__] += 1
                continue
            assert check(value), f"draw {i}: {name} answered out of range"
            outcomes[name]["answer"] += 1
    for name, counts in outcomes.items():
        assert sum(counts.values()) == 20 and counts["answer"] >= 10, (name, counts)
    assert outcomes["support_scan"]["answer"] == 20


@pytest.mark.parametrize("seed", [SEED, 1])
def test_support_scan_sweep(seed):
    # the first 60 draws of the sweep through support_scan at max_iter 5000,
    # each an answer within range or a typed error.  All 60 answer.  On seed
    # 0, the 9 of them with no dense class and 2r >= p (8, 14, 16, 19, 32,
    # 34, 36, 39 and 44) stalled above their roundoff floor at the scan's
    # first node while their resolvents took the r x r Woodbury system.  On
    # seed 1, draw 11 stalled there while Anderson steps were taken whatever
    # the residual did (test_first_scan_node_converges_in_any_batch)
    rng = np.random.default_rng(seed)
    outcomes = collections.Counter()
    for i in range(60):
        model, _ = hard_draw(rng)
        try:
            est = support_scan(model, opts=OPTS)
        except TYPED as exc:
            outcomes[type(exc).__name__] += 1
            continue
        assert _support_ok(est), f"draw {i}"
        outcomes["answer"] += 1
    assert outcomes == {"answer": 60}


def test_first_scan_node_converges_in_any_batch():
    # seed 1's draw 11 (p = 18, n = 5, k = 5, r = 3 on 12 coordinate
    # classes: Woodbury).  Its scan's first node z = 1e-12 + 1e-3i, solved
    # cold with the first 1, 2, 4 and all 10 nodes of the scan's level 0 as
    # one batch, took 313, 83, 83 and 83 iterations.  While an Anderson step
    # was taken wherever it stayed in the domain, it took 98 alone, 6,239 in
    # a batch of 4, and did not converge in 20,000 in batches of 2 and 10:
    # the batch's shape changes the products' rounding, and the unguarded
    # steps wandered with it.  The bound 1,000 is 3x the largest count
    rng = np.random.default_rng(1)
    for _ in range(12):
        model, _ = hard_draw(rng)
    assert (model.p, model.n, model._class_size.size, model._V.shape[1]) == (18, 5, 5, 3)
    assert not model._lu
    x0, b = equivalent._scan_range(model)
    xs = np.linspace(1e-12, x0, 201)
    near = xs[xs <= b * (1.0 + 1e-9) + np.sqrt(1e-3 / (np.pi * 1e-3))]
    level0 = np.r_[near[:-1:8], near[-1]]  # every 8th and the last, as _solve_path
    assert near.size == 66 and level0.size == 10 and level0[0] == 1e-12
    for size in (1, 2, 4, 10):
        x = np.full((size, 5), np.nan, dtype=complex)
        _, its, *_ = fixedpoint._stage(model, level0[:size, None] + 1e-3j, x, OPTS)
        assert its[0] <= 1000, size


def test_continuation_path_stays_within_the_map_bound():
    # seed 3's draw 86 (p = 8, n = 42, k = 19, 12 dense classes) on the
    # 9-node path (0.5 .. 1.5) x + iy through its z = x + iy.  While an
    # Anderson step was taken wherever it stayed in the domain, node 7,
    # z = 1613 + 1.9e-6i, stopped under its floor and one more map
    # application moved it 1.61 times map_move's bound; now no node of the
    # first 150 draws of seeds 0-3 passes 0.99 of its bound
    rng = np.random.default_rng(3)
    for _ in range(87):
        model, z = hard_draw(rng)
    assert (model.p, model.n, model._class_size.size, model._dense_rows.size) == (8, 42, 19, 12)
    zs = np.linspace(0.5, 1.5, 9) * z.real + 1j * z.imag
    for i, res in enumerate(continuation_solve(model, zs, OPTS)):
        move, bound = map_move(model, zs[i], res.class_values)
        assert move <= bound, f"node {i}: moved {move / bound:.3g} of the bound"


def random_qve(rng: np.random.Generator) -> QveProblem:
    """N in [1, 60); S with entries 10^U(-6, 3) on a random sparsity pattern,
    symmetrised half the time; a in [-3, 3], or 0 (30% of the draws); z =
    x + iy with x in [-3, 3] sqrt(max row sum of S) and y log-uniform in
    [1e-9, 1]."""
    N = int(rng.integers(1, 60))
    S = 10.0 ** rng.uniform(-6, 3, (N, N)) * (rng.random((N, N)) < rng.random())
    if rng.random() < 0.5:
        S = (S + S.T) / 2.0
    a = np.zeros(N) if rng.random() < 0.3 else rng.uniform(-3, 3, N)
    x = rng.uniform(-3, 3) * np.sqrt(S.sum(axis=1).max())
    return QveProblem(complex(x, 10.0 ** rng.uniform(-9, 0)), a, S)


def test_hard_qve_sweep():
    # 200 random problems, each a solution in the upper half-plane or a typed
    # error; all 200 answered
    rng = np.random.default_rng(SEED)
    answered = 0
    for i in range(200):
        prob = random_qve(rng)
        try:
            m = solve_qve(prob, OPTS)
        except TYPED:
            continue
        assert _finite(m) and m.imag.min() > 0.0, f"problem {i}"
        answered += 1
    assert answered >= 100


def test_large_z_draw_stops_at_its_maps_rounding():
    # draw 10 of the sweep: p = 8, four diagonal classes, two of them with
    # means, at z = 2517 + 0.003i.  The map is z less a computed trace, so its
    # rounding is eps |x - z|, far below eps |x| here; a floor taken from
    # |x| stopped this draw at 60 times the bound, 4e-11 relative
    rng = np.random.default_rng(SEED)
    for _ in range(11):
        model, z = hard_draw(rng)
    assert (model.p, model._class_size.size, model._V.shape[1]) == (8, 4, 2)
    assert not model._dense_rows.size and abs(z) > 2500
    res = solve_lambda(model, z, OPTS)
    move, bound = map_move(model, z, res.class_values)
    assert move <= bound


@pytest.mark.parametrize("zero", [
    Diagonal(np.zeros(3)), Dense(np.zeros((3, 3))), RotatedFamily(np.zeros(3), np.eye(3)[::-1], 1),
], ids=["diagonal", "dense", "rotated"])
def test_zero_column_solves_in_few_iterations(zero):
    # [DERIVED] three identity columns and one zero column, n = 4, p = 3: the
    # zero class's value is z for any L, and the identity class's x solves
    # x = z - 3x / (4x - 3), i.e. 4x^2 - 4zx + 3z = 0.  The zero class sits
    # on the domain's boundary Im(x/z) = 0, where the guard refused every
    # accelerated step: the diagonal model took 19,580 iterations.  x = z is
    # the one boundary point the domain admits, so the map, the contraction
    # factor and a warm start all take the answer back
    z = 1.0 + 1e-3j
    m = EnsembleModel(3, 4, [Column(Diagonal(np.ones(3)))] * 3 + [Column(zero)])
    assert list(m.class_traces_of(np.eye(3)[None])[0] == 0) == [False, True]
    res = solve_lambda(m, z, OPTS)
    assert res.iterations <= 30
    roots = (z + np.array([1, -1]) * np.sqrt(z * z - 3 * z)) / 2
    want = roots[(roots.imag > 0) & ((roots / z).imag > 0)]
    assert res.class_values[1] == z
    np.testing.assert_allclose(res.class_values[:1], want, rtol=1e-12)
    again = apply_Iz(m, z, res.lam)
    assert _ds(again.values, res.lam.values) <= map_move(m, z, res.class_values)[1]
    assert 0.0 <= contraction_factor(m, z, res.lam, res.lam) < 1.0
    assert solve_lambda(m, z, OPTS, warm=res.lam).iterations <= 30
    density = density_grid(m, 0.01, 4.0, 50, y=1e-3).density
    assert np.isfinite(density).all() and density.min() >= 0.0


def _tiny_class(kind: str, moment: float) -> Column:
    """A column of second moment moment * e3 e3^T, as a Diagonal, a Dense or
    a mean vector."""
    e3 = np.array([0.0, 0.0, 1.0])
    if kind == "diagonal":
        return Column(Diagonal(moment * e3))
    if kind == "dense":
        return Column(Dense(moment * np.outer(e3, e3)))
    return Column(Diagonal(np.zeros(3)), np.sqrt(moment) * e3)


@pytest.mark.parametrize("z", [1 + 1e-3j, -0.5 + 1e-6j, 5 + 0.5j, 1e3 + 1e-8j])
@pytest.mark.parametrize("kind", ["diagonal", "dense", "vector"])
@pytest.mark.parametrize("moment", [1e-20, 1e-30])
def test_tiny_class_solves_in_few_iterations(moment, kind, z):
    # three identity columns and one of a tiny second moment: the tiny
    # class's map value rounds to exactly z, the domain's one boundary point
    # an entry reaches.  A guard that left out only the classes of zero
    # moment stalled here: the diagonal case at 1e-20 and z = 1 + 1e-3i took
    # 20,477 iterations
    m = EnsembleModel(3, 4, [Column(Diagonal(np.ones(3)))] * 3 + [_tiny_class(kind, moment)])
    res = solve_lambda(m, z, OPTS)
    assert res.iterations <= 30
    move, bound = map_move(m, z, res.class_values)
    assert move <= bound
