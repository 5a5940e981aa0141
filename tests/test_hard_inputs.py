"""A seeded sweep of hard models and points z through solve_lambda, and the
regressions it found: every draw gives an answer within its stop rule's
bound or a typed error, never a silent stall."""

import collections

import numpy as np
import pytest

from covspectra import (
    Column,
    Dense,
    Diagonal,
    DomainError,
    EnsembleModel,
    NonConvergenceError,
    RotatedFamily,
    ScaledIdentity,
    SolverOptions,
    apply_Iz,
    contraction_factor,
    density_grid,
    random_orthogonal,
    solve_lambda,
)
from covspectra import fixedpoint
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
