import tracemalloc

import numpy as np
import pytest

from conftest import (
    full_grid_support,
    mixture_model,
    mp_model,
    mp_stieltjes,
    random_columns,
    random_model,
    sigma_oracle,
)

import covspectra.empirical
import covspectra.equivalent
import covspectra.fixedpoint
import covspectra.model

from covspectra import (
    Column,
    ContourSpec,
    Diagonal,
    DomainError,
    EnsembleModel,
    RotatedFamily,
    ScaledIdentity,
    compare,
    continuation_solve,
    density_grid,
    eigenvalue_count,
    r_tilde,
    random_orthogonal,
    solve_lambda,
    stieltjes_g,
    support_scan,
)


def test_r_tilde_is_scaled_q_tilde(rng):
    # R = -Q/z, Q the inverse of the factor summed from the columns' Sigma_i
    cols = random_columns(5, 8, rng)
    m, sigmas = EnsembleModel(5, 8, cols), sigma_oracle(cols, 5)
    z = 1.0 + 0.7j
    lam = solve_lambda(m, z).lam
    Q = np.linalg.inv(np.eye(5) - sum(s / li for s, li in zip(sigmas, lam.values)) / 8)
    np.testing.assert_allclose(r_tilde(m, z, lam), -Q / z, atol=1e-12)


@pytest.mark.parametrize("z, match", [
    (0.0, "upper half-plane"), (np.nan, "finite"), (np.inf, "finite"),
    (1.0 - 1.0j, "upper half-plane"),
], ids=["zero", "nan", "inf", "lower"])
def test_r_tilde_and_g_reject_z_off_the_upper_half_plane(z, match):
    # the checks of solve_lambda, where a zero z gave inf/nan or a
    # ZeroDivisionError and a nan z a nan answer
    m = mp_model(3, 6)
    lam = solve_lambda(m, 1.0 + 1.0j).lam
    for f in (r_tilde, stieltjes_g):
        with pytest.raises(DomainError, match=match):
            f(m, z, lam)


def test_g_equals_normalized_trace_of_r(rng):
    m = random_model(6, 9, rng)
    z = -0.5 + 0.9j
    lam = solve_lambda(m, z).lam
    g = stieltjes_g(m, z, lam)
    tr_form = np.trace(r_tilde(m, z, lam)) / m.p
    assert abs(g - tr_form) < 1e-9


def test_g_matches_mp_closed_form():
    p, n = 120, 240
    m = mp_model(p, n)
    for x in np.linspace(-2.0, 5.0, 9):
        z = complex(x, 0.7)
        g = stieltjes_g(m, z, solve_lambda(m, z).lam)
        assert abs(g - mp_stieltjes(z, p / n)) < 1e-9


def test_g_stieltjes_axioms(rng):
    m = random_model(8, 12, rng)
    for _ in range(20):
        z = complex(rng.uniform(-4, 4), rng.uniform(0.05, 3.0))
        g = stieltjes_g(m, z, solve_lambda(m, z).lam)
        assert g.imag > 0.0
        assert (z * g).imag > -1e-12  # measure supported on [0, inf)


def test_g_total_mass_is_one(rng):
    m = random_model(8, 12, rng)
    y = 1e4
    g = stieltjes_g(m, 1j * y, solve_lambda(m, 1j * y).lam)
    assert abs(-1j * y * g - 1.0) < 1e-3


def test_density_grid_mp_shape():
    # [DERIVED] MP density with c = 1/2 is supported on [(1-sqrt(.5))^2, (1+sqrt(.5))^2]
    p, n = 100, 200
    m = mp_model(p, n)
    grid = density_grid(m, 0.01, 4.0, 120, 1e-3)
    assert grid.dirac_at_zero == 0.0
    lo, hi = (1 - np.sqrt(0.5)) ** 2, (1 + np.sqrt(0.5)) ** 2
    inside = (grid.xs > lo + 0.15) & (grid.xs < hi - 0.15)
    outside = (grid.xs < lo - 0.15) | (grid.xs > hi + 0.15)
    assert np.all(grid.density[inside] > 0.01)
    assert np.all(grid.density[outside] < 0.01)
    # and the closed form matches pointwise
    mp_dens = np.sqrt(np.maximum((hi - grid.xs) * (grid.xs - lo), 0.0)) / (
        2 * np.pi * 0.5 * grid.xs
    )
    assert np.max(np.abs(grid.density - mp_dens)[inside]) < 0.02


def test_density_integrates_to_one():
    m = mp_model(80, 160)
    grid = density_grid(m, 1e-4, 4.0, 400, 1e-4)
    mass = np.trapezoid(grid.density, grid.xs) + grid.dirac_at_zero
    assert mass == pytest.approx(1.0, abs=0.02)


def test_dirac_at_zero_when_p_exceeds_n():
    m = mp_model(40, 20)
    grid = density_grid(m, 0.1, 10.0, 30, 1e-2)
    assert grid.dirac_at_zero == pytest.approx(0.5)


def test_density_grid_validates_input():
    m = mp_model(2, 2)
    with pytest.raises(ValueError):
        density_grid(m, 2.0, 1.0, 10, 1e-3)
    with pytest.raises(ValueError):
        density_grid(m, 0.0, 1.0, 1, 1e-3)
    with pytest.raises(ValueError):
        density_grid(m, 0.0, 1.0, 10, 0.0)


def test_density_csv_roundtrip(tmp_path):
    m = mp_model(10, 20)
    grid = density_grid(m, 0.1, 3.0, 16, 1e-2)
    path = tmp_path / "density.csv"
    grid.write_csv(str(path))
    text = path.read_text().splitlines()
    assert text[0].startswith("#")
    assert "dirac_at_zero" in text[0]
    assert text[1] == "x,density"
    data = np.loadtxt(str(path), delimiter=",", skiprows=2)
    np.testing.assert_allclose(data[:, 0], grid.xs, rtol=1e-15)
    np.testing.assert_allclose(data[:, 1], grid.density, rtol=1e-15)


def scan_solving(model, monkeypatch, **kwargs):
    """support_scan(model, **kwargs) and how many of its grid's nodes it
    solved: the size of its first path, the grid's."""
    sizes = []
    path_g = covspectra.equivalent._path_g

    def recorded(model, zs, opts):
        sizes.append(np.size(zs))
        return path_g(model, zs, opts)

    with monkeypatch.context() as mp:
        mp.setattr(covspectra.equivalent, "_path_g", recorded)
        est = support_scan(model, **kwargs)
    return est, sizes[0]


def assert_skipped_nodes_below_threshold(model, est, solved, y=1e-3, opts=None):
    """The grid nodes the scan skipped, every node past the solved ones,
    solved by density_grid with the rest of the full 201-point grid: none
    passes the threshold, and the crossing rule on the full grid gives the
    scan's intervals."""
    grid, intervals = full_grid_support(model, y, est.threshold, opts)
    assert solved < grid.xs.size
    assert grid.density[solved:].max() <= est.threshold
    assert est.intervals == intervals


def test_support_scan_mp(monkeypatch):
    p, n = 60, 120
    m = mp_model(p, n)
    est, solved = scan_solving(m, monkeypatch, y=1e-3, threshold=1e-2)
    lo, hi = (1 - np.sqrt(0.5)) ** 2, (1 + np.sqrt(0.5)) ** 2
    assert len(est.intervals) == 1
    a, b = est.intervals[0]
    assert a == pytest.approx(lo, abs=0.15)
    assert b == pytest.approx(hi, abs=0.15)
    assert est.upper_bound_x0 >= hi
    # the bound on the support is the Marchenko-Pastur right edge
    x0, b = covspectra.equivalent._scan_range(m)
    assert x0 == est.upper_bound_x0 and abs(b - hi) <= 1e-12
    assert_skipped_nodes_below_threshold(m, est, solved)


def test_support_scan_detects_two_bulks(monkeypatch):
    # shared diagonal covariance with eigenvalues {8 (x20), 1 (x60)} at
    # p = 80, n = 160 has a spectral gap between roughly 2.3 and 4
    p, n = 80, 160
    d = np.array([8.0] * 20 + [1.0] * 60)
    m = EnsembleModel(p, n, [Column(Diagonal(d))] * n)
    est, solved = scan_solving(m, monkeypatch, y=1e-3, threshold=1e-2)
    assert len(est.intervals) == 2
    (a1, b1), (a2, b2) = est.intervals
    assert b1 < 2.6
    assert 3.5 < a2 < 4.2
    assert 13.0 < b2 < 15.0
    assert_skipped_nodes_below_threshold(m, est, solved)


@pytest.mark.parametrize("kind, y", [("figure1 left", 1e-3), ("figure1 left", 0.5),
                                     ("woodbury", 1e-3)])
def test_support_scan_skips_only_nodes_below_threshold(kind, y, monkeypatch):
    # at the default threshold: the Figure-1-left model, and a mixture of
    # mean vectors, whose kernels take the Woodbury path.  At y = 0.5 the
    # smoothed density passes the threshold up to x = 18.1, past the bound
    # b = 16.0 on the support and within the scan's distance margin of 12.6
    m = {
        "figure1 left": lambda: EnsembleModel(
            80, 160, [Column(Diagonal(np.r_[[8.0] * 20, [1.0] * 60]))] * 160),
        "woodbury": lambda: mixture_model(20, 40, 4),
    }[kind]()
    assert_skipped_nodes_below_threshold(m, *scan_solving(m, monkeypatch, y=y), y=y)


def test_support_scan_figure1_right_finishes(monkeypatch):
    # the paper's Figure-1-right model: at default options some grid nodes
    # stall at the roundoff floor of d_s, just above tol_ds = 1e-12, and
    # used to run 50,000 iterations before failing; the scan takes about
    # 1,500 node evaluations
    evals = []
    class_traces = EnsembleModel.class_traces

    def counted(self, W):
        evals.append(len(W))
        return class_traces(self, W)

    monkeypatch.setattr(covspectra.model.EnsembleModel, "class_traces", counted)
    base = np.r_[[8.0] * 20, [1.0] * 60]
    P = random_orthogonal(80, seed=314)
    m = EnsembleModel(80, 160, [Column(RotatedFamily(base, P, i)) for i in range(160)])
    est, solved = scan_solving(m, monkeypatch)
    assert sum(evals) < 5_000
    # one bulk; the edges of the density at y = 1e-3 on a 2001-point grid
    # solved at tol_ds = 1e-11, within the scan's stride plus that grid's
    (lo, hi), = est.intervals
    tol = 0.5 * est.upper_bound_x0 / 200 + 0.011
    assert abs(lo - 0.1512) < tol and abs(hi - 8.2567) < tol
    assert_skipped_nodes_below_threshold(m, est, solved)


@pytest.mark.parametrize("density, at_mids, want", [
    # a run from the grid's first point, its midpoint above the threshold
    ([2, 2, 0, 0, 0, 0], {1.5: 2}, [(0.0, 1.5)]),
    # a run to the last point, its midpoint below: halfway to the inside point
    ([0, 0, 0, 0, 2, 2], {3.5: 0}, [(3.75, 5.0)]),
    # a one-point interior run, one midpoint above and one below
    ([0, 0, 2, 0, 0, 0], {1.5: 2, 2.5: 0}, [(1.5, 2.25)]),
    # two runs one point apart
    ([0, 2, 0, 2, 0, 0], {0.5: 0, 1.5: 2, 2.5: 2, 3.5: 0}, [(0.75, 1.5), (2.5, 3.25)]),
    ([0] * 6, {}, []),
    ([2] * 6, {}, [(0.0, 5.0)]),
], ids=["first point", "last point", "one point", "two runs", "none above", "all above"])
def test_support_scan_edges_from_crossings(density, at_mids, want, monkeypatch):
    # threshold 1 on hand-made densities at the positions t = 0, ..., 5 of
    # the scan's grid: its points 0, ..., 4 read density[0..4] and every
    # later point density[5], so t = 5 stands for the grid's last point.
    # The densities at the midpoints of the crossings are hand-made too, each
    # solved once.  At this model's scale the whole grid lies within the
    # bound on the support, so every grid point is solved
    model = EnsembleModel(4, 8, [Column(ScaledIdentity(0.005))] * 8)
    pos, solved = {}, []

    def path_g(model, zs, opts):
        zs = np.ravel(zs)
        assert np.all(zs.imag == 1e-3)
        if not pos:  # the grid: the points the edge rule can name, by position
            xs = zs.real
            assert xs.size == 201
            pos[xs[-1]] = 5.0
            for i in range(5):
                mid = 0.5 * (xs[i] + xs[i + 1])
                pos.update({xs[i]: i, mid: i + 0.5,
                            0.5 * (mid + xs[i]): i + 0.25, 0.5 * (mid + xs[i + 1]): i + 0.75})
            return 1j * np.pi * np.array(density, float)[np.minimum(np.arange(201), 5)]
        solved.extend(pos[x] for x in zs.real)
        return np.array([1j * np.pi * at_mids[pos[x]] for x in zs.real])

    monkeypatch.setattr(covspectra.equivalent, "_path_g", path_g)
    est = support_scan(model, y=1e-3, threshold=1.0)
    assert [(pos[lo], pos[hi]) for lo, hi in est.intervals] == want
    assert sorted(solved) == sorted(at_mids)


@pytest.mark.parametrize("kind", ["diagonal", "woodbury", "dense"])
def test_grids_read_g_from_class_values(kind, rng, monkeypatch):
    # density_grid, support_scan's midpoints and compare's probes build no
    # per-node result: g comes from the path's class values, and matches
    # stieltjes_g node by node on continuation_solve's results
    model = {
        "diagonal": lambda: EnsembleModel(
            8, 16, [Column(Diagonal(np.r_[[4.0] * 2, [1.0] * 6]))] * 16),
        "woodbury": lambda: mixture_model(10, 20, 2),
        "dense": lambda: random_model(6, 10, rng),
    }[kind]()
    path_g = covspectra.equivalent._path_g
    calls = {}

    def spy(caller):
        def recorded(model, zs, opts):
            g = path_g(model, zs, opts)
            calls.setdefault(caller, []).append((np.ravel(zs), g))
            return g
        return recorded

    with monkeypatch.context() as mp:
        mp.setattr(covspectra.fixedpoint, "_result",
                   lambda *a: pytest.fail("a per-node result was built"))
        mp.setattr(covspectra.equivalent, "_path_g", spy("equivalent"))
        mp.setattr(covspectra.empirical, "_path_g", spy("empirical"))
        density_grid(model, 0.01, 6.0, 40, y=1e-2)
        support_scan(model)
        compare(model, trials=2, seed=3)
    # the grid, the scan's grid and midpoints and compare's grid; the probes
    assert len(calls["equivalent"]) == 4 and len(calls["empirical"]) == 1
    for zs, g in calls["equivalent"] + calls["empirical"]:
        want = np.array([stieltjes_g(model, z, r.lam)
                         for z, r in zip(zs, continuation_solve(model, zs))])
        assert np.abs(g - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_diagonal_model_forms_nothing_p_by_p():
    # the first support_scan (nu_hat included) and an eigenvalue_count at
    # p = 4000: a model with no dense class and 2r < p forms arrays of
    # O(k p + m k) entries, k = 4 classes and m <= 201 nodes, besides the
    # kernels' batches within _CHAIN_BYTES.  16 complex arrays of each size
    # bound it, 8.5 MB, where one p x p float64 array is 128 MB
    p, n, k, m = 4000, 8000, 4, 201
    rng = np.random.default_rng(5)
    cols = [Column(Diagonal(rng.choice([0.5, 1.0, 2.0, 4.0], p))) for _ in range(k)]
    model = EnsembleModel(p, n, cols * (n // k))
    bound = covspectra.model._CHAIN_BYTES + 16 * 16 * (k * p + m * k)
    assert bound * 10 < 8 * p * p
    tracemalloc.start()
    try:
        support_scan(model)
        eigenvalue_count(model, ContourSpec(1.0, 10.0, 0.5, 32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
