import numpy as np
import pytest

from conftest import mixture_model, mp_model, random_model

from covspectra import (
    Column,
    ContourSpec,
    Diagonal,
    EnsembleModel,
    FunctionalSpec,
    SupportEstimate,
    compare,
    contour,
    contour_solves,
    eigenvalue_count,
    empirical,
    equivalent,
    fixedpoint,
    project_functional,
    project_functionals,
    r_tilde,
    write_projection_csv,
)


def test_contour_spec_validation():
    with pytest.raises(ValueError):
        ContourSpec(2.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        ContourSpec(1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        ContourSpec(1.0, 2.0, 0.1, nodes_per_side=4)
    # h = inf made nan nodes and a RuntimeWarning in upper_nodes
    for args in ((0.5, 5.0, np.inf), (0.5, np.inf, 0.5), (np.nan, 5.0, 0.5)):
        with pytest.raises(ValueError, match="contour a, b and h must be finite"):
            ContourSpec(*args)


def test_upper_nodes_stay_off_axis():
    spec = ContourSpec(0.0, 1.0, 0.25, nodes_per_side=9)
    nodes, weights = spec.upper_nodes()
    assert np.all(nodes.imag > 0.0)
    assert len(nodes) == len(weights)


def test_closed_path_weights_sum_to_zero():
    # upper weights plus mirrored lower weights traverse a closed loop
    spec = ContourSpec(-1.0, 3.0, 0.7, nodes_per_side=16)
    _, w = spec.upper_nodes()
    total = np.sum(w) - np.sum(np.conj(w))
    assert abs(total) < 1e-12


def test_quadrature_cauchy_pole_oracle():
    # [DERIVED] (1/2pi i) closed integral of 1/(z - 0.5) over a rectangle
    # around 0.5 equals 1; evaluated with the mirrored upper-half scheme.
    spec = ContourSpec(0.0, 1.0, 0.5, nodes_per_side=256)
    nodes, w = spec.upper_nodes()
    f_up = 1.0 / (nodes - 0.5)
    f_down = 1.0 / (np.conj(nodes) - 0.5)
    total = np.sum(f_up * w) - np.sum(f_down * np.conj(w))
    val = total / (2j * np.pi)
    assert abs(val - 1.0) < 1e-3


def test_check_margin():
    support = SupportEstimate(intervals=[(0.5, 1.5), (4.0, 6.0)], threshold=1e-3, upper_bound_x0=10.0)
    ContourSpec(0.0, 2.0, 0.5).check_margin(support)  # encloses first, excludes second
    with pytest.raises(ValueError):
        ContourSpec(1.0, 2.0, 0.5).check_margin(support)  # cuts through first
    with pytest.raises(ValueError):
        ContourSpec(0.4, 1.6, 0.5).check_margin(support)  # margin h/2 violated


def test_full_support_mass_is_p():
    # contour around the whole spectrum counts all eigenvalues
    p, n = 20, 40
    m = mp_model(p, n)
    hi = (1 + np.sqrt(0.5)) ** 2
    cnt = eigenvalue_count(m, ContourSpec(0.01, hi + 1.0, 0.5, 64))
    assert cnt == pytest.approx(p, rel=5e-3)


def test_empty_contour_gives_zero():
    m = mp_model(10, 20)
    cnt = eigenvalue_count(m, ContourSpec(10.0, 12.0, 0.5, 32))
    assert abs(cnt) < 1e-4


def test_partial_count_two_bulk_model():
    # 20 population eigenvalues at 8 isolate into a bulk carrying d = 20
    # sample eigenvalues; enclose only that bulk
    p, n = 80, 160
    d = np.array([8.0] * 20 + [1.0] * 60)
    m = EnsembleModel(p, n, [Column(Diagonal(d))] * n)
    cnt = eigenvalue_count(m, ContourSpec(3.0, 15.0, 0.5, 64))
    assert cnt == pytest.approx(20.0, abs=0.2)


def test_shared_solves_match_separate(rng):
    m = mp_model(10, 20)
    spec = ContourSpec(0.01, 4.0, 0.5, 32)
    solves = contour_solves(m, spec)
    A = np.eye(10)
    v = rng.standard_normal(10)
    B = np.outer(v, v)
    both = project_functionals(m, [A, B], spec, solves=solves)
    single_a = project_functional(m, A, spec)
    single_b = project_functional(m, B, spec)
    assert both[0].value == pytest.approx(single_a.value, abs=1e-10)
    assert both[1].value == pytest.approx(single_b.value, abs=1e-10)


@pytest.mark.parametrize("case", ["short", "other-model"])
def test_solves_must_be_this_models_upper_nodes(rng, case):
    # a list one node short, or the solves of another model with the same n
    m = mp_model(10, 20)
    spec = ContourSpec(0.01, 4.0, 0.5, 32)
    if case == "short":
        solves = contour_solves(m, spec)[:-1]
    else:
        solves = contour_solves(random_model(10, 20, rng), spec)
    with pytest.raises(ValueError, match="one per upper contour node"):
        project_functionals(m, [np.eye(10)], spec, solves=solves)


def test_projections_read_class_values(monkeypatch):
    # the nodes' class sums come from their class values: no n-long diagonal
    # is built and summed back into classes, with or without shared solves,
    # for a count, or for compare's projection
    m = mixture_model(12, 30, 3)
    spec = ContourSpec(0.01, 40.0, 0.5, 16)
    solves = contour_solves(m, spec)

    def forbidden(*args, **kwargs):
        raise AssertionError("n-long diagonal")

    monkeypatch.setattr(fixedpoint, "UpperDiagonal", forbidden)
    for module in (contour, empirical, equivalent, fixedpoint):
        if hasattr(module, "_class_sums"):
            monkeypatch.setattr(module, "_class_sums", forbidden)
    project_functionals(m, [np.eye(12)], spec)
    project_functionals(m, [np.eye(12)], spec, solves=solves)
    eigenvalue_count(m, spec)
    compare(m, trials=2, seed=1,
            functionals=[FunctionalSpec("identity", np.eye(12), spec, (0.0, 40.0))])


def test_imag_residue_small_for_real_functional():
    m = mp_model(10, 20)
    res = project_functional(m, np.eye(10), ContourSpec(0.01, 4.0, 0.5, 32))
    assert float(res) == res.value


def test_dimension_mismatch_rejected():
    m = mp_model(10, 20)
    with pytest.raises(ValueError):
        project_functional(m, np.eye(5), ContourSpec(0.0, 1.0, 0.5))


def test_complex_functional_rejected():
    m = mp_model(10, 20)
    with pytest.raises(ValueError):
        project_functional(m, 1j * np.eye(10), ContourSpec(0.01, 4.0, 0.5, 32))


def test_projection_csv(tmp_path):
    m = mp_model(6, 12)
    spec = ContourSpec(0.01, 4.0, 0.5, 32)
    res = project_functional(m, np.eye(6), spec)
    path = tmp_path / "proj.csv"
    write_projection_csv(str(path), [("identity", spec, res)])
    lines = path.read_text().splitlines()
    assert lines[0] == "functional,contour_a,contour_b,contour_h,nodes,value"
    fields = lines[1].split(",")
    assert fields[0] == "identity"
    assert float(fields[5]) == pytest.approx(res.value)


@pytest.mark.parametrize("build", [lambda rng: mixture_model(12, 30, 3),
                                   lambda rng: random_model(8, 12, rng)],
                         ids=["woodbury", "dense"])
def test_projections_match_per_node_resolvent_loop(rng, build):
    # the chunked class-level traces against a loop forming each node's
    # resolvent, for a symmetric and a non-symmetric functional
    m = build(rng)
    spec = ContourSpec(0.01, 40.0, 0.5, 16)
    solves = contour_solves(m, spec)
    B = rng.standard_normal((m.p, m.p))
    As = [B @ B.T, B]
    nodes, weights = spec.upper_nodes()
    totals = np.zeros(len(As), dtype=np.complex128)
    for z, w, res in zip(nodes, weights, solves):
        R = r_tilde(m, z, res.lam)
        up = np.array([np.trace(A @ R) for A in As]) * w
        totals += up - np.conj(up)
    want = (-totals / (2j * np.pi)).real
    got = [r.value for r in project_functionals(m, As, spec, solves=solves)]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_projection_forms_no_resolvent_without_dense_class(monkeypatch):
    m = mixture_model(12, 30, 3)
    spec = ContourSpec(0.01, 40.0, 0.5, 16)
    solves = contour_solves(m, spec)
    want = project_functionals(m, [np.eye(12)], spec, solves=solves)[0].value

    def no_resolvent(Wc):
        raise AssertionError("factor_inverses called")

    monkeypatch.setattr(m, "factor_inverses", no_resolvent)
    assert project_functionals(m, [np.eye(12)], spec, solves=solves)[0].value == want


@pytest.mark.parametrize("build", [lambda rng: mp_model(6, 12),
                                   lambda rng: mixture_model(12, 30, 3),
                                   lambda rng: random_model(8, 12, rng)],
                         ids=["diagonal", "woodbury", "dense"])
def test_no_functional_gives_no_projection(rng, build):
    # without a dense class an empty stack failed in numpy's matmul
    assert project_functionals(build(rng), [], ContourSpec(0.01, 40.0, 0.5, 8)) == []


@pytest.mark.parametrize("build", [lambda rng: mp_model(6, 12),
                                   lambda rng: mixture_model(12, 30, 3),
                                   lambda rng: mixture_model(6, 30, 3),
                                   lambda rng: random_model(8, 12, rng)],
                         ids=["diagonal", "woodbury", "lu", "dense"])
def test_eigenvalue_count_is_the_identity_projection(rng, build):
    # the count from g alone, tr R = p g, against tr(Pi I_p) from the model's
    # functional traces, on each layout of the resolvent
    m = build(rng)
    spec = ContourSpec(0.01, 40.0, 0.5, 16)
    want = project_functionals(m, [np.eye(m.p)], spec)[0].value
    assert abs(eigenvalue_count(m, spec) - want) <= 1e-11
