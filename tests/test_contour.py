import numpy as np
import pytest

from conftest import mp_model

from covspectra import (
    Column,
    ContourSpec,
    Diagonal,
    EnsembleModel,
    SupportEstimate,
    contour_solves,
    eigenvalue_count,
    project_functional,
    project_functionals,
    write_projection_csv,
)


def test_contour_spec_validation():
    with pytest.raises(ValueError):
        ContourSpec(2.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        ContourSpec(1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        ContourSpec(1.0, 2.0, 0.1, nodes_per_side=4)


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


def test_imag_residue_small_for_real_functional():
    m = mp_model(10, 20)
    res = project_functional(m, np.eye(10), ContourSpec(0.01, 4.0, 0.5, 32))
    assert abs(res.imag_residue) < 1e-8
    assert float(res) == res.value


def test_dimension_mismatch_rejected():
    m = mp_model(10, 20)
    with pytest.raises(ValueError):
        project_functional(m, np.eye(5), ContourSpec(0.0, 1.0, 0.5))


def test_complex_functional_rejected():
    m = mp_model(10, 20)
    with pytest.raises(ValueError):
        project_functional(m, 1j * np.eye(10), ContourSpec(0.01, 4.0, 0.5, 32))


def test_margin_enforced_when_support_given():
    p, n = 20, 40
    m = mp_model(p, n)
    support = SupportEstimate(
        intervals=[(0.086, 2.914)], threshold=1e-3, upper_bound_x0=10.0
    )
    with pytest.raises(ValueError):
        project_functional(m, np.eye(p), ContourSpec(1.0, 5.0, 0.5), support=support)


def test_projection_csv(tmp_path):
    m = mp_model(6, 12)
    spec = ContourSpec(0.01, 4.0, 0.5, 32)
    res = project_functional(m, np.eye(6), spec)
    path = tmp_path / "proj.csv"
    write_projection_csv(str(path), [("identity", spec, res)])
    lines = path.read_text().splitlines()
    assert lines[0] == "functional,contour_a,contour_b,contour_h,nodes,value,imag_residue"
    fields = lines[1].split(",")
    assert fields[0] == "identity"
    assert float(fields[5]) == pytest.approx(res.value)
