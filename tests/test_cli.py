import json

import numpy as np
import pytest

from conftest import mp_stieltjes

from covspectra.cli import main


@pytest.fixture
def mp_config(tmp_path):
    cfg = {
        "p": 40,
        "n": 80,
        "columns": [{"cov": {"kind": "scaled_identity", "sigma2": 1.0}, "repeat": 80}],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip()


def test_solve_outputs_g(mp_config, capsys):
    rc = main(["solve", "--model", mp_config, "--z", "1.0,0.5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    g = complex(*doc["g"])
    assert abs(g - mp_stieltjes(1.0 + 0.5j, 0.5)) < 1e-6
    assert len(doc["lambda"]) == 80
    assert doc["residual_ds"] < 1e-10


def test_solve_rejects_bad_z(mp_config, capsys):
    assert main(["solve", "--model", mp_config, "--z", "1.0,-0.5"]) == 1
    assert main(["solve", "--model", mp_config, "--z", "nonsense"]) == 1


def test_missing_model_file(tmp_path, capsys):
    rc = main(["solve", "--model", str(tmp_path / "nope.json"), "--z", "0,1"])
    assert rc == 1


def test_density_writes_csv(mp_config, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([
        "density", "--model", mp_config, "--out", str(out),
        "--xlo", "0.05", "--xhi", "3.5", "--count", "40", "--y", "0.01",
    ])
    assert rc == 0
    data = np.loadtxt(str(out / "density.csv"), delimiter=",", skiprows=2)
    assert data.shape == (40, 2)
    assert data[:, 1].max() > 0.1


def test_project_identity_counts_eigenvalues(mp_config, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([
        "project", "--model", mp_config, "--out", str(out),
        "--functional", "identity", "--contour", "0.01,4.0,0.5,32",
    ])
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(40.0, rel=0.01)
    lines = (out / "projection.csv").read_text().splitlines()
    assert lines[0].startswith("functional,")
    assert lines[1].split(",")[0] == "identity"


def test_project_bad_contour(mp_config, capsys):
    rc = main([
        "project", "--model", mp_config, "--functional", "identity",
        "--contour", "oops",
    ])
    assert rc == 1


def test_project_uuT_file(mp_config, tmp_path, capsys):
    upath = tmp_path / "u.json"
    u = np.zeros(40)
    u[0] = 1.0
    upath.write_text(json.dumps(u.tolist()))
    rc = main([
        "project", "--model", mp_config, "--out", str(tmp_path),
        "--functional", f"uuT:{upath}", "--contour", "0.01,4.0,0.5,32",
    ])
    assert rc == 0
    # e_1 projection over the whole bulk: close to 1
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0, abs=0.01)


def test_project_closes_functional_files(mp_config, tmp_path, capsys):
    import gc
    import warnings

    upath, apath = tmp_path / "u.json", tmp_path / "a.json"
    upath.write_text(json.dumps(np.eye(40)[0].tolist()))
    apath.write_text(json.dumps(np.eye(40).tolist()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for functional in (f"uuT:{upath}", f"file:{apath}"):
            assert main([
                "project", "--model", mp_config, "--out", str(tmp_path),
                "--functional", functional, "--contour", "0.01,4.0,0.5,8",
            ]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_project_missing_functional_file(mp_config, tmp_path, capsys):
    assert main([
        "project", "--model", mp_config, "--functional", f"file:{tmp_path / 'none.json'}",
        "--contour", "0.01,4.0,0.5,8",
    ]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in ("solve", "qve") for f in ("--out", "--seed", "--jobs")]
    + [(c, f) for c in ("density", "project") for f in ("--seed", "--jobs")],
)
def test_unread_flag_rejected(command, flag, mp_config, tmp_path, capsys):
    # each subcommand accepts only the flags its handler reads
    prob = tmp_path / "qve.json"
    prob.write_text(json.dumps({"z": [0.0, 1.0], "a": [0.0], "S": [[1.0]]}))
    args = {
        "solve": ["--model", mp_config, "--z", "1.0,0.5"],
        "density": ["--model", mp_config, "--out", str(tmp_path),
                    "--xlo", "0.5", "--xhi", "1.5", "--count", "2"],
        "project": ["--model", mp_config, "--out", str(tmp_path),
                    "--functional", "identity", "--contour", "0.01,4.0,0.5,8"],
        "qve": [str(prob)],
    }[command]
    value = str(tmp_path / "x") if flag == "--out" else "1"
    assert main([command, *args]) == 0
    assert main([command, *args, flag, value]) == 1


def test_validate_requires_seed(mp_config, tmp_path, capsys):
    rc = main([
        "validate", "--model", mp_config, "--out", str(tmp_path / "r"),
        "--trials", "2",
    ])
    assert rc == 1


def test_validate_writes_report(mp_config, tmp_path, capsys):
    out = tmp_path / "report"
    rc = main([
        "validate", "--model", mp_config, "--out", str(out),
        "--trials", "2", "--seed", "42", "--y", "0.01",
    ])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 42
    assert (out / "histogram.csv").exists()
    assert (out / "functionals.csv").exists()


def test_validate_deterministic_under_seed(mp_config, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([
            "validate", "--model", mp_config, "--out", str(out),
            "--trials", "2", "--seed", "7", "--y", "0.01",
        ]) == 0
        outs.append((out / "summary.json").read_text())
    assert outs[0] == outs[1]


def test_qve_subcommand(tmp_path, capsys):
    prob = {"z": [0.0, 1.0], "a": [0.0], "S": [[1.0]]}
    path = tmp_path / "qve.json"
    path.write_text(json.dumps(prob))
    rc = main(["qve", str(path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    m = complex(*doc["m"][0])
    disc = np.sqrt(complex(-1.0 - 4.0))
    want = (-1j + disc) / 2.0
    if want.imag <= 0:
        want = (-1j - disc) / 2.0
    assert abs(m - want) < 1e-8
    assert doc["residual"] < 1e-10


def test_qve_infinite_s_exits_1(tmp_path, capsys):
    path = tmp_path / "qve.json"
    path.write_text(json.dumps({"z": [0.0, 1.0], "a": [0.0, 0.0],
                                "S": [[float("inf"), 0.0], [0.0, 1.0]]}))
    assert main(["qve", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_qve_bad_problem_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    assert main(["qve", str(path)]) == 1


def test_nonconvergence_exit_code(mp_config, capsys):
    rc = main([
        "solve", "--model", mp_config, "--z", "1.5,0.0001",
        "--tol", "1e-14", "--max-iter", "2",
    ])
    assert rc == 2
