import csv
import json
import warnings

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


@pytest.mark.parametrize("z", ["nan,1", "inf,1", "1,inf"])
def test_solve_rejects_non_finite_z(z, mp_config, capsys):
    # these ran the solver into a residual of nan and exit 2
    assert main(["solve", "--model", mp_config, "--z", z]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize("flag, value", [("--y", "inf"), ("--y", "nan"), ("--xhi", "inf")])
def test_density_rejects_non_finite_nodes(flag, value, mp_config, tmp_path, capsys):
    args = {"--xlo": "0.05", "--xhi": "3.5", "--y": "0.01", flag: value}
    rc = main(["density", "--model", mp_config, "--out", str(tmp_path / "out"), "--count", "8",
               *[part for item in args.items() for part in item]])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_missing_model_file(tmp_path, capsys):
    rc = main(["solve", "--model", str(tmp_path / "nope.json"), "--z", "0,1"])
    assert rc == 1


@pytest.mark.parametrize(
    "columns",
    [[{"cov": {"kind": "diagonal"}}], [3], 5],
    ids=["missing-key", "entry-not-object", "columns-not-list"],
)
def test_malformed_model_reports_error(columns, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": 2, "n": 1, "columns": columns}))
    assert main(["solve", "--model", str(path), "--z", "1,1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


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


def test_project_non_finite_contour(mp_config, capsys):
    # h = inf warned twice from upper_nodes, then failed on a z of nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["project", "--model", mp_config, "--functional", "identity",
                   "--contour", "3,15,inf,64"])
    assert rc == 1
    assert capsys.readouterr().err == "error: contour a, b and h must be finite\n"


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


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)], ids=["negative", "2^64"])
def test_validate_rejects_out_of_range_seed(seed, mp_config, tmp_path, capsys):
    # these ended in an OverflowError traceback from the generator's key
    rc = main(["validate", "--model", mp_config, "--out", str(tmp_path / "r"),
               "--trials", "2", "--seed", seed])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error:") and "Traceback" not in err


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


@pytest.mark.parametrize("doc", [
    {"z": 1.0, "a": [0.0], "S": [[1.0]]},
    [0.0, 1.0],
    {"z": [1], "a": [0.0], "S": [[1.0]]},
    {"z": [float("nan"), 1], "a": [0.0], "S": [[1.0]]},  # json writes and reads NaN
], ids=["scalar-z", "top-level-list", "short-z", "nan-z"])
def test_qve_malformed_problem_is_a_usage_error(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["qve", str(path)]) == 1
    assert "error: cannot read QVE problem:" in capsys.readouterr().err


def test_nonconvergence_exit_code(mp_config, capsys):
    rc = main([
        "solve", "--model", mp_config, "--z", "1.5,0.0001",
        "--tol", "1e-14", "--max-iter", "2",
    ])
    assert rc == 2


def test_solve_rejects_infinite_tol(mp_config, capsys):
    # every row stopped after one map application and reported convergence
    assert main(["solve", "--model", mp_config, "--z", "1,1", "--tol", "inf"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "tol_ds" in err and "Traceback" not in err


@pytest.mark.parametrize("width", ["0", "-1", "nan", "inf"])
def test_validate_rejects_nonpositive_bin_width(width, mp_config, tmp_path, capsys):
    # width 0 divided by zero and width -1 indexed an empty grid, each with a
    # traceback; width inf left numpy's "arange: cannot compute length"
    assert main([
        "validate", "--model", mp_config, "--out", str(tmp_path / "r"),
        "--trials", "2", "--seed", "1", "--bin-width", width,
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bin_width must be positive and finite")
    assert "Traceback" not in err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_validate_rejects_jobs_below_one(jobs, mp_config, tmp_path, capsys):
    # such a count silently ran the trials serially
    assert main([
        "validate", "--model", mp_config, "--out", str(tmp_path / "r"),
        "--trials", "2", "--seed", "1", "--jobs", jobs,
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: jobs must be >= 1") and "Traceback" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("interval", ["3", "5,1", "2,2", "a,b", "1,2,3"])
def test_validate_bad_interval_is_a_usage_error(interval, mp_config, tmp_path, capsys):
    # "5,1" was accepted and projected onto an empty interval
    assert main([
        "validate", "--model", mp_config, "--out", str(tmp_path / "r"),
        "--trials", "2", "--seed", "1", "--functional", "identity",
        "--contour", "0.01,4,0.5,16", "--interval", interval,
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: expected LO,HI with LO < HI for --interval")


def test_validate_functional_row(mp_config, tmp_path, capsys):
    # every eigenvalue of the Marchenko-Pastur model (c = 1/2, support
    # [0.086, 2.91]) lies inside the contour and the interval: 40 both ways
    out = tmp_path / "report"
    assert main([
        "validate", "--model", mp_config, "--out", str(out), "--trials", "2",
        "--seed", "1", "--y", "0.01", "--functional", "identity",
        "--contour", "0.01,4.0,0.5,32", "--interval", "0,4",
    ]) == 0
    header, row, *rest = (out / "functionals.csv").read_text().splitlines()
    assert not rest
    assert header == ("functional,contour_a,contour_b,contour_h,nodes,value,"
                      "empirical_mean,empirical_std,trials")
    fields = row.split(",")
    assert fields[:5] == ["identity", "0.01", "4.0", "0.5", "32"]
    assert float(fields[5]) == pytest.approx(40.0, rel=0.01)
    assert [float(f) for f in fields[6:]] == pytest.approx([40.0, 0.0, 2.0], abs=1e-9)


@pytest.mark.parametrize("missing", ["--contour", "--interval"])
def test_validate_functional_needs_contour_and_interval(missing, mp_config, tmp_path, capsys):
    args = {"--functional": "identity", "--contour": "0.01,4.0,0.5,32", "--interval": "0,4"}
    del args[missing]
    assert main(["validate", "--model", mp_config, "--out", str(tmp_path / "r"),
                 "--trials", "2", "--seed", "1",
                 *[part for item in args.items() for part in item]]) == 1
    assert capsys.readouterr().err == "error: --functional needs --contour and --interval\n"
    assert not (tmp_path / "r").exists()


def test_project_ones(mp_config, tmp_path, capsys):
    # the contour encloses the whole spectrum, so Pi = I and tr(Pi 1 1^T) = p
    assert main(["project", "--model", mp_config, "--out", str(tmp_path),
                 "--functional", "ones", "--contour", "0.01,4.0,0.5,32"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(40.0, rel=0.01)
    row = (tmp_path / "projection.csv").read_text().splitlines()[1].split(",")
    assert row[0] == "ones" and row[4] == "32"


@pytest.mark.parametrize("kind, shape, message", [
    ("bogus", None, "unknown functional spec 'bogus'"),
    ("uuT", (39,), "U must have 40 rows"),
    ("file", (40, 39), "functional matrix must be 40x40"),
], ids=["unknown", "uuT-rows", "file-shape"])
def test_project_malformed_functional(kind, shape, message, mp_config, tmp_path, capsys):
    spec = kind
    if shape is not None:
        path = tmp_path / "f.json"
        path.write_text(json.dumps(np.ones(shape).tolist()))
        spec = f"{kind}:{path}"
    assert main(["project", "--model", mp_config, "--out", str(tmp_path),
                 "--functional", spec, "--contour", "0.01,4.0,0.5,8"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n" and "Traceback" not in err


def test_model_validation_warning_logged(tmp_path, caplog):
    # sigma2 below the lower-bounded-covariance floor: one warning per column
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"p": 2, "n": 2, "columns": [
        {"cov": {"kind": "scaled_identity", "sigma2": 1e-9}, "repeat": 2}]}))
    assert main(["solve", "--model", str(path), "--z", "1,1"]) == 0
    logged = [r.getMessage() for r in caplog.records if r.name == "covspectra"]
    assert len(logged) == 2 and all(m.startswith("model validation: column ") for m in logged)


SWEEP_CONFIGS = [
    {"p": 4, "n": 6, "columns": [{"cov": {"kind": "diagonal", "entries": [1.0, 1.0, 4.0, 2.0]},
                                  "repeat": 6}]},
    {"p": 3, "n": 4, "columns": [{"cov": {"kind": "rotated_family", "base": [1.0, 2.0, 0.5],
                                          "orthogonal": {"seed": 3}, "rotations": 1,
                                          "rotation_step": 1},
                                  "mean": [0.5, 0.0, 1.0], "repeat": 4}]},
    {"p": 2, "n": 3, "columns": [{"cov": {"kind": "dense", "matrix": [[2.0, 0.5], [0.5, 1.0]]}},
                                 {"cov": {"kind": "scaled_identity", "sigma2": 1.0},
                                  "mean": [1.0, -1.0], "repeat": 2}]},
]
SWEEP_QVE = {"z": [0.5, 1.0], "a": [0.0, 0.1], "S": [[1.0, 0.5], [0.5, 1.0]]}
# no huge p, n, repeat, count or trials and no tiny bin width: each allocates
# without bound, so they stay out of the sweep
SWEEP_VALUES = [None, True, "x", [], {}, -1, 0, 1.5, float("inf"), float("nan"), [[1.0, 2.0]]]
SWEEP_ARGS = ["", "x", "nan", "inf", "-1", "0", "1.5", "2", "1,2", "0,1,0.5,8"]
_DELETED = object()


def _field_paths(doc, path=()):
    """Every path into doc: each key of an object, and the first entry of a
    list (the other entries are alike)."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _field_paths(value, path + (key,))
    elif isinstance(doc, list) and doc:
        yield from _field_paths(doc[0], path + (0,))


def _mutated(doc, path, value):
    """doc with the field at path replaced by value, or removed."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if value is _DELETED:
        del parent[last]
    else:
        parent[last] = value
    return doc


def _check_outputs(out):
    """Every CSV (after its optional '# ' comment line, rows as long as its
    header) and JSON file under out parses."""
    for path in out.rglob("*"):
        if path.suffix == ".json":
            json.loads(path.read_text())
        elif path.suffix == ".csv":
            lines = path.read_text().splitlines()
            rows = list(csv.reader(lines[1:] if lines and lines[0].startswith("# ") else lines))
            assert rows and all(len(row) == len(rows[0]) for row in rows), path


def test_cli_sweep(tmp_path, monkeypatch, capsys):
    # single-field mutations of three small model configs and a QVE problem,
    # and of the argument vectors of all five subcommands, a seeded sample of
    # each, every run in its own directory: each exits 0, 1 or 2 with no
    # traceback, and every CSV and JSON it writes, stdout included, parses
    rng = np.random.default_rng(0)
    commands = {
        "solve": ["--z", "1,0.5"],
        "density": ["--out", "out", "--xlo", "0.1", "--xhi", "6", "--count", "8", "--y", "0.01"],
        "project": ["--out", "out", "--functional", "identity", "--contour", "0.01,10,0.5,8"],
        "validate": ["--out", "out", "--seed", "1", "--trials", "1", "--y", "0.01",
                     "--functional", "ones", "--contour", "0.01,10,0.5,8", "--interval", "0,10"],
    }
    runs = []  # (model config, QVE problem, argument vector)
    for doc in [*SWEEP_CONFIGS, SWEEP_QVE]:
        for path in _field_paths(doc):
            for value in SWEEP_VALUES + ([_DELETED] if path else []):
                bad = _mutated(doc, path, value)
                if doc is SWEEP_QVE:
                    runs.append((SWEEP_CONFIGS[0], bad, ["qve", "q.json"]))
                else:
                    name = str(rng.choice(list(commands)))
                    runs.append((bad, SWEEP_QVE, [name, "--model", "m.json", *commands[name]]))
    runs = [runs[j] for j in rng.choice(len(runs), 150, replace=False)]
    argvs = [[name, "--model", "m.json", *args] for name, args in commands.items()]
    for argv in argvs + [["qve", "q.json"]]:
        argv += ["--max-iter", "200"]
        for j in range(1, len(argv)):
            for value in rng.choice(SWEEP_ARGS, 2, replace=False):
                runs.append((SWEEP_CONFIGS[0], SWEEP_QVE, argv[:j] + [str(value)] + argv[j + 1:]))
    failed = []
    for k, (config, problem, argv) in enumerate(runs):
        run = tmp_path / str(k)
        run.mkdir()
        monkeypatch.chdir(run)
        (run / "m.json").write_text(json.dumps(config))
        (run / "q.json").write_text(json.dumps(problem))
        rc = main(argv)
        out, err = capsys.readouterr()
        if rc not in (0, 1, 2) or "Traceback" in err:
            failed.append((argv, config, problem, rc, err))
        if rc == 0 and argv[0] in ("solve", "qve"):
            json.loads(out)
        _check_outputs(run)
    assert failed == []
