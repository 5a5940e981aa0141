"""The benchmark's tracer wraps covspectra functions and methods by name, so
a rename in the package breaks a traced benchmark run; this test installs
perfbench/tracer.py's Tracer and checks that every name it wraps exists and
comes back unchanged."""

import importlib.util
import sys
from pathlib import Path

import covspectra


def _tracer_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces() -> dict[str, dict]:
    """Every covspectra module's namespace and every class's own dict, as
    attribute name -> object identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "covspectra" or name.startswith("covspectra."):
            out[name] = {k: id(v) for k, v in vars(mod).items()}
            for k, v in vars(mod).items():
                if isinstance(v, type) and v.__module__ == name:
                    out[f"{name}.{k}"] = {a: id(b) for a, b in vars(v).items()}
    return out


def test_tracer_wraps_every_name_and_restores_it():
    tracer_module = _tracer_module()
    for layer in tracer_module.TRACED:
        importlib.import_module(f"covspectra.{layer}")
    before = _namespaces()
    tracer = tracer_module.Tracer()
    try:
        tracer.install(covspectra)
        wrapped = {(getattr(owner, "__name__", None), attr) for owner, attr, _ in tracer._patches}
        for layer, names in tracer_module.TRACED.items():
            for qual in names:
                owner, _, attr = qual.rpartition(".")
                key = (owner or f"covspectra.{layer}", attr)
                assert key in wrapped, f"{layer}.{qual} was not wrapped"
        for owner, attr, old in tracer._patches:
            assert getattr(owner, attr).__wrapped__ is old
    finally:
        tracer.uninstall()
    assert _namespaces() == before
