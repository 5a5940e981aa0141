import ast
import pathlib
import re

import numpy as np

from covspectra import Column, Diagonal, EnsembleModel, density_grid, fixedpoint

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    # the quick start runs, and its comments quote the support intervals to
    # two decimals and the eigenvalue count to 0.05
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    support = re.search(r"^(support_scan\(model\)\.intervals)\s+# (.*)$", block, re.M)
    count = re.search(r"^(eigenvalue_count\(.*\))\s+# ~(\S+)$", block, re.M)
    np.testing.assert_allclose(eval(support[1], scope), ast.literal_eval(support[2]),
                               rtol=0, atol=0.005)
    assert abs(eval(count[1], scope) - float(count[2])) <= 0.05


def test_readme_figure1_left_counts(monkeypatch):
    # the row iterations, batched map evaluations (each batch's largest
    # iteration count) and levels the README quotes for the Figure-1-left grid
    text = " ".join(README.read_text().split())
    (quoted,) = re.findall(r"Figure-1-left density grid of 400 nodes Newton takes ([\d,]+) "
                           r"row iterations and (\d+) batched map evaluations, one per "
                           r"iteration of a batch, in (\d+) levels", text)
    calls = []
    contract = fixedpoint._contract
    monkeypatch.setattr(fixedpoint, "_contract",
                        lambda *a, **k: calls.append(contract(*a, **k)) or calls[-1])
    base = np.r_[[8.0] * 20, [1.0] * 60]
    density_grid(EnsembleModel(80, 160, [Column(Diagonal(base))] * 160), 0.01, 16.0, 400, y=1e-3)
    counts = (sum(int(c[1].sum()) for c in calls), sum(int(c[1].max()) for c in calls), len(calls))
    assert tuple(int(q.replace(",", "")) for q in quoted) == counts
