"""Record the reference values that the benchmark checks outputs against.

    python3 perfbench/record_reference.py

writes perfbench/reference.json.  It was run once, at the commit that added
the benchmark; the file is committed so that later commits are checked
against that commit's answers.  Running it again overwrites the reference
with the current code's answers, which defeats the checks: do that only when
a change is meant to alter the answers, and say so.

Support edges come from a density grid ten times finer than the one
`support_scan` uses, at the same y and threshold, with each edge placed by
linear interpolation of the threshold crossing.  On fig1-rotated the solves
at default tolerance stall at a roundoff floor near x = 10.4, so that grid
is solved with tol_ds = 1e-11; every other reference uses default options.
"""

from __future__ import annotations

import json
import sys

import env

env.pin_threads()
env.add_source()

import numpy as np  # noqa: E402

import covspectra as cs  # noqa: E402
import workloads as wl  # noqa: E402

SCAN_Y = 1e-3
SCAN_THRESHOLD = 1e-3
FINE_POINTS = 2001  # ten times the 201 points of support_scan


def support_reference(model: cs.EnsembleModel, opts: cs.SolverOptions | None) -> dict:
    # the scan range of support_scan, as its docstring states it
    x0 = 1.5 * max(8.0 / model.n * model.max_trace(), 4.0 * model.nu_hat())
    grid = cs.density_grid(model, 1e-12, x0, FINE_POINTS, SCAN_Y, opts)
    xs, d = grid.xs, grid.density
    above = d > SCAN_THRESHOLD

    def crossing(i: int) -> float:  # threshold crossing between xs[i] and xs[i + 1]
        return float(xs[i] + (SCAN_THRESHOLD - d[i]) * (xs[i + 1] - xs[i]) / (d[i + 1] - d[i]))

    intervals = []
    i = 0
    while i < len(xs):
        if not above[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(xs) and above[j + 1]:
            j += 1
        lo = float(xs[0]) if i == 0 else crossing(i - 1)
        hi = float(xs[-1]) if j == len(xs) - 1 else crossing(j)
        intervals.append([max(lo, 0.0), min(hi, x0)])
        i = j + 1
    return {"intervals": intervals, "stride": float(xs[1] - xs[0]), "x0": x0,
            "points": FINE_POINTS, "y": SCAN_Y, "threshold": SCAN_THRESHOLD,
            "tol_ds": (opts or cs.SolverOptions()).tol_ds}


def main() -> int:
    diag = cs.EnsembleModel(wl.FIG1_P, wl.FIG1_N,
                            [cs.Column(cs.Diagonal(wl.FIG1_BASE))] * wl.FIG1_N)
    rotated = wl.fig1_rotated_model()
    mixture, A = wl.fig2_inputs()
    solves = cs.contour_solves(mixture, wl.FIG2_CONTOUR)
    proj, count = cs.project_functionals(mixture, [A, np.eye(wl.FIG2_P)], wl.FIG2_CONTOUR,
                                         solves=solves)
    ref = {
        "recorded_at": env.describe(),
        "fig1-diag": {
            "density": cs.density_grid(diag, 0.01, 16.0, 400, y=1e-3).density.tolist(),
            "support": support_reference(diag, None),
        },
        "fig1-rotated": {
            "density": cs.density_grid(rotated, 1e-12, 10.0, 120, y=1e-3,
                                       opts=wl.ROTATED_OPTS).density.tolist(),
            "support": support_reference(rotated, cs.SolverOptions(tol_ds=1e-11)),
        },
        "fig2-mixture": {"projection": proj.value, "count": count.value},
    }
    with open(env.ROOT / "perfbench" / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    for name in ("fig1-diag", "fig1-rotated"):
        print(name, "support", ref[name]["support"]["intervals"])
    print("fig2-mixture", ref["fig2-mixture"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
