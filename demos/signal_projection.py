"""
Predicting how well top eigenvectors align with class signals.

Ten classes of twenty columns each: column x ~ N(u_j, I_p) with signals
u_j ~ N(0, I_p), p = n = 200.  The ten signal-aligned sample eigenvalues
isolate above the noise bulk; a Cauchy contour integral of the
deterministic-equivalent resolvent predicts tr(Pi_E U U^T) — the alignment
of the isolated eigenspace E with the (unit-normalized) signal directions —
without ever drawing X.  One Monte Carlo draw checks the prediction.

Run: python demos/signal_projection.py   (about a second)
"""

import numpy as np

from covspectra import (
    Column,
    ContourSpec,
    EnsembleModel,
    ScaledIdentity,
    contour_solves,
    empirical_projection,
    eigenvalue_count,
    project_functionals,
    sample_matrix,
)

p, k, n_k = 200, 10, 20
n = k * n_k
rng = np.random.Generator(np.random.Philox(key=[7, 0]))
U = rng.standard_normal((p, k))
Un = U / np.linalg.norm(U, axis=0)

cols = [Column(ScaledIdentity(1.0), mean=U[:, i % k]) for i in range(n)]
model = EnsembleModel(p, n, cols, mean_norm_bound=1e9)

# rectangle around the spikes (noise bulk ends at 4, spikes live in ~[16, 36])
contour = ContourSpec(6.0, 45.0, 0.5, 64)
solves = contour_solves(model, contour)  # shared across functionals
proj, count = project_functionals(
    model, [Un @ Un.T, np.eye(p)], contour, solves=solves
)
print(f"predicted eigenvalues enclosed : {count.value:8.4f}  (k = {k})")
print(f"predicted tr(Pi_E U U^T)       : {proj.value:8.4f}")

X = sample_matrix(model, seed=123)
emp = empirical_projection(X, Un @ Un.T, (6.0, 45.0))
print(f"empirical tr(Pi_E U U^T)       : {emp:8.4f}  (one draw)")
