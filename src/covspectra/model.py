"""
Covariance ensemble models: per-column means and structured covariances.

A model describes ``n`` independent columns of dimension ``p``, column ``i``
having mean ``mu_i`` and centered covariance ``C_i``, so that the second
moment is ``Sigma_i = C_i + mu_i mu_i^T``.  Columns with the same mean and
covariance form a class, and the model stores each of its k classes once, so
the fixed-point solver's costs grow with k, not n.  Structured covariance
kinds keep them low: O(p) traces instead of O(p^2) for diagonal families, and
a model with no dense class never has a p x p matrix inverted, only an r x r
one, r being the number of classes that carry a mean or low-rank vector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "ModelError",
    "Dense",
    "Diagonal",
    "ScaledIdentity",
    "RotatedFamily",
    "LowRankPlusIdentity",
    "Column",
    "EnsembleModel",
    "load_model",
    "random_orthogonal",
]

_PSD_TOL = 1e-10
_MIN_EIG_FLOOR = 1e-8  # warn below it: lower-bounded-covariance assumption


class ModelError(ValueError):
    """Fatal model configuration problem (parse error, non-PSD covariance...)."""


def random_orthogonal(p: int, seed: int) -> NDArray[np.float64]:
    """Seeded random orthogonal matrix: QR of a standard Gaussian matrix,
    sign-fixed so R has positive diagonal (bit-reproducible)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    return q * np.sign(np.diag(r))


@dataclass(frozen=True)
class Dense:
    """Arbitrary real symmetric PSD covariance."""

    matrix: NDArray[np.float64]

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ModelError("dense covariance must be a square matrix")
        if not np.isfinite(m).all():
            raise ModelError("dense covariance must be finite")
        if not np.allclose(m, m.T, atol=1e-12):
            raise ModelError("dense covariance must be symmetric")
        if np.linalg.eigvalsh(m).min() < -_PSD_TOL:
            raise ModelError("dense covariance is not positive semidefinite")
        object.__setattr__(self, "matrix", m)

    def dim(self) -> int:
        return self.matrix.shape[0]

    def realize(self, p: int) -> NDArray[np.float64]:
        return self.matrix.copy()

    def min_eig(self, p: int) -> float:
        return float(np.linalg.eigvalsh(self.matrix).min())

    def root_matvec(self, g: NDArray[np.float64]) -> NDArray[np.float64]:
        w, v = np.linalg.eigh(self.matrix)
        w = np.clip(w, 0.0, None)
        return v @ (np.sqrt(w) * (v.T @ g))


@dataclass(frozen=True)
class Diagonal:
    """Diagonal covariance with nonnegative entries."""

    entries: NDArray[np.float64]

    def __post_init__(self) -> None:
        d = np.asarray(self.entries, dtype=np.float64).ravel()
        if d.size == 0:
            raise ModelError("diagonal covariance needs at least one entry")
        if d.min() < 0.0:
            raise ModelError("diagonal covariance entries must be nonnegative")
        object.__setattr__(self, "entries", d)

    def dim(self) -> int:
        return self.entries.size

    def realize(self, p: int) -> NDArray[np.float64]:
        return np.diag(self.entries)

    def min_eig(self, p: int) -> float:
        return float(self.entries.min())

    def root_matvec(self, g: NDArray[np.float64]) -> NDArray[np.float64]:
        return np.sqrt(self.entries) * g


@dataclass(frozen=True)
class ScaledIdentity:
    """sigma^2 * I_p with sigma^2 > 0."""

    sigma2: float

    def __post_init__(self) -> None:
        if not self.sigma2 > 0.0:
            raise ModelError("scaled identity requires sigma2 > 0")

    def dim(self) -> int | None:
        return None

    def realize(self, p: int) -> NDArray[np.float64]:
        return self.sigma2 * np.eye(p)

    def min_eig(self, p: int) -> float:
        return float(self.sigma2)

    def root_matvec(self, g: NDArray[np.float64]) -> NDArray[np.float64]:
        return np.sqrt(self.sigma2) * g


@dataclass(frozen=True)
class RotatedFamily:
    """(P^k)^T diag(d) P^k for a base diagonal d and an orthogonal P."""

    base: NDArray[np.float64]
    orthogonal: NDArray[np.float64]
    rotations: int = 0

    def __post_init__(self) -> None:
        d = np.asarray(self.base, dtype=np.float64).ravel()
        if d.min() < 0.0:
            raise ModelError("rotated family base entries must be nonnegative")
        P = np.asarray(self.orthogonal, dtype=np.float64)
        if P.shape != (d.size, d.size):
            raise ModelError("rotated family orthogonal matrix has wrong shape")
        if not np.allclose(P @ P.T, np.eye(d.size), atol=1e-10):
            raise ModelError("rotated family matrix is not orthogonal")
        if self.rotations < 0:
            raise ModelError("rotation count must be nonnegative")
        object.__setattr__(self, "base", d)
        object.__setattr__(self, "orthogonal", P)

    def dim(self) -> int:
        return self.base.size

    def _rotation(self) -> NDArray[np.float64]:
        return np.linalg.matrix_power(self.orthogonal, self.rotations)

    def realize(self, p: int) -> NDArray[np.float64]:
        if self.rotations == 0:
            return np.diag(self.base)
        R = self._rotation()
        return R.T @ (self.base[:, None] * R)

    def min_eig(self, p: int) -> float:
        return float(self.base.min())

    def root_matvec(self, g: NDArray[np.float64]) -> NDArray[np.float64]:
        if self.rotations == 0:
            return np.sqrt(self.base) * g
        R = self._rotation()
        return R.T @ (np.sqrt(self.base) * g)


@dataclass(frozen=True)
class LowRankPlusIdentity:
    """sigma^2 * I_p + u u^T.

    The vector u plays the role of a deterministic signal: sampling draws
    sigma*g and adds u as a mean, which realizes exactly this second moment.
    A column of this kind therefore takes no nonzero declared mean of its own
    (``EnsembleModel`` raises ``ModelError``); a zero mean is allowed.
    """

    u: NDArray[np.float64]
    sigma2: float

    def __post_init__(self) -> None:
        if not self.sigma2 > 0.0:
            raise ModelError("low-rank-plus-identity requires sigma2 > 0")
        object.__setattr__(self, "u", np.asarray(self.u, dtype=np.float64).ravel())

    def dim(self) -> int:
        return self.u.size

    def realize(self, p: int) -> NDArray[np.float64]:
        return self.sigma2 * np.eye(p) + np.outer(self.u, self.u)

    def min_eig(self, p: int) -> float:
        return float(self.sigma2)

    def root_matvec(self, g: NDArray[np.float64]) -> NDArray[np.float64]:
        # the u u^T part is carried by the sampling mean, not the root
        return np.sqrt(self.sigma2) * g


CovarianceSpec = Dense | Diagonal | ScaledIdentity | RotatedFamily | LowRankPlusIdentity


@dataclass(frozen=True)
class Column:
    """One column of the ensemble: optional mean and centered covariance."""

    cov: CovarianceSpec
    mean: NDArray[np.float64] | None = None


class EnsembleModel:
    """Immutable ensemble of n columns in dimension p.

    Columns with equal diagonal part and vector and the same dense covariance
    object are interchangeable in the fixed point, so they form one class,
    stored once; ``column_class`` maps each column to its class.  A class's
    second moment is ``Sigma_c = diag(d_c) + Dense_c + v_c v_c^T``, with at
    most one vector v_c (the mean or the low-rank signal), so that the two
    hot operations of the solver (weighted mixtures and traces against a
    fixed matrix) run vectorized over the k classes.  The r class vectors are
    the columns of the p x r matrix ``_V``.  ``factor_inverse`` inverts the
    resolvent factor; with no dense class it solves an r x r system instead
    of a p x p one.
    """

    def __init__(
        self,
        p: int,
        n: int,
        columns: Sequence[Column],
        *,
        mean_norm_bound: float = 10.0,
    ) -> None:
        if p < 1 or n < 1:
            raise ModelError("p and n must be positive")
        if len(columns) != n:
            raise ModelError(f"expected {n} columns, got {len(columns)}")
        self.p = int(p)
        self.n = int(n)
        self.columns = tuple(columns)
        self.warnings: list[str] = []

        # keyed by content, but dense specs by identity: hashing their
        # realised p x p matrices would cost more than it saves
        classes: dict[tuple, int] = {}
        parts: list[tuple] = []  # (diagonal part, dense spec, vector) per class
        min_eigs: list[float] = []
        self.column_class = np.empty(n, dtype=np.intp)
        for i, col in enumerate(self.columns):
            spec = col.cov
            d = spec.dim()
            if d is not None and d != p:
                raise ModelError(f"column {i}: covariance dimension {d} != p={p}")
            mu = None if col.mean is None else np.asarray(col.mean, dtype=np.float64).ravel()
            if mu is not None and mu.size != p:
                raise ModelError(f"column {i}: mean has wrong length")
            dense = None
            if isinstance(spec, Diagonal):
                diag = spec.entries
            elif isinstance(spec, ScaledIdentity):
                diag = spec.sigma2
            elif isinstance(spec, LowRankPlusIdentity):
                if mu is not None and mu.any():
                    raise ModelError(f"column {i}: a low-rank column takes no nonzero mean")
                diag, mu = spec.sigma2, spec.u
            elif isinstance(spec, RotatedFamily) and spec.rotations == 0:
                diag = spec.base
            else:
                diag, dense = 0.0, spec
            if mu is not None and not mu.any():
                mu = None
            key = (diag.tobytes() if isinstance(diag, np.ndarray) else diag, id(dense),
                   None if mu is None else mu.tobytes())
            c = self.column_class[i] = classes.setdefault(key, len(parts))
            if c == len(parts):
                parts.append((diag, dense, mu))
                min_eigs.append(spec.min_eig(p))

        self._diag = np.zeros((len(parts), p))
        self._offsets = np.zeros((len(parts), p))  # the class's vector, or zero
        for c, (diag, _, mu) in enumerate(parts):
            self._diag[c] = diag
            if mu is not None:
                self._offsets[c] = mu
        # the classes with a dense part, and those carrying a vector
        self._dense_rows = np.flatnonzero([dense is not None for _, dense, _ in parts])
        self._vec_rows = np.flatnonzero([mu is not None for *_, mu in parts])
        # one row per dense class, so each dense kernel is one real GEMV
        self._dense = np.array([parts[c][1].realize(p) for c in self._dense_rows],
                               dtype=np.float64).reshape(len(self._dense_rows), p * p)
        self._V = np.ascontiguousarray(self._offsets[self._vec_rows].T)
        if not all(np.isfinite(x).all() for x in (self._diag, self._dense, self._offsets)):
            raise ModelError("covariances and means must be finite")
        # one warning per column whose class breaks an assumption of the paper
        norms = np.linalg.norm(self._offsets, axis=1)[self.column_class]
        low = (np.array(min_eigs) < _MIN_EIG_FLOOR)[self.column_class]
        for i in np.flatnonzero((norms > mean_norm_bound) | low):
            if norms[i] > mean_norm_bound:
                self.warnings.append(
                    f"column {i}: mean norm {norms[i]:.3g} exceeds bound "
                    f"{mean_norm_bound:.3g} (bounded-mean assumption)"
                )
            if low[i]:
                self.warnings.append(
                    f"column {i}: covariance smallest eigenvalue below floor "
                    f"{_MIN_EIG_FLOOR:.3g} (lower-bounded-covariance assumption)"
                )

    # -- core operations --------------------------------------------------

    @property
    def is_diagonal_plus_low_rank(self) -> bool:
        """True when no column has a dense class, so every Sigma_i is diagonal
        plus v v^T terms over the r stored vectors and the resolvent factor is
        a diagonal matrix plus a rank-r correction (r = 0: diagonal)."""
        return not self._dense_rows.size

    def _class_weights(self, w: NDArray) -> NDArray:
        """For each class, the sum of w_i over its columns; real weights give
        real sums, which keeps the BLAS products that take them real."""
        if np.iscomplexobj(w):
            return self._class_weights(w.real) + 1j * self._class_weights(w.imag)
        return np.bincount(self.column_class, w, self._diag.shape[0])

    def realize_sigma(self, i: int) -> NDArray[np.float64]:
        """Dense Sigma_i = C_i + mu_i mu_i^T."""
        if not 0 <= i < self.n:
            raise IndexError(f"column index {i} out of range [0, {self.n})")
        sigma = self.columns[i].cov.realize(self.p)
        mu = self.columns[i].mean
        if mu is not None and np.any(mu):
            sigma = sigma + np.outer(mu, mu)
        return sigma

    def mixture_matrix(self, w: NDArray[np.complex128]) -> NDArray[np.complex128]:
        """(1/n) sum_i w_i Sigma_i, exploiting column structure."""
        w = np.asarray(w).ravel()
        if w.size != self.n:
            raise ModelError(f"weight vector has length {w.size}, expected {self.n}")
        wc = self._class_weights(w)
        out = np.zeros((self.p, self.p), dtype=np.complex128)
        np.fill_diagonal(out, _real_times(self._diag.T, wc))
        if self._dense_rows.size:
            out += _real_times(self._dense.T, wc[self._dense_rows]).reshape(self.p, self.p)
        if self._vec_rows.size:
            out += (self._V * wc[self._vec_rows]) @ self._V.T
        out /= self.n
        return out

    def factor_inverse(self, w: NDArray[np.complex128]) -> NDArray[np.complex128]:
        """(I_p - mixture_matrix(w))^{-1}; np.linalg.LinAlgError if singular.

        Without a dense class the factor is D - V W V^T / n, D diagonal and W
        the class weights of the r vectors.  Woodbury with Y = D^-1 V and
        G = V^T Y gives D^-1 + Y W (nI - G W)^-1 Y^T, which needs no W^-1 and
        only an r x r solve; r = 0 is the diagonal factor itself."""
        if self._dense_rows.size:
            return np.linalg.inv(np.eye(self.p, dtype=np.complex128) - self.mixture_matrix(w))
        wc = self._class_weights(w)
        inv_d = 1.0 / (1.0 - _real_times(self._diag.T, wc) / self.n)
        if not self._vec_rows.size:
            return np.diag(inv_d)
        V, wv = self._V, wc[self._vec_rows]
        Y = inv_d[:, None] * V
        K = self.n * np.eye(V.shape[1]) - _real_times(V.T, Y) * wv
        Q = (Y * wv) @ np.linalg.solve(K, Y.T)
        Q.flat[:: self.p + 1] += inv_d
        return Q

    def traces_against_all(self, M: NDArray[np.complex128]) -> NDArray[np.complex128]:
        """tr(Sigma_i M) for every column at once."""
        if M.shape != (self.p, self.p):
            raise ModelError("matrix dimension mismatch")
        t = _real_times(self._diag, np.diagonal(M))
        if self._dense_rows.size:
            # tr(D M) = vec(D) . vec(M^T); the transpose matters because dense
            # realisations are symmetric only up to roundoff
            t[self._dense_rows] += _real_times(self._dense, M.T.ravel())
        if self._vec_rows.size:
            V = self._V
            t[self._vec_rows] += (np.sum(V * (M.real @ V), axis=0)
                                  + 1j * np.sum(V * (M.imag @ V), axis=0))
        return t[self.column_class]

    # -- sampling support --------------------------------------------------

    def column_mean(self, i: int) -> NDArray[np.float64]:
        """Deterministic offset of column i: its declared mean, or the signal
        vector u of a low-rank column."""
        return self._offsets[self.column_class[i]]

    def column_root_matvec(self, i: int, g: NDArray[np.float64]) -> NDArray[np.float64]:
        """C_i^{1/2} g, per the column's structured root."""
        return self.columns[i].cov.root_matvec(g)

    # -- derived scalars ---------------------------------------------------

    def nu_hat(self) -> float:
        """Deterministic proxy ||(1/n) sum Sigma_i|| (spectral norm)."""
        avg = self.mixture_matrix(np.ones(self.n)).real
        return float(np.linalg.eigvalsh((avg + avg.T) / 2).max())

    def max_trace(self) -> float:
        """max_i tr(Sigma_i)."""
        return float(self.traces_against_all(np.eye(self.p)).real.max())


def _real_times(A: NDArray[np.float64], x: NDArray) -> NDArray[np.complex128]:
    """A @ x for real A and complex x as two real BLAS products; numpy would
    otherwise copy A to complex on every call."""
    return A @ x.real + 1j * (A @ x.imag)


# -- configuration loading --------------------------------------------------


def _parse_cov(spec: dict, p: int) -> CovarianceSpec:
    kind = spec.get("kind")
    if kind == "dense":
        return Dense(np.asarray(spec["matrix"], dtype=np.float64))
    if kind == "diagonal":
        return Diagonal(np.asarray(spec["entries"], dtype=np.float64))
    if kind == "scaled_identity":
        return ScaledIdentity(float(spec["sigma2"]))
    if kind == "rotated_family":
        orth = spec["orthogonal"]
        if isinstance(orth, dict):
            P = random_orthogonal(p, int(orth["seed"]))
        else:
            P = np.asarray(orth, dtype=np.float64)
        return RotatedFamily(
            base=np.asarray(spec["base"], dtype=np.float64),
            orthogonal=P,
            rotations=int(spec.get("rotations", 0)),
        )
    if kind == "low_rank_plus_identity":
        return LowRankPlusIdentity(
            u=np.asarray(spec["u"], dtype=np.float64), sigma2=float(spec["sigma2"])
        )
    raise ModelError(f"unknown covariance kind: {kind!r}")


def model_from_config(config: dict) -> EnsembleModel:
    """Build a model from a parsed JSON configuration document."""
    try:
        p = int(config["p"])
        n = int(config["n"])
        entries = config["columns"]
    except (KeyError, TypeError) as exc:
        raise ModelError(f"invalid model config: {exc}") from exc

    columns: list[Column] = []
    for entry in entries:
        repeat = int(entry.get("repeat", 1))
        if repeat < 1:
            raise ModelError("repeat must be >= 1")
        mean = entry.get("mean")
        mu = None if mean is None else np.asarray(mean, dtype=np.float64)
        cov_spec = entry.get("cov")
        if not isinstance(cov_spec, dict):
            raise ModelError("each column entry needs a 'cov' object")
        base_cov = _parse_cov(cov_spec, p)
        step = int(cov_spec.get("rotation_step", 0))
        for j in range(repeat):
            cov = base_cov
            if isinstance(base_cov, RotatedFamily) and step and j:
                cov = RotatedFamily(
                    base=base_cov.base,
                    orthogonal=base_cov.orthogonal,
                    rotations=base_cov.rotations + step * j,
                )
            columns.append(Column(cov=cov, mean=mu))
    if len(columns) != n:
        raise ModelError(f"config declares n={n} but expands to {len(columns)} columns")
    return EnsembleModel(p, n, columns)


def load_model(path: str) -> EnsembleModel:
    """Load and validate a JSON model configuration file."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(f"model file {path} is not valid JSON: {exc}") from exc
    return model_from_config(config)
