"""
Covariance ensemble models: per-column means and structured covariances.

A model describes ``n`` independent columns of dimension ``p``, column ``i``
having mean ``mu_i`` and centered covariance ``C_i``, so that the second
moment is ``Sigma_i = C_i + mu_i mu_i^T``.  Columns with the same mean and
covariance form a class, and the model stores each of its k classes once, so
the fixed-point solver's costs grow with k, not n.  Structured covariance
kinds keep them low: O(p) traces instead of O(p^2) for diagonal families, and
a model with no dense class and 2r < p, r being the number of classes that
carry a mean vector, inverts r x r matrices, never p x p ones, and its
solves' traces, nu_hat and max_trace form no p x p array.
The fixed-point map has one implementation, three class kernels that take
the class sums of the weights, one row per node of a grid or a contour:
``mixtures`` stacks the (1/n) sum_c W_c Sigma_c, ``factor_inverses`` the
resolvents (I_p - mixture)^-1, and ``class_traces`` the map's traces.  The
model picks their layout once, as _lu: where a class is dense or 2r >= p, a
stacked p x p LU, dense classes taking one GEMM each way against their stack;
otherwise the Woodbury path, one stacked r x r inverse, with two real GEMMs
for the diagonal classes.  That path reads coordinate classes, the coordinates
whose diagonal entries agree in every class, on which the resolvent's
diagonal is constant: a row of the map costs arrays of one entry per
coordinate class, never p-long ones.  ``functional_traces`` gives tr(A Q) for
fixed real matrices A, the contour projections' functionals, by the same
branches: on the Woodbury path from r x r blocks Y^T A Y, never forming Q.
``class_pair_traces`` gives tr(Sigma_c Q Sigma_c' Q'), the stability matrix
Psi on class values, and the map's traces from the same Q for Newton steps:
on a diagonal model from one product of the diagonals of Q and Q' against
the rows d_c d_c'.  The kernels batch their rows within one budget,
_CHAIN_BYTES, which also bounds the batches of the solver's continuation.
Each dense class is stored once, as the packed upper triangle of its
symmetric part (p(p+1)/2 entries), and every product reads that stack once:
the real and imaginary rows of the complex operand are stacked into one real
GEMM.
"""

from __future__ import annotations

import functools
import json
import operator
import weakref
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from .semimetric import DomainError

__all__ = [
    "ModelError",
    "Dense",
    "Diagonal",
    "ScaledIdentity",
    "RotatedFamily",
    "Column",
    "EnsembleModel",
    "load_model",
    "random_orthogonal",
]

_PSD_TOL = 1e-10
_ORTHO_TOL = 1e-10  # on |P P^T - I|, and on the relative trace drift of P^k
_MIN_EIG_FLOOR = 1e-8  # warn below it: lower-bounded-covariance assumption
# complex kernel arrays budgeted per row within _CHAIN_BYTES, a row being a
# node of a batched evaluation or a class of a class_pair_traces chunk.  With
# a dense class each array is p x p: tracemalloc reads 3.1 per node at the
# peak of a batched evaluation (the factor, its inverse and the half-size
# packed products and folds; p = 80), so 5 is a cap, not a count: it keeps
# B = 8 rows a batch at p = 80, and a sweep of B = 4, 6, 8, 11, 15 there
# (fig1-rotated paths, predicted starts) read B = 8 fastest on the support
# scan and within 6% of the fastest on the 120-node grid.  Chunks of 8
# classes raise psi_matrix's peak from 15 to 26 arrays, below the 33 of that
# grid.  With no dense class a row's arrays have one entry per coordinate
# class, vector pair and class instead of p^2.  The solver's own state per
# row, its Anderson rings and step temporaries, is not charged
_NODE_TEMPORARIES = 5
_CHAIN_BYTES = 4 << 20
# nodes per functional_traces pass: the p x p resolvents with a dense class,
# and otherwise the products Y W K^-1, grow with it; at 64 nodes at once the
# products A Y of the Woodbury path raised the Figure-2 projection's peak
_FUNCTIONAL_ROWS = 8


class ModelError(ValueError):
    """Fatal model configuration problem (parse error, non-PSD covariance...)."""


def _real(x, field: str, error: type[ValueError] = ModelError) -> NDArray[np.float64]:
    """x as a float64 array.  Complex x is taken as its real part where every
    imaginary part is zero and is otherwise an error naming the field, where
    numpy's cast would drop the imaginary parts with only a warning."""
    x = np.asarray(x)
    if x.dtype.kind == "c":
        if x.imag.any():
            raise error(f"{field} must be real: an imaginary part is nonzero")
        x = x.real
    return x.astype(np.float64, copy=False)


def _inv(F: NDArray) -> NDArray:
    """The inverses of the factors F, entry by entry for diagonal values (m, U)
    and matrix by matrix for a stack (m, s, s): where numpy raises or an inverse
    is not finite, the model's one DomainError of a singular resolvent factor."""
    try:
        with np.errstate(all="ignore"):
            inv = 1.0 / F if F.ndim == 2 else np.linalg.inv(F)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"singular resolvent factor: {exc}") from exc
    if not np.isfinite(inv).all():
        raise DomainError("singular resolvent factor: its inverse is not finite")
    return inv


def _index(value, field: str) -> int:
    """operator.index(value), as the config loader takes counts, or a ModelError."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise ModelError(f"{field} must be an integer: {exc}") from None


def _per_batch(nbytes: int) -> int:
    """How many items of nbytes each one batch may take within _CHAIN_BYTES:
    the one rule that sizes every batch, at least one item."""
    return max(1, _CHAIN_BYTES // nbytes)


def random_orthogonal(p: int, seed: int) -> NDArray[np.float64]:
    """Seeded random orthogonal matrix: QR of a standard Gaussian matrix,
    sign-fixed so R has positive diagonal (bit-reproducible)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    return q * np.sign(np.diag(r))


@dataclass(frozen=True, eq=False)
class Dense:
    """Arbitrary real symmetric PSD covariance.  A nearly symmetric matrix is
    stored as its symmetric part, decomposed once for the PSD check, the
    smallest eigenvalue and every draw.  A complex matrix is taken as its real
    part if every imaginary part is zero, and is otherwise a ModelError."""

    matrix: NDArray[np.float64]

    def __post_init__(self) -> None:
        m = _real(self.matrix, "dense covariance")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ModelError("dense covariance must be a square matrix")
        if not np.isfinite(m).all():
            raise ModelError("dense covariance must be finite")
        if not np.allclose(m, m.T, atol=1e-12):
            raise ModelError("dense covariance must be symmetric")
        m = (m + m.T) / 2
        w, v = np.linalg.eigh(m)
        if w.min() < -_PSD_TOL:
            raise ModelError("dense covariance is not positive semidefinite")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_eigh", (w, v))

    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Diagonal:
    """Diagonal covariance with nonnegative entries; complex entries are taken
    as their real parts if every imaginary part is zero, and are otherwise a
    ModelError."""

    entries: NDArray[np.float64]

    def __post_init__(self) -> None:
        d = _real(self.entries, "diagonal covariance entries").ravel()
        if d.size == 0:
            raise ModelError("diagonal covariance needs at least one entry")
        if not np.isfinite(d).all():
            raise ModelError("diagonal covariance entries must be finite")
        if d.min() < 0.0:
            raise ModelError("diagonal covariance entries must be nonnegative")
        object.__setattr__(self, "entries", d)

    def dim(self) -> int:
        return self.entries.size


@dataclass(frozen=True)
class ScaledIdentity:
    """sigma^2 * I_p with sigma^2 > 0."""

    sigma2: float

    def __post_init__(self) -> None:
        if not self.sigma2 > 0.0:
            raise ModelError("scaled identity requires sigma2 > 0")

    def dim(self) -> int | None:
        return None


@dataclass(frozen=True, eq=False)
class RotatedFamily:
    """(P^k)^T diag(d) P^k for a base diagonal d and an orthogonal P.  Either
    may be complex with zero imaginary parts, and is then taken as its real
    part; a nonzero imaginary part is a ModelError.

    P is checked once per array object: a P that passed _check_orthogonal is
    recorded by identity, as long as it lives, and a later family on that
    same object skips the check (its shape is still checked), so n families
    on one P cost one P P^T product.  A P changed in place after a family was
    built is therefore not checked again; families built earlier hold that
    same array and see the change as well."""

    base: NDArray[np.float64]
    orthogonal: NDArray[np.float64]
    rotations: int = 0

    def __post_init__(self) -> None:
        d = _real(self.base, "rotated family base").ravel()
        if d.size == 0:
            raise ModelError("rotated family needs at least one base entry")
        if not np.isfinite(d).all():
            raise ModelError("rotated family base entries must be finite")
        if d.min() < 0.0:
            raise ModelError("rotated family base entries must be nonnegative")
        P = _real(self.orthogonal, "rotated family orthogonal matrix")
        if P.shape != (d.size, d.size):
            raise ModelError("rotated family orthogonal matrix has wrong shape")
        if _ORTHOGONAL.get(id(P)) is not P:
            _check_orthogonal(P)
            _ORTHOGONAL[id(P)] = P
        object.__setattr__(self, "rotations", _index(self.rotations, "rotation count"))
        if self.rotations < 0:
            raise ModelError("rotation count must be nonnegative")
        object.__setattr__(self, "base", d)
        object.__setattr__(self, "orthogonal", P)

    def dim(self) -> int:
        return self.base.size


def _check_orthogonal(P: NDArray[np.float64]) -> None:
    """A ModelError unless the square P is finite and P P^T = I within
    _ORTHO_TOL, plus 1e-5 on the diagonal: allclose(P P^T, I, atol=_ORTHO_TOL)
    at half its cost."""
    if not np.isfinite(P).all():
        raise ModelError("rotated family matrix is not orthogonal: its entries must be finite")
    I = np.eye(len(P))
    if not (np.abs(P @ P.T - I) <= _ORTHO_TOL + 1e-5 * I).all():
        raise ModelError("rotated family matrix is not orthogonal")


# id(P) -> P for every P that passed _check_orthogonal and is still alive
_ORTHOGONAL = weakref.WeakValueDictionary()

CovarianceSpec = Dense | Diagonal | ScaledIdentity | RotatedFamily


@dataclass(frozen=True, eq=False)
class Column:
    """One column of the ensemble: optional mean and centered covariance.
    A complex mean is taken as its real part if every imaginary part is zero,
    and is otherwise a ModelError when the model is built.

    Columns and the covariance kinds with array fields compare and hash by
    identity, as their arrays have no single truth value."""

    cov: CovarianceSpec
    mean: NDArray[np.float64] | None = None


class EnsembleModel:
    """Immutable ensemble of n columns in dimension p.

    Columns with equal diagonal part and vector and the same dense covariance
    object are interchangeable in the fixed point, so they form one class,
    stored once; ``column_class`` maps each column to its class.  A class's
    second moment is ``Sigma_c = diag(d_c) + Dense_c + v_c v_c^T``, with at
    most one vector v_c (the mean vector), so that the two hot operations of
    the solver (weighted mixtures and traces against a fixed matrix) run
    vectorized over the k classes.  The r class vectors are
    the columns of the p x r matrix ``_V``.  The dense parts form the
    (k_d, p(p+1)/2) stack ``_dense``, one packed upper triangle of a symmetric
    part per row, read once per product: mixtures unpack it to an exactly
    symmetric matrix, traces fold their matrix onto it.  ``_pack`` alone
    reads a dense class's kind in the build; a rotated family's row costs
    O(|J| p^2), J the entries its base lifts above its minimum.  The kernels
    ``mixtures``, ``factor_inverses``, ``class_traces`` and
    ``functional_traces`` take class sums of the weights, shaped (m, k), as
    ``_class_weights`` gives them for a weight per column.  Unless ``_lu``
    (a dense class, or 2r >= p) the resolvent takes an r x r inverse, not a
    p x p one, and the model stores its U coordinate classes
    (``_coordinate_classes``): the (k, U) block of distinct diagonal entries,
    the class sizes n_u and one r x r Gram block of the vectors per class.
    The classes are the model's only description of its columns: the
    per-column methods ``realize_sigma``, ``mixture_matrix``,
    ``traces_against_all`` and ``column_root_matvec`` are views of the class
    storage, and the columns passed in are not kept.
    """

    def __init__(
        self,
        p: int,
        n: int,
        columns: Sequence[Column],
        *,
        mean_norm_bound: float = 10.0,
    ) -> None:
        p, n = _index(p, "p"), _index(n, "n")
        if p < 1 or n < 1:
            raise ModelError("p and n must be positive")
        if len(columns) != n:
            raise ModelError(f"expected {n} columns, got {len(columns)}")
        self.p, self.n = p, n
        self.warnings: list[str] = []

        # keyed by content, but dense specs by identity: hashing their
        # realised p x p matrices would cost more than it saves.  A column
        # object passed again takes its class from its first occurrence
        classes: dict[tuple, int] = {}
        parts: list[tuple] = []  # (diagonal part, dense spec, vector) per class
        seen: dict[int, int] = {}
        self.column_class = np.empty(n, dtype=np.intp)
        for i, col in enumerate(columns):
            c = seen.get(id(col))
            if c is None:
                c = seen[id(col)] = self._classify(i, col, classes, parts)
            self.column_class[i] = c

        self._diag = np.zeros((len(parts), p))
        self._offsets = np.zeros((len(parts), p))  # the class's vector, or zero
        for c, (diag, _, mu) in enumerate(parts):
            self._diag[c], self._offsets[c] = diag, 0.0 if mu is None else mu
        # each class's dense spec, or None where the diagonal row describes it;
        # the classes with a dense part, and those carrying a vector
        self._class_dense = [dense for _, dense, _ in parts]
        self._dense_rows = np.flatnonzero([dense is not None for dense in self._class_dense])
        self._vec_rows = np.flatnonzero([mu is not None for *_, mu in parts])
        self._dense = np.empty((0, p * (p + 1) // 2))
        min_eig = self._diag.min(axis=1)  # each class's smallest eigenvalue; _pack's if dense
        if self._dense_rows.size:
            # flat positions of the upper triangle and of its mirror image, and
            # the packed position of each of the p^2 entries
            i, j = np.triu_indices(p)
            self._up, self._lo = i * p + j, j * p + i
            self._full = np.empty(p * p, dtype=np.intp)
            self._full[self._up] = self._full[self._lo] = np.arange(i.size)
            with np.errstate(over="ignore", invalid="ignore"):  # judged by _check_drift
                self._dense, min_eig[self._dense_rows], want = self._pack(
                    [self._class_dense[c] for c in self._dense_rows])
        self._V = np.ascontiguousarray(self._offsets[self._vec_rows].T)
        self._lu = bool(self._dense_rows.size) or 2 * self._V.shape[1] >= p
        self._class_size = np.bincount(self.column_class).astype(np.float64)
        # sum_c n_c tr Sigma_c bounds every entry of the kernels' class-weighted sums;
        # tr Sigma_c from the diagonal rows, packed diagonals and |v_c|^2, kept for max_trace
        with np.errstate(over="ignore"):
            self._traces = self._diag.sum(axis=1) + (self._offsets ** 2).sum(axis=1)
            if self._dense_rows.size:
                packed = self._dense[:, self._full[:: p + 1]].sum(axis=1)
                self._check_drift(packed, want)
                self._traces[self._dense_rows] += packed
            if not all(np.isfinite(x).all() for x in (self._diag, self._dense, self._offsets)):
                raise ModelError("covariances and means must be finite")
            if not np.isfinite(self._class_size @ self._traces):
                raise ModelError("second moments overflow: sum of tr Sigma_i is not finite")
        if not self._lu:
            self._coordinate_classes()
        # one warning per column whose class breaks an assumption of the paper
        norms = np.linalg.norm(self._offsets, axis=1)[self.column_class]
        low = (min_eig < _MIN_EIG_FLOOR)[self.column_class]
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

    def _classify(self, i: int, col: Column, classes: dict[tuple, int], parts: list[tuple]
                  ) -> int:
        """The class of column i, appended to parts if it is new; a zero mean
        is no mean, tested once per distinct mean of a class."""
        spec, p = col.cov, self.p
        d = spec.dim()
        if d is not None and d != p:
            raise ModelError(f"column {i}: covariance dimension {d} != p={p}")
        mu = None if col.mean is None else _real(col.mean, f"column {i}: mean").ravel()
        if mu is not None and mu.size != p:
            raise ModelError(f"column {i}: mean has wrong length")
        dense = None
        if isinstance(spec, Diagonal):
            diag = spec.entries
        elif isinstance(spec, ScaledIdentity):
            diag = spec.sigma2
        elif isinstance(spec, RotatedFamily) and spec.rotations == 0:
            diag = spec.base
        else:
            diag, dense = 0.0, spec
        key = (diag.tobytes() if isinstance(diag, np.ndarray) else diag, id(dense),
               None if mu is None else mu.tobytes())
        c = classes.get(key)
        if c is None:
            if mu is not None and not mu.any():
                mu = None
            c = classes.setdefault(key[:2] + (None,) if mu is None else key, len(parts))
            if c == len(parts):
                parts.append((diag, dense, mu))
            classes[key] = c
        return c

    def _check_drift(self, traces: NDArray[np.float64], want: NDArray[np.float64]) -> None:
        """A ModelError naming the rotation count of the first dense row whose
        trace, of the dense stack's traces, is off its finite target in want,
        a rotated family's tr diag(d) as _pack gives it, by more than
        _ORTHO_TOL of it.  P^k rounds away from orthogonal as k grows: on the
        Figure-1 P (p = 80) |P^k P^kT - I| reads 4.6e-8 at k = 2^30, the trace
        is 1.3e-11 off at k = 10^6 and 2% off at 2^50, and P^(2^70) overflows."""
        bad = np.flatnonzero(~(np.abs(traces - want) <= _ORTHO_TOL * want) & np.isfinite(want))
        if bad.size:
            j = bad[0]
            raise ModelError(
                f"rotation count {self._class_dense[self._dense_rows[j]].rotations}: P^k has "
                f"drifted from orthogonal, its covariance has trace {traces[j]:.12g} against "
                f"tr diag(d) = {want[j]:.12g}")

    def _coordinate_classes(self) -> None:
        """On the Woodbury path: coordinates whose diagonal entries agree in
        every class form one coordinate class, coordinate j in class
        _coord[j], on which the resolvent's diagonal factor is constant.  Stores
        the (k, U) block _coord_diag of their distinct entries, their sizes
        _coord_size n_u, and the Gram blocks B_u = sum_{j in u} v_j v_j^T of
        the vectors, flattened to (U, r^2): one sort of the coordinates by
        their entries, each class a run of it, and one product V_u^T V_u per
        run of the sorted rows of V, so the build forms no (p, r^2) array of
        the terms v_j v_j^T."""
        p = self.p
        order = np.lexsort(self._diag)
        d = self._diag[:, order]
        first = np.ones(p, dtype=bool)
        np.any(d[:, 1:] != d[:, :-1], axis=0, out=first[1:])
        runs = np.cumsum(first) - 1
        self._coord = np.empty(p, dtype=np.intp)
        self._coord[order] = runs
        self._coord_diag = d[:, first]
        self._coord_size = np.bincount(runs).astype(np.float64)
        V, r = self._V[order], self._V.shape[1]
        ends = np.r_[np.flatnonzero(first), p]
        gram = np.empty((ends.size - 1, r, r))
        for B, a, b in zip(gram, ends[:-1], ends[1:]):
            np.matmul(V[a:b].T, V[a:b], out=B)
        self._coord_gram = gram.reshape(len(gram), r * r)

    # -- core operations --------------------------------------------------

    @property
    def is_diagonal(self) -> bool:
        """True when every Sigma_i is diagonal: no dense class and no vector,
        so each resolvent factor is a diagonal matrix."""
        return not (self._dense_rows.size or self._vec_rows.size)

    def _rows_within_budget(self) -> int:
        """How many rows one batched class-kernel evaluation may take for its
        _NODE_TEMPORARIES complex arrays per row to stay within _CHAIN_BYTES:
        arrays of p^2 entries on the stacked LU (_lu), else of U + r^2 + k."""
        row = (self.p * self.p if self._lu else
               self._coord_size.size + self._V.shape[1] ** 2 + self._class_size.size)
        return _per_batch(_NODE_TEMPORARIES * 16 * row)

    def _class_weights(self, w: NDArray) -> NDArray:
        """For each class, the sum of w_i over its n columns; real weights give
        real sums, which keeps the BLAS products that take them real."""
        w = np.asarray(w).ravel()
        if w.size != self.n:
            raise ModelError(f"weight vector has length {w.size}, expected {self.n}")
        if np.iscomplexobj(w):
            return self._class_weights(w.real) + 1j * self._class_weights(w.imag)
        return np.bincount(self.column_class, w, self._diag.shape[0])

    def _class_of(self, i: int) -> int:
        """Column i's class; an IndexError unless 0 <= i < n."""
        if not 0 <= i < self.n:
            raise IndexError(f"column index {i} out of range [0, {self.n})")
        return self.column_class[i]

    def realize_sigma(self, i: int) -> NDArray[np.float64]:
        """Dense Sigma_i = C_i + mu_i mu_i^T, read from column i's class as
        mixtures(n e_c)."""
        e = np.eye(1, self._diag.shape[0], self._class_of(i))
        return self.mixtures(self.n * e)[0].real

    def mixture_matrix(self, w: NDArray[np.complex128]) -> NDArray[np.complex128]:
        """(1/n) sum_i w_i Sigma_i."""
        return self.mixtures(self._class_weights(w)[None])[0]

    def traces_against_all(self, M: NDArray[np.complex128]) -> NDArray[np.complex128]:
        """tr(Sigma_i M) for every column at once."""
        return self.class_traces_of(M[None])[0, self.column_class]

    def mixtures(self, Wc: NDArray) -> NDArray[np.complex128]:
        """(1/n) sum_c Wc[row, c] Sigma_c for every row of the class sums Wc
        (m, k), as an (m, p, p) stack: the dense parts from one pass over the
        packed stack, the diagonal and vector parts added to it."""
        p, n = self.p, self.n
        out = (self._dense_mixtures(Wc[:, self._dense_rows]).reshape(-1, p, p)
               if self._dense_rows.size else np.zeros((len(Wc), p, p), dtype=np.complex128))
        out.reshape(-1, p * p)[:, :: p + 1] += _times_real(Wc, self._diag)
        if self._vec_rows.size:
            out += (self._V * Wc[:, None, self._vec_rows]) @ self._V.T
        out /= n
        return out

    def factor_inverses(self, Wc: NDArray) -> NDArray[np.complex128]:
        """(I_p - mixtures(Wc)[row])^{-1} for every row of the class sums Wc
        (m, k), by one stacked LU where _lu (a dense class, or 2r >= p: with
        r >= p, G = V^T D^-1 V has rank below r, and near it K rounds far above
        the factor, Yip 1986, where the LU costs no more than K), and otherwise
        as D^-1 + (Y W K^-1) Y^T from _woodbury (no W^-1, no p x p solve);
        either way _inv judges the factors, a DomainError if one is singular."""
        p = self.p
        if self._lu:
            F = self.mixtures(Wc)
            np.negative(F, out=F)
            F.reshape(-1, p * p)[:, :: p + 1] += 1.0
            return _inv(F)
        q, M, _ = self._woodbury(Wc)
        inv_d = q[:, self._coord]
        if M is None:
            Q = np.zeros((len(Wc), p, p), dtype=np.complex128)
        else:
            Y = inv_d[:, :, None] * self._V
            Q = (Y @ M) @ Y.transpose(0, 2, 1)
        Q.reshape(-1, p * p)[:, :: p + 1] += inv_d
        return Q

    def class_traces(self, Wc: NDArray) -> NDArray[np.complex128]:
        """tr(Sigma_c Q[row]) for every class c and every row of the class
        sums Wc (m, k), Q being factor_inverses(Wc).  On the Woodbury path no
        p-long array is formed: D^-1 is q_u on coordinate class u, and Q's
        diagonal there is q_u + q_u^2 v_j^T (W K^-1) v_j, so that
        tr(D_c Q) = sum_u d_cu (n_u q_u + q_u^2 tr(W K^-1 B_u)); and
        v_c^T Q v_c = n (K^-1 G)_cc with G = V^T D^-1 V."""
        if self._lu:
            return self.class_traces_of(self.factor_inverses(Wc))
        q, M, KG = self._woodbury(Wc)
        x = q * self._coord_size
        if M is None:
            return _times_real(x, self._coord_diag.T)
        x += q * q * _times_real(M.reshape(len(M), -1), self._coord_gram.T)
        t = _times_real(x, self._coord_diag.T)
        t[:, self._vec_rows] += self.n * np.diagonal(KG, axis1=1, axis2=2)
        return t

    def class_pair_traces(self, Wc: NDArray, Wcp: NDArray | None = None
                          ) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
        """class_traces(Wc), and tr(Sigma_c Q[row] Sigma_c' Q'[row]) as (m, k, k)
        for every class pair and row of the class sums Wc and Wcp (m, k), Q and
        Q' being factor_inverses of Wc and Wcp (Q' = Q if Wcp is None), both
        from the Q the pairs need.  On a diagonal model the pairs are the product
        _diagonal_pairs of the diagonals of Q and Q'.  Otherwise one product pair
        Q Sigma_c Q' per class, Sigma_c read as mixtures(n e_c); each chunk of
        classes within _CHAIN_BYTES takes its traces in one pass over the stack."""
        if self.is_diagonal:
            q = self._woodbury(Wc)[0]
            qp = q if Wcp is None else self._woodbury(Wcp)[0]
            t = _times_real(q * self._coord_size, self._coord_diag.T)
            return t, self._diagonal_pairs(q, qp)
        m, k, p = len(Wc), self._diag.shape[0], self.p
        Q = self.factor_inverses(Wc)[:, None]
        Qp = Q if Wcp is None else self.factor_inverses(Wcp)[:, None]
        chunk = _per_batch(m * _NODE_TEMPORARIES * 16 * p * p)
        E = self.n * np.eye(k)
        t = np.concatenate([
            self.class_traces_of((Q @ self.mixtures(rows) @ Qp).reshape(-1, p, p)).reshape(m, -1, k)
            for rows in np.split(E, range(chunk, k, chunk))], axis=1)
        return self.class_traces_of(Q[:, 0]), t.transpose(0, 2, 1)

    def _diagonal_pairs(self, q: NDArray, qp: NDArray) -> NDArray[np.complex128]:
        """sum_j d_cj d_c'j q_j qp_j for the diagonal rows d_c and every row of
        the values q and qp (m, U) of two diagonals on the coordinate classes,
        as (m, k, k): n_u q qp against the rows d_c d_c' of _coord_diag, two
        real GEMMs per block of classes c within _CHAIN_BYTES, each class
        charged its k rows of U entries and its m rows of k products."""
        (m, U), d = q.shape, self._coord_diag
        k = len(d)
        qq = q * qp * self._coord_size
        out = np.empty((m, k, k), dtype=np.complex128)
        b = _per_batch(16 * k * (U + m))
        for c in range(0, k, b):
            rows = (d[c:c + b, None] * d).reshape(-1, U)
            out[:, c:c + b] = _times_real(qq, rows.T).reshape(m, -1, k)
        return out

    def functional_traces(self, Wc: NDArray, As: NDArray) -> NDArray[np.complex128]:
        """tr(A_a Q[row]) for every real matrix A_a of the (a, p, p) stack As
        and every row of the class sums Wc (m, k), Q being
        factor_inverses(Wc), as an (m, a) array.  Q is symmetric, so
        tr(A Q) = sum(A * Q).  Where _lu that is one GEMM of the resolvents
        against the flattened stack, _FUNCTIONAL_ROWS rows a pass (fewer,
        within _CHAIN_BYTES).  Otherwise no p x p matrix is formed:
        D^-1 is q_u on coordinate class u, P_u the projection on its
        coordinates, so tr(A D^-1) = sum_u q_u tr(P_u A), and Woodbury's
        correction sum((Y^T A Y) * (W K^-1)^T) is summed as
        sum((A Y) * (Y W K^-1)) since W K^-1 = (n W^-1 - G)^-1 is symmetric,
        with A Y = sum_u q_u (A P_u V).  The products A P_u V are formed once
        per call, in chunks of coordinate classes within _CHAIN_BYTES, and
        every row reads them."""
        a, p, m = len(As), self.p, len(Wc)
        A = As.reshape(a, p * p)
        if self._lu:
            b = min(_FUNCTIONAL_ROWS, self._rows_within_budget())
            return np.concatenate([
                _times_real(self.factor_inverses(Wc[i:i + b]).reshape(-1, p * p), A.T)
                for i in range(0, m, b)])
        q, M, _ = self._woodbury(Wc)
        U = q.shape[1]
        t = _times_real(q, np.array([np.bincount(self._coord, d, U) for d in A[:, :: p + 1]])
                         .reshape(a, U).T)
        if M is None:
            return t
        V = self._V
        r = V.shape[1]
        # each chunk's P_u V (p, c, r) and A P_u V (a, c, p r)
        chunk = _per_batch(8 * p * r * (1 + 2 * a))
        for u in np.split(np.arange(U), range(chunk, U, chunk)):
            PV = (self._coord[:, None] == u)[:, :, None] * V[:, None]
            APV = (As.reshape(a * p, p) @ PV.reshape(p, -1)).reshape(a, p, u.size, r)
            APV = APV.transpose(0, 2, 1, 3).reshape(a * u.size, p * r)
            for i in range(0, m, _FUNCTIONAL_ROWS):
                rows = slice(i, i + _FUNCTIONAL_ROWS)
                YM = (q[rows][:, self._coord, None] * (V @ M[rows])).reshape(-1, p * r)
                AYM = _times_real(YM, APV.T).reshape(len(YM), a, u.size)
                t[rows] += np.einsum("rau,ru->ra", AYM, q[rows][:, u])
        return t

    def _woodbury(self, Wc: NDArray) -> tuple[NDArray | None, ...]:
        """Unless _lu each factor is D - V W V^T / n, D diagonal and
        W the class sums of the r vectors, and its inverse is
        D^-1 + Y W K^-1 Y^T for Y = D^-1 V, G = V^T Y and K = nI - G W: one
        stacked r x r inverse.  D^-1 is constant on coordinate classes, so
        G = sum_u q_u B_u.  Per row of Wc: the values q (m, U) of D^-1 on the
        coordinate classes, and (W K^-1, K^-1 G), or two None if r = 0.  D^-1
        and K^-1 are _inv's, a DomainError where either is singular."""
        q = _inv(1.0 - _times_real(Wc, self._coord_diag) / self.n)
        r = self._V.shape[1]
        if not r:
            return q, None, None
        wv = Wc[:, self._vec_rows]
        G = _times_real(q, self._coord_gram).reshape(-1, r, r)
        Kinv = _inv(self.n * np.eye(r) - G * wv[:, None, :])
        return q, wv[:, :, None] * Kinv, Kinv @ G

    def class_traces_of(self, M: NDArray[np.complex128]) -> NDArray[np.complex128]:
        """tr(Sigma_c M[row]) for every class c and every matrix of the
        (m, p, p) stack M at once: the dense parts take one GEMM against the
        packed stack for all m matrices."""
        if M.shape[1:] != (self.p, self.p):
            raise ModelError("matrix dimension mismatch")
        t = _times_real(np.diagonal(M, axis1=1, axis2=2), self._diag.T)
        if self._dense_rows.size:
            t[:, self._dense_rows] += self._dense_traces(M.reshape(len(M), -1))
        if self._vec_rows.size:
            t[:, self._vec_rows] += np.sum(self._V * _times_real(M, self._V), axis=1)
        return t

    # -- the packed dense stack --------------------------------------------

    def _pack(self, specs: list[CovarianceSpec]) -> tuple[NDArray[np.float64], ...]:
        """For each dense spec: its packed row, the upper triangle of its
        symmetric part; its smallest eigenvalue; and the trace _check_drift
        holds the row to, tr diag(d) for a rotated family and NaN for a Dense,
        whose stored matrix is exactly symmetric.  A rotated family is
        (P^k)^T diag(d) P^k = min(d) I + Y^T diag(e) Y, Y the rows J of P^k
        that _orbit yields, J = {j : d_j > min d} and e = d_J - min d: the
        upper triangle of Y^T (e * Y), one GEMM of inner dimension |J|, plus
        min(d) on the packed diagonal, O(|J| p^2) per family with the walk.
        Scaling Y's rows by e, not both factors by sqrt(e), keeps an exact
        rotation exact: where P^k is a signed permutation every term is an
        entry of e times 0 or +-1, where sqrt(e) rounds (d = (1, 2, 3) read
        3.0000000000000004 by Y^T Y on the rows scaled by sqrt(e))."""
        rows = np.empty((len(specs), self._up.size))
        floors, want = np.empty(len(specs)), np.full(len(specs), np.nan)
        diagonal = self._full[:: self.p + 1]
        walk = _orbit([spec for spec in specs if not isinstance(spec, Dense)])
        for j, (row, spec) in enumerate(zip(rows, specs)):
            if isinstance(spec, Dense):
                spec.matrix.ravel().take(self._up, out=row)
                floors[j] = spec._eigh[0].min()
                continue
            d, Y = spec.base, next(walk)
            lo = floors[j] = d.min()
            want[j] = d.sum()
            (Y.T @ ((d[d > lo] - lo)[:, None] * Y)).ravel().take(self._up, out=row)
            row[diagonal] += lo
        return rows, floors, want

    def _dense_mixtures(self, X: NDArray) -> NDArray[np.complex128]:
        """sum_c X[:, c] D_c over the dense parts D_c, as (m, p^2) flat and
        exactly symmetric matrices, from one pass over the stack."""
        return _times_packed(X, self._dense).take(self._full, axis=1)

    def _dense_traces(self, M: NDArray) -> NDArray[np.complex128]:
        """tr(D_c M) over the dense parts D_c for each row of the flat
        (m, p^2) M, symmetric or not, from one pass over the stack: M's upper
        triangle plus its lower one, the diagonal counted once, dotted with
        each packed row."""
        v = M.take(self._up, axis=1) + M.take(self._lo, axis=1)
        v[:, self._full[:: self.p + 1]] /= 2
        return _times_packed(v, self._dense.T)

    # -- sampling support --------------------------------------------------

    def column_root_matvec(self, i: int, g: NDArray[np.float64]) -> NDArray[np.float64]:
        """C_i^{1/2} g for a vector g, or for each column of a (p, m) block, by
        _roots, which draws take too; a ModelError unless g has p rows."""
        c = self._class_of(i)
        if g.shape[:1] != (self.p,):
            raise ModelError(f"matrix dimension mismatch: g has shape {g.shape}, p = {self.p}")
        return self._roots(np.full(g.size // self.p, c), g.reshape(self.p, -1)).reshape(g.shape)

    def columns_from_normals(self, G: NDArray[np.float64]) -> NDArray[np.float64]:
        """mu_i + C_i^{1/2} G[:, i] for every column i of the (p, n) block G:
        _roots on the column classes, the routine column_root_matvec takes;
        a ModelError unless G is (p, n)."""
        if G.shape != (self.p, self.n):
            raise ModelError(f"matrix dimension mismatch: G has shape {G.shape}, "
                             f"expected (p, n) = {(self.p, self.n)}")
        return self._roots(self.column_class, G) + self._offsets.T[:, self.column_class]

    def _roots(self, classes: NDArray[np.intp], G: NDArray[np.float64]) -> NDArray[np.float64]:
        """C_c^{1/2} G[:, j] for each column j of the (p, m) block G, c = classes[j]:
        sqrt(d_c) on every column, then, columns grouped by one stable sort,
        one product V sqrt(w) V^T per Dense class and one _rotate per orthogonal
        P, over the root-scaled columns of every rotated family on P."""
        X = np.sqrt(self._diag.T)[:, classes] * G
        counts = np.bincount(classes, minlength=len(self._diag))
        order, ends = np.argsort(classes, kind="stable"), np.cumsum(counts)
        rotated: dict[int, tuple] = {}  # id(P) -> (P, its columns, their counts)
        for c in self._dense_rows[counts[self._dense_rows] > 0]:
            spec, cols = self._class_dense[c], order[ends[c] - counts[c]:ends[c]]
            if isinstance(spec, Dense):
                w, v = spec._eigh
                X[:, cols] = v @ (np.sqrt(np.clip(w, 0.0, None)) * (v.T @ G[:, cols]).T).T
            else:
                X[:, cols] = np.sqrt(spec.base)[:, None] * G[:, cols]
                _, js, ks = rotated.setdefault(id(spec.orthogonal), (spec.orthogonal, [], []))
                js += cols.tolist()
                ks += [spec.rotations] * cols.size
        for P, js, ks in rotated.values():
            X[:, js] = _rotate(P, np.array(ks, dtype=object), X[:, js])
        return X

    # -- derived scalars ---------------------------------------------------

    @functools.cached_property
    def _mean_field(self) -> EnsembleModel:
        """The model's mean field: n columns of one Diagonal covariance whose
        entries are the eigenvalues of (1/n) sum_i Sigma_i (its one p x p
        eigensolve), clipped at 0.  It is exact when every column has the same
        Sigma_i; as one diagonal class its fixed point costs O(p) per step."""
        avg = self.mixtures(self._class_size[None])[0].real
        spec = Column(Diagonal(np.clip(np.linalg.eigvalsh((avg + avg.T) / 2), 0.0, None)))
        return EnsembleModel(self.p, self.n, [spec] * self.n)

    def nu_hat(self) -> float:
        """||(1/n) sum Sigma_i||, computed once per model (_nu_hat)."""
        return self._nu_hat

    @functools.cached_property
    def _nu_hat(self) -> float:
        """nu_hat, the mean field's where _lu.  Otherwise the average
        is D + S S^T, D = sum_c (n_c/n) diag(d_c) = d_u on coordinate class u and
        S = V diag(n_c/n)^(1/2): max_u d_u, or max_u d_u + tau for the largest tau
        solving the secular equation lambda_max(sum_u C_u / (g_u + tau)) = 1,
        g_u = max d - d_u and C_u = S^T P_u S (Golub 1973).  1/lambda_max rises
        and is concave in tau, so Newton's steps rise to the root from below: from
        the largest Rayleigh quotient d_u + C_u[a, a], so that no C_u / (g_u + tau)
        exceeds r, and from no nearer the top than the rounding of max_u d_u."""
        if self._lu:
            return self._mean_field.nu_hat()
        d = (self._class_size / self.n) @ self._coord_diag
        s = np.sqrt(self._class_size[self._vec_rows] / self.n)
        r, ss, g = s.size, np.outer(s, s).ravel(), d.max() - d
        diagonals = self._coord_gram[:, :: r + 1] * s * s  # of the C_u
        if not diagonals.any():
            return float(d.max())
        tau = (diagonals.max(axis=1) - g).max()
        if tau:
            tau = max(tau, np.finfo(float).eps * (d.max() + diagonals.sum()))
        while True:  # at tau = 0 the C_u of no gap are zero: no term
            x = np.divide(1.0, g + tau, out=np.zeros_like(g), where=g + tau > 0)
            lam, vec = np.linalg.eigh((x @ self._coord_gram * ss).reshape(r, r))
            q = np.bincount(self._coord, (self._V @ (s * vec[:, -1])) ** 2, g.size)  # v^T C_u v
            # the derivative as sum x (x q): x^2 alone under- or overflows
            step = lam[-1] * (lam[-1] - 1.0) / (x @ (x * q)) if lam[-1] > 1.0 else 0.0
            if not tau + step > tau:
                return float(d.max() + tau)
            tau += step

    def max_trace(self) -> float:
        """max_i tr(Sigma_i)."""
        return float(self._traces.max())


def _orbit(families: Sequence[RotatedFamily]) -> Iterator[NDArray[np.float64]]:
    """For each rotated family, in order, the rows Y = (P^k)[J] of its power
    that its base lifts above its minimum, J = {j : d_j > min d}, an (|J|, p)
    block.  It serves _pack alone: draws rotate by _rotate, which keeps no
    power.  Families sharing one orthogonal matrix P and one J share a walk:
    the block steps as Y_k = Y_j P^(k-j) from the last count j it reached, an
    |J| x p by p x p product, and P is raised to the k-th power only when k
    falls below j."""
    orbit: dict[tuple, tuple[int, NDArray]] = {}  # (id(P), J) -> (j, Y_j)
    for spec in families:
        P, k, d = spec.orthogonal, spec.rotations, spec.base
        J = np.flatnonzero(d > d.min())
        key = id(P), J.tobytes()
        j, Y = orbit.get(key, (k + 1, None))  # no power yet: as if k fell
        Y = np.linalg.matrix_power(P, k)[J] if k < j else Y @ np.linalg.matrix_power(P, k - j)
        orbit[key] = k, Y
        yield Y


def _rotate(P: NDArray[np.float64], k: NDArray, B: NDArray[np.float64]) -> NDArray[np.float64]:
    """(P^T)^k[j] B[:, j] for each column j of the (p, m) block B, in place,
    by binary powering (Knuth, TAOCP vol. 2, 4.6.3): T = (P^T)^(2^b) is one
    GEMM on the columns whose count has bit b set, and T is squared between
    bits, O(p^3 log max k) with no power kept.  Its rounding grows as O(k eps),
    as the orbit's does.  The counts k are Python ints (dtype object): where
    P^k is exact, as for a signed permutation, a count past int64 is valid."""
    T = P.T
    while True:
        on = np.flatnonzero(k & 1)
        if on.size:
            B[:, on] = T @ B[:, on]
        k = k >> 1
        if not k.any():
            return B
        T = T @ T


def _times_real(x: NDArray, A: NDArray[np.float64]) -> NDArray[np.complex128]:
    """x @ A for complex x and real A as two real BLAS products; numpy would
    otherwise copy A to complex on every call."""
    return x.real @ A + 1j * (x.imag @ A)


def _times_packed(x: NDArray, A: NDArray[np.float64]) -> NDArray[np.complex128]:
    """x @ A for complex x of shape (m, k) and a large real A, read once: one
    real GEMM of x's real rows stacked over its imaginary ones.  With few
    rows the two products of _times_real each cost a pass over A; where A is
    small they cost less than the stacking."""
    y = np.concatenate((x.real, x.imag)) @ A
    return y[: len(x)] + 1j * y[len(x):]


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
            P = random_orthogonal(p, operator.index(orth["seed"]))
        else:
            P = np.asarray(orth, dtype=np.float64)
        return RotatedFamily(
            base=np.asarray(spec["base"], dtype=np.float64),
            orthogonal=P,
            rotations=spec.get("rotations", 0),
        )
    raise ModelError(f"unknown covariance kind: {kind!r}")


def _parse_entry(entry: dict, p: int, left: int) -> list[Column]:
    """The ``repeat`` columns of one configuration entry, a ModelError before
    any is built where repeat exceeds the left columns that n allows."""
    if not isinstance(entry, dict) or not isinstance(entry.get("cov"), dict):
        raise ModelError("must be an object with a 'cov' object")
    repeat = operator.index(entry.get("repeat", 1))
    if repeat < 1:
        raise ModelError("repeat must be >= 1")
    if repeat > left:
        raise ModelError(f"repeat {repeat} exceeds the {left} columns left of n")
    mu = None if entry.get("mean") is None else np.asarray(entry["mean"], dtype=np.float64)
    cov = _parse_cov(entry["cov"], p)
    step = operator.index(entry["cov"].get("rotation_step", 0))
    if not (isinstance(cov, RotatedFamily) and step):
        return [Column(cov, mean=mu)] * repeat
    return [Column(RotatedFamily(cov.base, cov.orthogonal, cov.rotations + step * j), mean=mu)
            for j in range(repeat)]


def model_from_config(config: dict) -> EnsembleModel:
    """Build a model from a parsed JSON configuration document."""
    try:
        p = operator.index(config["p"])
        n = operator.index(config["n"])
        entries = config["columns"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"invalid model config: {exc}") from exc
    if not isinstance(entries, list):
        raise ModelError("invalid model config: 'columns' must be a list")

    columns: list[Column] = []
    for idx, entry in enumerate(entries):
        try:
            columns += _parse_entry(entry, p, n - len(columns))
        except KeyError as exc:
            raise ModelError(f"column entry {idx}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ModelError(f"column entry {idx}: {exc}") from exc
        except MemoryError:  # as CPython's list-size check raises at n = 2^62, allocating nothing
            raise ModelError(f"column entry {idx}: n = {n} columns do not fit in memory") from None
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
