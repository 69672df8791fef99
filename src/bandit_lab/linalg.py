"""Dense symmetric linear algebra shared by every policy.

All routines operate on plain float64 numpy arrays. Design matrices built
from noise-corrected running sums can be indefinite, so the spectral
truncation helpers below only ever invert eigenvalues above an explicit
positive threshold.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateSpectrumError",
    "SymEigen",
    "cutoff_pinv_solve",
    "eigendecompose",
    "gaussian_sampler",
    "rank_threshold",
    "spectral_norm",
    "sym_matrix",
]


class DegenerateSpectrumError(ValueError):
    """A truncated inverse was requested across a non-positive eigenvalue."""


def sym_matrix(entries) -> np.ndarray:
    """Return a validated, exactly symmetric float64 copy of a square matrix.

    Inputs are symmetrized as (A + A.T) / 2 rather than rejected: running
    sums of outer products accumulate harmless floating-point asymmetry.
    """
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return (a + a.T) / 2.0


def gaussian_sampler(cov):
    """Return draw(rng, shape) producing N(0, cov) rows along the last axis.

    cov is validated and symmetrized by sym_matrix; np.linalg.LinAlgError
    (a ValueError) is raised unless it is positive-definite. Diagonal
    covariances use an elementwise scale, which is bitwise identical to the
    Cholesky route but skips a dense matmul over the draw.
    """
    c = sym_matrix(cov)
    variances = np.diagonal(c)
    if np.count_nonzero(c - np.diag(variances)) == 0:
        if not np.all(variances > 0):
            raise np.linalg.LinAlgError("covariance must be positive-definite")
        scale = np.sqrt(variances)

        def draw(rng, shape):
            eps = rng.standard_normal(shape)
            eps *= scale
            return eps

        return draw
    try:
        chol_t = np.linalg.cholesky(c).T
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("covariance must be positive-definite") from None
    return lambda rng, shape: rng.standard_normal(shape) @ chol_t


@dataclass(frozen=True)
class SymEigen:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Column i of ``eigenvectors`` pairs with ``eigenvalues[i]``; the columns
    are orthonormal and the decomposition reconstructs the input within
    floating-point roundoff.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def eigendecompose(a) -> SymEigen:
    """Eigendecompose a symmetric matrix with eigenvalues sorted descending.

    Backed by LAPACK's iterative symmetric solver via numpy; deterministic
    for a fixed input up to the sign of each eigenvector. A finite, exactly
    symmetric float64 array skips sym_matrix, whose average would not change it.
    """
    square = isinstance(a, np.ndarray) and a.dtype == float and a.ndim == 2 and a.shape[0] == a.shape[1] > 0
    m = a if square and np.isfinite(a).all() and (a == a.T).all() else sym_matrix(a)
    vals, vecs = np.linalg.eigh(m)  # ascending
    return SymEigen(
        eigenvalues=np.ascontiguousarray(vals[::-1]),
        eigenvectors=np.ascontiguousarray(vecs[:, ::-1]),
    )


def rank_threshold(eig: SymEigen, threshold: float) -> int:
    """Count eigenvalues >= threshold (inclusive boundary).

    Returns 0 when no eigenvalue qualifies, which downstream code treats as
    "estimate nothing yet" rather than an error.
    """
    if not threshold >= 0.0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    return int(np.count_nonzero(eig.eigenvalues >= threshold))


def truncated_pinv_apply(eig: SymEigen, k: int, y) -> np.ndarray:
    """Apply the rank-k truncated pseudo-inverse to a vector.

    Computes U_{1:k} diag(1/lambda_1..1/lambda_k) U_{1:k}^T y. With k = 0
    the zero vector is returned, so a fresh (all-zero) design matrix yields
    the zero estimate instead of failing.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (eig.dim,):
        raise ValueError(f"vector shape {y.shape} does not match dim {eig.dim}")
    if not 0 <= k <= eig.dim:
        raise ValueError(f"k must lie in [0, {eig.dim}], got {k}")
    if k == 0:
        return np.zeros(eig.dim)
    if eig.eigenvalues[k - 1] <= 0.0:
        raise DegenerateSpectrumError(
            f"eigenvalue {k} is {eig.eigenvalues[k - 1]!r}; cannot invert"
        )
    top = eig.eigenvectors[:, :k]
    return top @ ((top.T @ y) / eig.eigenvalues[:k])



def spectral_norm(a) -> float:
    """Largest singular value of a (possibly rectangular) matrix."""
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim {m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if m.size == 0 or not m.any():
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False).max())  # np.linalg.norm(m, 2), without its wrapper



def cutoff_pinv_solve(a, y, rel_cutoff: float = 1e-8) -> np.ndarray:
    """Solve A x = y by pseudo-inverse, dropping eigenvalues < rel_cutoff * lambda_max.

    Intended for positive semi-definite Gram matrices that may be singular
    (e.g. fewer observations than dimensions); returns the zero vector when
    the whole spectrum is non-positive.
    """
    eig = eigendecompose(a)
    lam_max = eig.eigenvalues[0]
    if lam_max <= 0.0:
        return np.zeros(eig.dim)
    k = rank_threshold(eig, rel_cutoff * lam_max)
    return truncated_pinv_apply(eig, k, y)
