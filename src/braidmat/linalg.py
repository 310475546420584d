"""Dense complex linear-algebra kernels used by every other module.

Matrices are plain 2-D numpy arrays (square, float64 or complex128) and
vectors are 1-D arrays.  All functions are pure: inputs are never mutated
and results are freshly allocated, so values can be shared freely between
threads.  The per-sample checks in ``verify`` form no dense matrix: they
read the coefficient grids and their 2x2 orbit blocks (see
``braid.orbit_blocks``), and exponentiate a stack of blocks.  No command
calls ``kron`` or ``schmidt_coefficients``: they are the tests' oracles
for the block paths, kept here because span tracers wrap
``verify.kron`` and ``entangle.schmidt_coefficients``.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from .errors import AccuracyError, DimensionError, SizeLimitError

# Catches accidentally huge Kronecker products: 4096 is the dense triple
# space of N = 16 (a 4096 x 4096 complex matrix takes 268 MB).  No
# verification check calls kron, so the cap bounds no side length.
MAX_KRON_DIM = 4096

# Largest matrix norm accepted by matrix_exponential; past this point the
# scaling-and-squaring bound no longer guarantees ~1e-12 backward error.
MAX_EXP_NORM = 100.0

_EXP_TAYLOR_TERMS = 18
_EXP_SCALE_TARGET = 0.5


def as_matrix(a: Any) -> np.ndarray:
    """Coerce to a square 2-D array with finite entries."""
    m = np.asarray(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise DimensionError("empty matrix")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def as_vector(v: Any) -> np.ndarray:
    """Coerce to a 1-D array with finite entries."""
    w = np.asarray(v)
    if w.ndim != 1 or w.shape[0] == 0:
        raise DimensionError(f"expected a non-empty vector, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("vector has non-finite entries")
    return w


def kron(a: np.ndarray, b: np.ndarray, max_dim: int = MAX_KRON_DIM) -> np.ndarray:
    """Kronecker product a (x) b.

    Entry ((i*db + k), (j*db + l)) equals a[i, j] * b[k, l].  Raises
    SizeLimitError when the product dimension would exceed ``max_dim``.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    out_dim = a.shape[0] * b.shape[0]
    if out_dim > max_dim:
        raise SizeLimitError(
            f"kron result dimension {out_dim} exceeds the cap {max_dim}"
        )
    return np.kron(a, b)


def matrix_exponential(a: np.ndarray, max_norm: float = MAX_EXP_NORM) -> np.ndarray:
    """exp(A) by scaling and squaring with a truncated Taylor kernel.

    The argument is scaled by a power of two until its 1-norm is at most
    0.5, the series is summed by Horner's rule, and the result is squared
    back up.  Backward error stays around 1e-12 (relative, max-norm) for
    1-norms up to ``max_norm``; larger inputs raise AccuracyError rather
    than silently degrade.  A stack (..., n, n) is scaled as one, by the
    largest 1-norm of its matrices.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise DimensionError(f"expected square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    norm = float(np.abs(a).sum(axis=-2).max())
    if norm > max_norm:
        raise AccuracyError(
            f"matrix 1-norm {norm:.3g} exceeds {max_norm:.3g}; "
            "accuracy is not guaranteed"
        )
    squarings = 0
    if norm > _EXP_SCALE_TARGET:
        squarings = int(math.ceil(math.log2(norm / _EXP_SCALE_TARGET)))
    eye = np.eye(a.shape[-1], dtype=np.result_type(a.dtype, np.float64))
    scaled = (a / (2.0 ** squarings)).astype(eye.dtype)
    out = np.broadcast_to(eye, a.shape).copy()
    for k in range(_EXP_TAYLOR_TERMS, 0, -1):
        out = eye + (scaled @ out) / k
    for _ in range(squarings):
        out = out @ out
    if not np.isfinite(out).all():
        raise AccuracyError("matrix exponential overflowed")
    return out


def schmidt_coefficients(v: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Singular values of the dim_a x dim_b reshaping of a bipartite vector.

    The vector is indexed row-major, component (i*dim_b + j) holding the
    amplitude of the i-th basis state of the first factor with the j-th of
    the second.  Returned values are non-negative and descending; their
    squares sum to the squared norm of ``v``.
    """
    v = as_vector(v)
    if dim_a <= 0 or dim_b <= 0 or v.shape[0] != dim_a * dim_b:
        raise DimensionError(
            f"vector length {v.shape[0]} does not factor as {dim_a}x{dim_b}"
        )
    return np.linalg.svd(v.reshape(dim_a, dim_b), compute_uv=False)


def matrix_to_json(a: np.ndarray) -> dict:
    """Serialize a matrix as {"dim": d, "entries": [[re, im], ...]} row-major.

    Floats pass through unrounded; json.dump renders them in shortest
    round-trip decimal form.
    """
    a = as_matrix(a)
    pairs = np.ascontiguousarray(a, dtype=complex).view(np.float64)
    return {"dim": int(a.shape[0]), "entries": pairs.reshape(-1, 2).tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of matrix_to_json; validates shape and finiteness."""
    try:
        dim = int(obj["dim"])
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise DimensionError(f"malformed matrix object: {exc}") from exc
    if dim <= 0 or len(entries) != dim * dim:
        raise DimensionError(
            f"entry count {len(entries)} does not match dim {dim}"
        )
    flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    return as_matrix(flat.reshape(dim, dim))
