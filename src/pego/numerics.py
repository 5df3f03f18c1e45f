"""Dense linear algebra helpers and the seeded random source.

Matrices throughout the package are 2-D ``numpy.float64`` arrays in
row-major order. Randomness comes exclusively from numpy's Philox
counter-based bit generator, so a fixed seed yields the same stream on
every platform; that generator choice is permanent.

All functions here are pure: inputs are never mutated and results are
deterministic, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, NumericError, ShapeError

Matrix = np.ndarray


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator for ``seed``; trailing ints select disjoint substreams."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(stream))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, tag: int) -> int:
    """Stable 63-bit child seed for (seed, tag), for nested seeded stages."""
    state = np.random.SeedSequence((seed, tag)).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD; columns of ``u`` and ``v`` are the left/right singular vectors."""

    u: Matrix
    s: np.ndarray
    v: Matrix


def svd(m: Matrix) -> SvdResult:
    """Thin SVD with a fixed sign convention.

    Backed by LAPACK through numpy. Each left singular vector is flipped so
    that its largest-magnitude entry is positive, which keeps repeated runs
    and downstream principal-component reports reproducible.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"svd expects a 2-D matrix, got shape {m.shape}")
    if min(m.shape) < 1:
        raise ShapeError(f"svd needs a non-empty matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericError("svd input contains non-finite entries")
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"svd did not converge: {exc}") from exc
    v = vh.T.copy()
    flip = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0
    u[:, flip] = -u[:, flip]
    v[:, flip] = -v[:, flip]
    return SvdResult(u=u, s=s, v=v)


def explained_variance_ratio(res: SvdResult, k: int) -> list[float]:
    """Share of squared singular value mass carried by each of the top k."""
    if k > res.s.size:
        raise ShapeError(f"k={k} exceeds the {res.s.size} available singular values")
    total = float(np.sum(res.s**2))
    if total == 0.0:
        raise DegenerateInputError("all singular values are zero")
    return [float(x) for x in (res.s[:k] ** 2) / total]


def numerical_rank(s: np.ndarray, rel_tol: float) -> int:
    """Count of singular values above ``rel_tol`` times the largest."""
    s = np.asarray(s, dtype=np.float64)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))
