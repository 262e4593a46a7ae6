"""Seeded random generators for points, polynomials, and test data.

All draws go through an explicit ``numpy.random.Generator`` so that every
caller (library verification loops, the CLI, tests) is deterministic under
a fixed seed.

In-domain points are random directions Z scaled to ||Q0(t Z)|| just below
a target.  The samples of one level are handled as one stack of K points:
one draw that reads the generator exactly as K ``random_tuple`` calls
would, one stacked evaluation of Q0's homogeneous parts H_k(Z), so that
Q0(t Z) = sum_k t**k H_k(Z), and one stacked norm per step.  A homogeneous
Q0 (every row or diagonal pencil) gets t in closed form from ||H_k(Z)||;
any other Q0 is bisected on t by re-weighting the fixed parts, all K
points at once under a mask.  The scaled points come back together with
their values Q0(t Z), whose norms were checked against the target, so a
caller never evaluates Q0 at a sample again.
"""

from __future__ import annotations

import numpy as np

from .core import (
    MatrixTuple,
    NcMatrixPolynomial,
    Word,
    _as_stack,
    _eval_poly_stack,
    _homogeneous_parts_stack,
    _operator_norms,
    operator_norm,
)

__all__ = [
    "complex_gaussian",
    "random_tuple",
    "scale_into_domain",
    "sample_in_domain",
    "random_row_poly",
]

#: Largest scale factor tried before a direction counts as one where Q0 is constant.
MAX_SCALE = 2.0**199

_EPS = float(np.finfo(float).eps)
_AIM = 1.0 - 16 * _EPS


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_directions(rng: np.random.Generator, K: int, d: int, n: int) -> np.ndarray:
    """K draws of ``random_tuple(rng, d, n)`` as one (K, d, n, n) stack.

    Reads the generator in the same order as K successive calls: per point
    and component, the real n x n block and then the imaginary one.
    """
    g = rng.standard_normal((K, d, 2, n, n))
    return g[:, :, 0] + 1j * g[:, :, 1]


def random_tuple(rng: np.random.Generator, d: int, n: int, scale: float = 1.0) -> MatrixTuple:
    return MatrixTuple(tuple(scale * _random_directions(rng, 1, d, n)[0]))


def scale_into_domain(Q0: NcMatrixPolynomial, Z: MatrixTuple, target: float = 0.8,
                      tol: float = 1e-12) -> MatrixTuple:
    """Rescale a tuple so that ||Q0(t Z)|| is just below ``target``.

    Requires ||Q0(0)|| < target (the constant term must not already fill
    the disk) and some nonconstant term to be active at Z.  The returned
    point satisfies ||Q0(t Z)|| < target as ``_eval_poly`` computes it.
    """
    Zs, _ = _scale_stack(Q0, _as_stack(Z), target, tol)
    return MatrixTuple(tuple(Zs[0]))


def _scale_stack(Q0: NcMatrixPolynomial, Zs: np.ndarray, target: float,
                 tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """``scale_into_domain`` on a stack of K directions of shape (K, d, n, n).

    Returns the scaled stack and Q0 at each scaled point, shape
    (K, s n, r n), each of norm below ``target``.  Raises ``ValueError``
    when the constant term reaches the target or when Q0 appears constant
    along any of the directions.
    """
    if not 0 < target < 1:
        raise ValueError("target norm must lie in (0, 1)")
    parts = _homogeneous_parts_stack(Q0, Zs)
    # the constant part is coeff (x) I_n at every point
    if 0 in parts and operator_norm(parts[0][0]) >= target:
        raise ValueError("constant term of Q0 already exceeds the target norm")
    if len(parts) == 1 and 0 not in parts:
        # ||Q0(t Z)|| = t**k ||H_k(Z)|| has a closed-form root; aim a few
        # ulps below it so that rounding seldom puts the check over target
        (k, H), = parts.items()
        h = _operator_norms(H)
        t = np.full(h.shape, np.inf)
        t[h > 0] = (_AIM * target / h[h > 0]) ** (1.0 / k)
    elif any(k > 0 for k in parts):
        t = _bisect_scale(parts, target, tol)
    else:
        t = np.full(Zs.shape[0], np.inf)
    if not np.all(t <= MAX_SCALE):
        raise ValueError("Q0 appears constant along this direction")
    # the root is exact only up to rounding; step the points still at or
    # over the target below it until every point's norm is strictly under
    Zt = t[:, None, None, None] * Zs
    QZ = _eval_poly_stack(Q0, Zt)
    over = ~(_operator_norms(QZ) < target)
    step = _EPS
    while over.any():
        idx = np.flatnonzero(over)
        t[idx] *= 1.0 - step
        step *= 2.0
        Zt[idx] = t[idx, None, None, None] * Zs[idx]
        QZ[idx] = _eval_poly_stack(Q0, Zt[idx])
        over[idx] = ~(_operator_norms(QZ[idx]) < target)
    return Zt, QZ


def _bisect_scale(parts: dict[int, np.ndarray], target: float, tol: float) -> np.ndarray:
    """Bisection for the t where ||sum_k t**k H_k|| reaches ``target``, per point.

    Returns the lower end of each final bracket, where the norm is below
    the target, or ``inf`` where the norm stays below it up to
    t = MAX_SCALE.  Points whose bracket is settled drop out of the stack.
    """
    def below(t: np.ndarray, idx: np.ndarray) -> np.ndarray:
        M = sum(t[:, None, None] ** k * H[idx] for k, H in parts.items())
        return _operator_norms(M) < target

    K = next(iter(parts.values())).shape[0]
    hi = np.ones(K)
    idx = np.arange(K)
    while idx.size:
        grow = below(hi[idx], idx)
        capped = grow & (hi[idx] >= MAX_SCALE)
        hi[idx[capped]] = np.inf
        idx = idx[grow & ~capped]
        hi[idx] *= 2.0
    lo = np.zeros(K)
    idx = np.flatnonzero(np.isfinite(hi))
    while True:
        idx = idx[hi[idx] - lo[idx] > tol * np.maximum(1.0, hi[idx])]
        if not idx.size:
            break
        mid = 0.5 * (lo[idx] + hi[idx])
        ok = below(mid, idx)
        lo[idx[ok]] = mid[ok]
        hi[idx[~ok]] = mid[~ok]
    return np.where(np.isfinite(hi), lo, np.inf)


def sample_in_domain(Q0: NcMatrixPolynomial, n: int, rng: np.random.Generator,
                     target: float = 0.8) -> MatrixTuple:
    """A random level-n point with ||Q0(Z)|| just below ``target``."""
    return scale_into_domain(Q0, random_tuple(rng, Q0.d, n), target=target)


def _sample_stack(Q0: NcMatrixPolynomial, n: int, K: int, rng: np.random.Generator,
                  target: float = 0.8) -> tuple[np.ndarray, np.ndarray]:
    """K successive ``sample_in_domain`` draws as one stack, with their Q0 values.

    Same generator reads and, up to rounding, the same points as K calls;
    returns ``(Zs, QZ)`` of shapes (K, d, n, n) and (K, s n, r n).
    """
    return _scale_stack(Q0, _random_directions(rng, K, Q0.d, n), target)


def random_row_poly(rng: np.random.Generator, d: int, r: int, degree: int = 1,
                    terms: int | None = None, include_constant: bool = False,
                    scale: float = 1.0) -> NcMatrixPolynomial:
    """A random one-row polynomial over d variables with r coefficient columns."""
    letters = list(range(1, d + 1))
    words = [()] if include_constant else []
    if degree >= 1:
        words += [(k,) for k in letters]
    pool: list[tuple[int, ...]] = list(words)
    cur = [(k,) for k in letters]
    for _ in range(degree - 1):
        cur = [w + (k,) for w in cur for k in letters]
        pool += cur
    if terms is not None and terms < len(pool):
        idx = rng.choice(len(pool), size=terms, replace=False)
        pool = [pool[i] for i in sorted(idx)]
    tmap = {
        Word(w, d): scale * complex_gaussian(rng, (1, r)) for w in pool
    }
    return NcMatrixPolynomial(d, 1, r, tmap)
