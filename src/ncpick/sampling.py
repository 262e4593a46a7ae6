"""Seeded random generators for points, polynomials, and test data.

All draws go through an explicit ``numpy.random.Generator`` so that every
caller (library verification loops, the CLI, tests) is deterministic under
a fixed seed.

In-domain points are a random direction Z scaled to ||Q0(t Z)|| just below
a target.  Q0(Z) is split once into homogeneous parts H_k(Z), so that
Q0(t Z) = sum_k t**k H_k(Z).  A homogeneous Q0 (every row or diagonal
pencil) gets t in closed form from ||H_k(Z)||; any other Q0 is bisected on
t by re-weighting the fixed parts, without evaluating words again.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    MatrixTuple,
    NcMatrixPolynomial,
    Word,
    _eval_poly,
    _homogeneous_parts,
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


def random_tuple(rng: np.random.Generator, d: int, n: int, scale: float = 1.0) -> MatrixTuple:
    return MatrixTuple(tuple(scale * complex_gaussian(rng, (n, n)) for _ in range(d)))


def scale_into_domain(Q0: NcMatrixPolynomial, Z: MatrixTuple, target: float = 0.8,
                      tol: float = 1e-12) -> MatrixTuple:
    """Rescale a tuple so that ||Q0(t Z)|| is just below ``target``.

    Requires ||Q0(0)|| < target (the constant term must not already fill
    the disk) and some nonconstant term to be active at Z.  The returned
    point satisfies ||Q0(t Z)|| < target as ``_eval_poly`` computes it.
    """
    if not 0 < target < 1:
        raise ValueError("target norm must lie in (0, 1)")
    parts = _homogeneous_parts(Q0, Z)
    if 0 in parts and operator_norm(parts[0]) >= target:
        raise ValueError("constant term of Q0 already exceeds the target norm")
    if len(parts) == 1 and 0 not in parts:
        # ||Q0(t Z)|| = t**k ||H_k(Z)|| has a closed-form root; aim a few
        # ulps below it so that rounding seldom puts the check over target
        (k, H), = parts.items()
        h = operator_norm(H)
        t = (_AIM * target / h) ** (1.0 / k) if h > 0 else math.inf
    elif any(k > 0 for k in parts):
        t = _bisect_scale(parts, target, tol)
    else:
        t = math.inf
    if not t <= MAX_SCALE:
        raise ValueError("Q0 appears constant along this direction")
    # the root is exact only up to rounding; step below it until the norm
    # of the point actually returned is strictly under the target
    step = _EPS
    while True:
        Zt = Z.scaled(t)
        if operator_norm(_eval_poly(Q0, Zt)) < target:
            return Zt
        t *= 1.0 - step
        step *= 2.0


def _bisect_scale(parts: dict[int, np.ndarray], target: float, tol: float) -> float:
    """Bisection for the t where ||sum_k t**k H_k|| reaches ``target``.

    Returns the lower end of the final bracket, where the norm is below the
    target, or ``inf`` when the norm stays below it up to t = MAX_SCALE.
    """
    def norm_at(t: float) -> float:
        return operator_norm(sum(t**k * H for k, H in parts.items()))

    hi = 1.0
    while norm_at(hi) < target:
        if hi >= MAX_SCALE:
            return math.inf
        hi *= 2.0
    lo = 0.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if norm_at(mid) < target:
            lo = mid
        else:
            hi = mid
    return lo


def sample_in_domain(Q0: NcMatrixPolynomial, n: int, rng: np.random.Generator,
                     target: float = 0.8) -> MatrixTuple:
    """A random level-n point with ||Q0(Z)|| just below ``target``."""
    return scale_into_domain(Q0, random_tuple(rng, Q0.d, n), target=target)


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
