"""Constructive envelope operations and single-variable Zariski closure.

An intertwiner I Ztilde_k = Z_k I into a direct sum Z of generators has its
row blocks in the nullspaces Int(G_i <- Ztilde) of the joint Sylvester
systems, so full-envelope membership is one exact common-kernel test of
their stacked bases.  The similarity test, from the same bases, is exact
outside the full envelope and otherwise randomized: invertible intertwiners
form a Zariski-open set, so a random one is invertible with probability one
whenever any is.

For one variable the Zariski closure is the full envelope, so its verdict
is the same exact test.  Only a non-member's separating polynomial reads
Jordan data: p = prod_c (z - lambda_c)^(g_c) over the eigenvalue clusters
of the generators' direct sum (single linkage at ``CLUSTER_TOL``, longest
chain g_c per cluster), which vanishes on the generators.  It is built
from its roots, with no linear solve, and scaled so that
||p(Ztilde)||_2 = 1.  A rounded Jordan block of size k splits into
eigenvalues about eps^(1/k) apart, which a small ``cluster_tol`` reads as
separate clusters; that inflates p on the generators but never moves the
verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DimensionMismatchError,
    MatrixTuple,
    NcMatrixPolynomial,
    _eval_poly,
    direct_sum_many,
)
from .sampling import complex_gaussian

__all__ = [
    "EnvelopeWitness",
    "JordanData",
    "nc_envelope_point",
    "intertwiner_space",
    "full_envelope_membership",
    "similarity_envelope_membership",
    "jordan_spectral_data",
    "zariski_membership_d1",
]

#: Random intertwiners drawn per generator multiset by the similarity search.
INJECTIVITY_TRIALS = 20

#: Injectivity cut of a full-envelope stack and witness, relative to max(1, sigma_max).
INJECTIVITY_TOL = 1e-8

#: Largest condition number a similarity-envelope witness may have.
WITNESS_COND_BOUND = 1e10

#: Relative singular-value threshold for the intertwiner nullspace.
INTERTWINER_NULL_TOL = 1e-10

#: Default absolute eigenvalue clustering tolerance.
CLUSTER_TOL = 1e-8

#: Relative rank tolerance for Jordan chain-length detection.
JORDAN_RANK_TOL = 1e-10


@dataclass(frozen=True)
class EnvelopeWitness:
    """Certificate of envelope membership.

    ``multiplicities`` counts each generator in the direct sum Z that
    ``matrix`` intertwines with: injective for the full envelope, square
    invertible for the similarity envelope.
    """

    kind: str
    multiplicities: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        M = np.array(self.matrix, dtype=complex)
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)
        if self.kind not in ("similarity", "left-injective-intertwiner"):
            raise ValueError(f"unknown witness kind {self.kind!r}")


@dataclass(frozen=True)
class JordanData:
    """Clustered eigenvalues with maximal Jordan chain lengths.

    ``multiplicities`` are the algebraic multiplicities (cluster sizes);
    they sum to the matrix dimension.  ``ambiguous`` flags two clusters
    closer than ten times the clustering tolerance.
    """

    eigenvalues: tuple[complex, ...]
    chain_lengths: tuple[int, ...]
    multiplicities: tuple[int, ...]
    ambiguous: bool = False

    def as_pairs(self) -> tuple[tuple[complex, int], ...]:
        return tuple(zip(self.eigenvalues, self.chain_lengths))


def nc_envelope_point(generators: Sequence[MatrixTuple],
                      multiplicities: Sequence[int]) -> MatrixTuple:
    """Direct sum of the generators with the given repeat counts."""
    if len(generators) != len(multiplicities):
        raise ValueError("one multiplicity per generator")
    if any(m < 0 for m in multiplicities):
        raise ValueError("multiplicities must be nonnegative")
    parts = []
    for Z, m in zip(generators, multiplicities):
        parts.extend([Z] * m)
    if not parts:
        raise ValueError("empty selection")
    return direct_sum_many(parts)


def intertwiner_space(Z: MatrixTuple, Ztilde: MatrixTuple) -> list[np.ndarray]:
    """Basis of all I with I Ztilde_k = Z_k I, as level(Z) x level(Ztilde) blocks."""
    if Z.d != Ztilde.d:
        raise DimensionMismatchError("tuples over different variable counts")
    n, m = Z.n, Ztilde.n
    sys = np.vstack([np.kron(np.eye(n), Ztk.T) - np.kron(Zk, np.eye(m))
                     for Zk, Ztk in zip(Z.components, Ztilde.components)])
    _, svals, Vh = np.linalg.svd(sys, full_matrices=False)  # d n m >= n m rows: Vh is square
    rank = int(np.sum(svals > INTERTWINER_NULL_TOL * svals.max(initial=1.0)))
    return [v.reshape(n, m) for v in Vh[rank:].conj()]


def _verify_witness(Z: MatrixTuple, Ztilde: MatrixTuple, I: np.ndarray) -> None:
    """Intertwining residual test; the caller has already tested the singular values."""
    scale = max(1.0, max(np.linalg.norm(c, 2) for c in Z.components))
    for Zk, Ztk in zip(Z.components, Ztilde.components):
        if np.linalg.norm(I @ Ztk - Zk @ I, 2) > 1e-9 * scale:
            raise AssertionError("witness fails the intertwining relation")


def _generator_bases(Ztilde: MatrixTuple, generators: Sequence[MatrixTuple],
                     ) -> tuple[list[list[np.ndarray]], float | None]:
    """A basis of each Int(G_i <- Ztilde), and the injectivity cut ``INJECTIVITY_TOL *
    max(1, sigma_max)`` of their stack, or None if its sigma_min is not above it."""
    if not generators:
        raise ValueError("need at least one generator")
    bases = [intertwiner_space(G, Ztilde) for G in generators]
    blocks = [B for basis in bases for B in basis]
    if not blocks:
        return bases, None
    svals = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    cut = INJECTIVITY_TOL * max(1.0, svals[0])
    return bases, cut if svals.size == Ztilde.n and svals[-1] > cut else None


def full_envelope_membership(Ztilde: MatrixTuple, generators: Sequence[MatrixTuple],
                             ) -> EnvelopeWitness | None:
    """Exact membership: the stacked bases of every Int(G_i <- Ztilde) are injective.

    The witness keeps, in generator order, each basis block that raises its
    rank at the injectivity cut, up to rank level(Ztilde), so its total
    multiplicity is at most level(Ztilde); should the blocks fall short one
    by one (a margin this thin), it is the whole stack.
    """
    bases, cut = _generator_bases(Ztilde, generators)
    if cut is None:
        return None
    blocks = [(i, B) for i, basis in enumerate(bases) for B in basis]
    kept, rank = [], 0
    for i, B in blocks:
        grown = np.linalg.matrix_rank(np.vstack([*(b for _, b in kept), B]), tol=cut)
        if grown > rank:
            kept.append((i, B))
            rank = grown
            if rank == Ztilde.n:
                break
    else:
        kept = blocks
    mults = tuple(sum(1 for i, _ in kept if i == g) for g in range(len(generators)))
    I = np.vstack([B for _, B in kept])
    _verify_witness(nc_envelope_point(generators, mults), Ztilde, I)
    return EnvelopeWitness("left-injective-intertwiner", mults, I)


def similarity_envelope_membership(Ztilde: MatrixTuple, generators: Sequence[MatrixTuple],
                                   ) -> EnvelopeWitness | None:
    """A square intertwiner of condition number at most ``WITNESS_COND_BOUND``, or None.

    Exact outside the full envelope, randomized (probability one) inside:
    each multiset of generators with a nonzero basis and levels summing to
    level(Ztilde) gets ``INJECTIVITY_TRIALS`` random intertwiners (fixed
    seed), each a stack of one random combination of each chosen basis.
    """
    bases, cut = _generator_bases(Ztilde, generators)
    if cut is None:
        return None
    usable = [i for i, basis in enumerate(bases) if basis]
    rng = np.random.default_rng(0)
    for combo in (c for total in range(1, Ztilde.n + 1)
                  for c in itertools.combinations_with_replacement(usable, total)
                  if sum(generators[i].n for i in c) == Ztilde.n):
        for _ in range(INJECTIVITY_TRIALS):
            I = np.vstack([np.tensordot(complex_gaussian(rng, len(bases[i])), bases[i], 1)
                           for i in combo])
            svals = np.linalg.svd(I, compute_uv=False)
            if svals[-1] > 0 and svals[0] / svals[-1] <= WITNESS_COND_BOUND:
                mults = tuple(combo.count(i) for i in range(len(generators)))
                _verify_witness(nc_envelope_point(generators, mults), Ztilde, I / svals[0])
                return EnvelopeWitness("similarity", mults, I / svals[0])
    return None


def _cluster(values: np.ndarray, tol: float) -> tuple[np.ndarray, bool]:
    """Single-linkage clusters: connected components of |v_i - v_j| <= tol.

    Returns one boolean mask over the values per cluster, and whether two
    clusters come closer than ten times tol.
    """
    dist = np.abs(values[:, None] - values[None, :])
    linked = dist <= tol
    while True:  # path doubling up to the transitive closure
        reach = linked @ linked
        if np.array_equal(reach, linked):
            break
        linked = reach
    return np.unique(linked, axis=0), bool(np.any((dist < 10 * tol) & ~linked))


def _chain_length(A: np.ndarray, lam: complex) -> int:
    """Longest Jordan chain of A at lam: where the nullity of (A - lam I)^k stops growing.

    Numerical rank is taken at ``JORDAN_RANK_TOL`` relative to the
    corresponding power of ||A - lam I||.
    """
    n = A.shape[0]
    base = A - lam * np.eye(n)
    base_norm = max(np.linalg.norm(base, 2), 1e-300)
    power = np.eye(n, dtype=complex)
    nullity = 0
    for k in range(1, n + 1):
        power = power @ base
        svals = np.linalg.svd(power, compute_uv=False)
        grown = n - int(np.sum(svals > JORDAN_RANK_TOL * base_norm ** k))
        if grown == nullity:
            return max(k - 1, 1)
        nullity = grown
    return n


def _square_matrix(M) -> np.ndarray:
    """M as a complex array, checked square with finite entries."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError("need a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return A


def jordan_spectral_data(M, cluster_tol: float = CLUSTER_TOL) -> JordanData:
    """Eigenvalue clusters of a matrix with maximal Jordan chain lengths.

    Clusters are single linkage at ``cluster_tol`` (``_cluster``), in
    (real, imag) order of their means; chain lengths come from the
    stabilization of nullities of powers of M - lambda I (``_chain_length``)
    at each cluster's mean.
    """
    A = _square_matrix(M)
    eigs = np.linalg.eigvals(A)
    masks, ambiguous = _cluster(eigs, cluster_tol)
    clusters = sorted(((complex(eigs[inside].mean()), int(inside.sum())) for inside in masks),
                      key=lambda c: (c[0].real, c[0].imag))
    lams, mults = zip(*clusters) if clusters else ((), ())
    return JordanData(lams, tuple(_chain_length(A, lam) for lam in lams), mults, ambiguous)


def zariski_membership_d1(Ztilde, Omega_F: Sequence, cluster_tol: float = CLUSTER_TOL,
                          ) -> tuple[bool, NcMatrixPolynomial | None]:
    """Single-variable Zariski-closure membership, with a separating polynomial.

    For one variable the closure is the full envelope, so the verdict is
    the exact common-kernel test of ``full_envelope_membership``; no
    eigenvalue is clustered for a member.  For a non-member the returned
    polynomial is p = prod_c (z - lambda_c)^(g_c) over the clusters of the
    generators' direct sum (``jordan_spectral_data`` at ``cluster_tol``:
    mean lambda_c, longest chain g_c), so it vanishes on every generator
    whose Jordan data the clustering reads right, scaled so that
    ||p(Ztilde)||_2 = 1.  A ``cluster_tol`` wide enough to
    merge distinct generator eigenvalues can make p vanish at Ztilde too,
    which raises ValueError.
    """
    if not Omega_F:
        raise ValueError("need at least one generator matrix")
    Zt, *gens = (MatrixTuple((_square_matrix(M),)) for M in (Ztilde, *Omega_F))
    if _generator_bases(Zt, gens)[1] is not None:
        return True, None
    data = jordan_spectral_data(direct_sum_many(gens).components[0], cluster_tol)
    roots = [lam for lam, g in data.as_pairs() for _ in range(g)]
    coeffs = np.atleast_1d(np.poly(roots))[::-1]  # np.poly([]) is the scalar 1.0
    scale = np.linalg.norm(_eval_poly(NcMatrixPolynomial.scalar_univariate(coeffs), Zt), 2)
    if scale == 0:
        raise ValueError("cluster_tol merges generator eigenvalues into a root of Ztilde")
    return False, NcMatrixPolynomial.scalar_univariate(coeffs / scale)
