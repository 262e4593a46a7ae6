"""Constructive envelope operations and single-variable Zariski closure.

An intertwiner I Ztilde_k = Z_k I into a direct sum Z of generators has its
row blocks in the nullspaces Int(G_i <- Ztilde) of the joint Sylvester
systems, so full-envelope membership is one exact common-kernel test of
their stacked bases.  The similarity test, from the same bases, is exact
outside the full envelope and otherwise randomized: invertible intertwiners
form a Zariski-open set, so a random one is invertible with probability one
whenever any is.

For one variable the full envelope coincides with the set of matrices whose
Jordan data is dominated by the generators'.  The eigenvalues of the point
and of every generator are clustered once, together (single linkage at
``CLUSTER_TOL``), and each matrix's longest Jordan chain is read per
cluster.  A non-member comes with the separating polynomial
prod_c (z - lambda_c)^(g_c) over the generator clusters, which vanishes on
the generators but not at the point; it is built from its roots, with no
linear solve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DimensionMismatchError,
    MatrixTuple,
    NcMatrixPolynomial,
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


def _jordan_clusters(matrices: Sequence, tol: float,
                     ) -> tuple[list[list[tuple[complex, int, int] | None]], bool]:
    """Jordan data of square matrices over one clustering of their pooled eigenvalues.

    Each cluster, in (real, imag) order of its pooled mean, lists per matrix
    the (mean, chain length, multiplicity) of that matrix's eigenvalues in
    it, or None where it has none; the flag is ``_cluster``'s.
    """
    As = [np.asarray(M, dtype=complex) for M in matrices]
    for A in As:
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatchError("need a square matrix")
        if not np.all(np.isfinite(A)):
            raise ValueError("matrix has non-finite entries")
    eigs = [np.linalg.eigvals(A) for A in As]
    pooled = np.concatenate(eigs)
    owner = np.repeat(np.arange(len(As)), [e.size for e in eigs])
    masks, ambiguous = _cluster(pooled, tol)
    clusters = []
    for inside in masks:
        row: list[tuple[complex, int, int] | None] = [None] * len(As)
        for m in np.unique(owner[inside]):
            vals = pooled[inside & (owner == m)]
            lam = complex(vals.mean())
            row[m] = (lam, _chain_length(As[m], lam), vals.size)
        mean = pooled[inside].mean()
        clusters.append(((mean.real, mean.imag), row))
    return [row for _, row in sorted(clusters, key=lambda c: c[0])], ambiguous


def jordan_spectral_data(M, cluster_tol: float = CLUSTER_TOL) -> JordanData:
    """Eigenvalue clusters of a matrix with maximal Jordan chain lengths.

    Chain lengths come from the stabilization of nullities of powers of
    M - lambda I (``_chain_length``) at each cluster's mean.
    """
    clusters, ambiguous = _jordan_clusters([M], cluster_tol)
    lams, chains, mults = zip(*(data for data, in clusters)) if clusters else ((), (), ())
    return JordanData(lams, chains, mults, ambiguous)


def zariski_membership_d1(Ztilde, Omega_F: Sequence, cluster_tol: float = CLUSTER_TOL,
                          ) -> tuple[bool, NcMatrixPolynomial | None]:
    """Decide single-variable Zariski-closure membership via Jordan data.

    Ztilde belongs to the closure of a finite set of matrices iff every
    eigenvalue of Ztilde appears among the generators with at least the
    same maximal chain length.  The eigenvalues of Ztilde and of every
    generator are clustered once, together.  For non-members the returned
    polynomial is p = prod_c (z - lambda_c)^(g_c) over the generator
    clusters (eigenvalue mean lambda_c, longest chain g_c), so it vanishes
    on every generator.  At the first cluster where Ztilde's chain exceeds
    the generators' g0 (zero where they have no eigenvalue; lambda0 is then
    Ztilde's mean), p^(g0)(lambda0) = g0! prod_{c != c0} (lambda0 - lambda_c)^(g_c)
    is nonzero, and p is divided by it.
    """
    if not Omega_F:
        raise ValueError("need at least one generator matrix")
    clusters, _ = _jordan_clusters([Ztilde, *Omega_F], cluster_tol)
    factors: list[tuple[complex, int]] = []  # (lambda_c, g_c) per generator cluster
    offender = None  # (lambda0, g0, index of its factor or None)
    for own, *gens in clusters:
        present = [g for g in gens if g is not None]
        if present:
            mean = sum(mu * m for mu, _, m in present) / sum(m for *_, m in present)
            factors.append((mean, max(chain for _, chain, _ in present)))
        lam, order = factors[-1] if present else (own[0], 0)
        if offender is None and own is not None and own[1] > order:
            offender = (lam, order, len(factors) - 1 if present else None)
    if offender is None:
        return True, None
    lam0, g0, c0 = offender
    scale = math.factorial(g0) * math.prod(
        (lam0 - lam) ** g for c, (lam, g) in enumerate(factors) if c != c0)
    roots = [lam for lam, g in factors for _ in range(g)]
    coeffs = np.atleast_1d(np.poly(roots))[::-1] / scale  # np.poly([]) is the scalar 1.0
    return False, NcMatrixPolynomial.scalar_univariate(coeffs)
