"""Constructive envelope operations and single-variable Zariski closure.

Membership of a point in the envelope generated by finitely many tuples is
decided by solving the joint Sylvester system I Ztilde_k = Z_k I over all
direct sums of generators up to a multiplicity bound, then hunting for an
injective (or invertible) element of the solution space with random
combinations: injective solutions form a Zariski-open subset, so a random
element is injective with probability one whenever any is.

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

#: Random combinations drawn when hunting for an injective nullspace element.
INJECTIVITY_TRIALS = 20

#: Smallest singular value a full-envelope witness must exceed (injectivity).
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

    ``multiplicities`` counts how often each generator enters the
    direct-sum point Z the witness intertwines with; ``matrix`` is the
    intertwiner (injective for the full envelope, square invertible for
    the similarity envelope, the identity for plain nc membership).
    """

    kind: str
    multiplicities: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        M = np.array(self.matrix, dtype=complex)
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)
        if self.kind not in ("direct-sum", "similarity", "left-injective-intertwiner"):
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
    rows = []
    for Zk, Ztk in zip(Z.components, Ztilde.components):
        rows.append(np.kron(np.eye(n), Ztk.T) - np.kron(Zk, np.eye(m)))
    sys = np.vstack(rows)
    _, svals, Vh = np.linalg.svd(sys)
    top = svals[0] if svals.size else 0.0
    rank = int(np.sum(svals > INTERTWINER_NULL_TOL * max(top, 1.0)))
    null = Vh[rank:].conj()
    return [v.reshape(n, m) for v in null]


def _random_in_span(basis: Sequence[np.ndarray], rng: np.random.Generator) -> np.ndarray:
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    M = sum(c * B for c, B in zip(coeffs, basis))
    norm = np.linalg.norm(M, 2)
    return M / norm if norm > 0 else M


def _candidate_multisets(count: int, max_multiplicity: int):
    for total in range(1, max_multiplicity + 1):
        yield from itertools.combinations_with_replacement(range(count), total)


def _verify_witness(Z: MatrixTuple, Ztilde: MatrixTuple, I: np.ndarray) -> None:
    """Intertwining residual test; the search has already tested the singular values."""
    scale = max(1.0, max(np.linalg.norm(c, 2) for c in Z.components))
    for Zk, Ztk in zip(Z.components, Ztilde.components):
        if np.linalg.norm(I @ Ztk - Zk @ I, 2) > 1e-9 * scale:
            raise AssertionError("witness fails the intertwining relation")


def _envelope_search(Ztilde: MatrixTuple, generators: Sequence[MatrixTuple],
                     max_multiplicity: int | None, seed: int,
                     kind: str) -> EnvelopeWitness | None:
    """Both envelope searches: ``INJECTIVITY_TRIALS`` random intertwiners per multiset.

    A similarity witness is square with condition number at most
    ``WITNESS_COND_BOUND``; a left injective one has level(Z) >= level(Ztilde)
    and smallest singular value above ``INJECTIVITY_TOL``.
    """
    if not generators:
        raise ValueError("need at least one generator")
    if max_multiplicity is None:
        max_multiplicity = Ztilde.n
    if max_multiplicity < 1:
        raise ValueError("max_multiplicity must be at least 1")
    square = kind == "similarity"
    rng = np.random.default_rng(seed)
    for combo in _candidate_multisets(len(generators), max_multiplicity):
        Z = direct_sum_many([generators[i] for i in combo])
        if Z.n < Ztilde.n or (square and Z.n != Ztilde.n):
            continue
        basis = intertwiner_space(Z, Ztilde)
        if not basis:
            continue
        for _ in range(INJECTIVITY_TRIALS):
            I = _random_in_span(basis, rng)
            svals = np.linalg.svd(I, compute_uv=False)
            if not (svals[-1] > 0 and svals[0] / svals[-1] <= WITNESS_COND_BOUND if square
                    else svals[-1] > INJECTIVITY_TOL):
                continue
            _verify_witness(Z, Ztilde, I)
            mults = tuple(combo.count(i) for i in range(len(generators)))
            return EnvelopeWitness(kind, mults, I)
    return None


def full_envelope_membership(Ztilde: MatrixTuple, generators: Sequence[MatrixTuple],
                             max_multiplicity: int | None = None,
                             seed: int = 0) -> EnvelopeWitness | None:
    """Search for a left injective intertwiner from a generator direct sum.

    Absence is a normal return; it is conclusive only up to the
    multiplicity bound (default: the level of Ztilde, which suffices for
    one variable).
    """
    return _envelope_search(Ztilde, generators, max_multiplicity, seed,
                            "left-injective-intertwiner")


def similarity_envelope_membership(Ztilde: MatrixTuple, generators: Sequence[MatrixTuple],
                                   max_multiplicity: int | None = None,
                                   seed: int = 0) -> EnvelopeWitness | None:
    """Like full membership but demanding a square invertible intertwiner."""
    return _envelope_search(Ztilde, generators, max_multiplicity, seed, "similarity")


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
