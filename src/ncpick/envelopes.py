"""Constructive envelope operations and single-variable Zariski closure.

Membership of a point in the envelope generated by finitely many tuples is
decided by solving the joint Sylvester system I Ztilde_k = Z_k I over all
direct sums of generators up to a multiplicity bound, then hunting for an
injective (or invertible) element of the solution space with random
combinations: injective solutions form a Zariski-open subset, so a random
element is injective with probability one whenever any is.

For one variable the full envelope coincides with the set of matrices whose
Jordan data is dominated by the generators'; non-members come with an
explicitly constructed separating polynomial that vanishes on the
generators but not at the point.
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
    "hermite_separating_poly",
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


def _cluster(values: np.ndarray, tol: float) -> tuple[list[list[int]], bool]:
    """Single-linkage clusters of complex values at absolute tolerance tol."""
    order = np.lexsort((values.imag, values.real))
    clusters: list[list[int]] = []
    for idx in order:
        placed = False
        for cl in clusters:
            if any(abs(values[idx] - values[j]) <= tol for j in cl):
                cl.append(int(idx))
                placed = True
                break
        if not placed:
            clusters.append([int(idx)])
    ambiguous = False
    for a in range(len(clusters)):
        for b in range(a + 1, len(clusters)):
            gap = min(abs(values[i] - values[j]) for i in clusters[a] for j in clusters[b])
            if gap < 10 * tol:
                ambiguous = True
    return clusters, ambiguous


def jordan_spectral_data(M, cluster_tol: float = CLUSTER_TOL) -> JordanData:
    """Eigenvalue clusters of a matrix with maximal Jordan chain lengths.

    Chain lengths come from the stabilization of nullities of powers of
    M - lambda I, with numerical rank taken at ``JORDAN_RANK_TOL`` relative
    to the corresponding power of the base norm.
    """
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError("need a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    n = A.shape[0]
    eigs = np.linalg.eigvals(A)
    clusters, ambiguous = _cluster(eigs, cluster_tol)
    lams, chains, mults = [], [], []
    for cl in clusters:
        lam = complex(np.mean(eigs[cl]))
        base = A - lam * np.eye(n)
        base_norm = max(np.linalg.norm(base, 2), 1e-300)
        power = np.eye(n, dtype=complex)
        nullities = [0]
        for k in range(1, n + 1):
            power = power @ base
            svals = np.linalg.svd(power, compute_uv=False)
            thresh = JORDAN_RANK_TOL * base_norm ** k
            rank = int(np.sum(svals > thresh))
            nullities.append(n - rank)
            if nullities[-1] == nullities[-2]:
                break
        chain = next(
            k for k in range(1, len(nullities)) if k + 1 >= len(nullities)
            or nullities[k] == nullities[k + 1]
        )
        lams.append(lam)
        chains.append(chain)
        mults.append(len(cl))
    order = np.lexsort((np.imag(lams), np.real(lams)))
    return JordanData(
        eigenvalues=tuple(lams[i] for i in order),
        chain_lengths=tuple(chains[i] for i in order),
        multiplicities=tuple(mults[i] for i in order),
        ambiguous=ambiguous,
    )


def hermite_separating_poly(
    constraints: Sequence[tuple[complex, Sequence[int], int | None]],
) -> NcMatrixPolynomial:
    """Minimal-degree polynomial meeting derivative constraints at nodes.

    Each constraint is (lambda, vanish_orders, nonvanish_order): the
    polynomial must satisfy p^(k)(lambda) = 0 for every listed vanish
    order, and p^(k0)(lambda) = 1 for the optional nonvanish order (at
    most one across all constraints; without one the polynomial is
    normalized monic instead).  Solved via a confluent Vandermonde system.
    """
    nonvanish = [(lam, k0) for lam, _, k0 in constraints if k0 is not None]
    if len(nonvanish) > 1:
        raise ValueError("at most one nonvanish constraint")
    for lam, orders, k0 in constraints:
        if k0 is not None and k0 in set(orders):
            raise ValueError("vanish and nonvanish requested at the same order")
    lams = [complex(lam) for lam, _, _ in constraints]
    if len({(round(l.real, 12), round(l.imag, 12)) for l in lams}) != len(lams):
        raise ValueError("constraint nodes must be distinct")
    n_vanish = sum(len(orders) for _, orders, _ in constraints)
    deg = n_vanish
    ncoef = deg + 1

    def deriv_row(lam: complex, k: int) -> np.ndarray:
        row = np.zeros(ncoef, dtype=complex)
        for j in range(k, ncoef):
            fall = 1.0
            for t in range(k):
                fall *= j - t
            row[j] = fall * lam ** (j - k)
        return row

    rows, rhs = [], []
    for lam, orders, _ in constraints:
        for k in orders:
            rows.append(deriv_row(lam, k))
            rhs.append(0.0)
    if nonvanish:
        lam0, k0 = nonvanish[0]
        rows.append(deriv_row(complex(lam0), k0))
        rhs.append(1.0)
    else:
        lead = np.zeros(ncoef, dtype=complex)
        lead[-1] = 1.0
        rows.append(lead)
        rhs.append(1.0)
    system = np.vstack(rows)
    if system.shape[0] != ncoef:
        raise ValueError("constraint count does not match the minimal degree")
    try:
        coeffs = np.linalg.solve(system, np.asarray(rhs, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise ValueError("inconsistent Hermite constraints") from exc
    return NcMatrixPolynomial.scalar_univariate(coeffs)


def zariski_membership_d1(Ztilde, Omega_F: Sequence, cluster_tol: float = CLUSTER_TOL,
                          ) -> tuple[bool, NcMatrixPolynomial | None]:
    """Decide single-variable Zariski-closure membership via Jordan data.

    Ztilde belongs to the closure of a finite set of matrices iff every
    eigenvalue of Ztilde appears among the generators with at least the
    same maximal chain length.  For non-members the returned polynomial
    vanishes on every generator (to the pooled chain order) while its
    value at Ztilde is nonzero; the certifying derivative is normalized
    to one.
    """
    if not Omega_F:
        raise ValueError("need at least one generator matrix")
    data_Z = jordan_spectral_data(Ztilde, cluster_tol)
    pool_vals: list[complex] = []
    pool_chains: list[int] = []
    for W in Omega_F:
        dW = jordan_spectral_data(W, cluster_tol)
        for lam, ch in dW.as_pairs():
            for i, mu in enumerate(pool_vals):
                if abs(lam - mu) <= cluster_tol:
                    pool_chains[i] = max(pool_chains[i], ch)
                    break
            else:
                pool_vals.append(lam)
                pool_chains.append(ch)

    offender: tuple[complex, int] | None = None
    for mu, ch in data_Z.as_pairs():
        hit = next((i for i, lam in enumerate(pool_vals) if abs(lam - mu) <= cluster_tol), None)
        if hit is None:
            offender = (mu, 0)
            break
        if ch > pool_chains[hit]:
            offender = (pool_vals[hit], pool_chains[hit])
            break
    if offender is None:
        return True, None

    lam0, k0 = offender
    constraints: list[tuple[complex, Sequence[int], int | None]] = []
    used_offender = False
    for lam, ch in zip(pool_vals, pool_chains):
        if abs(lam - lam0) <= cluster_tol:
            constraints.append((lam, list(range(ch)), k0))
            used_offender = True
        else:
            constraints.append((lam, list(range(ch)), None))
    if not used_offender:
        constraints.append((lam0, [], 0))
    return False, hermite_separating_poly(constraints)
