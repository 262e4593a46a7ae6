"""Completely positive kernel machinery.

The central object is the generalized Szego kernel attached to a row-type
defining polynomial Q0 (one coefficient row, s = 1): for points Z, W inside
the disk it is the unique solution T of the Stein identity

    T - Q0(Z) (T (x) I_R) Q0(W)* = P,

computed by one dense linear solve on the vectorized equation.  A truncated
geometric series with an a-priori tail bound is kept as an independent
cross-check of the solve.  A linear map on matrices is represented by its
matrix on row-major vectorized inputs, and its Choi matrix is a reshape of
that matrix (``map_matrix_to_choi``).  On top of that sit PSD certificates,
Kolmogorov factorizations, the finite complete-positivity test of the Szego
kernel, and the de Branges-Rovnyak kernel used by the interpolation
criteria.

Everything here is pure and operates on immutable inputs; callers may
parallelize across independent (Z, W, P) triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DimensionMismatchError,
    DomainError,
    MatrixTuple,
    NcMatrixPolynomial,
    _eval_in_domain,
    _eval_poly,
    amp,
    operator_norm,
)

__all__ = [
    "PsdCertificate",
    "ChoiMatrix",
    "KolmogorovFactor",
    "NotPsdError",
    "psd_check",
    "cp_check_finite",
    "kolmogorov_factor",
    "phi_map",
    "szego_kernel_solve",
    "szego_kernel_series",
    "szego_map_matrix",
    "dbr_kernel",
    "dbr_map_matrix",
    "dbr_choi",
    "map_matrix_to_choi",
    "sandwich_matrix",
]

#: Relative eigenvalue threshold below which Kolmogorov ranks are truncated.
KOLMOGOROV_RANK_TOL = 1e-10

#: Default relative dead band for PSD verdicts.
PSD_REL_TOL = 1e-9


class NotPsdError(ValueError):
    """A matrix required to be positive semidefinite is not."""


# ---------------------------------------------------------------------------
# PSD certificates and Choi matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsdCertificate:
    """Verdict of a Hermitian eigenvalue test.

    ``psd`` holds iff ``min_eig >= -rel_tol * max(1, max_eig)``; verdicts
    with ``|min_eig|`` inside the dead band carry ``marginal=True``.
    """

    verdict: str
    min_eig: float
    max_eig: float
    rel_tol: float
    marginal: bool = False

    @property
    def is_psd(self) -> bool:
        return self.verdict == "psd"


def _hermitian_part(A: np.ndarray) -> np.ndarray:
    """(A + A^*) / 2, after checking that A is Hermitian up to 1e-8 relative.

    Frobenius norms keep the test O(N^2) next to the eigendecomposition
    that follows it.
    """
    herm_defect = float(np.linalg.norm(A - A.conj().T))
    if herm_defect > 1e-8 * max(1.0, float(np.linalg.norm(A))):
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3g})")
    return 0.5 * (A + A.conj().T)


def psd_check(M, rel_tol: float = PSD_REL_TOL) -> PsdCertificate:
    """Certificate for M >= 0 via Hermitian eigendecomposition.

    The input is symmetrized first; a deviation from Hermiticity beyond
    1e-8 relative to the norm is an error.
    """
    A = np.asarray(M, dtype=complex)
    if A.size == 0:
        return PsdCertificate("psd", 0.0, 0.0, rel_tol)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError("psd_check needs a square matrix")
    eigs = np.linalg.eigvalsh(_hermitian_part(A))
    lo, hi = float(eigs[0]), float(eigs[-1])
    band = rel_tol * max(1.0, hi)
    verdict = "psd" if lo >= -band else "not_psd"
    marginal = verdict == "psd" and lo < band
    return PsdCertificate(verdict, lo, hi, rel_tol, marginal)


@dataclass(frozen=True)
class ChoiMatrix:
    """Block matrix [M(E_ij)]_{i,j=1..n} of a linear map on n x n inputs."""

    n: int
    block_dim: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        A = np.array(self.matrix, dtype=complex)
        expect = self.n * self.block_dim
        if A.shape != (expect, expect):
            raise DimensionMismatchError("Choi matrix shape does not match n * block_dim")
        A.setflags(write=False)
        object.__setattr__(self, "matrix", A)


@dataclass(frozen=True)
class KolmogorovFactor:
    """Blocks B_1..B_n with Choi block (i, j) = B_i B_j^*; rank = state dim."""

    rank: int
    blocks: tuple[np.ndarray, ...]

    @property
    def stacked(self) -> np.ndarray:
        """Row concatenation H = [B_1 ... B_n]: C^n (x) X -> block space."""
        if not self.blocks:
            return np.zeros((0, 0), dtype=complex)
        return np.hstack(self.blocks)


def kolmogorov_factor(C: ChoiMatrix, rank_tol: float = KOLMOGOROV_RANK_TOL,
                      psd_tol: float = PSD_REL_TOL) -> KolmogorovFactor:
    """Factor a PSD Choi matrix as [B_i B_j^*] by truncated eigendecomposition.

    Eigenvalues below ``rank_tol`` times the largest are dropped; the
    retained rank is the state-space dimension of the induced Kolmogorov
    decomposition M(P) = H (P (x) I_X) H^*.  The PSD test reads the same
    eigendecomposition with the dead band of ``psd_check`` at ``psd_tol``,
    so a caller that already holds a certificate passes its ``rel_tol``.
    """
    if C.matrix.size == 0:
        return KolmogorovFactor(0, tuple(np.zeros((C.block_dim, 0), complex)
                                         for _ in range(C.n)))
    vals, vecs = np.linalg.eigh(_hermitian_part(C.matrix))
    lo, top = float(vals[0]), float(vals[-1])
    if lo < -psd_tol * max(1.0, top):
        raise NotPsdError(f"Choi matrix is not PSD (min eig {lo:.3g})")
    if top <= 0.0:
        keep = np.zeros(vals.shape, dtype=bool)
    else:
        keep = vals > rank_tol * top
    F = vecs[:, keep] * np.sqrt(np.clip(vals[keep], 0.0, None))
    rank = F.shape[1]
    b = C.block_dim
    blocks = tuple(F[i * b : (i + 1) * b, :] for i in range(C.n))
    return KolmogorovFactor(rank, blocks)


# ---------------------------------------------------------------------------
# The generalized Szego kernel
# ---------------------------------------------------------------------------


def _check_row_poly(Q0: NcMatrixPolynomial) -> None:
    # the exact-solve route is specified only for one-row defining polynomials
    if Q0.s != 1:
        raise ValueError("the Szego kernel requires a one-row polynomial (s = 1)")


def phi_map(Q0: NcMatrixPolynomial, Z: MatrixTuple, W: MatrixTuple, P) -> np.ndarray:
    """One Stein step Phi(P) = Q0(Z) (P (x) I_R) Q0(W)^*."""
    _check_row_poly(Q0)
    P = np.asarray(P, dtype=complex)
    if P.shape != (Z.n, W.n):
        raise DimensionMismatchError("P must be level(Z) x level(W)")
    QZ = _eval_poly(Q0, Z)
    QW = _eval_poly(Q0, W)
    return QZ @ amp(P, Q0.r) @ QW.conj().T


def _phi_matrix(QZ: np.ndarray, QW: np.ndarray, r: int) -> np.ndarray:
    """Matrix of Phi on row-major vectorized n x m inputs, from Q0(Z) and Q0(W).

    For a one-row Q0 the values have shapes n x (r n) and m x (r m).
    """
    n, m = QZ.shape[0], QW.shape[0]
    M = np.zeros((n * m, n * m), dtype=complex)
    for rho in range(r):
        G = QZ[:, rho * n : (rho + 1) * n]
        H = QW[:, rho * m : (rho + 1) * m]
        M += np.kron(G, H.conj())
    return M


def _stein_solve(Q0: NcMatrixPolynomial, Z: MatrixTuple, W: MatrixTuple,
                 rhs: np.ndarray) -> np.ndarray:
    """Solve (I - Phi) x = rhs for row-major vectorized n x m unknowns.

    Evaluates Q0 once per point (once in total when ``W is Z``) and raises
    ``DomainError`` unless both points lie in the disk.
    """
    QZ = _eval_in_domain(Q0, Z)
    QW = QZ if W is Z else _eval_in_domain(Q0, W)
    nm = Z.n * W.n
    return np.linalg.solve(np.eye(nm) - _phi_matrix(QZ, QW, Q0.r), rhs)


def szego_map_matrix(Q0: NcMatrixPolynomial, Z: MatrixTuple, W: MatrixTuple) -> np.ndarray:
    """Matrix of P -> k_{Q0}(Z, W)(P) on row-major vectorized inputs."""
    _check_row_poly(Q0)
    return _stein_solve(Q0, Z, W, np.eye(Z.n * W.n))


def szego_kernel_solve(Q0: NcMatrixPolynomial, Z: MatrixTuple, W: MatrixTuple, P) -> np.ndarray:
    """k_{Q0}(Z, W)(P): exact solution of T - Phi(T) = P by dense LU."""
    _check_row_poly(Q0)
    P = np.asarray(P, dtype=complex)
    if P.shape != (Z.n, W.n):
        raise DimensionMismatchError("P must be level(Z) x level(W)")
    return _stein_solve(Q0, Z, W, P.reshape(-1)).reshape(Z.n, W.n)


def szego_kernel_series(Q0: NcMatrixPolynomial, Z: MatrixTuple, W: MatrixTuple, P,
                        tol: float = 1e-12, max_terms: int = 10_000) -> tuple[np.ndarray, int]:
    """Truncated geometric series for the kernel, with its truncation length.

    Iterates T_{k+1} = Phi(T_k) from T_0 = P and stops once the a-priori
    tail bound (rho_Z rho_W)^{L+1} / (1 - rho_Z rho_W) * ||P|| drops below
    ``tol``.
    """
    _check_row_poly(Q0)
    P = np.asarray(P, dtype=complex)
    if P.shape != (Z.n, W.n):
        raise DimensionMismatchError("P must be level(Z) x level(W)")
    QZ = _eval_poly(Q0, Z)
    QW = _eval_poly(Q0, W)
    rho = operator_norm(QZ) * operator_norm(QW)
    if rho >= 1.0:
        raise DomainError("no convergent tail bound outside the disk")
    normP = float(np.linalg.norm(P, 2))
    total = np.array(P, dtype=complex)
    term = np.array(P, dtype=complex)
    L = 0
    while rho ** (L + 1) / (1.0 - rho) * normP > tol:
        term = QZ @ amp(term, Q0.r) @ QW.conj().T
        total += term
        L += 1
        if L > max_terms:
            raise RuntimeError("series failed to reach the tolerance")
    return total, L


def szego_tail_bound(Q0: NcMatrixPolynomial, Z: MatrixTuple, W: MatrixTuple, P,
                     L: int) -> float:
    """A-priori bound on the series remainder after L + 1 terms."""
    rho = operator_norm(_eval_poly(Q0, Z)) * operator_norm(_eval_poly(Q0, W))
    normP = float(np.linalg.norm(np.asarray(P), 2))
    return rho ** (L + 1) / (1.0 - rho) * normP


# ---------------------------------------------------------------------------
# Choi tests on finitely generated sets
# ---------------------------------------------------------------------------


def cp_check_finite(Q0: NcMatrixPolynomial, Omega_F: Sequence[MatrixTuple],
                    rel_tol: float = PSD_REL_TOL) -> tuple[PsdCertificate, ChoiMatrix]:
    """Certify complete positivity of the Szego kernel on a finite generating set.

    The kernel respects direct sums, so on the set generated by ``Omega_F``
    it is the map P -> k_{Q0}(Z, Z)(P) at the direct-sum point Z of level
    N.  Its map matrix has, for each pair of points (a, b), the block
    ``szego_map_matrix(Q0, Za, Zb)`` between the (a, b) blocks of input and
    output, and zeros elsewhere; one PSD test on the Choi matrix (n = N,
    block_dim = N) certifies complete positivity on the whole generated set.
    """
    if not Omega_F:
        raise ValueError("need at least one point")
    d0 = Omega_F[0].d
    if any(Z.d != d0 for Z in Omega_F):
        raise DimensionMismatchError("points have different variable counts")
    levels = [Z.n for Z in Omega_F]
    N = sum(levels)
    offs = np.concatenate(([0], np.cumsum(levels))).astype(int)
    # map4[row, col, i, j] = k(E_ij)[row, col] for the map at the sum point
    map4 = np.zeros((N, N, N, N), dtype=complex)
    for ai, Za in enumerate(Omega_F):
        a = slice(offs[ai], offs[ai] + Za.n)
        for bi, Zb in enumerate(Omega_F):
            b = slice(offs[bi], offs[bi] + Zb.n)
            K = szego_map_matrix(Q0, Za, Zb)
            map4[a, b, a, b] = K.reshape(Za.n, Zb.n, Za.n, Zb.n)
    C = map_matrix_to_choi(map4.reshape(N * N, N * N), N, N)
    return psd_check(C.matrix, rel_tol=rel_tol), C


def sandwich_matrix(A0: np.ndarray, n: int) -> np.ndarray:
    """Matrix of T -> A0 (T (x) I_c) A0^* on row-major vectorized n x n inputs.

    A0 is a coefficient-major value of shape (e n) x (c n); the result maps
    vec(T) to vec of an (e n) x (e n) matrix.
    """
    A0 = np.asarray(A0, dtype=complex)
    if A0.shape[1] % n:
        raise DimensionMismatchError("value columns are not a multiple of the level")
    c = A0.shape[1] // n
    out = np.zeros((A0.shape[0] ** 2, n * n), dtype=complex)
    for q in range(c):
        blockcol = A0[:, q * n : (q + 1) * n]
        out += np.kron(blockcol, blockcol.conj())
    return out


def dbr_kernel(Q0: NcMatrixPolynomial, Z: MatrixTuple, W: MatrixTuple, P,
               aZ, aW, bZ, bW) -> np.ndarray:
    """Generalized de Branges-Rovnyak kernel value.

    Returns ``a(Z) (k(Z,W)(P) (x) I_Y) a(W)^* - b(Z) (k(Z,W)(P) (x) I_U) b(W)^*``
    with the Szego kernel computed by exact solve.  ``aZ, aW`` are values of
    the left function at Z and W (shape (e n) x (y n), coefficient-major),
    ``bZ, bW`` likewise with column coefficient dimension u.
    """
    aZ = np.asarray(aZ, dtype=complex)
    aW = np.asarray(aW, dtype=complex)
    bZ = np.asarray(bZ, dtype=complex)
    bW = np.asarray(bW, dtype=complex)
    n, m = Z.n, W.n
    if aZ.shape[1] % n or aW.shape[1] % m or bZ.shape[1] % n or bW.shape[1] % m:
        raise DimensionMismatchError("tangential values are not over the point levels")
    y = aZ.shape[1] // n
    u = bZ.shape[1] // n
    if aW.shape[1] // m != y or bW.shape[1] // m != u:
        raise DimensionMismatchError("left/right coefficient dimensions differ")
    if aZ.shape[0] != bZ.shape[0] or aW.shape[0] != bW.shape[0]:
        raise DimensionMismatchError("a and b must share the E row space")
    k = szego_kernel_solve(Q0, Z, W, P)
    return aZ @ amp(k, y) @ aW.conj().T - bZ @ amp(k, u) @ bW.conj().T


def dbr_map_matrix(Q0: NcMatrixPolynomial, Z: MatrixTuple, A0, B0) -> np.ndarray:
    """Matrix of P -> dbr_kernel(Q0, Z, Z, P, A0, A0, B0, B0) on vec inputs."""
    A0 = np.asarray(A0, dtype=complex)
    B0 = np.asarray(B0, dtype=complex)
    if A0.shape[0] != B0.shape[0]:
        raise DimensionMismatchError("A0 and B0 must share the E row space")
    K = szego_map_matrix(Q0, Z, Z)
    return (sandwich_matrix(A0, Z.n) - sandwich_matrix(B0, Z.n)) @ K


def dbr_choi(Q0: NcMatrixPolynomial, Z: MatrixTuple, A0, B0) -> ChoiMatrix:
    """Choi matrix of the de Branges-Rovnyak map at the node Z.

    The map is P -> dbr_kernel(Q0, Z, Z, P, A0, A0, B0, B0) on n x n inputs;
    its Choi matrix has n x n blocks of side (e n), the row dimension of A0.
    """
    A0 = np.asarray(A0, dtype=complex)
    return map_matrix_to_choi(dbr_map_matrix(Q0, Z, A0, B0), Z.n, A0.shape[0])


def map_matrix_to_choi(Mmat: np.ndarray, n: int, out_dim: int) -> ChoiMatrix:
    """Choi matrix of a map given by its matrix on row-major vec inputs.

    ``Mmat`` maps vec of n x n inputs to vec of out_dim x out_dim outputs;
    column i * n + j holds vec(M(E_ij)).
    """
    Mmat = np.asarray(Mmat, dtype=complex)
    if Mmat.shape != (out_dim * out_dim, n * n):
        raise DimensionMismatchError("map matrix has unexpected shape")
    tens = Mmat.reshape(out_dim, out_dim, n, n)
    choi = tens.transpose(2, 0, 3, 1).reshape(n * out_dim, n * out_dim)
    return ChoiMatrix(n, out_dim, choi)
