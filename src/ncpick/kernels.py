"""Completely positive kernel machinery.

The central object is the generalized Szego kernel attached to a row-type
defining polynomial Q0 (one coefficient row, s = 1): for points Z, W inside
the disk it is the unique solution T of the Stein identity

    T - Q0(Z) (T (x) I_R) Q0(W)* = P,

computed by one dense linear solve on the vectorized equation (the test
suite keeps the truncated geometric series, with its a-priori tail bound,
as an independent oracle).  A linear map on matrices is represented by its
matrix on row-major vectorized inputs, and its Choi matrix is a reshape of
that matrix (``map_matrix_to_choi``; ``cp_check_finite`` applies the same
reshape to rectangular pair blocks).  On top of that sit PSD certificates,
Kolmogorov factors certified by their own eigendecomposition, the finite
complete-positivity test of the Szego kernel, and the de Branges-Rovnyak
kernel used by the interpolation criteria.

Everything here is pure and operates on immutable inputs; callers may
parallelize across independent (Z, W, P) triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DimensionMismatchError,
    MatrixTuple,
    NcMatrixPolynomial,
    _eval_in_domain,
    amp,
)

__all__ = [
    "PsdCertificate",
    "ChoiMatrix",
    "KolmogorovFactor",
    "NotPsdError",
    "psd_check",
    "cp_check_finite",
    "kolmogorov_factor",
    "szego_kernel_solve",
    "szego_map_matrix",
    "dbr_kernel",
    "dbr_map_matrix",
    "dbr_choi",
    "map_matrix_to_choi",
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
    return _certificate(float(eigs[0]), float(eigs[-1]), rel_tol)


def _certificate(lo: float, hi: float, rel_tol: float) -> PsdCertificate:
    """The dead-band rule: verdict from the extreme eigenvalues ``lo <= hi``."""
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


def _certified_factor(C: ChoiMatrix, psd_tol: float, rank_tol: float = KOLMOGOROV_RANK_TOL,
                      ) -> tuple[PsdCertificate, KolmogorovFactor | None]:
    """PSD certificate of C and, on a ``psd`` verdict, its Kolmogorov factor.

    One ``eigh`` gives both: the verdict is ``psd_check``'s dead band at
    ``psd_tol``, and the factor keeps the eigenvalues above ``rank_tol``
    times the largest (none if that is not positive).
    """
    b = C.block_dim
    vals, vecs = np.linalg.eigh(_hermitian_part(C.matrix))
    lo, hi = (float(vals[0]), float(vals[-1])) if vals.size else (0.0, 0.0)
    cert = _certificate(lo, hi, psd_tol)
    if not cert.is_psd:
        return cert, None
    keep = vals > rank_tol * max(cert.max_eig, 0.0)
    F = vecs[:, keep] * np.sqrt(vals[keep])
    return cert, KolmogorovFactor(F.shape[1], tuple(F[i * b : (i + 1) * b] for i in range(C.n)))


def kolmogorov_factor(C: ChoiMatrix, rank_tol: float = KOLMOGOROV_RANK_TOL,
                      psd_tol: float = PSD_REL_TOL) -> KolmogorovFactor:
    """Factor a PSD Choi matrix as [B_i B_j^*] by truncated eigendecomposition.

    Eigenvalues below ``rank_tol`` times the largest are dropped; the
    retained rank is the state-space dimension of the induced Kolmogorov
    decomposition M(P) = H (P (x) I_X) H^*.  Wraps ``_certified_factor``,
    whose one ``eigh`` also gives the PSD test at ``psd_tol``; raises
    ``NotPsdError`` on a ``not_psd`` verdict.
    """
    cert, factor = _certified_factor(C, psd_tol, rank_tol)
    if factor is None:
        raise NotPsdError(f"Choi matrix is not PSD (min eig {cert.min_eig:.3g})")
    return factor


# ---------------------------------------------------------------------------
# The generalized Szego kernel
# ---------------------------------------------------------------------------


def _check_row_poly(Q0: NcMatrixPolynomial) -> None:
    # the exact-solve route is specified only for one-row defining polynomials
    if Q0.s != 1:
        raise ValueError("the Szego kernel requires a one-row polynomial (s = 1)")


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


def _stein_solve(QZ: np.ndarray, QW: np.ndarray, r: int, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - Phi) x = rhs for row-major vectorized n x m unknowns.

    Phi is built from the values Q0(Z) and Q0(W) of a one-row Q0 with r
    columns per level; callers evaluate them through ``_eval_in_domain``.
    """
    nm = QZ.shape[0] * QW.shape[0]
    return np.linalg.solve(np.eye(nm) - _phi_matrix(QZ, QW, r), rhs)


def _pair_values(Q0: NcMatrixPolynomial, Z: MatrixTuple,
                 W: MatrixTuple) -> tuple[np.ndarray, np.ndarray]:
    """Q0(Z) and Q0(W), once per point (once in total when ``W is Z``).

    Raises ``DomainError`` unless both points lie in the disk.
    """
    QZ = _eval_in_domain(Q0, Z)
    return QZ, QZ if W is Z else _eval_in_domain(Q0, W)


def szego_map_matrix(Q0: NcMatrixPolynomial, Z: MatrixTuple, W: MatrixTuple) -> np.ndarray:
    """Matrix of P -> k_{Q0}(Z, W)(P) on row-major vectorized inputs."""
    _check_row_poly(Q0)
    return _stein_solve(*_pair_values(Q0, Z, W), Q0.r, np.eye(Z.n * W.n))


def szego_kernel_solve(Q0: NcMatrixPolynomial, Z: MatrixTuple, W: MatrixTuple, P) -> np.ndarray:
    """k_{Q0}(Z, W)(P): exact solution of T - Phi(T) = P by dense LU."""
    _check_row_poly(Q0)
    P = np.asarray(P, dtype=complex)
    if P.shape != (Z.n, W.n):
        raise DimensionMismatchError("P must be level(Z) x level(W)")
    return _stein_solve(*_pair_values(Q0, Z, W), Q0.r, P.reshape(-1)).reshape(Z.n, W.n)


# ---------------------------------------------------------------------------
# Choi tests on finitely generated sets
# ---------------------------------------------------------------------------


def cp_check_finite(Q0: NcMatrixPolynomial, Omega_F: Sequence[MatrixTuple],
                    rel_tol: float = PSD_REL_TOL) -> tuple[PsdCertificate, ChoiMatrix]:
    """Certify complete positivity of the Szego kernel on a finite generating set.

    The kernel respects direct sums, so on the set generated by ``Omega_F``
    it is the map P -> k_{Q0}(Z, Z)(P) at the direct-sum point Z of level
    N.  For points a, b the map sends the (a, b) input block into the
    (a, b) output block by the Stein solve from Q0(Za) and Q0(Zb) (each
    evaluated once) and is zero elsewhere, so every Choi row (i, r) with r
    outside the block of i is exactly zero.  The PSD test runs on the Choi
    matrix restricted to its support, of side sum_a n_a^2 and built one
    pair block at a time: its spectrum is the full spectrum less the
    structural zeros, so ``min_eig`` is the margin of the data, not of the
    padding.  The (b, a) blocks are solved, not copied, so the Hermiticity
    test compares independent solves; the tested matrix is their Hermitian
    part, which is exactly Hermitian.  The returned Choi matrix (n = N,
    block_dim = N) is the full one, that same matrix scattered into zeros.
    """
    if not Omega_F:
        raise ValueError("need at least one point")
    d0 = Omega_F[0].d
    if any(Z.d != d0 for Z in Omega_F):
        raise DimensionMismatchError("points have different variable counts")
    _check_row_poly(Q0)
    values = [_eval_in_domain(Q0, Z) for Z in Omega_F]
    levels = [Z.n for Z in Omega_F]
    N = sum(levels)
    sq = np.concatenate(([0], np.cumsum([n * n for n in levels]))).astype(int)
    support_choi = np.empty((sq[-1], sq[-1]), dtype=complex)
    for a, (QZa, na) in enumerate(zip(values, levels)):
        for b, (QZb, nb) in enumerate(zip(values, levels)):
            K = _stein_solve(QZa, QZb, Q0.r, np.eye(na * nb))
            support_choi[sq[a] : sq[a + 1], sq[b] : sq[b + 1]] = _choi_reshuffle(
                K, (na, nb), (na, nb))
    support_choi = _hermitian_part(support_choi)
    cert = psd_check(support_choi, rel_tol=rel_tol)
    # support: Choi indices i * N + r with i and r in the same point's block,
    # in Choi order, which is also the pair-block order above
    offs = np.concatenate(([0], np.cumsum(levels))).astype(int)
    support = np.concatenate([(np.arange(o, o + n)[:, None] * N + np.arange(o, o + n)).ravel()
                              for o, n in zip(offs, levels)])
    full = np.zeros((N * N, N * N), dtype=complex)
    full[np.ix_(support, support)] = support_choi
    return cert, ChoiMatrix(N, N, full)


def _sandwich_matrix(A0: np.ndarray, n: int) -> np.ndarray:
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
    return (_sandwich_matrix(A0, Z.n) - _sandwich_matrix(B0, Z.n)) @ K


def dbr_choi(Q0: NcMatrixPolynomial, Z: MatrixTuple, A0, B0) -> ChoiMatrix:
    """Choi matrix of the de Branges-Rovnyak map at the node Z.

    The map is P -> dbr_kernel(Q0, Z, Z, P, A0, A0, B0, B0) on n x n inputs;
    its Choi matrix has n x n blocks of side (e n), the row dimension of A0.
    """
    A0 = np.asarray(A0, dtype=complex)
    return map_matrix_to_choi(dbr_map_matrix(Q0, Z, A0, B0), Z.n, A0.shape[0])


def _choi_reshuffle(Mmat: np.ndarray, in_shape: tuple[int, int],
                    out_shape: tuple[int, int]) -> np.ndarray:
    """Choi block [M(E_ij)] of a map from n x m inputs to p x q outputs.

    ``Mmat`` is the (p q) x (n m) matrix of the map on row-major vec inputs,
    column i * m + j holding vec(M(E_ij)); the result has rows (i, row) and
    columns (j, col), side (n p) x (m q).
    """
    (n, m), (p, q) = in_shape, out_shape
    return Mmat.reshape(p, q, n, m).transpose(2, 0, 3, 1).reshape(n * p, m * q)


def map_matrix_to_choi(Mmat: np.ndarray, n: int, out_dim: int) -> ChoiMatrix:
    """Choi matrix of a map given by its matrix on row-major vec inputs.

    ``Mmat`` maps vec of n x n inputs to vec of out_dim x out_dim outputs;
    column i * n + j holds vec(M(E_ij)).
    """
    Mmat = np.asarray(Mmat, dtype=complex)
    if Mmat.shape != (out_dim * out_dim, n * n):
        raise DimensionMismatchError("map matrix has unexpected shape")
    return ChoiMatrix(n, out_dim, _choi_reshuffle(Mmat, (n, n), (out_dim, out_dim)))
