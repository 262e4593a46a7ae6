"""Completely positive kernel machinery.

The central object is the generalized Szego kernel attached to a row-type
defining polynomial Q0 (one coefficient row, s = 1): for points Z, W inside
the disk it is the unique solution T of the Stein identity

    T - Q0(Z) (T (x) I_R) Q0(W)* = P,

computed by ``_stein_solve``, ncpick's one solve of an identity-minus
system: dense LU of I - sum_rho E_rho (x) M_rho at a stack of values Q0(Z)
with blocks E_rho, here with M_rho = conj(F_rho) for the blocks F_rho of
Q0(W) (transfer functions and the Oka-Weil tail take M_rho = A_rho).  The
test suite keeps the truncated geometric series, with its a-priori tail
bound, as an independent oracle.  A linear map on matrices is represented
by its matrix on row-major vectorized inputs, and its Choi matrix is a
reshape of that matrix (``map_matrix_to_choi``; ``cp_check_finite``
applies the same reshape to rectangular pair blocks).  On top of that sit
PSD certificates, Kolmogorov factors certified by their own
eigendecomposition, the finite complete-positivity test of the Szego
kernel, and the de Branges-Rovnyak kernel used by the interpolation
criteria.

Single-node de Branges-Rovnyak data (Q0, Z0, A0, B0) lives in one place,
``PickProblem``: its construction is the only validation of that data and
the only evaluation of Q0(Z0).  From it, ``_dbr_map`` and ``_dbr_choi`` are
the one route to the map and its Choi matrix; ``dbr_map_matrix``,
``dbr_choi``, the Pick pipeline, the Stein-dominance test and the
lurking-isometry synthesis all go through them.

Everything here is pure and operates on immutable inputs; callers may
parallelize across independent (Z, W, P) triples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "PickProblem",
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
    if A.size == 0:  # read as the zero spectrum, as ``_certified_factor`` reads it
        return _certificate(0.0, 0.0, rel_tol)
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
    """Blocks B_1..B_n, one (n, block_dim, rank) array: Choi block (i, j) = B_i B_j^*."""

    rank: int
    blocks: np.ndarray

    @property
    def stacked(self) -> np.ndarray:
        """Row concatenation H = [B_1 ... B_n]: C^n (x) X -> block space."""
        n, b, rank = self.blocks.shape
        return self.blocks.transpose(1, 0, 2).reshape(b, n * rank)


def _on_support(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C less each row that is exactly zero with its column (C itself if none), and the kept mask.

    Such a pair only adds a structural zero eigenvalue.  Every nonzero entry
    stays, so the Hermiticity test of the restricted matrix is that of C.
    """
    nonzero = C != 0
    live = nonzero.any(axis=0) | nonzero.any(axis=1)
    return (C if live.all() else C[np.ix_(live, live)]), live


def _certified_factor(C: ChoiMatrix,
                      psd_tol: float) -> tuple[PsdCertificate, KolmogorovFactor | None]:
    """PSD certificate of C and, on a ``psd`` verdict, its Kolmogorov factor.

    One ``eigh`` of C on its support (``_on_support``) gives both: the
    verdict is ``psd_check``'s dead band at ``psd_tol``, and the factor keeps
    the eigenvalues above ``KOLMOGOROV_RANK_TOL`` times the largest (none if
    that is not positive), with zero rows off the support.
    """
    S, live = _on_support(C.matrix)
    vals, vecs = np.linalg.eigh(_hermitian_part(S))
    lo, hi = (float(vals[0]), float(vals[-1])) if vals.size else (0.0, 0.0)
    cert = _certificate(lo, hi, psd_tol)
    if not cert.is_psd:
        return cert, None
    keep = vals > KOLMOGOROV_RANK_TOL * max(cert.max_eig, 0.0)
    F = np.zeros((live.size, np.count_nonzero(keep)), dtype=complex)
    F[live] = vecs[:, keep] * np.sqrt(vals[keep])
    return cert, KolmogorovFactor(F.shape[1], F.reshape(C.n, C.block_dim, F.shape[1]))


def kolmogorov_factor(C: ChoiMatrix, *, psd_tol: float = PSD_REL_TOL) -> KolmogorovFactor:
    """Factor a PSD Choi matrix as [B_i B_j^*] by truncated eigendecomposition.

    Eigenvalues below ``KOLMOGOROV_RANK_TOL`` times the largest are dropped;
    the retained rank is the state-space dimension of the induced Kolmogorov
    decomposition M(P) = H (P (x) I_X) H^*.  Wraps ``_certified_factor``,
    whose one ``eigh`` also gives the PSD test at ``psd_tol``; raises
    ``NotPsdError`` on a ``not_psd`` verdict.
    """
    cert, factor = _certified_factor(C, psd_tol)
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


def _phi_matrix(QZ: np.ndarray, M: np.ndarray) -> np.ndarray:
    """sum_rho E_rho (x) M_rho, shape (K, n p, n q), for a stack ``QZ`` of K values Q0(Z).

    ``QZ`` has shape (K, n, r n) and E_rho is a value's n x n block in
    tensor slot rho; ``M`` holds the r right factors, shape (r, p, q).
    """
    K, n = QZ.shape[0], QZ.shape[1]
    r, p, q = M.shape
    return np.einsum("kirj,rab->kiajb", QZ.reshape(K, n, r, n), M).reshape(K, n * p, n * q)


def _stein_solve(QZ: np.ndarray, M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - sum_rho E_rho (x) M_rho) x = rhs by dense LU at each value in the stack.

    ``QZ`` and ``M`` (square factors) are as in ``_phi_matrix``; ``rhs`` has
    shape (K, n p, c), or (1, n p, c) when shared by the stack.
    """
    G = _phi_matrix(QZ, M)
    # I - G in place: G is a fresh array, and the einsum its diagonals' view
    np.negative(G, out=G)
    np.einsum("kii->ki", G)[...] += 1.0
    return np.linalg.solve(G, rhs)


def _szego_solve(QZ: np.ndarray, QW: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``_stein_solve`` of T - Q0(Z) (T (x) I_R) Q0(W)^* = P on row-major vec T.

    The right factors are conj(F_rho) for the m x m blocks F_rho of Q0(W);
    ``rhs`` has shape (n m, c).
    """
    m, rm = QW.shape
    return _stein_solve(QZ[None], QW.conj().reshape(m, rm // m, m).transpose(1, 0, 2),
                        rhs[None])[0]


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
    return _szego_solve(*_pair_values(Q0, Z, W), np.eye(Z.n * W.n))


def szego_kernel_solve(Q0: NcMatrixPolynomial, Z: MatrixTuple, W: MatrixTuple, P) -> np.ndarray:
    """k_{Q0}(Z, W)(P): exact solution of T - Phi(T) = P by dense LU."""
    _check_row_poly(Q0)
    P = np.asarray(P, dtype=complex)
    if P.shape != (Z.n, W.n):
        raise DimensionMismatchError("P must be level(Z) x level(W)")
    return _szego_solve(*_pair_values(Q0, Z, W), P.reshape(-1, 1)).reshape(Z.n, W.n)


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
            K = _szego_solve(QZa, QZb, np.eye(na * nb))
            support_choi[sq[a] : sq[a + 1], sq[b] : sq[b + 1]] = _choi_reshuffle(
                K, (na, nb), (na, nb))
    support_choi = _hermitian_part(support_choi)
    cert = psd_check(support_choi, rel_tol)
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

    A0 is a validated coefficient-major value of shape (e n) x (c n); the
    result maps vec(T) to vec of an (e n) x (e n) matrix.  With P_q the q-th
    block column of A0 it is sum_q P_q (x) conj(P_q), one ``einsum`` over q.
    """
    en, c = A0.shape[0], A0.shape[1] // n
    P = A0.reshape(en, c, n)
    return np.einsum("aqi,bqj->abij", P, P.conj()).reshape(en * en, n * n)


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


@dataclass(frozen=True)
class PickProblem:
    """Single-point left-tangential data A0 S(Z0) = B0 over the disk of Q0.

    A0 has shape (e n) x (y n) and B0 has shape (e n) x (u n) in the
    coefficient-major layout, where n is the level of Z0.  Construction is
    the one validation of single-node de Branges-Rovnyak data.
    """

    Q0: NcMatrixPolynomial
    Z0: MatrixTuple
    A0: np.ndarray
    B0: np.ndarray
    # Q0(Z0), evaluated once by the domain check and reused by every stage
    _QZ0: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        A0 = np.array(self.A0, dtype=complex)
        B0 = np.array(self.B0, dtype=complex)
        n = self.Z0.n
        if A0.ndim != 2 or B0.ndim != 2 or A0.shape[0] != B0.shape[0]:
            raise DimensionMismatchError("A0 and B0 must share their row space")
        if A0.shape[0] == 0:
            raise DimensionMismatchError("tangential data needs at least one row (dimE >= 1)")
        if A0.shape[0] % n or A0.shape[1] % n or B0.shape[1] % n:
            raise DimensionMismatchError("tangential data must be over the level of Z0")
        QZ0 = _eval_in_domain(self.Q0, self.Z0)
        for a in (A0, B0, QZ0):
            a.setflags(write=False)
        object.__setattr__(self, "A0", A0)
        object.__setattr__(self, "B0", B0)
        object.__setattr__(self, "_QZ0", QZ0)

    @property
    def n(self) -> int:
        return self.Z0.n

    @property
    def dimE(self) -> int:
        return self.A0.shape[0] // self.n

    @property
    def dimY(self) -> int:
        return self.A0.shape[1] // self.n

    @property
    def dimU(self) -> int:
        return self.B0.shape[1] // self.n


def _dbr_map(p: PickProblem) -> np.ndarray:
    """Matrix of the de Branges-Rovnyak map at the node, on vec inputs.

    The one route from validated data to the map: the Stein solve runs on
    the problem's own Q0(Z0).
    """
    _check_row_poly(p.Q0)
    K = _szego_solve(p._QZ0, p._QZ0, np.eye(p.n * p.n))
    return (_sandwich_matrix(p.A0, p.n) - _sandwich_matrix(p.B0, p.n)) @ K


def _dbr_choi(p: PickProblem) -> ChoiMatrix:
    """Choi matrix of the de Branges-Rovnyak map: n x n blocks of side e n."""
    return map_matrix_to_choi(_dbr_map(p), p.n, p.A0.shape[0])


def dbr_map_matrix(Q0: NcMatrixPolynomial, Z: MatrixTuple, A0, B0) -> np.ndarray:
    """Matrix of P -> dbr_kernel(Q0, Z, Z, P, A0, A0, B0, B0) on vec inputs."""
    return _dbr_map(PickProblem(Q0, Z, A0, B0))


def dbr_choi(Q0: NcMatrixPolynomial, Z: MatrixTuple, A0, B0) -> ChoiMatrix:
    """Choi matrix of the de Branges-Rovnyak map at the node Z.

    The map is P -> dbr_kernel(Q0, Z, Z, P, A0, A0, B0, B0) on n x n inputs;
    its Choi matrix has n x n blocks of side (e n), the row dimension of A0.
    """
    return _dbr_choi(PickProblem(Q0, Z, A0, B0))


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
