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
reshape of that matrix (``map_matrix_to_choi``; ``_dbr_support`` applies
the same reshape to rectangular pair blocks).  On top of that sit
PSD certificates, Kolmogorov factors certified by their own
eigendecomposition, the finite complete-positivity test of the Szego
kernel, and the de Branges-Rovnyak kernel used by the interpolation
criteria.

De Branges-Rovnyak data lives in one place, ``PickProblem``: its
construction is the only validation of a node (Q0, Z0, A0, B0) and the
only evaluation of Q0(Z0), and a Pick problem on a finite set is a list of
nodes over one Q0.  ``_dbr_support`` assembles every de Branges-Rovnyak
and Szego Choi matrix on its support, pair by pair from ``_dbr_pair``.

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


def _certified_factor(C: np.ndarray,
                      psd_tol: float) -> tuple[PsdCertificate, np.ndarray | None]:
    """PSD certificate of the Choi matrix C and, on a ``psd`` verdict, its factor F.

    One ``eigh`` of C on its support (``_on_support``) gives both: the
    verdict is ``psd_check``'s dead band at ``psd_tol``, and F, with
    C = F F^*, keeps the eigenvalues above ``KOLMOGOROV_RANK_TOL`` times the
    largest (none if that is not positive), with zero rows off the support.
    """
    S, live = _on_support(C)
    vals, vecs = np.linalg.eigh(_hermitian_part(S))
    lo, hi = (float(vals[0]), float(vals[-1])) if vals.size else (0.0, 0.0)
    cert = _certificate(lo, hi, psd_tol)
    if not cert.is_psd:
        return cert, None
    keep = vals > KOLMOGOROV_RANK_TOL * max(cert.max_eig, 0.0)
    F = np.zeros((live.size, np.count_nonzero(keep)), dtype=complex)
    F[live] = vecs[:, keep] * np.sqrt(vals[keep])
    return cert, F


def kolmogorov_factor(C: ChoiMatrix, *, psd_tol: float = PSD_REL_TOL) -> KolmogorovFactor:
    """Factor a PSD Choi matrix as [B_i B_j^*] by truncated eigendecomposition.

    Eigenvalues below ``KOLMOGOROV_RANK_TOL`` times the largest are dropped;
    the retained rank is the state-space dimension of the induced Kolmogorov
    decomposition M(P) = H (P (x) I_X) H^*.  Wraps ``_certified_factor``,
    whose one ``eigh`` also gives the PSD test at ``psd_tol``; raises
    ``NotPsdError`` on a ``not_psd`` verdict.
    """
    cert, F = _certified_factor(C.matrix, psd_tol)
    if F is None:
        raise NotPsdError(f"Choi matrix is not PSD (min eig {cert.min_eig:.3g})")
    return KolmogorovFactor(F.shape[1], F.reshape(C.n, C.block_dim, F.shape[1]))


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
# de Branges-Rovnyak Choi matrices on finite node sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PickProblem:
    """Single-node left-tangential data A0 S(Z0) = B0 over the disk of Q0.

    A0 has shape (e n) x (y n) and B0 has shape (e n) x (u n) in the
    coefficient-major layout, where n is the level of Z0.  Construction is
    the one validation of a node's de Branges-Rovnyak data; a Pick problem
    on a finite set is a list of nodes over one Q0 (``_pick_nodes``).
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


def _pick_nodes(problems: PickProblem | Sequence[PickProblem]) -> list[PickProblem]:
    """The nodes of one ``PickProblem`` or a list of them, each exactly equal node once.

    The nodes must share Q0, dimY and dimU.  A node equal entry for entry
    to an earlier one (Z0, A0 and B0) generates no more of the set, and
    certifying it twice would only add the exact zero of a repeated row
    pair, so the first is kept and the repeat dropped.
    """
    nodes = [problems] if isinstance(problems, PickProblem) else list(problems)
    if not nodes:
        raise ValueError("need at least one node")
    first = nodes[0]
    if any(p.Q0 != first.Q0 or (p.dimY, p.dimU) != (first.dimY, first.dimU)
           for p in nodes[1:]):
        raise DimensionMismatchError("nodes must share Q0, dimU and dimY")
    entries = [(*p.Z0.components, p.A0, p.B0) for p in nodes]
    return [p for k, p in enumerate(nodes)
            if not any(all(map(np.array_equal, entries[k], entries[j])) for j in range(k))]


def _sandwich_matrix(Aa: np.ndarray, Ab: np.ndarray, na: int, nb: int) -> np.ndarray:
    """Matrix of T -> Aa (T (x) I_c) Ab^* on row-major vectorized na x nb inputs.

    Aa and Ab are validated coefficient-major values of shapes (ea na) x
    (c na) and (eb nb) x (c nb).  With Pa_q, Pb_q their q-th block columns
    it is sum_q Pa_q (x) conj(Pb_q), one ``einsum`` over q.
    """
    c = Aa.shape[1] // na
    Pa, Pb = Aa.reshape(Aa.shape[0], c, na), Ab.reshape(Ab.shape[0], c, nb)
    return np.einsum("aqi,bqj->abij", Pa, Pb.conj()).reshape(Aa.shape[0] * Ab.shape[0], na * nb)


def _dbr_pair(pa: PickProblem, pb: PickProblem, rhs: np.ndarray) -> np.ndarray:
    """The pair map of nodes a and b on vec inputs ``rhs`` (columns vec P).

    P -> A_a (k(Z_a, Z_b)(P) (x) I_Y) A_b^* - B_a (k (x) I_U) B_b^*: the Stein
    solve from the nodes' own Q0 values, then the two sandwiches.
    """
    _check_row_poly(pa.Q0)
    K = _szego_solve(pa._QZ0, pb._QZ0, rhs)
    return (_sandwich_matrix(pa.A0, pb.A0, pa.n, pb.n)
            - _sandwich_matrix(pa.B0, pb.B0, pa.n, pb.n)) @ K


def _dbr_support(nodes: Sequence[PickProblem]) -> np.ndarray:
    """The de Branges-Rovnyak Choi matrix of a node list on its support.

    At the direct sum of the nodes the map sends input block (a, b) into
    output block (a, b) only, so its Choi matrix lives on the rows (i, row)
    with i and row in one node's blocks: side sum_a e_a n_a^2, and for one
    node its whole Choi matrix (n blocks of side e n).  Block (a, b) is the
    Choi block of the pair map; the (b, a) blocks are solved, not copied,
    so p nodes take p^2 Stein solves and no Q0 evaluation.
    """
    return np.block([[_choi_reshuffle(_dbr_pair(pa, pb, np.eye(pa.n * pb.n)), (pa.n, pb.n),
                                      (pa.A0.shape[0], pb.A0.shape[0])) for pb in nodes]
                     for pa in nodes])


def cp_check_finite(Q0: NcMatrixPolynomial, Omega_F: Sequence[MatrixTuple],
                    rel_tol: float = PSD_REL_TOL) -> tuple[PsdCertificate, ChoiMatrix]:
    """Certify complete positivity of the Szego kernel on a finite generating set.

    The kernel respects direct sums, so on the set generated by ``Omega_F``
    it is the map P -> k_{Q0}(Z, Z)(P) at the direct-sum point Z of level
    N: the de Branges-Rovnyak map of the nodes (Z_a, I, 0), each exactly
    equal point taken once, with ``_dbr_support``'s Choi matrix.  As in
    every certificate, the PSD test runs on the support, less the zero rows
    inside a block (a diagonal point's), so ``min_eig`` is the margin of
    the data, not of padding.  The (b, a) blocks are solved independently,
    so the Hermiticity test compares independent solves; the tested matrix
    is their exactly Hermitian part, which the returned full Choi matrix of
    the distinct points (n = N, block_dim = N, viewed as (i, r, j, c)) holds.
    """
    if not Omega_F:
        raise ValueError("need at least one point")
    d0 = Omega_F[0].d
    if any(Z.d != d0 for Z in Omega_F):
        raise DimensionMismatchError("points have different variable counts")
    _check_row_poly(Q0)
    nodes = _pick_nodes([PickProblem(Q0, Z, np.eye(Z.n), np.zeros((Z.n, 0)))
                         for Z in Omega_F])
    S = _dbr_support(nodes)
    support, live = _on_support(S)
    support = _hermitian_part(support)
    S[np.ix_(live, live)] = support
    # the support rows (i, r), i and r in one point's block, are the Choi rows i N + r
    block = np.repeat(np.arange(len(nodes)), [p.n for p in nodes])
    rows, N = np.flatnonzero(block[:, None] == block), block.size
    full = np.zeros((N * N, N * N), dtype=complex)
    full[np.ix_(rows, rows)] = S
    return psd_check(support, rel_tol), ChoiMatrix(N, N, full)


def dbr_kernel(Q0: NcMatrixPolynomial, Z: MatrixTuple, W: MatrixTuple, P,
               aZ, aW, bZ, bW) -> np.ndarray:
    """Generalized de Branges-Rovnyak kernel value.

    Returns ``a(Z) (k(Z,W)(P) (x) I_Y) a(W)^* - b(Z) (k(Z,W)(P) (x) I_U) b(W)^*``,
    the pair map of the nodes (Z, aZ, bZ) and (W, aW, bW) applied to vec P.
    ``aZ, aW`` are values of the left function at Z and W (shape (e n) x
    (y n), coefficient-major), ``bZ, bW`` likewise with column coefficient
    dimension u; ``PickProblem`` and ``_pick_nodes`` validate them.
    """
    pZ, pW = PickProblem(Q0, Z, aZ, bZ), PickProblem(Q0, W, aW, bW)
    _pick_nodes([pZ, pW])  # the pair's shared dimensions
    P = np.asarray(P, dtype=complex)
    if P.shape != (Z.n, W.n):
        raise DimensionMismatchError("P must be level(Z) x level(W)")
    return _dbr_pair(pZ, pW, P.reshape(-1, 1)).reshape(pZ.A0.shape[0], pW.A0.shape[0])


def dbr_map_matrix(Q0: NcMatrixPolynomial, Z: MatrixTuple, A0, B0) -> np.ndarray:
    """Matrix of P -> dbr_kernel(Q0, Z, Z, P, A0, A0, B0, B0) on vec inputs."""
    p = PickProblem(Q0, Z, A0, B0)
    return _dbr_pair(p, p, np.eye(p.n * p.n))


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
