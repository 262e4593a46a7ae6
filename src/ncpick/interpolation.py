"""Feasibility certificates and the certify / synthesize / verify pipeline.

Single-point left-tangential data (Q0, Z0, A0, B0) asks for a contractive
noncommutative function S on the disk of Q0 with A0 S(Z0) = B0.  The
criterion is complete positivity of the de Branges-Rovnyak map

    P  ->  A0 (k(Z0,Z0)(P) (x) I_Y) A0^* - B0 (k(Z0,Z0)(P) (x) I_U) B0^*,

certified by one PSD test on its Choi matrix at the node's own level n
(Choi's theorem).  Infeasible problems return certificates, never
exceptions; the CLI turns them into exit codes.

All series over the free semigroup are computed as exact Stein-equation
fixed points; word enumeration appears only in test oracles and in the
finite LTOA sums.
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
    _eval_poly,
    _eval_word,
    _operator_norms,
    amp,
    direct_sum_many,
    in_domain,
    operator_norm,
    rep_diag,
    word_transpose,
)
from .kernels import (
    PSD_REL_TOL,
    ChoiMatrix,
    PsdCertificate,
    _certified_factor,
    dbr_choi,
    psd_check,
    szego_kernel_solve,
)
from .okaweil import extract_nc_polynomial
from .realization import (
    Colligation,
    RealizedFunction,
    SynthesisDiagnostics,
    _synthesize,
    _transfer_stack,
)
from .sampling import _sample_stack

__all__ = [
    "PickProblem",
    "LtoaProblem",
    "SolveReport",
    "multi_point_to_single",
    "pick_certificate",
    "solve_pick",
    "ltoa_eval",
    "twisted_ltoa_eval",
    "ltoa_certificate",
    "stein_dominance_certificate",
    "strict_stein_refuter",
]


@dataclass(frozen=True)
class PickProblem:
    """Single-point left-tangential data A0 S(Z0) = B0 over the disk of Q0.

    A0 has shape (e n) x (y n) and B0 has shape (e n) x (u n) in the
    coefficient-major layout, where n is the level of Z0.
    """

    Q0: NcMatrixPolynomial
    Z0: MatrixTuple
    A0: np.ndarray
    B0: np.ndarray

    def __post_init__(self) -> None:
        A0 = np.array(self.A0, dtype=complex)
        B0 = np.array(self.B0, dtype=complex)
        n = self.Z0.n
        if A0.ndim != 2 or B0.ndim != 2 or A0.shape[0] != B0.shape[0]:
            raise DimensionMismatchError("A0 and B0 must share their row space")
        if A0.shape[0] % n or A0.shape[1] % n or B0.shape[1] % n:
            raise DimensionMismatchError("tangential data must be over the level of Z0")
        if not in_domain(self.Q0, self.Z0):
            raise DomainError("interpolation node lies outside the disk of Q0")
        A0.setflags(write=False)
        B0.setflags(write=False)
        object.__setattr__(self, "A0", A0)
        object.__setattr__(self, "B0", B0)

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


@dataclass(frozen=True)
class LtoaProblem:
    """Left-tangential operator-argument data over the noncommutative ball.

    X maps Y into C^n and Y_target maps U into C^n; a solution is a
    contractive S with sum_w Z0^(w^T) X S_w = Y_target.
    """

    Z0: MatrixTuple
    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self) -> None:
        X = np.array(self.X, dtype=complex)
        Y = np.array(self.Y, dtype=complex)
        n = self.Z0.n
        if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != n or Y.shape[0] != n:
            raise DimensionMismatchError("tangential rows must equal the level of Z0")
        row = NcMatrixPolynomial.row_pencil(self.Z0.d)
        if not in_domain(row, self.Z0):
            raise DomainError("node lies outside the noncommutative ball")
        X.setflags(write=False)
        Y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)


def multi_point_to_single(problems: Sequence[PickProblem]) -> PickProblem:
    """Fuse finitely many problems sharing Q0 into one single-point problem.

    Nodes and tangential data are direct-summed; row spaces E_i of the
    summands are embedded into their direct sum, so heterogeneous E
    dimensions only add zero rows (harmless for the PSD verdict).
    """
    if not problems:
        raise ValueError("need at least one problem")
    first = problems[0]
    if any(p.Q0 != first.Q0 for p in problems):
        raise DimensionMismatchError("problems must share the defining polynomial")
    if any((p.dimY, p.dimU) != (first.dimY, first.dimU) for p in problems):
        raise DimensionMismatchError("problems must share dimU and dimY")
    if len(problems) == 1:
        return first
    y, u = first.dimY, first.dimU
    es = [p.dimE for p in problems]
    e_tot = sum(es)
    levels = [p.n for p in problems]
    N = sum(levels)
    Z0 = direct_sum_many([p.Z0 for p in problems])
    A0 = np.zeros((e_tot * N, y * N), dtype=complex)
    B0 = np.zeros((e_tot * N, u * N), dtype=complex)
    e_off = 0
    n_off = 0
    # on the views (e, N, y, N) and (e, N, u, N) each summand is one block
    for p, e_i, n_i in zip(problems, es, levels):
        rows, pts = slice(e_off, e_off + e_i), slice(n_off, n_off + n_i)
        A0.reshape(e_tot, N, y, N)[rows, pts, :, pts] = p.A0.reshape(e_i, n_i, y, n_i)
        B0.reshape(e_tot, N, u, N)[rows, pts, :, pts] = p.B0.reshape(e_i, n_i, u, n_i)
        e_off += e_i
        n_off += n_i
    return PickProblem(first.Q0, Z0, A0, B0)


def pick_certificate(p: PickProblem,
                     rel_tol: float = PSD_REL_TOL) -> tuple[PsdCertificate, ChoiMatrix]:
    """PSD certificate for solvability of the tangential problem.

    Certifies the Choi matrix of the de Branges-Rovnyak map at the node
    itself (level n); by Choi's theorem that one test decides complete
    positivity.  ``min_eig`` is the node-level margin: a k-fold repeated
    node would only scale the spectrum by k and add zeros.
    """
    choi = dbr_choi(p.Q0, p.Z0, p.A0, p.B0)
    return psd_check(choi.matrix, rel_tol=rel_tol), choi


@dataclass(frozen=True)
class SolveReport:
    """Outcome of the certify / synthesize / verify pipeline."""

    feasible: bool
    certificate: PsdCertificate
    colligation: Colligation | None = None
    interp_residual: float | None = None
    contractivity_samples: tuple[float, ...] = ()
    diagnostics: SynthesisDiagnostics | None = None

    @property
    def max_sampled_norm(self) -> float:
        return max(self.contractivity_samples, default=0.0)


def solve_pick(p: PickProblem, tol: float = 1e-9,
               samples: int = 100, sample_levels: Sequence[int] = (1, 2),
               seed: int = 0, rel_tol: float = PSD_REL_TOL) -> SolveReport:
    """Certify, synthesize, and verify a single-point tangential problem.

    One Choi matrix and one ``eigh`` of it give the certificate and, on a
    PSD verdict, the Kolmogorov factor for the lurking-isometry synthesis, which
    reports the interpolation residual ||A0 S(Z0) - B0||, and contractivity
    is spot-checked on seeded in-domain samples: the
    ``samples // len(sample_levels)`` points of each level are drawn,
    scaled and evaluated as one stack, with Q0 evaluated once per point.
    Infeasible problems return the certificate with ``feasible=False``.
    """
    cert, factor = _certified_factor(dbr_choi(p.Q0, p.Z0, p.A0, p.B0), rel_tol)
    if factor is None:
        return SolveReport(False, cert)
    col, diag = _synthesize(p.Q0, p.Z0, p.A0, p.B0, factor, cert, tol=tol)
    rng = np.random.default_rng(seed)
    per_level = max(1, samples // max(1, len(sample_levels)))
    norms: list[float] = []
    for lev in sample_levels:
        # the samples' Q0 values have norm below 0.9, which is also the
        # transfer function's domain check
        _, QZ = _sample_stack(p.Q0, lev, per_level, rng, target=0.9)
        norms += _operator_norms(_transfer_stack(col, QZ)).tolist()
    return SolveReport(True, cert, col, diag.interp_residual, tuple(norms), diag)


# ---------------------------------------------------------------------------
# Operator-argument evaluations and criteria
# ---------------------------------------------------------------------------


def _ltoa_sum(S_poly: NcMatrixPolynomial, Z0: MatrixTuple, X: np.ndarray,
              transpose_words: bool) -> np.ndarray:
    y, u = S_poly.s, S_poly.r
    if X.shape != (Z0.n, y):
        raise DimensionMismatchError("tangential direction must map Y into C^n")
    out = np.zeros((Z0.n, u), dtype=complex)
    for w, coeff in S_poly.terms.items():
        word = word_transpose(w) if transpose_words else w
        out += _eval_word(Z0, word) @ X @ coeff
    return out


def _coerce_ltoa_operand(S, Z0: MatrixTuple, trunc_tol: float) -> NcMatrixPolynomial:
    if isinstance(S, NcMatrixPolynomial):
        return S
    if isinstance(S, RealizedFunction):
        row = NcMatrixPolynomial.row_pencil(Z0.d)
        rho = operator_norm(_eval_poly(row, Z0))
        if rho >= 1.0:
            raise DomainError("no geometric tail bound outside the ball")
        col = S.colligation
        lead = max(operator_norm(col.C) * operator_norm(col.B), 1e-300)
        L = 0
        while lead * rho ** (L + 1) / (1.0 - rho) > trunc_tol:
            L += 1
        return extract_nc_polynomial(S, L)
    raise TypeError("S must be a polynomial or a realized function")


def ltoa_eval(S, Z0: MatrixTuple, X, trunc_tol: float = 1e-10) -> np.ndarray:
    """Left-tangential operator-argument evaluation sum_w Z0^(w^T) X S_w.

    For a realized ``S`` (contractive colligation) the coefficients are
    extracted up to the degree at which the geometric tail falls below
    ``trunc_tol``; for a polynomial the sum is exact.
    """
    X = np.asarray(X, dtype=complex)
    return _ltoa_sum(_coerce_ltoa_operand(S, Z0, trunc_tol), Z0, X, transpose_words=True)


def twisted_ltoa_eval(S, Z0: MatrixTuple, X, trunc_tol: float = 1e-10) -> np.ndarray:
    """Twisted variant sum_w Z0^w X S_w (words not reversed)."""
    X = np.asarray(X, dtype=complex)
    return _ltoa_sum(_coerce_ltoa_operand(S, Z0, trunc_tol), Z0, X, transpose_words=False)


def ltoa_certificate(p: LtoaProblem, rel_tol: float = PSD_REL_TOL) -> PsdCertificate:
    """Solvability test: PSD of T with T - sum_i Z_i T Z_i^* = X X^* - Y Y^*.

    The infinite word sum collapses to the exact Stein fixed point, solved
    through the row-pencil Szego kernel.
    """
    row = NcMatrixPolynomial.row_pencil(p.Z0.d)
    rhs = p.X @ p.X.conj().T - p.Y @ p.Y.conj().T
    T = szego_kernel_solve(row, p.Z0, p.Z0, rhs)
    return psd_check(T, rel_tol=rel_tol)


def stein_dominance_certificate(Q0: NcMatrixPolynomial, Z0: MatrixTuple, Lambda0,
                                rel_tol: float = PSD_REL_TOL) -> PsdCertificate:
    """Stein-dominance test for the full value problem S(Z0) = Lambda0.

    Certifies complete positivity of P -> k(P) (x) I_Y - L (k(P) (x) I_U) L^*
    by one PSD test on its Choi matrix at the node's own level n, which is
    equivalent to the value dominating the node in the Stein sense.
    ``min_eig`` is the node-level margin.
    """
    L0 = np.asarray(Lambda0, dtype=complex)
    n = Z0.n
    if L0.shape[0] % n or L0.shape[1] % n:
        raise DimensionMismatchError("value must be over the level of Z0")
    choi = dbr_choi(Q0, Z0, np.eye(L0.shape[0], dtype=complex), L0)
    return psd_check(choi.matrix, rel_tol=rel_tol)


def strict_stein_refuter(Q: NcMatrixPolynomial, Z0: MatrixTuple, Lambda0,
                         delta: float, trials: int = 1000, seed: int = 0,
                         tol: float = 1e-9) -> np.ndarray | None:
    """Randomized search for a witness refuting strict-Stein dominance.

    Looks for a PSD P at the (n dimY)-fold amplification satisfying both
    hypotheses of the strict dominance condition at margin ``delta`` while
    violating the conclusion beyond ``tol``.  Candidates are Gaussian Gram
    matrices pushed toward the feasible slab by bisection along P + s I.
    One-sided: returns the counterexample or None; absence proves nothing.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    L0 = np.asarray(Lambda0, dtype=complex)
    n = Z0.n
    y, u = L0.shape[0] // n, L0.shape[1] // n
    s_dim, r_dim = Q.s, Q.r
    k = n * y
    N = k * n
    QZ = rep_diag(_eval_poly(Q, Z0), k, s_dim, r_dim)
    Lk = rep_diag(L0, k, y, u)
    Zk = [np.kron(np.eye(k), comp) for comp in Z0.components]
    fac = 1.0 - delta * delta

    def hyp_margins(P: np.ndarray) -> float:
        a = P - fac * sum(Zl @ P @ Zl.conj().T for Zl in Zk)
        b = fac * amp(P, s_dim) - QZ @ amp(P, r_dim) @ QZ.conj().T
        ma = float(np.linalg.eigvalsh(0.5 * (a + a.conj().T))[0])
        mb = float(np.linalg.eigvalsh(0.5 * (b + b.conj().T))[0])
        return min(ma, mb)

    def violation(P: np.ndarray) -> float:
        c = amp(P, y) - Lk @ amp(P, u) @ Lk.conj().T
        return float(np.linalg.eigvalsh(0.5 * (c + c.conj().T))[0])

    eyeN = np.eye(N)
    if hyp_margins(eyeN) < -1e-12:
        return None  # even the identity misses the slab; nothing to project onto
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        G = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        P0 = G @ G.conj().T
        P0 /= max(float(np.linalg.norm(P0, 2)), 1e-300)
        if hyp_margins(P0) >= -1e-12:
            cand = P0
        else:
            hi = 1.0
            while hyp_margins(P0 + hi * eyeN) < -1e-12 and hi <= 1e6:
                hi *= 2.0
            if hyp_margins(P0 + hi * eyeN) < -1e-12:
                continue
            lo = 0.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if hyp_margins(P0 + mid * eyeN) < -1e-12:
                    lo = mid
                else:
                    hi = mid
            cand = P0 + hi * eyeN
        scale = max(1.0, float(np.linalg.norm(cand, 2)))
        if violation(cand) < -tol * scale:
            return cand
    return None
