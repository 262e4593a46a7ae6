"""Feasibility certificates and the certify / synthesize / verify pipeline.

Single-point left-tangential data (Q0, Z0, A0, B0) asks for a contractive
noncommutative function S on the disk of Q0 with A0 S(Z0) = B0.  The
criterion is complete positivity of the de Branges-Rovnyak map

    P  ->  A0 (k(Z0,Z0)(P) (x) I_Y) A0^* - B0 (k(Z0,Z0)(P) (x) I_U) B0^*,

certified by one PSD test on its Choi matrix at the node's own level n
(Choi's theorem).  Infeasible problems return certificates, never
exceptions; the CLI turns them into exit codes.

All series over the free semigroup are computed exactly: kernel series as
Stein-equation fixed points, LTOA sums from one value of S (for a realized
S, one transfer-function solve); word enumeration appears only in test
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    DimensionMismatchError,
    DomainError,
    MatrixTuple,
    NcMatrixPolynomial,
    _eval_in_domain,
    _eval_poly,
    _operator_norms,
    amp,
    direct_sum_many,
    operator_norm,
    rep_diag,
)
from .kernels import (
    PSD_REL_TOL,
    ChoiMatrix,
    PickProblem,
    PsdCertificate,
    _certified_factor,
    _dbr_choi,
    _stein_solve,
    psd_check,
)
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
class LtoaProblem:
    """Left-tangential operator-argument data over the noncommutative ball.

    X maps Y into C^n and Y_target maps U into C^n; a solution is a
    contractive S with sum_w Z0^(w^T) X S_w = Y_target.
    """

    Z0: MatrixTuple
    X: np.ndarray
    Y: np.ndarray
    # the row-pencil value [Z_1 ... Z_d], evaluated once by the domain check
    _row: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        X = np.array(self.X, dtype=complex)
        Y = np.array(self.Y, dtype=complex)
        n = self.Z0.n
        if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != n or Y.shape[0] != n:
            raise DimensionMismatchError("tangential rows must equal the level of Z0")
        row = _eval_in_domain(NcMatrixPolynomial.row_pencil(self.Z0.d), self.Z0)
        for a in (X, Y, row):
            a.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "_row", row)


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
    choi = _dbr_choi(p)
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
               seed: int = 0) -> SolveReport:
    """Certify, synthesize, and verify a single-point tangential problem.

    One Choi matrix and one ``eigh`` of it give the certificate, with its
    dead band at ``tol`` (as ``pick_certificate(p, tol)``), and, on a PSD
    verdict, the Kolmogorov factor for the lurking-isometry synthesis, which
    reports the interpolation residual ||A0 S(Z0) - B0||, and contractivity
    is spot-checked on seeded in-domain samples: the
    ``samples // len(sample_levels)`` points of each level are drawn,
    scaled and evaluated as one stack, with Q0 evaluated once per point.
    Infeasible problems return the certificate with ``feasible=False``.
    """
    cert, factor = _certified_factor(_dbr_choi(p), tol)
    if factor is None:
        return SolveReport(False, cert)
    col, diag = _synthesize(p, factor, cert, tol, "zero")
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


def _ltoa_sum(S, Z0: MatrixTuple, X, twisted: bool) -> np.ndarray:
    """The LTOA sum, contracted from one value V of S viewed as (dimY, n, dimU, n).

    V[y, i, u, j] = sum_w (S_w)[y, u] (W^w)[i, j], so the twisted sum reads V
    at W = Z0; as Z0^(w^T) = ((Z0^T)^w)^T, the untwisted sum reads V at
    W = Z0^T = (Z_1^T, ..., Z_d^T) with the point indices swapped.  A realized
    S needs ||Q0(Z0)|| < 1 (twisted) or ||Q0^T(Z0)|| < 1, Q0^T reversing each
    word of Q0: Q0^T(Z0) is Q0(Z0^T) with the point indices swapped, and its
    norm bounds the spectral radius of the state map at Z0^T.
    """
    X = np.asarray(X, dtype=complex)
    n = Z0.n
    W = Z0 if twisted else MatrixTuple(tuple(c.T for c in Z0.components))
    if isinstance(S, NcMatrixPolynomial):
        V = _eval_poly(S, W)
    elif isinstance(S, RealizedFunction):
        QW = _eval_poly(S.Q0, W)
        checked = QW if twisted else QW.reshape(n, S.Q0.r, n).transpose(2, 1, 0).reshape(n, -1)
        if not operator_norm(checked) < 1.0:
            raise DomainError("point lies outside the LTOA domain of Q0")
        V = _transfer_stack(S.colligation, QW[None])[0]
    else:
        raise TypeError("S must be a polynomial or a realized function")
    y, u = V.shape[0] // n, V.shape[1] // n
    if X.shape != (n, y):
        raise DimensionMismatchError("tangential direction must map Y into C^n")
    return np.einsum("jy,yiuj->iu" if twisted else "jy,yjui->iu", X, V.reshape(y, n, u, n))


def ltoa_eval(S, Z0: MatrixTuple, X) -> np.ndarray:
    """Left-tangential operator-argument evaluation sum_w Z0^(w^T) X S_w.

    Exact for a polynomial or a realized ``S`` (contractive colligation), from
    the one value S(Z0^T); a realized ``S`` raises ``DomainError`` unless
    ||Q0^T(Z0)|| < 1 (for the row pencil, ||[Z_1 ... Z_d]|| < 1).
    """
    return _ltoa_sum(S, Z0, X, twisted=False)


def twisted_ltoa_eval(S, Z0: MatrixTuple, X) -> np.ndarray:
    """Twisted variant sum_w Z0^w X S_w (words not reversed), from the one value S(Z0).

    A realized ``S`` raises ``DomainError`` unless ||Q0(Z0)|| < 1.
    """
    return _ltoa_sum(S, Z0, X, twisted=True)


def ltoa_certificate(p: LtoaProblem, rel_tol: float = PSD_REL_TOL) -> PsdCertificate:
    """Solvability test: PSD of T with T - sum_i Z_i T Z_i^* = X X^* - Y Y^*.

    The infinite word sum collapses to the exact Stein fixed point, solved
    from the row-pencil value the problem's domain check computed.
    """
    n = p.Z0.n
    rhs = p.X @ p.X.conj().T - p.Y @ p.Y.conj().T
    T = _stein_solve(p._row, p._row, p.Z0.d, rhs.reshape(-1)).reshape(n, n)
    return psd_check(T, rel_tol=rel_tol)


def stein_dominance_certificate(Q0: NcMatrixPolynomial, Z0: MatrixTuple, Lambda0,
                                rel_tol: float = PSD_REL_TOL) -> PsdCertificate:
    """Stein-dominance test for the full value problem S(Z0) = Lambda0.

    Certifies complete positivity of P -> k(P) (x) I_Y - L (k(P) (x) I_U) L^*
    by one PSD test on its Choi matrix at the node's own level n, which is
    equivalent to the value dominating the node in the Stein sense.  That
    map is the de Branges-Rovnyak map of ``PickProblem(Q0, Z0, I, Lambda0)``,
    which validates the data.  ``min_eig`` is the node-level margin.
    """
    L0 = np.asarray(Lambda0, dtype=complex)
    p = PickProblem(Q0, Z0, np.eye(L0.shape[0], dtype=complex), L0)
    return psd_check(_dbr_choi(p).matrix, rel_tol=rel_tol)


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
