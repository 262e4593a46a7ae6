"""Feasibility certificates and the certify / synthesize / verify pipeline.

Left-tangential data on a finite set of nodes, one ``PickProblem`` per
node (Q0, Z_a, A_a, B_a), asks for a contractive noncommutative function S
on the disk of Q0 with A_a S(Z_a) = B_a at every node.  The criterion is
complete positivity of the de Branges-Rovnyak map

    P  ->  A (k(Z,Z)(P) (x) I_Y) A^* - B (k(Z,Z)(P) (x) I_U) B^*

at the direct sum Z of the nodes, certified by one PSD test on its Choi
matrix (Choi's theorem), built pair by pair on its support.  Infeasible
problems return certificates, never exceptions; the CLI turns them into
exit codes.

All series over the free semigroup are computed exactly: kernel series as
Stein-equation fixed points, LTOA sums from one value of S (for a realized
S, one transfer-function solve); word enumeration appears only in test
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (
    DimensionMismatchError,
    DomainError,
    MatrixTuple,
    NcMatrixPolynomial,
    _eval_in_domain,
    _eval_poly,
    _eval_poly_stack,
    _operator_norms,
    amp,
    operator_norm,
    rep_diag,
)
from .kernels import (
    PSD_REL_TOL,
    PickProblem,
    PsdCertificate,
    _certified_factor,
    _dbr_support,
    _on_support,
    _pick_nodes,
    _szego_solve,
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
    "pick_certificate",
    "solve_pick",
    "ltoa_eval",
    "twisted_ltoa_eval",
    "ltoa_certificate",
    "stein_dominance_certificate",
    "strict_stein_refuter",
]


#: ``solve_pick``'s contractivity check: points, split evenly over levels, and seed
CONTRACTIVITY_SAMPLES = 100
CONTRACTIVITY_LEVELS = (1, 2)
CONTRACTIVITY_SEED = 0


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


def pick_certificate(problems: PickProblem | Sequence[PickProblem],
                     rel_tol: float = PSD_REL_TOL) -> tuple[PsdCertificate, np.ndarray]:
    """PSD certificate for solvability of the tangential problem on its nodes.

    ``problems`` is one node or a list of nodes over one Q0, each exactly
    equal node taken once.  By Choi's theorem one PSD test of the de
    Branges-Rovnyak Choi matrix decides complete positivity.  It runs on the
    support (``kernels._dbr_support``, less ``kernels._on_support``'s zero
    rows), so ``min_eig`` is the margin of the data, not of padding.
    Returns that support matrix whole: for one node, its Choi matrix.
    """
    S = _dbr_support(_pick_nodes(problems))
    return psd_check(_on_support(S)[0], rel_tol=rel_tol), S


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


def solve_pick(problems: PickProblem | Sequence[PickProblem], tol: float = 1e-9) -> SolveReport:
    """Certify, synthesize, and verify a tangential problem on its nodes.

    ``problems`` is one node or a list of nodes over one Q0, as in
    ``pick_certificate``.  One Choi matrix and one ``eigh`` of it give the
    certificate, with its dead band at ``tol`` (as
    ``pick_certificate(problems, tol)``), and, on a PSD verdict, the
    Kolmogorov factor for the lurking-isometry synthesis, which reports the
    interpolation residual max_a ||A_a S(Z_a) - B_a||, and contractivity
    is spot-checked on ``CONTRACTIVITY_SAMPLES`` seeded in-domain points,
    split evenly over ``CONTRACTIVITY_LEVELS``; each level's are drawn,
    scaled and evaluated as one stack, with Q0 evaluated once per point; a
    constant Q0 has the one value Q0(0) (x) I there, so nothing is drawn.
    Infeasible problems return the certificate with ``feasible=False``.
    """
    nodes = _pick_nodes(problems)
    cert, factor = _certified_factor(_dbr_support(nodes), tol)
    if factor is None:
        return SolveReport(False, cert)
    col, diag = _synthesize(nodes, factor, cert, tol, "zero")
    Q0 = nodes[0].Q0
    rng = np.random.default_rng(CONTRACTIVITY_SEED)
    per_level = CONTRACTIVITY_SAMPLES // len(CONTRACTIVITY_LEVELS)
    norms: list[float] = []
    for lev in CONTRACTIVITY_LEVELS:
        if Q0.degree == 0:
            # every point has the value Q0(0) (x) I, inside the disk as Q0(Z0) is
            QZ = _eval_poly_stack(Q0, np.zeros((per_level, Q0.d, lev, lev)))
        else:
            # the samples' Q0 values have norm below 0.9, which is also the
            # transfer function's domain check
            _, QZ = _sample_stack(Q0, lev, per_level, rng, target=0.9)
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
    T = _szego_solve(p._row, p._row, rhs.reshape(-1, 1)).reshape(n, n)
    return psd_check(T, rel_tol=rel_tol)


def stein_dominance_certificate(Q0: NcMatrixPolynomial, Z0: MatrixTuple, Lambda0,
                                rel_tol: float = PSD_REL_TOL) -> PsdCertificate:
    """Stein-dominance test for the full value problem S(Z0) = Lambda0.

    Certifies complete positivity of P -> k(P) (x) I_Y - L (k(P) (x) I_U) L^*
    by one PSD test on its Choi matrix at the node's own level n, which is
    equivalent to the value dominating the node in the Stein sense.  That
    map is the de Branges-Rovnyak map of ``PickProblem(Q0, Z0, I, Lambda0)``,
    which validates the data, so the certificate is ``pick_certificate``'s.
    """
    L0 = np.asarray(Lambda0, dtype=complex)
    return pick_certificate(PickProblem(Q0, Z0, np.eye(L0.shape[0]), L0), rel_tol)[0]


def _slab_shift(Q: NcMatrixPolynomial, Z0: MatrixTuple, k: int,
                delta: float) -> Callable[[np.ndarray], float] | None:
    """The least s >= 0 putting P0 + s I in the strict-Stein slab, as a function of P0.

    Both hypotheses at the k-fold amplification of Z0,
    a(P) = P - (1 - delta^2) sum_i Z_i P Z_i^* and
    b(P) = (1 - delta^2)(P (x) I_s) - Q(Z)(P (x) I_r)Q(Z)^*, are linear in P,
    so along P0 + s I each is M0 + s M1 with M1 its value at I.  With
    M1 = L L^* (Cholesky), M0 + s M1 is PSD exactly when
    s >= -lambda_min(L^-1 M0 L^-*), a generalized definite eigenvalue.
    Returns None when a(I) or b(I) is not positive definite: then the
    identity is not strictly inside the slab.
    """
    QZ = rep_diag(_eval_poly(Q, Z0), k, Q.s, Q.r)
    Zk = [np.kron(np.eye(k), comp) for comp in Z0.components]
    fac = 1.0 - delta * delta

    def hypotheses(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (P - fac * sum(Zl @ P @ Zl.conj().T for Zl in Zk),
                fac * amp(P, Q.s) - QZ @ amp(P, Q.r) @ QZ.conj().T)

    try:
        whiten = [np.linalg.inv(np.linalg.cholesky(M1))
                  for M1 in hypotheses(np.eye(k * Z0.n, dtype=complex))]
    except np.linalg.LinAlgError:
        return None

    def shift(P0: np.ndarray) -> float:
        return max(0.0, *(-float(np.linalg.eigvalsh(W @ M0 @ W.conj().T)[0])
                          for W, M0 in zip(whiten, hypotheses(P0))))

    return shift


def strict_stein_refuter(Q: NcMatrixPolynomial, Z0: MatrixTuple, Lambda0,
                         delta: float, trials: int = 1000,
                         seed: int = 0) -> np.ndarray | None:
    """Randomized search for a witness refuting strict-Stein dominance.

    Looks for a PSD P at the (n dimY)-fold amplification satisfying both
    hypotheses of the strict dominance condition at margin ``delta`` while
    violating the conclusion beyond the dead band ``PSD_REL_TOL`` max(1, ||P||).
    Candidates are Gaussian Gram matrices P0 moved onto the feasible slab
    along P0 + s I by the least such shift s, in closed form.  When the
    identity is not strictly inside the slab there is nothing to shift
    toward, and the search returns None at once.
    One-sided: returns the counterexample or None; absence proves nothing.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    L0 = np.asarray(Lambda0, dtype=complex)
    n = Z0.n
    y, u = L0.shape[0] // n, L0.shape[1] // n
    k = n * y
    N = k * n
    Lk = rep_diag(L0, k, y, u)

    def violation(P: np.ndarray) -> float:
        c = amp(P, y) - Lk @ amp(P, u) @ Lk.conj().T
        return float(np.linalg.eigvalsh(0.5 * (c + c.conj().T))[0])

    shift = _slab_shift(Q, Z0, k, delta)
    if shift is None:
        return None
    eyeN = np.eye(N)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        G = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        P0 = G @ G.conj().T
        P0 /= np.linalg.eigvalsh(P0)[-1]  # a Gram matrix's norm is its top eigenvalue
        s = shift(P0)
        cand = P0 + s * eyeN
        if violation(cand) < -PSD_REL_TOL * (1.0 + s):  # ||P0 + s I|| = 1 + s
            return cand
    return None
