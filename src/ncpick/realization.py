"""Colligations, transfer functions, and lurking-isometry synthesis.

A colligation is a block operator U = [A B; C D] from X (+) U into
(R (x) X) (+) Y.  Its transfer function against a one-row defining
polynomial Q0,

    S(Z) = D^(n) + C^(n) (I - (Q0(Z) (x) I_X) A^(n))^{-1} (Q0(Z) (x) I_X) B^(n),

is a noncommutative function on the disk of Q0, contractive whenever U is.
``lurking_isometry_synthesize`` runs the construction in the opposite
direction: from feasible tangential data, validated once per node as a
``kernels.PickProblem`` (``interpolation.solve_pick`` passes node lists),
it factors the de Branges-Rovnyak Choi matrix on its support and reads a
contractive colligation off the Gram-equal vector families.  One ``tol``
sets both the PSD dead band of that Choi matrix and the Gram check.

Level-n operators use these layouts (all coefficient-major elsewhere):
state space at level n is C^n (x) X (point index outer), the tensor slot
is R (x) C^n (x) X (tensor index outermost), inputs/outputs are
U (x) C^n and Y (x) C^n.

The transfer function is evaluated from the value Q0(Z) alone, on a stack
of K points of one level at a time (a single point is K = 1): its state
equation is the Szego kernel's Stein equation with the right factors
A_rho, solved by ``kernels._stein_solve``, and one ``einsum`` applies C.
``amplify`` still builds the amplified blocks explicitly; no evaluation
path uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DimensionMismatchError,
    MatrixTuple,
    NcMatrixPolynomial,
    _eval_in_domain,
    operator_norm,
)
from .kernels import (
    KolmogorovFactor,
    NotPsdError,
    PickProblem,
    PsdCertificate,
    _certified_factor,
    _dbr_support,
    _phi_matrix,
    _stein_solve,
    psd_check,
)
from .sampling import complex_gaussian

__all__ = [
    "Colligation",
    "RealizedFunction",
    "AmplifiedColligation",
    "SynthesisDiagnostics",
    "SynthesisConsistencyError",
    "amplify",
    "transfer_eval",
    "colligation_contraction_check",
    "random_contractive_colligation",
    "lurking_isometry_synthesize",
]

#: Relative singular-value threshold for the rank of the D family.
SVD_RANK_TOL = 1e-10


class SynthesisConsistencyError(RuntimeError):
    """The Gram families disagreed beyond tolerance; indicates a layout bug."""


@dataclass(frozen=True)
class Colligation:
    """Block operator U = [A B; C D] : X (+) U -> (R (x) X) (+) Y.

    Shapes: A is (r dimX) x dimX, B is (r dimX) x dimU, C is dimY x dimX,
    D is dimY x dimU.  The tensor slot R (x) X is ordered with the tensor
    index outermost.
    """

    dimX: int
    dimU: int
    dimY: int
    r: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        shapes = {
            "A": (self.r * self.dimX, self.dimX),
            "B": (self.r * self.dimX, self.dimU),
            "C": (self.dimY, self.dimX),
            "D": (self.dimY, self.dimU),
        }
        for name, want in shapes.items():
            arr = np.array(getattr(self, name), dtype=complex)
            if arr.shape != want:
                raise DimensionMismatchError(f"block {name} must have shape {want}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if "contractive" in self.flags and operator_norm(self.as_matrix()) > 1 + 1e-10:
            raise ValueError("colligation flagged contractive exceeds norm 1")
        if "unitary" in self.flags:
            U = self.as_matrix()
            if U.shape[0] != U.shape[1] or operator_norm(U.conj().T @ U - np.eye(U.shape[1])) > 1e-10:
                raise ValueError("colligation flagged unitary is not unitary")

    def as_matrix(self) -> np.ndarray:
        top = np.hstack([self.A, self.B])
        bot = np.hstack([self.C, self.D])
        return np.vstack([top, bot])


@dataclass(frozen=True)
class RealizedFunction:
    """A colligation together with the defining polynomial of its disk."""

    colligation: Colligation
    Q0: NcMatrixPolynomial

    def __post_init__(self) -> None:
        if self.Q0.s != 1:
            raise ValueError("realizations are taken against one-row polynomials")
        if self.Q0.r != self.colligation.r:
            raise DimensionMismatchError("tensor dimension of Q0 and colligation differ")

    def __call__(self, Z: MatrixTuple) -> np.ndarray:
        return transfer_eval(self, Z)


class AmplifiedColligation(NamedTuple):
    An: np.ndarray
    Bn: np.ndarray
    Cn: np.ndarray
    Dn: np.ndarray


def amplify(col: Colligation, n: int) -> AmplifiedColligation:
    """Level-n amplification I_n (x) blocks, reindexed for transfer_eval.

    ``An`` maps C^n (x) X into R (x) C^n (x) X, ``Bn`` maps U (x) C^n into
    R (x) C^n (x) X, ``Cn`` maps C^n (x) X into Y (x) C^n, and
    ``Dn = D (x) I_n``.
    """
    if n < 1:
        raise ValueError("level must be at least 1")
    X, u, y, r = col.dimX, col.dimU, col.dimY, col.r
    eye = np.eye(n)
    a = col.A.reshape(r, X, X)
    b = col.B.reshape(r, X, u)
    An = np.einsum("ij,rvx->rivjx", eye, a).reshape(r * n * X, n * X)
    Bn = np.einsum("ij,rvu->rivuj", eye, b).reshape(r * n * X, u * n)
    Cn = np.einsum("ij,yx->yijx", eye, col.C).reshape(y * n, n * X)
    Dn = np.kron(col.D, eye)
    return AmplifiedColligation(An, Bn, Cn, Dn)


def transfer_eval(f: RealizedFunction, Z: MatrixTuple) -> np.ndarray:
    """Evaluate the transfer function at an in-domain point.

    Returns the (dimY n) x (dimU n) value in the coefficient-major layout.
    """
    return _transfer_stack(f.colligation, _eval_in_domain(f.Q0, Z)[None])[0]


def _input_map(col: Colligation, QZ: np.ndarray) -> np.ndarray:
    """``(Q0(Z) (x) I_X) B^(n)``, U (x) C^n -> C^n (x) X, for values Q0(Z) of shape (K, n, r n).

    It is ``kernels._phi_matrix`` with the right factors B_rho, its columns
    regrouped from (j, u) to (u, j).
    """
    K, n = QZ.shape[0], QZ.shape[1]
    X, u = col.dimX, col.dimU
    B = _phi_matrix(QZ, col.B.reshape(col.r, X, u)).reshape(K, n * X, n, u)
    return B.transpose(0, 1, 3, 2).reshape(K, n * X, u * n)


def _output_map(col: Colligation, state: np.ndarray, n: int) -> np.ndarray:
    """``C^(n) state`` for a stack of (n dimX) x (dimU n) state blocks."""
    K = state.shape[0]
    X, u, y = col.dimX, col.dimU, col.dimY
    out = np.einsum("yx,kixc->kyic", col.C, state.reshape(K, n, X, u * n))
    return out.reshape(K, y * n, u * n)


def _readout(col: Colligation, state: np.ndarray, n: int) -> np.ndarray:
    """``D^(n) + C^(n) state`` for a stack of (n dimX) x (dimU n) state blocks."""
    Dn = col.D[:, None, :, None] * np.eye(n)[:, None, :]  # D (x) I_n, coefficient-major
    return _output_map(col, state, n) + Dn.reshape(col.dimY * n, col.dimU * n)


def _transfer_stack(col: Colligation, QZ: np.ndarray) -> np.ndarray:
    """Transfer-function values at K points of one level from their Q0 values.

    ``QZ`` has shape (K, n, r n) and every Q0(Z) must lie in the disk
    (the caller has checked the norms); returns shape (K, dimY n, dimU n).
    """
    A = col.A.reshape(col.r, col.dimX, col.dimX)
    return _readout(col, _stein_solve(QZ, A, _input_map(col, QZ)), QZ.shape[1])


def colligation_contraction_check(col: Colligation) -> PsdCertificate:
    """PSD certificate for I - U^* U at the default dead band ``kernels.PSD_REL_TOL``."""
    U = col.as_matrix()
    return psd_check(np.eye(U.shape[1]) - U.conj().T @ U)


def random_contractive_colligation(dimX: int, dimU: int, dimY: int, r: int,
                                   seed: int = 0, unitary: bool = False) -> Colligation:
    """Deterministic random colligation, contractive or unitary.

    With ``unitary`` the shapes must satisfy r dimX + dimY = dimX + dimU;
    a unitary is drawn via QR of a complex Gaussian matrix.  Otherwise a
    Gaussian block is rescaled to norm 1 - 1e-6.
    """
    if min(dimX, dimU, dimY, r) < 0 or min(dimU, dimY, r) == 0:
        raise ValueError("dimensions must be positive (dimX may be zero)")
    rows = r * dimX + dimY
    cols = dimX + dimU
    if unitary and rows != cols:
        raise ValueError("unitary completion needs r dimX + dimY = dimX + dimU")
    G = complex_gaussian(np.random.default_rng(seed), (rows, cols))
    if unitary:
        Q, R = np.linalg.qr(G)
        return _colligation(Q * (np.diag(R) / np.abs(np.diag(R))), dimX, r,
                            ("unitary", "contractive"))
    return _colligation(G * ((1.0 - 1e-6) / max(operator_norm(G), 1e-300)), dimX, r,
                        ("contractive",))


def _colligation(U: np.ndarray, X: int, r: int, flags: tuple[str, ...]) -> Colligation:
    """The colligation with matrix U = [A B; C D]; its constructor checks ``flags``."""
    rX = r * X
    return Colligation(X, U.shape[1] - X, U.shape[0] - rX, r,
                       U[:rX, :X], U[:rX, X:], U[rX:, :X], U[rX:, X:], flags=flags)


@dataclass(frozen=True)
class SynthesisDiagnostics:
    choi_min_eig: float
    state_dim: int
    family_size: int
    gram_residual: float
    colligation_norm: float
    interp_residual: float


def _unitary_completion(Q1: np.ndarray, images: np.ndarray, X: int, u: int, y: int,
                        r: int) -> tuple[int, np.ndarray]:
    """Extend the partial isometry ``images Q1^*`` to a unitary, padding the state space.

    Solves r X' + y = X' + u for the padded state dimension X', so the two
    defect spaces have equal dimension, and pairs their orthonormal bases:
    one complete QR of each padded family gives its span's complement.
    Returns X' and the unitary U^*.  Raises ``ValueError`` when no
    nonnegative pad exists for the block shapes.
    """
    if r == 1:
        if u != y:
            raise ValueError("unitary completion with r = 1 needs dimU = dimY")
        pad = 0
    else:
        gap = (X + u) - (r * X + y)
        if gap < 0 or gap % (r - 1):
            raise ValueError("no state padding matches the defect dimensions")
        pad = gap // (r - 1)
    Xp, k = X + pad, Q1.shape[1]
    # the new state coordinates are zero on both families: pad zero rows
    # after each tensor slot's X rows of Q1 and after the X state rows of the images
    Q1e = np.insert(Q1, np.repeat(np.arange(1, r + 1) * X, pad), 0, axis=0)
    padded = np.insert(images, np.full(pad, X), 0, axis=0)
    # polish the images to exact orthonormality before pairing defects
    Qi, Ri = np.linalg.qr(padded, mode="complete")
    Qi[:, :k] *= np.sign(np.real(np.diag(Ri)) + (np.real(np.diag(Ri)) == 0))
    Qd = np.linalg.qr(Q1e, mode="complete")[0]
    return Xp, Qi[:, :k] @ Q1e.conj().T + Qi[:, k:] @ Qd[:, k:].conj().T


def lurking_isometry_synthesize(Q0: NcMatrixPolynomial, Z0: MatrixTuple, a0, b0,
                                tol: float = 1e-9, *, completion: str = "zero",
                                ) -> tuple[Colligation, SynthesisDiagnostics]:
    """Build a contractive colligation solving a0 S(Z0) = b0 from feasible data.

    Steps: factor the de Branges-Rovnyak Choi matrix at Z0 into a
    Kolmogorov map H, form the two vector families

        D(i, e) = [ (Q0(Z0)^* (x) I_X) H^* e  restricted to row i ;  row i of a0^* e ]
        R(i, e) = [ H^* e  restricted to row i                    ;  row i of b0^* e ]

    over coordinate rows i and basis vectors e of E^n, verify their Gram
    matrices agree, and map an orthonormal basis of span D through the
    correspondence D -> R.  The adjoint of the resulting operator is the
    colligation.  One ``tol`` is both the dead band of the PSD verdict and
    the scale of the Gram check.

    ``completion`` selects the extension on the orthogonal complement of
    span D: ``"zero"`` (default) keeps the state dimension minimal and
    yields a contraction; ``"unitary"`` pads the state space so the two
    defect spaces match and extends by a unitary between them, when the
    block shapes allow it (ValueError otherwise).

    The data is validated by ``PickProblem``, which raises
    ``DimensionMismatchError`` on malformed tangential data and
    ``DomainError`` when Z0 lies outside the disk of Q0.  Raises
    ``NotPsdError`` when the data is infeasible and
    ``SynthesisConsistencyError`` on a Gram mismatch beyond 100 * tol.
    """
    if completion not in ("zero", "unitary"):
        raise ValueError("completion must be 'zero' or 'unitary'")
    p = PickProblem(Q0, Z0, a0, b0)
    cert, factor = _certified_factor(_dbr_support([p]), tol)
    if factor is None:
        raise NotPsdError(
            f"de Branges-Rovnyak Choi matrix is not PSD (min eig {cert.min_eig:.3g})"
        )
    return _synthesize([p], factor, cert, tol, completion)


def _synthesize(nodes: list[PickProblem], factor: np.ndarray, cert: PsdCertificate,
                tol: float, completion: str) -> tuple[Colligation, SynthesisDiagnostics]:
    """Body of ``lurking_isometry_synthesize`` on validated nodes.

    ``factor`` (F F^* = ``kernels._dbr_support(nodes)``) and ``cert`` come
    from ``kernels._certified_factor``'s one ``eigh``.  Each node's rows of
    F are its Kolmogorov blocks, and its columns of the D family have top
    rows from one ``einsum`` of Q0(Z_a)^* with them.  One thin SVD of the D
    family is the rank-revealing step: it gives the orthonormal basis of
    span D and, with the R family, the lurking isometry.
    """
    y, u, r = nodes[0].dimY, nodes[0].dimU, nodes[0].Q0.r
    X = factor.shape[1]
    Dcols, Rcols, off = [], [], 0
    for p in nodes:
        n, en = p.n, p.A0.shape[0]
        K = n * en  # node family size: n coordinate rows, en basis vectors
        # H: (e n) x (n X), domain C^n (x) X; H^* has columns indexed by the basis of E^n
        H = KolmogorovFactor(X, factor[off : off + K].reshape(n, en, X)).stacked
        off += K
        # top of the D family: rows (rho, i, x) of (Q0(Z)^* (x) I_X) H^* e at column (i, e)
        Hh3 = H.conj().T.reshape(n, X, en)
        Dtop = np.einsum("jri,jxc->rxic", p._QZ0.conj().reshape(n, r, n), Hh3).reshape(r * X, K)
        Rtop = Hh3.transpose(1, 0, 2).reshape(X, K)
        Dcols.append(np.vstack([Dtop, p.A0.conj().T.reshape(y, K)]))
        Rcols.append(np.vstack([Rtop, p.B0.conj().T.reshape(u, K)]))
    Dmat, Rmat = np.hstack(Dcols), np.hstack(Rcols)

    gram_D = Dmat.conj().T @ Dmat
    gram_R = Rmat.conj().T @ Rmat
    gram_scale = max(1.0, float(np.linalg.norm(gram_D)))
    gram_resid = float(np.linalg.norm(gram_D - gram_R)) / gram_scale
    if gram_resid > 100.0 * tol:
        raise SynthesisConsistencyError(
            f"Gram equality violated (residual {gram_resid:.3g}); "
            "the Agler identity failed on the factored kernel"
        )

    # D = W S V^*: Q1 = W_r is an orthonormal basis of span D and ``images``
    # = R V_r S_r^{-1} its R-family images, so images Q1^* is the map with
    # U^* D = R that vanishes on the orthogonal complement of span D
    Wd, sd, Vdh = np.linalg.svd(Dmat, full_matrices=False)
    rank = int(np.sum(sd > SVD_RANK_TOL * sd[0]))
    Q1 = Wd[:, :rank]
    images = (Rmat @ Vdh[:rank].conj().T) / sd[:rank]

    if completion == "unitary":
        X, Ustar = _unitary_completion(Q1, images, X, u, y, r)
        flags = ("unitary", "contractive")
        norm_U = 1.0
    else:
        # zero-extension keeps the state dimension minimal.  A partial isometry's
        # nonzero singular values are exactly 1, so rounding puts some just above
        # 1 in most syntheses (3 in 4 of the benchmark's); clamp them to 1
        Ustar = images @ Q1.conj().T
        norm_U = operator_norm(Ustar)
        if norm_U > 1.0:
            W, sv, Vh = np.linalg.svd(Ustar, full_matrices=False)
            Ustar = (W * np.minimum(sv, 1.0)) @ Vh
            norm_U = 1.0
        flags = ("contractive",)

    # the unitary completion is verified on construction; the zero
    # completion's norm was checked (and clamped) above on Ustar, the adjoint
    # of the colligation matrix, so its flag is set without a second SVD
    col = _colligation(Ustar.conj().T, X, r, flags if completion == "unitary" else ())
    object.__setattr__(col, "flags", flags)

    # nc functions respect direct sums: S at each node is read separately
    resid = max(float(np.linalg.norm(p.A0 @ _transfer_stack(col, p._QZ0[None])[0] - p.B0, 2))
                for p in nodes)
    diag_out = SynthesisDiagnostics(
        choi_min_eig=cert.min_eig,
        state_dim=X,
        family_size=Dmat.shape[1],
        gram_residual=gram_resid,
        colligation_norm=float(norm_U),
        interp_residual=resid,
    )
    return col, diag_out
