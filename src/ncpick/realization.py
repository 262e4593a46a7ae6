"""Colligations, transfer functions, and lurking-isometry synthesis.

A colligation is a block operator U = [A B; C D] from X (+) U into
(R (x) X) (+) Y.  Its transfer function against a one-row defining
polynomial Q0,

    S(Z) = D^(n) + C^(n) (I - (Q0(Z) (x) I_X) A^(n))^{-1} (Q0(Z) (x) I_X) B^(n),

is a noncommutative function on the disk of Q0, contractive whenever U is.
``lurking_isometry_synthesize`` runs the construction in the opposite
direction: from feasible single-point tangential data it factors the
de Branges-Rovnyak Choi matrix and reads a contractive colligation off the
Gram-equal vector families.

Level-n operators use these layouts (all coefficient-major elsewhere):
state space at level n is C^n (x) X (point index outer), the tensor slot
is R (x) C^n (x) X (tensor index outermost), inputs/outputs are
U (x) C^n and Y (x) C^n.

The transfer function is evaluated from the value Q0(Z) alone, on a stack
of K points of one level at a time: with E_rho the n x n block of Q0(Z)
in tensor slot rho, ``(Q0(Z) (x) I_X) A^(n) = sum_rho E_rho (x) A_rho``,
so one ``einsum`` per block, one stacked ``solve`` and one ``einsum`` for
C replace the amplified colligation and its Kronecker products.  A single
point is the stack K = 1.  ``amplify`` still builds the amplified blocks
explicitly; no evaluation path uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    DimensionMismatchError,
    MatrixTuple,
    NcMatrixPolynomial,
    _eval_in_domain,
    _eval_poly,
    operator_norm,
)
from .kernels import (
    KOLMOGOROV_RANK_TOL,
    PSD_REL_TOL,
    KolmogorovFactor,
    NotPsdError,
    PsdCertificate,
    _certified_factor,
    dbr_choi,
    psd_check,
)

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
            arr = arr.reshape(want) if arr.size == want[0] * want[1] else arr
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


def _state_maps(col: Colligation, QZ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Q0(Z) (x) I_X) A^(n)`` and ``(Q0(Z) (x) I_X) B^(n)`` for a stack of values.

    ``QZ`` holds Q0(Z) at K points of level n, shape (K, n, r n).  With
    E_rho the n x n block of Q0(Z) in tensor slot rho, the state map is
    G = sum_rho E_rho (x) A_rho on C^n (x) X and the input map sends
    U (x) C^n to sum_rho E_rho[i, j] B_rho, so neither the amplified
    colligation nor ``Q0(Z) (x) I_X`` is formed.
    """
    K, n = QZ.shape[0], QZ.shape[1]
    X, u, r = col.dimX, col.dimU, col.r
    E = QZ.reshape(K, n, r, n)
    G = np.einsum("kirj,rvx->kivjx", E, col.A.reshape(r, X, X)).reshape(K, n * X, n * X)
    B = np.einsum("kirj,rvu->kivuj", E, col.B.reshape(r, X, u)).reshape(K, n * X, u * n)
    return G, B


def _readout(col: Colligation, state: np.ndarray, n: int) -> np.ndarray:
    """``D^(n) + C^(n) state`` for a stack of (n dimX) x (dimU n) state blocks."""
    K = state.shape[0]
    X, u, y = col.dimX, col.dimU, col.dimY
    out = np.einsum("yx,kixc->kyic", col.C, state.reshape(K, n, X, u * n))
    Dn = col.D[:, None, :, None] * np.eye(n)[:, None, :]  # D (x) I_n, coefficient-major
    return out.reshape(K, y * n, u * n) + Dn.reshape(y * n, u * n)


def _transfer_stack(col: Colligation, QZ: np.ndarray) -> np.ndarray:
    """Transfer-function values at K points of one level from their Q0 values.

    ``QZ`` has shape (K, n, r n) and every Q0(Z) must lie in the disk
    (the caller has checked the norms); returns shape (K, dimY n, dimU n).
    """
    n = QZ.shape[1]
    G, B = _state_maps(col, QZ)
    state = np.linalg.solve(np.eye(n * col.dimX) - G, B)
    return _readout(col, state, n)


def colligation_contraction_check(col: Colligation, tol: float = PSD_REL_TOL) -> PsdCertificate:
    """PSD certificate for I - U^* U."""
    U = col.as_matrix()
    return psd_check(np.eye(U.shape[1]) - U.conj().T @ U, rel_tol=tol)


def random_contractive_colligation(dimX: int, dimU: int, dimY: int, r: int,
                                   seed: int = 0, unitary: bool = False) -> Colligation:
    """Deterministic random colligation, contractive or unitary.

    With ``unitary`` the shapes must satisfy r dimX + dimY = dimX + dimU;
    a unitary is drawn via QR of a complex Gaussian matrix.  Otherwise a
    Gaussian block is rescaled to norm 1 - 1e-6.
    """
    if min(dimX, dimU, dimY, r) < 0 or min(dimU, dimY, r) == 0:
        raise ValueError("dimensions must be positive (dimX may be zero)")
    rng = np.random.default_rng(seed)
    rows = r * dimX + dimY
    cols = dimX + dimU
    if unitary:
        if rows != cols:
            raise ValueError("unitary completion needs r dimX + dimY = dimX + dimU")
        G = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        Q, R = np.linalg.qr(G)
        U = Q * (np.diag(R) / np.abs(np.diag(R)))
        flags = ("unitary", "contractive")
    else:
        G = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        U = G * ((1.0 - 1e-6) / max(operator_norm(G), 1e-300))
        flags = ("contractive",)
    rX = r * dimX
    return Colligation(dimX, dimU, dimY, r,
                       U[:rX, :dimX], U[:rX, dimX:], U[rX:, :dimX], U[rX:, dimX:],
                       flags=flags)


@dataclass(frozen=True)
class SynthesisDiagnostics:
    choi_min_eig: float
    state_dim: int
    family_size: int
    gram_residual: float
    colligation_norm: float
    interp_residual: float = field(default=float("nan"))


def _null_space(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ker M from a full SVD.

    Singular values at most ``max(M.shape) * eps * sigma_max`` count as zero.
    """
    _, sv, Vh = np.linalg.svd(M)
    cut = max(M.shape) * np.finfo(float).eps * np.max(sv, initial=0.0)
    return Vh[int(np.sum(sv > cut)):].conj().T


def _unitary_completion(Q1: np.ndarray, images: np.ndarray, X: int, u: int, y: int,
                        r: int) -> tuple[int, np.ndarray]:
    """Extend the partial isometry to a unitary, padding the state space.

    Solves r X' + y = X' + u for the padded state dimension X' and pairs
    orthonormal bases of the two defect spaces.  Raises ``ValueError``
    when no nonnegative pad exists for the block shapes.
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
    Xp = X + pad
    dom, cod = r * Xp + y, Xp + u
    # embed tensor-slot coordinates (rho, x) and state coordinates into the
    # padded spaces; new coordinates stay zero on the families
    E_dom = np.zeros((dom, r * X + y), dtype=complex)
    for rho in range(r):
        E_dom[rho * Xp : rho * Xp + X, rho * X : (rho + 1) * X] = np.eye(X)
    E_dom[r * Xp :, r * X :] = np.eye(y)
    E_cod = np.zeros((cod, X + u), dtype=complex)
    E_cod[:X, :X] = np.eye(X)
    E_cod[Xp:, X:] = np.eye(u)

    Q1e = E_dom @ Q1
    # polish the images to exact orthonormality before pairing defects
    Qi, Ri = np.linalg.qr(E_cod @ images)
    Qi = Qi * np.sign(np.real(np.diag(Ri)) + (np.real(np.diag(Ri)) == 0))
    dom_perp = _null_space(Q1e.conj().T)
    cod_perp = _null_space(Qi.conj().T)
    if dom_perp.shape[1] != cod_perp.shape[1]:
        raise ValueError("defect dimensions failed to match after padding")
    Ustar = Qi @ Q1e.conj().T + cod_perp @ dom_perp.conj().T
    return Xp, Ustar


def lurking_isometry_synthesize(Q0: NcMatrixPolynomial, Z0: MatrixTuple, a0, b0,
                                tol: float = 1e-9,
                                psd_tol: float = PSD_REL_TOL,
                                rank_tol: float = KOLMOGOROV_RANK_TOL,
                                completion: str = "zero",
                                ) -> tuple[Colligation, SynthesisDiagnostics]:
    """Build a contractive colligation solving a0 S(Z0) = b0 from feasible data.

    Steps: factor the de Branges-Rovnyak Choi matrix at Z0 into a
    Kolmogorov map H, form the two vector families

        D(i, e) = [ (Q0(Z0)^* (x) I_X) H^* e  restricted to row i ;  row i of a0^* e ]
        R(i, e) = [ H^* e  restricted to row i                    ;  row i of b0^* e ]

    over coordinate rows i and basis vectors e of E^n, verify their Gram
    matrices agree, and map an orthonormal basis of span D through the
    correspondence D -> R.  The adjoint of the resulting operator is the
    colligation.

    ``completion`` selects the extension on the orthogonal complement of
    span D: ``"zero"`` (default) keeps the state dimension minimal and
    yields a contraction; ``"unitary"`` pads the state space so the two
    defect spaces match and extends by a unitary between them, when the
    block shapes allow it (ValueError otherwise).

    Raises ``DomainError`` (from the Stein solve) when Z0 lies outside the
    disk of Q0, ``NotPsdError`` when the data is infeasible and
    ``SynthesisConsistencyError`` on a Gram mismatch beyond 100 * tol.
    """
    if completion not in ("zero", "unitary"):
        raise ValueError("completion must be 'zero' or 'unitary'")
    a0 = np.asarray(a0, dtype=complex)
    b0 = np.asarray(b0, dtype=complex)
    n = Z0.n
    if a0.shape[0] != b0.shape[0] or a0.shape[0] % n or a0.shape[1] % n or b0.shape[1] % n:
        raise DimensionMismatchError("tangential data must be over the level of Z0")
    cert, factor = _certified_factor(dbr_choi(Q0, Z0, a0, b0), psd_tol, rank_tol)
    if factor is None:
        raise NotPsdError(
            f"de Branges-Rovnyak Choi matrix is not PSD (min eig {cert.min_eig:.3g})"
        )
    return _synthesize(Q0, Z0, a0, b0, factor, cert, tol=tol, completion=completion)


def _synthesize(Q0: NcMatrixPolynomial, Z0: MatrixTuple, a0: np.ndarray, b0: np.ndarray,
                factor: KolmogorovFactor, cert: PsdCertificate, tol: float,
                completion: str = "zero") -> tuple[Colligation, SynthesisDiagnostics]:
    """Body of ``lurking_isometry_synthesize`` on validated data.

    ``factor`` and ``cert`` come from ``kernels._certified_factor``'s one
    ``eigh`` of the de Branges-Rovnyak Choi matrix of (Q0, Z0, a0, b0).  The
    D family's top rows are one ``einsum`` of Q0(Z0)^* with the factor.  One
    thin SVD of the D family is the rank-revealing step: it gives the
    orthonormal basis of span D and, with the R family, the lurking isometry.
    """
    n = Z0.n
    e_dim = a0.shape[0] // n
    y = a0.shape[1] // n
    u = b0.shape[1] // n
    r = Q0.r
    X = factor.rank
    H = factor.stacked  # (e n) x (n X), domain C^n (x) X

    en = e_dim * n
    K = n * en  # family size: n coordinate rows, en basis vectors
    Hh = H.conj().T  # (n X) x (e n), columns indexed by the basis of E^n

    # Q0(Z0), evaluated once for the D family and the interpolation residual;
    # the certificate's Stein solve has already checked that Z0 is in the disk
    QZ0 = _eval_poly(Q0, Z0)
    # top of the D family: rows (rho, i, x) of (Q0(Z0)^* (x) I_X) H^* e at column (i, e)
    Hh3 = Hh.reshape(n, X, en)
    Dtop = np.einsum("jri,jxc->rxic", QZ0.conj().reshape(n, r, n), Hh3).reshape(r * X, K)
    Rtop = Hh3.transpose(1, 0, 2).reshape(X, K)
    Dbot = a0.conj().T.reshape(y, n, en).reshape(y, K)
    Rbot = b0.conj().T.reshape(u, n, en).reshape(u, K)
    Dmat = np.vstack([Dtop, Dbot])
    Rmat = np.vstack([Rtop, Rbot])

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
        # zero-extension keeps the state dimension minimal; clamp the rare
        # above-one singular values produced by the Gram residual
        Ustar = images @ Q1.conj().T
        norm_U = operator_norm(Ustar)
        if norm_U > 1.0:
            W, sv, Vh = np.linalg.svd(Ustar, full_matrices=False)
            Ustar = (W * np.minimum(sv, 1.0)) @ Vh
            norm_U = 1.0
        flags = ("contractive",)

    A = Ustar[:X, : r * X].conj().T
    C = Ustar[:X, r * X :].conj().T
    B = Ustar[X:, : r * X].conj().T
    D = Ustar[X:, r * X :].conj().T
    col = Colligation(X, u, y, r, A, B, C, D, flags=flags)

    S0 = _transfer_stack(col, QZ0[None])[0]
    resid = float(np.linalg.norm(a0 @ S0 - b0, 2))
    diag_out = SynthesisDiagnostics(
        choi_min_eig=cert.min_eig,
        state_dim=X,
        family_size=K,
        gram_residual=gram_resid,
        colligation_norm=float(norm_U),
        interp_residual=resid,
    )
    return col, diag_out
