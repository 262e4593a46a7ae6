import sys

import numpy as np
import pytest

from ncpick.core import DimensionMismatchError, DomainError, MatrixTuple, _eval_poly, amp, \
    operator_norm
from ncpick.realization import amplify


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def mt(*arrays) -> MatrixTuple:
    """Matrix tuple from array-likes."""
    return MatrixTuple(tuple(np.asarray(a, dtype=complex) for a in arrays))


def scalar_point(*values) -> MatrixTuple:
    """Level-1 tuple from complex scalars."""
    return MatrixTuple(tuple(np.array([[v]], dtype=complex) for v in values))


def jordan_cell(lam: complex, n: int) -> np.ndarray:
    J = np.diag(np.full(n, complex(lam)))
    J += np.diag(np.ones(n - 1), 1) if n > 1 else 0.0
    return J


def block_diag(*blocks) -> np.ndarray:
    """Block-diagonal matrix with the given 2-d blocks in order."""
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=np.result_type(*blocks))
    i = j = 0
    for b in blocks:
        out[i : i + b.shape[0], j : j + b.shape[1]] = b
        i, j = i + b.shape[0], j + b.shape[1]
    return out


def count_calls(monkeypatch, module, name):
    """Record calls to module.name, through the module (``np.linalg.eigh``)
    and from every ncpick module that bound it."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("ncpick") and \
                getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


# Direct formulas kept as oracles for the Kronecker-free evaluators


def kron_eval_poly(Q, Z: MatrixTuple) -> np.ndarray:
    """Q(Z) = sum_w coeff_w (x) Z**w, one ``np.kron`` per word."""
    out = np.zeros((Q.s * Z.n, Q.r * Z.n), dtype=complex)
    for w, coeff in Q.terms.items():
        Zw = np.eye(Z.n, dtype=complex)
        for k in w.letters:
            Zw = Zw @ Z.components[k - 1]
        out += np.kron(coeff, Zw)
    return out


def _amplified_maps(col, QZ):
    n, X = QZ.shape[0], col.dimX
    An, Bn, Cn, Dn = amplify(col, n)
    L = np.kron(QZ, np.eye(X))
    return L @ An, L @ Bn, Cn, Dn


def amplified_transfer(col, QZ: np.ndarray) -> np.ndarray:
    """Transfer function from Q0(Z) through the amplified colligation."""
    G, K, Cn, Dn = _amplified_maps(col, QZ)
    if col.dimX == 0:
        return Dn
    return Dn + Cn @ np.linalg.solve(np.eye(G.shape[0]) - G, K)


def amplified_partial_sum(col, QZ: np.ndarray, L: int) -> np.ndarray:
    """Neumann partial sum D + sum_{j<=L} C G^j K through the amplified colligation."""
    G, K, Cn, Dn = _amplified_maps(col, QZ)
    if col.dimX == 0:
        return Dn
    term, acc = K, K.copy()
    for _ in range(L):
        term = G @ term
        acc = acc + term
    return Dn + Cn @ acc


# The truncated geometric series for the Szego kernel, an oracle for the
# exact Stein solve


def _row_values(Q0, Z, W, P):
    """Q0(Z), Q0(W) and P as an array, for a one-row Q0 and P of level(Z) x level(W)."""
    if Q0.s != 1:
        raise ValueError("the Szego kernel requires a one-row polynomial (s = 1)")
    P = np.asarray(P, dtype=complex)
    if P.shape != (Z.n, W.n):
        raise DimensionMismatchError("P must be level(Z) x level(W)")
    return _eval_poly(Q0, Z), _eval_poly(Q0, W), P


def phi_map(Q0, Z: MatrixTuple, W: MatrixTuple, P) -> np.ndarray:
    """One Stein step Phi(P) = Q0(Z) (P (x) I_R) Q0(W)^*."""
    QZ, QW, P = _row_values(Q0, Z, W, P)
    return QZ @ amp(P, Q0.r) @ QW.conj().T


def szego_kernel_series(Q0, Z: MatrixTuple, W: MatrixTuple, P, tol: float = 1e-12,
                        max_terms: int = 10_000) -> tuple[np.ndarray, int]:
    """Truncated geometric series for the kernel, with its truncation length.

    Iterates T_{k+1} = Phi(T_k) from T_0 = P and stops once the a-priori
    tail bound (rho_Z rho_W)^{L+1} / (1 - rho_Z rho_W) * ||P|| drops below
    ``tol``.
    """
    QZ, QW, P = _row_values(Q0, Z, W, P)
    rho = operator_norm(QZ) * operator_norm(QW)
    if rho >= 1.0:
        raise DomainError("no convergent tail bound outside the disk")
    normP = float(np.linalg.norm(P, 2))
    total, term = P.copy(), P.copy()
    L = 0
    while rho ** (L + 1) / (1.0 - rho) * normP > tol:
        term = QZ @ amp(term, Q0.r) @ QW.conj().T
        total += term
        L += 1
        if L > max_terms:
            raise RuntimeError("series failed to reach the tolerance")
    return total, L


def szego_tail_bound(Q0, Z: MatrixTuple, W: MatrixTuple, P, L: int) -> float:
    """A-priori bound on the series remainder after L + 1 terms."""
    rho = operator_norm(_eval_poly(Q0, Z)) * operator_norm(_eval_poly(Q0, W))
    normP = float(np.linalg.norm(np.asarray(P), 2))
    return rho ** (L + 1) / (1.0 - rho) * normP


# Kronecker-loop vec-matrices and the einsum state maps, oracles for the
# einsum / matmul forms in ``kernels`` and ``realization``


def kron_phi_matrix(QZ: np.ndarray, QW: np.ndarray, r: int) -> np.ndarray:
    """Matrix of Phi on row-major vec inputs: sum_rho E_rho (x) conj(F_rho), by ``np.kron``."""
    n, m = QZ.shape[0], QW.shape[0]
    M = np.zeros((n * m, n * m), dtype=complex)
    for rho in range(r):
        G = QZ[:, rho * n : (rho + 1) * n]
        H = QW[:, rho * m : (rho + 1) * m]
        M += np.kron(G, H.conj())
    return M


def kron_sandwich_matrix(A0: np.ndarray, n: int) -> np.ndarray:
    """Matrix of T -> A0 (T (x) I_c) A0^* on row-major vec inputs, by ``np.kron``."""
    c = A0.shape[1] // n
    out = np.zeros((A0.shape[0] ** 2, n * n), dtype=complex)
    for q in range(c):
        blockcol = A0[:, q * n : (q + 1) * n]
        out += np.kron(blockcol, blockcol.conj())
    return out


def einsum_state_maps(col, QZ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Q0(Z) (x) I_X) A^(n)`` and ``(Q0(Z) (x) I_X) B^(n)`` by one ``einsum`` per block."""
    K, n = QZ.shape[0], QZ.shape[1]
    X, u, r = col.dimX, col.dimU, col.r
    E = QZ.reshape(K, n, r, n)
    G = np.einsum("kirj,rvx->kivjx", E, col.A.reshape(r, X, X)).reshape(K, n * X, n * X)
    B = np.einsum("kirj,rvu->kivuj", E, col.B.reshape(r, X, u)).reshape(K, n * X, u * n)
    return G, B


# The LTOA word sum, an oracle for the one-value evaluation in ``interpolation``


def ltoa_word_sum(S, Z0: MatrixTuple, X, twisted: bool) -> np.ndarray:
    """sum_w Z0**w X S_w (twisted) or sum_w Z0**(w^T) X S_w over the words of a polynomial S."""
    X = np.asarray(X, dtype=complex)
    out = np.zeros((Z0.n, S.r), dtype=complex)
    for w, coeff in S.terms.items():
        Zw = np.eye(Z0.n, dtype=complex)
        for k in w.letters if twisted else w.letters[::-1]:
            Zw = Zw @ Z0.components[k - 1]
        out += Zw @ X @ coeff
    return out
