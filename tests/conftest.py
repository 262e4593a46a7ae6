import itertools
import sys

import numpy as np
import pytest

from ncpick.core import DimensionMismatchError, DomainError, MatrixTuple, _eval_poly, amp, \
    direct_sum_many, operator_norm
from ncpick.envelopes import INJECTIVITY_TOL, INJECTIVITY_TRIALS, WITNESS_COND_BOUND, \
    intertwiner_space
from ncpick.kernels import PickProblem
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


def agler_residual(col, QZ: np.ndarray, QW: np.ndarray, SZ: np.ndarray, SW: np.ndarray,
                   P) -> np.ndarray:
    """The paper's Agler decomposition of a transfer function S, as a residual.

    amp(P, y) - S(Z) amp(P, u) S(W)^* - F(Z)[(P - Q0(Z) amp(P, r) Q0(W)^*) (x) I_X] F(W)^*
    with F(Z) = C^(n) (I - (Q0(Z) (x) I_X) A^(n))^-1, built on the amplified
    colligation, for the values SZ = S(Z), SW = S(W) and P of level(Z) x level(W).
    It is zero when the colligation is unitary.
    """
    P = np.asarray(P, dtype=complex)

    def state_to_output(Q):
        G, _, Cn, _ = _amplified_maps(col, Q)
        return Cn @ np.linalg.inv(np.eye(G.shape[0]) - G)

    T = P - QZ @ amp(P, col.r) @ QW.conj().T
    FZ, FW = state_to_output(QZ), state_to_output(QW)
    return (amp(P, col.dimY) - SZ @ amp(P, col.dimU) @ SW.conj().T
            - FZ @ np.kron(T, np.eye(col.dimX)) @ FW.conj().T)


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


# The fused single-node route, an oracle for the node-list Choi support


def multi_point_to_single(problems):
    """Fuse nodes sharing Q0 into one single-node ``PickProblem``.

    Nodes and tangential data are direct-summed; the row spaces E_a of the
    nodes are embedded into their direct sum.  The fused Choi matrix has
    side e_tot N^2 (N the summed level, e_tot the summed dim E) and holds
    the node-list support of side sum_a e_a n_a^2 among exactly-zero rows
    and columns.
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
    A0 = np.zeros((e_tot * N, y * N), dtype=complex)
    B0 = np.zeros((e_tot * N, u * N), dtype=complex)
    e_off = n_off = 0
    # on the views (e, N, y, N) and (e, N, u, N) each summand is one block
    for p, e_i, n_i in zip(problems, es, levels):
        rows, pts = slice(e_off, e_off + e_i), slice(n_off, n_off + n_i)
        A0.reshape(e_tot, N, y, N)[rows, pts, :, pts] = p.A0.reshape(e_i, n_i, y, n_i)
        B0.reshape(e_tot, N, u, N)[rows, pts, :, pts] = p.B0.reshape(e_i, n_i, u, n_i)
        e_off += e_i
        n_off += n_i
    return PickProblem(first.Q0, direct_sum_many([p.Z0 for p in problems]), A0, B0)


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


def kron_sandwich_matrix(Aa: np.ndarray, Ab: np.ndarray, na: int, nb: int) -> np.ndarray:
    """Matrix of T -> Aa (T (x) I_c) Ab^* on row-major vec na x nb inputs, by ``np.kron``."""
    c = Aa.shape[1] // na
    out = np.zeros((Aa.shape[0] * Ab.shape[0], na * nb), dtype=complex)
    for q in range(c):
        out += np.kron(Aa[:, q * na : (q + 1) * na], Ab[:, q * nb : (q + 1) * nb].conj())
    return out


def stein_dominance_choi(Q0, Z0: MatrixTuple, Lambda0) -> np.ndarray:
    """Choi matrix [M(E_ij)] of M(P) = k(P) (x) I_Y - L (k(P) (x) I_U) L^*, L = ``Lambda0``.

    The kernel is ``szego_kernel_series`` at each matrix unit E_ij and the
    two sandwiches are ``kron_sandwich_matrix``; no solve and no reshape of
    the library's.
    """
    n = Z0.n
    L0 = np.asarray(Lambda0, dtype=complex)
    e = L0.shape[0]
    K = np.stack([szego_kernel_series(Q0, Z0, Z0, E.reshape(n, n), tol=1e-15)[0].ravel()
                  for E in np.eye(n * n)], axis=1)
    M = (kron_sandwich_matrix(np.eye(e), np.eye(e), n, n)
         - kron_sandwich_matrix(L0, L0, n, n)) @ K
    return np.block([[M[:, i * n + j].reshape(e, e) for j in range(n)] for i in range(n)])


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


# Generator-multiset searches, oracles for the envelope membership tests


def full_envelope_search(Ztilde: MatrixTuple, generators, seed: int = 0):
    """(multiplicities, intertwiner) of a left injective witness, or None.

    Every multiset of at most level(Ztilde) generators whose direct sum Z has
    level at least level(Ztilde) gets ``INJECTIVITY_TRIALS`` random elements
    of Int(Z <- Ztilde), each scaled to norm 1; the first with smallest
    singular value above ``INJECTIVITY_TOL`` is the witness.
    """
    rng = np.random.default_rng(seed)
    for total in range(1, Ztilde.n + 1):
        for combo in itertools.combinations_with_replacement(range(len(generators)), total):
            Z = direct_sum_many([generators[i] for i in combo])
            basis = intertwiner_space(Z, Ztilde) if Z.n >= Ztilde.n else []
            for _ in range(INJECTIVITY_TRIALS if basis else 0):
                coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
                I = sum(c * B for c, B in zip(coeffs, basis))
                I = I / max(np.linalg.norm(I, 2), 1e-300)
                if np.linalg.svd(I, compute_uv=False)[-1] > INJECTIVITY_TOL:
                    return tuple(combo.count(i) for i in range(len(generators))), I
    return None


def similarity_envelope_search(Ztilde: MatrixTuple, generators, seed: int):
    """(multiplicities, intertwiner) of a similarity witness, or None.

    Every multiset of at most level(Ztilde) generators whose direct sum Z has
    level exactly level(Ztilde) gets ``INJECTIVITY_TRIALS`` random elements
    of Int(Z <- Ztilde), from the nullspace of Z's own Sylvester system,
    each scaled to norm 1; the first of condition number at most
    ``WITNESS_COND_BOUND`` is the witness.
    """
    rng = np.random.default_rng(seed)
    for total in range(1, Ztilde.n + 1):
        for combo in itertools.combinations_with_replacement(range(len(generators)), total):
            if sum(generators[i].n for i in combo) != Ztilde.n:
                continue
            Z = direct_sum_many([generators[i] for i in combo])
            basis = intertwiner_space(Z, Ztilde)
            for _ in range(INJECTIVITY_TRIALS if basis else 0):
                coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
                I = sum(c * B for c, B in zip(coeffs, basis))
                svals = np.linalg.svd(I, compute_uv=False)
                if svals[-1] > 0 and svals[0] / svals[-1] <= WITNESS_COND_BOUND:
                    return tuple(combo.count(i) for i in range(len(generators))), I / svals[0]
    return None
