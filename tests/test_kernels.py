import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ncpick import core, kernels
from ncpick.core import DomainError, MatrixTuple, NcMatrixPolynomial, amp
from ncpick.kernels import (
    ChoiMatrix,
    NotPsdError,
    cp_check_finite,
    dbr_kernel,
    kolmogorov_factor,
    map_matrix_to_choi,
    psd_check,
    szego_kernel_solve,
    szego_map_matrix,
)
from ncpick.realization import random_contractive_colligation
from ncpick.sampling import complex_gaussian, random_row_poly, sample_in_domain

from conftest import count_calls, kron_phi_matrix, kron_sandwich_matrix, mt, phi_map, \
    scalar_point, szego_kernel_series, szego_tail_bound


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want), initial=0.0)) / max(
        float(np.max(np.abs(want), initial=0.0)), 1e-300)


class TestPsdCheck:
    def test_identity(self):
        cert = psd_check(np.eye(3))
        assert cert.is_psd and cert.min_eig == pytest.approx(1.0)

    def test_small_negative_rejected(self):
        cert = psd_check(np.diag([1.0, -1e-3]), rel_tol=1e-9)
        assert not cert.is_psd

    @given(arrays(np.float64, (4, 4), elements=st.floats(-2, 2)))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_gram_matrices_pass(self, A):
        cert = psd_check(A @ A.T)
        assert cert.is_psd

    def test_marginal_flag(self):
        cert = psd_check(np.diag([1.0, -1e-12]), rel_tol=1e-9)
        assert cert.is_psd and cert.marginal

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            psd_check(np.array([[0.0, 1.0], [0.0, 0.0]]))

    # psd_check and kolmogorov_factor share one Hermiticity test
    @pytest.mark.parametrize("check", [psd_check,
                                       lambda A: kolmogorov_factor(ChoiMatrix(1, 2, A))])
    def test_shared_hermiticity_test(self, check, rng):
        with pytest.raises(ValueError, match="not Hermitian"):
            check(np.array([[0.0, 1.0], [0.0, 0.0]]))
        G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        S = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        check(G @ G.conj().T + 1e-12 * (S - S.conj().T))

    # psd_check and kolmogorov_factor share one dead-band rule
    @pytest.mark.parametrize("rel_tol", [1e-9, 1e-3])
    @pytest.mark.parametrize("top", [0.5, 4.0])
    @pytest.mark.parametrize("inside", [True, False])
    def test_shared_dead_band(self, rel_tol, top, inside):
        band = rel_tol * max(1.0, top)
        lo = -band * (1 - 1e-6 if inside else 1 + 1e-6)
        M = np.diag([lo, 0.25 * top, top])
        cert = psd_check(M, rel_tol=rel_tol)
        assert cert.is_psd == inside
        try:
            kolmogorov_factor(ChoiMatrix(1, 3, M), psd_tol=rel_tol)
        except NotPsdError:
            raised = True
        else:
            raised = False
        assert raised == (not cert.is_psd)


def transpose_vec_matrix(n):
    """Vec-matrix of P -> P^T on row-major vectorized n x n inputs."""
    return np.eye(n * n).reshape(n, n, n, n).transpose(1, 0, 2, 3).reshape(n * n, n * n)


class TestChoi:
    def test_identity_map(self):
        C = map_matrix_to_choi(np.eye(4), 2, 2)
        # maximally entangled form: rank one, PSD, min eig 0
        vals = np.linalg.eigvalsh(C.matrix)
        assert np.sum(vals > 1e-12) == 1
        assert psd_check(C.matrix).is_psd
        assert vals[0] == pytest.approx(0.0, abs=1e-12)

    def test_transpose_map_not_cp(self, rng):
        # eigen-decomposition oracle: the swap matrix has eigenvalue -1
        T = transpose_vec_matrix(2)
        P = rng.standard_normal((2, 2))
        assert np.array_equal((T @ P.reshape(-1)).reshape(2, 2), P.T)
        C = map_matrix_to_choi(T, 2, 2)
        vals = np.linalg.eigvalsh(C.matrix)
        assert vals[0] == pytest.approx(-1.0)
        assert not psd_check(C.matrix).is_psd

    def test_trace_map(self):
        # P -> tr(P) I has vec-matrix vec(I) vec(I)^T
        vecI = np.eye(2).reshape(-1)
        C = map_matrix_to_choi(np.outer(vecI, vecI), 2, 2)
        assert np.allclose(C.matrix, np.eye(4))


class TestKolmogorov:
    def test_zero_matrix(self):
        C = ChoiMatrix(2, 2, np.zeros((4, 4)))
        f = kolmogorov_factor(C)
        assert f.rank == 0
        assert all(b.shape == (2, 0) for b in f.blocks)

    def test_scalar_identity(self):
        C = ChoiMatrix(1, 1, np.eye(1))
        f = kolmogorov_factor(C)
        assert f.rank == 1
        assert np.allclose(f.blocks[0] @ f.blocks[0].conj().T, 1.0)

    def test_reconstruction(self, rng):
        # build a Choi matrix from known blocks and recover them up to gauge
        n, b, X = 3, 2, 4
        blocks = [rng.standard_normal((b, X)) + 1j * rng.standard_normal((b, X))
                  for _ in range(n)]
        Cmat = np.block([[Bi @ Bj.conj().T for Bj in blocks] for Bi in blocks])
        f = kolmogorov_factor(ChoiMatrix(n, b, Cmat))
        for i in range(n):
            for j in range(n):
                got = f.blocks[i] @ f.blocks[j].conj().T
                want = blocks[i] @ blocks[j].conj().T
                assert np.linalg.norm(got - want) <= 1e-10 * max(1, np.linalg.norm(want))

    def test_not_psd_rejected(self):
        with pytest.raises(NotPsdError):
            kolmogorov_factor(ChoiMatrix(1, 2, np.diag([1.0, -1.0])))


class TestPhiMap:
    def test_zero_points(self):
        Q = NcMatrixPolynomial.row_pencil(2)
        Z = MatrixTuple.zeros(2, 2)
        assert np.allclose(phi_map(Q, Z, Z, np.eye(2)), 0)

    def test_scalar_row_pencil(self):
        Q = NcMatrixPolynomial.row_pencil(2)
        Z = scalar_point(0.3, 0.4)
        W = scalar_point(0.2, -0.1)
        got = phi_map(Q, Z, W, np.array([[2.0]]))
        want = 2.0 * (0.3 * 0.2 + 0.4 * (-0.1))
        assert got[0, 0] == pytest.approx(want)

    def test_single_variable(self, rng):
        Q = NcMatrixPolynomial.scalar_univariate([0, 1])
        Z = mt(0.3 * rng.standard_normal((2, 2)))
        W = mt(0.3 * rng.standard_normal((3, 3)))
        P = rng.standard_normal((2, 3))
        want = Z.components[0] @ P @ W.components[0].conj().T
        assert np.allclose(phi_map(Q, Z, W, P), want)

    def test_multirow_rejected(self):
        Q = NcMatrixPolynomial.diag_pencil(2)
        Z = MatrixTuple.zeros(2, 1)
        with pytest.raises(ValueError):
            phi_map(Q, Z, Z, np.eye(1))


class TestVecMatrices:
    @given(r=st.integers(1, 3), n=st.integers(1, 4), m=st.integers(1, 4),
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_phi_matrix_matches_kron_oracle(self, r, n, m, seed):
        if m == n:
            m = n % 4 + 1
        rng = np.random.default_rng(seed)
        QZ, QW = complex_gaussian(rng, (n, r * n)), complex_gaussian(rng, (m, r * m))
        want = kron_phi_matrix(QZ, QW, r)
        got = kernels._phi_matrix(QZ[None], QW.conj().reshape(m, r, m).transpose(1, 0, 2))[0]
        assert _rel_err(got, want) <= 1e-14

    @given(c=st.integers(1, 3), e=st.integers(1, 3), f=st.integers(1, 3), n=st.integers(1, 4),
           m=st.integers(1, 4), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_sandwich_matrix_matches_kron_oracle(self, c, e, f, n, m, seed):
        # a pair of nodes: levels n and m, row dimensions e and f
        if m == n:
            m = n % 4 + 1
        rng = np.random.default_rng(seed)
        Aa, Ab = complex_gaussian(rng, (e * n, c * n)), complex_gaussian(rng, (f * m, c * m))
        want = kron_sandwich_matrix(Aa, Ab, n, m)
        assert _rel_err(kernels._sandwich_matrix(Aa, Ab, n, m), want) <= 1e-14

    def test_cp_check_makes_no_kronecker_product(self, monkeypatch, rng):
        Q = random_row_poly(rng, 2, r=2, degree=2, terms=3)
        pts = [sample_in_domain(Q, lev, rng, 0.6) for lev in (1, 2, 3)]
        krons = count_calls(monkeypatch, np, "kron")
        assert cp_check_finite(Q, pts)[0].is_psd
        assert krons == []


def _values_of_norm(rng, K: int, n: int, cols: int, rho: float) -> np.ndarray:
    """K complex Gaussian n x cols values, each scaled to spectral norm rho."""
    QZ = complex_gaussian(rng, (K, n, cols))
    return QZ * (rho / np.linalg.norm(QZ, 2, axis=(1, 2)))[:, None, None]


class TestSteinSolve:
    # the one solve against a dense Kronecker solve: sum_rho E_rho (x) M_rho is
    # kron_phi_matrix(QZ, QW, r) for QW = [conj(M_1) ... conj(M_r)]

    @given(K=st.sampled_from([1, 3]), r=st.integers(1, 3), n=st.integers(1, 4),
           m=st.integers(1, 4), rho=st.floats(0.0, 0.99), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_szego_matches_dense_kronecker_solve(self, K, r, n, m, rho, seed):
        if m == n:
            m = n % 4 + 1
        rng = np.random.default_rng(seed)
        QZ = _values_of_norm(rng, K, n, r * n, rho)
        QW = _values_of_norm(rng, 1, m, r * m, rho)[0]
        rhs = complex_gaussian(rng, (1, n * m, 2))  # shared by the stack
        got = kernels._stein_solve(QZ, QW.conj().reshape(m, r, m).transpose(1, 0, 2), rhs)
        assert got.shape == (K, n * m, 2)
        for k in range(K):
            want = np.linalg.solve(np.eye(n * m) - kron_phi_matrix(QZ[k], QW, r), rhs[0])
            assert _rel_err(got[k], want) <= 1e-12

    @given(K=st.sampled_from([1, 3]), r=st.integers(1, 3), n=st.integers(1, 4),
           X=st.sampled_from([0, 1, 6]), u=st.integers(1, 2), rho=st.floats(0.0, 0.99),
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_state_matches_dense_kronecker_solve(self, K, r, n, X, u, rho, seed):
        rng = np.random.default_rng(seed)
        A = random_contractive_colligation(X, u, 1, r, seed=seed).A.reshape(r, X, X)
        QZ = _values_of_norm(rng, K, n, r * n, rho)
        rhs = complex_gaussian(rng, (K, n * X, u * n))
        got = kernels._stein_solve(QZ, A, rhs)
        assert got.shape == rhs.shape
        QW = np.hstack(list(A.conj()))
        for k in range(K):
            want = np.linalg.solve(np.eye(n * X) - kron_phi_matrix(QZ[k], QW, r), rhs[k])
            assert _rel_err(got[k], want) <= 1e-12


class TestSzegoKernel:
    def test_zero_point_returns_input(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        Z = MatrixTuple.zeros(2, 2)
        P = rng.standard_normal((2, 2))
        assert np.allclose(szego_kernel_solve(Q, Z, Z, P), P)

    def test_scalar_geometric(self):
        Q = NcMatrixPolynomial.scalar_univariate([0, 1])
        z = scalar_point(0.5)
        got = szego_kernel_solve(Q, z, z, np.eye(1))
        assert got[0, 0] == pytest.approx(4.0 / 3.0)

    def test_series_matches_solve_within_tail(self, rng):
        for trial in range(5):
            d = int(rng.integers(1, 4))
            Q = random_row_poly(rng, d, r=int(rng.integers(1, 3)), degree=2, terms=3)
            Z = sample_in_domain(Q, int(rng.integers(1, 4)), rng, 0.7)
            W = sample_in_domain(Q, int(rng.integers(1, 4)), rng, 0.6)
            P = rng.standard_normal((Z.n, W.n)) + 1j * rng.standard_normal((Z.n, W.n))
            exact = szego_kernel_solve(Q, Z, W, P)
            approx, L = szego_kernel_series(Q, Z, W, P, tol=1e-8)
            assert np.linalg.norm(approx - exact, 2) <= szego_tail_bound(Q, Z, W, P, L) + 1e-12

    def test_series_residual_identity(self, rng):
        Q = random_row_poly(rng, 2, r=2, degree=1)
        Z = sample_in_domain(Q, 2, rng, 0.6)
        W = sample_in_domain(Q, 2, rng, 0.6)
        P = rng.standard_normal((2, 2))
        T, _ = szego_kernel_series(Q, Z, W, P, tol=1e-12)
        resid = np.linalg.norm(T - phi_map(Q, Z, W, T) - P)
        assert resid <= 1e-10 * (1 + np.linalg.norm(P))

    def test_zero_input_short_series(self):
        Q = NcMatrixPolynomial.scalar_univariate([0, 1])
        z = scalar_point(0.5)
        T, L = szego_kernel_series(Q, z, z, np.zeros((1, 1)), tol=1e-12)
        assert L == 0 and np.allclose(T, 0)

    def test_domain_violation_raises(self):
        Q = NcMatrixPolynomial.scalar_univariate([0, 1])
        z = scalar_point(1.5)
        with pytest.raises(DomainError):
            szego_kernel_solve(Q, z, z, np.eye(1))

    def test_hermitian_symmetry(self, rng):
        Q = random_row_poly(rng, 2, r=2, degree=2, terms=4)
        Z = sample_in_domain(Q, 2, rng, 0.7)
        W = sample_in_domain(Q, 3, rng, 0.7)
        P = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        lhs = szego_kernel_solve(Q, Z, W, P).conj().T
        rhs = szego_kernel_solve(Q, W, Z, P.conj().T)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1 + np.linalg.norm(rhs))

    def test_direct_sum_respect(self, rng):
        from ncpick.core import direct_sum

        Q = random_row_poly(rng, 2, r=1, degree=1)
        Z = sample_in_domain(Q, 2, rng, 0.6)
        W = sample_in_domain(Q, 1, rng, 0.6)
        ZW = direct_sum(Z, W)
        P = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        big = szego_kernel_solve(Q, ZW, ZW, P)
        assert np.allclose(big[:2, :2], szego_kernel_solve(Q, Z, Z, P[:2, :2]))
        assert np.allclose(big[:2, 2:], szego_kernel_solve(Q, Z, W, P[:2, 2:]))
        assert np.allclose(big[2:, 2:], szego_kernel_solve(Q, W, W, P[2:, 2:]))

    def test_map_matrix_consistency(self, rng):
        Q = random_row_poly(rng, 2, r=2, degree=1)
        Z = sample_in_domain(Q, 2, rng, 0.6)
        K = szego_map_matrix(Q, Z, Z)
        P = rng.standard_normal((2, 2))
        assert np.allclose((K @ P.reshape(-1)).reshape(2, 2),
                           szego_kernel_solve(Q, Z, Z, P))


def per_unit_cp_choi(Q, points):
    """Choi matrix of the Szego kernel at the direct-sum point, one solve per matrix unit.

    Reference for ``cp_check_finite``: column block (I, J) holds k(E_IJ) at
    the sum point, built from pairwise ``szego_kernel_solve`` calls.
    """
    levels = [Z.n for Z in points]
    N = sum(levels)
    offs = np.concatenate(([0], np.cumsum(levels))).astype(int)
    choi4 = np.zeros((N, N, N, N), dtype=complex)
    for ai, Za in enumerate(points):
        for bi, Zb in enumerate(points):
            for i in range(Za.n):
                for j in range(Zb.n):
                    unit = np.zeros((Za.n, Zb.n), dtype=complex)
                    unit[i, j] = 1.0
                    big = np.zeros((N, N), dtype=complex)
                    big[offs[ai] : offs[ai] + Za.n, offs[bi] : offs[bi] + Zb.n] = (
                        szego_kernel_solve(Q, Za, Zb, unit))
                    choi4[offs[ai] + i, :, offs[bi] + j, :] = big
    return choi4.reshape(N * N, N * N)


def choi_support(levels) -> np.ndarray:
    """Choi indices i * N + r with i and r in the same point's block."""
    N, offs = sum(levels), np.concatenate(([0], np.cumsum(levels)))
    return np.array([i * N + r for a, n in enumerate(levels)
                     for i in range(offs[a], offs[a] + n) for r in range(offs[a], offs[a] + n)])


SCALAR_NODES = (0.3, -0.5, 0.1j)


class TestCpCheckFinite:
    def test_szego_kernel_cp_on_random_points(self, rng):
        Q = random_row_poly(rng, 2, r=2, degree=1)
        pts = [sample_in_domain(Q, 1, rng, 0.6), sample_in_domain(Q, 2, rng, 0.6)]
        cert, choi = cp_check_finite(Q, pts)
        assert cert.is_psd
        assert choi.n == 3 and choi.block_dim == 3

    @given(d=st.integers(1, 2), r=st.integers(1, 2),
           levels=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_matches_per_unit_assembly(self, d, r, levels, seed):
        rng = np.random.default_rng(seed)
        Q = random_row_poly(rng, d, r=r, degree=2, terms=3)
        pts = [sample_in_domain(Q, lev, rng, 0.7) for lev in levels]
        cert, choi = cp_check_finite(Q, pts)
        want = per_unit_cp_choi(Q, pts)
        N = sum(levels)
        assert (choi.n, choi.block_dim) == (N, N)
        assert np.abs(choi.matrix - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        assert cert.is_psd
        # the full spectrum is the support spectrum plus N^2 - sum n_a^2 exact zeros
        sup = choi_support(levels)
        spec = np.linalg.eigvalsh(want[np.ix_(sup, sup)])
        padded = np.sort(np.concatenate([spec, np.zeros(N * N - len(sup))]))
        scale = max(1.0, np.abs(spec).max())
        assert np.abs(np.linalg.eigvalsh(want) - padded).max() <= 1e-10 * scale
        assert cert.min_eig == pytest.approx(spec[0], abs=1e-10 * scale)

    def test_point_outside_disk_raises(self):
        Q = NcMatrixPolynomial.scalar_univariate([0, 1])
        with pytest.raises(DomainError):
            cp_check_finite(Q, [scalar_point(0.5), scalar_point(1.5)])

    def test_one_map_matrix_per_pair(self, rng, monkeypatch):
        # Q0 is evaluated and norm-checked once per point; every pair, (b, a)
        # as well as (a, b), gets its own solve from those values
        Q = random_row_poly(rng, 2, r=2, degree=1)
        pts = [sample_in_domain(Q, lev, rng, 0.6) for lev in (1, 2, 2)]
        evals = count_calls(monkeypatch, core, "_eval_poly")
        norms = count_calls(monkeypatch, core, "operator_norm")
        solves = count_calls(monkeypatch, kernels, "_stein_solve")
        cp_check_finite(Q, pts)
        p = len(pts)
        assert (len(evals), len(norms), len(solves)) == (p, p, p * p)
        assert [(s[0].shape[1], s[1].shape[1]) for s in solves] == [
            (Za.n, Zb.n) for Za in pts for Zb in pts]

    @given(d=st.integers(1, 2), r=st.integers(1, 2),
           levels=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_certifies_the_hermitian_part_of_independent_solves(self, d, r, levels, seed):
        rng = np.random.default_rng(seed)
        Q = random_row_poly(rng, d, r=r, degree=2, terms=3)
        pts = [sample_in_domain(Q, lev, rng, 0.7) for lev in levels]
        sq = np.concatenate(([0], np.cumsum([n * n for n in levels])))
        raw = np.empty((sq[-1], sq[-1]), dtype=complex)
        for a, Za in enumerate(pts):
            for b, Zb in enumerate(pts):
                raw[sq[a] : sq[a + 1], sq[b] : sq[b + 1]] = kernels._choi_reshuffle(
                    szego_map_matrix(Q, Za, Zb), (Za.n, Zb.n), (Za.n, Zb.n))
        # the kernel is Hermitian: the (b, a) block solved on its own is the
        # conjugate transpose of the (a, b) block
        scale = np.abs(raw).max()
        for a in range(len(pts)):
            for b in range(len(pts)):
                ab = raw[sq[a] : sq[a + 1], sq[b] : sq[b + 1]]
                ba = raw[sq[b] : sq[b + 1], sq[a] : sq[a + 1]]
                assert np.abs(ba - ab.conj().T).max() <= 1e-12 * scale
        cert, choi = cp_check_finite(Q, pts)
        assert cert.min_eig == psd_check(raw).min_eig
        # the returned matrix is the certified one, exactly Hermitian
        sup = choi_support(levels)
        assert np.array_equal(choi.matrix[np.ix_(sup, sup)], 0.5 * (raw + raw.conj().T))
        C = choi.matrix
        assert np.array_equal(C.real.view(np.uint64), C.real.T.view(np.uint64))
        assert np.array_equal(C.imag, -C.imag.T)

    def test_one_psd_check_on_the_support(self, rng, monkeypatch):
        Q = random_row_poly(rng, 2, r=2, degree=1)
        levels = (1, 2, 3)
        pts = [sample_in_domain(Q, lev, rng, 0.6) for lev in levels]
        # one psd_check of the Hermitian part and one eigvalsh: psd_check's own
        # symmetrization of that exactly Hermitian matrix changes no bit
        checks = count_calls(monkeypatch, np.linalg, "eigvalsh")
        herms = count_calls(monkeypatch, kernels, "_hermitian_part")
        psd_checks = count_calls(monkeypatch, kernels, "psd_check")
        _, choi = cp_check_finite(Q, pts)
        assert [np.shape(c[0]) for c in checks] == [(14, 14)]  # 1 + 4 + 9
        assert len(herms) == 2 and len(psd_checks) == 1
        sup = choi_support(levels)
        assert np.array_equal(psd_checks[0][0], choi.matrix[np.ix_(sup, sup)])
        assert np.array_equal(checks[0][0], choi.matrix[np.ix_(sup, sup)])
        off = np.ones(choi.matrix.shape[0], dtype=bool)
        off[sup] = False
        assert not choi.matrix[off].any() and not choi.matrix[:, off].any()

    def test_scalar_points_give_the_classical_pick_matrix(self, monkeypatch):
        Q = NcMatrixPolynomial.scalar_univariate([0, 1])
        z = np.array(SCALAR_NODES)
        checks = count_calls(monkeypatch, np.linalg, "eigvalsh")
        cert, choi = cp_check_finite(Q, [scalar_point(v) for v in z])
        gram = 1.0 / (1.0 - np.outer(z, z.conj()))
        assert np.abs(checks[0][0] - gram).max() <= 1e-12
        lo = np.linalg.eigvalsh(gram)[0]
        assert lo > 0.016
        assert cert.min_eig == pytest.approx(lo, rel=1e-12)
        assert cert.is_psd and not cert.marginal
        assert (choi.n, choi.block_dim) == (3, 3)

    @pytest.mark.parametrize("tol", [1e-18, 1e-9, 1e-3])
    def test_diagonal_point_reads_the_classical_pick_margin(self, tol):
        # the Choi rows (i, r), i != r, of the diagonal point diag(0.3, 0.5) are
        # exactly zero; oracle: the classical Pick matrix of the nodes 0.3, 0.5, 0.2
        z = np.array([0.3, 0.5, 0.2])
        pts = [mt(np.diag(z[:2])), mt(z[2:, None])]
        cert, _ = cp_check_finite(NcMatrixPolynomial.row_pencil(1), pts, tol)
        lo, hi = np.linalg.eigvalsh(1.0 / (1.0 - np.outer(z, z.conj())))[[0, -1]]
        assert cert.min_eig == pytest.approx(lo, rel=1e-12)  # 4.3036e-4
        assert cert.is_psd
        # inside the dead band only at 1e-3, where the band is 1e-3 * 3.40
        assert cert.marginal == (lo < tol * hi)

    @pytest.mark.parametrize("tol", [1e-18, 1e-9])
    def test_repeated_point_reads_the_distinct_points_margin(self, tol):
        # [Z, W, Z] generates the set [Z, W] does; certifying Z twice would read
        # the exact zero of the repeated rows (about -1e-15, not_psd at 1e-18)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            Q = random_row_poly(rng, 2, r=2, degree=2)
            Z, W = sample_in_domain(Q, 3, rng, 0.6), sample_in_domain(Q, 2, rng, 0.6)
            want, choi = cp_check_finite(Q, [Z, W], tol)
            got, choi3 = cp_check_finite(Q, [Z, W, MatrixTuple(Z.components)], tol)
            assert got == want and want.is_psd and not want.marginal
            assert np.array_equal(choi3.matrix, choi.matrix)

    @given(d=st.integers(1, 2), levels=st.tuples(*[st.integers(1, 3)] * 3),
           seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_direct_sum_point_reads_its_summands_margin(self, d, levels, seed):
        # the kernel respects direct sums, so [A (+) B, W] and [A, B, W] have one
        # Choi matrix and one support; the rows that pair A with B are exact zeros
        rng = np.random.default_rng(seed)
        Q = NcMatrixPolynomial.row_pencil(d)
        A, B, W = (sample_in_domain(Q, n, rng, 0.6) for n in levels)
        summed, _ = cp_check_finite(Q, [core.direct_sum_many([A, B]), W])
        apart, _ = cp_check_finite(Q, [A, B, W])
        assert abs(summed.min_eig - apart.min_eig) <= 1e-10 * max(1.0, apart.max_eig)


class TestDbrKernel:
    def test_identity_a_zero_b(self, rng):
        Q = random_row_poly(rng, 2, r=1, degree=1)
        Z = sample_in_domain(Q, 2, rng, 0.6)
        P = rng.standard_normal((2, 2))
        got = dbr_kernel(Q, Z, Z, P, np.eye(2), np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
        assert np.allclose(got, szego_kernel_solve(Q, Z, Z, P))

    def test_a_equals_b_vanishes(self, rng):
        Q = random_row_poly(rng, 2, r=1, degree=1)
        Z = sample_in_domain(Q, 2, rng, 0.6)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        P = rng.standard_normal((2, 2))
        got = dbr_kernel(Q, Z, Z, P, a, a, a, a)
        assert np.linalg.norm(got) <= 1e-12

    def test_classical_pick_entry(self):
        # classical single-node Pick matrix entry (1 - |l|^2) / (1 - |z|^2)
        Q = NcMatrixPolynomial.scalar_univariate([0, 1])
        z0, lam = scalar_point(0.5), 0.7
        got = dbr_kernel(Q, z0, z0, np.eye(1), np.eye(1), np.eye(1),
                         lam * np.eye(1), lam * np.eye(1))
        assert got[0, 0] == pytest.approx((1 - lam**2) / (1 - 0.25))

    def test_amp_layout(self, rng):
        # the (x) I_C amplification acts on the inner point index
        P = rng.standard_normal((2, 3))
        got = amp(P, 2)
        want = np.zeros((4, 6))
        want[:2, :3] = P
        want[2:, 3:] = P
        assert np.allclose(got, want)
