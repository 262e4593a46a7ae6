from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpick.core import (
    DimensionMismatchError,
    DomainError,
    NcMatrixPolynomial,
    _eval_poly,
    direct_sum,
    in_domain,
    operator_norm,
    similarity,
)
from ncpick.interpolation import solve_pick
from ncpick.kernels import PSD_REL_TOL, NotPsdError, PickProblem, _phi_matrix, dbr_choi, \
    kolmogorov_factor
from ncpick.realization import (
    SVD_RANK_TOL,
    Colligation,
    _unitary_completion,
    RealizedFunction,
    _input_map,
    amplify,
    colligation_contraction_check,
    lurking_isometry_synthesize,
    random_contractive_colligation,
    transfer_eval,
)
from ncpick.sampling import complex_gaussian, random_row_poly, sample_in_domain

from conftest import agler_residual, einsum_state_maps, mt, multi_point_to_single, \
    scalar_point


def mobius_colligation(a: float) -> Colligation:
    # real rotation colligation: S(z) = a + c z (1 - a z)^-1 (-c) ... a Mobius map
    c = np.sqrt(1 - a * a)
    return Colligation(1, 1, 1, 1, [[a]], [[-c]], [[c]], [[a]], flags=("unitary", "contractive"))


class TestAmplify:
    def test_level_one_is_identity(self, rng):
        col = random_contractive_colligation(3, 2, 2, 2, seed=1)
        An, Bn, Cn, Dn = amplify(col, 1)
        assert np.allclose(An, col.A) and np.allclose(Bn, col.B)
        assert np.allclose(Cn, col.C) and np.allclose(Dn, col.D)

    def test_norm_preserved(self):
        col = random_contractive_colligation(3, 2, 2, 2, seed=2)
        for n in (2, 3):
            An, Bn, Cn, Dn = amplify(col, n)
            assert operator_norm(An) == pytest.approx(operator_norm(col.A), abs=1e-12)
            assert operator_norm(Dn) == pytest.approx(operator_norm(col.D), abs=1e-12)

    def test_direct_kronecker_oracle(self):
        # An is a row/column permutation of I_n (x) A; same singular values
        col = random_contractive_colligation(2, 1, 1, 2, seed=3)
        for n in (2, 3):
            An, _, _, _ = amplify(col, n)
            want = np.linalg.svd(np.kron(np.eye(n), col.A), compute_uv=False)
            got = np.linalg.svd(An, compute_uv=False)
            assert np.allclose(np.sort(got), np.sort(want))


class TestTransferEval:
    @given(K=st.integers(1, 4), n=st.integers(1, 3), r=st.integers(1, 3),
           X=st.sampled_from([0, 1, 2, 5]), u=st.integers(1, 2), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_state_maps_match_einsum_oracle(self, K, n, r, X, u, seed):
        rng = np.random.default_rng(seed)
        col = random_contractive_colligation(X, u, 1, r, seed=seed)
        QZ = complex_gaussian(rng, (K, n, r * n))
        state = _phi_matrix(QZ, col.A.reshape(r, X, X))
        for got, want in zip((state, _input_map(col, QZ)), einsum_state_maps(col, QZ)):
            assert got.shape == want.shape
            scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * scale

    def test_constant_colligation(self, rng):
        D = rng.standard_normal((2, 3))
        col = Colligation(0, 3, 2, 2, np.zeros((0, 0)), np.zeros((0, 3)),
                          np.zeros((2, 0)), D)
        f = RealizedFunction(col, NcMatrixPolynomial.row_pencil(2))
        Z = mt(*(0.3 * rng.standard_normal((2, 2)) for _ in range(2)))
        assert np.allclose(transfer_eval(f, Z), np.kron(D, np.eye(2)))

    def test_shift_realization(self, rng):
        # (A,B,C,D) = (0,1,1,0) realizes S(Z) = Z in one variable
        col = Colligation(1, 1, 1, 1, [[0]], [[1]], [[1]], [[0]])
        f = RealizedFunction(col, NcMatrixPolynomial.scalar_univariate([0, 1]))
        Z = mt(0.4 * rng.standard_normal((3, 3)))
        assert np.allclose(transfer_eval(f, Z), Z.components[0])

    def test_scalar_mobius_contractive(self, rng):
        col = mobius_colligation(0.8)
        f = RealizedFunction(col, NcMatrixPolynomial.scalar_univariate([0, 1]))
        for _ in range(25):
            z = complex(*(0.7 * rng.uniform(-0.7, 0.7, 2)))
            if abs(z) >= 1:
                continue
            val = transfer_eval(f, scalar_point(z))[0, 0]
            # direct scalar formula
            want = 0.8 + np.sqrt(1 - 0.64) * z / (1 - 0.8 * z) * (-np.sqrt(1 - 0.64))
            assert val == pytest.approx(want)
            assert abs(val) <= 1 + 1e-12

    def test_outside_domain_rejected(self):
        col = mobius_colligation(0.5)
        f = RealizedFunction(col, NcMatrixPolynomial.scalar_univariate([0, 1]))
        with pytest.raises(DomainError):
            transfer_eval(f, scalar_point(1.2))

    def test_respects_direct_sums(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        col = random_contractive_colligation(4, 2, 2, 2, seed=5)
        f = RealizedFunction(col, Q)
        Z = sample_in_domain(Q, 2, rng, 0.6)
        W = sample_in_domain(Q, 3, rng, 0.6)
        big = transfer_eval(f, direct_sum(Z, W))
        SZ = transfer_eval(f, Z).reshape(2, 2, 2, 2)
        SW = transfer_eval(f, W).reshape(2, 3, 2, 3)
        scale = max(1.0, operator_norm(big))
        b4 = big.reshape(2, 5, 2, 5)
        for p in range(2):
            for q in range(2):
                assert np.linalg.norm(b4[p, :2, q, :2] - SZ[p, :, q, :]) <= 1e-10 * scale
                assert np.linalg.norm(b4[p, 2:, q, 2:] - SW[p, :, q, :]) <= 1e-10 * scale
                assert np.linalg.norm(b4[p, :2, q, 2:]) <= 1e-10 * scale

    def test_respects_similarity(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        col = random_contractive_colligation(3, 2, 2, 2, seed=6)
        f = RealizedFunction(col, Q)
        Z = sample_in_domain(Q, 3, rng, 0.4)
        alpha = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
        Zc = similarity(Z, alpha)
        assert in_domain(Q, Zc)
        lhs = transfer_eval(f, Zc)
        conj = np.kron(np.eye(2), alpha)
        rhs = conj @ transfer_eval(f, Z) @ np.linalg.inv(conj)
        scale = max(1.0, operator_norm(rhs))
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-8 * np.linalg.cond(alpha) * scale

    def test_contractive_on_samples(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        col = random_contractive_colligation(3, 1, 2, 2, seed=7)
        f = RealizedFunction(col, Q)
        for n in (1, 2, 3):
            for _ in range(20):
                Z = sample_in_domain(Q, n, rng, 0.9)
                assert operator_norm(transfer_eval(f, Z)) <= 1 + 1e-9


class TestAglerDecomposition:
    @given(r=st.integers(1, 3), X=st.integers(1, 3), y=st.integers(1, 2), d=st.integers(1, 2),
           levels=st.sampled_from([(1, 2), (2, 1), (2, 3), (3, 1), (1, 3)]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_unitary_colligation_has_zero_defect(self, r, X, y, d, levels, seed):
        # a unitary U makes the Agler decomposition exact at every pair of
        # levels n != m; S comes from the production transfer function
        rng = np.random.default_rng(seed)
        u = r * X + y - X
        col = random_contractive_colligation(X, u, y, r, seed=seed, unitary=True)
        Q0 = random_row_poly(rng, d, r, degree=2)
        f = RealizedFunction(col, Q0)
        Z, W = (sample_in_domain(Q0, lev, rng, 0.8) for lev in levels)
        P = complex_gaussian(rng, levels)
        res = agler_residual(col, _eval_poly(Q0, Z), _eval_poly(Q0, W),
                             transfer_eval(f, Z), transfer_eval(f, W), P)
        assert operator_norm(res) <= 1e-10 * operator_norm(P)

    @given(r=st.integers(2, 3), d=st.integers(1, 2), y=st.integers(1, 2), t=st.integers(1, 2),
           levels=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 3)]), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_unitary_completion_above_r_one_has_zero_defect(self, r, d, y, t, levels, seed):
        # at one level-1 node with e = 1 the Kolmogorov rank X is at most 1, so
        # u = y + (r - 1) t with t >= 1 leaves room for the padded state space
        # X' = t of the unitary completion, which needs u - y >= (r - 1) X
        rng = np.random.default_rng(seed)
        u = y + (r - 1) * t
        Q0 = random_row_poly(rng, d, r, degree=2)
        source = RealizedFunction(random_contractive_colligation(2, u, y, r, seed=seed), Q0)
        Z0 = sample_in_domain(Q0, 1, rng, 0.6)
        a0 = complex_gaussian(rng, (1, y))
        col, _ = lurking_isometry_synthesize(Q0, Z0, a0, a0 @ transfer_eval(source, Z0),
                                             completion="unitary")
        assert col.flags == ("unitary", "contractive") and col.dimX == t
        f = RealizedFunction(col, Q0)
        Z, W = (sample_in_domain(Q0, lev, rng, 0.8) for lev in levels)
        P = complex_gaussian(rng, levels)
        res = agler_residual(col, _eval_poly(Q0, Z), _eval_poly(Q0, W),
                             transfer_eval(f, Z), transfer_eval(f, W), P)
        assert operator_norm(res) <= 1e-10 * operator_norm(P)

    @given(d=st.integers(1, 2), levels=st.sampled_from([(1,), (2,), (3,), (1, 2), (2, 1),
                                                         (1, 1, 1), (2, 1, 1)]),
           e=st.integers(1, 2), y=st.integers(1, 2), u=st.integers(1, 2),
           source_X=st.integers(1, 3), via_solve=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_zero_completion_defect_is_completely_positive(self, d, levels, e, y, u, source_X,
                                                           via_solve, seed):
        # a zero completion U is a contraction, so the Agler residual is the CP
        # map P -> F(Z) [P (x) (I - U^* U)] F(Z)^*: its Choi matrix at a direct
        # sum of the nodes and a sample of another level is PSD up to the dead
        # band, for U from the node list or from the fused node
        rng = np.random.default_rng(seed)
        Q = NcMatrixPolynomial.row_pencil(d)
        source = RealizedFunction(random_contractive_colligation(source_X, u, y, d, seed=seed), Q)
        problems = []
        for n in levels:
            Z0 = sample_in_domain(Q, n, rng, 0.6)
            a0 = complex_gaussian(rng, (e * n, y * n))
            problems.append(PickProblem(Q, Z0, a0, a0 @ transfer_eval(source, Z0)))
        p = multi_point_to_single(problems)
        if via_solve:
            col = solve_pick(problems).colligation
        else:
            col, _ = lurking_isometry_synthesize(Q, p.Z0, p.A0, p.B0)
        Z = direct_sum(p.Z0, sample_in_domain(Q, 1 + levels[0] % 2, rng, 0.8))
        QZ, SZ, N = _eval_poly(Q, Z), transfer_eval(RealizedFunction(col, Q), Z), Z.n
        # Choi matrix sum_ij E_ij (x) defect(E_ij), blocks of side y N
        choi = np.zeros((N, y * N, N, y * N), dtype=complex)
        for i in range(N):
            for j in range(N):
                E = np.zeros((N, N))
                E[i, j] = 1.0
                choi[i, :, j, :] = agler_residual(col, QZ, QZ, SZ, SZ, E)
        choi = choi.reshape(N * y * N, N * y * N)
        eigs = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
        assert eigs[0] >= -PSD_REL_TOL * max(1.0, eigs[-1])


class TestContractionCheck:
    def test_unitary_passes_with_zero_margin(self):
        col = random_contractive_colligation(2, 2, 2, 1, seed=8, unitary=True)
        cert = colligation_contraction_check(col)
        assert cert.is_psd and abs(cert.min_eig) <= 1e-10

    def test_inflated_fails(self):
        col = Colligation(1, 1, 1, 1, [[2.0]], [[0.0]], [[0.0]], [[0.0]])
        assert not colligation_contraction_check(col).is_psd

    def test_random_draws_contract(self):
        for seed in range(30):
            col = random_contractive_colligation(3, 2, 1, 2, seed=seed)
            assert colligation_contraction_check(col).is_psd


class TestColligationShapes:
    @pytest.mark.parametrize("block, shape", [("A", (1, 4)), ("A", (4, 1)), ("B", (3, 2)),
                                              ("B", (1, 6)), ("C", (2, 1)), ("D", (3, 1))])
    def test_block_taken_at_its_exact_shape(self, block, shape):
        # dimX = 2, dimU = 3, dimY = 1, r = 1: a block with the right entry
        # count in another shape (a row, a transpose) is refused, not reshaped
        blocks = {"A": np.zeros((2, 2)), "B": np.zeros((2, 3)), "C": np.zeros((1, 2)),
                  "D": np.zeros((1, 3))}
        blocks[block] = np.arange(shape[0] * shape[1]).reshape(shape)
        with pytest.raises(DimensionMismatchError, match=f"block {block}"):
            Colligation(2, 3, 1, 1, **blocks)


class TestRandomColligation:
    def test_deterministic_under_seed(self):
        a = random_contractive_colligation(3, 2, 2, 2, seed=11)
        b = random_contractive_colligation(3, 2, 2, 2, seed=11)
        assert np.array_equal(a.as_matrix(), b.as_matrix())

    def test_unitary_flag(self):
        col = random_contractive_colligation(2, 3, 1, 2, seed=12, unitary=True)
        U = col.as_matrix()
        assert operator_norm(U.conj().T @ U - np.eye(U.shape[1])) <= 1e-12

    def test_unitary_shape_mismatch(self):
        with pytest.raises(ValueError):
            random_contractive_colligation(2, 1, 1, 2, seed=0, unitary=True)


def lurking_families(Q, Z0, a0, b0, dimX):
    """The D and R families of synthesis, one column (i, k) at a time (oracle).

    Column (i, k) of D is [(Q0(Z0)^* (x) I_X) H^* e_k at row i ; row i of
    a0^* e_k], and of R [H^* e_k at row i ; row i of b0^* e_k], with H the
    Kolmogorov factor of the Choi matrix.  State coordinates beyond the
    factor's rank (a padded state space of dimension ``dimX``) stay zero.
    """
    H = kolmogorov_factor(dbr_choi(Q, Z0, a0, b0)).stacked
    n, r = Z0.n, Q.r
    X = H.shape[1] // n
    QZ = _eval_poly(Q, Z0)  # n x (r n), columns (rho, j)
    y, u = a0.shape[1] // n, b0.shape[1] // n
    D, R = [], []
    for i in range(n):
        for k in range(a0.shape[0]):
            h = H[k].conj().reshape(n, X)  # H^* e_k, rows (point j, state x)
            top = np.zeros((r, dimX), dtype=complex)
            for rho in range(r):
                for j in range(n):
                    top[rho, :X] += np.conj(QZ[j, rho * n + i]) * h[j]
            state = np.zeros(dimX, dtype=complex)
            state[:X] = h[i]
            D.append(np.concatenate([top.ravel(), a0[k, np.arange(y) * n + i].conj()]))
            R.append(np.concatenate([state, b0[k, np.arange(u) * n + i].conj()]))
    return np.array(D).T, np.array(R).T


class TestSynthesis:
    @given(d=st.integers(1, 2), n=st.integers(1, 3), e=st.integers(1, 2),
           y=st.integers(1, 2), u=st.integers(1, 2), source_X=st.integers(1, 2),
           kind=st.sampled_from(["generic", "repeated_rows", "zero_b"]),
           unitary=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_lurking_isometry_oracle(self, d, n, e, y, u, source_X, kind, unitary, seed):
        # feasible data a0 S(Z0) = b0; repeated rows of a0 and b0 = 0 make
        # the D family rank-deficient
        rng = np.random.default_rng(seed)
        Q = NcMatrixPolynomial.row_pencil(d)
        Z0 = sample_in_domain(Q, n, rng, 0.6)
        col = random_contractive_colligation(source_X, u, y, d, seed=seed)
        a0 = complex_gaussian(rng, (e * n, y * n))
        if kind == "repeated_rows":
            a0 = a0[np.arange(e * n) // 2]
        b0 = np.zeros((e * n, u * n)) if kind == "zero_b" else \
            a0 @ transfer_eval(RealizedFunction(col, Q), Z0)
        # a unitary completion exists for r = 1 and dimU = dimY
        completion = "unitary" if unitary and d == 1 and u == y else "zero"
        syn, _ = lurking_isometry_synthesize(Q, Z0, a0, b0, completion=completion)
        U = syn.as_matrix()
        Dfam, Rfam = lurking_families(Q, Z0, a0, b0, syn.dimX)
        assert np.linalg.norm(U.conj().T @ Dfam - Rfam) <= \
            1e-10 * max(1.0, np.linalg.norm(Rfam))
        gram = U.conj().T @ U
        assert np.linalg.eigvalsh(gram)[-1] <= (1 + 1e-12) ** 2
        if completion == "unitary":
            assert np.linalg.norm(gram - np.eye(U.shape[1])) <= 1e-10
            assert np.linalg.norm(U @ U.conj().T - np.eye(U.shape[0])) <= 1e-10
            return
        # range(D)^perp from the eigenvectors of D D^* below the rank cut.  D D^*
        # resolves its eigenvalues (squared singular values) only to about
        # eps lam_max, so the cut is taken on them unsquared, and its
        # eigenvectors are accurate to about eps lam_max / gap (Davis-Kahan)
        lam, V = np.linalg.eigh(Dfam @ Dfam.conj().T)
        null = lam <= SVD_RANK_TOL * lam[-1]
        gap = lam[~null].min()
        assert np.linalg.norm(U.conj().T @ V[:, null]) <= 1e-12 * lam[-1] / gap

    def test_zero_value(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        Z0 = sample_in_domain(Q, 2, rng, 0.5)
        col, diag = lurking_isometry_synthesize(Q, Z0, np.eye(2), np.zeros((2, 2)))
        f = RealizedFunction(col, Q)
        assert np.linalg.norm(transfer_eval(f, Z0)) <= 1e-9
        for n in (1, 2):
            Z = sample_in_domain(Q, n, rng, 0.8)
            assert operator_norm(transfer_eval(f, Z)) <= 1 + 1e-9

    def test_constant_value(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        Z0 = sample_in_domain(Q, 2, rng, 0.5)
        lam = 0.6 - 0.3j
        col, _ = lurking_isometry_synthesize(Q, Z0, np.eye(2), lam * np.eye(2))
        f = RealizedFunction(col, Q)
        S0 = transfer_eval(f, Z0)
        assert np.linalg.norm(S0 - lam * np.eye(2)) <= 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_round_trip(self, seed):
        rng = np.random.default_rng(100 + seed)
        d = int(rng.integers(1, 3))
        Q = NcMatrixPolynomial.row_pencil(d)
        col = random_contractive_colligation(int(rng.integers(1, 5)), 1, 1, d, seed=seed)
        f = RealizedFunction(col, Q)
        Z0 = sample_in_domain(Q, 2, rng, 0.6)
        Lam0 = transfer_eval(f, Z0)
        col2, diag = lurking_isometry_synthesize(Q, Z0, np.eye(2), Lam0)
        f2 = RealizedFunction(col2, Q)
        assert np.linalg.norm(transfer_eval(f2, Z0) - Lam0, 2) <= 1e-8
        assert diag.gram_residual <= 1e-9

    def test_infeasible_raises(self):
        Q = NcMatrixPolynomial.scalar_univariate([0, 1])
        Z0 = scalar_point(0.0)
        with pytest.raises(NotPsdError):
            lurking_isometry_synthesize(Q, Z0, np.eye(1), 1.5 * np.eye(1))

    def test_node_outside_disk_raises(self):
        # the Stein solve inside the Choi build is the domain check
        Q = NcMatrixPolynomial.scalar_univariate([0, 1])
        with pytest.raises(DomainError, match="outside the disk"):
            lurking_isometry_synthesize(Q, scalar_point(1.5), np.eye(1), 0.5 * np.eye(1))

    def test_unitary_completion_r1(self, rng):
        Q = NcMatrixPolynomial.scalar_univariate([0, 1])
        Z0 = sample_in_domain(Q, 2, rng, 0.5)
        fwd = random_contractive_colligation(3, 1, 1, 1, seed=31)
        Lam0 = transfer_eval(RealizedFunction(fwd, Q), Z0)
        col, _ = lurking_isometry_synthesize(Q, Z0, np.eye(2), Lam0,
                                             completion="unitary")
        U = col.as_matrix()
        assert "unitary" in col.flags
        assert operator_norm(U.conj().T @ U - np.eye(U.shape[1])) <= 1e-10
        f2 = RealizedFunction(col, Q)
        assert np.linalg.norm(transfer_eval(f2, Z0) - Lam0, 2) <= 1e-8

    @given(r=st.integers(1, 3), X=st.integers(0, 3), y=st.integers(1, 2),
           pad=st.integers(0, 2), k=st.integers(0, 8), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_unitary_completion_from_two_complete_qrs(self, r, X, y, pad, k, seed):
        # a random partial isometry images Q1^* with the defect dimensions of a
        # state pad (none at r = 1): the completion is unitary, maps the
        # padded Q1 onto the padded images, and takes no SVD
        rng = np.random.default_rng(seed)
        pad = pad if r > 1 else 0
        u = (r - 1) * (X + pad) + y
        k = min(k, r * X + y, X + u)
        Q1 = np.linalg.qr(complex_gaussian(rng, (r * X + y, k)))[0]
        images = np.linalg.qr(complex_gaussian(rng, (X + u, k)))[0]
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            Xp, Ustar = _unitary_completion(Q1, images, X, u, y, r)
        assert svd.call_count == 0
        assert Xp == X + pad and Ustar.shape == (Xp + u, r * Xp + y)
        assert operator_norm(Ustar.conj().T @ Ustar - np.eye(r * Xp + y)) <= 1e-12
        # tensor-slot row (rho, x) moves to rho X' + x and output row j to r X' + j;
        # state row x stays and input row j moves to X' + j
        slot_rows = [rho * Xp + x for rho in range(r) for x in range(X)]
        Q1e = np.zeros((r * Xp + y, k), dtype=complex)
        Q1e[slot_rows + [r * Xp + j for j in range(y)]] = Q1
        padded = np.zeros((Xp + u, k), dtype=complex)
        padded[list(range(X)) + [Xp + j for j in range(u)]] = images
        assert np.linalg.norm(Ustar @ Q1e - padded) <= 1e-12 * max(1, k)

    def test_unitary_completion_shape_mismatch(self, rng):
        # for r >= 2 with a nonzero state no finite pad matches the defects
        Q = NcMatrixPolynomial.row_pencil(2)
        Z0 = sample_in_domain(Q, 2, rng, 0.5)
        with pytest.raises(ValueError):
            lurking_isometry_synthesize(Q, Z0, np.eye(2), np.zeros((2, 2)),
                                        completion="unitary")

    def test_rectangular_tangential_data(self, rng):
        # dimU = 2, dimY = 1, dimE = 1 at a level-2 node
        Q = NcMatrixPolynomial.row_pencil(2)
        Z0 = sample_in_domain(Q, 2, rng, 0.5)
        col = random_contractive_colligation(3, 2, 1, 2, seed=21)
        f = RealizedFunction(col, Q)
        S0 = transfer_eval(f, Z0)
        a0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b0 = a0 @ S0
        col2, diag = lurking_isometry_synthesize(Q, Z0, a0, b0)
        f2 = RealizedFunction(col2, Q)
        resid = np.linalg.norm(a0 @ transfer_eval(f2, Z0) - b0, 2)
        assert resid <= 1e-8 * max(1.0, np.linalg.norm(b0, 2))
        assert col2.dimU == 2 and col2.dimY == 1
