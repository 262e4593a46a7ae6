import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpick import core, kernels
from ncpick.core import (
    NcMatrixPolynomial,
    Word,
    _eval_word,
    direct_sum_many,
    operator_norm,
    rep_diag,
    similarity,
)
from ncpick.interpolation import (
    LtoaProblem,
    PickProblem,
    ltoa_certificate,
    ltoa_eval,
    multi_point_to_single,
    pick_certificate,
    solve_pick,
    stein_dominance_certificate,
    strict_stein_refuter,
    twisted_ltoa_eval,
)
from ncpick.realization import (
    RealizedFunction,
    random_contractive_colligation,
    transfer_eval,
)
from ncpick.sampling import sample_in_domain

from conftest import count_calls, mt, scalar_point


def classical_pick_matrix(zs, lams):
    zs, lams = np.asarray(zs), np.asarray(lams)
    return (1 - np.outer(lams, lams.conj())) / (1 - np.outer(zs, zs.conj()))


Z_SCALAR = NcMatrixPolynomial.scalar_univariate([0, 1])


def scalar_problem(z0, lam):
    return PickProblem(Z_SCALAR, scalar_point(z0), np.eye(1), lam * np.eye(1))


def random_value_problem(d, n, y, u, t, seed):
    """The pencil Q, a node Z0 in its disk, and t S(Z0) for a random contractive S."""
    Q = NcMatrixPolynomial.row_pencil(d) if d > 1 else Z_SCALAR
    rng = np.random.default_rng(seed)
    Z0 = sample_in_domain(Q, n, rng, 0.6)
    col = random_contractive_colligation(2, u, y, Q.r, seed=seed)
    return Q, Z0, t * transfer_eval(RealizedFunction(col, Q), Z0)


def repeated_spectrum(eigs, k, side):
    """k * spec(C) with zeros padded to the side of the k-fold Choi matrix."""
    return np.sort(np.concatenate([k * eigs, np.zeros(side - eigs.size)]))


# (d, n, y, u, target scale, repetitions k, seed); t spans both verdicts
REPEATED_NODE_CASES = dict(
    d=st.integers(1, 2), n=st.integers(1, 2), y=st.integers(1, 2),
    u=st.integers(1, 2), t=st.floats(0.5, 1.5), k=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**16),
)


class TestPickCertificate:
    def test_origin_reduces_to_modulus(self):
        cert, _ = pick_certificate(scalar_problem(0.0, 0.8))
        assert cert.is_psd and cert.min_eig == pytest.approx(1 - 0.64)
        cert2, _ = pick_certificate(scalar_problem(0.0, 1.2))
        assert not cert2.is_psd

    def test_scalar_pick_value(self):
        cert, _ = pick_certificate(scalar_problem(0.5, 0.9))
        assert cert.min_eig == pytest.approx((1 - 0.81) / (1 - 0.25))

    def test_triangular_point_forces_infeasibility(self):
        # every nc-function value at this point is upper triangular, so a
        # strictly lower-triangular target must fail
        Z0 = mt(0.4 * np.array([[0, 1], [0, 0]]), 0.4 * np.array([[0, 0], [0, 1]]))
        Lam0 = 0.1 * np.array([[0, 0], [1, 0]], dtype=complex)
        Q = NcMatrixPolynomial.row_pencil(2)
        cert, _ = pick_certificate(PickProblem(Q, Z0, np.eye(2), Lam0))
        assert not cert.is_psd and cert.min_eig < -1e-8

    @given(e=st.integers(1, 2), **REPEATED_NODE_CASES)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_repeated_node_scales_choi_spectrum(self, d, n, e, y, u, t, k, seed):
        # Choi's theorem oracle: at the k-fold node (direct sums of node and
        # data) the map is id_k (x) M up to a permutation, so its Choi
        # spectrum is k spec(Choi_1) plus zeros and certifies nothing more
        Q, Z0, S0 = random_value_problem(d, n, y, u, t, seed)
        A0 = np.random.default_rng(seed + 1).standard_normal((e * n, y * n))
        p = PickProblem(Q, Z0, A0, A0 @ S0)
        pk = PickProblem(Q, direct_sum_many([Z0] * k), rep_diag(p.A0, k, e, y),
                         rep_diag(p.B0, k, e, u))
        eigs1 = np.linalg.eigvalsh(pick_certificate(p)[1].matrix)
        choi_k = pick_certificate(pk)[1].matrix
        want = repeated_spectrum(eigs1, k, choi_k.shape[0])
        got = np.linalg.eigvalsh(choi_k)
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_one_node_evaluation_and_norm(self, monkeypatch):
        # the Stein solve evaluates Q0(Z0) once and checks its norm once
        Q, Z0, S0 = random_value_problem(2, 3, 1, 1, 0.9, seed=4)
        p = PickProblem(Q, Z0, np.eye(3), S0)
        evals = count_calls(monkeypatch, core, "_eval_poly")
        norms = count_calls(monkeypatch, core, "operator_norm")
        pick_certificate(p)
        assert (len(evals), len(norms)) == (1, 1)

    def test_verdict_invariance_under_row_rotation(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        Z0 = sample_in_domain(Q, 2, rng, 0.5)
        col = random_contractive_colligation(2, 2, 2, 2, seed=5)
        S0 = transfer_eval(RealizedFunction(col, Q), Z0)
        A0 = np.eye(4)
        for scale in (0.9, 1.2):
            p = PickProblem(Q, Z0, A0, scale * S0)
            cert, _ = pick_certificate(p)
            G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            W, _ = np.linalg.qr(G)
            Wn = np.kron(W, np.eye(2))
            cert_rot, _ = pick_certificate(PickProblem(Q, Z0, Wn @ A0, Wn @ (scale * S0)))
            assert cert.verdict == cert_rot.verdict
            assert abs(cert.min_eig - cert_rot.min_eig) <= 1e-10 * max(1, abs(cert.min_eig))

    def test_verdict_invariance_under_unitary_similarity(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        Z0 = sample_in_domain(Q, 2, rng, 0.5)
        col = random_contractive_colligation(2, 1, 1, 2, seed=6)
        S0 = transfer_eval(RealizedFunction(col, Q), Z0)
        for scale in (0.9, 1.3):
            p = PickProblem(Q, Z0, np.eye(2), scale * S0)
            cert, _ = pick_certificate(p)
            G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            U, _ = np.linalg.qr(G)
            p2 = PickProblem(Q, similarity(Z0, U), U @ np.eye(2) @ U.conj().T,
                             U @ (scale * S0) @ U.conj().T)
            cert2, _ = pick_certificate(p2)
            assert cert.verdict == cert2.verdict
            assert abs(cert.min_eig - cert2.min_eig) <= 1e-10 * max(1, abs(cert.min_eig))

    def test_monotone_under_target_scaling(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        for trial in range(5):
            Z0 = sample_in_domain(Q, 2, rng, 0.6)
            col = random_contractive_colligation(2, 1, 1, 2, seed=trial)
            S0 = transfer_eval(RealizedFunction(col, Q), Z0)
            p1 = PickProblem(Q, Z0, np.eye(2), S0)
            assert pick_certificate(p1)[0].is_psd
            for t in (0.7, 0.3, 0.0):
                cert, _ = pick_certificate(PickProblem(Q, Z0, np.eye(2), t * S0))
                assert cert.is_psd


class TestMultiPoint:
    def test_single_problem_identity(self):
        p = scalar_problem(0.3, 0.5)
        assert multi_point_to_single([p]) is p

    def test_levels_add(self):
        p = multi_point_to_single([scalar_problem(0.1, 0.2), scalar_problem(0.3, 0.4)])
        assert p.n == 2

    def test_heterogeneous_row_spaces_fuse_and_solve(self, rng):
        from ncpick.sampling import complex_gaussian

        Q = NcMatrixPolynomial.row_pencil(2)
        col = random_contractive_colligation(3, 1, 1, 2, seed=11)
        f = RealizedFunction(col, Q)
        Z1 = sample_in_domain(Q, 1, rng, 0.5)
        Z2 = sample_in_domain(Q, 2, rng, 0.5)
        a1 = complex_gaussian(rng, (1, 1))
        a2 = complex_gaussian(rng, (4, 2))  # e = 2 at a level-2 node
        p1 = PickProblem(Q, Z1, a1, a1 @ transfer_eval(f, Z1))
        p2 = PickProblem(Q, Z2, a2, a2 @ transfer_eval(f, Z2))
        fused = multi_point_to_single([p1, p2])
        assert fused.n == 3 and fused.dimE == 3
        rep = solve_pick(fused, samples=10, seed=0)
        assert rep.feasible and rep.interp_residual <= 1e-8

    def test_two_point_matches_classical_pick(self, rng):
        # classical Pick matrix oracle on two scalar nodes
        for _ in range(25):
            z = rng.uniform(-0.8, 0.8, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
            z *= 0.7
            lam = rng.uniform(-1.2, 1.2, 2) + 1j * rng.uniform(-0.6, 0.6, 2)
            if abs(z[0] - z[1]) < 0.1:
                continue
            fused = multi_point_to_single(
                [scalar_problem(z[0], lam[0]), scalar_problem(z[1], lam[1])]
            )
            cert, _ = pick_certificate(fused)
            classical = np.linalg.eigvalsh(classical_pick_matrix(z, lam))[0]
            assert cert.is_psd == bool(classical >= -1e-9)


class TestSolvePick:
    def test_feasible_scalar_end_to_end(self):
        rep = solve_pick(scalar_problem(0.5, 0.9), samples=20)
        assert rep.feasible
        assert rep.interp_residual <= 1e-8
        assert rep.max_sampled_norm <= 1 + 1e-9

    def test_infeasible_returns_certificate(self):
        rep = solve_pick(scalar_problem(0.0, 1.5))
        assert not rep.feasible
        assert rep.certificate.min_eig == pytest.approx(1 - 2.25)
        assert rep.colligation is None

    def test_zero_target(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        Z0 = sample_in_domain(Q, 2, rng, 0.5)
        p = PickProblem(Q, Z0, np.eye(2), np.zeros((2, 2)))
        rep = solve_pick(p, samples=10)
        assert rep.feasible and rep.interp_residual <= 1e-9

    @pytest.mark.parametrize("feasible", [True, False])
    def test_one_choi_build_and_one_psd_check(self, monkeypatch, rng, feasible):
        # synthesis factors the certificate's Choi matrix and reuses its verdict
        Q = NcMatrixPolynomial.row_pencil(2)
        Z0 = sample_in_domain(Q, 2, rng, 0.5)
        col = random_contractive_colligation(2, 1, 1, 2, seed=7)
        B0 = 0.9 * transfer_eval(RealizedFunction(col, Q), Z0) if feasible else 1.5 * np.eye(2)
        p = PickProblem(Q, Z0, np.eye(2), B0)
        builds = count_calls(monkeypatch, kernels, "map_matrix_to_choi")
        checks = count_calls(monkeypatch, kernels, "psd_check")
        rep = solve_pick(p, samples=4)
        assert rep.feasible == feasible
        assert (len(builds), len(checks)) == (1, 1)


class TestLtoa:
    def test_constant_function(self, rng):
        c = rng.standard_normal((1, 2))
        S = NcMatrixPolynomial(2, 1, 2, {Word.empty(2): c})
        Z0 = mt(*(0.3 * rng.standard_normal((2, 2)) for _ in range(2)))
        X = rng.standard_normal((2, 1))
        assert np.allclose(ltoa_eval(S, Z0, X), X @ c)
        assert np.allclose(twisted_ltoa_eval(S, Z0, X), X @ c)

    def test_scalar_power_series(self):
        coeffs = [0.3, -0.2, 0.5]
        S = NcMatrixPolynomial.scalar_univariate(coeffs)
        z0, x = 0.4, 0.7
        got = ltoa_eval(S, scalar_point(z0), np.array([[x]]))
        want = sum(z0**k * x * c for k, c in enumerate(coeffs))
        assert got[0, 0] == pytest.approx(want)

    def test_word_enumeration_oracle(self, rng):
        # brute-force sum over all words up to the polynomial degree
        d, y, u = 2, 2, 1
        terms = {}
        for w in itertools.chain.from_iterable(
            itertools.product(range(1, d + 1), repeat=k) for k in range(3)
        ):
            terms[Word(tuple(w), d)] = rng.standard_normal((y, u))
        S = NcMatrixPolynomial(d, y, u, terms)
        Z0 = mt(*(0.4 * rng.standard_normal((2, 2)) for _ in range(d)))
        X = rng.standard_normal((2, y))
        want = np.zeros((2, u), dtype=complex)
        for w, coeff in S.terms.items():
            want += _eval_word(Z0, Word(tuple(reversed(w.letters)), d)) @ X @ coeff
        assert np.allclose(ltoa_eval(S, Z0, X), want)

    def test_twisted_differs_on_noncommuting(self):
        S = NcMatrixPolynomial(2, 1, 1, {Word((1, 2), 2): np.eye(1)})
        Z0 = mt(0.4 * np.array([[0, 1], [0, 0]]), 0.4 * np.array([[0, 0], [0, 1]]))
        X = np.array([[1.0], [0.5]])
        Z1, Z2 = Z0.components
        # hand products: untwisted uses the reversed word
        assert np.allclose(ltoa_eval(S, Z0, X), Z2 @ Z1 @ X)
        assert np.allclose(twisted_ltoa_eval(S, Z0, X), Z1 @ Z2 @ X)
        assert not np.allclose(Z1 @ Z2 @ X, Z2 @ Z1 @ X)

    def test_twisted_equals_untwisted_on_commuting(self):
        # diagonal tuples with dyadic entries: products are exact in floats
        S = NcMatrixPolynomial(
            2, 1, 1,
            {Word((1, 2), 2): np.array([[0.5]]), Word((2, 1, 1), 2): np.array([[0.25]]),
             Word((1,), 2): np.array([[1.0]])},
        )
        Z0 = mt(np.diag([0.5, 0.25]), np.diag([0.125, 0.5]))
        X = np.array([[1.0], [0.5]])
        a = ltoa_eval(S, Z0, X)
        b = twisted_ltoa_eval(S, Z0, X)
        assert np.array_equal(a, b)

    def test_realized_function_matches_polynomial_d1(self, rng):
        from ncpick.okaweil import extract_nc_polynomial

        Q = NcMatrixPolynomial.scalar_univariate([0, 1])
        col = random_contractive_colligation(2, 1, 1, 1, seed=9)
        f = RealizedFunction(col, Q)
        Z0 = mt(0.4 * rng.standard_normal((2, 2)))
        X = rng.standard_normal((2, 1))
        got = ltoa_eval(f, Z0, X, trunc_tol=1e-12)
        want = ltoa_eval(extract_nc_polynomial(f, 80), Z0, X)
        assert np.linalg.norm(got - want) <= 1e-10

    def test_realized_function_matches_polynomial_d2(self, rng):
        from ncpick.okaweil import extract_nc_polynomial

        Q = NcMatrixPolynomial.row_pencil(2)
        col = random_contractive_colligation(2, 1, 1, 2, seed=9)
        f = RealizedFunction(col, Q)
        Z0 = sample_in_domain(Q, 2, rng, 0.15)
        X = rng.standard_normal((2, 1))
        got = ltoa_eval(f, Z0, X, trunc_tol=1e-8)
        want = ltoa_eval(extract_nc_polynomial(f, 10), Z0, X)
        assert np.linalg.norm(got - want) <= 1e-7


class TestLtoaCertificate:
    def test_scalar_closed_form(self):
        p = LtoaProblem(scalar_point(0.5), np.array([[1.0]]), np.array([[0.8]]))
        cert = ltoa_certificate(p)
        assert cert.min_eig == pytest.approx((1 - 0.64) / (1 - 0.25))
        assert cert.is_psd

    def test_x_equals_y_feasible(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        Z0 = sample_in_domain(Q, 2, rng, 0.6)
        X = rng.standard_normal((2, 2))
        p = LtoaProblem(Z0, X, X)
        cert = ltoa_certificate(p)
        assert cert.is_psd and abs(cert.min_eig) <= 1e-9

    def test_zero_x_nonzero_y_infeasible(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        Z0 = sample_in_domain(Q, 2, rng, 0.6)
        p = LtoaProblem(Z0, np.zeros((2, 1)), np.ones((2, 1)))
        assert not ltoa_certificate(p).is_psd


class TestSteinDominance:
    def test_origin_reduces_to_modulus(self):
        Z0 = scalar_point(0.0)
        assert stein_dominance_certificate(Z_SCALAR, Z0, 0.8 * np.eye(1)).is_psd
        assert not stein_dominance_certificate(Z_SCALAR, Z0, 1.2 * np.eye(1)).is_psd

    def test_forward_values_dominate(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        for seed in range(5):
            col = random_contractive_colligation(3, 1, 1, 2, seed=seed)
            Z0 = sample_in_domain(Q, 2, rng, 0.6)
            Lam0 = transfer_eval(RealizedFunction(col, Q), Z0)
            assert stein_dominance_certificate(Q, Z0, Lam0).is_psd

    def test_agreement_with_pick(self, rng):
        Q1 = NcMatrixPolynomial.scalar_univariate([0, 1])
        Q2 = NcMatrixPolynomial.row_pencil(2)
        for trial in range(20):
            Q = Q1 if trial % 2 else Q2
            n = 1 + trial % 2
            Z0 = sample_in_domain(Q, n, rng, 0.6)
            col = random_contractive_colligation(2, 1, 1, Q.r, seed=trial)
            S0 = transfer_eval(RealizedFunction(col, Q), Z0)
            t = 0.8 if trial % 3 else 1.0 / max(operator_norm(S0), 1e-2) * 1.3
            Lam0 = t * S0
            pick = pick_certificate(PickProblem(Q, Z0, np.eye(n), Lam0))[0]
            stein = stein_dominance_certificate(Q, Z0, Lam0)
            assert pick.verdict == stein.verdict

    @given(**REPEATED_NODE_CASES)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_repeated_node_scales_margins(self, d, n, y, u, t, k, seed):
        # the k-fold Choi spectrum is k spec(Choi_1) plus zeros, read here
        # through the certificate's extreme eigenvalues
        Q, Z0, L0 = random_value_problem(d, n, y, u, t, seed)
        one = stein_dominance_certificate(Q, Z0, L0)
        rep_k = stein_dominance_certificate(Q, direct_sum_many([Z0] * k), rep_diag(L0, k, y, u))
        scale = 1e-10 * max(1.0, k * abs(one.max_eig), k * abs(one.min_eig))
        assert abs(rep_k.max_eig - k * max(one.max_eig, 0.0)) <= scale
        assert abs(rep_k.min_eig - min(k * one.min_eig, 0.0)) <= scale


class TestStrictSteinRefuter:
    def test_zero_value_never_refuted(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        Z0 = sample_in_domain(Q, 2, rng, 0.5)
        out = strict_stein_refuter(Q, Z0, np.zeros((2, 2)), delta=0.3, trials=100)
        assert out is None

    def test_scalar_violation_found(self):
        out = strict_stein_refuter(Z_SCALAR, scalar_point(0.0), 1.5 * np.eye(1),
                                   delta=0.1, trials=10)
        assert out is not None
        assert out[0, 0].real > 0

    def test_forward_values_not_refuted(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        col = random_contractive_colligation(2, 1, 1, 2, seed=3)
        Z0 = sample_in_domain(Q, 2, rng, 0.5)
        Lam0 = transfer_eval(RealizedFunction(col, Q), Z0)
        assert strict_stein_refuter(Q, Z0, Lam0, delta=0.2, trials=300, seed=1) is None

    def test_feasible_scalar_survives_many_trials(self):
        # 1e4 trials on a feasible scalar instance produce no counterexample
        col = random_contractive_colligation(2, 1, 1, 1, seed=4)
        Q = Z_SCALAR
        z0 = scalar_point(0.4)
        Lam0 = transfer_eval(RealizedFunction(col, Q), z0)
        assert strict_stein_refuter(Q, z0, Lam0, delta=0.3, trials=10_000, seed=2) is None

    def test_delta_validated(self):
        with pytest.raises(ValueError):
            strict_stein_refuter(Z_SCALAR, scalar_point(0.0), np.eye(1), delta=1.5)
