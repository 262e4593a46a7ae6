import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpick.core import (
    DimensionMismatchError,
    NcMatrixPolynomial,
    Word,
    MatrixTuple,
    _as_stack,
    _eval_poly,
    _eval_poly_stack,
    _homogeneous_parts_stack,
    _operator_norms,
    check_intertwining,
    direct_sum,
    domain_margin,
    eval_nc_poly,
    eval_word,
    in_domain,
    operator_norm,
    similarity,
    word_concat,
    word_transpose,
)

from conftest import jordan_cell, kron_eval_poly, mt, scalar_point

words = st.integers(1, 3).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(st.integers(1, d), max_size=6))
).map(lambda t: Word(tuple(t[1]), t[0]))


class TestWords:
    def test_empty_is_unit(self):
        a = Word((1, 2), 2)
        e = Word.empty(2)
        assert word_concat(e, a) == a
        assert word_concat(a, e) == a

    def test_concat_definition(self):
        assert word_concat(Word((2,), 2), Word((1,), 2)).letters == (2, 1)

    @given(words, words)
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_concat_length_additive(self, a, b):
        if a.d != b.d:
            b = Word(tuple(min(k, a.d) for k in b.letters), a.d)
        assert len(word_concat(a, b)) == len(a) + len(b)

    def test_concat_alphabet_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            word_concat(Word((1,), 1), Word((1,), 2))

    def test_transpose_definition(self):
        assert word_transpose(Word((1, 2, 3), 3)).letters == (3, 2, 1)
        assert word_transpose(Word.empty(2)) == Word.empty(2)

    @given(words)
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_transpose_involution(self, a):
        assert word_transpose(word_transpose(a)) == a

    def test_letters_validated(self):
        with pytest.raises(ValueError):
            Word((0,), 2)
        with pytest.raises(ValueError):
            Word((3,), 2)


class TestEvalWord:
    def test_empty_word_is_identity(self, rng):
        Z = mt(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
        assert np.allclose(eval_word(Z, Word.empty(2)), np.eye(3))

    def test_two_by_two_product(self):
        # direct product oracle: word (1, 2) evaluates to Z1 @ Z2
        Z = mt([[0, 1], [0, 0]], [[0, 0], [0, 1]])
        got = eval_word(Z, Word((1, 2), 2))
        assert np.allclose(got, [[0, 1], [0, 0]])

    def test_jordan_square(self):
        # functional calculus on a Jordan cell: p(z) = z^2
        lam = 0.3 + 0.1j
        Z = mt(jordan_cell(lam, 2))
        got = eval_word(Z, Word((1, 1), 1))
        assert np.allclose(got, [[lam**2, 2 * lam], [0, lam**2]])

    def test_multiplicative_over_concat(self, rng):
        Z = mt(*(rng.standard_normal((3, 3)) for _ in range(2)))
        a, b = Word((1, 2), 2), Word((2, 2, 1), 2)
        lhs = eval_word(Z, word_concat(a, b))
        rhs = eval_word(Z, a) @ eval_word(Z, b)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1, np.linalg.norm(rhs))

    def test_letter_out_of_range(self):
        Z = mt(np.eye(2))
        with pytest.raises(DimensionMismatchError):
            eval_word(Z, Word((1, 2), 2))


def _poly_derivatives(coeffs, lam, order):
    """Derivatives of sum_k coeffs[k] z^k at lam, direct differentiation."""
    out = []
    c = list(coeffs)
    for _ in range(order + 1):
        out.append(sum(ck * lam**k for k, ck in enumerate(c)))
        c = [k * ck for k, ck in enumerate(c)][1:]
    return out


class TestEvalPoly:
    def test_row_pencil_level_one(self):
        Q = NcMatrixPolynomial.row_pencil(2)
        Z = scalar_point(0.3, 0.4)
        assert np.allclose(eval_nc_poly(Q, Z), [[0.3, 0.4]])

    def test_jordan_functional_calculus(self):
        # oracle: superdiagonals carry p^(k)(lambda) / k!
        coeffs = [0.2, -1.0, 0.5, 0.3]
        p = NcMatrixPolynomial.scalar_univariate(coeffs)
        lam = 0.4 - 0.2j
        n = 4
        Z = mt(jordan_cell(lam, n))
        got = eval_nc_poly(p, Z)
        derivs = _poly_derivatives(coeffs, lam, n - 1)
        want = np.zeros((n, n), dtype=complex)
        for k in range(n):
            want += np.diag(np.full(n - k, derivs[k] / math.factorial(k)), k)
        assert np.allclose(got, want, atol=1e-12)

    def test_constant_polynomial(self, rng):
        M = rng.standard_normal((2, 3))
        Q = NcMatrixPolynomial(2, 2, 3, {Word.empty(2): M})
        Z = mt(*(rng.standard_normal((2, 2)) for _ in range(2)))
        assert np.allclose(eval_nc_poly(Q, Z), np.kron(M, np.eye(2)))

    def test_zero_coefficients_dropped(self):
        Q = NcMatrixPolynomial(1, 1, 1, {Word((1,), 1): np.zeros((1, 1))})
        assert not Q.terms
        assert Q == NcMatrixPolynomial(1, 1, 1, {})

    def test_equality_is_term_map_equality(self):
        a = NcMatrixPolynomial.scalar_univariate([0, 1])
        b = NcMatrixPolynomial(1, 1, 1, {Word((1,), 1): np.eye(1)})
        assert a == b

    def test_homogeneous_parts_split_by_degree(self, rng):
        # Q(t Z) = sum_k t**k H_k(Z), and each H_k sums its own words only
        coeffs = {(): 0.5, (1,): 1.0, (2, 1): -2.0, (1, 2): 1j, (2, 2, 1): 0.25}
        Q = NcMatrixPolynomial.from_term_list(
            2, 1, 1, [(w, [[c]]) for w, c in coeffs.items()])
        Z = mt(*(rng.standard_normal((3, 3)) for _ in range(2)))
        parts = {k: H[0] for k, H in _homogeneous_parts_stack(Q, _as_stack(Z)).items()}
        assert sorted(parts) == [0, 1, 2, 3]
        assert np.allclose(parts[2], -2.0 * Z.components[1] @ Z.components[0]
                           + 1j * Z.components[0] @ Z.components[1])
        t = 0.7
        assert np.allclose(sum(t**k * H for k, H in parts.items()), _eval_poly(Q, Z.scaled(t)))


    @given(d=st.integers(1, 3), n=st.integers(1, 4), K=st.integers(1, 5),
           s=st.integers(1, 2), r=st.integers(1, 3), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_stack_matches_kronecker_oracle(self, d, n, K, s, r, seed):
        # each slice of the stacked evaluation is sum_w coeff_w (x) Z**w
        rng = np.random.default_rng(seed)
        words = [(), (1,)] + [tuple(rng.integers(1, d + 1, size=k)) for k in (1, 2, 2, 3)]
        Q = NcMatrixPolynomial.from_term_list(
            d, s, r, [(w, rng.standard_normal((s, r)) + 1j * rng.standard_normal((s, r)))
                      for w in words])
        Zs = rng.standard_normal((K, d, n, n)) + 1j * rng.standard_normal((K, d, n, n))
        got = _eval_poly_stack(Q, Zs)
        assert got.shape == (K, s * n, r * n)
        for k in range(K):
            want = kron_eval_poly(Q, MatrixTuple(tuple(Zs[k])))
            assert np.linalg.norm(got[k] - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(4)) == pytest.approx(1.0)

    def test_diag(self):
        assert operator_norm(np.diag([0.5, -2.0])) == pytest.approx(2.0)

    def test_adjoint_symmetry(self, rng):
        M = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        a, b = operator_norm(M), operator_norm(M.conj().T)
        assert abs(a - b) <= 1e-12 * a

    def test_submultiplicative_and_dirsum_max(self, rng):
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3))
        assert operator_norm(A @ B) <= operator_norm(A) * operator_norm(B) + 1e-12
        blk = np.zeros((6, 6))
        blk[:3, :3], blk[3:, 3:] = A, B
        assert operator_norm(blk) == pytest.approx(max(operator_norm(A), operator_norm(B)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            operator_norm(np.array([[np.inf]]))

    @given(K=st.integers(2, 64), small=st.sampled_from([1, 2, 3, 4]), extra=st.integers(0, 4),
           tall=st.booleans(), zeros=st.integers(0, 2), seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_stacked_gram_route_matches_svd(self, K, small, extra, tall, zeros, seed):
        # sides of 1, 2 (closed forms) and >= 3 (eigvalsh), tall and wide,
        # each matrix at its own scale between 1e-150 and 1e150, and some
        # exact zero matrices
        rng = np.random.default_rng(seed)
        a, b = (small + extra, small) if tall else (small, small + extra)
        M = rng.standard_normal((K, a, b)) + 1j * rng.standard_normal((K, a, b))
        M *= 10.0 ** rng.uniform(-150, 150, K)[:, None, None]
        M[rng.choice(K, size=min(zeros, K), replace=False)] = 0.0
        want = np.linalg.svd(M, compute_uv=False)[:, 0]
        got = _operator_norms(M)
        assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * max(a, b) * want)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("shape", [(1, 2, 3), (5, 1, 1), (5, 2, 2), (5, 4, 3)])
    def test_stacked_nonfinite_rejected(self, bad, shape):
        M = np.ones(shape, dtype=complex)
        M[-1, 0, -1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            _operator_norms(M)


class TestDomain:
    def test_scalar_margin(self):
        Q = NcMatrixPolynomial.scalar_univariate([0, 1])
        assert in_domain(Q, scalar_point(0.5)) is True
        assert domain_margin(Q, scalar_point(0.5)) == pytest.approx(0.5)

    def test_boundary_is_outside(self):
        Q = NcMatrixPolynomial.row_pencil(2)
        t = 1 / math.sqrt(2)
        assert not in_domain(Q, scalar_point(t, t))

    def test_nilpotent_norm(self):
        Q = NcMatrixPolynomial.scalar_univariate([0, 1])
        Z = mt(0.9 * jordan_cell(0, 2))
        assert in_domain(Q, Z) is True
        assert domain_margin(Q, Z) == pytest.approx(0.1)

    def test_unitary_similarity_invariance(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        Z = mt(*(0.3 * rng.standard_normal((3, 3)) for _ in range(2)))
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        m1 = domain_margin(Q, Z)
        m2 = domain_margin(Q, similarity(Z, U))
        assert abs(m1 - m2) <= 1e-12


class TestDirectSumSimilarity:
    def test_levels_add(self, rng):
        Z = mt(rng.standard_normal((2, 2)))
        W = mt(rng.standard_normal((3, 3)))
        assert direct_sum(Z, W).n == 5

    def test_eval_respects_direct_sums(self, rng):
        Q = NcMatrixPolynomial(
            2, 2, 2,
            {Word((1,), 2): rng.standard_normal((2, 2)),
             Word((2, 1), 2): rng.standard_normal((2, 2))},
        )
        Z = mt(*(rng.standard_normal((2, 2)) for _ in range(2)))
        W = mt(*(rng.standard_normal((3, 3)) for _ in range(2)))
        big = eval_nc_poly(Q, direct_sum(Z, W))
        vz = eval_nc_poly(Q, Z).reshape(2, 2, 2, 2)
        vw = eval_nc_poly(Q, W).reshape(2, 3, 2, 3)
        # Kronecker reindexing: block (p, q) of the sum is blockdiag of blocks
        for p in range(2):
            for q in range(2):
                blk = big.reshape(2, 5, 2, 5)[p, :, q, :]
                assert np.allclose(blk[:2, :2], vz[p, :, q, :])
                assert np.allclose(blk[2:, 2:], vw[p, :, q, :])
                assert np.allclose(blk[:2, 2:], 0)

    def test_dirsum_norm_is_max(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        Z = mt(*(0.4 * rng.standard_normal((2, 2)) for _ in range(2)))
        W = mt(*(0.4 * rng.standard_normal((3, 3)) for _ in range(2)))
        lhs = operator_norm(eval_nc_poly(Q, direct_sum(Z, W)))
        rhs = max(operator_norm(eval_nc_poly(Q, Z)), operator_norm(eval_nc_poly(Q, W)))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_similarity_identity_and_inverse(self, rng):
        Z = mt(*(rng.standard_normal((3, 3)) for _ in range(2)))
        assert all(
            np.allclose(a, b)
            for a, b in zip(similarity(Z, np.eye(3)).components, Z.components)
        )
        alpha = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        back = similarity(similarity(Z, alpha), np.linalg.inv(alpha))
        assert all(
            np.linalg.norm(a - b) < 1e-10
            for a, b in zip(back.components, Z.components)
        )

    def test_eval_respects_similarity(self, rng):
        Q = NcMatrixPolynomial(
            2, 1, 2,
            {Word((1,), 2): rng.standard_normal((1, 2)),
             Word((1, 2), 2): rng.standard_normal((1, 2))},
        )
        Z = mt(*(rng.standard_normal((3, 3)) for _ in range(2)))
        alpha = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        conj = similarity(Z, alpha)
        lhs = eval_nc_poly(Q, conj)
        rhs = np.kron(np.eye(1), alpha) @ eval_nc_poly(Q, Z) @ np.linalg.inv(np.kron(np.eye(2), alpha))
        scale = max(1.0, np.linalg.norm(rhs))
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.cond(alpha) * scale

    def test_ill_conditioned_similarity_rejected(self):
        Z = mt(np.eye(2))
        with pytest.raises(ValueError):
            similarity(Z, np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestIntertwining:
    def test_identity_intertwiner(self, rng):
        Z = mt(*(rng.standard_normal((2, 2)) for _ in range(2)))
        V = rng.standard_normal((2, 2))
        rep = check_intertwining(Z, Z, np.eye(2), V, V)
        assert rep and rep.hypothesis_met and rep.values_intertwine

    def test_scalar_commutant_leaves_value_free(self, rng):
        # at this point the only simultaneous self-intertwiners are scalars,
        # so any value passes against any scalar alpha
        Z = mt([[0, 1], [0, 0]], [[0, 0], [0, 1]])
        for _ in range(5):
            V = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            c = complex(rng.standard_normal(), rng.standard_normal())
            rep = check_intertwining(Z, Z, c * np.eye(2), V, V)
            assert rep.hypothesis_met and rep.values_intertwine

    def test_hypothesis_not_met_reported(self):
        Z = mt(np.zeros((1, 1)))
        Zt = mt(np.ones((1, 1)))
        rep = check_intertwining(Z, Zt, np.eye(1), np.eye(1), np.eye(1))
        assert not rep.hypothesis_met
        assert not rep
