import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpick import sampling
from ncpick.core import MatrixTuple, NcMatrixPolynomial, Word, _eval_poly, operator_norm
from ncpick.sampling import (
    MAX_SCALE,
    complex_gaussian,
    random_row_poly,
    random_tuple,
    sample_in_domain,
    scale_into_domain,
)


def oracle_scale(Q0, Z, target, tol=1e-12):
    """Bisection on t that evaluates Q0(t Z) word by word at every step."""
    def norm_at(t):
        return operator_norm(_eval_poly(Q0, Z.scaled(t)))

    hi = 1.0
    while norm_at(hi) < target:
        assert hi < MAX_SCALE
        hi *= 2.0
    lo = 0.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if norm_at(mid) < target:
            lo = mid
        else:
            hi = mid
    return lo


def scale_factor(Z, out):
    """The t with out = t Z, read off the largest entry of Z."""
    comps = np.stack(Z.components)
    idx = np.unravel_index(np.argmax(np.abs(comps)), comps.shape)
    return (np.stack(out.components)[idx] / comps[idx]).real


def with_constant(Q, rng, size):
    """Q with its constant coefficient replaced by one of norm ``size``."""
    c = complex_gaussian(rng, (Q.s, Q.r))
    terms = {w: v for w, v in Q.terms.items() if len(w)}
    terms[Word.empty(Q.d)] = size * c / operator_norm(c)
    return NcMatrixPolynomial(Q.d, Q.s, Q.r, terms)


def homogeneous_quadratic(rng, d):
    words = [(i, j) for i in range(1, d + 1) for j in range(1, d + 1)]
    return NcMatrixPolynomial.from_term_list(
        d, 2, 2, [(w, complex_gaussian(rng, (2, 2))) for w in words])


POLYS = {
    "row_pencil": lambda rng, d, target: NcMatrixPolynomial.row_pencil(d),
    "diag_pencil": lambda rng, d, target: NcMatrixPolynomial.diag_pencil(d),
    "quadratic": lambda rng, d, target: homogeneous_quadratic(rng, d),
    "mixed": lambda rng, d, target: random_row_poly(rng, d, 2, degree=3),
    "mixed_constant": lambda rng, d, target: with_constant(
        random_row_poly(rng, d, 2, degree=2), rng, float(rng.uniform(0, 0.5)) * target),
}


class TestScaleIntoDomain:
    @given(st.sampled_from(sorted(POLYS)), st.integers(1, 3), st.integers(1, 4),
           st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_direct_bisection(self, kind, d, n, target, seed):
        rng = np.random.default_rng(seed)
        Q0 = POLYS[kind](rng, d, target)
        Z = random_tuple(rng, d, n, scale=float(rng.uniform(0.2, 3.0)))
        out = scale_into_domain(Q0, Z, target=target)
        norm = operator_norm(_eval_poly(Q0, out))
        assert target * (1 - 1e-9) <= norm < target
        t_oracle = oracle_scale(Q0, Z, target)
        assert abs(scale_factor(Z, out) - t_oracle) <= 1e-9 * t_oracle

    def test_homogeneous_uses_few_norms(self, rng, monkeypatch):
        # one norm of H_k and one check, with a rare step below for rounding;
        # both norm helpers are counted, and the lower bound shows they are used
        calls = []
        for name in ("operator_norm", "_operator_norms"):
            helper = getattr(sampling, name)
            monkeypatch.setattr(sampling, name,
                                lambda M, helper=helper: calls.append(1) or helper(M))
        Q0 = NcMatrixPolynomial.row_pencil(2)
        for n in (1, 2, 3, 6):
            calls.clear()
            for _ in range(20):
                scale_into_domain(Q0, random_tuple(rng, 2, n), target=0.9)
            assert 2 * 20 <= len(calls) <= 2 * 20 + 2

    @given(st.sampled_from(sorted(POLYS)), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 6), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_stack_matches_per_point_loop(self, kind, d, n, K, target, seed):
        # K points of one stack against K sample_in_domain calls: same draws,
        # the same points, and values that are Q0 at those points under target
        Q0 = POLYS[kind](np.random.default_rng(seed), d, target)
        rng_a, rng_b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        Zs, QZ = sampling._scale_stack(Q0, sampling._random_directions(rng_a, K, d, n), target)
        for k in range(K):
            Z = sample_in_domain(Q0, n, rng_b, target=target)
            np.testing.assert_allclose(Zs[k], np.stack(Z.components), rtol=1e-12, atol=0)
            np.testing.assert_allclose(QZ[k], _eval_poly(Q0, MatrixTuple(tuple(Zs[k]))),
                                       rtol=1e-12, atol=1e-15)
            assert target * (1 - 1e-9) <= operator_norm(QZ[k]) < target
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_same_directions_as_random_tuple(self):
        Q0 = NcMatrixPolynomial.diag_pencil(2)
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        for n in (1, 3):
            Z = sample_in_domain(Q0, n, rng_a, target=0.7)
            W = random_tuple(rng_b, 2, n)
            t = scale_factor(W, Z)
            assert np.allclose(np.stack(Z.components), t * np.stack(W.components),
                               rtol=1e-14, atol=0)
        assert rng_a.random() == rng_b.random()

    def test_constant_term_at_target_rejected(self, rng):
        Q0 = with_constant(NcMatrixPolynomial.row_pencil(2), rng, 0.9)
        with pytest.raises(ValueError, match="constant term"):
            scale_into_domain(Q0, random_tuple(rng, 2, 2), target=0.8)

    @pytest.mark.parametrize("poly", [
        NcMatrixPolynomial.row_pencil(2),
        NcMatrixPolynomial.diag_pencil(2),
        NcMatrixPolynomial.from_term_list(2, 1, 1, [((1, 2), np.ones((1, 1)))]),
    ])
    def test_zero_direction_on_homogeneous(self, poly):
        with pytest.raises(ValueError, match="appears constant"):
            scale_into_domain(poly, MatrixTuple.zeros(2, 3))

    def test_zero_direction_with_constant(self, rng):
        Q0 = with_constant(random_row_poly(rng, 2, 2, degree=2), rng, 0.3)
        with pytest.raises(ValueError, match="appears constant"):
            scale_into_domain(Q0, MatrixTuple.zeros(2, 2))

    def test_constant_polynomial_rejected(self):
        Q0 = NcMatrixPolynomial.scalar_univariate([0.5])
        with pytest.raises(ValueError, match="appears constant"):
            scale_into_domain(Q0, MatrixTuple((np.eye(2),)))
        with pytest.raises(ValueError, match="appears constant"):
            scale_into_domain(NcMatrixPolynomial(1, 1, 1), MatrixTuple((np.eye(2),)))

    def test_tiny_direction_rejected(self):
        Q0 = NcMatrixPolynomial.row_pencil(1)
        with pytest.raises(ValueError, match="appears constant"):
            scale_into_domain(Q0, MatrixTuple((np.full((1, 1), 1e-70),)))
        out = scale_into_domain(Q0, MatrixTuple((np.full((1, 1), 1e-50),)), target=0.5)
        assert 0.5 * (1 - 1e-9) <= operator_norm(_eval_poly(Q0, out)) < 0.5

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.5])
    def test_target_range(self, target):
        with pytest.raises(ValueError, match="target"):
            scale_into_domain(NcMatrixPolynomial.row_pencil(1),
                              MatrixTuple((np.eye(1),)), target=target)
