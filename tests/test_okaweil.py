import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpick import core
from ncpick.core import DomainError, NcMatrixPolynomial, Word, _eval_poly
from ncpick.okaweil import (
    TruncationReport,
    WordCapExceededError,
    extract_nc_polynomial,
    partial_sum_eval,
    uniform_error_report,
)
from ncpick.realization import (
    Colligation,
    RealizedFunction,
    random_contractive_colligation,
    transfer_eval,
)
from ncpick.sampling import random_row_poly, sample_in_domain

from conftest import (
    _amplified_maps,
    amplified_partial_sum,
    amplified_transfer,
    count_calls,
    kron_eval_poly,
    mt,
    scalar_point,
)


def shift_function():
    col = Colligation(1, 1, 1, 1, [[0]], [[1]], [[1]], [[0]])
    return RealizedFunction(col, NcMatrixPolynomial.scalar_univariate([0, 1]))


def mobius_function(a=0.98):
    c = np.sqrt(1 - a * a)
    col = Colligation(1, 1, 1, 1, [[a]], [[-c]], [[c]], [[a]],
                      flags=("unitary", "contractive"))
    return RealizedFunction(col, NcMatrixPolynomial.scalar_univariate([0, 1]))


class TestPartialSums:
    def test_converges_to_transfer_eval(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        col = random_contractive_colligation(3, 1, 1, 2, seed=1)
        f = RealizedFunction(col, Q)
        Z = sample_in_domain(Q, 2, rng, 0.4)
        exact = transfer_eval(f, Z)
        # tail bound below 1e-12 at this L
        rho = 0.4
        L = 1
        cb = np.linalg.norm(col.C, 2) * np.linalg.norm(col.B, 2)
        while cb * rho ** (L + 1) / (1 - rho) > 1e-12:
            L += 1
        got = partial_sum_eval(f, Z, L)
        assert np.linalg.norm(got - exact, 2) <= 1e-11

    def test_shift_exact_at_all_orders(self, rng):
        f = shift_function()
        Z = mt(0.5 * rng.standard_normal((2, 2)))
        for L in range(4):
            assert np.allclose(partial_sum_eval(f, Z, L), Z.components[0])

    def test_zero_A_terminates_immediately(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        col0 = random_contractive_colligation(2, 1, 1, 2, seed=2)
        col = Colligation(2, 1, 1, 2, np.zeros((4, 2)), col0.B, col0.C, col0.D)
        f = RealizedFunction(col, Q)
        Z = sample_in_domain(Q, 2, rng, 0.5)
        assert np.allclose(partial_sum_eval(f, Z, 0), transfer_eval(f, Z))

    def test_domain_checked(self):
        f = shift_function()
        with pytest.raises(DomainError):
            partial_sum_eval(f, scalar_point(2.0), 3)

    def test_q0_evaluated_once_per_call(self, rng, monkeypatch):
        Q = NcMatrixPolynomial.row_pencil(2)
        f = RealizedFunction(random_contractive_colligation(2, 1, 1, 2, seed=3), Q)
        Z = sample_in_domain(Q, 2, rng, 0.5)
        calls = count_calls(monkeypatch, core, "_eval_poly")
        transfer_eval(f, Z)
        partial_sum_eval(f, Z, 4)
        assert len(calls) == 2


class TestKroneckerFreeKernel:
    @given(d=st.integers(1, 3), n=st.integers(1, 4), dimX=st.sampled_from([0, 1, 2, 6]),
           y=st.integers(1, 2), u=st.integers(1, 2), degree=st.integers(1, 2),
           L=st.integers(0, 6), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_matches_amplified_colligation(self, d, n, dimX, y, u, degree, L, seed):
        # transfer_eval and partial_sum_eval against the amplified-colligation
        # formulas (amplify, Q0(Z) (x) I_X), which they no longer use
        rng = np.random.default_rng(seed)
        Q = random_row_poly(rng, d, int(rng.integers(1, 3)), degree=degree)
        f = RealizedFunction(random_contractive_colligation(dimX, u, y, Q.r, seed=seed), Q)
        Z = sample_in_domain(Q, n, rng, 0.7)
        QZ = kron_eval_poly(Q, Z)
        for got, want in ((transfer_eval(f, Z), amplified_transfer(f.colligation, QZ)),
                          (partial_sum_eval(f, Z, L),
                           amplified_partial_sum(f.colligation, QZ, L))):
            assert got.shape == want.shape == (y * n, u * n)
            assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


class TestExtraction:
    def test_neumann_coefficients_d1(self):
        # coefficients of z^(j+1) are c a^j b for a scalar colligation
        a, b, c, d = 0.5, 0.7, -0.3, 0.2
        col = Colligation(1, 1, 1, 1, [[a]], [[b]], [[c]], [[d]])
        f = RealizedFunction(col, NcMatrixPolynomial.scalar_univariate([0, 1]))
        L = 5
        poly = extract_nc_polynomial(f, L)
        assert poly.terms[Word.empty(1)][0, 0] == pytest.approx(d)
        for j in range(L + 1):
            got = poly.terms[Word((1,) * (j + 1), 1)][0, 0]
            assert got == pytest.approx(c * a**j * b)

    def test_constant_colligation(self):
        D = np.array([[0.3, -0.1]])
        col = Colligation(0, 2, 1, 2, np.zeros((0, 0)), np.zeros((0, 2)),
                          np.zeros((1, 0)), D)
        f = RealizedFunction(col, NcMatrixPolynomial.row_pencil(2))
        poly = extract_nc_polynomial(f, 3)
        assert set(poly.terms) == {Word.empty(2)}
        assert np.allclose(poly.terms[Word.empty(2)], D)

    def test_matches_numeric_partial_sum(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        col = random_contractive_colligation(2, 2, 1, 2, seed=3)
        f = RealizedFunction(col, Q)
        L = 5
        poly = extract_nc_polynomial(f, L)
        for _ in range(5):
            Z = sample_in_domain(Q, 2, rng, 0.5)
            sym = _eval_poly(poly, Z)
            num = partial_sum_eval(f, Z, L)
            assert np.linalg.norm(sym - num, 2) <= 1e-10 * max(1, np.linalg.norm(num, 2))

    def test_cap_counts_only_returned_words(self, rng):
        # d = 3, dimX = 1: depth 6 returns 1 + 3 + ... + 3^7 = 3280 < 4096 words,
        # so no bucket beyond the last one returned may count against the cap
        Q = NcMatrixPolynomial.row_pencil(3)
        f = RealizedFunction(random_contractive_colligation(1, 1, 1, 3, seed=6), Q)
        assert len(extract_nc_polynomial(f, 5).terms) == 1093
        poly = extract_nc_polynomial(f, 6)
        assert len(poly.terms) == 3280
        Z = mt(*(0.1 * rng.standard_normal((2, 2)) for _ in range(3)))
        num = partial_sum_eval(f, Z, 6)
        assert np.linalg.norm(_eval_poly(poly, Z) - num, 2) <= 1e-12 * np.linalg.norm(num, 2)

    def test_cap_enforced(self):
        Q = NcMatrixPolynomial.row_pencil(3)
        col = random_contractive_colligation(2, 1, 1, 3, seed=4)
        f = RealizedFunction(col, Q)
        with pytest.raises(WordCapExceededError):
            extract_nc_polynomial(f, 12)


class TestUniformErrorReport:
    def test_bound_dominates_observed(self, rng):
        f = mobius_function()
        samples = [scalar_point(z) for z in 0.5 * rng.uniform(-1, 1, 8)]
        for L in range(2, 8):
            rep = uniform_error_report(f, samples, L)
            assert rep.observed_max <= rep.apriori_bound + 1e-9

    def test_error_decay_slope(self, rng):
        # log max-error decays linearly with slope near log(rho)
        f = mobius_function(a=0.98)
        zs = np.linspace(-0.5, 0.5, 11)
        samples = [scalar_point(z) for z in zs if abs(z) > 1e-3]
        Ls = np.arange(2, 11)
        errs = [uniform_error_report(f, samples, int(L)).observed_max for L in Ls]
        slope = np.polyfit(Ls, np.log(errs), 1)[0]
        rho = max(abs(z) for z in zs)
        assert abs(slope - np.log(rho * 0.98)) <= 0.1 * abs(np.log(rho))

    def test_nilpotent_A_exact_beyond_degree(self, rng):
        col = Colligation(2, 1, 1, 1, [[0, 1], [0, 0]], [[1], [0]], [[0, 1]], [[0]])
        f = RealizedFunction(col, NcMatrixPolynomial.scalar_univariate([0, 1]))
        samples = [scalar_point(z) for z in (0.2, -0.4, 0.5j)]
        rep = uniform_error_report(f, samples, 3)
        assert rep.observed_max <= 1e-14

    def test_monotone_in_L(self, rng):
        f = mobius_function(a=0.9)
        samples = [scalar_point(z) for z in (0.5, -0.45, 0.3j)]
        errs = [uniform_error_report(f, samples, L).observed_max for L in range(2, 9)]
        for e1, e2 in zip(errs, errs[1:]):
            assert e2 <= e1 + 1e-12

    @pytest.mark.parametrize("L", [0, 3, 12, 30])
    def test_errors_match_summed_tail(self, rng, L):
        # oracle: the tail C sum_{L < j <= L + 120} G^j K through the amplified
        # colligation, summed term by term with no O(1) value subtracted
        Q = NcMatrixPolynomial.row_pencil(2)
        col = random_contractive_colligation(3, 2, 2, 2, seed=7)
        f = RealizedFunction(col, Q)
        samples = [sample_in_domain(Q, n, rng, 0.6) for n in (1, 2, 3)]
        rep = uniform_error_report(f, samples, L)
        for Z, got in zip(samples, rep.samples):
            G, K, Cn, _ = _amplified_maps(col, kron_eval_poly(Q, Z))
            term = np.linalg.matrix_power(G, L + 1) @ K
            tail = np.zeros_like(term)
            for _ in range(120):
                tail += term
                term = G @ term
            want = np.linalg.norm(Cn @ tail, 2)
            assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_one_q0_evaluation_and_norm_per_sample(self, rng, monkeypatch):
        # rho, the exact value and the partial sum share one Q0(Z) per sample
        Q = NcMatrixPolynomial.row_pencil(2)
        f = RealizedFunction(random_contractive_colligation(3, 1, 2, 2, seed=5), Q)
        samples = [sample_in_domain(Q, n, rng, 0.5) for n in (1, 2, 3, 2, 1)]
        evals = count_calls(monkeypatch, core, "_eval_poly")
        norms = count_calls(monkeypatch, core, "operator_norm")
        uniform_error_report(f, samples, 4)
        assert len(evals) == len(samples)
        # plus ||A|| for the contractivity test and ||C||, ||B|| for the bound
        assert len(norms) == len(samples) + 3

    def test_sample_outside_subdomain_rejected(self):
        f = mobius_function()
        with pytest.raises(DomainError):
            uniform_error_report(f, [scalar_point(1.0)], 3)

    def test_invariant_enforced_at_construction(self):
        with pytest.raises(AssertionError):
            TruncationReport(L=1, rho=0.5, samples=(1.0,), apriori_bound=0.1,
                             observed_max=1.0)
