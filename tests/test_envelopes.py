import numpy as np
import pytest

from ncpick.core import _eval_poly, similarity
from ncpick.envelopes import (
    full_envelope_membership,
    hermite_separating_poly,
    intertwiner_space,
    jordan_spectral_data,
    nc_envelope_point,
    similarity_envelope_membership,
    zariski_membership_d1,
)

from conftest import block_diag, jordan_cell, mt


def eval_d1(poly, M):
    return _eval_poly(poly, mt(M))


def poly_derivative_at(poly, lam, order):
    """Direct differentiation of a scalar d=1 polynomial."""
    coeffs = {}
    for w, c in poly.terms.items():
        coeffs[len(w)] = complex(c[0, 0])
    total = 0.0
    for k, c in coeffs.items():
        if k >= order:
            fall = 1.0
            for t in range(order):
                fall *= k - t
            total += c * fall * lam ** (k - order)
    return total


class TestNcEnvelopePoint:
    def test_single_generator(self, rng):
        Z = mt(rng.standard_normal((2, 2)))
        out = nc_envelope_point([Z], [1])
        assert np.allclose(out.components[0], Z.components[0])

    def test_multiplicity_doubles_level(self, rng):
        Z = mt(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
        W = mt(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
        assert nc_envelope_point([Z, W], [2, 0]).n == 4
        assert nc_envelope_point([Z, W], [2, 3]).n == 2 * 2 + 3 * 3

    def test_empty_selection_rejected(self, rng):
        Z = mt(rng.standard_normal((2, 2)))
        with pytest.raises(ValueError):
            nc_envelope_point([Z], [0])


class TestFullEnvelope:
    def test_generator_is_member(self, rng):
        Z = mt(*(rng.standard_normal((2, 2)) for _ in range(2)))
        w = full_envelope_membership(Z, [Z])
        assert w is not None and w.kind == "left-injective-intertwiner"

    def test_invariant_subspace_restriction(self):
        ZJ = mt(jordan_cell(0, 2))
        w = full_envelope_membership(mt(np.zeros((1, 1))), [ZJ])
        assert w is not None
        # the intertwiner is supported on the first coordinate
        assert abs(w.matrix[1, 0]) <= 1e-9

    def test_distinct_scalars_not_members(self):
        assert full_envelope_membership(mt(np.ones((1, 1))), [mt(np.zeros((1, 1)))]) is None

    def test_witness_verifies(self, rng):
        gens = [mt(*(rng.standard_normal((2, 2)) for _ in range(2)))]
        Zt = gens[0]
        w = full_envelope_membership(Zt, gens)
        Z = nc_envelope_point(gens, [1])
        for Zk, Ztk in zip(Z.components, Zt.components):
            assert np.linalg.norm(w.matrix @ Ztk - Zk @ w.matrix) <= 1e-9
        assert np.linalg.svd(w.matrix, compute_uv=False)[-1] > 1e-8

    def test_witness_transports_under_similarity(self, rng):
        # if I witnesses Ztilde then I alpha^-1 witnesses alpha Ztilde alpha^-1
        gens = [mt(jordan_cell(0.5, 2), 0.3 * np.eye(2))]
        Zt = gens[0]
        w = full_envelope_membership(Zt, gens)
        alpha = np.eye(2) + 0.2 * rng.standard_normal((2, 2))
        Zc = similarity(Zt, alpha)
        moved = w.matrix @ np.linalg.inv(alpha)
        Z = nc_envelope_point(gens, [1])
        for Zk, Ztk in zip(Z.components, Zc.components):
            assert np.linalg.norm(moved @ Ztk - Zk @ moved) <= 1e-8

    def test_chain_of_containments(self, rng):
        # nc membership implies similarity membership implies full membership
        gens = [mt(rng.standard_normal((2, 2))), mt(rng.standard_normal((1, 1)))]
        Zt = nc_envelope_point(gens, [1, 2])
        assert similarity_envelope_membership(Zt, gens, max_multiplicity=4) is not None
        assert full_envelope_membership(Zt, gens, max_multiplicity=4) is not None


class TestSimilarityEnvelope:
    def test_conjugated_sum_is_member(self, rng):
        gens = [mt(rng.standard_normal((2, 2)))]
        Zt0 = nc_envelope_point(gens, [2])
        alpha = np.eye(4) + 0.25 * rng.standard_normal((4, 4))
        Zt = similarity(Zt0, alpha)
        w = similarity_envelope_membership(Zt, gens, max_multiplicity=3, seed=5)
        assert w is not None and w.kind == "similarity"
        svals = np.linalg.svd(w.matrix, compute_uv=False)
        assert svals[-1] > 0

    def test_level_mismatch_absent(self, rng):
        gens = [mt(rng.standard_normal((2, 2)))]
        Zt = mt(rng.standard_normal((3, 3)))
        assert similarity_envelope_membership(Zt, gens, max_multiplicity=1) is None

    def test_self_member(self, rng):
        Z = mt(rng.standard_normal((3, 3)))
        assert similarity_envelope_membership(Z, [Z]) is not None


class TestIntertwinerSpace:
    def test_zero_vs_one_only_trivial(self):
        basis = intertwiner_space(mt(np.zeros((1, 1))), mt(np.ones((1, 1))))
        assert basis == []

    def test_commutant_dimension(self, rng):
        Z = mt(np.diag([1.0, 2.0]))
        basis = intertwiner_space(Z, Z)
        assert len(basis) == 2  # diagonal commutant


class TestJordanData:
    def test_jordan_cell(self):
        data = jordan_spectral_data(jordan_cell(2.0, 3))
        assert data.eigenvalues == (2.0 + 0j,)
        assert data.chain_lengths == (3,)
        assert data.multiplicities == (3,)

    def test_diagonal(self):
        data = jordan_spectral_data(np.diag([1.0, 1.0, 5.0]))
        assert data.eigenvalues == (1 + 0j, 5 + 0j)
        assert data.chain_lengths == (1, 1)

    def test_block_max(self):
        M = block_diag(jordan_cell(0, 2), np.zeros((1, 1)))
        data = jordan_spectral_data(M)
        assert data.chain_lengths == (2,)
        assert data.multiplicities == (3,)

    def test_multiplicities_sum_to_dimension(self, rng):
        M = rng.standard_normal((5, 5))
        data = jordan_spectral_data(M)
        assert sum(data.multiplicities) == 5

    def test_ambiguity_flag(self):
        data = jordan_spectral_data(np.diag([0.0, 5e-8]), cluster_tol=1e-8)
        assert data.ambiguous


class TestHermite:
    def test_simple_root(self):
        p = hermite_separating_poly([(0.0, [0], None), (1.0, [], 0)])
        assert abs(poly_derivative_at(p, 0.0, 0)) <= 1e-12
        assert poly_derivative_at(p, 1.0, 0) == pytest.approx(1.0)
        assert p.degree == 1

    def test_double_root_normalized_second_derivative(self):
        p = hermite_separating_poly([(0.0, [0, 1], 2)])
        assert abs(poly_derivative_at(p, 0.0, 0)) <= 1e-12
        assert abs(poly_derivative_at(p, 0.0, 1)) <= 1e-12
        assert poly_derivative_at(p, 0.0, 2) == pytest.approx(1.0)
        # proportional to z^2
        assert p.degree == 2

    def test_random_constraint_sets_verified(self, rng):
        for _ in range(10):
            lams = rng.choice([-1.0, -0.25, 0.5, 1.25], size=3, replace=False)
            orders = [list(range(int(rng.integers(1, 3)))) for _ in range(3)]
            k0 = len(orders[0])
            constraints = [(lams[0], orders[0], k0)] + [
                (lams[i], orders[i], None) for i in (1, 2)
            ]
            p = hermite_separating_poly(constraints)
            for lam, orders_i, _ in constraints:
                for k in orders_i:
                    assert abs(poly_derivative_at(p, lam, k)) <= 1e-8
            assert poly_derivative_at(p, lams[0], k0) == pytest.approx(1.0, abs=1e-8)

    def test_conflicting_constraints_rejected(self):
        with pytest.raises(ValueError):
            hermite_separating_poly([(0.0, [0, 1], 1)])

    def test_two_nonvanish_rejected(self):
        with pytest.raises(ValueError):
            hermite_separating_poly([(0.0, [], 0), (1.0, [], 0)])


class TestZariski:
    def test_jordan_block_escapes_scalar(self):
        member, p0 = zariski_membership_d1(jordan_cell(0, 2), [np.zeros((1, 1))])
        assert not member
        # the separating polynomial is proportional to z
        val = eval_d1(p0, jordan_cell(0, 2))
        assert np.linalg.norm(val) > 1e-6
        assert np.linalg.norm(eval_d1(p0, np.zeros((1, 1)))) <= 1e-10

    def test_direct_sum_member(self):
        member, p0 = zariski_membership_d1(np.zeros((2, 2)), [np.zeros((1, 1))])
        assert member and p0 is None

    def test_restriction_member(self):
        member, _ = zariski_membership_d1(np.zeros((1, 1)), [jordan_cell(0, 2)])
        assert member

    def test_new_eigenvalue_separated(self):
        member, p0 = zariski_membership_d1(np.array([[2.0]]), [np.diag([0.0, 1.0])])
        assert not member
        assert np.linalg.norm(eval_d1(p0, np.diag([0.0, 1.0]))) <= 1e-8
        assert np.linalg.norm(eval_d1(p0, np.array([[2.0]]))) > 1e-6

    def test_deeper_chain_separated(self):
        member, p0 = zariski_membership_d1(jordan_cell(1.0, 3), [jordan_cell(1.0, 2)])
        assert not member
        assert np.linalg.norm(eval_d1(p0, jordan_cell(1.0, 2))) <= 1e-8
        assert np.linalg.norm(eval_d1(p0, jordan_cell(1.0, 3))) > 1e-6

    def test_agrees_with_full_envelope(self, rng):
        # spot agreement between the Jordan route and the intertwiner route
        eig_pool = [-0.75, -0.25, 0.25, 0.75]
        for trial in range(20):
            gen = _random_jordan(rng, eig_pool, max_dim=3)
            if trial % 2:
                Zt = _restriction_of(rng, gen)
            else:
                Zt = _random_jordan(rng, eig_pool, max_dim=3)
            member_z, _ = zariski_membership_d1(Zt, [gen], cluster_tol=1e-3)
            w = full_envelope_membership(
                mt(Zt), [mt(gen)], max_multiplicity=Zt.shape[0], seed=trial
            )
            assert member_z == (w is not None)


def _random_jordan(rng, pool, max_dim):
    dim = int(rng.integers(1, max_dim + 1))
    blocks = []
    left = dim
    while left > 0:
        size = int(rng.integers(1, left + 1))
        lam = float(rng.choice(pool))
        blocks.append(jordan_cell(lam, size))
        left -= size
    M = block_diag(*blocks)
    U, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return U @ M @ U.conj().T


def _restriction_of(rng, gen):
    # a direct sum of leading-subspace restrictions of one Jordan block of gen
    data = jordan_spectral_data(gen, cluster_tol=1e-3)
    lam, chain = data.eigenvalues[0], data.chain_lengths[0]
    size = int(rng.integers(1, chain + 1))
    M = jordan_cell(lam, size)
    U, _ = np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
    return U @ M @ U.conj().T
