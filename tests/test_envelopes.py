import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpick import envelopes
from ncpick.core import _eval_poly, direct_sum_many, similarity
from ncpick.envelopes import (
    INJECTIVITY_TOL,
    WITNESS_COND_BOUND,
    full_envelope_membership,
    intertwiner_space,
    jordan_spectral_data,
    nc_envelope_point,
    similarity_envelope_membership,
    zariski_membership_d1,
)
from ncpick.sampling import complex_gaussian

from conftest import block_diag, count_calls, full_envelope_search, jordan_cell, mt, \
    similarity_envelope_search

# how _envelope_case builds a point from d = 2 generators
CONSTRUCTIONS = ["similar-sum", "cyclic-restriction", "transpose", "random"]


def eval_d1(poly, M):
    return _eval_poly(poly, mt(M))


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
        assert similarity_envelope_membership(Zt, gens) is not None
        assert full_envelope_membership(Zt, gens) is not None

    @given(seed=st.integers(0, 2**16), construction=st.sampled_from(CONSTRUCTIONS))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_agrees_with_the_multiset_search(self, seed, construction):
        gens, Zt = _envelope_case(np.random.default_rng(seed), construction)
        w = full_envelope_membership(Zt, gens)
        assert (w is not None) == (full_envelope_search(Zt, gens, seed) is not None)
        if construction in ("similar-sum", "cyclic-restriction"):
            assert w is not None
        if w is not None:
            assert sum(w.multiplicities) <= Zt.n
            assert np.linalg.svd(w.matrix, compute_uv=False)[-1] > INJECTIVITY_TOL
            sum_point = nc_envelope_point(gens, w.multiplicities)
            for Zk, Ztk in zip(sum_point.components, Zt.components):
                assert np.linalg.norm(w.matrix @ Ztk - Zk @ w.matrix, 2) <= 1e-9

    def test_one_intertwiner_space_per_generator_and_no_draws(self, monkeypatch, rng):
        gens = [_triangular_tuple(rng, 2) for _ in range(3)]
        points = (nc_envelope_point(gens, [1, 0, 2]), mt(*complex_gaussian(rng, (2, 2, 2))))
        spaces = count_calls(monkeypatch, envelopes, "intertwiner_space")
        draws = count_calls(monkeypatch, np.random, "default_rng")
        for Zt, member in zip(points, (True, False)):
            spaces.clear()
            assert (full_envelope_membership(Zt, gens) is not None) == member
            assert len(spaces) == 3
        assert draws == []

    def test_witness_keeps_only_blocks_that_raise_the_rank(self):
        # the second generator repeats the first, so its block adds no rank
        Zt = mt(np.diag([0.0, 1.0]))
        w = full_envelope_membership(Zt, [mt([[0.0]]), mt([[0.0]]), mt([[1.0]])])
        assert w.multiplicities == (1, 0, 1)

    def test_whole_stack_witnesses_when_greedy_falls_short(self, monkeypatch):
        # were no block to raise the rank at the cut, the stack the SVD found
        # injective is the witness: the diagonal commutant's two blocks
        Z = mt(np.diag([0.5, -0.5]))
        monkeypatch.setattr(np.linalg, "matrix_rank", lambda M, tol: 0)
        w = full_envelope_membership(Z, [Z])
        assert w.multiplicities == (2,) and w.matrix.shape == (4, 2)


class TestSimilarityEnvelope:
    def test_conjugated_sum_is_member(self, rng):
        gens = [mt(rng.standard_normal((2, 2)))]
        Zt0 = nc_envelope_point(gens, [2])
        alpha = np.eye(4) + 0.25 * rng.standard_normal((4, 4))
        Zt = similarity(Zt0, alpha)
        w = similarity_envelope_membership(Zt, gens)
        assert w is not None and w.kind == "similarity"
        svals = np.linalg.svd(w.matrix, compute_uv=False)
        assert svals[-1] > 0

    def test_level_mismatch_absent(self, rng):
        gens = [mt(rng.standard_normal((2, 2)))]
        Zt = mt(rng.standard_normal((3, 3)))
        assert similarity_envelope_membership(Zt, gens) is None

    def test_self_member(self, rng):
        Z = mt(rng.standard_normal((3, 3)))
        assert similarity_envelope_membership(Z, [Z]) is not None

    @given(seed=st.integers(0, 2**16), construction=st.sampled_from(CONSTRUCTIONS))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_agrees_with_the_direct_sum_search(self, seed, construction):
        gens, Zt = _envelope_case(np.random.default_rng(seed), construction)
        w = similarity_envelope_membership(Zt, gens)
        assert (w is not None) == (similarity_envelope_search(Zt, gens, seed) is not None)
        if construction == "similar-sum":
            assert w is not None
        if w is not None:
            assert w.matrix.shape == (Zt.n, Zt.n)
            assert np.linalg.cond(w.matrix) <= WITNESS_COND_BOUND
            sum_point = nc_envelope_point(gens, w.multiplicities)
            for Zk, Ztk in zip(sum_point.components, Zt.components):
                assert np.linalg.norm(w.matrix @ Ztk - Zk @ w.matrix, 2) <= 1e-9

    def test_one_basis_per_generator_and_no_draws_outside(self, monkeypatch, rng):
        gens = [_triangular_tuple(rng, 2) for _ in range(3)]
        member = similarity(nc_envelope_point(gens, [1, 0, 2]),
                            np.eye(6) + 0.3 * complex_gaussian(rng, (6, 6)))
        # gens[0] plus a random level-2 point, which has no invariant subspace:
        # the bases are nonzero and multisets of level 4 exist, but the stack
        # has a kernel
        outside = direct_sum_many([gens[0], mt(*complex_gaussian(rng, (2, 2, 2)))])
        assert any(intertwiner_space(G, outside) for G in gens)
        spaces = count_calls(monkeypatch, envelopes, "intertwiner_space")
        sums = count_calls(monkeypatch, envelopes, "direct_sum_many")
        draws = count_calls(monkeypatch, np.random, "default_rng")
        assert similarity_envelope_membership(outside, gens) is None
        assert len(spaces) == 3 and sums == [] and draws == []
        spaces.clear()
        assert similarity_envelope_membership(member, gens) is not None
        assert len(spaces) == 3 and len(sums) == 1 and len(draws) == 1


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

    def test_bridging_value_joins_one_cluster(self):
        # 0 and 1.5e-8i are 1.5 tol apart, and the third value lies within tol
        # of both: single linkage makes one cluster, with no near miss
        data = jordan_spectral_data(np.diag([0.0, 1.5e-8j, 1e-9 + 7.5e-9j]), cluster_tol=1e-8)
        assert data.multiplicities == (3,)
        assert not data.ambiguous


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
        """For one variable the Zariski closure is the full envelope; oracle:
        ``conftest.full_envelope_search``, a random search for an injective
        intertwiner over generator multisets."""
        eig_pool = [-0.75, -0.25, 0.25, 0.75]
        for trial in range(20):
            gen = _random_jordan(rng, eig_pool, max_dim=3)
            if trial % 2:
                Zt = _restriction_of(rng, gen)
            else:
                Zt = _random_jordan(rng, eig_pool, max_dim=3)
            member_z, _ = zariski_membership_d1(Zt, [gen], cluster_tol=1e-3)
            w = full_envelope_search(mt(Zt), [mt(gen)], seed=trial)
            assert member_z == (w is not None)

    @pytest.mark.parametrize("Zt, gens, coeffs", [
        # one cluster, Ztilde's chain 3 beats the generator's 2: z^2, ||J3(0)^2|| = 1
        (jordan_cell(0, 3), [jordan_cell(0, 2)], {2: 1.0}),
        # a new eigenvalue 2: z (z - 1) / ((2 - 0) (2 - 1))
        (np.array([[2.0]]), [np.diag([0.0, 1.0])], {1: -0.5, 2: 0.5}),
    ], ids=["deeper-chain", "new-eigenvalue"])
    def test_separating_poly_is_the_root_product(self, Zt, gens, coeffs):
        member, p0 = zariski_membership_d1(Zt, gens)
        assert not member
        got = {len(w): complex(c[0, 0]) for w, c in p0.terms.items() if c[0, 0] != 0}
        assert got.keys() == coeffs.keys()
        assert all(got[k] == pytest.approx(v, abs=1e-15) for k, v in coeffs.items())
        assert np.linalg.norm(eval_d1(p0, Zt), 2) == pytest.approx(1.0, abs=1e-15)

    def test_one_clustering_per_call(self, monkeypatch, rng):
        # the verdict is the exact test: only a non-member's polynomial clusters
        clusterings = count_calls(monkeypatch, envelopes, "_cluster")
        gens = [_random_jordan(rng, [-0.5, 0.5], max_dim=3) for _ in range(3)]
        for Zt, member in ((jordan_cell(0.0, 2), False), (gens[0], True)):
            clusterings.clear()
            assert zariski_membership_d1(Zt, gens, cluster_tol=1e-3)[0] == member
            assert len(clusterings) == (0 if member else 1)

    @pytest.mark.parametrize("seed", range(12))
    def test_split_jordan_block_vanishes_at_default_tol(self, seed):
        # at the default tol the rounding-split eigenvalues of a conjugated 4x4
        # Jordan block are four clusters; the root product still vanishes on it
        rng = np.random.default_rng(seed)
        U, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        G = U @ jordan_cell(-0.75, 4) @ U.conj().T
        member, p0 = zariski_membership_d1(np.array([[0.8]]), [G])
        assert not member
        scale = max(1.0, max(abs(c[0, 0]) for c in p0.terms.values()))
        assert np.linalg.norm(eval_d1(p0, G), 2) <= 1e-12 * scale
        assert abs(eval_d1(p0, np.array([[0.8]]))[0, 0]) == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_jordan_construction_oracle_at_default_tol(self, seed):
        # one or two generators and the point are conjugated direct sums of
        # Jordan blocks at exact pool values, levels 1-4: the point is a
        # member iff each of its blocks fits under the generators' largest
        # block at its eigenvalue (half the points are built to fit)
        rng = np.random.default_rng(seed)
        pool = dict.fromkeys([-0.75, -0.25, 0.3, 0.8], 4)
        gen_blocks = [_jordan_blocks(rng, pool, int(rng.integers(1, 5)))
                      for _ in range(int(rng.integers(1, 3)))]
        largest = {}
        for lam, size in (b for blocks in gen_blocks for b in blocks):
            largest[lam] = max(largest.get(lam, 0), size)
        blocks = _jordan_blocks(rng, largest if rng.integers(2) else pool,
                                int(rng.integers(1, 5)))
        gens = [_conjugated_blocks(rng, b) for b in gen_blocks]
        Zt = _conjugated_blocks(rng, blocks)
        member, p0 = zariski_membership_d1(Zt, gens)
        assert member == all(size <= largest.get(lam, 0) for lam, size in blocks)
        if not member:
            assert np.linalg.norm(eval_d1(p0, Zt), 2) == pytest.approx(1.0, abs=1e-9)
            scale = max(1.0, max(abs(c[0, 0]) for c in p0.terms.values()))
            for G in gens:
                assert np.linalg.norm(eval_d1(p0, G), 2) <= 1e-6 * scale

    @pytest.mark.parametrize("k", range(2, 7))
    def test_similar_jordan_block_is_member_and_a_longer_one_is_not(self, k):
        J = jordan_cell(-0.75, k)
        similar = _conjugated_blocks(np.random.default_rng(k), [(-0.75, k)])
        assert zariski_membership_d1(similar, [J]) == (True, None)
        shorter = jordan_cell(-0.75, k - 1)
        member, p0 = zariski_membership_d1(J, [shorter])
        assert not member
        # p = (z + 3/4)^(k-1), and ||(J_k + 3/4)^(k-1)|| = 1
        assert np.linalg.norm(eval_d1(p0, shorter), 2) <= 1e-12
        assert np.linalg.norm(eval_d1(p0, J), 2) == pytest.approx(1.0, abs=1e-12)

    def test_merging_tol_that_loses_the_separation_raises(self):
        # at cluster_tol 1 the generator's 0 and 0.5 are one cluster at their
        # mean 0.25, so the root product z - 0.25 vanishes at Ztilde = 0.25
        with pytest.raises(ValueError, match="cluster_tol"):
            zariski_membership_d1(np.array([[0.25]]), [np.diag([0.0, 0.5])], cluster_tol=1.0)

    @pytest.mark.parametrize("gap, count", [(1e-2, 8), (1e-3, 4), (1e-4, 3)])
    def test_close_distinct_spectra_keep_their_verdicts(self, gap, count):
        # distinct eigenvalues close together: a similar matrix is a member,
        # and dropping one eigenvalue from the generator makes a non-member
        pts = gap * np.arange(count)
        similar = _conjugated_blocks(np.random.default_rng(count), [(x, 1) for x in pts])
        assert zariski_membership_d1(similar, [np.diag(pts)])[0]
        assert not zariski_membership_d1(np.diag(pts), [np.diag(pts[:-1])])[0]


def _jordan_blocks(rng, caps, level):
    """Random (lambda, size) Jordan blocks of total size level, each at most caps[lambda]."""
    lams = sorted(caps)
    blocks = []
    while level:
        lam = lams[int(rng.integers(len(lams)))]
        size = int(rng.integers(1, min(caps[lam], level) + 1))
        blocks.append((lam, size))
        level -= size
    return blocks


def _conjugated_blocks(rng, blocks):
    """U (J_s1(lambda_1) + ... ) U^* for a random unitary U."""
    M = block_diag(*(jordan_cell(lam, size) for lam, size in blocks))
    U, _ = np.linalg.qr(complex_gaussian(rng, M.shape))
    return U @ M @ U.conj().T


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


def _envelope_case(rng, construction):
    """d = 2 generators with a common invariant flag, and a point built from
    a direct sum of them: conjugated, restricted to a cyclic invariant
    subspace, transposed, or replaced by a random tuple of its level."""
    gens = [_triangular_tuple(rng, int(rng.integers(1, 3)))
            for _ in range(int(rng.integers(1, 4)))]
    mults = [int(k) for k in rng.integers(0, 2, len(gens))]
    mults[int(rng.integers(len(gens)))] = 1
    Z = nc_envelope_point(gens, mults)
    if construction == "similar-sum":
        Zt = similarity(Z, np.eye(Z.n) + 0.3 * complex_gaussian(rng, (Z.n, Z.n)))
    elif construction == "cyclic-restriction":
        Zt = _cyclic_restriction(rng, Z, [G.n for G, k in zip(gens, mults) for _ in range(k)])
    elif construction == "transpose":
        Zt = mt(*(c.T for c in Z.components))
    else:
        Zt = mt(*complex_gaussian(rng, (2, Z.n, Z.n)))
    return gens, Zt


def _triangular_tuple(rng, n):
    # upper triangular d = 2 tuple: each span(e_1, ..., e_j) is invariant
    return mt(*(np.triu(complex_gaussian(rng, (n, n))) for _ in range(2)))


def _cyclic_restriction(rng, Z, levels):
    # Q^* Z Q on the cyclic subspace of a random vector supported on leading
    # coordinates of each triangular summand; Q is then an injective intertwiner
    v = np.concatenate([complex_gaussian(rng, n) * (np.arange(n) < rng.integers(1, n + 1))
                        for n in levels])
    Q = v[:, None] / np.linalg.norm(v)
    while True:
        U, s, _ = np.linalg.svd(np.hstack([Q, *(Zk @ Q for Zk in Z.components)]),
                                full_matrices=False)
        grown = U[:, s > 1e-10 * s[0]]
        if grown.shape[1] == Q.shape[1]:
            return mt(*(grown.conj().T @ Zk @ grown for Zk in Z.components))
        Q = grown
