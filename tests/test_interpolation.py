import itertools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpick import core, interpolation, kernels
from ncpick.core import (
    NcMatrixPolynomial,
    Word,
    _eval_poly,
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
    pick_certificate,
    solve_pick,
    stein_dominance_certificate,
    strict_stein_refuter,
    twisted_ltoa_eval,
)
from ncpick.kernels import NotPsdError
from ncpick.okaweil import extract_nc_polynomial
from ncpick.realization import (
    Colligation,
    RealizedFunction,
    lurking_isometry_synthesize,
    random_contractive_colligation,
    transfer_eval,
)
from ncpick.sampling import complex_gaussian, sample_in_domain

from conftest import (
    amplified_partial_sum,
    amplified_transfer,
    count_calls,
    kron_eval_poly,
    ltoa_word_sum,
    mt,
    multi_point_to_single,
    scalar_point,
    stein_dominance_choi,
    unsampleable_domains,
)


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
        eigs1 = np.linalg.eigvalsh(pick_certificate(p)[1])
        choi_k = pick_certificate(pk)[1]
        want = repeated_spectrum(eigs1, k, choi_k.shape[0])
        got = np.linalg.eigvalsh(choi_k)
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_one_node_evaluation_and_norm(self, monkeypatch):
        # the problem's domain check evaluates Q0(Z0) once and checks its norm
        # once; the certificate reuses that value
        Q, Z0, S0 = random_value_problem(2, 3, 1, 1, 0.9, seed=4)
        evals = count_calls(monkeypatch, core, "_eval_poly")
        norms = count_calls(monkeypatch, core, "operator_norm")
        pick_certificate(PickProblem(Q, Z0, np.eye(3), S0))
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

    @given(d=st.integers(1, 2), levels=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           e=st.integers(1, 2), diagonal=st.booleans(), t=st.floats(0.5, 1.5),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_certificate_reads_the_support_spectrum(self, d, levels, e, diagonal, t, seed):
        # at a fused node (or a diagonal node with diagonal data, the fusion of
        # its scalar points) the Choi matrix has exactly-zero rows and
        # columns; the certified spectrum is the full one less those zeros,
        # and the factor reproduces the full matrix with zero rows off the support
        rng = np.random.default_rng(seed)
        Q = NcMatrixPolynomial.row_pencil(d)
        source = RealizedFunction(random_contractive_colligation(2, 1, 1, d, seed=seed), Q)
        sizes = [1] * sum(levels) if diagonal else levels
        problems = []
        for n in sizes:
            Z0 = sample_in_domain(Q, n, rng, 0.6)
            a0 = complex_gaussian(rng, (e * n, n))
            problems.append(PickProblem(Q, Z0, a0, t * a0 @ transfer_eval(source, Z0)))
        p = multi_point_to_single(problems)
        choi = kernels._dbr_support([p])
        support, live = kernels._on_support(choi)
        full = np.linalg.eigvalsh(choi)
        dropped = choi.shape[0] - support.shape[0]
        assert dropped == (0 if live is None else np.count_nonzero(~live))
        # the full spectrum less the `dropped` eigenvalues nearest zero
        want = np.sort(full[np.argsort(np.abs(full))[dropped:]])
        got = np.linalg.eigvalsh(support)
        scale = 1e-10 * max(1.0, np.max(np.abs(full)))
        assert np.max(np.abs(got - want)) <= scale
        cert, _ = pick_certificate(p)
        assert abs(cert.min_eig - want[0]) <= scale and abs(cert.max_eig - want[-1]) <= scale
        factor_cert, H = kernels._certified_factor(choi, 1e-9)
        assert abs(factor_cert.min_eig - want[0]) <= scale
        if H is not None:
            assert np.linalg.norm(H @ H.conj().T - choi) <= 1e-9 * max(1.0, np.linalg.norm(choi))
            if live is not None:
                assert not H[~live].any()


def looped_fusion(problems):
    """Fused A0 and B0 placed one (row, column) block at a time (oracle)."""
    y, u = problems[0].dimY, problems[0].dimU
    e_tot = sum(p.dimE for p in problems)
    N = sum(p.n for p in problems)
    A0 = np.zeros((e_tot * N, y * N), dtype=complex)
    B0 = np.zeros((e_tot * N, u * N), dtype=complex)
    e_off = n_off = 0
    for p in problems:
        e_i, n_i = p.dimE, p.n
        Ai = p.A0.reshape(e_i, n_i, y, n_i)
        Bi = p.B0.reshape(e_i, n_i, u, n_i)
        for pp in range(e_i):
            row = (e_off + pp) * N + n_off
            for q in range(y):
                A0[row : row + n_i, q * N + n_off : q * N + n_off + n_i] = Ai[pp, :, q, :]
            for q in range(u):
                B0[row : row + n_i, q * N + n_off : q * N + n_off + n_i] = Bi[pp, :, q, :]
        e_off += e_i
        n_off += n_i
    return A0, B0


def node_list(rng, Q, parts, y, u, t, seed=0):
    """Nodes (level n, dim E e) for each of ``parts``: random A_a and B_a = t A_a S(Z_a)
    for one contractive S of state dimension 2, so t <= 1 is feasible."""
    source = RealizedFunction(random_contractive_colligation(2, u, y, Q.r, seed=seed), Q)
    nodes = []
    for n, e in parts:
        Z = sample_in_domain(Q, n, rng, 0.6)
        a = complex_gaussian(rng, (e * n, y * n))
        nodes.append(PickProblem(Q, Z, a, t * a @ transfer_eval(source, Z)))
    return nodes


class TestMultiPoint:
    # node lists, against the fused single-node route conftest.multi_point_to_single

    @given(parts=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)),
                          min_size=1, max_size=3),
           y=st.integers(1, 2), u=st.integers(1, 2), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_block_placement_matches_loop(self, parts, y, u, seed):
        # the oracle's own test; parts holds (level, dim E) per problem
        rng = np.random.default_rng(seed)
        Q = NcMatrixPolynomial.row_pencil(2)
        problems = [PickProblem(Q, sample_in_domain(Q, n, rng, 0.5),
                                complex_gaussian(rng, (e * n, y * n)),
                                complex_gaussian(rng, (e * n, u * n)))
                    for n, e in parts]
        fused = multi_point_to_single(problems)
        A0, B0 = looped_fusion(problems)
        assert np.array_equal(fused.A0, A0) and np.array_equal(fused.B0, B0)

    def test_single_problem_identity(self):
        # one node is a list of one: the same certificate and the same matrix
        p = scalar_problem(0.3, 0.5)
        assert [q is p for q in kernels._pick_nodes(p)] == [True]
        one, listed = pick_certificate(p), pick_certificate([p])
        assert one[0] == listed[0] and np.array_equal(one[1], listed[1])

    def test_levels_add(self):
        # the support side is sum_a e_a n_a^2; the fused node's level is the sum
        nodes = [scalar_problem(0.1, 0.2), scalar_problem(0.3, 0.4)]
        assert pick_certificate(nodes)[1].shape == (2, 2)
        assert multi_point_to_single(nodes).n == 2

    def test_heterogeneous_row_spaces_fuse_and_solve(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        col = random_contractive_colligation(3, 1, 1, 2, seed=11)
        f = RealizedFunction(col, Q)
        Z1 = sample_in_domain(Q, 1, rng, 0.5)
        Z2 = sample_in_domain(Q, 2, rng, 0.5)
        a1 = complex_gaussian(rng, (1, 1))
        a2 = complex_gaussian(rng, (4, 2))  # e = 2 at a level-2 node
        p1 = PickProblem(Q, Z1, a1, a1 @ transfer_eval(f, Z1))
        p2 = PickProblem(Q, Z2, a2, a2 @ transfer_eval(f, Z2))
        # support side 1 + 2 * 2^2, where the fused Choi matrix has side 3 * 3^2
        assert pick_certificate([p1, p2])[1].shape == (9, 9)
        rep = solve_pick([p1, p2])
        assert rep.feasible and rep.interp_residual <= 1e-8
        assert rep.diagnostics.family_size == 9

    def test_two_point_matches_classical_pick(self, rng):
        # classical Pick matrix oracle on two scalar nodes: it is the support itself
        for _ in range(25):
            z = rng.uniform(-0.8, 0.8, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
            z *= 0.7
            lam = rng.uniform(-1.2, 1.2, 2) + 1j * rng.uniform(-0.6, 0.6, 2)
            if abs(z[0] - z[1]) < 0.1:
                continue
            cert, S = pick_certificate([scalar_problem(z[0], lam[0]),
                                        scalar_problem(z[1], lam[1])])
            pick = classical_pick_matrix(z, lam)
            assert np.abs(S - pick).max() <= 1e-12 * np.abs(pick).max()
            classical = np.linalg.eigvalsh(pick)[0]
            assert cert.is_psd == bool(classical >= -1e-9)

    @given(d=st.integers(1, 2), parts=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)),
                                               min_size=1, max_size=3),
           y=st.integers(1, 2), u=st.integers(1, 2), t=st.floats(0.5, 1.5),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_support_spectrum_matches_fused_oracle(self, d, parts, y, u, t, seed):
        # the fused Choi matrix is the node-list support among exactly-zero
        # rows and columns: its spectrum less that many eigenvalues nearest zero
        rng = np.random.default_rng(seed)
        Q = NcMatrixPolynomial.row_pencil(d)
        nodes = node_list(rng, Q, parts, y, u, t, seed=seed)
        cert, S = pick_certificate(nodes)
        assert S.shape[0] == sum(e * n * n for n, e in parts)
        fused = multi_point_to_single(nodes)
        full = np.linalg.eigvalsh(kernels._dbr_support([fused]))
        want = np.sort(full[np.argsort(np.abs(full))[full.size - S.shape[0]:]])
        got = np.linalg.eigvalsh(S)
        scale = 1e-10 * max(1.0, np.max(np.abs(full)))
        assert np.max(np.abs(got - want)) <= scale
        assert abs(cert.min_eig - want[0]) <= scale

    @pytest.mark.parametrize("p, n", [
        (2, 1), (3, 3), (5, 2), (8, 3),
        # the fixed Kolmogorov rank cut (1e-10 relative) drops one to six data
        # eigenvalues near 1.5e-8 here, and the residual reads about 1e-8
        pytest.param(8, 4, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 3: the rank cut drops data eigenvalues"))])
    def test_node_list_solve_interpolates_every_node(self, p, n):
        rng = np.random.default_rng(100 * p + n)
        Q = NcMatrixPolynomial.row_pencil(2)
        nodes = node_list(rng, Q, [(n, 1 + a % 2) for a in range(p)], 1, 1, 0.9, seed=p)
        rep = solve_pick(nodes)
        assert rep.feasible
        f = RealizedFunction(rep.colligation, Q)
        resid = [np.linalg.norm(q.A0 @ transfer_eval(f, q.Z0) - q.B0, 2) for q in nodes]
        for q, r in zip(nodes, resid):
            assert r <= 1e-10 * max(1.0, np.linalg.norm(q.B0, 2))
        assert abs(rep.interp_residual - max(resid)) <= 1e-12

    def test_pairs_solved_once_without_node_evaluation(self, monkeypatch):
        # p nodes: p^2 Stein solves of side n_a n_b and no Q0 evaluation
        rng = np.random.default_rng(5)
        Q = NcMatrixPolynomial.row_pencil(2)
        nodes = node_list(rng, Q, [(1, 1), (2, 2), (3, 1)], 1, 1, 0.9)
        evals = count_calls(monkeypatch, core, "_eval_poly")
        solves = count_calls(monkeypatch, kernels, "_stein_solve")
        pick_certificate(nodes)
        assert len(evals) == 0
        assert [(s[0].shape[1], s[1].shape[1]) for s in solves] == [
            (a.n, b.n) for a in nodes for b in nodes]

    def test_eight_nodes_of_level_four_stay_small(self):
        # the support has side 8 * 4^2 = 128; the fused route allocates 1.07 GB
        rng = np.random.default_rng(8)
        Q = NcMatrixPolynomial.row_pencil(2)
        nodes = node_list(rng, Q, [(4, 1)] * 8, 1, 1, 0.9)
        tracemalloc.start()
        try:
            cert, S = pick_certificate(nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.is_psd and S.shape == (128, 128)
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("tol", [1e-18, 1e-9])
    def test_repeated_node_certified_once(self, tol):
        # a node equal entry for entry to an earlier one is dropped, so its
        # repeat reads the distinct nodes' margin, not the zero of a repeated row
        rng = np.random.default_rng(3)
        Q = NcMatrixPolynomial.row_pencil(2)
        p, q = node_list(rng, Q, [(2, 1), (1, 2)], 1, 1, 0.9)
        again = PickProblem(Q, p.Z0, p.A0.copy(), p.B0.copy())
        want, S = pick_certificate([p, q], tol)
        got, S3 = pick_certificate([p, q, again], tol)
        assert got == want and np.array_equal(S3, S)
        assert solve_pick([p, q, again]).certificate == solve_pick([p, q]).certificate


def _malformed_entry_points(Q, Z0, A0, B0, stein):
    """Every entry point that takes single-node de Branges-Rovnyak data; the
    Stein-dominance test only where A0 is the identity it builds itself."""
    calls = {
        "PickProblem": lambda: PickProblem(Q, Z0, A0, B0),
        "lurking_isometry_synthesize": lambda: lurking_isometry_synthesize(Q, Z0, A0, B0),
        "dbr_map_matrix": lambda: kernels.dbr_map_matrix(Q, Z0, A0, B0),
    }
    if stein:
        calls["stein_dominance_certificate"] = lambda: stein_dominance_certificate(Q, Z0, B0)
    return calls


# (node scale, A0, B0, the Stein test applies, error type, message) at level 2;
# the row-pencil value of the node has norm 0.67 times its scale
MALFORMED = {
    "rows_not_multiple_of_n": (0.5, np.eye(3), np.ones((3, 2)), True,
                               core.DimensionMismatchError,
                               "tangential data must be over the level of Z0"),
    "row_mismatch": (0.5, np.eye(2), np.ones((4, 2)), False, core.DimensionMismatchError,
                     "A0 and B0 must share their row space"),
    "dimE_zero": (0.5, np.eye(0), np.zeros((0, 2)), True, core.DimensionMismatchError,
                  "tangential data needs at least one row (dimE >= 1)"),
    "columns_not_multiple_of_n": (0.5, np.eye(2), np.ones((2, 3)), True,
                                  core.DimensionMismatchError,
                                  "tangential data must be over the level of Z0"),
    "node_outside_disk": (2.0, np.eye(2), 0.5 * np.eye(2), True, core.DomainError,
                          "point lies outside the disk of Q0"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_data_rejected_alike(case):
    # PickProblem is the one validator: every entry point raises its error
    scale, A0, B0, stein, error, message = MALFORMED[case]
    Q = NcMatrixPolynomial.row_pencil(2)
    Z0 = mt(scale * np.diag([0.6, -0.6]), scale * np.array([[0.0, 0.3], [0.0, 0.0]]))
    seen = {}
    for name, call in _malformed_entry_points(Q, Z0, A0, B0, stein).items():
        with pytest.raises(Exception) as info:
            call()
        seen[name] = (type(info.value), str(info.value))
    assert seen == dict.fromkeys(seen, (error, message))


class TestSolvePick:
    def test_zero_tangential_rows_rejected(self, rng):
        # with dimE = 0 the D family has no columns, so both entry points
        # reject the data before certifying it
        Q = NcMatrixPolynomial.row_pencil(2)
        Z0 = sample_in_domain(Q, 2, rng, 0.5)
        A0, B0 = np.zeros((0, 2)), np.zeros((0, 2))
        with pytest.raises(core.DimensionMismatchError, match="dimE"):
            PickProblem(Q, Z0, A0, B0)
        with pytest.raises(core.DimensionMismatchError, match="dimE"):
            lurking_isometry_synthesize(Q, Z0, A0, B0)

    def test_no_kronecker_products(self, monkeypatch, rng):
        # the vec-matrices, the D family and the state maps are einsum/matmul
        Q = NcMatrixPolynomial.row_pencil(2)
        Z0 = sample_in_domain(Q, 2, rng, 0.5)
        col = random_contractive_colligation(2, 1, 1, 2, seed=7)
        p = PickProblem(Q, Z0, np.eye(2), 0.9 * transfer_eval(RealizedFunction(col, Q), Z0))
        krons = count_calls(monkeypatch, np, "kron")
        assert solve_pick(p).feasible
        assert krons == []

    def test_feasible_scalar_end_to_end(self):
        rep = solve_pick(scalar_problem(0.5, 0.9))
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
        rep = solve_pick(p)
        assert rep.feasible and rep.interp_residual <= 1e-9

    def test_zero_data_is_a_marginal_boundary(self, rng):
        # the Choi matrix of zero data is all zero rows, so its support is
        # empty; both certificates still read the zero spectrum at the boundary
        Q = NcMatrixPolynomial.row_pencil(2)
        p = PickProblem(Q, sample_in_domain(Q, 2, rng, 0.5), np.zeros((2, 2)), np.zeros((2, 2)))
        cert, _ = pick_certificate(p)
        rep = solve_pick(p)
        assert cert == rep.certificate
        assert (cert.verdict, cert.min_eig, cert.max_eig, cert.marginal) == ("psd", 0.0, 0.0, True)
        assert rep.colligation.dimX == 0

    @pytest.mark.parametrize("route", ["solve_pick", "synthesize"])
    @pytest.mark.parametrize("feasible", [True, False])
    def test_one_choi_build_and_one_eigh(self, monkeypatch, rng, feasible, route):
        # the verdict and the Kolmogorov factor come from one eigendecomposition
        Q = NcMatrixPolynomial.row_pencil(2)
        Z0 = sample_in_domain(Q, 2, rng, 0.5)
        col = random_contractive_colligation(2, 1, 1, 2, seed=7)
        B0 = 0.9 * transfer_eval(RealizedFunction(col, Q), Z0) if feasible else 1.5 * np.eye(2)
        p = PickProblem(Q, Z0, np.eye(2), B0)
        builds = count_calls(monkeypatch, kernels, "_dbr_support")
        checks = count_calls(monkeypatch, kernels, "psd_check")
        eighs = count_calls(monkeypatch, np.linalg, "eigh")
        eigvals = count_calls(monkeypatch, np.linalg, "eigvalsh")
        if route == "solve_pick":
            assert solve_pick(p).feasible == feasible
        elif feasible:
            lurking_isometry_synthesize(Q, Z0, p.A0, p.B0)
        else:
            with pytest.raises(NotPsdError):
                lurking_isometry_synthesize(Q, Z0, p.A0, p.B0)
        assert (len(builds), len(eighs), len(eigvals), len(checks)) == (1, 1, 0, 0)

    @given(d=st.integers(1, 2), n=st.integers(1, 3), e=st.integers(1, 2),
           y=st.integers(1, 2), u=st.integers(1, 2), feasible=st.booleans(),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_certificate_matches_pick_certificate(self, d, n, e, y, u, feasible, seed):
        # solve_pick reads its verdict off eigh, pick_certificate off eigvalsh,
        # both with the dead band of the one tol, across the legal range
        rng = np.random.default_rng(seed)
        Q = NcMatrixPolynomial.row_pencil(d)
        Z0 = sample_in_domain(Q, n, rng, 0.5)
        A0 = complex_gaussian(rng, (e * n, y * n))
        if feasible:
            col = random_contractive_colligation(2, u, y, d, seed=seed)
            B0 = 0.9 * A0 @ transfer_eval(RealizedFunction(col, Q), Z0)
        else:
            # the Choi trace is tr A0 (T (x) I) A0^* - tr B0 (T (x) I) B0^* with
            # I <= T = k(Z0, Z0)(I) <= I / (1 - 0.5^2), so ||B0||_F = 2 ||A0||_F
            # makes it negative
            G = complex_gaussian(rng, (e * n, u * n))
            B0 = 2.0 * np.linalg.norm(A0) / np.linalg.norm(G) * G
        p = PickProblem(Q, Z0, A0, B0)
        for tol in (1e-12, 1e-9, 1e-6):
            got = solve_pick(p, tol=tol).certificate
            want, _ = pick_certificate(p, tol)
            assert got.rel_tol == want.rel_tol == tol
            assert got.is_psd == feasible
            assert (got.verdict, got.marginal) == (want.verdict, want.marginal)
            band = 1e-12 * max(1.0, want.max_eig)
            assert abs(got.min_eig - want.min_eig) <= band
            assert abs(got.max_eig - want.max_eig) <= band

    @pytest.mark.parametrize("y", [1, 2])
    def test_zero_state_synthesis(self, rng, y):
        # b0 = a0 with y = u: S = I interpolates, the Choi matrix is exactly
        # zero, and synthesis runs at dimX = 0
        Q = NcMatrixPolynomial.row_pencil(2)
        Z0 = sample_in_domain(Q, 3, rng, 0.5)
        a0 = complex_gaussian(rng, (2 * 3, y * 3))
        p = PickProblem(Q, Z0, a0, a0)
        assert not pick_certificate(p)[1].any()
        col, diag = lurking_isometry_synthesize(Q, Z0, a0, a0)
        rep = solve_pick(p)
        assert rep.feasible
        for c, resid in ((col, diag.interp_residual), (rep.colligation, rep.interp_residual)):
            assert c.dimX == 0
            assert np.linalg.norm(c.D - np.eye(y), 2) <= 1e-12
            assert resid <= 1e-13

    def test_synthesis_evaluates_the_node_once(self, monkeypatch, rng):
        # the D family and the interpolation residual reuse the problem's
        # Q0(Z0), and the colligation's norm is taken once
        Q = NcMatrixPolynomial.row_pencil(2)
        Z0 = sample_in_domain(Q, 2, rng, 0.5)
        col = random_contractive_colligation(2, 1, 1, 2, seed=7)
        p = PickProblem(Q, Z0, np.eye(2), 0.9 * transfer_eval(RealizedFunction(col, Q), Z0))
        evals = count_calls(monkeypatch, core, "_eval_poly")
        norms = count_calls(monkeypatch, core, "operator_norm")
        synthesize, seen = interpolation._synthesize, []

        def counting(*args, **kwargs):
            before = (len(evals), len(norms))
            out = synthesize(*args, **kwargs)
            seen.append((len(evals) - before[0], len(norms) - before[1]))
            return out

        monkeypatch.setattr(interpolation, "_synthesize", counting)
        rep = solve_pick(p)
        assert rep.feasible and rep.interp_residual <= 1e-9
        assert seen == [(0, 1)]


def substitute_colligation(col):
    """Patch ``solve_pick`` to verify ``col`` in place of the synthesized
    colligation, keeping synthesis's diagnostics."""
    synthesize = interpolation._synthesize
    return mock.patch.object(interpolation, "_synthesize",
                             lambda *args: (col, synthesize(*args)[1]))


def per_sample_contractivity(col):
    """The spot check point by point: the same seeded strict contractions T of
    shape n x r n, each through one amplified transfer-function value."""
    rng = np.random.default_rng(interpolation.CONTRACTIVITY_SEED)
    K = interpolation.CONTRACTIVITY_SAMPLES // len(interpolation.CONTRACTIVITY_LEVELS)
    norms = []
    for n in interpolation.CONTRACTIVITY_LEVELS:
        for _ in range(K):
            g = rng.standard_normal((n, col.r * n, 2))
            T = 0.9 * (g[..., 0] + 1j * g[..., 1]) / np.linalg.norm(g)
            assert operator_norm(T) <= 0.9 + 1e-15
            norms.append(operator_norm(amplified_transfer(col, T)))
    return norms


class TestContractivitySamples:
    @given(r=st.integers(1, 3), dimX=st.sampled_from([0, 1, 6]),
           y=st.integers(1, 2), u=st.integers(1, 2), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_matches_per_sample_loop(self, r, dimX, y, u, seed):
        # oracle: per_sample_contractivity at solve_pick's sample count,
        # levels and seed, through amplified_transfer
        Q0 = NcMatrixPolynomial.row_pencil(r)
        Z0 = sample_in_domain(Q0, 1, np.random.default_rng(seed), 0.5)
        p = PickProblem(Q0, Z0, np.eye(1), np.zeros((1, 1)))
        # a colligation of the wanted state dimension in place of the
        # synthesized one, so every dimX is covered whatever synthesis returns
        col = random_contractive_colligation(dimX, u, y, r, seed=seed)
        with substitute_colligation(col):
            rep = solve_pick(p)
        want = per_sample_contractivity(col)
        assert rep.feasible and rep.colligation is col
        assert len(rep.contractivity_samples) == len(want) == interpolation.CONTRACTIVITY_SAMPLES
        np.testing.assert_allclose(rep.contractivity_samples, want, rtol=1e-12, atol=0)
        assert rep.max_sampled_norm <= 1 + 1e-9

    def test_a_non_contractive_colligation_fails_the_check(self, rng):
        # 1.5 U for a unitary U, flagged neither contractive nor unitary
        Q0 = NcMatrixPolynomial.row_pencil(2)
        p = PickProblem(Q0, sample_in_domain(Q0, 1, rng, 0.5), np.eye(1), np.zeros((1, 1)))
        U = random_contractive_colligation(2, 3, 1, 2, seed=3, unitary=True)
        col = Colligation(2, 3, 1, 2, 1.5 * U.A, 1.5 * U.B, 1.5 * U.C, 1.5 * U.D)
        with substitute_colligation(col):
            rep = solve_pick(p)
        assert rep.colligation is col and rep.max_sampled_norm > 1

    def test_zero_width_q0_scales_without_warnings(self):
        # r = 0 makes every T empty, so there is no norm to divide by
        Q0 = NcMatrixPolynomial(2, 1, 0, {})
        p = PickProblem(Q0, mt([[0.1, 0.2], [0.0, 0.3]], [[0.0, -0.2], [0.4, 0.1]]),
                        np.eye(2), 0.5 * np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve_pick(p)
        assert rep.feasible and rep.colligation.r == 0
        assert len(rep.contractivity_samples) == interpolation.CONTRACTIVITY_SAMPLES

    @pytest.mark.parametrize("case", unsampleable_domains())
    def test_samples_need_no_point_of_the_disk(self, case):
        # the transfer function is checked on its own operator ball, so a
        # Q0 with no seeded in-domain points is verified like any other
        rep = solve_pick(PickProblem(*unsampleable_domains()[case]))
        assert rep.feasible and rep.certificate.verdict == "psd"
        assert rep.interp_residual <= 1e-10
        assert len(rep.contractivity_samples) == interpolation.CONTRACTIVITY_SAMPLES
        assert rep.max_sampled_norm <= 1 + 1e-9

    def test_node_work_does_not_grow_with_samples(self, monkeypatch):
        # Q0 and its norm are computed at the node and in synthesis only; the
        # samples are evaluated in stacks (the parent made 2 + 2 per sample)
        Q, Z0, S0 = random_value_problem(2, 2, 1, 1, 0.9, seed=5)
        p = PickProblem(Q, Z0, np.eye(2), S0)
        counts = []
        for samples in (4, 40, 400):
            monkeypatch.setattr(interpolation, "CONTRACTIVITY_SAMPLES", samples)
            evals = count_calls(monkeypatch, core, "_eval_poly")
            norms = count_calls(monkeypatch, core, "operator_norm")
            rep = solve_pick(p)
            monkeypatch.undo()
            assert rep.feasible and len(rep.contractivity_samples) == samples
            counts.append((len(evals), len(norms)))
        assert counts[0] == counts[1] == counts[2]


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
        Q = NcMatrixPolynomial.scalar_univariate([0, 1])
        col = random_contractive_colligation(2, 1, 1, 1, seed=9)
        f = RealizedFunction(col, Q)
        Z0 = mt(0.4 * rng.standard_normal((2, 2)))
        X = rng.standard_normal((2, 1))
        got = ltoa_eval(f, Z0, X)
        want = ltoa_eval(extract_nc_polynomial(f, 80), Z0, X)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_realized_function_matches_polynomial_d2(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        col = random_contractive_colligation(2, 1, 1, 2, seed=9)
        f = RealizedFunction(col, Q)
        Z0 = sample_in_domain(Q, 2, rng, 0.15)
        X = rng.standard_normal((2, 1))
        got = ltoa_eval(f, Z0, X)
        want = ltoa_eval(extract_nc_polynomial(f, 10), Z0, X)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @given(d=st.integers(1, 3), n=st.integers(1, 3), y=st.integers(1, 2), u=st.integers(1, 2),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_polynomial_matches_word_sum(self, d, n, y, u, seed):
        rng = np.random.default_rng(seed)
        words = itertools.chain.from_iterable(
            itertools.product(range(1, d + 1), repeat=k) for k in range(4))
        S = NcMatrixPolynomial(d, y, u, {Word(w, d): complex_gaussian(rng, (y, u))
                                         for w in words if rng.random() < 0.7})
        Z0 = mt(*(0.5 * complex_gaussian(rng, (n, n)) for _ in range(d)))
        X = complex_gaussian(rng, (n, y))
        for ev, twisted in ((ltoa_eval, False), (twisted_ltoa_eval, True)):
            got, want = ev(S, Z0, X), ltoa_word_sum(S, Z0, X, twisted)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    # the expansion to depth L forms d**(L + 2) words in its last step, so the
    # radius shrinks with d to keep the a-priori tail rho**(L + 1) / (1 - rho)
    # below 1e-14 within the default word cap; larger radii are checked
    # against closed forms in test_realized_near_the_boundary
    ORACLE_RADIUS_DEPTH = {1: (0.1, 15), 2: (0.025, 8), 3: (0.004, 5)}

    @given(d=st.integers(1, 3), n=st.integers(1, 3), dimX=st.sampled_from([1, 3]),
           y=st.integers(1, 2), u=st.integers(1, 2), seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_realized_matches_word_sum_of_expansion(self, d, n, dimX, y, u, seed):
        rng = np.random.default_rng(seed)
        radius, L = self.ORACLE_RADIUS_DEPTH[d]
        Q = NcMatrixPolynomial.row_pencil(d)
        f = RealizedFunction(random_contractive_colligation(dimX, u, y, d, seed=seed), Q)
        Z0 = sample_in_domain(Q, n, rng, radius)
        X = complex_gaussian(rng, (n, y))
        S = extract_nc_polynomial(f, L)
        for ev, twisted in ((ltoa_eval, False), (twisted_ltoa_eval, True)):
            got, want = ev(f, Z0, X), ltoa_word_sum(S, Z0, X, twisted)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("radius", [0.15, 0.5, 0.9])
    def test_realized_near_the_boundary(self, rng, d, radius):
        # word expansions deep enough for these radii exceed any word cap;
        # untwisted: X D + sum_rho Z_rho H B_rho with H - sum_rho Z_rho H A_rho = X C,
        # twisted: a deep Neumann partial sum through the amplified colligation
        n, dimX, u, y = 3, 3, 2, 2
        Q = NcMatrixPolynomial.row_pencil(d)
        col = random_contractive_colligation(dimX, u, y, d, seed=d)
        f = RealizedFunction(col, Q)
        Z0 = sample_in_domain(Q, n, rng, radius)
        X = complex_gaussian(rng, (n, y))
        row = _eval_poly(Q, Z0)
        A, B = col.A.reshape(d, dimX, dimX), col.B.reshape(d, dimX, u)
        H = kernels._stein_solve(row[None], A.transpose(0, 2, 1), (X @ col.C).reshape(1, -1, 1))
        H = H.reshape(n, dimX)
        want = X @ col.D + sum(Z @ H @ b for Z, b in zip(Z0.components, B))
        got = ltoa_eval(f, Z0, X)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        V = amplified_partial_sum(col, row, 600).reshape(y, n, u, n)
        want = np.einsum("jy,yiuj->iu", X, V)
        got = twisted_ltoa_eval(f, Z0, X)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_realized_outside_the_disk_raises(self):
        f = RealizedFunction(random_contractive_colligation(2, 1, 1, 1, seed=0),
                             NcMatrixPolynomial.scalar_univariate([0, 3]))
        x = np.array([[0.7]])
        z = scalar_point(0.3)
        want = x * transfer_eval(f, z)
        assert np.allclose(ltoa_eval(f, z, x), want, rtol=1e-14, atol=0)
        assert np.allclose(twisted_ltoa_eval(f, z, x), want, rtol=1e-14, atol=0)
        for ev in (ltoa_eval, twisted_ltoa_eval):
            with pytest.raises(core.DomainError):
                ev(f, scalar_point(0.4), x)

    def test_realized_domains_follow_word_order(self):
        # Q0 = z1 z2: ||Q0(Z0)|| = ||Z1 Z2|| = 2 but Q0 with reversed words
        # gives Z2 Z1 = 0, so only the untwisted sum is defined, and it is X D
        Q = NcMatrixPolynomial(2, 1, 1, {Word((1, 2), 2): np.eye(1)})
        col = random_contractive_colligation(2, 1, 1, 1, seed=3)
        f = RealizedFunction(col, Q)
        Z0 = mt(2.0 * np.array([[0, 1], [0, 0]]), np.array([[0, 0], [0, 1]]))
        X = np.array([[1.0], [0.5]])
        assert np.allclose(ltoa_eval(f, Z0, X), X @ col.D, rtol=1e-14, atol=0)
        with pytest.raises(core.DomainError):
            twisted_ltoa_eval(f, Z0, X)


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

    def test_one_node_evaluation_and_norm(self, monkeypatch, rng):
        # the certificate solves from the row-pencil value the domain check kept
        Q = NcMatrixPolynomial.row_pencil(2)
        Z0 = sample_in_domain(Q, 2, rng, 0.6)
        X = rng.standard_normal((2, 2))
        evals = count_calls(monkeypatch, core, "_eval_poly")
        norms = count_calls(monkeypatch, core, "operator_norm")
        assert ltoa_certificate(LtoaProblem(Z0, X, 0.5 * X)).is_psd
        assert (len(evals), len(norms)) == (1, 1)

    def test_node_outside_ball_raises(self):
        with pytest.raises(core.DomainError, match="outside the disk"):
            LtoaProblem(scalar_point(1.5), np.eye(1), np.eye(1))


class TestSteinDominance:
    def test_origin_reduces_to_modulus(self):
        Z0 = scalar_point(0.0)
        assert stein_dominance_certificate(Z_SCALAR, Z0, 0.8 * np.eye(1)).is_psd
        assert not stein_dominance_certificate(Z_SCALAR, Z0, 1.2 * np.eye(1)).is_psd

    def test_one_node_evaluation_and_norm(self, monkeypatch):
        # the Stein solve is the only domain check (the parent made 2 + 2)
        Q, Z0, S0 = random_value_problem(2, 3, 1, 1, 0.9, seed=4)
        evals = count_calls(monkeypatch, core, "_eval_poly")
        norms = count_calls(monkeypatch, core, "operator_norm")
        stein_dominance_certificate(Q, Z0, S0)
        assert (len(evals), len(norms)) == (1, 1)

    def test_node_outside_disk_raises(self):
        with pytest.raises(core.DomainError, match="outside the disk"):
            stein_dominance_certificate(Z_SCALAR, scalar_point(1.5), 0.5 * np.eye(1))

    def test_forward_values_dominate(self, rng):
        Q = NcMatrixPolynomial.row_pencil(2)
        for seed in range(5):
            col = random_contractive_colligation(3, 1, 1, 2, seed=seed)
            Z0 = sample_in_domain(Q, 2, rng, 0.6)
            Lam0 = transfer_eval(RealizedFunction(col, Q), Z0)
            assert stein_dominance_certificate(Q, Z0, Lam0).is_psd

    def test_agreement_with_pick(self, rng):
        """The certificate is the Pick certificate of (I, Lambda0), checked against
        an independent oracle: ``conftest.stein_dominance_choi``, the Choi matrix
        built from ``szego_kernel_series`` and a dense Kronecker sandwich."""
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
            stein = stein_dominance_certificate(Q, Z0, Lam0)
            want = np.linalg.eigvalsh(stein_dominance_choi(Q, Z0, Lam0))
            assert stein.verdict == ("psd" if want[0] >= -1e-9 * max(1.0, want[-1])
                                     else "not_psd")
            assert abs(stein.min_eig - want[0]) <= 1e-10 * max(1.0, abs(want[-1]))

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


def stein_hypothesis_margins(Q, Z0, k, delta, P):
    """Least eigenvalues of a(P) and b(P), the strict-Stein hypotheses at the
    k-fold point, formed with ``np.kron``."""
    fac = 1.0 - delta * delta
    Zk = mt(*(np.kron(np.eye(k), c) for c in Z0.components))
    QZ = kron_eval_poly(Q, Zk)
    a = P - fac * sum(Z @ P @ Z.conj().T for Z in Zk.components)
    b = fac * np.kron(np.eye(Q.s), P) - QZ @ np.kron(np.eye(Q.r), P) @ QZ.conj().T
    return [float(np.linalg.eigvalsh(0.5 * (M + M.conj().T))[0]) for M in (a, b)]


class TestSlabShift:
    @pytest.mark.parametrize("case", ["scalar", "row_pencil"])
    def test_shift_is_the_least_feasible_one(self, case):
        rng = np.random.default_rng(17)
        if case == "scalar":
            Q, Z0 = Z_SCALAR, scalar_point(0.6)
        else:
            Q = NcMatrixPolynomial.row_pencil(2)
            Z0 = sample_in_domain(Q, 2, rng, 0.5)
        k, delta = 2, 0.3
        N = k * Z0.n
        shift = interpolation._slab_shift(Q, Z0, k, delta)
        shifted = 0
        for _ in range(100):
            G = complex_gaussian(rng, (N, N))
            P0 = G + G.conj().T  # indefinite, so most draws need a shift
            s = shift(P0)
            assert min(stein_hypothesis_margins(Q, Z0, k, delta, P0 + s * np.eye(N))) >= -1e-12
            if s > 0:
                shifted += 1
                below = P0 + (s - 1e-9 * max(1.0, s)) * np.eye(N)
                assert min(stein_hypothesis_margins(Q, Z0, k, delta, below)) < -1e-12
        assert shifted >= 75

    def test_identity_outside_the_slab(self):
        # |Q(Z0)|^2 = 0.81 exceeds 1 - delta^2 = 0.75, so b(I) < 0 and there is
        # nothing to shift toward; at delta = 0.1 the same value is refuted
        z0, lam = scalar_point(0.9), 1.5 * np.eye(1)
        assert interpolation._slab_shift(Z_SCALAR, z0, 1, 0.5) is None
        assert strict_stein_refuter(Z_SCALAR, z0, lam, delta=0.5, trials=10) is None
        assert strict_stein_refuter(Z_SCALAR, z0, lam, delta=0.1, trials=10) is not None
