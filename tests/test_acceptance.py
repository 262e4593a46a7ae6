"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
per-criterion timings.  Every tolerance is pinned here; runtime budgets
are asserted alongside the numerical checks.
"""

import time

import numpy as np
import pytest

from ncpick.core import (
    MatrixTuple,
    NcMatrixPolynomial,
    Word,
    _eval_poly,
    direct_sum,
    in_domain,
    operator_norm,
    similarity,
)
from ncpick.envelopes import full_envelope_membership, jordan_spectral_data, \
    zariski_membership_d1
from ncpick.interpolation import (
    LtoaProblem,
    PickProblem,
    ltoa_certificate,
    ltoa_eval,
    pick_certificate,
    stein_dominance_certificate,
    twisted_ltoa_eval,
)
from ncpick.kernels import szego_kernel_solve
from ncpick.okaweil import uniform_error_report
from ncpick.realization import (
    Colligation,
    RealizedFunction,
    lurking_isometry_synthesize,
    random_contractive_colligation,
    transfer_eval,
)
from ncpick.sampling import complex_gaussian, random_row_poly, sample_in_domain

from conftest import block_diag, jordan_cell, mt, phi_map, scalar_point, szego_kernel_series, \
    szego_tail_bound


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds
        self.start = time.perf_counter()

    def finish(self, detail: str = "") -> None:
        elapsed = time.perf_counter() - self.start
        print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s{', ' + detail if detail else ''})")
        assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s budget"


def test_01_kernel_identities():
    budget = Budget("1 kernel identities", 30.0)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(1, 4))
        r = int(rng.integers(1, 4))
        Q0 = random_row_poly(rng, d, r, degree=int(rng.integers(1, 3)), terms=3)
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        Z = sample_in_domain(Q0, n, rng, target=float(rng.uniform(0.3, 0.85)))
        W = sample_in_domain(Q0, m, rng, target=float(rng.uniform(0.3, 0.85)))
        P = complex_gaussian(rng, (n, m))
        tolP = 1e-10 * (1 + np.linalg.norm(P, 2))
        T = szego_kernel_solve(Q0, Z, W, P)
        res1 = np.linalg.norm(T - phi_map(Q0, Z, W, T) - P, 2)
        back = szego_kernel_solve(Q0, Z, W, P - phi_map(Q0, Z, W, P))
        res2 = np.linalg.norm(back - P, 2)
        worst = max(worst, res1, res2)
        assert res1 <= tolP and res2 <= tolP
    budget.finish(f"max residual {worst:.2e}")


def test_02_solve_vs_series():
    budget = Budget("2 exact solve vs series", 20.0)
    rng = np.random.default_rng(202)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        Q0 = random_row_poly(rng, d, int(rng.integers(1, 3)), degree=1)
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        Z = sample_in_domain(Q0, n, rng, target=0.75)
        W = sample_in_domain(Q0, m, rng, target=0.7)
        P = complex_gaussian(rng, (n, m))
        exact = szego_kernel_solve(Q0, Z, W, P)
        approx, L = szego_kernel_series(Q0, Z, W, P, tol=1e-9)
        bound = szego_tail_bound(Q0, Z, W, P, L)
        assert np.linalg.norm(exact - approx, 2) <= bound + 1e-12
    budget.finish()


def test_03_classical_pick_oracle():
    budget = Budget("3 classical Pick oracle", 20.0)
    rng = np.random.default_rng(303)
    Q0 = NcMatrixPolynomial.scalar_univariate([0, 1])
    dead_band = 1e-9
    checked = 0
    for _ in range(200):
        N = int(rng.integers(1, 5))
        zs = rng.uniform(0.1, 0.85, N) * np.exp(2j * np.pi * rng.uniform(0, 1, N))
        lams = rng.uniform(0, 1.25, N) * np.exp(2j * np.pi * rng.uniform(0, 1, N))
        Z0 = MatrixTuple((np.diag(zs),))
        p = PickProblem(Q0, Z0, np.eye(N), np.diag(lams))
        cert, _ = pick_certificate(p)
        classical = (1 - np.outer(lams, lams.conj())) / (1 - np.outer(zs, zs.conj()))
        cls_min = float(np.linalg.eigvalsh(0.5 * (classical + classical.conj().T))[0])
        assert cert.is_psd == bool(cls_min >= -dead_band)
        if min(abs(cert.min_eig), abs(cls_min)) > dead_band:
            assert np.sign(cert.min_eig) == np.sign(cls_min)
        # the node-level Choi spectrum is the classical Pick spectrum plus
        # N^2 - N structural zeros, which the certificate drops
        assert abs(cert.min_eig - cls_min) <= 1e-10 * max(1.0, cert.max_eig)
        checked += 1
    budget.finish(f"{checked} instances")


def test_04_round_trip_realization():
    budget = Budget("4 round-trip realization", 120.0)
    rng = np.random.default_rng(404)
    for trial in range(50):
        d = int(rng.integers(1, 4))
        Q0 = NcMatrixPolynomial.row_pencil(d)
        dimX = int(rng.integers(1, 9))
        dimU = int(rng.integers(1, 3))
        dimY = int(rng.integers(1, 3))
        col = random_contractive_colligation(dimX, dimU, dimY, d, seed=1000 + trial)
        f = RealizedFunction(col, Q0)
        n = int(rng.integers(1, 4))
        Z0 = sample_in_domain(Q0, n, rng, target=float(rng.uniform(0.3, 0.8)))
        Lam0 = transfer_eval(f, Z0)
        p = PickProblem(Q0, Z0, np.eye(dimY * n), Lam0)
        cert, _ = pick_certificate(p)
        assert cert.is_psd
        col2, diag = lurking_isometry_synthesize(Q0, Z0, np.eye(dimY * n), Lam0)
        f2 = RealizedFunction(col2, Q0)
        assert np.linalg.norm(transfer_eval(f2, Z0) - Lam0, 2) <= 1e-8
        for lev in (1, 2, 3):
            for _ in range(100):
                Z = sample_in_domain(Q0, lev, rng, target=float(rng.uniform(0.2, 0.97)))
                assert operator_norm(transfer_eval(f2, Z)) <= 1 + 1e-9
    budget.finish()


def test_05_negative_certificate():
    budget = Budget("5 negative certificate", 10.0)
    Z0 = mt(0.4 * np.array([[0, 1], [0, 0]]), 0.4 * np.array([[0, 0], [0, 1]]))
    Lam0 = 0.1 * np.array([[0, 0], [1, 0]], dtype=complex)
    Q0 = NcMatrixPolynomial.row_pencil(2)
    cert, _ = pick_certificate(PickProblem(Q0, Z0, np.eye(2), Lam0))
    assert cert.verdict == "not_psd"
    assert cert.min_eig < -1e-8
    budget.finish(f"min eig {cert.min_eig:.3e}")


def test_06_ltoa_closed_form():
    budget = Budget("6 LTOA closed form", 10.0)
    rng = np.random.default_rng(606)
    for _ in range(100):
        z = complex(*rng.uniform(-0.6, 0.6, 2))
        x = complex(*rng.uniform(-1, 1, 2))
        y = complex(*rng.uniform(-1, 1, 2))
        cert = ltoa_certificate(
            LtoaProblem(scalar_point(z), np.array([[x]]), np.array([[y]]))
        )
        want = (abs(x) ** 2 - abs(y) ** 2) / (1 - abs(z) ** 2)
        assert abs(cert.min_eig - want) <= 1e-12
    # twisted and untwisted coincide exactly on commuting (diagonal, dyadic) data
    S = NcMatrixPolynomial(
        2, 1, 1,
        {Word((1, 2), 2): np.array([[0.5]]),
         Word((2, 1, 1), 2): np.array([[-0.25]]),
         Word((2,), 2): np.array([[1.0]])},
    )
    Z0 = mt(np.diag([0.5, -0.25, 0.125]), np.diag([0.25, 0.5, -0.5]))
    X = np.array([[1.0], [0.5], [0.25]])
    assert np.array_equal(ltoa_eval(S, Z0, X), twisted_ltoa_eval(S, Z0, X))
    budget.finish()


def test_07_stein_vs_pick():
    budget = Budget("7 Stein vs Pick cross-check", 60.0)
    rng = np.random.default_rng(707)
    agreements = 0
    for trial in range(200):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        Q0 = NcMatrixPolynomial.row_pencil(d) if d > 1 else \
            NcMatrixPolynomial.scalar_univariate([0, 1])
        Z0 = sample_in_domain(Q0, n, rng, target=float(rng.uniform(0.3, 0.8)))
        col = random_contractive_colligation(int(rng.integers(1, 4)), 1, 1, Q0.r,
                                             seed=2000 + trial)
        S0 = transfer_eval(RealizedFunction(col, Q0), Z0)
        if trial % 2:
            Lam0 = S0 * float(rng.uniform(0.2, 1.0))
        else:
            Lam0 = S0 + 0.5 * complex_gaussian(rng, S0.shape)
        pick = pick_certificate(PickProblem(Q0, Z0, np.eye(n), Lam0))[0]
        stein = stein_dominance_certificate(Q0, Z0, Lam0)
        assert pick.verdict == stein.verdict
        agreements += 1
    budget.finish(f"{agreements} agreements")


def test_08_okaweil_decay():
    budget = Budget("8 Oka-Weil decay", 30.0)
    a = 0.98
    c = np.sqrt(1 - a * a)
    col = Colligation(1, 1, 1, 1, [[a]], [[-c]], [[c]], [[a]],
                      flags=("unitary", "contractive"))
    f = RealizedFunction(col, NcMatrixPolynomial.scalar_univariate([0, 1]))
    zs = np.linspace(-0.5, 0.5, 21)
    samples = [scalar_point(z) for z in zs if abs(z) > 0.05]
    Ls = np.arange(2, 11)
    errs = []
    for L in Ls:
        rep = uniform_error_report(f, samples, int(L))
        assert rep.observed_max <= rep.apriori_bound + 1e-9
        errs.append(rep.observed_max)
    slope = float(np.polyfit(Ls, np.log(errs), 1)[0])
    rho = max(abs(z) for z in zs)
    assert abs(slope - np.log(rho)) <= 0.1 * abs(np.log(rho))
    budget.finish(f"slope {slope:.4f} vs log rho {np.log(rho):.4f}")


def _random_jordan_matrix(rng, pool, max_dim=4):
    dim = int(rng.integers(1, max_dim + 1))
    blocks, left = [], dim
    while left > 0:
        size = int(rng.integers(1, left + 1))
        blocks.append(jordan_cell(complex(rng.choice(pool)), size))
        left -= size
    M = block_diag(*blocks)
    U, _ = np.linalg.qr(complex_gaussian(rng, (dim, dim)))
    return U @ M @ U.conj().T


def _member_of_closure(rng, pool_pairs, max_dim=4):
    # direct sum of blocks dominated by the pooled (eigenvalue, chain) data
    dim = int(rng.integers(1, max_dim + 1))
    blocks, left = [], dim
    while left > 0:
        lam, chain = pool_pairs[int(rng.integers(0, len(pool_pairs)))]
        size = int(rng.integers(1, min(chain, left) + 1))
        blocks.append(jordan_cell(lam, size))
        left -= size
    M = block_diag(*blocks)
    U, _ = np.linalg.qr(complex_gaussian(rng, (M.shape[0], M.shape[0])))
    return U @ M @ U.conj().T


def test_09_zariski_full_envelope_agreement():
    budget = Budget("9 Zariski vs full envelope", 60.0)
    rng = np.random.default_rng(909)
    pool = [-0.75, -0.25, 0.3, 0.8]
    # tolerance sits far above the eps**(1/4) eigenvalue splitting of a
    # perturbed 4x4 Jordan block and far below the pool spacing
    cluster_tol = 1e-3
    for trial in range(100):
        gens = [_random_jordan_matrix(rng, pool) for _ in range(int(rng.integers(1, 3)))]
        pooled = []
        for g in gens:
            data = jordan_spectral_data(g, cluster_tol)
            for lam, ch in data.as_pairs():
                pooled.append((lam, ch))
        if trial % 2:
            Zt = _member_of_closure(rng, pooled)
        else:
            Zt = _random_jordan_matrix(rng, pool)
        member, p0 = zariski_membership_d1(Zt, gens, cluster_tol=cluster_tol)
        w = full_envelope_membership(mt(Zt), [mt(g) for g in gens])
        assert member == (w is not None), f"trial {trial} disagreement"
        if p0 is not None:
            coeff_scale = max(
                (np.linalg.norm(c) for c in p0.terms.values()), default=1.0
            )
            for g in gens:
                assert np.linalg.norm(_eval_poly(p0, mt(g)), 2) <= 1e-6 * max(1.0, coeff_scale)
            assert np.linalg.norm(_eval_poly(p0, mt(Zt)), 2) > 1e-6
    budget.finish()


def test_10_realized_function_axioms():
    budget = Budget("10 nc-function axioms", 60.0)
    rng = np.random.default_rng(1010)
    Q0 = NcMatrixPolynomial.row_pencil(2)
    for trial in range(100):
        col = random_contractive_colligation(
            int(rng.integers(1, 5)), int(rng.integers(1, 3)), int(rng.integers(1, 3)),
            2, seed=4000 + trial,
        )
        f = RealizedFunction(col, Q0)
        y, u = col.dimY, col.dimU

        n, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        Z = sample_in_domain(Q0, n, rng, target=0.6)
        W = sample_in_domain(Q0, m, rng, target=0.6)
        SZ = transfer_eval(f, Z).reshape(y, n, u, n)
        SW = transfer_eval(f, W).reshape(y, m, u, m)
        big = transfer_eval(f, direct_sum(Z, W)).reshape(y, n + m, u, n + m)
        scale = max(1.0, operator_norm(big.reshape(y * (n + m), u * (n + m))))
        for p in range(y):
            for q in range(u):
                assert np.linalg.norm(big[p, :n, q, :n] - SZ[p, :, q, :]) <= 1e-10 * scale
                assert np.linalg.norm(big[p, n:, q, n:] - SW[p, :, q, :]) <= 1e-10 * scale
                assert np.linalg.norm(big[p, :n, q, n:]) <= 1e-10 * scale
                assert np.linalg.norm(big[p, n:, q, :n]) <= 1e-10 * scale

        Zs = sample_in_domain(Q0, 2, rng, target=0.4)
        alpha = np.eye(2) + 0.15 * complex_gaussian(rng, (2, 2))
        Zc = similarity(Zs, alpha)
        if not in_domain(Q0, Zc):
            continue
        conj_y = np.kron(np.eye(y), alpha)
        conj_u = np.kron(np.eye(u), alpha)
        lhs = transfer_eval(f, Zc)
        rhs = conj_y @ transfer_eval(f, Zs) @ np.linalg.inv(conj_u)
        scale = max(1.0, operator_norm(rhs))
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-8 * np.linalg.cond(alpha) * scale
    budget.finish()


def test_11_zariski_level_16_budget():
    # the exact verdict takes one SVD of side 16 * 16 = 256 per generator,
    # O((n m)^3) against the O(n^3) of clustering eigenvalues: this test
    # took 0.17 s on a 2-core VM with one BLAS thread; the budget keeps that
    # cost written down
    budget = Budget("11 Zariski at level 16", 10.0)
    rng = np.random.default_rng(1111)

    def conjugated(M):
        U, _ = np.linalg.qr(complex_gaussian(rng, M.shape))
        return U @ M @ U.conj().T

    pool = [-0.75, -0.25, 0.3, 0.8]
    gens = [conjugated(block_diag(*(jordan_cell(lam, 4) for lam in pool))),
            conjugated(np.diag(rng.uniform(-0.9, 0.9, 16)))]
    assert zariski_membership_d1(conjugated(gens[0]), gens) == (True, None)
    Zt = complex_gaussian(rng, (16, 16)) / 8
    member, p0 = zariski_membership_d1(Zt, gens)
    assert not member
    assert np.linalg.norm(_eval_poly(p0, mt(Zt)), 2) == pytest.approx(1.0, rel=1e-9)
    budget.finish()
