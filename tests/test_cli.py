import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncpick
from ncpick import cli, interpolation
from ncpick.cli import main
from ncpick.interpolation import stein_dominance_certificate
from ncpick.kernels import cp_check_finite
from ncpick.realization import Colligation, RealizedFunction, SynthesisConsistencyError, \
    random_contractive_colligation, transfer_eval
from ncpick.sampling import complex_gaussian, sample_in_domain
from ncpick.serialize import (
    decode_colligation,
    decode_matrix,
    encode_certificate,
    encode_choi,
    encode_colligation,
    encode_matrix,
    encode_poly,
    encode_tuple,
)
from ncpick.core import NcMatrixPolynomial, Word, eval_nc_poly

from conftest import jordan_cell, mt, scalar_point, unsampleable_domains


def run_cli(args, payload=None, capsys=None, monkeypatch=None):
    if payload is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    code = main(args)
    out = capsys.readouterr()
    doc = json.loads(out.out) if out.out.strip() else None
    return code, doc, out.out


Z_POLY = encode_poly(NcMatrixPolynomial.scalar_univariate([0, 1]))


class TestDomainCheck:
    def test_inside(self, capsys, monkeypatch):
        payload = {"Q": Z_POLY, "Z": encode_tuple(scalar_point(0.5))}
        code, doc, _ = run_cli(["domain-check"], payload, capsys, monkeypatch)
        assert code == 0
        assert doc["in_domain"] is True
        assert doc["margin"] == pytest.approx(0.5)
        assert doc["v"] == 1

    def test_outside(self, capsys, monkeypatch):
        payload = {"Q": Z_POLY, "Z": encode_tuple(scalar_point(1.5))}
        code, doc, _ = run_cli(["domain-check"], payload, capsys, monkeypatch)
        assert code == 1 and doc["in_domain"] is False


class TestEval:
    def test_polynomial_value(self, capsys, monkeypatch):
        Q = NcMatrixPolynomial.row_pencil(2)
        payload = {"Q": encode_poly(Q), "Z": encode_tuple(scalar_point(0.3, 0.4))}
        code, doc, _ = run_cli(["eval"], payload, capsys, monkeypatch)
        assert code == 0
        assert np.allclose(decode_matrix(doc["value"]), [[0.3, 0.4]])


class TestPick:
    def _payload(self, lam):
        return {
            "Q0": Z_POLY,
            "Z0": encode_tuple(scalar_point(0.0)),
            "A0": encode_matrix(np.eye(1)),
            "B0": encode_matrix(lam * np.eye(1)),
        }

    def test_feasible_exit_zero(self, capsys, monkeypatch):
        code, doc, _ = run_cli(["pick-check"], self._payload(0.5), capsys, monkeypatch)
        assert code == 0 and doc["certificate"]["verdict"] == "psd"

    def test_infeasible_exit_one(self, capsys, monkeypatch):
        code, doc, _ = run_cli(["pick-check"], self._payload(1.5), capsys, monkeypatch)
        assert code == 1
        assert doc["certificate"]["min_eig"] < 0

    def test_solve_round_trips_through_realize_eval(self, capsys, monkeypatch):
        payload = {
            "Q0": Z_POLY,
            "Z0": encode_tuple(scalar_point(0.5)),
            "A0": encode_matrix(np.eye(1)),
            "B0": encode_matrix(0.9 * np.eye(1)),
        }
        code, doc, _ = run_cli(["pick-solve"], payload, capsys, monkeypatch)
        assert code == 0 and doc["feasible"]
        # library-level replay
        col = decode_colligation(doc["colligation"])
        f = RealizedFunction(col, NcMatrixPolynomial.scalar_univariate([0, 1]))
        S0 = transfer_eval(f, scalar_point(0.5))
        assert abs(abs(S0[0, 0] - 0.9) - doc["interp_residual"]) <= 1e-12
        # CLI-level replay: feed the emitted colligation back to realize-eval
        replay = {
            "colligation": doc["colligation"],
            "Q0": Z_POLY,
            "Z": encode_tuple(scalar_point(0.5)),
        }
        code2, doc2, _ = run_cli(["realize-eval"], replay, capsys, monkeypatch)
        assert code2 == 0
        val = decode_matrix(doc2["value"])[0, 0]
        assert abs(abs(val - 0.9) - doc["interp_residual"]) <= 1e-12

    def test_determinism(self, capsys, monkeypatch):
        # identical input gives identical stdout: the samples come from a fixed seed
        payload = {
            "Q0": Z_POLY,
            "Z0": encode_tuple(scalar_point(0.5)),
            "A0": encode_matrix(np.eye(1)),
            "B0": encode_matrix(0.9 * np.eye(1)),
        }
        _, _, out1 = run_cli(["pick-solve"], payload, capsys, monkeypatch)
        _, _, out2 = run_cli(["pick-solve"], payload, capsys, monkeypatch)
        assert out1 == out2

    @pytest.mark.parametrize("samples, count", [(0, 0), (1, 0), (3, 2), (4, 4)])
    def test_solve_draws_samples_per_level(self, capsys, monkeypatch, samples, count):
        # samples // 2 points at each of the levels 1 and 2, none when that is 0;
        # the module constant sets the count, pick-solve takes no --samples
        monkeypatch.setattr(interpolation, "CONTRACTIVITY_SAMPLES", samples)
        code, doc, _ = run_cli(["pick-solve"], self._payload(0.5), capsys, monkeypatch)
        assert code == 0 and doc["params"] == {"tol": 1e-9}
        assert len(doc["contractivity_samples"]) == count

    def test_solve_draws_the_module_sample_count(self, capsys, monkeypatch):
        code, doc, _ = run_cli(["pick-solve"], self._payload(0.5), capsys, monkeypatch)
        assert code == 0
        assert len(doc["contractivity_samples"]) == interpolation.CONTRACTIVITY_SAMPLES

    @pytest.mark.parametrize("Q0", [NcMatrixPolynomial(2, 1, 0, {}),
                                    NcMatrixPolynomial(2, 1, 1, {Word((), 2): 0.5 * np.eye(1)})],
                             ids=["r0", "constant"])
    def test_solve_on_constant_q0(self, capsys, monkeypatch, Q0):
        payload = {
            "Q0": encode_poly(Q0),
            "Z0": encode_tuple(mt([[0.1, 0.2], [0.0, 0.3]], [[0.0, -0.2], [0.4, 0.1]])),
            "A0": encode_matrix(np.eye(2)),
            "B0": encode_matrix(0.5 * np.eye(2)),
        }
        code, doc, _ = run_cli(["pick-check"], payload, capsys, monkeypatch)
        assert code == 0 and doc["certificate"]["verdict"] == "psd"
        code, doc, _ = run_cli(["pick-solve"], payload, capsys, monkeypatch)
        assert code == 0 and doc["feasible"] is True
        norms = doc["contractivity_samples"]
        assert len(norms) == interpolation.CONTRACTIVITY_SAMPLES and max(norms) <= 1 + 1e-9

    @pytest.mark.parametrize("case", unsampleable_domains())
    def test_solve_without_points_of_the_disk(self, capsys, monkeypatch, case):
        Q0, Z0, A0, B0 = unsampleable_domains()[case]
        payload = {"Q0": encode_poly(Q0), "Z0": encode_tuple(Z0),
                   "A0": encode_matrix(A0), "B0": encode_matrix(B0)}
        code, doc, out = run_cli(["pick-solve"], payload, capsys, monkeypatch)
        assert code == 0 and doc["feasible"] is True and doc["verdict"] == "psd"
        assert doc["interp_residual"] <= 1e-10
        norms = doc["contractivity_samples"]
        assert len(norms) == interpolation.CONTRACTIVITY_SAMPLES and max(norms) <= 1 + 1e-9
        assert run_cli(["pick-solve"], payload, capsys, monkeypatch)[2] == out

    def _dead_band_payload(self):
        # |S(0.3)| = 1.0001 is infeasible by a margin of -2.2e-4, inside a 1e-3 band
        return {
            "Q0": Z_POLY,
            "Z0": encode_tuple(scalar_point(0.3)),
            "A0": encode_matrix(np.eye(1)),
            "B0": encode_matrix(1.0001 * np.eye(1)),
        }

    def test_solve_inside_dead_band_synthesizes(self, capsys, monkeypatch):
        code, doc, _ = run_cli(["pick-solve", "--tol", "1e-3"],
                               self._dead_band_payload(), capsys, monkeypatch)
        assert code == 0 and doc["feasible"] and doc["verdict"] == "psd"
        assert doc["min_eig"] == pytest.approx(-2.2e-4, rel=1e-2)
        # the contractive colligation reaches 1, one band-width short of 1.0001
        assert doc["interp_residual"] == pytest.approx(1e-4, rel=1e-6)
        assert max(doc["contractivity_samples"]) <= 1 + 1e-9

    def test_solve_outside_dead_band_is_negative(self, capsys, monkeypatch):
        code, doc, _ = run_cli(["pick-solve", "--tol", "1e-9"],
                               self._dead_band_payload(), capsys, monkeypatch)
        assert code == 1 and not doc["feasible"] and doc["verdict"] == "not_psd"


def _value_problem(scale):
    """Level-3 node of the d = 2 ball and scale times a contractive value there."""
    Q = NcMatrixPolynomial.row_pencil(2)
    Z0 = sample_in_domain(Q, 3, np.random.default_rng(17), 0.6)
    col = random_contractive_colligation(2, 1, 1, 2, seed=17)
    return Q, Z0, scale * transfer_eval(RealizedFunction(col, Q), Z0)


@pytest.mark.parametrize("tol", ["1e-18", "1e-12", "1e-9", "1e-6"])
@pytest.mark.parametrize("command", ["pick-check", "stein-check"])
@pytest.mark.parametrize("scale, verdict", [(0.7, "psd"), (3.0, "not_psd")])
def test_verdict_stable_across_tol(capsys, monkeypatch, tol, command, scale, verdict):
    Q, Z0, L0 = _value_problem(scale)
    margin = stein_dominance_certificate(Q, Z0, L0)
    if verdict == "psd":  # the node-level margin clears every band tried here
        assert margin.min_eig >= 1e-6 * margin.max_eig
    else:
        assert margin.min_eig < -1e-6 * max(1.0, margin.max_eig)
    base = {"Q0": encode_poly(Q), "Z0": encode_tuple(Z0)}
    if command == "pick-check":
        payload = {**base, "A0": encode_matrix(np.eye(3)), "B0": encode_matrix(L0)}
    else:
        payload = {**base, "Lambda0": encode_matrix(L0)}
    code, doc, _ = run_cli([command, "--tol", tol], payload, capsys, monkeypatch)
    assert doc["certificate"]["verdict"] == verdict
    assert code == (0 if verdict == "psd" else 1)
    if verdict == "psd":
        assert doc["certificate"]["marginal"] is False


SCALAR_NODES = (0.3, -0.5, 0.1j)


@pytest.mark.parametrize("tol", ["1e-18", "1e-15", "1e-12", "1e-9", "1e-6", "1e-3"])
def test_cp_check_margin_is_the_pick_matrix(capsys, monkeypatch, tol):
    # the classical Pick matrix of the three nodes has min eig 0.0167, so no
    # band from 1e-18 to 1e-3 makes the verdict marginal or negative
    payload = {"Q0": Z_POLY, "points": [encode_tuple(scalar_point(z)) for z in SCALAR_NODES]}
    code, doc, _ = run_cli(["cp-check", "--tol", tol], payload, capsys, monkeypatch)
    assert code == 0
    cert = doc["certificate"]
    assert cert["verdict"] == "psd" and cert["marginal"] is False
    assert cert["min_eig"] == pytest.approx(0.016688, rel=1e-4)


def _diagonal_pick_payload():
    """The three scalar nodes as one diagonal level-3 node, with values 0.2 z."""
    Z0 = np.diag(SCALAR_NODES)
    return {"Q0": Z_POLY, "Z0": encode_tuple(mt(Z0)), "A0": encode_matrix(np.eye(3)),
            "B0": encode_matrix(0.2 * Z0)}


@pytest.mark.parametrize("tol", ["1e-18", "1e-15", "1e-12", "1e-9", "1e-6", "1e-3"])
def test_pick_check_margin_is_the_pick_matrix(capsys, monkeypatch, tol):
    # the diagonal node's Choi matrix is the classical Pick matrix plus six
    # exactly-zero rows and columns, which the certificate drops
    zs = np.array(SCALAR_NODES)
    pick = (1 - 0.04 * np.outer(zs, zs.conj())) / (1 - np.outer(zs, zs.conj()))
    code, doc, _ = run_cli(["pick-check", "--tol", tol], _diagonal_pick_payload(), capsys,
                           monkeypatch)
    cert = doc["certificate"]
    assert code == 0 and cert["verdict"] == "psd" and cert["marginal"] is False
    assert abs(cert["min_eig"] - np.linalg.eigvalsh(pick)[0]) <= 1e-12


def test_cp_check_stdout_matches_json_encoder(capsys, monkeypatch, rng):
    # a three-point input with levels 1, 2, 2: 16 of the 25 Choi rows are zero
    Q = NcMatrixPolynomial.row_pencil(2)
    points = [sample_in_domain(Q, lev, rng, 0.6) for lev in (1, 2, 2)]
    payload = {"Q0": encode_poly(Q), "points": [encode_tuple(Z) for Z in points]}
    code, _, out = run_cli(["cp-check", "--tol", "1e-8"], payload, capsys, monkeypatch)
    cert, choi = cp_check_finite(Q, points, rel_tol=1e-8)
    matrix = json.dumps(encode_matrix(choi.matrix), separators=(",", ":"))
    assert code == 0
    assert f'"choi":{{"block_dim":5,"matrix":{matrix},"n":5}}' in out
    want = {"v": 1, "certificate": encode_certificate(cert), "choi": encode_choi(choi),
            "params": {"tol": 1e-8}}
    assert out == json.dumps(want, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("command", ["eval", "realize-eval"])
def test_value_stdout_matches_json_encoder(capsys, monkeypatch, command):
    # level 3 with a zero row and entries past the edges of Ryu's layout range
    Q = NcMatrixPolynomial.row_pencil(2)
    Z = mt(*(np.diag([1e-5, 0.3, 0.0]) + 1e-17j * (k + 1) * np.eye(3, k=1) for k in range(2)))
    if command == "eval":
        payload = {"Q": encode_poly(Q), "Z": encode_tuple(Z)}
        value = eval_nc_poly(Q, Z)
    else:
        col = random_contractive_colligation(2, 1, 1, 2, seed=3)
        payload = {"colligation": encode_colligation(col), "Q0": encode_poly(Q),
                   "Z": encode_tuple(Z)}
        value = transfer_eval(RealizedFunction(col, Q), Z)
    code, _, out = run_cli([command], payload, capsys, monkeypatch)
    want = {"v": 1, "value": encode_matrix(value), "params": {}}
    assert code == 0
    assert out == json.dumps(want, sort_keys=True, separators=(",", ":")) + "\n"


def test_cp_check_prints_a_bitwise_hermitian_matrix(capsys, monkeypatch, rng):
    Q = NcMatrixPolynomial.row_pencil(2)
    points = [sample_in_domain(Q, lev, rng, 0.6) for lev in (2, 3)]
    payload = {"Q0": encode_poly(Q), "points": [encode_tuple(Z) for Z in points]}
    code, doc, _ = run_cli(["cp-check"], payload, capsys, monkeypatch)
    assert code == 0
    parts = np.array(doc["choi"]["matrix"])
    re, im = parts[..., 0], parts[..., 1]
    assert np.array_equal(re.view(np.uint64), re.T.view(np.uint64))
    assert np.array_equal(im, -im.T)
    assert np.count_nonzero(im) > 0


class TestOtherCommands:
    def test_ltoa_check(self, capsys, monkeypatch):
        payload = {
            "Z0": encode_tuple(scalar_point(0.5)),
            "X": encode_matrix(np.eye(1)),
            "Y": encode_matrix(0.8 * np.eye(1)),
        }
        code, doc, _ = run_cli(["ltoa-check"], payload, capsys, monkeypatch)
        assert code == 0
        assert doc["certificate"]["min_eig"] == pytest.approx(0.48)

    def test_stein_check(self, capsys, monkeypatch):
        payload = {
            "Q0": Z_POLY,
            "Z0": encode_tuple(scalar_point(0.0)),
            "Lambda0": encode_matrix(1.5 * np.eye(1)),
        }
        code, doc, _ = run_cli(["stein-check"], payload, capsys, monkeypatch)
        assert code == 1

    def test_zariski(self, capsys, monkeypatch):
        payload = {
            "Ztilde": encode_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])),
            "Omega_F": [encode_matrix(np.zeros((1, 1)))],
        }
        code, doc, _ = run_cli(["zariski"], payload, capsys, monkeypatch)
        assert code == 1 and doc["member"] is False
        assert doc["separating_poly"] is not None

    def test_zariski_similar_jordan_block_is_member(self, capsys, monkeypatch):
        # U J4(-0.75) U^* is similar to J4(-0.75), though its computed
        # eigenvalues split about 1e-4 apart
        U, _ = np.linalg.qr(complex_gaussian(np.random.default_rng(7), (4, 4)))
        J = jordan_cell(-0.75, 4)
        payload = {"Ztilde": encode_matrix(U @ J @ U.conj().T), "Omega_F": [encode_matrix(J)]}
        code, doc, _ = run_cli(["zariski"], payload, capsys, monkeypatch)
        assert code == 0 and doc["member"] is True and doc["separating_poly"] is None

    def test_envelope(self, capsys, monkeypatch):
        Z = encode_tuple(mt(np.zeros((1, 1))))
        payload = {"Ztilde": Z, "generators": [Z], "kind": "full"}
        code, doc, _ = run_cli(["envelope"], payload, capsys, monkeypatch)
        assert code == 0 and doc["member"] is True

    @pytest.mark.parametrize("kind", ["full", "similarity"])
    def test_envelope_variable_count_mismatch_is_an_error(self, capsys, monkeypatch, kind):
        # a d = 1 point and a d = 2 generator: both kinds refuse the input
        payload = {"Ztilde": encode_tuple(mt(np.array([[0.5]]))),
                   "generators": [encode_tuple(mt(np.eye(2), np.eye(2)))], "kind": kind}
        code, doc, _ = run_cli(["envelope"], payload, capsys, monkeypatch)
        assert code == 2
        assert doc["error"] == {"type": "DimensionMismatchError",
                                "message": "tuples over different variable counts"}

    def test_cp_check(self, capsys, monkeypatch):
        payload = {
            "Q0": Z_POLY,
            "points": [encode_tuple(scalar_point(0.4)), encode_tuple(scalar_point(-0.2))],
        }
        code, doc, _ = run_cli(["cp-check"], payload, capsys, monkeypatch)
        assert code == 0 and doc["certificate"]["verdict"] == "psd"

    def test_okaweil_report(self, capsys, monkeypatch):
        from ncpick.realization import random_contractive_colligation
        from ncpick.serialize import encode_colligation

        col = random_contractive_colligation(2, 1, 1, 1, seed=0)
        payload = {
            "colligation": encode_colligation(col),
            "Q0": Z_POLY,
            "samples": [encode_tuple(scalar_point(z)) for z in (0.3, -0.2)],
        }
        code, doc, _ = run_cli(["okaweil", "--truncation-L", "6"], payload, capsys,
                               monkeypatch)
        assert code == 0
        rep = doc["report"]
        assert rep["observed_max"] <= rep["apriori_bound"] + 1e-9
        assert rep["L"] == 6

    def test_selftest(self, capsys, monkeypatch):
        code, doc, _ = run_cli(["selftest"], None, capsys, monkeypatch)
        assert code == 0 and doc["passed"]


class TestErrors:
    def test_runtime_error_answers_the_error_document(self, capsys, monkeypatch):
        def fail(*args):
            raise SynthesisConsistencyError("Gram equality violated")

        monkeypatch.setattr(interpolation, "_synthesize", fail)
        code, doc, out = run_cli(["pick-solve"], _diagonal_pick_payload(), capsys, monkeypatch)
        assert code == 2 and out.count("\n") == 1
        assert doc["error"] == {"type": "SynthesisConsistencyError",
                                "message": "Gram equality violated"}

    def test_tiny_tol_solve_answers_one_line(self, capsys, monkeypatch):
        # the data is feasible with margin 0.016; at --tol 1e-18 the Gram check
        # may fail on rounding, which is an error (2), never infeasible (1)
        code, doc, out = run_cli(["pick-solve", "--tol", "1e-18"], _diagonal_pick_payload(),
                                 capsys, monkeypatch)
        assert code in (0, 2) and out.count("\n") == 1
        assert doc["v"] == 1 and ("error" in doc) == (code == 2)

    def test_malformed_json_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("{not json"))
        code = main(["domain-check"])
        out = capsys.readouterr()
        assert code == 2
        doc = json.loads(out.out)
        assert "error" in doc

    def test_string_entries_exit_two(self, capsys, monkeypatch):
        # a JSON string is not a number, even one that spells a number
        payload = {"Q": Z_POLY, "Z": {"components": [[[["0.5", "0"]]]]}}
        code, doc, _ = run_cli(["eval"], payload, capsys, monkeypatch)
        assert code == 2 and doc["error"]["type"] == "TypeError"

    def test_missing_key_exit_two(self, capsys, monkeypatch):
        code, doc, _ = run_cli(["domain-check"], {"Q": Z_POLY}, capsys, monkeypatch)
        assert code == 2 and "error" in doc

    def test_bad_tol_rejected(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("{}"))
        code = main(["domain-check", "--tol", "-1"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "1e400", "-inf", "0"])
    @pytest.mark.parametrize("command, payload", [
        # the Pick matrix of the node 0.5 is 1 / (1 - 0.25) = 1.33
        ("cp-check", {"Q0": Z_POLY, "points": [encode_tuple(scalar_point(0.5))]}),
        ("pick-solve", {"Q0": Z_POLY, "Z0": encode_tuple(scalar_point(0.5)),
                        "A0": encode_matrix(np.eye(1)), "B0": encode_matrix(0.9 * np.eye(1))}),
    ])
    def test_tol_outside_the_positive_reals_rejected(self, capsys, monkeypatch, command,
                                                     payload, tol):
        code, _, out = run_cli([command, f"--tol={tol}"], payload, capsys, monkeypatch)
        assert code == 2
        doc = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))
        assert doc["error"] == {"type": "ValueError",
                                "message": "--tol must be positive and finite"}

    @pytest.mark.parametrize("text", [
        # an integer literal beyond the float range as a matrix entry
        json.dumps({"Q": Z_POLY, "Z": {"d": 1, "n": 1, "components": [[[[10**400, 0]]]]}}),
        # a float literal that overflows to infinity as a variable count
        json.dumps({"Q": {**Z_POLY, "d": "D"}, "Z": encode_tuple(scalar_point(0.5))})
        .replace('"D"', "1e400"),
    ], ids=["entry-beyond-float-range", "variable-count-1e400"])
    def test_overflow_while_decoding_exit_two(self, capsys, monkeypatch, text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code = main(["eval"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2 and doc["error"]["type"] == "OverflowError"

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("command, payload", [
        ("eval", {"Q": Z_POLY, "Z": {"d": 1, "n": 1, "components": [[[["X", 0.0]]]]}}),
        ("pick-solve", {"Q0": Z_POLY, "Z0": encode_tuple(scalar_point(0.5)),
                        "A0": encode_matrix(np.eye(1)), "B0": [[[0.9, "X"]]]}),
    ])
    def test_non_finite_entries_rejected(self, capsys, monkeypatch, command, payload, literal):
        # Python's json reads these literals; the answer must still be strict JSON
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload).replace('"X"', literal)))
        code = main([command])
        out = capsys.readouterr().out
        doc = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))
        assert code == 2
        assert doc["error"] == {"type": "ValueError", "message": "matrix entries must be finite"}

    def test_overflowing_result_rejected(self, capsys, monkeypatch):
        # finite entries whose value overflows: z_1^2 at 1e200 is inf
        Q = {"d": 1, "s": 1, "r": 1, "terms": [{"word": [1, 1], "coeff": [[[1.0, 0.0]]]}]}
        payload = {"Q": Q, "Z": encode_tuple(scalar_point(1e200))}
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, out = run_cli(["eval"], payload, capsys, monkeypatch)
        doc = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))
        assert code == 2 and doc["error"]["type"] == "ValueError"

    def test_overflowing_transfer_value_rejected(self, capsys, monkeypatch):
        # finite blocks whose transfer value C z B at z = 0.5 is 5e399, inf
        col = {"dimX": 1, "dimU": 1, "dimY": 1, "r": 1, "A": [[[0.0, 0.0]]],
               "B": [[[1e200, 0.0]]], "C": [[[1e200, 0.0]]], "D": [[[0.0, 0.0]]]}
        payload = {"colligation": col, "Q0": Z_POLY, "Z": encode_tuple(scalar_point(0.5))}
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, out = run_cli(["realize-eval"], payload, capsys, monkeypatch)
        doc = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))
        assert code == 2 and doc["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("command, payload, message", [
        # each read as z_1 before integer fields were checked
        ("eval", {"Q": {**Z_POLY, "d": 1.9, "terms": [{"word": [1.7], "coeff": [[[1.0, 0.0]]]}]},
                  "Z": encode_tuple(scalar_point(0.5))}, "d must be an integer, got 1.9"),
        ("eval", {"Q": {**Z_POLY, "d": True}, "Z": encode_tuple(scalar_point(0.5))},
         "d must be an integer, got True"),
        ("eval", {"Q": {**Z_POLY, "s": "1"}, "Z": encode_tuple(scalar_point(0.5))},
         "s must be an integer, got '1'"),
        ("eval", {"Q": {**Z_POLY, "terms": [{"word": [1.5], "coeff": [[[1.0, 0.0]]]}]},
                  "Z": encode_tuple(scalar_point(0.5))},
         "a word letter must be an integer, got 1.5"),
        ("eval", {"Q": Z_POLY, "Z": {**encode_tuple(scalar_point(0.5)), "n": "1"}},
         "n must be an integer, got '1'"),
        ("realize-eval", {"colligation": {"dimX": 0, "dimU": True, "dimY": 1, "r": 1,
                                          "D": [[[0.5, 0.0]]]},
                          "Q0": Z_POLY, "Z": encode_tuple(scalar_point(0.5))},
         "dimU must be an integer, got True"),
    ], ids=["fractional-d-and-letter", "bool-d", "string-s", "fractional-letter", "string-n",
            "bool-dimU"])
    def test_integer_fields_must_be_integers(self, capsys, monkeypatch, command, payload,
                                             message):
        code, _, out = run_cli([command], payload, capsys, monkeypatch)
        doc = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))
        assert code == 2
        assert doc["error"] == {"type": "ValueError", "message": message}

    def test_integral_float_fields_accepted(self, capsys, monkeypatch):
        # a float of zero fractional part is an integer, as in JSON Schema
        payload = {"Q": {**Z_POLY, "d": 1.0, "terms": [{"word": [1.0], "coeff": [[[1.0, 0.0]]]}]},
                   "Z": encode_tuple(scalar_point(0.5))}
        code, doc, _ = run_cli(["eval"], payload, capsys, monkeypatch)
        assert code == 0 and doc["value"] == [[[0.5, 0.0]]]

    @pytest.mark.parametrize("flags, message", [
        # a string is not a list of flags, and an unknown flag is not ignored
        ("unitary", "flags must be a list of \"contractive\" and \"unitary\", got 'unitary'"),
        (["bogus"], "flags must be a list of \"contractive\" and \"unitary\", got ['bogus']"),
        (["unitary"], "colligation flagged unitary is not unitary"),
    ], ids=["string", "unknown-flag", "not-unitary"])
    def test_colligation_flags_checked(self, capsys, monkeypatch, flags, message):
        col = {"dimX": 1, "dimU": 1, "dimY": 1, "r": 1, "A": [[[0.5, 0.0]]], "B": [[[0.0, 0.0]]],
               "C": [[[0.0, 0.0]]], "D": [[[0.5, 0.0]]], "flags": flags}
        payload = {"colligation": col, "Q0": Z_POLY, "Z": encode_tuple(scalar_point(0.5))}
        code, doc, _ = run_cli(["realize-eval"], payload, capsys, monkeypatch)
        assert code == 2
        assert doc["error"] == {"type": "ValueError", "message": message}

    @pytest.mark.parametrize("block", [None, []], ids=["missing", "empty"])
    def test_colligation_blocks_required(self, capsys, monkeypatch, block):
        # a block may be left out only where its shape has a zero side
        col = {"dimX": 1, "dimU": 1, "dimY": 1, "r": 1, "D": [[[0.5, 0.0]]]}
        col.update({} if block is None else {"A": block, "B": block, "C": block})
        payload = {"colligation": col, "Q0": Z_POLY, "Z": encode_tuple(scalar_point(0.5))}
        code, doc, _ = run_cli(["realize-eval"], payload, capsys, monkeypatch)
        assert code == 2
        assert doc["error"] == {"type": "ValueError",
                                "message": "block A of shape (1, 1) is missing"}

    def test_stateless_colligation_round_trips(self, capsys, monkeypatch):
        # encode_colligation writes [] for the empty blocks of dimX = 0
        col = Colligation(0, 1, 1, 1, np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
                          [[0.5]], flags=("contractive",))
        encoded = encode_colligation(col)
        assert encoded["A"] == encoded["B"] == encoded["C"] == []
        payload = {"colligation": encoded, "Q0": Z_POLY, "Z": encode_tuple(scalar_point(0.5))}
        code, doc, _ = run_cli(["realize-eval"], payload, capsys, monkeypatch)
        assert code == 0 and doc["value"] == [[[0.5, 0.0]]]

    def test_params_echoed(self, capsys, monkeypatch):
        payload = VALID_DOCUMENTS["pick-solve"]
        _, doc, _ = run_cli(["pick-solve", "--tol", "1e-8"], payload, capsys, monkeypatch)
        assert doc["params"] == {"tol": 1e-8}

    def test_flags_do_not_leak_between_calls(self, capsys, monkeypatch):
        payload = VALID_DOCUMENTS["pick-solve"]
        _, first, _ = run_cli(["pick-solve", "--tol", "1e-8"], payload, capsys, monkeypatch)
        assert first["params"] == {"tol": 1e-8}
        _, second, _ = run_cli(["pick-solve"], payload, capsys, monkeypatch)
        assert second["params"] == {"tol": 1e-9}

    @pytest.mark.parametrize("argv, message", [
        # the value after an unread flag is taken for the input file name
        (["eval", "--samples", "5"], "unrecognized arguments: --samples"),
        (["eval", "--tol", "1e-3"], "unrecognized arguments: --tol"),
        (["domain-check", "--tol", "-1"], "unrecognized arguments: --tol"),
        (["envelope", "--max-multiplicity", "2"], "unrecognized arguments: --max-multiplicity"),
        (["okaweil", "--truncation-L", "x"], "argument --truncation-L: invalid int value: 'x'"),
        (["pick-solve", "--bogus"], "unrecognized arguments: --bogus"),
        (["pick-solve", "--samples", "10"], "unrecognized arguments: --samples"),
        (["pick-solve", "--seed", "3"], "unrecognized arguments: --seed"),
        (["okaweil", "--truncation-L", "-1"], "--truncation-L must be nonnegative"),
        ([], "the following arguments are required: command"),
    ], ids=["unread-samples", "unread-tol", "unread-negative-tol", "envelope-takes-no-flags",
            "bad-type", "unknown-flag", "pick-solve-takes-no-samples",
            "pick-solve-takes-no-seed", "negative-truncation-L", "no-command"])
    def test_argument_errors_answer_with_the_error_document(self, capsys, monkeypatch, argv,
                                                            message):
        # checked before the input is read: stdin holds no document
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        code, doc, out = run_cli(argv, None, capsys, monkeypatch)
        assert code == 2 and out.count("\n") == 1
        assert doc == {"v": 1, "error": {"type": "ValueError", "message": message}}

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["eval", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(
            f"ncpick {ncpick.__version__}" if argv == ["--version"] else "usage: ncpick")


def _valid_documents() -> dict:
    """A small valid input document for each of the 11 input-taking commands."""
    point = encode_tuple(scalar_point(0.5))
    Z = encode_tuple(mt(np.array([[0.5]])))
    col = encode_colligation(random_contractive_colligation(2, 1, 1, 1, seed=0))
    pick = {"Q0": Z_POLY, "Z0": point, "A0": encode_matrix(np.eye(1)),
            "B0": encode_matrix(0.9 * np.eye(1))}
    return {
        "eval": {"Q": encode_poly(NcMatrixPolynomial.row_pencil(2)),
                 "Z": encode_tuple(scalar_point(0.3, 0.4))},
        "domain-check": {"Q": Z_POLY, "Z": point},
        "envelope": {"Ztilde": Z, "generators": [Z], "kind": "full"},
        "zariski": {"Ztilde": encode_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])),
                    "Omega_F": [encode_matrix(np.zeros((1, 1)))]},
        "cp-check": {"Q0": Z_POLY, "points": [encode_tuple(scalar_point(z)) for z in (0.4, -0.2)]},
        "pick-check": pick,
        "pick-solve": pick,
        "ltoa-check": {"Z0": point, "X": encode_matrix(np.eye(1)),
                       "Y": encode_matrix(0.8 * np.eye(1))},
        "stein-check": {"Q0": Z_POLY, "Z0": point, "Lambda0": encode_matrix(0.5 * np.eye(1))},
        "realize-eval": {"colligation": col, "Q0": Z_POLY, "Z": point},
        "okaweil": {"colligation": col, "Q0": Z_POLY,
                    "samples": [encode_tuple(scalar_point(z)) for z in (0.3, -0.2)]},
    }


VALID_DOCUMENTS = _valid_documents()

# numbers written into the input text as literals, which Python's json reads
# (1e400 as infinity)
_LITERALS = ("NaN", "1e400", "-1e400")
_MARK = "@literal@"


def _sites(doc, path=()):
    """The path of every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) \
        else ()
    for key, value in items:
        yield path + (key,)
        yield from _sites(value, path + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _mutations(doc) -> list[tuple]:
    """Every (path, kind) of one mutation of a document.

    A key or list element dropped, one more list element (a shape
    mismatch), a value nested one level deeper or a list one level
    shallower, and a number replaced by a literal, a fraction, a bool, a
    string or a negative value.
    """
    out = []
    for path in _sites(doc):
        parent = _parent(doc, path)
        value = parent[path[-1]]
        kinds = ["drop", "deeper"] + (["duplicate"] if isinstance(parent, list) else []) \
            + (["shallower"] if isinstance(value, list) and value else [])
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            kinds += [*_LITERALS, "fraction", "bool", "string", "negative"]
        out += [(path, kind) for kind in kinds]
    return out


def _mutated_text(doc, path, kind) -> str:
    doc = json.loads(json.dumps(doc))
    parent = _parent(doc, path)
    key, value = path[-1], parent[path[-1]]
    if kind == "drop":
        del parent[key]
    elif kind == "duplicate":
        parent.insert(key, value)
    else:
        parent[key] = {"deeper": lambda: [value], "shallower": lambda: value[0],
                       "fraction": lambda: value + 0.5, "bool": lambda: True,
                       "string": lambda: str(value), "negative": lambda: -abs(value) - 1,
                       }.get(kind, lambda: _MARK)()
    return json.dumps(doc).replace(json.dumps(_MARK), kind)


def answer(command, text):
    """Exit code, stdout and stderr of ``main([command])`` with ``text`` on stdin."""
    stdin, out, err = sys.stdin, io.StringIO(), io.StringIO()
    try:
        sys.stdin = io.StringIO(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(VALID_DOCUMENTS))
def test_valid_documents_answer(command):
    # the starting points of the input-contract property are valid input, and
    # params holds exactly the command's options
    code, out, _ = answer(command, json.dumps(VALID_DOCUMENTS[command]))
    doc = json.loads(out)
    assert code in (0, 1) and "error" not in doc
    assert set(doc["params"]) == set(cli._COMMANDS[command][1])


@pytest.mark.parametrize("command", sorted(VALID_DOCUMENTS))
@given(data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_mutated_input_answers_with_one_document(command, data):
    # one mutation of a valid document: the answer is one strict JSON line,
    # exit 2 exactly for the error document, and no traceback
    doc = VALID_DOCUMENTS[command]
    path, kind = data.draw(st.sampled_from(_mutations(doc)))
    code, out, err = answer(command, _mutated_text(doc, path, kind))
    assert code in (0, 1, 2)
    assert out.endswith("\n") and out.count("\n") == 1
    answered = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))
    assert (code == 2) == (set(answered) == {"v", "error"})
    assert "Traceback" not in err
    # every number in a valid document is a matrix entry or an integer field,
    # and neither takes a boolean
    assert kind != "bool" or code == 2


NO_SCIPY_SCRIPT = """
import importlib, json, pkgutil, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import numpy as np
import ncpick
for mod in pkgutil.iter_modules(ncpick.__path__):
    importlib.import_module("ncpick." + mod.name)
from ncpick.cli import main
from ncpick.core import MatrixTuple, NcMatrixPolynomial
from ncpick.realization import lurking_isometry_synthesize
code = main(["pick-solve"])
Z0 = MatrixTuple((np.array([[0.5, 0.2], [0.0, -0.3]], dtype=complex),))
col, _ = lurking_isometry_synthesize(NcMatrixPolynomial.scalar_univariate([0, 1]), Z0,
                                     np.eye(2), 0.9 * np.eye(2), completion="unitary")
print(json.dumps({"exit": code, "flags": list(col.flags)}))
"""


def test_runs_without_scipy():
    # every module imports, pick-solve synthesizes and the unitary completion
    # runs in an interpreter where scipy cannot be imported
    src = str(Path(ncpick.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    payload = {
        "Q0": Z_POLY,
        "Z0": encode_tuple(scalar_point(0.5)),
        "A0": encode_matrix(np.eye(1)),
        "B0": encode_matrix(0.9 * np.eye(1)),
    }
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], env=env,
                         input=json.dumps(payload), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    solve, synth = (json.loads(line) for line in out.stdout.splitlines())
    assert solve["feasible"] and "colligation" in solve
    assert synth == {"exit": 0, "flags": ["unitary", "contractive"]}
