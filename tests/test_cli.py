import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncpick
from ncpick.cli import main
from ncpick.interpolation import stein_dominance_certificate
from ncpick.kernels import cp_check_finite
from ncpick.realization import RealizedFunction, random_contractive_colligation, transfer_eval
from ncpick.sampling import sample_in_domain
from ncpick.serialize import (
    decode_colligation,
    decode_matrix,
    encode_certificate,
    encode_choi,
    encode_matrix,
    encode_poly,
    encode_tuple,
)
from ncpick.core import NcMatrixPolynomial

from conftest import mt, scalar_point


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
        code, doc, _ = run_cli(["pick-solve", "--samples", "10"], payload, capsys,
                               monkeypatch)
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
        payload = {
            "Q0": Z_POLY,
            "Z0": encode_tuple(scalar_point(0.5)),
            "A0": encode_matrix(np.eye(1)),
            "B0": encode_matrix(0.9 * np.eye(1)),
        }
        _, _, out1 = run_cli(["pick-solve", "--seed", "3", "--samples", "5"],
                             payload, capsys, monkeypatch)
        _, _, out2 = run_cli(["pick-solve", "--seed", "3", "--samples", "5"],
                             payload, capsys, monkeypatch)
        assert out1 == out2

    def _dead_band_payload(self):
        # |S(0.3)| = 1.0001 is infeasible by a margin of -2.2e-4, inside a 1e-3 band
        return {
            "Q0": Z_POLY,
            "Z0": encode_tuple(scalar_point(0.3)),
            "A0": encode_matrix(np.eye(1)),
            "B0": encode_matrix(1.0001 * np.eye(1)),
        }

    def test_solve_inside_dead_band_synthesizes(self, capsys, monkeypatch):
        code, doc, _ = run_cli(["pick-solve", "--tol", "1e-3", "--samples", "10"],
                               self._dead_band_payload(), capsys, monkeypatch)
        assert code == 0 and doc["feasible"] and doc["verdict"] == "psd"
        assert doc["min_eig"] == pytest.approx(-2.2e-4, rel=1e-2)
        # the contractive colligation reaches 1, one band-width short of 1.0001
        assert doc["interp_residual"] == pytest.approx(1e-4, rel=1e-6)
        assert max(doc["contractivity_samples"]) <= 1 + 1e-9

    def test_solve_outside_dead_band_is_negative(self, capsys, monkeypatch):
        code, doc, _ = run_cli(["pick-solve", "--tol", "1e-9", "--samples", "10"],
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
            "params": {"samples": 100, "seed": 0, "tol": 1e-8, "truncation_L": 8}}
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

    def test_envelope(self, capsys, monkeypatch):
        Z = encode_tuple(mt(np.zeros((1, 1))))
        payload = {"Ztilde": Z, "generators": [Z], "kind": "full"}
        code, doc, _ = run_cli(["envelope"], payload, capsys, monkeypatch)
        assert code == 0 and doc["member"] is True

    @pytest.mark.parametrize("kind", ["full", "similarity"])
    @pytest.mark.parametrize("bound", ["0", "-2"])
    def test_envelope_multiplicity_bound_is_an_error(self, capsys, monkeypatch, kind, bound):
        Z = encode_tuple(mt(np.array([[0.5]])))
        payload = {"Ztilde": Z, "generators": [Z], "kind": kind}
        code, doc, _ = run_cli(["envelope", "--max-multiplicity", bound], payload,
                               capsys, monkeypatch)
        assert code == 2
        assert doc["error"] == {"type": "ValueError",
                                "message": "max_multiplicity must be at least 1"}

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
    def test_malformed_json_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("{not json"))
        code = main(["domain-check"])
        out = capsys.readouterr()
        assert code == 2
        doc = json.loads(out.out)
        assert "error" in doc

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

    def test_params_echoed(self, capsys, monkeypatch):
        payload = {"Q": Z_POLY, "Z": encode_tuple(scalar_point(0.5))}
        _, doc, _ = run_cli(["domain-check", "--tol", "1e-8", "--seed", "7"],
                            payload, capsys, monkeypatch)
        assert doc["params"]["tol"] == 1e-8
        assert doc["params"]["seed"] == 7

    def test_flags_do_not_leak_between_calls(self, capsys, monkeypatch):
        payload = {"Q": Z_POLY, "Z": encode_tuple(scalar_point(0.5))}
        _, first, _ = run_cli(["domain-check", "--samples", "5", "--tol", "1e-8",
                               "--truncation-L", "3"], payload, capsys, monkeypatch)
        assert first["params"] == {"samples": 5, "seed": 0, "tol": 1e-8, "truncation_L": 3}
        _, second, _ = run_cli(["domain-check"], payload, capsys, monkeypatch)
        assert second["params"] == {"samples": 100, "seed": 0, "tol": 1e-9, "truncation_L": 8}


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
code = main(["pick-solve", "--samples", "10"])
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
