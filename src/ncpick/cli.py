"""Command-line front end: JSON in, certificates and reports out.

Exit codes: 0 for success / feasible / member, 1 for a well-posed negative
answer, 2 for input or runtime errors.  stdout carries exactly one JSON
document; diagnostics go to stderr.  Identical input with identical flags
produces byte-identical stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .core import NcMatrixPolynomial, domain_margin, eval_nc_poly
from .envelopes import (
    full_envelope_membership,
    similarity_envelope_membership,
    zariski_membership_d1,
)
from .interpolation import (
    LtoaProblem,
    PickProblem,
    ltoa_certificate,
    pick_certificate,
    solve_pick,
    stein_dominance_certificate,
)
from .kernels import szego_kernel_solve, cp_check_finite
from .okaweil import uniform_error_report
from .realization import RealizedFunction, transfer_eval
from .serialize import (
    JsonText,
    decode_colligation,
    decode_matrix,
    decode_poly,
    decode_tuple,
    encode_certificate,
    encode_colligation,
    encode_matrix,
    encode_poly,
    encode_truncation_report,
    encode_witness,
    matrix_json,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


_SORTED = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _holds_text(obj) -> bool:
    return isinstance(obj, JsonText) or (
        isinstance(obj, dict) and any(_holds_text(v) for v in obj.values()))


def _dumps(obj) -> str:
    """Compact sorted-key JSON that writes ``JsonText`` dict values verbatim.

    Equals ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` with
    each ``JsonText`` in place of the value it encodes.  Only dicts that
    hold one are walked here; anything else goes to ``json`` in one call.
    """
    if isinstance(obj, JsonText):
        return obj.text
    if not _holds_text(obj):
        return _SORTED.encode(obj)
    return "{" + ",".join(f"{_SORTED.encode(k)}:{_dumps(obj[k])}" for k in sorted(obj)) + "}"


def _emit(payload: dict, params: dict) -> None:
    payload = {"v": SCHEMA_VERSION, **payload, "params": params}
    sys.stdout.write(_dumps(payload) + "\n")


def _params(args: argparse.Namespace) -> dict:
    keep = ("tol", "seed", "max_multiplicity", "truncation_L", "samples")
    return {k: getattr(args, k) for k in keep if getattr(args, k, None) is not None}


def _read_input(args: argparse.Namespace) -> dict:
    if args.input and args.input != "-":
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("input must be a JSON object")
    return obj


def _cmd_eval(args) -> int:
    obj = _read_input(args)
    Q = decode_poly(obj["Q"])
    Z = decode_tuple(obj["Z"])
    _emit({"value": encode_matrix(eval_nc_poly(Q, Z))}, _params(args))
    return EXIT_OK


def _cmd_domain_check(args) -> int:
    obj = _read_input(args)
    Q = decode_poly(obj["Q"])
    Z = decode_tuple(obj["Z"])
    m = domain_margin(Q, Z)
    inside = bool(m > 0.0)
    _emit({"in_domain": inside, "margin": m}, _params(args))
    return EXIT_OK if inside else EXIT_NEGATIVE


def _cmd_envelope(args) -> int:
    obj = _read_input(args)
    Zt = decode_tuple(obj["Ztilde"])
    gens = [decode_tuple(g) for g in obj["generators"]]
    kind = obj.get("kind", "full")
    searches = {"full": full_envelope_membership, "similarity": similarity_envelope_membership}
    search = searches.get(kind) if isinstance(kind, str) else None
    if search is None:
        raise ValueError(f"unknown envelope kind {kind!r}")
    w = search(Zt, gens, max_multiplicity=args.max_multiplicity, seed=args.seed)
    _emit({"member": w is not None, "witness": encode_witness(w) if w else None},
          _params(args))
    return EXIT_OK if w is not None else EXIT_NEGATIVE


def _cmd_zariski(args) -> int:
    obj = _read_input(args)
    Zt = decode_matrix(obj["Ztilde"])
    omega = [decode_matrix(W) for W in obj["Omega_F"]]
    member, poly = zariski_membership_d1(Zt, omega)
    _emit({"member": member, "separating_poly": encode_poly(poly) if poly else None},
          _params(args))
    return EXIT_OK if member else EXIT_NEGATIVE


def _cmd_cp_check(args) -> int:
    obj = _read_input(args)
    Q0 = decode_poly(obj["Q0"])
    points = [decode_tuple(p) for p in obj["points"]]
    cert, choi = cp_check_finite(Q0, points, rel_tol=args.tol)
    # the fields of serialize.encode_choi, with the matrix written as JSON text
    _emit({"certificate": encode_certificate(cert),
           "choi": {"n": choi.n, "block_dim": choi.block_dim,
                    "matrix": matrix_json(choi.matrix)}}, _params(args))
    return EXIT_OK if cert.is_psd else EXIT_NEGATIVE


def _decode_pick(obj) -> PickProblem:
    return PickProblem(
        decode_poly(obj["Q0"]),
        decode_tuple(obj["Z0"]),
        decode_matrix(obj["A0"]),
        decode_matrix(obj["B0"]),
    )


def _cmd_pick_check(args) -> int:
    p = _decode_pick(_read_input(args))
    cert, _ = pick_certificate(p, rel_tol=args.tol)
    _emit({"certificate": encode_certificate(cert)}, _params(args))
    return EXIT_OK if cert.is_psd else EXIT_NEGATIVE


def _cmd_pick_solve(args) -> int:
    p = _decode_pick(_read_input(args))
    rep = solve_pick(p, tol=args.tol, samples=args.samples, seed=args.seed)
    out = {
        "verdict": rep.certificate.verdict,
        "min_eig": float(rep.certificate.min_eig),
        "feasible": rep.feasible,
    }
    if rep.feasible:
        out["colligation"] = encode_colligation(rep.colligation)
        out["interp_residual"] = float(rep.interp_residual)
        out["contractivity_samples"] = [float(x) for x in rep.contractivity_samples]
    _emit(out, _params(args))
    return EXIT_OK if rep.feasible else EXIT_NEGATIVE


def _cmd_ltoa_check(args) -> int:
    obj = _read_input(args)
    p = LtoaProblem(decode_tuple(obj["Z0"]), decode_matrix(obj["X"]), decode_matrix(obj["Y"]))
    cert = ltoa_certificate(p, rel_tol=args.tol)
    _emit({"certificate": encode_certificate(cert)}, _params(args))
    return EXIT_OK if cert.is_psd else EXIT_NEGATIVE


def _cmd_stein_check(args) -> int:
    obj = _read_input(args)
    cert = stein_dominance_certificate(
        decode_poly(obj["Q0"]),
        decode_tuple(obj["Z0"]),
        decode_matrix(obj["Lambda0"]),
        rel_tol=args.tol,
    )
    _emit({"certificate": encode_certificate(cert)}, _params(args))
    return EXIT_OK if cert.is_psd else EXIT_NEGATIVE


def _cmd_realize_eval(args) -> int:
    obj = _read_input(args)
    f = RealizedFunction(decode_colligation(obj["colligation"]), decode_poly(obj["Q0"]))
    val = transfer_eval(f, decode_tuple(obj["Z"]))
    _emit({"value": encode_matrix(val)}, _params(args))
    return EXIT_OK


def _cmd_okaweil(args) -> int:
    obj = _read_input(args)
    f = RealizedFunction(decode_colligation(obj["colligation"]), decode_poly(obj["Q0"]))
    samples = [decode_tuple(Z) for Z in obj["samples"]]
    rep = uniform_error_report(f, samples, args.truncation_L)
    _emit({"report": encode_truncation_report(rep)}, _params(args))
    return EXIT_OK


def _cmd_selftest(args) -> int:
    results = {}

    z = NcMatrixPolynomial.scalar_univariate([0, 1])
    from .core import MatrixTuple

    half = MatrixTuple((np.array([[0.5]]),))
    results["szego_scalar"] = bool(
        abs(szego_kernel_solve(z, half, half, np.eye(1))[0, 0] - 4.0 / 3.0) < 1e-12
    )

    lam = 0.9
    p = PickProblem(z, MatrixTuple((np.array([[0.5]]),)), np.eye(1), lam * np.eye(1))
    cert, _ = pick_certificate(p)
    classical = (1 - lam**2) / (1 - 0.25)
    results["classical_pick"] = bool(cert.is_psd and abs(cert.min_eig - classical) < 1e-10)

    rep = solve_pick(p, samples=10, seed=args.seed)
    results["solve_roundtrip"] = bool(rep.feasible and rep.interp_residual < 1e-8)

    bad = PickProblem(z, MatrixTuple((np.array([[0.0]]),)), np.eye(1), 1.5 * np.eye(1))
    cert_bad, _ = pick_certificate(bad)
    results["infeasible_detected"] = not cert_bad.is_psd

    ok = all(results.values())
    _emit({"passed": ok, "checks": results}, _params(args))
    return EXIT_OK if ok else EXIT_NEGATIVE


_COMMANDS = {
    "eval": _cmd_eval,
    "domain-check": _cmd_domain_check,
    "envelope": _cmd_envelope,
    "zariski": _cmd_zariski,
    "cp-check": _cmd_cp_check,
    "pick-check": _cmd_pick_check,
    "pick-solve": _cmd_pick_solve,
    "ltoa-check": _cmd_ltoa_check,
    "stein-check": _cmd_stein_check,
    "realize-eval": _cmd_realize_eval,
    "okaweil": _cmd_okaweil,
    "selftest": _cmd_selftest,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="ncpick",
        description="Noncommutative Pick interpolation toolkit (JSON in, JSON out)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    needs_input = set(_COMMANDS) - {"selftest"}
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        if name in needs_input:
            sp.add_argument("input", nargs="?", default="-",
                            help="input JSON file ('-' for stdin)")
        sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--max-multiplicity", dest="max_multiplicity", type=int, default=None)
        sp.add_argument("--truncation-L", dest="truncation_L", type=int, default=8)
        sp.add_argument("--samples", type=int, default=100)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name in ("samples", "truncation_L"):
            if getattr(args, name) < 0:
                raise ValueError(f"--{name} must be nonnegative")
        if not 0.0 < args.tol < np.inf:
            raise ValueError("--tol must be positive and finite")
        return _COMMANDS[args.command](args)
    except (KeyError, ValueError, TypeError, OverflowError, json.JSONDecodeError,
            OSError) as exc:
        sys.stdout.write(json.dumps(
            {"v": SCHEMA_VERSION, "error": {"type": type(exc).__name__, "message": str(exc)}},
            sort_keys=True, separators=(",", ":")) + "\n")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
