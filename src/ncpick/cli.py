"""Command-line front end: JSON in, certificates and reports out.

``_COMMANDS`` lists each command's handler and the options it reads; a
command takes only those and echoes them under ``params``.  ``main`` parses
the arguments, reads the input, calls the handler and writes one JSON
document to stdout; diagnostics go to stderr.  Exit codes: 0 for success /
feasible / member, 1 for a well-posed negative answer, 2 for argument,
input or runtime errors (a failed synthesis consistency check is a
``RuntimeError``), each answered with the error document.  No command
takes a seed, and identical input gives byte-identical stdout.
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
    encode_poly,
    encode_truncation_report,
    encode_witness,
    matrix_json,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


_SORTED = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def _holds_text(obj) -> bool:
    return isinstance(obj, JsonText) or (
        isinstance(obj, dict) and any(_holds_text(v) for v in obj.values()))


def _json_parts(obj):
    """The pieces of compact sorted-key JSON text, ``JsonText`` dict values verbatim.

    Joined, they equal ``json.dumps(obj, sort_keys=True, separators=(",",
    ":"), allow_nan=False)`` with each ``JsonText`` in place of the value it
    encodes, so a result that overflowed to inf or NaN raises ``ValueError``
    rather than print non-JSON.  Only dicts that hold a ``JsonText`` are
    walked here; anything else goes to ``json`` in one call.  The caller
    joins the pieces once, so a large ``JsonText`` is copied once.
    """
    if isinstance(obj, JsonText):
        yield obj.text
    elif not _holds_text(obj):
        yield _SORTED.encode(obj)
    else:
        for i, k in enumerate(sorted(obj)):
            yield ("," if i else "{") + _SORTED.encode(k) + ":"
            yield from _json_parts(obj[k])
        yield "}"


def _matrix_text(M) -> JsonText:
    """``matrix_json`` of a computed matrix; inf or NaN raises ``ValueError``, as in ``_SORTED``."""
    if not np.isfinite(M).all():
        raise ValueError("Out of range float values are not JSON compliant")
    return matrix_json(M)


def _read_input(path: str) -> dict:
    if path and path != "-":
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("input must be a JSON object")
    return obj


def _cmd_eval(obj, args) -> tuple[dict, bool]:
    Q = decode_poly(obj["Q"])
    Z = decode_tuple(obj["Z"])
    return {"value": _matrix_text(eval_nc_poly(Q, Z))}, True


def _cmd_domain_check(obj, args) -> tuple[dict, bool]:
    Q = decode_poly(obj["Q"])
    Z = decode_tuple(obj["Z"])
    m = domain_margin(Q, Z)
    inside = bool(m > 0.0)
    return {"in_domain": inside, "margin": m}, inside


def _cmd_envelope(obj, args) -> tuple[dict, bool]:
    Zt = decode_tuple(obj["Ztilde"])
    gens = [decode_tuple(g) for g in obj["generators"]]
    kind = obj.get("kind", "full")
    if kind not in ("full", "similarity"):
        raise ValueError(f"unknown envelope kind {kind!r}")
    w = (full_envelope_membership if kind == "full" else similarity_envelope_membership)(Zt, gens)
    return {"member": w is not None, "witness": encode_witness(w) if w else None}, w is not None


def _cmd_zariski(obj, args) -> tuple[dict, bool]:
    Zt = decode_matrix(obj["Ztilde"])
    omega = [decode_matrix(W) for W in obj["Omega_F"]]
    member, poly = zariski_membership_d1(Zt, omega)
    return {"member": member, "separating_poly": encode_poly(poly) if poly else None}, member


def _cmd_cp_check(obj, args) -> tuple[dict, bool]:
    Q0 = decode_poly(obj["Q0"])
    points = [decode_tuple(p) for p in obj["points"]]
    cert, choi = cp_check_finite(Q0, points, rel_tol=args.tol)
    # the fields of serialize.encode_choi, with the matrix written as JSON text
    return {"certificate": encode_certificate(cert),
            "choi": {"n": choi.n, "block_dim": choi.block_dim,
                     "matrix": _matrix_text(choi.matrix)}}, cert.is_psd


def _decode_pick(obj) -> PickProblem:
    return PickProblem(
        decode_poly(obj["Q0"]),
        decode_tuple(obj["Z0"]),
        decode_matrix(obj["A0"]),
        decode_matrix(obj["B0"]),
    )


def _cmd_pick_check(obj, args) -> tuple[dict, bool]:
    cert, _ = pick_certificate(_decode_pick(obj), rel_tol=args.tol)
    return {"certificate": encode_certificate(cert)}, cert.is_psd


def _cmd_pick_solve(obj, args) -> tuple[dict, bool]:
    rep = solve_pick(_decode_pick(obj), tol=args.tol)
    out = {
        "verdict": rep.certificate.verdict,
        "min_eig": float(rep.certificate.min_eig),
        "feasible": rep.feasible,
    }
    if rep.feasible:
        out["colligation"] = encode_colligation(rep.colligation)
        out["interp_residual"] = float(rep.interp_residual)
        out["contractivity_samples"] = [float(x) for x in rep.contractivity_samples]
    return out, rep.feasible


def _cmd_ltoa_check(obj, args) -> tuple[dict, bool]:
    p = LtoaProblem(decode_tuple(obj["Z0"]), decode_matrix(obj["X"]), decode_matrix(obj["Y"]))
    cert = ltoa_certificate(p, rel_tol=args.tol)
    return {"certificate": encode_certificate(cert)}, cert.is_psd


def _cmd_stein_check(obj, args) -> tuple[dict, bool]:
    cert = stein_dominance_certificate(
        decode_poly(obj["Q0"]),
        decode_tuple(obj["Z0"]),
        decode_matrix(obj["Lambda0"]),
        rel_tol=args.tol,
    )
    return {"certificate": encode_certificate(cert)}, cert.is_psd


def _cmd_realize_eval(obj, args) -> tuple[dict, bool]:
    f = RealizedFunction(decode_colligation(obj["colligation"]), decode_poly(obj["Q0"]))
    return {"value": _matrix_text(transfer_eval(f, decode_tuple(obj["Z"])))}, True


def _cmd_okaweil(obj, args) -> tuple[dict, bool]:
    f = RealizedFunction(decode_colligation(obj["colligation"]), decode_poly(obj["Q0"]))
    samples = [decode_tuple(Z) for Z in obj["samples"]]
    rep = uniform_error_report(f, samples, args.truncation_L)
    return {"report": encode_truncation_report(rep)}, True


def _cmd_selftest(obj, args) -> tuple[dict, bool]:
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

    rep = solve_pick(p)
    results["solve_roundtrip"] = bool(rep.feasible and rep.interp_residual < 1e-8)

    bad = PickProblem(z, MatrixTuple((np.array([[0.0]]),)), np.eye(1), 1.5 * np.eye(1))
    cert_bad, _ = pick_certificate(bad)
    results["infeasible_detected"] = not cert_bad.is_psd

    ok = all(results.values())
    return {"passed": ok, "checks": results}, ok


# Each command's handler and the options it reads, the only ones it takes and
# echoes under "params".  A handler maps the decoded input (None for selftest)
# and the parsed options to its payload and a verdict, exit 0 or 1.
_COMMANDS = {
    "eval": (_cmd_eval, ()),
    "domain-check": (_cmd_domain_check, ()),
    "envelope": (_cmd_envelope, ()),
    "zariski": (_cmd_zariski, ()),
    "cp-check": (_cmd_cp_check, ("tol",)),
    "pick-check": (_cmd_pick_check, ("tol",)),
    "pick-solve": (_cmd_pick_solve, ("tol",)),
    "ltoa-check": (_cmd_ltoa_check, ("tol",)),
    "stein-check": (_cmd_stein_check, ("tol",)),
    "realize-eval": (_cmd_realize_eval, ()),
    "okaweil": (_cmd_okaweil, ("truncation_L",)),
    "selftest": (_cmd_selftest, ()),
}

# Each option's type and default; ``truncation_L`` is the flag ``--truncation-L``.
_OPTIONS = {"tol": (float, 1e-9), "truncation_L": (int, 8)}


class _Parser(argparse.ArgumentParser):
    """A parser whose argument errors raise ``ValueError``, answered with the error document."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every ``main`` call."""
    parser = _Parser(
        prog="ncpick",
        description="Noncommutative Pick interpolation toolkit (JSON in, JSON out)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        sp = sub.add_parser(name)
        if name != "selftest":
            sp.add_argument("input", nargs="?", default="-",
                            help="input JSON file ('-' for stdin)")
        for opt in options:
            kind, default = _OPTIONS[opt]
            sp.add_argument("--" + opt.replace("_", "-"), dest=opt, type=kind, default=default)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "truncation_L", 0) < 0:
            raise ValueError("--truncation-L must be nonnegative")
        if not 0.0 < getattr(args, "tol", 1.0) < np.inf:
            raise ValueError("--tol must be positive and finite")
        handler, options = _COMMANDS[args.command]
        payload, ok = handler(_read_input(args.input) if "input" in args else None, args)
        params = {k: getattr(args, k) for k in options}
        # joined before anything is written, so a failed encoding prints only the error document
        line = "".join([*_json_parts({"v": SCHEMA_VERSION, **payload, "params": params}), "\n"])
    except (KeyError, ValueError, TypeError, OverflowError, OSError, RuntimeError) as exc:
        sys.stdout.write(json.dumps(
            {"v": SCHEMA_VERSION, "error": {"type": type(exc).__name__, "message": str(exc)}},
            sort_keys=True, separators=(",", ":")) + "\n")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    sys.stdout.write(line)
    return EXIT_OK if ok else EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
