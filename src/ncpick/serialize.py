"""JSON encodings shared by the library and the CLI.

Complex scalars are ``[re, im]`` pairs, matrices are row-major nested
arrays of those pairs.  Every decoder validates shapes and raises
``ValueError`` on malformed payloads, non-finite matrix entries included
(``TypeError`` on a matrix entry that is not a number, a string or a bool
included), so the CLI can map them to its error exit code.

``matrix_json`` writes a matrix straight to its compact JSON text, the
bytes ``json`` gives for ``encode_matrix``; exact +0.0 entries and rows
share one encoded copy, and the lower entry of a bitwise conjugate pair
reuses the upper one's text, so a mostly-zero Hermitian Choi matrix
formats each nonzero conjugate pair once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import compress
from typing import Any, Mapping

import numpy as np

from .core import MatrixTuple, NcMatrixPolynomial, Word
from .envelopes import EnvelopeWitness
from .kernels import ChoiMatrix, PsdCertificate
from .okaweil import TruncationReport
from .realization import Colligation

__all__ = [
    "JsonText",
    "encode_matrix",
    "matrix_json",
    "decode_matrix",
    "encode_tuple",
    "decode_tuple",
    "encode_poly",
    "decode_poly",
    "encode_colligation",
    "decode_colligation",
    "encode_certificate",
    "encode_witness",
    "encode_choi",
    "encode_truncation_report",
]


def encode_matrix(M) -> list:
    A = np.atleast_2d(np.asarray(M, dtype=complex))
    return np.stack([A.real, A.imag], -1).tolist()


@dataclass(frozen=True)
class JsonText:
    """Finished JSON text for a writer to insert verbatim.

    Not a ``str``: handing it to ``json`` raises instead of quoting it.
    """

    text: str


# json.dumps(..., separators=(",", ":")) as one reusable encoder
_COMPACT = json.JSONEncoder(separators=(",", ":"))
_SIGN_BIT = np.uint64(1 << 63)


def matrix_json(M) -> JsonText:
    """``json.dumps(encode_matrix(M), separators=(",", ":"))``, paying only for distinct entries.

    An entry whose float64 bits are all zero (+0.0 in both parts; -0.0 and
    NaN have nonzero bits) is written as one shared encoded pair, and a row
    of them as one shared encoded row.  A strictly-lower entry that is the
    bitwise conjugate of its nonzero mirror (same real bits, imaginary bits
    with the sign bit flipped) reuses the mirror's text with the sign of
    the imaginary part toggled, so an exactly Hermitian matrix formats each
    conjugate pair once.  The other entries' floats go through the ``json``
    encoder in one flat list, so every float has the formatting it has in
    any other ncpick document.
    """
    A = np.ascontiguousarray(np.atleast_2d(np.asarray(M, dtype=complex)))
    if A.ndim != 2:
        raise ValueError("matrix_json encodes two-dimensional arrays")
    bits = A.view(np.uint64).reshape(*A.shape, 2)
    own = (bits[..., 0] | bits[..., 1]) != 0  # the entries formatted here
    live = own.any(axis=1)
    rows = np.flatnonzero(live)
    # strictly-lower entries that reuse their mirror's text: the mirror is
    # nonzero, so both lie in live rows and in the columns ``rows``
    mirrored = np.zeros((rows.size, rows.size), dtype=bool)
    is_mirror = np.zeros_like(own)
    if A.shape[0] == A.shape[1]:
        block = np.ix_(rows, rows)
        nz, re_bits, im_bits = own[block], bits[..., 0][block], bits[..., 1][block]
        mirrored = np.tril(nz & nz.T & (re_bits == re_bits.T)
                           & ((im_bits ^ im_bits.T) == _SIGN_BIT), -1)
        own[block] = nz & ~mirrored
        is_mirror[block] = mirrored.T
    zero = _COMPACT.encode([0.0, 0.0])
    zero_row = "[" + ",".join([zero] * A.shape[1]) + "]"
    cells = np.empty((rows.size, A.shape[1]), dtype=object)
    cells.fill(zero)  # np.full converts through a str array: one new string per cell
    # float reprs hold no commas; with no entry to format the split leaves
    # one empty string and the slices make no pair
    floats = _COMPACT.encode(A[own].view(np.float64).tolist())[1:-1].split(",")
    re_text, im_text = floats[0::2], floats[1::2]
    cells[own[live]] = [f"[{re},{im}]" for re, im in zip(re_text, im_text)]
    # in the row-major order of their mirrors, mirrored entries run down the
    # columns; a conjugate toggles the imaginary sign, and NaN has no sign in JSON
    col, k = np.nonzero(mirrored.T)
    cells[k, rows[col]] = [f"[{re},{im if im == 'NaN' else im[1:] if im[0] == '-' else '-' + im}]"
                           for re, im in compress(zip(re_text, im_text), is_mirror[own].tolist())]
    rows_text = iter(cells.tolist())
    return JsonText("[" + ",".join("[" + ",".join(next(rows_text)) + "]" if row_live else zero_row
                                   for row_live in live) + "]")


def decode_matrix(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ValueError("matrix must be a nonempty list of rows")
    width = len(obj[0])
    out = np.empty((len(obj), width), dtype=complex)
    for i, row in enumerate(obj):
        if len(row) != width:
            raise ValueError("ragged matrix rows")
        for j, z in enumerate(row):
            if not (isinstance(z, list) and len(z) == 2):
                raise ValueError("complex scalars are [re, im] pairs")
            if isinstance(z[0], bool) or isinstance(z[1], bool):
                raise TypeError(f"matrix entries must be numbers, got {z!r}")
            out[i, j] = complex(z[0], z[1])
    if not np.isfinite(out).all():
        # Python's json reads NaN and Infinity, which no JSON answer may echo
        raise ValueError("matrix entries must be finite")
    return out


def _integer(value, name: str) -> int:
    """A JSON integer field: an int or, as JSON Schema reads "integer", an integral float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or int(value) != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def encode_tuple(Z: MatrixTuple) -> dict:
    return {"d": Z.d, "n": Z.n, "components": [encode_matrix(c) for c in Z.components]}


def decode_tuple(obj: Mapping[str, Any]) -> MatrixTuple:
    comps = [decode_matrix(c) for c in obj["components"]]
    Z = MatrixTuple(tuple(comps))
    if "d" in obj and _integer(obj["d"], "d") != Z.d:
        raise ValueError("declared d does not match the component count")
    if "n" in obj and _integer(obj["n"], "n") != Z.n:
        raise ValueError("declared n does not match the component size")
    return Z


def encode_poly(Q: NcMatrixPolynomial) -> dict:
    terms = [
        {"word": list(w.letters), "coeff": encode_matrix(c)}
        for w, c in sorted(Q.terms.items(), key=lambda item: (len(item[0]), item[0].letters))
    ]
    return {"d": Q.d, "s": Q.s, "r": Q.r, "terms": terms}


def decode_poly(obj: Mapping[str, Any]) -> NcMatrixPolynomial:
    d, s, r = (_integer(obj[key], key) for key in ("d", "s", "r"))
    terms: dict[Word, np.ndarray] = {}
    for item in obj.get("terms", []):
        w = Word(tuple(_integer(k, "a word letter") for k in item["word"]), d)
        coeff = decode_matrix(item["coeff"])
        terms[w] = terms.get(w, 0) + coeff
    return NcMatrixPolynomial(d, s, r, terms)


def encode_colligation(col: Colligation) -> dict:
    return {
        "dimX": col.dimX,
        "dimU": col.dimU,
        "dimY": col.dimY,
        "r": col.r,
        "A": encode_matrix(col.A) if col.A.size else [],
        "B": encode_matrix(col.B) if col.B.size else [],
        "C": encode_matrix(col.C) if col.C.size else [],
        "D": encode_matrix(col.D),
        "flags": list(col.flags),
    }


def _decode_block(obj, name: str, shape) -> np.ndarray:
    """A colligation block; missing or ``[]`` reads as zeros only for a shape with a zero side."""
    if obj in ([], None):
        if 0 not in shape:
            raise ValueError(f"block {name} of shape {shape} is missing")
        return np.zeros(shape, dtype=complex)
    M = decode_matrix(obj)
    if M.shape != shape:
        raise ValueError(f"block {name} has shape {M.shape}, expected {shape}")
    return M


def decode_colligation(obj: Mapping[str, Any]) -> Colligation:
    dimX, dimU, dimY, r = (_integer(obj[key], key) for key in ("dimX", "dimU", "dimY", "r"))
    shapes = {"A": (r * dimX, dimX), "B": (r * dimX, dimU), "C": (dimY, dimX), "D": (dimY, dimU)}
    flags = obj.get("flags", [])
    if not isinstance(flags, list) or any(f not in ("contractive", "unitary") for f in flags):
        raise ValueError(f'flags must be a list of "contractive" and "unitary", got {flags!r}')
    return Colligation(dimX, dimU, dimY, r,
                       *(_decode_block(obj.get(key), key, shape) for key, shape in shapes.items()),
                       flags=tuple(flags))


def encode_certificate(cert: PsdCertificate) -> dict:
    return {
        "verdict": cert.verdict,
        "min_eig": float(cert.min_eig),
        "tol": float(cert.rel_tol),
        "marginal": bool(cert.marginal),
    }


def encode_witness(w: EnvelopeWitness) -> dict:
    return {
        "kind": w.kind,
        "multiplicities": list(w.multiplicities),
        "matrix": encode_matrix(w.matrix),
    }


def encode_choi(C: ChoiMatrix) -> dict:
    return {"n": C.n, "block_dim": C.block_dim, "matrix": encode_matrix(C.matrix)}


def encode_truncation_report(rep: TruncationReport) -> dict:
    return {
        "L": rep.L,
        "rho": float(rep.rho),
        "samples": [float(e) for e in rep.samples],
        "apriori_bound": float(rep.apriori_bound),
        "observed_max": float(rep.observed_max),
    }
