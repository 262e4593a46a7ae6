"""JSON encodings shared by the library and the CLI.

Complex scalars are ``[re, im]`` pairs, matrices are row-major nested
arrays of those pairs.  Every decoder validates shapes and raises
``ValueError`` on malformed payloads, non-finite matrix entries included
(``TypeError`` on a matrix entry that is not a number, a string or a bool
included), so the CLI can map them to its error exit code.

``matrix_json`` writes a matrix straight to its compact JSON text, the
bytes ``json`` gives for ``encode_matrix``; exact +0.0 entries and rows
share one encoded copy, and the other entries' floats are formatted in
one batch by ``_float_texts``, which writes ``json``'s text with
``orjson``'s Ryu shortest round-trip digits where their layouts agree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np
import orjson

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


def _float_texts(x) -> list[str]:
    """``json``'s text for each float64 in ``x``, in order.

    Ryu (``orjson``) writes the shortest round-trip digits, as ``repr``
    does, and lays them out as ``repr`` does for 0 and 1e-4 <= |x| < 1e16;
    outside that range ``repr`` switches to ``1e-05`` / ``1e+16`` exponent
    forms that Ryu writes as ``0.00001`` / ``1e16``, and Ryu writes NaN and
    infinities as ``null``, so those floats go through the ``json`` encoder.
    """
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    if not x.size:
        return []
    texts = orjson.dumps(x, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")
    ax = np.abs(x)
    odd = np.flatnonzero(~((ax >= 1e-4) & (ax < 1e16)) & (x != 0))  # NaN compares false
    if odd.size:
        for i, text in zip(odd.tolist(), _COMPACT.encode(x[odd].tolist())[1:-1].split(",")):
            texts[i] = text
    return texts


def matrix_json(M) -> JsonText:
    """``json.dumps(encode_matrix(M), separators=(",", ":"))``, paying only for nonzero entries.

    An entry whose float64 bits are all zero (+0.0 in both parts; -0.0 and
    NaN have nonzero bits) is written as one shared encoded pair, and a row
    of them as one shared encoded row.  The other entries' floats go through
    ``_float_texts`` in one flat array, so every float has the text ``json``
    gives it in any other ncpick document.
    """
    A = np.ascontiguousarray(np.atleast_2d(np.asarray(M, dtype=complex)))
    if A.ndim != 2:
        raise ValueError("matrix_json encodes two-dimensional arrays")
    bits = A.view(np.uint64).reshape(*A.shape, 2)
    own = (bits[..., 0] | bits[..., 1]) != 0  # the entries formatted here
    live = own.any(axis=1)
    zero = _COMPACT.encode([0.0, 0.0])
    zero_row = "[" + ",".join([zero] * A.shape[1]) + "]"
    cells = np.empty((np.count_nonzero(live), A.shape[1]), dtype=object)
    cells.fill(zero)  # np.full converts through a str array: one new string per cell
    floats = _float_texts(A[own].view(np.float64))
    cells[own[live]] = [f"[{re},{im}]" for re, im in zip(floats[0::2], floats[1::2])]
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
