"""JSON encodings shared by the library and the CLI.

Complex scalars are ``[re, im]`` pairs, matrices are row-major nested
arrays of those pairs.  Every decoder validates shapes and raises
``ValueError`` on malformed payloads so the CLI can map them to its error
exit code.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from .core import MatrixTuple, NcMatrixPolynomial, Word
from .envelopes import EnvelopeWitness
from .kernels import ChoiMatrix, PsdCertificate
from .okaweil import TruncationReport
from .realization import Colligation

__all__ = [
    "encode_matrix",
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
            out[i, j] = complex(float(z[0]), float(z[1]))
    return out


def encode_tuple(Z: MatrixTuple) -> dict:
    return {"d": Z.d, "n": Z.n, "components": [encode_matrix(c) for c in Z.components]}


def decode_tuple(obj: Mapping[str, Any]) -> MatrixTuple:
    comps = [decode_matrix(c) for c in obj["components"]]
    Z = MatrixTuple(tuple(comps))
    if "d" in obj and int(obj["d"]) != Z.d:
        raise ValueError("declared d does not match the component count")
    if "n" in obj and int(obj["n"]) != Z.n:
        raise ValueError("declared n does not match the component size")
    return Z


def encode_poly(Q: NcMatrixPolynomial) -> dict:
    terms = [
        {"word": list(w.letters), "coeff": encode_matrix(c)}
        for w, c in sorted(Q.terms.items(), key=lambda item: (len(item[0]), item[0].letters))
    ]
    return {"d": Q.d, "s": Q.s, "r": Q.r, "terms": terms}


def decode_poly(obj: Mapping[str, Any]) -> NcMatrixPolynomial:
    d, s, r = int(obj["d"]), int(obj["s"]), int(obj["r"])
    terms: dict[Word, np.ndarray] = {}
    for item in obj.get("terms", []):
        w = Word(tuple(int(k) for k in item["word"]), d)
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


def _decode_block(obj, shape) -> np.ndarray:
    if obj == [] or obj is None:
        return np.zeros(shape, dtype=complex)
    M = decode_matrix(obj)
    if M.shape != shape:
        raise ValueError(f"block has shape {M.shape}, expected {shape}")
    return M


def decode_colligation(obj: Mapping[str, Any]) -> Colligation:
    dimX, dimU = int(obj["dimX"]), int(obj["dimU"])
    dimY, r = int(obj["dimY"]), int(obj["r"])
    return Colligation(
        dimX,
        dimU,
        dimY,
        r,
        _decode_block(obj.get("A"), (r * dimX, dimX)),
        _decode_block(obj.get("B"), (r * dimX, dimU)),
        _decode_block(obj.get("C"), (dimY, dimX)),
        _decode_block(obj.get("D"), (dimY, dimU)),
        flags=tuple(obj.get("flags", ())),
    )


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
