"""Seeded inputs for the benchmark workloads, built with plain numpy.

Nothing here imports ``ncpick``: free polynomial values, the in-domain
scaling, transfer-function values and the reference outputs come from the
short formulas below, so a change to the library's evaluation or its use of
random numbers cannot change the inputs a benchmark run sends.

Conventions follow the library's documented JSON schema (v1): a polynomial
value is ``sum_w coeff_w (x) Z**w`` (coefficient index major), colligation
blocks have the tensor index outermost, tangential data is
coefficient-major.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


@dataclass
class Request:
    """One CLI call: subcommand, flags, input document and what to expect."""

    command: str
    flags: list
    doc: dict
    label: str
    sizes: dict
    reference: dict = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.label == FEASIBLE

    def argv(self, path: str) -> list:
        return [self.command, *self.flags, path]


# ---------------------------------------------------------------------------
# Numerics (independent of the library)
# ---------------------------------------------------------------------------


def cgauss(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def norm2(M) -> float:
    return float(np.linalg.norm(M, 2))


def all_words(d: int, degree: int) -> list:
    return [w for k in range(1, degree + 1) for w in itertools.product(range(1, d + 1), repeat=k)]


def word_value(Z, word) -> np.ndarray:
    out = np.eye(Z[0].shape[0], dtype=complex)
    for k in word:
        out = out @ Z[k - 1]
    return out


def poly_value(terms, Z, degrees=None) -> np.ndarray:
    """``sum coeff (x) Z**w`` over the terms, optionally only some degrees."""
    n = Z[0].shape[0]
    s, r = next(iter(terms.values())).shape
    out = np.zeros((s * n, r * n), dtype=complex)
    for w, c in terms.items():
        if degrees is None or len(w) in degrees:
            out += np.kron(c, word_value(Z, w))
    return out


def scale_into_norm(terms, Z, target: float, iters: int = 30):
    """Scale ``Z`` by t > 0 so that ``||Q(t Z)|| = target`` (Q(0) = 0).

    ``Q(t Z) = sum_k t**k H_k(Z)`` over the homogeneous parts, so the
    bisection only re-weights fixed matrices.
    """
    degrees = sorted({len(w) for w in terms})
    parts = {k: poly_value(terms, Z, {k}) for k in degrees}

    def at(t):
        return norm2(sum(t ** k * H for k, H in parts.items()))

    hi = 1.0
    while at(hi) < target:
        hi *= 2.0
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if at(mid) < target else (lo, mid)
    return [lo * c for c in Z]


def random_colligation(rng, X: int, u: int, y: int, r: int, norm: float) -> dict:
    G = cgauss(rng, (r * X + y, X + u))
    U = G * (norm / norm2(G))
    rX = r * X
    return {"dimX": X, "dimU": u, "dimY": y, "r": r,
            "A": U[:rX, :X], "B": U[:rX, X:], "C": U[rX:, :X], "D": U[rX:, X:]}


def transfer_value(col: dict, terms, Z) -> np.ndarray:
    """``S(Z) = D (x) I + C_n (I - G)^{-1} K`` with the state in C^n (x) X.

    With ``E_rho`` the rho-th n x n column block of the one-row value Q0(Z),
    the state map is ``G = sum_rho E_rho (x) A_rho`` and the input map is
    ``K[(i, v), (u, j)] = sum_rho E_rho[i, j] B_rho[v, u]``.
    """
    n = Z[0].shape[0]
    X, u, y, r = col["dimX"], col["dimU"], col["dimY"], col["r"]
    QZ = poly_value(terms, Z)
    E = [QZ[:, rho * n:(rho + 1) * n] for rho in range(r)]
    a = col["A"].reshape(r, X, X)
    b = col["B"].reshape(r, X, u)
    G = sum(np.kron(E[rho], a[rho]) for rho in range(r))
    K = sum(np.einsum("ij,vu->ivuj", E[rho], b[rho]) for rho in range(r)).reshape(n * X, u * n)
    Cn = np.einsum("ij,yx->yijx", np.eye(n), col["C"]).reshape(y * n, n * X)
    return np.kron(col["D"], np.eye(n)) + Cn @ np.linalg.solve(np.eye(n * X) - G, K)


# ---------------------------------------------------------------------------
# JSON encodings (schema v1)
# ---------------------------------------------------------------------------


def enc_matrix(M) -> list:
    A = np.atleast_2d(np.asarray(M, dtype=complex))
    return [[[float(z.real), float(z.imag)] for z in row] for row in A]


def enc_tuple(Z) -> dict:
    return {"d": len(Z), "n": Z[0].shape[0], "components": [enc_matrix(c) for c in Z]}


def enc_poly(d: int, terms) -> dict:
    s, r = next(iter(terms.values())).shape
    return {"d": d, "s": s, "r": r,
            "terms": [{"word": list(w), "coeff": enc_matrix(c)} for w, c in terms.items()]}


def enc_colligation(col: dict) -> dict:
    out = {k: col[k] for k in ("dimX", "dimU", "dimY", "r")}
    out.update({k: enc_matrix(col[k]) for k in "ABCD"})
    out["flags"] = []
    return out


# ---------------------------------------------------------------------------
# Polynomials and points
# ---------------------------------------------------------------------------


def row_pencil(d: int) -> dict:
    return {(k,): np.eye(1, d, k - 1, dtype=complex) for k in range(1, d + 1)}


def random_poly(rng, d: int, s: int, r: int, degree: int) -> dict:
    """Every word of length 1..degree with a Gaussian coefficient."""
    return {w: cgauss(rng, (s, r)) / np.sqrt(len(w) + 1) for w in all_words(d, degree)}


def point_at_norm(rng, terms, d: int, n: int, target: float):
    return scale_into_norm(terms, [cgauss(rng, (n, n)) for _ in range(d)], target)


def row_pencil_point(rng, d: int, n: int, target: float):
    """Level-n point with ||[Z_1 ... Z_d]|| = target (closed form: degree 1)."""
    Z = [cgauss(rng, (n, n)) for _ in range(d)]
    t = target / norm2(np.hstack(Z))
    return [t * c for c in Z]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# pick-solve size classes (d, n, dimE, dimY, label), sent in this order in
# every round; three quarters are feasible.  The default amplification is
# k = n dimE, so the amplified level k n reaches 18 at n = 3, dimE = 2.
# Most feasible classes have d = 1, so the median request sits inside one
# cost group (sampling-bound, about 0.45 s on a 2-core x86-64 machine) and
# not at the gap to the d >= 2 groups; the slowest eighth (level-18
# certificates, the d = 3 solve) sets the 90th percentile.
PICK_SOLVE_CLASSES = [
    (1, 1, 1, 1, FEASIBLE),
    (1, 1, 1, 1, INFEASIBLE),
    (1, 2, 1, 2, FEASIBLE),
    (2, 2, 2, 2, FEASIBLE),
    (1, 3, 1, 1, FEASIBLE),
    (3, 3, 2, 2, INFEASIBLE),
    (1, 1, 2, 2, FEASIBLE),
    (2, 3, 1, 2, FEASIBLE),
    (1, 2, 2, 2, FEASIBLE),
    (3, 2, 2, 2, INFEASIBLE),
    (1, 3, 1, 2, FEASIBLE),
    (3, 3, 1, 1, FEASIBLE),
    (1, 2, 2, 1, FEASIBLE),
    (2, 3, 2, 2, INFEASIBLE),
    (2, 1, 2, 1, FEASIBLE),
    (1, 1, 2, 1, FEASIBLE),
]


def _pick_doc(rng, d, n, e, y, X, label):
    Q0 = row_pencil(d)
    Z0 = row_pencil_point(rng, d, n, rng.uniform(0.5, 0.8))
    if label == FEASIBLE:
        col = random_colligation(rng, X, y, y, d, norm=0.95)
        A0 = cgauss(rng, (e * n, y * n)) / np.sqrt(y * n)
        B0 = A0 @ transfer_value(col, Q0, Z0)
    else:
        A0 = np.eye(e * n)
        G = cgauss(rng, (e * n, e * n))
        B0 = G * (rng.uniform(1.25, 1.5) / norm2(G))
    return {"Q0": enc_poly(d, Q0), "Z0": enc_tuple(Z0), "A0": enc_matrix(A0), "B0": enc_matrix(B0)}


def pick_solve_requests(rng, rounds: int) -> list:
    out = []
    for _ in range(rounds):
        for d, n, e, y, label in PICK_SOLVE_CLASSES:
            X = int(rng.integers(1, 7)) if label == FEASIBLE else 0
            sizes = {"d": d, "n": n, "r": d, "dimE": e, "dimY": y, "dimX": X, "k": n * e,
                     "choi_side": e * n * n}
            out.append(Request("pick-solve", [], _pick_doc(rng, d, n, e, y, X, label),
                               label, sizes))
    return out


# certify classes (command, d, level n or point levels, dimE = dimY or r,
# label), sent in this order in every round.  The first class of each
# (command, label) pair is a small one: those are the warm-up requests.
# Costs fall in three groups: small certificates (3 classes), level-16
# certificates at dimE = dimY = 1 (6 classes) and the level-16/18 Choi
# matrices of dimY = 2 and of cp-check (5 classes).  The median request sits
# inside the middle group, away from the gaps between groups.
CERTIFY_CLASSES = [
    ("pick-check", 1, 4, 1, FEASIBLE),
    ("pick-check", 3, 2, 2, INFEASIBLE),
    ("stein-check", 3, 3, 2, FEASIBLE),
    ("stein-check", 2, 2, 2, INFEASIBLE),
    ("cp-check", 3, (5, 4), 2, FEASIBLE),
    ("stein-check", 2, 4, 1, FEASIBLE),
    ("pick-check", 2, 3, 2, FEASIBLE),
    ("pick-check", 2, 4, 1, INFEASIBLE),
    ("cp-check", 2, (6, 6, 6), 3, FEASIBLE),
    ("stein-check", 1, 4, 1, INFEASIBLE),
    ("pick-check", 3, 4, 1, FEASIBLE),
    ("stein-check", 1, 4, 2, INFEASIBLE),
    ("stein-check", 3, 4, 1, FEASIBLE),
    ("cp-check", 1, (8, 7, 3), 1, FEASIBLE),
]


def _certify_request(rng, command, d, n, m, label) -> Request:
    if command == "pick-check":
        e = y = m
        doc = _pick_doc(rng, d, n, e, y, 3, label)
        sizes = {"d": d, "n": n, "r": d, "dimE": e, "dimY": y, "dimX": 3, "k": n * e,
                 "choi_side": e * n * n}
        return Request(command, [], doc, label, sizes)
    if command == "stein-check":
        y = m
        Q0 = row_pencil(d)
        Z0 = row_pencil_point(rng, d, n, rng.uniform(0.5, 0.8))
        if label == FEASIBLE:
            col = random_colligation(rng, 3, y, y, d, norm=0.95)
            L0 = transfer_value(col, Q0, Z0)
        else:
            G = cgauss(rng, (y * n, y * n))
            L0 = G * (rng.uniform(1.25, 1.5) / norm2(G))
        doc = {"Q0": enc_poly(d, Q0), "Z0": enc_tuple(Z0), "Lambda0": enc_matrix(L0)}
        sizes = {"d": d, "n": n, "r": d, "dimE": y, "dimY": y, "dimX": 3, "k": n,
                 "choi_side": y * n * n}
        return Request(command, [], doc, label, sizes)
    levels, r = n, m
    Q0 = random_poly(rng, d, 1, r, 2)
    points = [point_at_norm(rng, Q0, d, lev, rng.uniform(0.4, 0.7)) for lev in levels]
    doc = {"Q0": enc_poly(d, Q0), "points": [enc_tuple(Z) for Z in points]}
    sizes = {"d": d, "n": sum(levels), "r": r, "dimE": 1, "dimY": 1, "dimX": 0, "k": 1,
             "levels": list(levels), "choi_side": sum(levels) ** 2}
    return Request(command, [], doc, label, sizes)


def certify_requests(rng, rounds: int) -> list:
    out = []
    for _ in range(rounds):
        for cls in CERTIFY_CLASSES:
            out.append(_certify_request(rng, *cls))
    return out


# evaluate classes (command, d, level, degree or dimX, extra), sent in this
# order in every round; extra is the row count of an eval polynomial, the
# in/out label of a domain check, dimU of a realization or the okaweil L.
EVALUATE_CLASSES = [
    ("eval", 1, 16, 3, 2),
    ("eval", 3, 8, 3, 1),
    ("eval", 2, 4, 2, 3),
    ("domain-check", 2, 12, 2, FEASIBLE),
    ("domain-check", 3, 6, 3, INFEASIBLE),
    ("domain-check", 1, 16, 1, FEASIBLE),
    ("realize-eval", 2, 16, 8, 1),
    ("realize-eval", 3, 6, 4, 2),
    ("realize-eval", 1, 1, 2, 1),
    ("okaweil", 2, 8, 6, 8),
    ("okaweil", 3, 4, 8, 12),
    ("okaweil", 1, 12, 3, 10),
]


def _evaluate_request(rng, command, d, n, m, extra) -> Request:
    sizes = {"d": d, "n": n, "r": 1, "dimE": 1, "dimY": 1, "dimX": 0, "k": 1, "choi_side": 0}
    if command in ("eval", "domain-check"):
        degree = m
        s = extra if command == "eval" else 1
        terms = random_poly(rng, d, s, d, degree)
        target = 0.6 if command == "eval" or extra == FEASIBLE else 1.5
        Z = point_at_norm(rng, terms, d, n, target)
        value = poly_value(terms, Z)
        sizes.update(r=d, dimE=s, degree=degree)
        doc = {"Q": enc_poly(d, terms), "Z": enc_tuple(Z)}
        if command == "eval":
            return Request(command, [], doc, FEASIBLE, sizes, {"value": value})
        margin = 1.0 - norm2(value)
        label = FEASIBLE if margin > 0 else INFEASIBLE
        return Request(command, [], doc, label, sizes, {"margin": margin})
    X = m
    y = 2 if command == "realize-eval" and d > 1 else 1
    u = extra if command == "realize-eval" else 1
    Q0 = row_pencil(d)
    col = random_colligation(rng, X, u, y, d, norm=0.95)
    sizes.update(r=d, dimY=y, dimX=X)
    if command == "realize-eval":
        Z = row_pencil_point(rng, d, n, 0.8)
        doc = {"colligation": enc_colligation(col), "Q0": enc_poly(d, Q0), "Z": enc_tuple(Z)}
        return Request(command, [], doc, FEASIBLE, sizes,
                       {"value": transfer_value(col, Q0, Z)})
    samples = [row_pencil_point(rng, d, lev, rng.uniform(0.3, 0.8)) for lev in (1, n // 2, n)]
    doc = {"colligation": enc_colligation(col), "Q0": enc_poly(d, Q0),
           "samples": [enc_tuple(Z) for Z in samples]}
    sizes.update(L=extra)
    return Request(command, ["--truncation-L", str(extra)], doc, FEASIBLE, sizes)


def evaluate_requests(rng, rounds: int) -> list:
    out = []
    for _ in range(rounds):
        for cls in EVALUATE_CLASSES:
            out.append(_evaluate_request(rng, *cls))
    return out


REQUESTS_BY_WORKLOAD = {
    "pick-solve": pick_solve_requests,
    "certify": certify_requests,
    "evaluate": evaluate_requests,
}


def generate(workload: str, seed: int, rounds: int) -> tuple[list, list, str]:
    """Requests, their serialized inputs and the SHA-256 digest of those inputs."""
    stream = sorted(REQUESTS_BY_WORKLOAD).index(workload)
    # SeedSequence takes non-negative entries; the mask maps any int to one
    rng = np.random.default_rng([seed & (2 ** 64 - 1), stream])
    requests = REQUESTS_BY_WORKLOAD[workload](rng, rounds)
    texts = [json.dumps(r.doc, separators=(",", ":")) for r in requests]
    h = hashlib.sha256()
    for r, text in zip(requests, texts):
        h.update(" ".join(r.argv("-")).encode())
        h.update(text.encode())
    return requests, texts, h.hexdigest()
