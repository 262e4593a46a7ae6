"""Polynomial approximation of realized functions.

Truncating the Neumann series of the realization formula at length L gives
a free polynomial q_L; on any sample set with ||Q0(Z)|| <= rho < 1 the
error against the exact transfer function obeys the geometric bound
||C|| ||B|| rho^(L+1) / (1 - rho) whenever the colligation is contractive.
``extract_nc_polynomial`` performs the same truncation symbolically by
word convolution, subject to an explicit word cap.  The state map is
``kernels._phi_matrix`` with the right factors A_rho, and the error
report's state solve is ``kernels._stein_solve``, the transfer function's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DomainError,
    MatrixTuple,
    NcMatrixPolynomial,
    Word,
    _eval_in_domain,
    _eval_poly,
    operator_norm,
    word_concat,
)
from .kernels import _phi_matrix, _stein_solve
from .realization import (
    RealizedFunction,
    _input_map,
    _output_map,
    _readout,
)

__all__ = [
    "TruncationReport",
    "WordCapExceededError",
    "partial_sum_eval",
    "extract_nc_polynomial",
    "uniform_error_report",
    "WORD_CAP",
]

#: Hard cap on the number of distinct words carried by a symbolic expansion.
WORD_CAP = 4096


class WordCapExceededError(RuntimeError):
    """The symbolic expansion would exceed the configured word cap."""


def partial_sum_eval(f: RealizedFunction, Z: MatrixTuple, L: int) -> np.ndarray:
    """Neumann partial sum of the realization formula at truncation L.

    Returns ``D + sum_{j=0..L} C ((Q0(Z) (x) I_X) A)^j (Q0(Z) (x) I_X) B``
    at level(Z), accumulated Horner style.
    """
    if L < 0:
        raise ValueError("truncation length must be nonnegative")
    col, QZ = f.colligation, _eval_in_domain(f.Q0, Z)[None]
    G = _phi_matrix(QZ, col.A.reshape(col.r, col.dimX, col.dimX))
    term = _input_map(col, QZ)
    acc = term.copy()
    for _ in range(L):
        term = G @ term
        acc += term
    return _readout(col, acc, Z.n)[0]


def extract_nc_polynomial(f: RealizedFunction, L: int) -> NcMatrixPolynomial:
    """Symbolic word expansion of the partial sum at truncation L.

    Convolves the coefficient words of Q0 through the Neumann powers
    G^0 K, ..., G^L K.  Raises ``WordCapExceededError`` when more than
    ``WORD_CAP`` distinct words would be produced.
    """
    col, Q0 = f.colligation, f.Q0
    X, u, y, r = col.dimX, col.dimU, col.dimY, col.r
    d = Q0.d

    # one-step series: G_w = (Q_w (x) I_X) A and K_w = (Q_w (x) I_X) B, the
    # state and input maps at the coefficient rows Q_w as level-1 values
    words = list(Q0.terms)
    rows = np.array([Q0.terms[w] for w in words], dtype=complex).reshape(len(words), 1, r)
    G_step = dict(zip(words, _phi_matrix(rows, col.A.reshape(r, X, X))))
    K_step = dict(zip(words, _phi_matrix(rows, col.B.reshape(r, X, u))))

    def add(bucket: dict[Word, np.ndarray], w: Word, mat: np.ndarray) -> None:
        if w in bucket:
            bucket[w] = bucket[w] + mat
        else:
            if len(bucket) >= WORD_CAP:
                raise WordCapExceededError(f"expansion exceeds {WORD_CAP} words")
            bucket[w] = mat

    poly: dict[Word, np.ndarray] = {Word.empty(d): col.D.astype(complex)}
    term: dict[Word, np.ndarray] = dict(K_step)  # power bucket: G^j K
    for j in range(L + 1):
        for w, mat in term.items():
            add(poly, w, col.C @ mat)
        if j == L:
            break  # G^(L+1) K is not part of the partial sum
        nxt: dict[Word, np.ndarray] = {}
        for w1, g in G_step.items():
            for w2, mat in term.items():
                add(nxt, word_concat(w1, w2), g @ mat)
        term = nxt
    return NcMatrixPolynomial(d, y, u, poly)


@dataclass(frozen=True)
class TruncationReport:
    """Observed vs a-priori uniform error of a truncated realization.

    The construction asserts the bound validity invariant
    ``observed_max <= apriori_bound + 1e-9``.
    """

    L: int
    rho: float
    samples: tuple[float, ...]
    apriori_bound: float
    observed_max: float

    def __post_init__(self) -> None:
        if not self.observed_max <= self.apriori_bound + 1e-9:
            raise AssertionError(
                f"observed error {self.observed_max:.3g} exceeds the bound "
                f"{self.apriori_bound:.3g}"
            )


def uniform_error_report(f: RealizedFunction, K_samples: Sequence[MatrixTuple],
                         L: int) -> TruncationReport:
    """Uniform error of the partial sum at L against the transfer function on samples.

    ``rho`` is the sampled surrogate max ||Q0(Z)|| over the given points,
    not a bound over any abstract compact set; all samples must satisfy
    ||Q0(Z)|| < 1.  Requires a contractive colligation (the geometric
    bound uses ||A|| <= 1).
    """
    if not K_samples:
        raise ValueError("need at least one sample")
    col = f.colligation
    if operator_norm(col.A) > 1 + 1e-10:
        raise ValueError("the a-priori bound needs a contractive colligation")
    # Q0 is evaluated and normed once per sample; the error is read off that value
    values = [_eval_poly(f.Q0, Z) for Z in K_samples]
    rho = max(operator_norm(QZ) for QZ in values)
    if rho >= 1.0:
        raise DomainError("a sample lies outside the strict subdomain")
    errs = []
    A = col.A.reshape(col.r, col.dimX, col.dimX)
    for QZ in values:
        # S(Z) minus the partial sum is the Neumann tail C^(n) G^(L+1) H with
        # (I - G) H = K: one state solve, and no two O(1) values subtracted
        H = _stein_solve(QZ[None], A, _input_map(col, QZ[None]))
        G = _phi_matrix(QZ[None], A)
        for _ in range(L + 1):
            H = G @ H
        errs.append(float(np.linalg.norm(_output_map(col, H, QZ.shape[0])[0], 2)))
    bound = operator_norm(col.C) * operator_norm(col.B) * rho ** (L + 1) / (1.0 - rho)
    return TruncationReport(L, rho, tuple(errs), bound, max(errs))

