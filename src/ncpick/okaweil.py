"""Polynomial approximation of realized functions.

Truncating the Neumann series of the realization formula at length L gives
a free polynomial q_L; on any sample set with ||Q0(Z)|| <= rho < 1 the
error against the exact transfer function obeys the geometric bound
||C|| ||B|| rho^(L+1) / (1 - rho) whenever the colligation is contractive.
``extract_nc_polynomial`` performs the same truncation symbolically by
word convolution, subject to an explicit word cap.
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
from .realization import (
    Colligation,
    RealizedFunction,
    _readout,
    _state_maps,
    _transfer_stack,
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
    return _partial_sum_stack(f.colligation, _eval_in_domain(f.Q0, Z)[None], L)[0]


def _partial_sum_stack(col: Colligation, QZ: np.ndarray, L: int) -> np.ndarray:
    """``partial_sum_eval`` at K points of one level from their values Q0(Z), (K, n, r n)."""
    G, term = _state_maps(col, QZ)
    acc = term.copy()
    for _ in range(L):
        term = G @ term
        acc += term
    return _readout(col, acc, QZ.shape[1])


def extract_nc_polynomial(f: RealizedFunction, L: int,
                          coeff_tol: float = 0.0,
                          word_cap: int = WORD_CAP) -> NcMatrixPolynomial:
    """Symbolic word expansion of the partial sum at truncation L.

    Convolves the coefficient words of Q0 through the Neumann powers;
    coefficients with norm at most ``coeff_tol`` are dropped.  Raises
    ``WordCapExceededError`` when more than ``word_cap`` distinct words
    would be produced.
    """
    col, Q0 = f.colligation, f.Q0
    X, u, y, r = col.dimX, col.dimU, col.dimY, col.r
    d = Q0.d
    A3 = col.A.reshape(r, X, X)
    B3 = col.B.reshape(r, X, u)

    # one-step series: G_w = (Q_w (x) I_X) A and K_w = (Q_w (x) I_X) B
    G_step: dict[Word, np.ndarray] = {}
    K_step: dict[Word, np.ndarray] = {}
    for w, coeff in Q0.terms.items():
        row = coeff.reshape(r)
        G_step[w] = np.einsum("r,rab->ab", row, A3)
        K_step[w] = np.einsum("r,rau->au", row, B3)

    poly: dict[Word, np.ndarray] = {}

    def add(w: Word, mat: np.ndarray) -> None:
        if w in poly:
            poly[w] = poly[w] + mat
        else:
            if len(poly) >= word_cap:
                raise WordCapExceededError(f"expansion exceeds {word_cap} words")
            poly[w] = mat.copy()

    add(Word.empty(d), col.D.astype(complex))
    term: dict[Word, np.ndarray] = dict(K_step)  # degree bucket: G^j K
    for _ in range(L + 1):
        for w, mat in term.items():
            add(w, col.C @ mat)
        nxt: dict[Word, np.ndarray] = {}
        for w1, g in G_step.items():
            for w2, mat in term.items():
                w = word_concat(w1, w2)
                if w in nxt:
                    nxt[w] = nxt[w] + g @ mat
                else:
                    if len(nxt) >= word_cap:
                        raise WordCapExceededError(f"expansion exceeds {word_cap} words")
                    nxt[w] = g @ mat
        term = nxt

    if coeff_tol > 0.0:
        poly = {w: c for w, c in poly.items() if np.linalg.norm(c) > coeff_tol}
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
    """Compare partial sums against the exact transfer function on samples.

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
    # Q0 is evaluated and normed once per sample; both sums start from that value
    values = [_eval_poly(f.Q0, Z) for Z in K_samples]
    rho = max(operator_norm(QZ) for QZ in values)
    if rho >= 1.0:
        raise DomainError("a sample lies outside the strict subdomain")
    errs = tuple(
        float(np.linalg.norm(_transfer_stack(col, QZ[None])[0]
                             - _partial_sum_stack(col, QZ[None], L)[0], 2))
        for QZ in values
    )
    bound = operator_norm(col.C) * operator_norm(col.B) * rho ** (L + 1) / (1.0 - rho)
    return TruncationReport(L, rho, errs, bound, max(errs))
