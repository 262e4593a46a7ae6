"""Matrix-tuple foundations for free noncommutative evaluation.

Points are d-tuples of square complex matrices of a common size (the
"level").  Functions of such points are built from free-semigroup words
and from matrix-coefficient free polynomials, evaluated with the fixed
Kronecker convention ``coefficient (x) point``: the value of a polynomial
with s x r coefficients at a level-n point is the (s n) x (r n) matrix
whose (i, j) block of size n x n is ``sum_w (coeff_w)[i, j] * Z**w``.

All containers are immutable after construction; every operation is a
pure function, so the module is safe for concurrent use on shared data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Word",
    "MatrixTuple",
    "NcMatrixPolynomial",
    "IntertwiningReport",
    "DimensionMismatchError",
    "DomainError",
    "word_concat",
    "word_transpose",
    "eval_word",
    "eval_nc_poly",
    "operator_norm",
    "in_domain",
    "domain_margin",
    "direct_sum",
    "similarity",
    "check_intertwining",
    "amp",
    "rep_diag",
]

#: Condition-number bound beyond which a similarity transform is rejected.
SIMILARITY_COND_BOUND = 1e12

#: Absolute (tuples) and norm-relative (values) tolerance of ``check_intertwining``.
INTERTWINING_TOL = 1e-9


class DimensionMismatchError(ValueError):
    """Shapes or variable counts of the operands do not line up."""


class DomainError(ValueError):
    """A point lies outside the noncommutative disk required by the operation."""


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Words of the free semigroup
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Word:
    """A word over the alphabet {1, ..., d}, the empty word being the unit.

    Letters are stored in evaluation order: ``Word((1, 2), d)`` evaluates to
    ``Z_1 @ Z_2`` on a tuple ``Z``.
    """

    letters: tuple[int, ...]
    d: int

    def __post_init__(self) -> None:
        letters = tuple(int(k) for k in self.letters)
        object.__setattr__(self, "letters", letters)
        if self.d < 1:
            raise ValueError("alphabet size d must be >= 1")
        for k in letters:
            if not 1 <= k <= self.d:
                raise ValueError(f"letter {k} outside alphabet 1..{self.d}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    @staticmethod
    def empty(d: int) -> "Word":
        return Word((), d)


def word_concat(a: Word, b: Word) -> Word:
    """Concatenate two words over the same alphabet."""
    if a.d != b.d:
        raise DimensionMismatchError(f"alphabet mismatch: {a.d} vs {b.d}")
    return Word(a.letters + b.letters, a.d)


def word_transpose(a: Word) -> Word:
    """Reverse the letters of a word."""
    return Word(a.letters[::-1], a.d)


# ---------------------------------------------------------------------------
# Points and values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixTuple:
    """A point Z = (Z_1, ..., Z_d) of n x n complex matrices."""

    components: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        comps = tuple(_freeze(c) for c in self.components)
        if not comps:
            raise ValueError("a matrix tuple needs at least one component")
        n = comps[0].shape[0]
        for c in comps:
            if c.ndim != 2 or c.shape != (n, n):
                raise DimensionMismatchError(
                    "all components must be square matrices of a common size"
                )
        object.__setattr__(self, "components", comps)

    @property
    def d(self) -> int:
        return len(self.components)

    @property
    def n(self) -> int:
        return self.components[0].shape[0]

    def scaled(self, t: complex) -> "MatrixTuple":
        return MatrixTuple(tuple(t * c for c in self.components))

    @staticmethod
    def zeros(d: int, n: int) -> "MatrixTuple":
        return MatrixTuple(tuple(np.zeros((n, n), dtype=complex) for _ in range(d)))


# ---------------------------------------------------------------------------
# Free matrix polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NcMatrixPolynomial:
    """Finitely supported map from free words to s x r coefficient matrices.

    Coefficient matrices that are exactly zero are dropped, so equality of
    polynomials is term-map equality.
    """

    d: int
    s: int
    r: int
    terms: Mapping[Word, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        canon: dict[Word, np.ndarray] = {}
        for w, c in self.terms.items():
            if not isinstance(w, Word):
                w = Word(tuple(w), self.d)
            if w.d != self.d:
                raise DimensionMismatchError("term word over a different alphabet")
            c = np.asarray(c, dtype=complex)
            if c.shape != (self.s, self.r):
                raise DimensionMismatchError(
                    f"coefficient shape {c.shape} != ({self.s}, {self.r})"
                )
            if np.any(c != 0):
                canon[w] = _freeze(c)
        object.__setattr__(self, "terms", canon)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NcMatrixPolynomial):
            return NotImplemented
        if (self.d, self.s, self.r) != (other.d, other.s, other.r):
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(np.array_equal(self.terms[w], other.terms[w]) for w in self.terms)

    __hash__ = None  # type: ignore[assignment]

    @property
    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    @staticmethod
    def row_pencil(d: int) -> "NcMatrixPolynomial":
        """The 1 x d pencil [z_1 ... z_d] cutting out the nc row ball."""
        terms = {
            Word((k,), d): np.eye(1, d, k - 1, dtype=complex) for k in range(1, d + 1)
        }
        return NcMatrixPolynomial(d, 1, d, terms)

    @staticmethod
    def diag_pencil(d: int) -> "NcMatrixPolynomial":
        """The d x d pencil diag(z_1, ..., z_d) cutting out the nc polydisk."""
        terms = {}
        for k in range(1, d + 1):
            c = np.zeros((d, d), dtype=complex)
            c[k - 1, k - 1] = 1.0
            terms[Word((k,), d)] = c
        return NcMatrixPolynomial(d, d, d, terms)

    @staticmethod
    def scalar_univariate(coeffs: Sequence[complex]) -> "NcMatrixPolynomial":
        """Scalar d=1 polynomial ``sum coeffs[k] z**k``."""
        terms = {
            Word((1,) * k, 1): np.array([[c]], dtype=complex)
            for k, c in enumerate(coeffs)
        }
        return NcMatrixPolynomial(1, 1, 1, terms)

    @staticmethod
    def from_term_list(
        d: int, s: int, r: int, items: Iterable[tuple[Sequence[int], np.ndarray]]
    ) -> "NcMatrixPolynomial":
        terms: dict[Word, np.ndarray] = {}
        for letters, coeff in items:
            w = Word(tuple(letters), d)
            coeff = np.asarray(coeff, dtype=complex)
            terms[w] = terms.get(w, 0) + coeff
        return NcMatrixPolynomial(d, s, r, terms)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _eval_word(Z: MatrixTuple, a: Word) -> np.ndarray:
    if a.d != Z.d:
        raise DimensionMismatchError("word alphabet does not match the tuple")
    return _word_stack(_as_stack(Z), a)[0]


def eval_word(Z: MatrixTuple, a: Word) -> np.ndarray:
    """Evaluate Z**a, multiplying the components in the written order."""
    return _eval_word(Z, a)


def _as_stack(Z: MatrixTuple) -> np.ndarray:
    """One point as a stack of K = 1 points, shape (1, d, n, n)."""
    return np.array(Z.components)[None]


def _word_stack(Zs: np.ndarray, a: Word) -> np.ndarray:
    """Z**a at each point of a stack ``Zs`` of shape (K, d, n, n)."""
    if not a.letters:
        K, _, n, _ = Zs.shape
        return np.broadcast_to(np.eye(n, dtype=complex), (K, n, n))
    out = Zs[:, a.letters[0] - 1]
    for k in a.letters[1:]:
        out = out @ Zs[:, k - 1]
    return out


def _homogeneous_parts_stack(Q: NcMatrixPolynomial, Zs: np.ndarray) -> dict[int, np.ndarray]:
    """Q(Z) split by word length at each point of a stack ``Zs`` of shape (K, d, n, n).

    Returns ``{k: H_k}`` with H_k of shape (K, s n, r n) and
    H_k(Z) = sum_{|w|=k} coeff_w (x) Z**w, so ``Q(t Z) = sum_k t**k H_k(Z)``.
    Only degrees that carry a term appear.
    """
    K, d, n, _ = Zs.shape
    if Q.d != d:
        raise DimensionMismatchError("polynomial and point have different d")
    words: dict[int, list[Word]] = {}
    for w in Q.terms:
        words.setdefault(len(w), []).append(w)
    parts: dict[int, np.ndarray] = {}
    for k, ws in words.items():
        coeffs = np.array([Q.terms[w] for w in ws])
        values = np.stack([_word_stack(Zs, w) for w in ws], axis=1)
        # coeff (x) Z**w in the coefficient-major layout, summed over the words
        parts[k] = np.einsum("wsr,kwij->ksirj", coeffs, values).reshape(K, Q.s * n, Q.r * n)
    return parts


def _eval_poly_stack(Q: NcMatrixPolynomial, Zs: np.ndarray) -> np.ndarray:
    """Q(Z) at each point of a stack ``Zs`` of shape (K, d, n, n): shape (K, s n, r n)."""
    K, _, n, _ = Zs.shape
    out = np.zeros((K, Q.s * n, Q.r * n), dtype=complex)
    for part in _homogeneous_parts_stack(Q, Zs).values():
        out += part
    return out


def _eval_poly(Q: NcMatrixPolynomial, Z: MatrixTuple) -> np.ndarray:
    return _eval_poly_stack(Q, _as_stack(Z))[0]


def eval_nc_poly(Q: NcMatrixPolynomial, Z: MatrixTuple) -> np.ndarray:
    """Evaluate ``Q(Z) = sum_w coeff_w (x) Z**w``: the (s n) x (r n) value, coefficient-major."""
    return _eval_poly(Q, Z)


def operator_norm(M) -> float:
    """Largest singular value of a matrix."""
    return float(_operator_norms(np.asarray(M, dtype=complex)[None])[0])


def _operator_norms(M: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a stack of shape (K, a, b).

    A single matrix (K = 1) goes through the SVD.  A stack of K > 1 takes
    sigma_max as the square root of the largest eigenvalue of the smaller
    Gram matrix (M M^* or M^* M), from one batched matmul and one batched
    ``eigvalsh`` (closed forms for a side of 1 or 2); each matrix is first
    divided by its largest |entry|, so the Gram matrix neither overflows
    nor underflows.  The Gram matrix is formed with error O(eps) ||M||^2
    and its largest eigenvalue is backward stable, so sigma_max is accurate
    to a few ulps times the smaller side (Demmel 1997, Applied Numerical
    Linear Algebra, 5.2); only the small singular values, which this never
    returns, lose the relative accuracy the SVD would give them.
    """
    K, a, b = M.shape
    if a == 0 or b == 0:
        return np.zeros(K)
    scale = np.abs(M).max(axis=(1, 2))
    if not np.all(np.isfinite(scale)):
        raise ValueError("operator norm of a matrix with non-finite entries")
    if K == 1:
        return np.linalg.svd(M, compute_uv=False)[:, 0]
    scale[scale == 0.0] = 1.0
    S = M / scale[:, None, None]
    Sh = S.conj().swapaxes(1, 2)
    gram = S @ Sh if a <= b else Sh @ S
    side = min(a, b)
    if side == 1:
        top = gram[:, 0, 0].real
    elif side == 2:
        # largest root of the 2 x 2 characteristic polynomial: a sum of two
        # nonnegative terms, so no cancellation
        g11, g22 = gram[:, 0, 0].real, gram[:, 1, 1].real
        top = 0.5 * (g11 + g22) + np.hypot(0.5 * (g11 - g22), np.abs(gram[:, 0, 1]))
    else:
        top = np.linalg.eigvalsh(gram)[:, -1]
    return scale * np.sqrt(np.maximum(top, 0.0))


def domain_margin(Q: NcMatrixPolynomial, Z: MatrixTuple) -> float:
    """1 - ||Q(Z)||; positive exactly on the open disk D_Q."""
    return 1.0 - operator_norm(_eval_poly(Q, Z))


def in_domain(Q: NcMatrixPolynomial, Z: MatrixTuple) -> bool:
    """Whether ||Q(Z)|| < 1; ``domain_margin`` gives the margin itself."""
    return bool(domain_margin(Q, Z) > 0.0)


def _eval_in_domain(Q: NcMatrixPolynomial, Z: MatrixTuple) -> np.ndarray:
    """Q(Z), evaluated once; raises ``DomainError`` unless ||Q(Z)|| < 1."""
    QZ = _eval_poly(Q, Z)
    if not operator_norm(QZ) < 1.0:
        raise DomainError("point lies outside the disk of Q0")
    return QZ


def direct_sum(Z: MatrixTuple, W: MatrixTuple) -> MatrixTuple:
    """Componentwise block-diagonal tuple at level n + m."""
    return direct_sum_many([Z, W])


def direct_sum_many(points: Sequence[MatrixTuple]) -> MatrixTuple:
    """Componentwise block-diagonal tuple of the points, in order."""
    if not points:
        raise ValueError("empty direct sum")
    if any(P.d != points[0].d for P in points):
        raise DimensionMismatchError("tuples have different variable counts")
    N = sum(P.n for P in points)
    comps = np.zeros((points[0].d, N, N), dtype=complex)
    offset = 0
    for P in points:
        comps[:, offset : offset + P.n, offset : offset + P.n] = P.components
        offset += P.n
    return MatrixTuple(tuple(comps))


def similarity(Z: MatrixTuple, alpha) -> MatrixTuple:
    """Conjugated tuple (alpha Z_1 alpha^-1, ..., alpha Z_d alpha^-1).

    alpha must be square of the tuple's level with condition number below
    ``SIMILARITY_COND_BOUND``.
    """
    a = np.asarray(alpha, dtype=complex)
    if a.shape != (Z.n, Z.n):
        raise DimensionMismatchError("similarity matrix has the wrong size")
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > SIMILARITY_COND_BOUND:
        raise ValueError(f"similarity matrix is singular or ill-conditioned (cond={cond:.3g})")
    ainv = np.linalg.inv(a)
    return MatrixTuple(tuple(a @ c @ ainv for c in Z.components))


@dataclass(frozen=True)
class IntertwiningReport:
    """Outcome of an intertwining test; truthy iff both conditions hold."""

    hypothesis_met: bool
    values_intertwine: bool
    tuple_residual: float
    value_residual: float

    def __bool__(self) -> bool:
        return self.hypothesis_met and self.values_intertwine


def check_intertwining(Z: MatrixTuple, Ztilde: MatrixTuple, alpha, V,
                       Vtilde) -> IntertwiningReport:
    """Test the necessary condition for V = f(Z), Vtilde = f(Ztilde).

    Checks ``alpha Z_k = Ztilde_k alpha`` for all k and, on the values,
    ``(alpha (x) I) V = Vtilde (alpha (x) I)`` in the coefficient-major
    layout; both up to ``INTERTWINING_TOL`` (the values relative to their norms).
    """
    if Z.d != Ztilde.d:
        raise DimensionMismatchError("tuples have different variable counts")
    a = np.asarray(alpha, dtype=complex)
    if a.shape != (Ztilde.n, Z.n):
        raise DimensionMismatchError("intertwiner must map level(Z) to level(Ztilde)")
    tuple_resid = max(
        float(np.linalg.norm(a @ Zk - Ztk @ a, 2))
        for Zk, Ztk in zip(Z.components, Ztilde.components)
    )
    V = np.asarray(V, dtype=complex)
    Vt = np.asarray(Vtilde, dtype=complex)
    if V.shape[0] % Z.n or V.shape[1] % Z.n or Vt.shape[0] % Ztilde.n or Vt.shape[1] % Ztilde.n:
        raise DimensionMismatchError("values are not over the tuple levels")
    crow, ccol = V.shape[0] // Z.n, V.shape[1] // Z.n
    if (Vt.shape[0] // Ztilde.n, Vt.shape[1] // Ztilde.n) != (crow, ccol):
        raise DimensionMismatchError("value coefficient dimensions differ")
    left = np.kron(np.eye(crow), a) @ V
    right = Vt @ np.kron(np.eye(ccol), a)
    value_resid = float(np.linalg.norm(left - right, 2))
    scale = max(1.0, float(np.linalg.norm(V, 2)), float(np.linalg.norm(Vt, 2)))
    return IntertwiningReport(
        hypothesis_met=tuple_resid <= INTERTWINING_TOL,
        values_intertwine=value_resid <= INTERTWINING_TOL * scale,
        tuple_residual=tuple_resid,
        value_residual=value_resid,
    )


# ---------------------------------------------------------------------------
# Layout helpers shared by the kernel and realization machinery
# ---------------------------------------------------------------------------


def amp(P: np.ndarray, coeff_dim: int) -> np.ndarray:
    """The operator written ``P (x) I_C`` in coefficient-major layout.

    Acts on C (x) C^m as the identity on the coefficient factor and P on
    the point factor, i.e. ``kron(I_C, P)``.
    """
    P = np.asarray(P, dtype=complex)
    (m, n), c = P.shape, coeff_dim
    # entry (i, a; j, b) is delta_ij P[a, b], multiplied out as np.kron does
    return (np.eye(c)[:, None, :, None] * P[None, :, None, :]).reshape(c * m, c * n)


def rep_diag(V: np.ndarray, k: int, coeff_rows: int, coeff_cols: int) -> np.ndarray:
    """Value of an nc function at a k-fold repeated point.

    Given a value V over levels (coeff_rows * n) x (coeff_cols * m) in the
    coefficient-major layout, returns the value at the k-fold direct sum:
    each coefficient block (p, q) becomes ``I_k (x) V_pq``.
    """
    V = np.asarray(V, dtype=complex)
    n = V.shape[0] // coeff_rows
    m = V.shape[1] // coeff_cols
    blocks = V.reshape(coeff_rows, n, coeff_cols, m)
    # entry (p, a, i; q, b, j) is delta_ab V_pq[i, j], multiplied out as np.kron does
    out = np.eye(k)[None, :, None, None, :, None] * blocks[:, None, :, :, None, :]
    return out.reshape(coeff_rows * k * n, coeff_cols * k * m)
