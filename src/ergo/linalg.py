"""Dense matrix primitives: induced p-norms, projectors, eigen machinery,
and the validated row-stochastic matrix type.

Matrices are plain float64 numpy arrays; `as_matrix` / `as_vector` are the
validation gates every public operation goes through.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import PreconditionError

INF = math.inf

ROW_TOLERANCE = 1e-10
DIAGONALIZABLE_COND = 1e8
#: how far a distribution may fall outside the simplex before renormalizing
DISTRIBUTION_TOL = 1e-9


def as_pnorm(p):
    """Normalize a p-norm selector to 1, 2 or math.inf; reject everything else."""
    if isinstance(p, str):
        p = p.strip().lower()
        if p in ("inf", "infinity", "oo"):
            return INF
        try:
            p = float(p)
        except ValueError:
            raise PreconditionError(f"unsupported p-norm {p!r}; use 1, 2 or inf")
    if p == 1:
        return 1
    if p == 2:
        return 2
    if p == INF or p == np.inf:
        return INF
    raise PreconditionError(f"unsupported p-norm {p!r}; only p in {{1, 2, inf}} is exact")


def as_matrix(a, name="matrix"):
    """Coerce to a finite 2-D float array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise PreconditionError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise PreconditionError(f"{name} contains non-finite entries")
    return m


def as_vector(x, name="vector"):
    """Coerce to a finite 1-D float array."""
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.size == 0:
        raise PreconditionError(f"{name} is empty")
    if not np.all(np.isfinite(v)):
        raise PreconditionError(f"{name} contains non-finite entries")
    return v


def _anchored(v, A):
    """The validated anchor and matrix of tau_p(v, A), Psi_q(v, A) and their
    oracles: finite, v nonzero with one entry per row of A."""
    v = as_vector(v, "anchor")
    A = as_matrix(A)
    if A.shape[0] != len(v):
        raise PreconditionError(f"anchor length {len(v)} does not match {A.shape[0]} rows")
    if not np.any(v):
        raise PreconditionError("anchor must be nonzero")
    return v, A


def _as_count(x, name, least):
    """x as an int of at least `least`: numpy integers pass, and a fraction
    or a string is refused rather than truncated."""
    try:
        x = operator.index(x)
    except TypeError:
        raise PreconditionError(f"{name} must be an integer") from None
    if x < least:
        raise PreconditionError(f"{name} must be at least {least}")
    return x


def as_distribution(x, name="distribution"):
    """Validate membership in the probability simplex and renormalize exactly."""
    v = as_vector(x, name)
    if np.min(v) < -DISTRIBUTION_TOL:
        raise PreconditionError(f"{name} has negative entries beyond tolerance")
    v = np.clip(v, 0.0, None)
    s = v.sum()
    if abs(s - 1.0) > DISTRIBUTION_TOL:
        raise PreconditionError(f"{name} sums to {s}, not 1 within {DISTRIBUTION_TOL}")
    return v / s


def induced_pnorm(A, p):
    """Exact induced p-norm: max column sum (p=1), spectral norm via SVD (p=2),
    max row sum (p=inf).

    The SVD is the independent leg that the tests and `verify` hold the
    p = 2 closed forms against; those take the top eigenvalue of a Gram
    matrix in `ergodicity._spectral_norms` instead.
    """
    A = as_matrix(A)
    p = as_pnorm(p)
    if A.size == 0:
        return 0.0
    if p == 1:
        return float(np.max(np.sum(np.abs(A), axis=0)))
    if p == INF:
        return float(np.max(np.sum(np.abs(A), axis=1)))
    return float(np.linalg.norm(A, 2))


def orthogonal_projector(v):
    """P_v = I - v v^T / ||v||^2, the orthogonal projector onto the hyperplane v-perp."""
    v = as_vector(v)
    n2 = float(v @ v)
    if n2 <= 0.0:
        raise PreconditionError("projector anchor must be nonzero")
    return np.eye(len(v)) - np.outer(v, v) / n2


def oblique_projector(w):
    """Q_w = I - 1 w^T with w^T 1 = 1 within 1e-8; idempotent, kernel <1>,
    image w-perp."""
    w = as_vector(w)
    s = float(w.sum())
    if abs(s - 1.0) > 1e-8:
        raise PreconditionError(f"oblique anchor must satisfy w^T 1 = 1, got {s}")
    n = len(w)
    return np.eye(n) - np.outer(np.ones(n), w)


def _incidence_rows(n):
    """C_n^T, the transposed oriented incidence matrix of the complete graph
    on n nodes, in float64: one row e_i - e_j per ordered pair (i, j),
    i != j, in lexicographic order."""
    if n < 2:
        raise PreconditionError("complete graph incidence needs n >= 2")
    # off-diagonal positions in row-major order are exactly these pairs
    head, tail = np.nonzero(~np.eye(n, dtype=bool))
    rows = np.arange(n * (n - 1))
    R = np.zeros((n * (n - 1), n))
    R[rows, head] = 1
    R[rows, tail] = -1
    return R


def _boolean_primitive(mask, n):
    """Primitivity of a nonnegative pattern by boolean powering.

    A pattern with some all-positive power has one at or before the Wielandt
    bound (n-1)^2 + 1; positivity is monotone once every row is nonempty, so
    a single power >= the bound decides.  Each square is a float64 BLAS
    product of 0/1 matrices, whose entries are integers of at most n and so
    exact.
    """
    if np.all(mask):
        return True
    if not mask.any(axis=1).all() or not mask.any(axis=0).all():
        return False
    bound = (n - 1) ** 2 + 1
    power = mask.astype(np.float64)
    steps = 1
    while steps < bound:
        power = np.minimum(power @ power, 1.0)
        steps *= 2
        if np.all(power):
            return True
    return bool(np.all(power))


def _stochastic_stack(ms):
    """The checks of `StochasticMatrix` on a stack ms (K, n, n) of float
    matrices, in one pass: the stack with each matrix clamped and its rows
    normalized, and the flags doubly_stochastic, positive_diagonal and
    primitive of each matrix, as three (K,) arrays.

    A check that some matrix fails raises its PreconditionError; the checks
    run in the order of one matrix's (finite, square, entries, row sums),
    so on a stack of one the error is that matrix's own.  The stack is made
    row-major first, so the row sums, to the last bit, do not depend on how
    the caller laid a matrix out.
    """
    if not np.isfinite(ms).all():
        raise PreconditionError("stochastic matrix contains non-finite entries")
    K, n, cols = ms.shape
    if n != cols:
        raise PreconditionError(f"stochastic matrix must be square, got {(n, cols)}")
    if n == 0:
        raise PreconditionError("stochastic matrix must have at least one state")
    m = np.ascontiguousarray(ms)
    if m.min() < -ROW_TOLERANCE:
        raise PreconditionError("negative entries beyond row tolerance")
    m = np.clip(m, 0.0, None)
    sums = m.sum(axis=2)
    if np.abs(sums - 1.0).max() > ROW_TOLERANCE:
        raise PreconditionError("row sums deviate from 1 beyond tolerance")
    m /= sums[:, :, None]
    doubly = np.abs(m.sum(axis=1) - 1.0).max(axis=1) <= ROW_TOLERANCE
    positive_diagonal = m.diagonal(axis1=1, axis2=2).min(axis=1) > 0.0
    mask = m > 0.0
    # an all-positive matrix is primitive; only the others are powered
    primitive = mask.all(axis=(1, 2))
    for k in np.flatnonzero(~primitive):
        primitive[k] = _boolean_primitive(mask[k], n)
    return m, doubly, positive_diagonal, primitive


class StochasticMatrix:
    """Validated row-stochastic square matrix with cached structural flags.

    Entries below -ROW_TOLERANCE or rows off unit sum beyond ROW_TOLERANCE
    fail construction; smaller deviations are clamped/renormalized so that
    downstream certificates never see silently corrected garbage.  This is
    the one place a chain is accepted: every public entry point taking a
    chain goes through `StochasticMatrix.of`, and the checks themselves are
    `_stochastic_stack`, which `contraction.as_sequence` runs once on a
    whole sequence.  `matrix` is row-major whatever the input's layout.
    """

    @classmethod
    def of(cls, A, primitive_for=None):
        """A itself when already validated, a new StochasticMatrix otherwise.

        With `primitive_for` naming the operation, a non-primitive chain
        raises PreconditionError("<primitive_for> needs a primitive matrix").
        """
        S = A if isinstance(A, cls) else cls(A)
        if primitive_for is not None and not S.primitive:
            raise PreconditionError(f"{primitive_for} needs a primitive matrix")
        return S

    @classmethod
    def _checked(cls, *checked):
        """A StochasticMatrix of one matrix of a stack and its three flags,
        as `_stochastic_stack` returns them, with no check repeated."""
        S = cls.__new__(cls)
        S._hold(*checked)
        return S

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2:
            raise PreconditionError(f"stochastic matrix must be 2-D, got shape {m.shape}")
        self._hold(*(x[0] for x in _stochastic_stack(m[None])))

    def _hold(self, matrix, doubly_stochastic, positive_diagonal, primitive):
        self.matrix = matrix
        self.n = matrix.shape[0]
        self.doubly_stochastic = bool(doubly_stochastic)
        self.positive_diagonal = bool(positive_diagonal)
        self.primitive = bool(primitive)

    def __repr__(self):
        return (f"StochasticMatrix(n={self.n}, primitive={self.primitive}, "
                f"doubly_stochastic={self.doubly_stochastic}, "
                f"positive_diagonal={self.positive_diagonal})")


def dominant_pair(A):
    """Right/left dominant eigen-pair (1_n, pi) of a primitive stochastic matrix.

    pi is found by power iteration on A^T (with a direct linear solve as
    fallback for slowly mixing chains), and a residual ||A^T pi - pi||_1
    above 1e-12 is refused.  The residual does not certify pi: it bounds the
    error only through 1/(1 - tau_1), so on a nearly decomposable chain
    (two blocks coupled by 1e-12) pi can be far off entrywise with its
    residual below 1e-12.
    """
    A = StochasticMatrix.of(A, "a unique stationary distribution")
    M = A.matrix.T
    n = A.n
    pi = np.full(n, 1.0 / n)
    for _ in range(100_000):
        nxt = M @ pi
        nxt /= nxt.sum()
        if np.linalg.norm(M @ nxt - nxt, 1) <= 1e-12:
            pi = nxt
            break
        pi = nxt
    else:
        # direct solve of (A^T - I) pi = 0 with the simplex normalization
        sys = np.vstack([M - np.eye(n), np.ones((1, n))])
        rhs = np.zeros(n + 1)
        rhs[-1] = 1.0
        pi = np.linalg.lstsq(sys, rhs, rcond=None)[0]
        pi = np.clip(pi, 0.0, None)
        pi /= pi.sum()
        for _ in range(200):
            if np.linalg.norm(M @ pi - pi, 1) <= 1e-12:
                break
            pi = M @ pi
            pi /= pi.sum()
    residual = np.linalg.norm(M @ pi - pi, 1)
    if residual > 1e-12:
        raise PreconditionError(f"stationary residual {residual:.3e} above 1e-12")
    return np.ones(n), as_distribution(pi)


@dataclass
class EigenDecomposition:
    """Eigenvalues sorted by descending modulus plus the eigenvector basis.

    When the eigenvector matrix is well conditioned (below the 1e8 threshold)
    `basis` holds it and `diagonalizable` is set.  If LAPACK's vectors fail
    that test, each repeated real eigenvalue gets an orthonormal basis of its
    eigenspace (and exactly real values) and the test is repeated.
    Otherwise the basis is rejected: `basis` is None.
    """

    values: np.ndarray
    diagonalizable: bool
    basis: np.ndarray | None


def _condition(vectors):
    try:
        return float(np.linalg.cond(vectors))
    except np.linalg.LinAlgError:
        return math.inf


def _by_modulus(values, vectors):
    order = np.argsort(-np.abs(values), kind="stable")
    return values[order], vectors[:, order]


def _orthonormal_eigenspaces(A, values, vectors):
    """Each repeated real eigenvalue whose eigenspace has full dimension gets
    an orthonormal basis of it and exactly real values.  LAPACK returns nearly
    parallel vectors for such an eigenvalue (J/4: condition number 2.7e17)
    and may split it into conjugate pairs with 1e-33 imaginary parts (J/7).
    Eigenvalues within 1e-9 max(1, |lambda_1|) of each other form a cluster."""
    values, vectors = values.copy(), vectors.copy()
    tol = 1e-9 * max(1.0, float(np.abs(values[0])))
    todo = np.ones(len(values), dtype=bool)
    for i in range(len(values)):
        cluster = np.flatnonzero(todo & (np.abs(values - values[i].real) <= tol))
        todo[cluster] = False
        if len(cluster) > 1:
            space = scipy.linalg.null_space(A - np.mean(values[cluster].real) * np.eye(len(A)))
            if space.shape[1] == len(cluster):
                values[cluster], vectors[:, cluster] = values[cluster].real, space
    return _by_modulus(values, vectors)


def eigendecompose(A):
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise PreconditionError("eigendecomposition needs a square matrix")
    if A.size == 0:
        raise PreconditionError("matrix must have at least one entry")
    values, vectors = _by_modulus(*np.linalg.eig(A))
    diagonalizable = _condition(vectors) < DIAGONALIZABLE_COND
    if not diagonalizable:
        values, vectors = _orthonormal_eigenspaces(A, values, vectors)
        diagonalizable = _condition(vectors) < DIAGONALIZABLE_COND
    return EigenDecomposition(
        values=values,
        diagonalizable=diagonalizable,
        basis=vectors if diagonalizable else None,
    )
