"""The explicit isomorphism between the fundamental and Domino lattices.

pi renumbers the physical circle-diagram cells from the L scheme to the D
scheme; phi transports partitions through tableau and circle coordinates;
the matrix P of diagonal move-vectors turns move counting into exact
integer linear algebra.  No floating point anywhere: elimination is
fraction-free (Bareiss) with rational back-substitution.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .domino import beta_diag, gamma_ct, gamma_pt, gamma_tc, gamma_tp, m_diag
from .typea import (CircleState, partition_to_tableau_L, tableau_to_circle,
                    circle_to_tableau, tableau_to_partition_L,
                    validate_diagonal)


@dataclass(frozen=True)
class BoxPermutation:
    """Permutation of [N] sending L-scheme cell numbers to D-scheme ones."""

    mapping: tuple

    def __post_init__(self):
        if sorted(self.mapping) != list(range(1, len(self.mapping) + 1)):
            raise ValueError("not a permutation of [N]")

    def __call__(self, i):
        return self.mapping[i - 1]

    def inverse(self):
        inv = [0] * len(self.mapping)
        for i, p in enumerate(self.mapping, start=1):
            inv[p - 1] = i
        return BoxPermutation(tuple(inv))


def pi(N):
    """The box renumbering permutation, one formula shifted by N % 2."""
    if N < 2:
        raise ValueError("need N >= 2")
    p = N % 2
    return BoxPermutation(tuple(
        [2 * i - 1 + p for i in range(1, N // 2 + 1)]
        + [2 * N - 2 * j + 2 - p for j in range(N // 2 + 1, N + 1)]))


def phi_circ(state):
    """Move each dot to its renumbered box: output bit pi(i) = input bit i."""
    if state.scheme != "L":
        raise ValueError("phi_circ expects an L-scheme circle state")
    p = pi(len(state.bits))
    out = [0] * len(state.bits)
    for i, b in enumerate(state.bits, start=1):
        out[p(i) - 1] = b
    return CircleState(tuple(out), "D")


def phi_circ_inverse(state):
    if state.scheme != "D":
        raise ValueError("phi_circ_inverse expects a D-scheme circle state")
    p = pi(len(state.bits)).inverse()
    out = [0] * len(state.bits)
    for i, b in enumerate(state.bits, start=1):
        out[p(i) - 1] = b
    return CircleState(tuple(out), "L")


def phi(spec, sigma):
    """The partition-level isomorphism from the L lattice to the D lattice."""
    s = tableau_to_circle(spec, partition_to_tableau_L(spec, sigma), "L")
    return gamma_tp(spec, gamma_ct(spec, phi_circ(s)))


def phi_inverse(spec, sigma):
    s = gamma_tc(spec, gamma_pt(spec, sigma))
    return tableau_to_partition_L(spec, circle_to_tableau(spec, phi_circ_inverse(s)))


# -- exact linear algebra ---------------------------------------------------------


def _bareiss_forward(a):
    """Fraction-free forward elimination with row pivoting, in place.

    Eliminates below the diagonal of the leading n x n block of the n rows
    of a; columns past n (a right-hand side) are carried along.  Returns
    the sign of the row permutation, or 0 when the block is singular.
    """
    n = len(a)
    prev = 1
    sign = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        width = len(a[col])
        for r in range(col + 1, n):
            for c in range(col + 1, width):
                a[r][c] = (a[col][col] * a[r][c] - a[r][col] * a[col][c]) // prev
            a[r][col] = 0
        prev = a[col][col]
    return sign


def bareiss_solve(matrix, rhs):
    """Solve an integer square system exactly.

    Fraction-free forward elimination, then rational back-substitution.
    Raises ValueError on a singular matrix.
    """
    n = len(matrix)
    a = [list(row) + [b] for row, b in zip(matrix, rhs)]
    if any(len(row) != n + 1 for row in a):
        raise ValueError("matrix must be square and match the right-hand side")
    if not _bareiss_forward(a):
        raise ValueError("matrix is singular")
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = Fraction(a[r][n])
        for c in range(r + 1, n):
            acc -= a[r][c] * x[c]
        x[r] = acc / a[r][r]
    return x


def integer_determinant(matrix):
    """Exact determinant via Bareiss elimination."""
    a = [list(row) for row in matrix]
    return _bareiss_forward(a) * a[-1][-1]


def exact_inverse(matrix):
    """Inverse as a matrix of Fractions (column-by-column exact solves)."""
    n = len(matrix)
    cols = []
    for j in range(n):
        e = [1 if i == j else 0 for i in range(n)]
        cols.append(bareiss_solve(matrix, e))
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class MoveMatrix:
    """Columns are the diagonal move-vectors; shift is the Domino minimum."""

    entries: tuple
    shift: tuple

    @property
    def size(self):
        return len(self.entries)

    def column(self, l):
        return tuple(row[l - 1] for row in self.entries)

    @property
    def determinant(self):
        return integer_determinant(self.entries)

    @property
    def is_unimodular(self):
        return self.determinant in (1, -1)


@lru_cache(maxsize=None)
def move_matrix(spec):
    n = spec.N
    betas = [beta_diag(spec, l) for l in range(1, n)]
    entries = tuple(tuple(betas[l][i] for l in range(n - 1))
                    for i in range(n - 1))
    m = MoveMatrix(entries, m_diag(spec))
    if m.determinant == 0:
        raise AssertionError(f"move matrix for N={n} is singular")
    return m


def apply_p(spec, diag):
    """Transport L-diagonal coordinates to D-diagonal ones: P d + m."""
    diag = validate_diagonal(spec, diag)
    P = move_matrix(spec)
    out = tuple(sum(row[j] * diag[j] for j in range(P.size)) + s
                for row, s in zip(P.entries, P.shift))
    return validate_diagonal(spec, out)


def decompose(spec, diag):
    """Per-color move counts from the Domino minimum up to the element.

    Solves P c = d - m exactly; the solution must be a vector of
    nonnegative integers, and its sum is the element's rank in D.
    """
    diag = validate_diagonal(spec, diag)
    P = move_matrix(spec)
    rhs = [d - s for d, s in zip(diag, P.shift)]
    sol = bareiss_solve(P.entries, rhs)
    out = []
    for i, value in enumerate(sol, start=1):
        if value.denominator != 1 or value < 0:
            raise ValueError(
                f"coefficient {i} is not a nonnegative integer: {value}")
        out.append(int(value))
    return tuple(out)
