"""The explicit isomorphism between the fundamental and Domino lattices.

pi renumbers the physical circle-diagram cells from the L scheme to the D
scheme.  phi_circ moves the dots of a circle state accordingly; on
tableaux that is elementwise pi, so phi maps a partition's L tableau
through pi and sorts the result into a D tableau, and phi_inverse applies
pi inverse and sorts.  Because phi preserves colors, the per-color move
counts from the Domino minimum up to a shape are the color census of the
cells of its preimage, its diagonal coordinates, which `move_census` and
`decompose` read in O(N) per shape as the prefix count
`typea._tableau_to_diagonal_L` (whose docstring proves it) over the
preimage's L tableau pi^-1(T_D):

    #color-l moves = #{t in T_D(sigma) : pi^-1(t) <= l} - max(0, l - (N-k)).

Between two shapes the row terms cancel, so with Q = pi^-1(T_D), the L
tableau of the preimage, the census difference is one running count
over colors, which is how the solver reads its rise and fall counts:

    T_l - S_l = #{q in Q_tau : q <= l} - #{q in Q_sigma : q <= l}.

The same Q decides which moves are legal: phi preserves colors and
covers, so a color-l move of D is legal at sigma exactly when the L
move is legal at the preimage, where it swaps the entry l+1 of Q for l.
That is the one move rule of every type-A hop (the box module's
docstring): as an int mask, the legal up colors of Q are the set bits
of (Q >> 1) & ~Q, and its legal down colors those of the complement ~Q.

The matrix P of diagonal move-vectors is the paper's route to the same
counts: `apply_p` transports coordinates by it, in O(N), since each of
its columns, read from `box._move_table`, has at most two nonzero
entries; the oracle `oracle.bareiss_decompose` solves P c = d - m
exactly, by the inverse of P from one fraction-free (Bareiss) forward
elimination per box, `_bareiss_forward` below, and integer
back-substitution over the determinant.  No floating point anywhere.
"""

from functools import lru_cache

# BoxPermutation and pi live in box, with the move tables they give; they
# are re-exported here, next to phi.
from .box import BoxPermutation, _move_table, _pi_pair, pi, validate_partition
from .domino import _check_color, _gamma_pt, _gamma_tp, m_diag
from .records import Record, _set_field
from .typea import (CircleState, _partition_to_tableau_L,
                    _tableau_to_diagonal_L, _tableau_to_partition_L,
                    diagonal_to_partition, validate_diagonal)


def phi_circ(state):
    """Move each dot to its renumbered box: output bit pi(i) = input bit i."""
    if not isinstance(state, CircleState) or state.scheme != "L":
        raise ValueError("phi_circ expects an L-scheme circle state")
    pi(len(state.bits))     # rejects fewer than two bits
    return _renumber(state, _pi_pair(len(state.bits))[1], "D")


def phi_circ_inverse(state):
    if not isinstance(state, CircleState) or state.scheme != "D":
        raise ValueError("phi_circ_inverse expects a D-scheme circle state")
    return _renumber(state, pi(len(state.bits)), "L")


def _renumber(state, q, scheme):
    """The circle state of the given scheme whose bit j is state's bit q(j)."""
    return CircleState(tuple(state.bits[i - 1] for i in q.mapping), scheme)


def phi(spec, sigma):
    """The partition-level isomorphism from the L lattice to the D lattice.

    On tableaux it is elementwise pi: the L tableau's entries, renumbered,
    are the D tableau's entries.
    """
    return _phi(spec, validate_partition(spec, sigma))


def _phi(spec, sigma):
    """phi on a shape already validated; pi permutes [N], so the image is one."""
    p = _pi_pair(spec.N)[0].mapping
    return _gamma_tp(spec, [p[t - 1] for t in _partition_to_tableau_L(spec, sigma)])


def phi_inverse(spec, sigma):
    """Elementwise pi inverse on the D tableau, sorted into an L tableau."""
    return _phi_inverse(spec, validate_partition(spec, sigma))


def _phi_inverse(spec, sigma):
    """phi_inverse on a shape already validated."""
    q = _pi_pair(spec.N)[1].mapping
    return _tableau_to_partition_L(spec,
                                   sorted(q[t - 1] for t in _gamma_pt(spec, sigma)))


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


def integer_determinant(matrix):
    """Exact determinant via Bareiss elimination; the empty matrix's is 1."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    a = [list(row) for row in matrix]
    return _bareiss_forward(a) * a[-1][-1] if n else 1


class MoveMatrix(Record):
    """Columns are the diagonal move-vectors; shift is the Domino minimum.

    The determinant is eliminated once per matrix, `_determinant`, so the
    singularity check of `move_matrix` and `is_unimodular` share one run.
    """

    __slots__ = ("entries", "shift")

    def __init__(self, entries, shift):
        _set_field(self, "entries", entries)
        _set_field(self, "shift", shift)

    @property
    def size(self):
        return len(self.entries)

    def column(self, l):
        _check_color(self.size + 1, l)
        return tuple(row[l - 1] for row in self.entries)

    @property
    def determinant(self):
        return _determinant(self.entries)

    @property
    def is_unimodular(self):
        return self.determinant in (1, -1)


@lru_cache(maxsize=None)
def _determinant(entries):
    """integer_determinant of a move matrix's entries, computed once per matrix."""
    return integer_determinant(entries)


@lru_cache(maxsize=None)
def move_matrix(spec):
    n = spec.N
    entries = [[0] * (n - 1) for _ in range(n - 1)]
    for l, column in enumerate(_move_table(n)[3]):     # column l + 1 is beta_{l+1}
        for i, a in column:
            entries[i][l] = a
    m = MoveMatrix(tuple(map(tuple, entries)), m_diag(spec))
    if m.determinant == 0:
        raise AssertionError(f"move matrix for N={n} is singular")
    return m


def apply_p(spec, diag):
    """Transport L-diagonal coordinates to D-diagonal ones: P d + m."""
    return validate_diagonal(spec, _apply_p(spec, validate_diagonal(spec, diag)))


def _apply_p(spec, diag):
    """P d + m on diagonal coordinates already validated, in O(N).

    Each column of P, read from the Domino move table, has at most two
    nonzero entries, so each d_l adds to at most two entries of m.
    """
    out = list(move_matrix(spec).shift)
    for d, column in zip(diag, _move_table(spec.N)[3]):
        if d:
            for i, a in column:
                out[i] += a * d
    return tuple(out)


def move_census(spec, sigma):
    """Per-color move counts from the Domino minimum up to the shape sigma.

    phi is a color-preserving isomorphism that fixes the bottoms, so these
    are the colors of the cells of phi_inverse(sigma): its diagonal
    coordinates.  Entry l - 1 counts the moves of color l; the sum is the
    rank of sigma in D.
    """
    return _move_census(spec, validate_partition(spec, sigma))


def _move_census(spec, sigma):
    """move_census on a shape already validated."""
    q = _pi_pair(spec.N)[1].mapping
    return _tableau_to_diagonal_L(spec, [q[t - 1] for t in _gamma_pt(spec, sigma)])


def decompose(spec, diag):
    """Per-color move counts from the Domino minimum up to the element.

    The element is given by its diagonal coordinates; the counts are the
    unique solution of P c = d - m, read off the cell census instead of
    solved for (`oracle.bareiss_decompose` solves it).
    """
    return _move_census(spec, diagonal_to_partition(spec, diag))
