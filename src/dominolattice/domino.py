"""The Domino Game digraph and its coordinatizations.

Vertices are k x (N-k) partitions; directed edges are the legal domino
moves, colored by [N-1].  A color-l up-move is the L move renumbered by
pi, legal by the one move rule (the box module's docstring) on the
masks that `box._shape_masks`, the one reader of a shape, makes; with
its diagonal move beta_l, the D move table (`box._move_table`) builds
the digraph, drives the solver and gives the tableau, circle and
diagonal edges.  The paper's partition branch table `beta_part`, whose offsets
shift by N % 2, is the independent definition they are checked against.
The board is checkered with the upper-right cell red.  The extremes come
in closed form, as the images of the empty and the full box under the
isomorphism, so nothing that needs them builds the digraph, and only
`build_d_a` imports the lattice module.
"""

# BoxPermutation lives in box, with pi; it is re-exported here.
from .box import (BoxPermutation, _move_pairs, _move_table, _pi_pair, _shape_masks, pi,
                  validate_partition)
from .records import is_int
from .typea import (_circle, _hop_lattice, _partition_to_diagonal, _up_edges, all_partitions,
                    diagonal_to_partition, is_valid_partition, partition_to_diagonal,
                    tableau_to_circle, validate_circle, validate_entries)


def is_red(spec, r, c):
    """Checkerboard predicate anchored red at the upper-right cell (1, N-k)."""
    if not (is_int(r) and is_int(c) and 1 <= r <= spec.k and 1 <= c <= spec.cols):
        raise ValueError(f"cell ({r!r}, {c!r}) is outside the {spec.k}x{spec.cols} board")
    return (r + c) % 2 == (1 + spec.cols) % 2


def is_legal_domino_move(spec, sigma, tau):
    """Geometric move test, direction-agnostic.

    The symmetric difference of the two shapes must be either a single
    edge-adjacent pair of cells, or exactly the red corner cell.  Row r
    of the difference holds the cells in columns min+1..max of the two
    parts, so the shapes are compared row by row.
    """
    if not (is_valid_partition(spec, sigma) and is_valid_partition(spec, tau)):
        return False
    rows = [(r, min(s, t), max(s, t))
            for r, (s, t) in enumerate(zip(sigma, tau), start=1) if s != t]
    size = sum(hi - lo for _, lo, hi in rows)
    if size == 1:
        (r, _, c), = rows
        return (r, c) == (1, spec.cols)
    if size == 2:
        if len(rows) == 1:      # two cells side by side in one row
            return True
        (r1, _, c1), (r2, _, c2) = rows
        return r2 == r1 + 1 and c1 == c2
    return False


def _check_color(N, l):
    """Reject a color that is not an int (bool included) in [1, N-1]."""
    if not (is_int(l) and 1 <= l <= N - 1):
        raise ValueError(f"color {l!r} outside [1, {N - 1}]")


def beta_part(spec, sigma, l):
    """The color-l domino move available at sigma, if any.

    Returns (tau, delta) with delta the part-space difference tau - sigma,
    or None when no branch applies.  A two-row branch additionally needs
    its two cells in one column (sigma_j == sigma_{j+1}), otherwise the
    move would not be a domino; together with shape validity this leaves
    at most one candidate per color, which is asserted.
    """
    sigma = validate_partition(spec, sigma)
    _check_color(spec.N, l)
    return _beta_part(spec, sigma, l)


def _beta_part(spec, sigma, l):
    """beta_part on a shape and color already validated.

    Low colors remove a domino, the middle color removes the red corner
    and high colors add a domino; the row offsets shift by N % 2.
    """
    n, k = spec.N, spec.k
    mid, p = n // 2, n % 2
    if l == mid:
        deltas = [(-1,) + (0,) * (k - 1)] if sigma[0] == spec.cols else []
    else:
        # With rows j counted from 1: a single-row move of 2 cells where
        # sigma_j - j == a - (step > 0), a two-row move of 1 cell each
        # where sigma_j == sigma_{j+1} and sigma_{j+1} - j == a.
        step, a = (-1, 2 * l - k + p) if l < mid else (1, 2 * n - k - 2 * l - p)
        deltas = [tuple(2 * step if r == j else 0 for r in range(k))
                  for j in range(k) if sigma[j] - j - 1 == a - (step > 0)]
        deltas += [tuple(step if r in (j, j + 1) else 0 for r in range(k))
                   for j in range(k - 1)
                   if sigma[j] == sigma[j + 1] and sigma[j + 1] - j - 1 == a]
    moves = []
    for delta in deltas:
        tau = tuple(s + d for s, d in zip(sigma, delta))
        if is_valid_partition(spec, tau):
            moves.append((tau, delta))
    if len(moves) > 1:
        raise AssertionError(f"color {l} matches several moves at {sigma}: "
                             f"{[tau for tau, _ in moves]}")
    return moves[0] if moves else None


def d_up_edges(spec, x, system="part"):
    """Up-neighbors with colors in the requested Domino coordinatization."""
    if system == "part":
        sigma = validate_partition(spec, x)
        out = []
        for l in spec.colors:
            hit = _beta_part(spec, sigma, l)
            if hit is not None:
                out.append((hit[0], l))
        return out
    return _up_edges(spec, x, system, "D", _move_table(spec.N))


def build_d_a(spec):
    """The Domino Game lattice on all k x (N-k) partitions.

    Each shape is read once, by `_shape_masks`, and its edges hop tableau
    entries on the masks.  The build asserts Birkhoff's certificate
    (`birkhoff_failure`), which implies unique extremes; a failure raises
    AssertionError with its witness.
    """
    from .lattice import birkhoff_failure
    vertices = all_partitions(spec)
    masks, qs = zip(*[_shape_masks(spec, sigma) for sigma in vertices])
    L = _hop_lattice(vertices, masks, qs, _move_table(spec.N))
    failure = birkhoff_failure(L)
    if failure is not None:
        raise AssertionError(failure)
    return L


# -- the extremes, in closed form ------------------------------------------------


def d_min(spec):
    """Bottom shape of the Domino lattice: the image of the empty shape.

    phi sends the L bottom, whose L tableau is {N-k+1, ..., N}, to the D
    shape whose dots sit in the renumbered cells pi(N-k+1), ..., pi(N).
    """
    return _gamma_tp(spec, _pi_pair(spec.N)[0].mapping[spec.cols:])


def d_max(spec):
    """Top shape of the Domino lattice: the image of the full box, {1, ..., k}."""
    return _gamma_tp(spec, _pi_pair(spec.N)[0].mapping[:spec.k])


def m_diag(spec):
    """Diagonal coordinates of the Domino minimum."""
    return _partition_to_diagonal(spec, d_min(spec))


# -- the gamma conversion maps (Domino conventions) -----------------------------


def gamma_pt(spec, sigma):
    """Partition -> tableau, entries listed in decreasing order."""
    return _gamma_pt(spec, validate_partition(spec, sigma))


def _gamma_pt(spec, sigma):
    """gamma_pt on a shape already validated."""
    return tuple(s + spec.k - j + 1 for j, s in enumerate(sigma, start=1))


def gamma_tp(spec, entries):
    """Tableau (any order) -> partition; the entries fix a valid shape."""
    return _gamma_tp(spec, validate_entries(spec, entries))


def _gamma_tp(spec, entries):
    """gamma_tp on k distinct entries in [1, N] already validated."""
    k = spec.k
    return tuple(t - k + j - 1
                 for j, t in enumerate(sorted(entries, reverse=True), start=1))


def gamma_tc(spec, entries):
    return tableau_to_circle(spec, entries, "D")


def gamma_ct(spec, state):
    return validate_circle(spec, state, "D")[::-1]


def partition_to_circle_D(spec, sigma):
    return _circle(spec, gamma_pt(spec, sigma), "D")


def circle_to_partition_D(spec, state):
    return _gamma_tp(spec, validate_circle(spec, state, "D"))


# Each system maps to its (partition -> coordinates, coordinates -> partition)
# pair in the Domino conventions.
D_COORDINATES = {
    "part": (validate_partition, validate_partition),
    "tab": (gamma_pt, gamma_tp),
    "circ": (partition_to_circle_D, circle_to_partition_D),
    "diag": (partition_to_diagonal, diagonal_to_partition),
}


# -- move vectors in the other coordinate spaces ---------------------------------


def dtab_move_pair(N, l):
    """(x, y) such that the color-l up-move replaces tableau entry y by x.

    The pair is (pi(l), pi(l+1)): the color-l move of the L lattice swaps
    the entries l and l+1, and phi renumbers them through pi.
    """
    pi(N)                   # rejects an N that is not an int >= 2, before l is read
    _check_color(N, l)
    return _move_pairs(N)[l]


def beta_circ(spec, l):
    """Circle-space delta of the color-l up-move: one dot hops y -> x.

    Components are the indicator difference; the signs follow from the
    tableau move pair so that transported partition edges are reproduced
    exactly.
    """
    x, y = dtab_move_pair(spec.N, l)
    delta = [0] * spec.N
    delta[x - 1] += 1
    delta[y - 1] -= 1
    return tuple(delta)


def beta_diag(spec, l):
    """Diagonal-space delta of the color-l up-move."""
    _check_color(spec.N, l)
    delta = [0] * (spec.N - 1)
    for i, a in _move_table(spec.N)[3][l - 1]:
        delta[i] = a
    return tuple(delta)
