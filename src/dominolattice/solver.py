"""Move-minimizing solvers.

Two routes to the same answers: the generic distributive-lattice solution
(count order-ideal differences, walk through the join or the meet) and
the Domino-specific procedure.  Both play by one greedy rule, smallest
color first: through the join both legs climb, and through the meet the
play descends from the start, then climbs.  The generic route runs on
the poset's masks (the poset module's docstring): each ideal is read
once into a mask in (color, index) order, so a greedy step flips the
lowest set bit among the free extremes, and the census is read off the
mask of the difference.  The Domino procedure reads each shape once,
by `domino._shape_masks`, into an int mask of its D tableau (bit t set
for entry t) and one of its preimage's L tableau, Q (bit pi^-1(t)), and
plays on the masks (`_solve_domino`).  The per-color move counts are one
running count over the two Q masks, and the walk runs on plain integers,
with no Counter in it: the moves still to make are count lists indexed
by color, and by the one move rule (the typea module's docstring) the
legal up colors are the set bits of (Q >> 1) & ~Q, the smallest the
lowest, so a step scans no colors.  A color-l move flips bits l and l+1
of Q and two bits of the D tableau (`domino._move_table`), changing one
row of the shape, or two when its dot passes the entry between its
ends.  The walk never builds the lattice; its slow reference is the
generic route on the ideals of J(P_A), read through phi,
`oracle.ideal_greedy_solve`.  The per-color answer of either route is
a Counter.  Only the generic route imports the poset module, when it
runs, so a Domino solve loads no lattice code.  Both routes derive their
counts with their paths, so they record their answers as they are
(`_trusted_solution`); a GameSolution built by its constructor is
checked against its path.
"""

from collections import Counter
from functools import lru_cache

from .domino import _move_pairs, _move_table, _shape_masks
from .records import DOWN, UP, PathRecord, Record, _set_field
from .typea import validate_partition


def color_census(P, members):
    """Counter of vertex colors over a subset of P's vertices."""
    return Counter(P.color(v) for v in members)


class GameSolution(Record):
    """Distance, per-color move counts, an explicit path, and its waypoint.

    per_color is a Counter, so a GameSolution is not hashable.  The path
    must have `distance` steps and make per_color[c] moves of each color
    c, a color missing from either side counting zero; a failed check
    names the two numbers that differ.
    """

    __slots__ = ("distance", "per_color", "path", "waypoint")

    def __init__(self, distance, per_color, path, waypoint):
        if len(path.steps) != distance:
            raise ValueError(f"the path has {len(path.steps)} steps "
                             f"but the distance is {distance}")
        made = Counter(c for c, _ in path.steps)
        for c in sorted(made.keys() | per_color.keys()):
            if made[c] != per_color.get(c, 0):
                raise ValueError(f"color {c}: the path makes {made[c]} "
                                 f"moves, per_color counts {per_color.get(c, 0)}")
        _fill(self, distance, per_color, path, waypoint)


def _fill(solution, distance, per_color, path, waypoint):
    _set_field(solution, "distance", distance)
    _set_field(solution, "per_color", per_color)
    _set_field(solution, "path", path)
    _set_field(solution, "waypoint", waypoint)
    return solution


def _trusted_solution(distance, per_color, path, waypoint):
    """A GameSolution from a solve core, which made per_color and the path together.

    Each core counts its moves per color and then makes exactly those
    moves, so the constructor's recount would find what the core counted;
    the tests rebuild the cores' solutions through the constructor.
    """
    return _fill(GameSolution.__new__(GameSolution), distance, per_color, path, waypoint)


def _chain(start, flips):
    """The ideals from start, flipping each (vertex, color) of flips in turn."""
    chain = [start]
    for v, _ in flips:
        start = start ^ {v}
        chain.append(start)
    return chain


def solve_distributive(P, s, t, via="join"):
    """Shortest play between two ideals of P, routed through join or meet.

    Through the join both legs climb; through the meet the play descends
    from s to the meet, then climbs to t.  The ideals are read once into
    masks in P's (color, index) numbering, and the legs, the census of
    the difference s ^ t and the waypoint's mask are computed on them;
    frozensets are made only for the path's vertices and the waypoint.
    """
    from .poset import _color_census, _greedy_flips, _ideal_mask
    s, t = frozenset(s), frozenset(t)
    masks = []
    for name, x in (("s", s), ("t", t)):
        mask = _ideal_mask(P, x)
        if mask is None:
            raise ValueError(f"{name} is not an order ideal of the poset")
        masks.append(mask)
    ms, mt = masks
    diff = ms ^ mt
    distance = diff.bit_count()
    per_color = _color_census(P, diff)
    if via == "join":
        waypoint = s | t
        up = _greedy_flips(P, ms, ms | mt)
        down = _greedy_flips(P, mt, ms | mt)[::-1]
        verts = _chain(s, up) + _chain(waypoint, down)[1:]
        steps = [(c, UP) for _, c in up] + [(c, DOWN) for _, c in down]
    elif via == "meet":
        waypoint = s & t
        down = _greedy_flips(P, ms, ms & mt)
        up = _greedy_flips(P, ms & mt, mt)
        verts = _chain(s, down) + _chain(waypoint, up)[1:]
        steps = [(c, DOWN) for _, c in down] + [(c, UP) for _, c in up]
    else:
        raise ValueError(f"via must be 'join' or 'meet', got {via!r}")
    path = PathRecord(tuple(verts), tuple(steps))
    return _trusted_solution(distance, per_color, path, waypoint)


@lru_cache(maxsize=None)
def _walk_tables(N):
    """The up and down hop tables and the step labels, built once per valid N.

    A color-l move hops one dot of the D tableau: up from pi(l+1) to
    pi(l), down the other way (`_move_pairs`), both flipping the mask's
    bits ends[l] << lows[l] (`domino._move_table`).  For a dot hopping
    from `old` to `old + delta`, a hop table holds the move table's lows
    and ends and three tuples indexed by color, all of small ints, so that
    the tables take O(N) memory: shift (old + 1, so that mask >> shift
    counts the entries above old), mid (the entry between the ends when
    |delta| == 2, else 0, which no D tableau holds) and delta.  The
    labels are the steps (l, UP) and (l, DOWN), shared by every path.
    """
    lows, ends = _move_table(N)[:2]
    hops = []
    for up in (True, False):
        rows = [(0, 0, 0)]
        for l, (x, y) in _move_pairs(N).items():
            new, old = (x, y) if up else (y, x)
            delta = new - old
            if abs(delta) > 2:
                raise AssertionError(f"color {l} hops over more than one entry")
            rows.append((old + 1, (old + new) // 2 if abs(delta) == 2 else 0, delta))
        hops.append((lows, ends, *zip(*rows)))
    labels = [tuple((l, d) for l in range(N)) for d in (UP, DOWN)]
    return (*hops, *labels)


def _greedy_leg(hops, labels, mask, q, parts, need, active, verts, steps):
    """Apply the colored up moves counted in need greedily, smallest color first.

    mask has bit t set for each D-tableau entry t, and parts is the shape
    it encodes, updated in place; q is the L-tableau mask of its preimage,
    so a color-l move is legal at the set bits of (q >> 1) & ~q and flips
    bits l and l+1 of q and ends[l] << lows[l] of mask.  A down leg
    passes ~q: a down move is an up move of the complement.  need[l]
    counts the color-l moves still to make and active has bit l set while
    need[l] is not 0.  The dot keeps its row unless it passes the entry
    between its ends, a vertical domino that moves two rows by one.
    Appends each shape to verts and labels[l] to steps, and returns the
    final mask and q; the procedure is guaranteed to consume every move,
    which is asserted.
    """
    lows, ends, shifts, mids, deltas = hops
    while active:
        legal = (q >> 1) & ~q & active
        if not legal:
            colors = [l for l in range(active.bit_length()) if active >> l & 1]
            entries = [t for t in range(mask.bit_length()) if mask >> t & 1]
            raise AssertionError(f"no legal move among {colors} at {entries}")
        low = legal & -legal
        l = low.bit_length() - 1
        need[l] -= 1
        if not need[l]:
            active ^= low
        row = (mask >> shifts[l]).bit_count()
        delta = deltas[l]
        if mask >> mids[l] & 1:
            step = delta // 2
            if step > 0:
                row -= 1
            parts[row] += step
            parts[row + 1] += step
        else:
            parts[row] += delta
        mask ^= ends[l] << lows[l]
        q ^= 3 * low
        verts.append(tuple(parts))
        steps.append(labels[l])
    return mask, q


def solve_domino(spec, sigma, tau, via="join"):
    """Shortest Domino play between two shapes, with an explicit move list.

    Each shape is validated once, here, and read once, into its D-tableau
    mask and the L-tableau mask Q of its preimage.  With S and T the
    censuses of sigma and tau, T_l - S_l is a running count over the two
    Q masks (the isomorphism module's docstring); rise[l] = max(0,
    T_l - S_l) and fall[l] = max(0, S_l - T_l) count the color-l up and
    down moves of the play, and per_color holds their sums, colors in
    ascending order.
    """
    sigma, tau = validate_partition(spec, sigma), validate_partition(spec, tau)
    return _solve_domino(spec, sigma, tau, _shape_masks(spec, sigma),
                         _shape_masks(spec, tau), via)


def _solve_domino(spec, sigma, tau, sigma_masks, tau_masks, via):
    """solve_domino on two shapes already validated, as tuples, and read by `_shape_masks`."""
    N = spec.N
    (ms, qs), (mt, qt) = sigma_masks, tau_masks
    # the empty Counter that Counter() makes, without its __init__, which
    # only runs update(None)
    rise, fall, per_color = [0] * N, [0] * N, Counter.__new__(Counter)
    rising = falling = diff = 0
    for l in range(1, N):
        diff += (qt >> l & 1) - (qs >> l & 1)
        if diff > 0:
            rise[l] = per_color[l] = diff
            rising |= 1 << l
        elif diff < 0:
            fall[l] = per_color[l] = -diff
            falling |= 1 << l
    distance = sum(rise) + sum(fall)
    up, down, ups, downs = _walk_tables(N)
    if via == "join":
        verts, steps, back, back_steps = [sigma], [], [tau], []
        top, _ = _greedy_leg(up, ups, ms, qs, list(sigma), rise, rising, verts, steps)
        waypoint = verts[-1]
        if _greedy_leg(up, downs, mt, qt, list(tau), fall, falling,
                       back, back_steps)[0] != top:
            raise AssertionError("legs did not meet at the join")
        verts += back[-2::-1]
        steps += back_steps[::-1]
    elif via == "meet":
        verts, steps = [sigma], []
        parts = list(sigma)
        bottom, q = _greedy_leg(down, downs, ms, ~qs, parts, fall, falling, verts, steps)
        waypoint = verts[-1]
        if _greedy_leg(up, ups, bottom, ~q, parts, rise, rising, verts, steps)[0] != mt:
            raise AssertionError("legs did not meet at the target")
    else:
        raise ValueError(f"via must be 'join' or 'meet', got {via!r}")
    path = PathRecord(tuple(verts), tuple(steps))
    return _trusted_solution(distance, per_color, path, waypoint)
