"""Move-minimizing solvers.

Two routes to the same answers: the generic distributive-lattice solution
(count order-ideal differences, walk through the join or the meet) and
the Domino-specific procedure (read each shape's per-color move counts
off the cell census of its preimage under phi, then greedily apply the
moves).  The Domino walk runs on plain integers, with no Counter in it:
a D tableau is an int mask with bit t set for entry t, the moves still
to make are count lists indexed by color, and a color-l move hops one
dot, so its legality is two bit tests and it changes one row of the
shape, or two when the dot passes the entry between its ends.  It never
builds the lattice; its slow reference is the same walk in diagonal
coordinates, over Counters, `oracle.diagonal_greedy_solve`.  The
per-color answer of either route is a Counter.
"""

from collections import Counter
from functools import lru_cache

from .lattice import DOWN, UP, PathRecord, Record, _set_field
from .domino import _gamma_pt, _move_pairs
from .isomorphism import _tableau_census
from .poset import is_order_ideal
from .typea import validate_partition


def color_census(P, members):
    """Counter of vertex colors over a subset of P's vertices."""
    return Counter(P.color(v) for v in members)


class GameSolution(Record):
    """Distance, per-color move counts, an explicit path, and its waypoint.

    per_color is a Counter, so a GameSolution is not hashable.
    """

    __slots__ = ("distance", "per_color", "path", "waypoint")

    def __init__(self, distance, per_color, path, waypoint):
        if len(path.steps) != distance:
            raise ValueError("path length disagrees with distance")
        if Counter(c for c, _ in path.steps) != per_color:
            raise ValueError("path colors disagree with the per-color counts")
        _set_field(self, "distance", distance)
        _set_field(self, "per_color", per_color)
        _set_field(self, "path", path)
        _set_field(self, "waypoint", waypoint)


def _greedy_ideal_ascent(P, start, target):
    """Ideal chain from start up to target, adjoining minimal elements.

    Tie-break: smallest color first, then the poset's canonical vertex
    order.  Any choice is optimal; this one makes runs reproducible.
    """
    chain = [start]
    current = start
    while current != target:
        rest = target - current
        pick = min(P.minimal_of(rest),
                   key=lambda v: (P.color(v), P.index(v)))
        current = current | {pick}
        chain.append(current)
    return chain


def solve_distributive(P, s, t, via="join"):
    """Shortest play between two ideals of P, routed through join or meet."""
    s, t = frozenset(s), frozenset(t)
    for name, x in (("s", s), ("t", t)):
        if not is_order_ideal(P, x):
            raise ValueError(f"{name} is not an order ideal of the poset")
    union, inter = s | t, s & t
    distance = (len(union) - len(s)) + (len(union) - len(t))
    per_color = color_census(P, union - s) + color_census(P, union - t)
    if via == "join":
        up_leg = _greedy_ideal_ascent(P, s, union)
        down_leg = _greedy_ideal_ascent(P, t, union)
        verts = up_leg + down_leg[-2::-1]
        dirs = [UP] * (len(up_leg) - 1) + [DOWN] * (len(down_leg) - 1)
        waypoint = union
    elif via == "meet":
        down_leg = _greedy_ideal_ascent(P, inter, s)
        up_leg = _greedy_ideal_ascent(P, inter, t)
        verts = down_leg[::-1] + up_leg[1:]
        dirs = [DOWN] * (len(down_leg) - 1) + [UP] * (len(up_leg) - 1)
        waypoint = inter
    else:
        raise ValueError(f"via must be 'join' or 'meet', got {via!r}")
    steps = []
    for (a, b), d in zip(zip(verts, verts[1:]), dirs):
        added = (b - a) if d == UP else (a - b)
        steps.append((P.color(next(iter(added))), d))
    path = PathRecord(tuple(verts), tuple(steps))
    return GameSolution(distance, per_color, path, waypoint)


@lru_cache(maxsize=None)
def _hops(N):
    """The up and down hop tables, indexed by color, built once per valid N.

    A color-l move hops one dot of the D tableau: up from pi(l+1) to
    pi(l), down the other way (`_move_pairs`).  For a dot hopping from
    `old` to `old + delta`, a table holds five tuples indexed by color:
    flip (both bits), bit (the old bit), shift (old + 1, so that
    mask >> shift counts the entries above old), mid (the bit between
    the ends when |delta| == 2, else 0) and delta.
    """
    tables = []
    for up in (True, False):
        rows = [(0, 0, 0, 0, 0)]
        for l, (x, y) in _move_pairs(N).items():
            new, old = (x, y) if up else (y, x)
            delta = new - old
            if abs(delta) > 2:
                raise AssertionError(f"color {l} hops over more than one entry")
            mid = 1 << ((old + new) // 2) if abs(delta) == 2 else 0
            rows.append(((1 << new) | (1 << old), 1 << old, old + 1, mid, delta))
        tables.append(tuple(zip(*rows)))
    return tuple(tables)


def _greedy_leg(hops, mask, parts, need, verts, colors):
    """Apply the colored moves counted in need greedily, smallest color first.

    mask has bit t set for each D-tableau entry t, and parts is the shape
    it encodes, updated in place; need[l] counts the color-l moves still
    to make.  A move is legal when its old bit is set and its new bit
    clear.  The dot keeps its row unless it passes the entry between
    its ends, a vertical domino that moves two rows by one.  Appends each
    shape to verts and each color to colors, and returns the final mask;
    the procedure is guaranteed to consume every move, which is asserted.
    """
    flips, bits, shifts, mids, deltas = hops
    active = [l for l, n in enumerate(need) if n]
    while active:
        for i, l in enumerate(active):
            if mask & flips[l] == bits[l]:
                break
        else:
            entries = [t for t in range(mask.bit_length()) if mask >> t & 1]
            raise AssertionError(f"no legal move among {active} at {entries}")
        need[l] -= 1
        if not need[l]:
            del active[i]
        row = (mask >> shifts[l]).bit_count()
        delta = deltas[l]
        if mask & mids[l]:
            step = delta // 2
            if step > 0:
                row -= 1
            parts[row] += step
            parts[row + 1] += step
        else:
            parts[row] += delta
        mask ^= flips[l]
        verts.append(tuple(parts))
        colors.append(l)
    return mask


def _mask(entries):
    """The int with bit t set for each tableau entry t."""
    mask = 0
    for t in entries:
        mask |= 1 << t
    return mask


def solve_domino(spec, sigma, tau, via="join"):
    """Shortest Domino play between two shapes, with an explicit move list.

    Each shape is validated once, here; its D tableau then gives both the
    move census and the start of the walk.  With S and T the censuses of
    sigma and tau, rise[l] = max(0, T_l - S_l) and fall[l] =
    max(0, S_l - T_l) count the color-l up and down moves of the play;
    per_color holds their sums, colors in ascending order.
    """
    sigma = validate_partition(spec, sigma)
    tau = validate_partition(spec, tau)
    ts, tt = _gamma_pt(spec, sigma), _gamma_pt(spec, tau)
    rise, fall, per_color = [0], [0], Counter()
    for l, (s, t) in enumerate(zip(_tableau_census(spec, ts),
                                   _tableau_census(spec, tt)), start=1):
        rise.append(t - s if t > s else 0)
        fall.append(s - t if s > t else 0)
        if s != t:
            per_color[l] = abs(s - t)
    distance = sum(rise) + sum(fall)
    up, down = _hops(spec.N)
    if via == "join":
        verts, up_colors, back, down_colors = [sigma], [], [tau], []
        top = _greedy_leg(up, _mask(ts), list(sigma), rise, verts, up_colors)
        waypoint = verts[-1]
        if _greedy_leg(up, _mask(tt), list(tau), fall, back, down_colors) != top:
            raise AssertionError("legs did not meet at the join")
        verts += back[-2::-1]
        steps = [(c, UP) for c in up_colors] + [(c, DOWN) for c in reversed(down_colors)]
    elif via == "meet":
        verts, down_colors, up_colors = [sigma], [], []
        parts = list(sigma)
        bottom = _greedy_leg(down, _mask(ts), parts, fall, verts, down_colors)
        waypoint = verts[-1]
        if _greedy_leg(up, bottom, parts, rise, verts, up_colors) != _mask(tt):
            raise AssertionError("legs did not meet at the target")
        steps = [(c, DOWN) for c in down_colors] + [(c, UP) for c in up_colors]
    else:
        raise ValueError(f"via must be 'join' or 'meet', got {via!r}")
    path = PathRecord(tuple(verts), tuple(steps))
    return GameSolution(distance, per_color, path, waypoint)
