"""Move-minimizing solvers.

Two routes to the same answers: the generic distributive-lattice solution
(count order-ideal differences, walk through the join or the meet) and
the Domino-specific procedure (read each shape's move multiset off the
cell census of its preimage under phi, then greedily apply the moves).
The Domino walk runs on D-tableaux: a color-l move swaps one entry for
another, so its legality is two set lookups, and each path vertex is read
off its tableau.  It never builds the lattice; its slow reference is the
same walk in diagonal coordinates, `oracle.diagonal_greedy_solve`.
Multisets of colored moves are Counters: union is entrywise max,
difference is truncated.
"""

from collections import Counter

from .lattice import DOWN, UP, PathRecord, Record, _set_field
from .domino import _gamma_pt, _gamma_tp, _move_pairs
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


def _greedy_tab_leg(pairs, start, colors, direction):
    """Apply the multiset of colored moves greedily, smallest color first.

    Tableaux are frozensets of D-tableau entries.  pairs[l] is the (x, y)
    of color l: the up-move swaps entry y for x and is legal exactly when
    y is in the tableau and x is not; the down-move swaps the roles.  The
    procedure is guaranteed to consume the whole multiset, which is
    asserted.  Returns the visited tableaux and the color of each step.
    """
    seq = [start]
    applied = []
    remaining = Counter(colors)
    current = start
    while remaining:
        for l in sorted(remaining):
            new, old = pairs[l] if direction > 0 else pairs[l][::-1]
            if old in current and new not in current:
                remaining[l] -= 1
                if remaining[l] == 0:
                    del remaining[l]
                current = (current - {old}) | {new}
                seq.append(current)
                applied.append(l)
                break
        else:
            raise AssertionError(
                f"no legal move among {sorted(remaining)} at {sorted(current)}")
    return seq, applied


def solve_domino(spec, sigma, tau, via="join"):
    """Shortest Domino play between two shapes, with an explicit move list.

    Each shape is validated once, here; its D tableau then gives both the
    move census and the start of the walk.
    """
    ts = _gamma_pt(spec, validate_partition(spec, sigma))
    tt = _gamma_pt(spec, validate_partition(spec, tau))
    S = +Counter(dict(enumerate(_tableau_census(spec, ts), start=1)))
    T = +Counter(dict(enumerate(_tableau_census(spec, tt), start=1)))
    ts, tt = frozenset(ts), frozenset(tt)
    union, inter = S | T, S & T
    per_color = (union - S) + (union - T)
    distance = per_color.total()
    pairs = _move_pairs(spec.N)
    if via == "join":
        up_leg, up_colors = _greedy_tab_leg(pairs, ts, union - S, +1)
        down_leg, down_colors = _greedy_tab_leg(pairs, tt, union - T, +1)
        tabs = up_leg + down_leg[-2::-1]
        steps = [(c, UP) for c in up_colors] + [(c, DOWN) for c in reversed(down_colors)]
        waypoint = _gamma_tp(spec, up_leg[-1])
        if up_leg[-1] != down_leg[-1]:
            raise AssertionError("legs did not meet at the join")
    elif via == "meet":
        down_leg, down_colors = _greedy_tab_leg(pairs, ts, S - T, -1)
        up_leg, up_colors = _greedy_tab_leg(pairs, down_leg[-1], T - inter, +1)
        tabs = down_leg + up_leg[1:]
        steps = [(c, DOWN) for c in down_colors] + [(c, UP) for c in up_colors]
        waypoint = _gamma_tp(spec, down_leg[-1])
        if up_leg[-1] != tt:
            raise AssertionError("legs did not meet at the target")
    else:
        raise ValueError(f"via must be 'join' or 'meet', got {via!r}")
    verts = tuple(_gamma_tp(spec, t) for t in tabs)
    path = PathRecord(verts, tuple(steps))
    return GameSolution(distance, per_color, path, waypoint)
