"""Move-minimizing solvers.

Two routes to the same answers: the generic distributive-lattice solution
(count order-ideal differences, walk through the join or the meet) and
the Domino-specific procedure (read each shape's move multiset off the
cell census of its preimage under phi, then greedily apply move vectors).
Neither Domino route builds the lattice.  Multisets of colored moves
are Counters: union is entrywise max, difference is truncated.
"""

from collections import Counter
from dataclasses import dataclass

from .lattice import DOWN, UP, PathRecord
from .domino import beta_diag
from .isomorphism import move_census
from .poset import is_order_ideal
from .typea import (diagonal_to_partition, is_valid_diagonal,
                    partition_to_diagonal, validate_partition)


def color_census(P, members):
    """Counter of vertex colors over a subset of P's vertices."""
    return Counter(P.color(v) for v in members)


@dataclass(frozen=True)
class GameSolution:
    """Distance, per-color move counts, an explicit path, and its waypoint."""

    distance: int
    per_color: Counter
    path: PathRecord
    waypoint: object

    def __post_init__(self):
        if len(self.path.steps) != self.distance:
            raise ValueError("path length disagrees with distance")
        if Counter(c for c, _ in self.path.steps) != self.per_color:
            raise ValueError("path colors disagree with the per-color counts")


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


def _greedy_diag_leg(spec, start, colors, direction):
    """Apply the multiset of move vectors greedily, smallest color first.

    Each step must land on a valid diagonal sequence; the procedure is
    guaranteed to consume the whole multiset, which is asserted.  Returns
    the visited diagonals and the color of each step.
    """
    seq = [start]
    applied = []
    remaining = Counter(colors)
    current = start
    while remaining:
        for l in sorted(remaining):
            delta = beta_diag(spec, l)
            cand = tuple(d + direction * e for d, e in zip(current, delta))
            if is_valid_diagonal(spec, cand):
                remaining[l] -= 1
                if remaining[l] == 0:
                    del remaining[l]
                current = cand
                seq.append(current)
                applied.append(l)
                break
        else:
            raise AssertionError(
                f"no legal move among {sorted(remaining)} at {current}")
    return seq, applied


def solve_domino(spec, sigma, tau, via="join"):
    """Shortest Domino play between two shapes, with an explicit move list."""
    sigma = validate_partition(spec, sigma)
    tau = validate_partition(spec, tau)
    ds = partition_to_diagonal(spec, sigma)
    dt = partition_to_diagonal(spec, tau)
    S = Counter(dict(enumerate(move_census(spec, sigma), start=1)))
    T = Counter(dict(enumerate(move_census(spec, tau), start=1)))
    S, T = +S, +T
    union, inter = S | T, S & T
    per_color = (union - S) + (union - T)
    distance = per_color.total()
    if via == "join":
        up_leg, up_colors = _greedy_diag_leg(spec, ds, union - S, +1)
        down_leg, down_colors = _greedy_diag_leg(spec, dt, union - T, +1)
        diags = up_leg + down_leg[-2::-1]
        steps = [(c, UP) for c in up_colors] + [(c, DOWN) for c in reversed(down_colors)]
        waypoint = diagonal_to_partition(spec, up_leg[-1])
        if up_leg[-1] != down_leg[-1]:
            raise AssertionError("legs did not meet at the join")
    elif via == "meet":
        down_leg, down_colors = _greedy_diag_leg(spec, ds, S - T, -1)
        up_leg, up_colors = _greedy_diag_leg(spec, down_leg[-1], T - inter, +1)
        diags = down_leg + up_leg[1:]
        steps = [(c, DOWN) for c in down_colors] + [(c, UP) for c in up_colors]
        waypoint = diagonal_to_partition(spec, down_leg[-1])
        if up_leg[-1] != dt:
            raise AssertionError("legs did not meet at the target")
    else:
        raise ValueError(f"via must be 'join' or 'meet', got {via!r}")
    verts = tuple(diagonal_to_partition(spec, d) for d in diags)
    path = PathRecord(verts, tuple(steps))
    return GameSolution(distance, per_color, path, waypoint)
