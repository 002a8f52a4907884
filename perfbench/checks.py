"""Answer checks, run off the clock against lattices built for checking only."""

import math
from collections import Counter

from common import EXPORT_BOX, parse_shape


class Checker:
    """The Domino lattice of one box, built for checking answers only."""

    def __init__(self, k, n):
        from dominolattice import BoxSpec, build_d_a
        self.k, self.n = k, n
        self.D = build_d_a(BoxSpec(k, n))
        self.ranks = self.D.ranks
        self.bottom, self.top = self.D.minimum, self.D.maximum
        self._bfs = {}

    def check(self, via, a, b, distance, per_color, waypoint, vertices, steps):
        """None when the answer is right, else what is wrong with it."""
        from dominolattice import PathRecord
        D, r = self.D, self.ranks
        meet = D.meet(a, b)
        expected = r[a] + r[b] - 2 * r[meet]
        if distance != expected:
            return f"distance {distance} != {expected} for {a}->{b}"
        hub = D.join(a, b) if via == "join" else meet
        if tuple(waypoint) != hub:
            return f"waypoint {waypoint} != {via} {hub} for {a}->{b}"
        vertices = tuple(tuple(v) for v in vertices)
        steps = tuple((c, d) for c, d in steps)
        if not vertices or vertices[0] != a or vertices[-1] != b:
            return f"path does not run from {a} to {b}"
        if len(steps) != distance:
            return f"path has {len(steps)} steps, distance is {distance}"
        try:
            PathRecord(vertices, steps).validate(D)
        except ValueError as exc:
            return f"illegal path {a}->{b}: {exc}"
        if Counter(c for c, _ in steps) != Counter(dict(per_color)):
            return f"per-color census disagrees with the path for {a}->{b}"
        return None

    def bfs_check(self, a, b, distance):
        from dominolattice.oracle import bfs_distances
        if a not in self._bfs:
            self._bfs[a] = bfs_distances(self.D, a)
        if self._bfs[a][b] != distance:
            return f"BFS distance {self._bfs[a][b]} != {distance} for {a}->{b}"
        return None


def all_passed(report):
    if isinstance(report, dict):
        if report.get("passed") is False:
            return False
        return all(all_passed(v) for v in report.values())
    if isinstance(report, list):
        return all(all_passed(v) for v in report)
    return True


class ExportChecker:
    """L_A(5,12) as partitions, built for checking the JSON export only."""

    def __init__(self):
        from dominolattice import BoxSpec, build_l_a, ideal_to_partition
        k, n = EXPORT_BOX
        spec = BoxSpec(k, n)
        L = build_l_a(spec).relabel(lambda i: ideal_to_partition(spec, i))
        self.k, self.size = k, math.comb(n, k)
        self.ranks = L.ranks
        self.edges = {(a, b, c) for a, b, c in L.edges}

    def check(self, doc):
        k = self.k
        if len(doc["vertices"]) != self.size:
            return f"export has {len(doc['vertices'])} vertices, expected {self.size}"
        ranks = {parse_shape(v["part"], k): v["rank"] for v in doc["vertices"]}
        if ranks != self.ranks:
            return "export ranks disagree with build_l_a"
        edges = {(parse_shape(e["from"], k), parse_shape(e["to"], k), e["color"])
                 for e in doc["edges"]}
        if edges != self.edges:
            return "export edges disagree with build_l_a"
        return None
