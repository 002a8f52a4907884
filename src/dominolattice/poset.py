"""Vertex-colored posets, order ideals, and the four Birkhoff-style constructions.

Ideals and filters are plain frozensets of vertex ids.  The lattice built
from them keeps those frozensets as vertex labels, so the canonical
isomorphisms of the fundamental theorem are ordinary dictionaries.
"""

from collections import deque
from functools import cached_property

from .lattice import ColoredLattice, LatticeError, induced_covers, is_int, sort_key


class PosetError(ValueError):
    pass


class VertexColoredPoset:
    """Finite poset given by covers, every vertex carrying a positive color."""

    def __init__(self, vertices, covers, colors):
        self.vertices = tuple(sorted(set(vertices), key=sort_key))
        vset = set(self.vertices)
        cov = set()
        for a, b in covers:
            if a not in vset or b not in vset:
                raise PosetError(f"cover ({a!r}, {b!r}) mentions unknown vertex")
            if a == b:
                raise PosetError(f"reflexive cover at {a!r}")
            cov.add((a, b))
        self.covers = frozenset(cov)
        for v in self.vertices:
            if v not in colors:
                raise PosetError(f"vertex {v!r} has no color")
            c = colors[v]
            if not is_int(c) or c < 1:
                raise PosetError(f"color of {v!r} must be a positive integer")
        self.colors = {v: colors[v] for v in self.vertices}
        self._index = {v: i for i, v in enumerate(self.vertices)}
        up = {v: [] for v in self.vertices}
        down = {v: [] for v in self.vertices}
        for a, b in sorted(self.covers, key=lambda e: (sort_key(e[0]), sort_key(e[1]))):
            up[a].append(b)
            down[b].append(a)
        self._up = {v: tuple(ws) for v, ws in up.items()}
        self._down = {v: tuple(ws) for v, ws in down.items()}
        self._check_dag_and_covers()

    def _check_dag_and_covers(self):
        if len(self._topo_from_top) != len(self.vertices):
            raise PosetError("cover relation contains a cycle")
        for a, b in self.covers:
            for z in self._up[a]:
                if z != b and b in self.strict_up(z):
                    raise PosetError(
                        f"({a!r}, {b!r}) is not a cover: {z!r} lies between")

    def __len__(self):
        return len(self.vertices)

    def __eq__(self, other):
        if not isinstance(other, VertexColoredPoset):
            return NotImplemented
        return (self.vertices == other.vertices and self.covers == other.covers
                and self.colors == other.colors)

    def __repr__(self):
        return f"VertexColoredPoset({len(self.vertices)} vertices, {len(self.covers)} covers)"

    @cached_property
    def _strict_up(self):
        out = {}
        for v in self._topo_from_top:
            s = set()
            for w in self._up[v]:
                s.add(w)
                s |= out[w]
            out[v] = frozenset(s)
        return out

    @cached_property
    def _topo_from_top(self):
        """Kahn order from the maximal elements; short when covers form a cycle."""
        indeg = {v: len(self._up[v]) for v in self.vertices}
        queue = deque(v for v in self.vertices if indeg[v] == 0)
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in self._down[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        return order

    @cached_property
    def _strict_down(self):
        out = {}
        for v in reversed(self._topo_from_top):
            s = set()
            for w in self._down[v]:
                s.add(w)
                s |= out[w]
            out[v] = frozenset(s)
        return out

    def strict_up(self, v):
        return self._strict_up[v]

    def strict_down(self, v):
        return self._strict_down[v]

    def le(self, u, v):
        return u == v or v in self._strict_up[u]

    def color(self, v):
        return self.colors[v]

    def index(self, v):
        """Position of v in the canonical vertex order (used for tie-breaks)."""
        return self._index[v]

    def minimal_of(self, subset):
        subset = set(subset)
        return [v for v in self.vertices
                if v in subset and not (self._strict_down[v] & subset)]

    def maximal_of(self, subset):
        subset = set(subset)
        return [v for v in self.vertices
                if v in subset and not (self._strict_up[v] & subset)]


def is_order_ideal(P, members):
    members = set(members)
    if not members <= set(P.vertices):
        return False
    return all(P.strict_down(v) <= members for v in members)


def is_filter(P, members):
    members = set(members)
    if not members <= set(P.vertices):
        return False
    return all(P.strict_up(v) <= members for v in members)


def enumerate_order_ideals(P):
    """All order ideals of P, sorted lexicographically by sorted member ids."""
    ideals = {frozenset()}
    queue = deque(ideals)
    while queue:
        x = queue.popleft()
        for v in P.minimal_of(set(P.vertices) - x):
            y = x | {v}
            if y not in ideals:
                ideals.add(y)
                queue.append(y)
    return sorted(ideals, key=lambda s: tuple(sorted(sort_key(m) for m in s)))


def j_lattice(P):
    """The diamond-colored distributive lattice of order ideals of P.

    Ideals are ordered by containment; the edge adjoining vertex v gets
    v's color.  Ranked by cardinality.
    """
    ideals = enumerate_order_ideals(P)
    edges = []
    for x in ideals:
        for v in P.minimal_of(set(P.vertices) - x):
            edges.append((x, x | {v}, P.color(v)))
    return ColoredLattice(ideals, edges)


def m_lattice(P):
    """The lattice of filters of P ordered by reverse containment.

    Going up removes a minimal element of the filter; the edge takes that
    element's color.  Minimum is the full filter, maximum the empty one.
    """
    filters = [frozenset(set(P.vertices) - x) for x in enumerate_order_ideals(P)]
    edges = []
    for x in filters:
        for v in P.minimal_of(x):
            edges.append((x, x - {v}, P.color(v)))
    return ColoredLattice(filters, edges)


def join_irreducibles(L):
    """The vertex-colored poset of join irreducibles of a lattice.

    Join irreducibles are the vertices covering exactly one element; each
    keeps the color of its unique lower edge.
    """
    if not L.is_lattice:
        raise PosetError("input is not a lattice")
    members = [v for v in L.vertices if len(L.down_neighbors(v)) == 1]
    return VertexColoredPoset(members, induced_covers(L, members),
                              {v: L.down_neighbors(v)[0][1] for v in members})


def meet_irreducibles(L):
    """Dual of join_irreducibles: vertices covered by exactly one element."""
    if not L.is_lattice:
        raise PosetError("input is not a lattice")
    members = [v for v in L.vertices if len(L.up_neighbors(v)) == 1]
    return VertexColoredPoset(members, induced_covers(L, members),
                              {v: L.up_neighbors(v)[0][1] for v in members})


def dual(P):
    return VertexColoredPoset(P.vertices, [(b, a) for a, b in P.covers], P.colors)


def recolor(P, sigma):
    """Recolor vertices through the map sigma; sigma must cover every used color."""
    missing = {P.color(v) for v in P.vertices} - set(sigma)
    if missing:
        raise PosetError(f"recoloring map is missing colors {sorted(missing)}")
    return VertexColoredPoset(P.vertices, P.covers,
                              {v: sigma[P.color(v)] for v in P.vertices})


def disjoint_sum(P, Q):
    """Disjoint union; ids are tagged (0, id) / (1, id) to stay distinct."""
    vertices = [(0, v) for v in P.vertices] + [(1, v) for v in Q.vertices]
    covers = [((0, a), (0, b)) for a, b in P.covers] + \
             [((1, a), (1, b)) for a, b in Q.covers]
    colors = {(0, v): P.color(v) for v in P.vertices}
    colors.update({(1, v): Q.color(v) for v in Q.vertices})
    return VertexColoredPoset(vertices, covers, colors)


def principal_ideal(P, v):
    return frozenset(P.strict_down(v) | {v})


def principal_filter(P, v):
    return frozenset(P.strict_up(v) | {v})


def canonical_iso_to_ideals(L, x):
    """The ideal of join irreducibles below x.

    Witnesses L = J(j(L)): sending every x through this map is a colored
    digraph isomorphism onto the ideal lattice of join_irreducibles(L).
    """
    if x not in L:
        raise LatticeError(f"{x!r} is not an element of the lattice")
    jirr = [v for v in L.vertices if len(L.down_neighbors(v)) == 1]
    return frozenset(j for j in jirr if L.le(j, x))


def canonical_iso_to_filters(L, x):
    """The filter of meet irreducibles above x (dual witness for M(m(L)))."""
    if x not in L:
        raise LatticeError(f"{x!r} is not an element of the lattice")
    mirr = [v for v in L.vertices if len(L.up_neighbors(v)) == 1]
    return frozenset(m for m in mirr if L.le(x, m))


def join_to_meet_irreducible(L, u):
    """The meet irreducible paired with the join irreducible u.

    Constructively: the unique maximal element of {x : u is not below x},
    computed as the join of that set (distributivity makes it stay inside).
    """
    outside = [x for x in L.vertices if not L.le(u, x)]
    if not outside:
        raise LatticeError(f"{u!r} is below every element")
    m = outside[0]
    for x in outside[1:]:
        m = L.join(m, x)
    if L.le(u, m):
        raise LatticeError(f"no unique maximal element avoids {u!r}")
    return m


def check_poset_iso(P, Q, f):
    """Is the explicit map f a color- and order-preserving bijection P -> Q?"""
    g = f.__getitem__ if isinstance(f, dict) else f
    images = {}
    for v in P.vertices:
        images[v] = g(v)
    if set(images.values()) != set(Q.vertices) or len(images) != len(Q.vertices):
        return False
    for v in P.vertices:
        if P.color(v) != Q.color(images[v]):
            return False
    for u in P.vertices:
        for v in P.vertices:
            if P.le(u, v) != Q.le(images[u], images[v]):
                return False
    return True
