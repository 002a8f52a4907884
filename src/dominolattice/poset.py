"""Vertex-colored posets, order ideals, and the four Birkhoff-style constructions.

Ideals and filters are plain frozensets of vertex ids.  The lattice built
from them keeps those frozensets as vertex labels, so the canonical
isomorphisms of the fundamental theorem are ordinary dictionaries.
"""

from .lattice import (ColoredLattice, CoverDigraph, LatticeError, induced_covers,
                      is_int, sort_key)


class PosetError(ValueError):
    pass


class VertexColoredPoset(CoverDigraph):
    """Finite poset given by covers, every vertex carrying a positive color."""

    error = PosetError

    def __init__(self, vertices, covers, colors):
        super().__init__(vertices)
        pairs = {self._pair(a, b) for a, b in covers}
        vs = self.vertices
        self.covers = frozenset((vs[i], vs[j]) for i, j in pairs)
        for v in vs:
            if v not in colors:
                raise PosetError(f"vertex {v!r} has no color")
            c = colors[v]
            if not is_int(c) or c < 1:
                raise PosetError(f"color of {v!r} must be a positive integer")
        self.colors = {v: colors[v] for v in vs}
        self._link(pairs)

    def __eq__(self, other):
        if not isinstance(other, VertexColoredPoset):
            return NotImplemented
        return (self.vertices == other.vertices and self.covers == other.covers
                and self.colors == other.colors)

    def __repr__(self):
        return f"VertexColoredPoset({len(self.vertices)} vertices, {len(self.covers)} covers)"

    def _members(self, mask):
        vs = self.vertices
        return frozenset(vs[i] for i in range(mask.bit_length()) if mask >> i & 1)

    def strict_up(self, v):
        i = self._index[v]
        return self._members(self._upsets[i] & ~(1 << i))

    def strict_down(self, v):
        i = self._index[v]
        return self._members(self._downsets[i] & ~(1 << i))

    def color(self, v):
        return self.colors[v]

    def minimal_of(self, subset):
        """The vertices of subset with nothing of subset below them."""
        return self._extremes_of(subset, self._downsets)

    def maximal_of(self, subset):
        """The vertices of subset with nothing of subset above them."""
        return self._extremes_of(subset, self._upsets)

    def _extremes_of(self, subset, closures):
        """The members whose closure mask meets subset's mask only in themselves.

        Non-vertices are ignored; the result is in vertex order.
        """
        idx = self._index
        mask = sum(1 << idx[v] for v in set(subset) if v in idx)
        return [v for i, v in enumerate(self.vertices)
                if mask >> i & 1 and closures[i] & mask == 1 << i]


def is_order_ideal(P, members):
    """True when members are vertices of P closed under going down.

    One AND per member: its down-set mask must lie inside the members'
    mask.  A member that is not a vertex of P gives False.
    """
    idx, down = P._index, P._downsets
    members = set(members)
    if not members <= idx.keys():
        return False
    mask = 0
    for v in members:
        mask |= 1 << idx[v]
    return all(down[idx[v]] & ~mask == 0 for v in members)


def _ideal_covers(P):
    """The order ideals of P and the covers (x, v) of J(P), x | {v} covering x.

    One breadth-first search from the empty ideal walks each cover once.
    """
    full = frozenset(P.vertices)
    ideals = [frozenset()]
    seen = set(ideals)
    covers = []
    for x in ideals:
        for v in P.minimal_of(full - x):
            covers.append((x, v))
            y = x | {v}
            if y not in seen:
                seen.add(y)
                ideals.append(y)
    return ideals, covers


def enumerate_order_ideals(P):
    """All order ideals of P, in vertex order (by sorted member ids)."""
    return sorted(_ideal_covers(P)[0], key=sort_key)


def j_lattice(P):
    """The diamond-colored distributive lattice of order ideals of P.

    Ideals are ordered by containment; the edge adjoining vertex v gets
    v's color.  Ranked by cardinality.
    """
    ideals, covers = _ideal_covers(P)
    return ColoredLattice(ideals, [(x, x | {v}, P.color(v)) for x, v in covers])


def m_lattice(P):
    """The lattice of filters of P ordered by reverse containment.

    Going up removes a minimal element of the filter; the edge takes that
    element's color.  Minimum is the full filter, maximum the empty one.
    The filter of an ideal x is its complement: adding v to x removes v.
    """
    ideals, covers = _ideal_covers(P)
    full = frozenset(P.vertices)
    return ColoredLattice([full - x for x in ideals],
                          [(full - x, full - x - {v}, P.color(v)) for x, v in covers])


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
    It reads the masks `lattice.birkhoff_failure` checks, built once per
    lattice.
    """
    return _irreducibles_of(L, x, L._join_masks)


def canonical_iso_to_filters(L, x):
    """The filter of meet irreducibles above x (dual witness for M(m(L)))."""
    return _irreducibles_of(L, x, L._meet_masks)


def _irreducibles_of(L, x, irreducible_masks):
    """The irreducibles that x's mask in (members, masks) names; O(|members|)."""
    if x not in L:
        raise LatticeError(f"{x!r} is not an element of the lattice")
    members, masks = irreducible_masks
    m, vs = masks[L.index(x)], L.vertices
    return frozenset(vs[i] for b, i in enumerate(members) if m >> b & 1)


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
    """Is the explicit map f a color- and order-preserving bijection P -> Q?

    A bijection that maps covers onto covers is an order isomorphism.
    """
    g = f.__getitem__ if isinstance(f, dict) else f
    images = {v: g(v) for v in P.vertices}
    if set(images.values()) != set(Q.vertices) or len(images) != len(Q.vertices):
        return False
    if any(P.color(v) != Q.color(images[v]) for v in P.vertices):
        return False
    return {(images[a], images[b]) for a, b in P.covers} == Q.covers
