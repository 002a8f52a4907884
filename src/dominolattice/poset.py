"""Vertex-colored posets, order ideals, and the four Birkhoff-style constructions.

Ideals and filters are plain frozensets of vertex ids.  The lattice built
from them keeps those frozensets as vertex labels, so the canonical
isomorphisms of the fundamental theorem are ordinary dictionaries.

Underneath, the ideal layer works on int masks (Birkhoff's rings of
sets), one bit per vertex, the vertices numbered in (color, index)
order: the order-ideal check, the breadth-first search of J(P) and the
greedy legs of the generic solver.  A mask is an ideal when every
member's lower covers, as a mask, lie inside it.  Frozensets are made
only for the vertices a caller receives.
"""

from collections import Counter
from functools import cached_property

from .lattice import (CoverDigraph, LatticeError, _indexed_lattice, _upper_covers,
                      birkhoff_failure, is_int, sort_key)


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

    @cached_property
    def _by_color(self):
        """The vertices renumbered in (color, index) order, for the ideal masks.

        Bit b of a mask stands for the b-th vertex in that order, so a
        mask's lowest set bit is its smallest-color member, ties to the
        lowest index.  Returns the vertices, their colors, the position
        of each vertex, and the lower and the upper covers of each as
        masks, all in this numbering.
        """
        vs, colors = self.vertices, self.colors
        order = sorted(range(len(vs)), key=lambda i: (colors[vs[i]], i))
        pos = [0] * len(vs)
        for b, i in enumerate(order):
            pos[i] = b

        def renumbered(adj):
            return tuple(sum(1 << pos[j] for j in adj[i]) for i in order)

        labels = tuple(vs[i] for i in order)
        return (labels, tuple(colors[v] for v in labels),
                {v: b for b, v in enumerate(labels)},
                renumbered(self._down), renumbered(self._up))

    def strict_up(self, v):
        return self._strictly_within(v, self._upsets)

    def strict_down(self, v):
        return self._strictly_within(v, self._downsets)

    def _strictly_within(self, v, closures):
        """The vertices other than v in v's closure mask."""
        i, vs = self.index(v), self.vertices
        mask = closures[i] & ~(1 << i)
        return frozenset(vs[b] for b in range(mask.bit_length()) if mask >> b & 1)

    def color(self, v):
        self.index(v)           # an unknown v raises PosetError, naming it
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


def _ideal_mask(P, members):
    """The mask of members in P's (color, index) numbering, if they form an ideal.

    None when a member is not a vertex of P, or when a member's lower
    covers, as a mask, do not lie inside the members' mask; the
    numbering is `VertexColoredPoset._by_color`.
    """
    _, _, where, lower, _ = P._by_color
    mask = 0
    for v in members:
        b = where.get(v)
        if b is None:
            return None
        mask |= 1 << b
    rest = mask
    while rest:
        low = rest & -rest
        if lower[low.bit_length() - 1] & ~mask:
            return None
        rest ^= low
    return mask


def is_order_ideal(P, members):
    """True when members are vertices of P closed under going down.

    One AND per member, in `_ideal_mask`: its lower covers' mask must
    lie inside the members' mask.  A member that is not a vertex of P
    gives False.
    """
    return _ideal_mask(P, members) is not None


def _greedy_flips(P, start, target):
    """The vertices a greedy leg between two ideal masks flips, in order.

    The masks, one inside the other, are as in `_ideal_mask`.  Going up
    it adjoins a minimal element of target - current, one whose lower
    covers are all in current; going down it removes a maximal element
    of current - target, one with no upper cover in current.  Each step
    flips the lowest such bit: smallest color first, then the lowest
    index.  Returns (vertex, color) for each flip.
    """
    labels, hues, _, lower, upper = P._by_color
    up = not (start & ~target)
    blocking = lower if up else upper
    current, flips = start, []
    rest = start ^ target
    while rest:
        free = ~current if up else current
        scan = rest
        while True:
            if not scan:
                raise AssertionError("no greedy step between the two ideals")
            low = scan & -scan
            b = low.bit_length() - 1
            if not blocking[b] & free:
                break
            scan ^= low
        current ^= low
        rest ^= low
        flips.append((labels[b], hues[b]))
    return flips


def _color_census(P, mask):
    """Counter of the colors of the members of a mask, in one pass over its bits.

    The bits run in (color, index) order, so the colors enter ascending.
    The Counter is made without `Counter.__init__`, which only runs
    update(None).
    """
    hues, census = P._by_color[1], Counter.__new__(Counter)
    while mask:
        low = mask & -mask
        census[hues[low.bit_length() - 1]] += 1
        mask ^= low
    return census


def _ideal_covers(P):
    """The order ideals of P and the covers (x, b) of J(P) between them.

    One breadth-first search on ideal masks from the empty ideal walks
    each cover once: x | 1 << b covers x when vertex b is outside x and
    its lower covers are all inside.  Returns {mask: frozenset} over the
    ideals, in the order the search meets them, and the covers.
    """
    vs, _, _, lower, _ = P._by_color
    full = (1 << len(vs)) - 1
    ideals = [0]
    labels = {0: frozenset()}
    covers = []
    for x in ideals:
        rest = full & ~x
        while rest:
            low = rest & -rest
            rest ^= low
            b = low.bit_length() - 1
            if not lower[b] & ~x:
                covers.append((x, b))
                y = x | low
                if y not in labels:
                    labels[y] = labels[x] | {vs[b]}
                    ideals.append(y)
    return labels, covers


def enumerate_order_ideals(P):
    """All order ideals of P, in vertex order (by sorted member ids)."""
    labels = _ideal_covers(P)[0]
    return [labels[x] for x in _in_label_order(P, labels)]


def _in_label_order(P, labels):
    """The masks of {mask: frozenset label}, their labels in sort_key order.

    P's vertices are numbered in sort_key order, so that is the order of
    the sorted tuples of the label members' indices in P.
    """
    index = P._index
    return sorted(labels, key=lambda x: sorted(map(index.__getitem__, labels[x])))


def _mask_lattice(P, labels, covers):
    """The lattice on the labels of the ideal masks, covers colored by vertex."""
    hues = P._by_color[1]
    order = _in_label_order(P, labels)
    at = {x: i for i, x in enumerate(order)}
    return _indexed_lattice(tuple(map(labels.__getitem__, order)),
                            {(at[x], at[x | 1 << b]): hues[b] for x, b in covers})


def j_lattice(P):
    """The diamond-colored distributive lattice of order ideals of P.

    Ideals are ordered by containment; the edge adjoining vertex v gets
    v's color.  Ranked by cardinality.
    """
    return _mask_lattice(P, *_ideal_covers(P))


def m_lattice(P):
    """The lattice of filters of P ordered by reverse containment.

    Going up removes a minimal element of the filter; the edge takes that
    element's color.  Minimum is the full filter, maximum the empty one.
    The filter of an ideal x is its complement: adding v to x removes v.
    """
    labels, covers = _ideal_covers(P)
    full = frozenset(P.vertices)
    return _mask_lattice(P, {x: full - label for x, label in labels.items()}, covers)


def join_irreducibles(L):
    """The vertex-colored poset of join irreducibles of a lattice.

    Join irreducibles are the vertices covering exactly one element; each
    keeps the color of its unique lower edge.
    """
    return _irreducibles_poset(L, L._join_masks, L.down_neighbors, False)


def meet_irreducibles(L):
    """Dual of join_irreducibles: vertices covered by exactly one element."""
    return _irreducibles_poset(L, L._meet_masks, L.up_neighbors, True)


def _irreducibles_poset(L, irreducible_masks, neighbors, above):
    """The poset of the irreducibles (members, masks), colored by their one neighbor edge.

    An irreducible's mask holds its own bit and those of the irreducibles
    below it, or above it when `above`, so the covers are read off the
    masks by `_upper_covers`, each pair reversed when `above`.  L must
    be a lattice.  Birkhoff's certificate, one pass over the covers kept
    on L, settles that for every distributive lattice; only where it
    fails is every pair of vertices asked for its join (`is_lattice`).
    """
    if birkhoff_failure(L) is not None and not L.is_lattice:
        raise PosetError("input is not a lattice")
    members, masks = irreducible_masks
    labels = [L.vertices[i] for i in members]
    uppers = _upper_covers([(masks[i], 1 << b) for b, i in enumerate(members)])
    covers = [(labels[b], labels[bit.bit_length() - 1])
              for b, over in enumerate(uppers) for _, bit in over]
    if above:
        covers = [(y, x) for x, y in covers]
    return VertexColoredPoset(labels, covers, {v: neighbors(v)[0][1] for v in labels})


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


def poset_iso_failure(P, Q, f):
    """Why the explicit map f is not a color- and order-preserving bijection P -> Q, or None.

    A bijection mapping covers onto covers is an order isomorphism.  Like
    `lattice.iso_failure`, it names the first vertex or else cover where f fails.
    """
    g = f.__getitem__ if isinstance(f, dict) else f
    image, hit = {}, {}
    for v in P.vertices:
        w = image[v] = g(v)
        if w not in Q:
            return f"{v!r} maps to {w!r}, which is not a vertex of the target"
        if w in hit:
            return f"{hit[w]!r} and {v!r} both map to {w!r}"
        hit[w] = v
        if P.colors[v] != Q.colors[w]:
            return f"{v!r} has color {P.colors[v]}, but its image {w!r} has color {Q.colors[w]}"
    if len(hit) != len(Q):
        return f"no vertex maps to {next(w for w in Q.vertices if w not in hit)!r}"
    mapped = {(image[a], image[b]): (a, b) for a, b in P.covers}
    lost = [mapped[c] for c in mapped.keys() - Q.covers]
    if lost:
        a, b = min(lost, key=sort_key)      # sort_key order is vertex order
        return f"cover ({a!r}, {b!r}) maps to ({image[a]!r}, {image[b]!r}), which is not a cover"
    if Q.covers != mapped.keys():
        a, b = min(Q.covers - mapped.keys(), key=sort_key)
        return f"({hit[a]!r}, {hit[b]!r}) is not a cover, but its image ({a!r}, {b!r}) is"
    return None
