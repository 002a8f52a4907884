"""Vertex-colored posets, order ideals, and the four Birkhoff-style constructions.

Ideals and filters are plain frozensets of vertex ids.  The lattice built
from them keeps those frozensets as vertex labels, so the canonical
isomorphisms of the fundamental theorem are ordinary dictionaries.

Underneath, the ideal layer works on int masks (Birkhoff's rings of
sets) in the order core's own numbering, bit b for `vertices[b]`: the
order-ideal check, the breadth-first search of J(P) and the greedy legs
of the generic solver.  A mask is an ideal when every member's down-set
(`_downsets`, which holds the member's own bit) lies inside it.
Frozensets are made only for the vertices a caller receives.
"""

from collections import Counter
from functools import cached_property

from .lattice import (CoverDigraph, LatticeError, _indexed_lattice, _upper_covers,
                      birkhoff_failure, is_int)


class PosetError(ValueError):
    pass


class VertexColoredPoset(CoverDigraph):
    """Finite poset given by covers, every vertex carrying a positive color.

    The covers are kept in the core's index map, each mapped to None; the
    colors are the vertices' own.
    """

    error = PosetError

    def __init__(self, vertices, covers, colors):
        super().__init__(vertices)
        pairs = dict.fromkeys(self._pair(a, b) for a, b in covers)
        vs = self.vertices
        for v in vs:
            if v not in colors:
                raise PosetError(f"vertex {v!r} has no color")
            c = colors[v]
            if not is_int(c) or c < 1:
                raise PosetError(f"color of {v!r} must be a positive integer")
        self.colors = {v: colors[v] for v in vs}
        self._link(pairs)

    @cached_property
    def covers(self):
        """The covers as a frozenset of (lower, upper) label pairs."""
        vs = self.vertices
        return frozenset((vs[i], vs[j]) for i, j in self._color)

    def __repr__(self):
        return f"VertexColoredPoset({len(self.vertices)} vertices, {len(self._color)} covers)"

    @cached_property
    def _color_masks(self):
        """(color, mask of the vertices of that color) pairs, in ascending color order."""
        masks = {}
        for b, v in enumerate(self.vertices):
            c = self.colors[v]
            masks[c] = masks.get(c, 0) | 1 << b
        return tuple(sorted(masks.items()))

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
    """The mask of members, bit b for `P.vertices[b]`, if they form an ideal.

    None when a member is not a vertex of P, or when a member's down-set
    (`_downsets`) does not lie inside the members' mask.
    """
    index, downsets = P._index, P._downsets
    mask = 0
    for v in members:
        b = index.get(v)
        if b is None:
            return None
        mask |= 1 << b
    rest = mask
    while rest:
        low = rest & -rest
        if downsets[low.bit_length() - 1] & ~mask:
            return None
        rest ^= low
    return mask


def is_order_ideal(P, members):
    """True when members are vertices of P closed under going down.

    One AND per member, in `_ideal_mask`: its down-set's mask must lie
    inside the members' mask.  A member that is not a vertex of P gives
    False.
    """
    return _ideal_mask(P, members) is not None


def _greedy_flips(P, start, target):
    """The vertices a greedy leg between two ideal masks flips, in order.

    The masks, one inside the other, are as in `_ideal_mask`.  Going up
    it adjoins a b of target - current whose down-set meets the
    complement of current only in b; going down it removes a b of
    current - target whose up-set meets current only in b.  Each step
    flips such a b of the smallest color, then the lowest index
    (`_color_masks`).  Returns (vertex, color) for each flip.
    """
    up = not (start & ~target)
    closures = P._downsets if up else P._upsets
    current, flips = start, []
    rest = start ^ target
    while rest:
        free = ~current if up else current
        low, c = _greedy_step(P, rest, free, closures)
        current ^= low
        rest ^= low
        flips.append((P.vertices[low.bit_length() - 1], c))
    return flips


def _greedy_step(P, rest, free, closures):
    """(bit, color) of the first b of rest, by color then index, whose closure meets free in b."""
    for c, hue in P._color_masks:
        scan = rest & hue
        while scan:
            low = scan & -scan
            if closures[low.bit_length() - 1] & free == low:
                return low, c
            scan ^= low
    raise AssertionError("no greedy step between the two ideals")


def _color_census(P, mask):
    """Counter of the colors of the members of a mask, one popcount per color.

    The colors enter ascending.  The Counter is made without
    `Counter.__init__`, which only runs update(None).
    """
    census = Counter.__new__(Counter)
    for c, hue in P._color_masks:
        n = (mask & hue).bit_count()
        if n:
            census[c] = n
    return census


def _ideal_covers(P):
    """The order ideals of P and the covers (x, b) of J(P) between them.

    One breadth-first search on ideal masks from the empty ideal walks
    each cover once: x | 1 << b covers x when vertex b's down-set meets
    the complement of x only in b.  Returns {mask: frozenset} over the
    ideals, in the order the search meets them, and the covers.
    """
    vs, downsets = P.vertices, P._downsets
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
            if downsets[b] & ~x == low:
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
    vs, colors = P.vertices, P.colors
    order = _in_label_order(P, labels)
    at = {x: i for i, x in enumerate(order)}
    return _indexed_lattice(tuple(map(labels.__getitem__, order)),
                            {(at[x], at[x | 1 << b]): colors[vs[b]] for x, b in covers})


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
