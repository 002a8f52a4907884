"""Edge-colored cover graphs viewed as lattices.

A lattice is stored as its cover digraph: vertices plus directed edges
(x, y, color) meaning y covers x.  Everything else (order, rank, meets,
joins) is derived.  All values are immutable after construction.  The
index-based order core, `CoverDigraph`, also carries vertex-colored posets.

Whether a lattice is diamond-colored and distributive is decided by one
pass over its covers, `birkhoff_failure`: Birkhoff's theorem says it is
exactly when it is the ideal lattice of its colored join irreducibles.
Its slow reference, the definitional checks (`is_diamond_colored` and
the lattice laws), lives in `oracle` and reads a lattice only through its
public methods.  The walks and records it shares with the solve path
live in `records`; they are bound here too.
"""

from collections import Counter
from functools import cached_property
from itertools import product as iproduct

from .records import DOWN, UP, LatticeError, PathRecord, is_int


def sort_key(v):
    """Deterministic total order on vertex labels.

    Handles the label kinds used in this package (strings, ints, tuples,
    frozensets, recursively) without relying on hash order.  Ints compare
    by value; other scalars by type name, then repr.  The exact types
    int, str, tuple and frozenset are tested first, by identity; bools,
    subclasses and other types are then told apart by isinstance.
    """
    t = type(v)
    if t is int:
        return (0, "int", v)
    if t is str:
        return (0, "str", repr(v))
    if t is tuple or isinstance(v, tuple):
        return (1, tuple(map(sort_key, v)))
    if t is frozenset or isinstance(v, frozenset):
        return (2, tuple(sorted(map(sort_key, v))))
    return (0, t.__name__, repr(v))


class CoverDigraph:
    """Cover digraph of a finite order, stored by vertex index.

    Vertices are numbered 0..n-1 in sort_key order and `_index` maps each
    label to its number; labels are translated only at the public boundary.
    A cover (i, j) means j covers i.  `_up[i]` and `_down[i]` list the
    indices covering and covered by i, in index order.  `_upsets[i]` and
    `_downsets[i]` are the inclusive up-set and down-set of i as bitmasks,
    built when first read.  Subclasses set `error` to the exception class
    they raise.
    """

    error = ValueError

    def __init__(self, vertices):
        self._number(tuple(sorted(set(vertices), key=sort_key)))

    def _number(self, vertices):
        """Number the vertices, a tuple of distinct labels in sort_key order."""
        self.vertices = vertices
        self._index = {v: i for i, v in enumerate(vertices)}

    def _pair(self, a, b):
        """Index pair of the cover (a, b); unknown endpoints and loops raise."""
        i, j = self._index.get(a), self._index.get(b)
        if i is None or j is None:
            raise self.error(f"cover ({a!r}, {b!r}) mentions unknown vertex")
        if i == j:
            raise self.error(f"reflexive cover at {a!r}")
        return i, j

    def _link(self, pairs):
        """Store the covers, given as index pairs; reject cycles and non-covers.

        A pair (i, j) is not a cover when another upper cover of i lies
        below j, and then no rank rises by exactly 1 along every pair.  So
        when each connected component has such a rank (`_ranks_from`), all
        are covers; only otherwise are the up-sets built, by
        `_reject_non_covers`.
        """
        pairs = sorted(pairs)
        n = len(self.vertices)
        up, down = [[] for _ in range(n)], [[] for _ in range(n)]
        for i, j in pairs:
            up[i].append(j)
            down[j].append(i)
        self._up, self._down = tuple(map(tuple, up)), tuple(map(tuple, down))
        # Kahn order from the maximal elements (the loop visits what it
        # appends); vertices on or below a cycle never enter it.
        outdeg = [len(ws) for ws in up]
        order = [i for i in range(n) if not outdeg[i]]
        for i in order:
            for w in down[i]:
                outdeg[w] -= 1
                if not outdeg[w]:
                    order.append(w)
        if len(order) != n:
            raise self.error("cover relation contains a cycle")
        self._topo = order
        if _ranks_from(range(n), up, down) is None:
            self._reject_non_covers(pairs)

    def _reject_non_covers(self, pairs):
        """Raise at the first pair (i, j), in order, with another upper cover of i below j."""
        up, ups, vs = self._up, self._upsets, self.vertices
        for i, j in pairs:
            bit = 1 << j
            for z in up[i]:
                if z != j and ups[z] & bit:
                    raise self.error(
                        f"({vs[i]!r}, {vs[j]!r}) is not a cover: {vs[z]!r} lies between")

    @cached_property
    def _upsets(self):
        return _closure(self._topo, self._up, _self_bit)

    @cached_property
    def _downsets(self):
        return _closure(reversed(self._topo), self._down, _self_bit)

    def __len__(self):
        return len(self.vertices)

    def __contains__(self, v):
        return v in self._index

    def index(self, v):
        """Position of v in the canonical vertex order; an unknown v raises, naming it."""
        i = self._index.get(v)
        if i is None:
            raise self.error(f"{v!r} is not a vertex")
        return i

    def le(self, x, y):
        i, j = self.index(x), self.index(y)
        return i == j or bool(self._upsets[i] >> j & 1)


def _ranks_from(roots, up, down):
    """A rank that rises by exactly 1 along every cover, as a list, or None.

    The rank spreads from each root not yet reached, which gets 0, over
    its connected component of the cover graph; a vertex in no root's
    component stays None.  None is returned when two covers disagree,
    as in N5.  Spread from every vertex, a rank per component rules out
    a transitive cover, which would have to rise by 1 and by at least 2
    (`CoverDigraph._link`).
    """
    rank = [None] * len(up)
    for root in roots:
        if rank[root] is not None:
            continue
        rank[root] = 0
        reached = [root]
        for i in reached:
            for adj, r in ((up[i], rank[i] + 1), (down[i], rank[i] - 1)):
                for w in adj:
                    if rank[w] is None:
                        rank[w] = r
                        reached.append(w)
                    elif rank[w] != r:
                        return None
    return rank


def _irreducible_masks(order, adj):
    """The irreducibles reachable from each vertex along adj, as bitmasks.

    A vertex with exactly one adj-neighbour is irreducible, and bit b of
    a mask stands for the b-th irreducible in vertex order.  A vertex's
    mask is its own bit, if it has one, plus its adj-neighbours' masks.
    Every vertex must come after all of its adj-neighbours in order.
    Returns (the irreducibles' indices, the masks).
    """
    members = tuple(i for i, ws in enumerate(adj) if len(ws) == 1)
    own = {i: 1 << b for b, i in enumerate(members)}
    return members, _closure(order, adj, lambda i: own.get(i, 0))


def _self_bit(i):
    return 1 << i


def _closure(order, adj, own):
    """Masks filled in the given order: own(i) plus i's adj-neighbours' masks.

    Every vertex must come after all of its adj-neighbours in order.  With
    `_self_bit` for own, the masks are the inclusive reachability sets.
    """
    masks = [0] * len(adj)
    for i in order:
        m = own(i)
        for w in adj[i]:
            m |= masks[w]
        masks[i] = m
    return masks


class ColoredLattice(CoverDigraph):
    """Finite edge-colored cover digraph.

    Edges point "up".  The constructor checks that the digraph is acyclic,
    simple, and that every edge is a true cover of the induced order.
    Whether the order is actually a lattice is a property (`is_lattice`),
    not a construction requirement, so arbitrary cover graphs (cycles of
    covers excepted) can be represented and probed.
    """

    error = LatticeError

    def __init__(self, vertices, edges):
        super().__init__(vertices)
        if not self.vertices:
            raise LatticeError("empty vertex set")
        color = {}
        for a, b, c in edges:
            pair = self._pair(a, b)
            if not is_int(c):
                raise LatticeError(f"edge color must be an integer, got {c!r}")
            if color.setdefault(pair, c) != c:
                raise LatticeError(f"conflicting colors on edge ({a!r}, {b!r})")
        self._color = color
        self._link(color)

    # -- derived structure ---------------------------------------------------

    @cached_property
    def edges(self):
        """(x, y, color) for every cover, in (x, y) vertex order."""
        vs = self.vertices
        return tuple((vs[i], vs[j], c) for (i, j), c in sorted(self._color.items()))

    @cached_property
    def _join_masks(self):
        """(join irreducibles, for each vertex the mask of those below it)."""
        return _irreducible_masks(reversed(self._topo), self._down)

    @cached_property
    def _birkhoff_verdict(self):
        """`birkhoff_failure`'s verdict, from one `_birkhoff_pass` kept for every caller."""
        return _birkhoff_pass(self)

    @cached_property
    def _meet_masks(self):
        """(meet irreducibles, for each vertex the mask of those above it)."""
        return _irreducible_masks(self._topo, self._up)

    @cached_property
    def _down_lookup(self):
        return {m: i for i, m in enumerate(self._downsets)}

    @cached_property
    def _up_lookup(self):
        return {m: i for i, m in enumerate(self._upsets)}

    def __eq__(self, other):
        if not isinstance(other, ColoredLattice):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __repr__(self):
        return f"ColoredLattice({len(self.vertices)} vertices, {len(self._color)} edges)"

    def up_neighbors(self, v):
        i, vs = self.index(v), self.vertices
        return tuple((vs[j], self._color[i, j]) for j in self._up[i])

    def down_neighbors(self, v):
        i, vs = self.index(v), self.vertices
        return tuple((vs[j], self._color[j, i]) for j in self._down[i])

    def edge_color(self, x, y):
        try:
            return self._color[self._index[x], self._index[y]]
        except KeyError:
            raise LatticeError(f"no edge {x!r} -> {y!r}") from None

    def has_edge(self, x, y):
        return (self._index.get(x), self._index.get(y)) in self._color

    @cached_property
    def is_connected(self):
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for w in self._up[i] + self._down[i]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def meet(self, x, y):
        return self._bound(x, y, self._downsets, self._down_lookup, "meet")

    def join(self, x, y):
        return self._bound(x, y, self._upsets, self._up_lookup, "join")

    def _bound(self, x, y, closures, lookup, name):
        """The vertex whose closure mask is x's and y's in common, if any."""
        i = lookup.get(closures[self.index(x)] & closures[self.index(y)])
        if i is None:
            raise LatticeError(f"no {name} for {x!r}, {y!r}")
        return self.vertices[i]

    @cached_property
    def is_lattice(self):
        """Whether every pair of vertices has a meet and a join.

        Only joins are checked: a finite join-semilattice with a least
        element is a lattice (Stanley, EC1, dual of Prop. 3.3.1).
        """
        if self.minimum is None:
            return False
        up, lookup = self._upsets, self._up_lookup
        return all((a & b) in lookup for i, a in enumerate(up) for b in up[i + 1:])

    def _sole_end(self, adj):
        # Acyclic, so walking along adj from any vertex ends at a vertex with
        # no adj-neighbour; when there is only one, it is the extreme.
        ends = [i for i, ws in enumerate(adj) if not ws]
        return self.vertices[ends[0]] if len(ends) == 1 else None

    @cached_property
    def minimum(self):
        """The unique bottom element, or None."""
        return self._sole_end(self._down)

    @cached_property
    def maximum(self):
        """The unique top element, or None."""
        return self._sole_end(self._up)

    @cached_property
    def ranks(self):
        """Edge-consistent rank map with smallest value 0, or None.

        None means no consistent assignment exists (e.g. an odd cycle of
        covers) or the search from vertex 0 leaves a vertex unreached.
        """
        val = _ranks_from((0,), self._up, self._down)
        if val is None or None in val:
            return None
        low = min(val)
        return {v: r - low for v, r in zip(self.vertices, val)}

    @cached_property
    def length(self):
        """Rank of the top element (the lattice's length)."""
        ranks = self.ranks
        if ranks is None:
            raise LatticeError("not ranked")
        return max(ranks.values())

    def dual(self):
        """Order-reversed lattice; edge colors are kept."""
        return _indexed_lattice(self.vertices,
                                {(j, i): c for (i, j), c in self._color.items()})

    def relabel(self, f):
        """Rename vertices through an injective map (dict or callable)."""
        g = f.__getitem__ if isinstance(f, dict) else f
        images = {v: g(v) for v in self.vertices}
        if len(set(images.values())) != len(images):
            raise LatticeError("relabeling is not injective")
        return ColoredLattice(images.values(),
                              [(images[a], images[b], c) for a, b, c in self.edges])


def _indexed_lattice(vertices, covers):
    """The lattice a builder already holds in index space.

    vertices is a nonempty tuple of distinct labels in sort_key order and
    covers is {(i, j): color} over their indices, colors ints.  No label is
    sorted or looked up and no color is checked: the caller vouches for
    them.  Cycles and non-covers are still rejected, as by ColoredLattice.
    """
    L = ColoredLattice.__new__(ColoredLattice)
    L._number(vertices)
    L._color = covers
    L._link(covers)
    return L


# -- structural predicates ----------------------------------------------------


def birkhoff_failure(L):
    """Why L is not a diamond-colored distributive lattice, or None.

    Birkhoff's theorem as a certificate: L is one exactly when the map f,
    sending each vertex to the set of join irreducibles below it, is a
    color-preserving isomorphism onto the ideal lattice of the join
    irreducibles, each colored like its one lower edge.  One pass over
    the covers checks that L has one minimal element, that f is
    injective, that each cover adds one join irreducible j and carries
    j's color, and that the covers out of each x add exactly the j that
    f(x) can take (those not in f(x) whose lower join irreducibles all
    are).  The message names the vertex or cover where a check broke.
    The verdict is kept on L, so each lattice runs the pass once.

    The takeable sets are built bottom-up, in O(E) set operations plus
    one pass over the comparable pairs of join irreducibles: when a lower
    cover y of x adds the one join irreducible j0, x can take what y can,
    less j0, and the upper covers of j0 among the join irreducibles whose
    lower join irreducibles all lie in f(x).  (Nothing else: the takeable
    j above j0 covers it, since f(y) is a down-set without j0.)  A vertex
    whose first lower cover adds more or less than one is scanned over
    every join irreducible instead.
    """
    return L._birkhoff_verdict


def _birkhoff_pass(L):
    """The checks of `birkhoff_failure`, run on L's covers."""
    vs, down, color = L.vertices, L._down, L._color
    bottoms = [v for v, ws in zip(vs, down) if not ws]
    if len(bottoms) != 1:
        return (f"{len(bottoms)} minimal elements, among them "
                f"{bottoms[0]!r} and {bottoms[1]!r}")
    members, masks = L._join_masks
    first = {}
    for i, m in enumerate(masks):
        j = first.setdefault(m, i)
        if j != i:
            return f"{vs[j]!r} and {vs[i]!r} lie above the same join irreducibles"
    hue = [color[down[j][0], j] for j in members]
    bits = [(masks[j], 1 << b) for b, j in enumerate(members)]
    uppers = _upper_covers(bits)
    takeable = [0] * len(vs)
    for x in reversed(L._topo):
        fx, ys = masks[x], down[x]
        d = fx ^ masks[ys[0]] if ys else 0
        if d and not d & (d - 1):
            t = takeable[ys[0]] & ~d
            for m, bit in uppers[d.bit_length() - 1]:
                if m & ~fx == bit:
                    t |= bit
        else:
            rest = ~fx
            t = sum(bit for m, bit in bits if m & rest == bit)
        takeable[x] = t
    for x, ys in enumerate(L._up):
        fx = masks[x]
        added = 0
        for y in ys:
            d = masks[y] ^ fx       # masks[y] contains fx; injective, so d != 0
            if d & (d - 1):
                return (f"cover ({vs[x]!r}, {vs[y]!r}) adds {d.bit_count()} "
                        "join irreducibles, not one")
            b = d.bit_length() - 1
            if color[x, y] != hue[b]:
                return (f"cover ({vs[x]!r}, {vs[y]!r}) has color {color[x, y]}, "
                        f"but the join irreducible {vs[members[b]]!r} it adds "
                        f"has color {hue[b]}")
            added |= d
        # A cover's j always qualifies (what lies below j lies below y), so
        # the covers match the takeable j one to one when none is missing.
        missing = takeable[x] & ~added
        if missing:
            j = members[(missing & -missing).bit_length() - 1]
            return (f"no cover out of {vs[x]!r} adds the join irreducible "
                    f"{vs[j]!r}, though every join irreducible below it lies "
                    f"below {vs[x]!r}")
    return None


def _upper_covers(elements):
    """Each element's upper covers, given and listed as (down-set, own bit) pairs.

    Bit c of a down-set stands for element c of a finite order, and an
    element's down-set holds its own bit.  The lower covers of an element
    are the elements below it that lie below no other element below it.
    """
    below = [m ^ bit for m, bit in elements]
    uppers = [[] for _ in elements]
    for entry, under in zip(elements, below):
        lower, rest = 0, under
        while rest:
            low = rest & -rest
            lower |= below[low.bit_length() - 1]
            rest ^= low
        rest = under & ~lower
        while rest:
            low = rest & -rest
            uppers[low.bit_length() - 1].append(entry)
            rest ^= low
    return uppers


def iso_failure(G, H, f):
    """Why the explicit map f is not a color-preserving isomorphism G -> H, or None.

    f, a dict or a callable, is read once at each vertex of G, and the map
    is checked on vertex indices: it must be a bijection onto H's vertices,
    and G's covers, mapped through it, must be H's covers with their
    colors.  The message names the first vertex of G, in vertex order,
    where the map fails, or else the first cover.  Its definitional
    reference is `oracle.check_constructed_iso`.
    """
    g = f.__getitem__ if isinstance(f, dict) else f
    gv, hv, at = G.vertices, H.vertices, H._index
    image, hit = [], [None] * len(hv)
    for n, v in enumerate(gv):
        w = g(v)
        i = at.get(w)
        if i is None:
            return f"{v!r} maps to {w!r}, which is not a vertex of the target"
        if hit[i] is not None:
            return f"{gv[hit[i]]!r} and {v!r} both map to {w!r}"
        hit[i] = n
        image.append(i)
    if len(gv) != len(hv):
        return f"no vertex maps to {hv[hit.index(None)]!r}"
    hc = H._color
    mapped = {(image[i], image[j]): c for (i, j), c in G._color.items()}
    if mapped == hc:
        return None
    for (i, j), c in sorted(G._color.items()):
        a, b = image[i], image[j]
        d = hc.get((a, b))
        if d != c:
            cover = f"cover ({gv[i]!r}, {gv[j]!r})"
            if d is None:
                return f"{cover} maps to ({hv[a]!r}, {hv[b]!r}), which is not a cover"
            return (f"{cover} has color {c}, but its image "
                    f"({hv[a]!r}, {hv[b]!r}) has color {d}")
    a, b = min(hc.keys() - mapped.keys())
    return (f"({gv[hit[a]]!r}, {gv[hit[b]]!r}) is not a cover, "
            f"but its image ({hv[a]!r}, {hv[b]!r}) is")


# -- paths --------------------------------------------------------------------
# A walk is a `records.PathRecord`: vertices plus (color, UP or DOWN) steps.


def path_from_vertices(L, vertices):
    """Build a PathRecord from a vertex sequence, reading off edge data."""
    vertices = tuple(vertices)
    at, color = [L.index(v) for v in vertices], L._color
    steps = []
    for n, (i, j) in enumerate(zip(at, at[1:])):
        c = color.get((i, j))
        if c is not None:
            steps.append((c, UP))
            continue
        c = color.get((j, i))
        if c is None:
            raise LatticeError(f"{vertices[n]!r} and {vertices[n + 1]!r} "
                               "are not joined by an edge")
        steps.append((c, DOWN))
    return PathRecord(vertices, tuple(steps))


def path_stats(p):
    """(length, per-color ascent counts, per-color descent counts)."""
    ascents = Counter(c for c, d in p.steps if d == UP)
    descents = Counter(c for c, d in p.steps if d == DOWN)
    return len(p.steps), ascents, descents


def _rewrite(L, p, to_mountain):
    if not p.is_simple:
        raise LatticeError("path is not simple")
    p.validate(L)
    verts = list(p.vertices)
    limit = (len(verts) + 1) * (len(L.vertices) + 1)
    for _ in range(limit):
        spot = None
        for j in range(1, len(verts) - 1):
            a, v, b = verts[j - 1], verts[j], verts[j + 1]
            if to_mountain:
                bad = L.has_edge(v, a) and L.has_edge(v, b)
            else:
                bad = L.has_edge(a, v) and L.has_edge(b, v)
            if bad:
                spot = j
                break
        if spot is None:
            return path_from_vertices(L, verts)
        a, b = verts[spot - 1], verts[spot + 1]
        if a == b:
            raise LatticeError(
                "rewriting produced an immediate backtrack at "
                f"{verts[spot]!r}; no equal-length rewrite of this walk "
                "exists (minimum-length paths never reach this state)")
        if to_mountain:
            cand = [u for u, _ in L.up_neighbors(a) if L.has_edge(b, u)]
        else:
            cand = [u for u, _ in L.down_neighbors(a) if L.has_edge(u, b)]
        if len(cand) != 1:
            raise LatticeError(
                f"no unique diamond completion over ({a!r}, {b!r}); "
                "lattice is not topographically balanced")
        verts[spot] = cand[0]
    raise LatticeError("rewriting did not terminate")


def mountainize(L, p):
    """Lift every interior local minimum until the path is a mountain.

    Follows the least-index rule, so the output is deterministic.  Length
    is preserved; on diamond-colored input the per-color ascent/descent
    counts are preserved as well.
    """
    return _rewrite(L, p, to_mountain=True)


def valleyize(L, p):
    return _rewrite(L, p, to_mountain=False)


# -- products and sublattices ---------------------------------------------------


def product(*lattices):
    """Componentwise product; vertices are tuples, one slot per factor."""
    if not lattices:
        raise LatticeError("empty product")
    # The tuples come in sort_key order, numbered in mixed radix: a step in
    # a slot moves by the stride, the size of the product of later factors.
    vertices = tuple(iproduct(*[L.vertices for L in lattices]))
    covers = {}
    stride = len(vertices)
    for Lq in lattices:
        block, stride = stride, stride // len(Lq)
        for (i, j), c in Lq._color.items():
            for v in range(i * stride, len(vertices), block):
                for x in range(v, v + stride):
                    covers[x, x + (j - i) * stride] = c
    return _indexed_lattice(vertices, covers)


def check_full_length_sublattice(L, K):
    """Does the vertex subset K induce a full-length sublattice of L?

    Requires K to be meet/join closed, to contain both extremes, and to
    support a bottom-to-top cover path staying inside K.
    """
    K = set(K)
    if not K <= set(L.vertices):
        raise LatticeError("K is not a vertex subset of L")
    if not L.is_lattice:
        raise LatticeError("host is not a lattice")
    if L.minimum not in K or L.maximum not in K:
        return False
    members = sorted(K, key=sort_key)
    for i, x in enumerate(members):
        for y in members[i + 1:]:
            if L.meet(x, y) not in K or L.join(x, y) not in K:
                return False
    order = [L.minimum]
    seen = set(order)
    for v in order:
        if v == L.maximum:
            return True
        for w, _ in L.up_neighbors(v):
            if w in K and w not in seen:
                seen.add(w)
                order.append(w)
    return False


def full_length_witness(L, K, x):
    """Least element of K above x; unique when K is full length in L."""
    above = [y for y in sorted(K, key=sort_key) if L.le(x, y)]
    minimal = [y for y in above if not any(z != y and L.le(z, y) for z in above)]
    if len(minimal) != 1:
        raise LatticeError(
            f"minimal element over {x!r} is not unique; K is not full length")
    return minimal[0]
