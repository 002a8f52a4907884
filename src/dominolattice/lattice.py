"""Edge-colored cover graphs viewed as lattices.

A lattice is stored as its cover digraph: vertices plus directed edges
(x, y, color) meaning y covers x.  Everything else (order, rank, meets,
joins) is derived.  All values are immutable after construction.
"""

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct


class LatticeError(ValueError):
    pass


def is_int(value):
    """True for an int that is not a bool (bool subclasses int)."""
    return type(value) is int or (isinstance(value, int) and not isinstance(value, bool))


def sort_key(v):
    """Deterministic total order on vertex labels.

    Handles the label kinds used in this package (strings, ints, tuples,
    frozensets, recursively) without relying on hash order.  Ints compare
    by value; other scalars by type name, then repr.
    """
    if isinstance(v, frozenset):
        return (2, tuple(sorted(sort_key(x) for x in v)))
    if isinstance(v, tuple):
        return (1, tuple(sort_key(x) for x in v))
    if type(v) is int:
        return (0, "int", v)
    return (0, type(v).__name__, repr(v))


class ColoredLattice:
    """Finite edge-colored cover digraph.

    Edges point "up".  The constructor checks that the digraph is acyclic,
    simple, and that every edge is a true cover of the induced order.
    Whether the order is actually a lattice is a property (`is_lattice`),
    not a construction requirement, so arbitrary cover graphs (cycles of
    covers excepted) can be represented and probed.
    """

    def __init__(self, vertices, edges):
        self.vertices = tuple(sorted(set(vertices), key=sort_key))
        if not self.vertices:
            raise LatticeError("empty vertex set")
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        seen = {}
        for a, b, c in edges:
            if a not in self._vindex or b not in self._vindex:
                raise LatticeError(f"edge endpoint not a vertex: ({a!r}, {b!r})")
            if a == b:
                raise LatticeError(f"loop edge at {a!r}")
            if not is_int(c):
                raise LatticeError(f"edge color must be an integer, got {c!r}")
            if (a, b) in seen and seen[(a, b)] != c:
                raise LatticeError(f"conflicting colors on edge ({a!r}, {b!r})")
            seen[(a, b)] = c
        self._edge_color = seen
        self.edges = tuple(
            sorted(((a, b, c) for (a, b), c in seen.items()),
                   key=lambda e: (sort_key(e[0]), sort_key(e[1]))))
        up = {v: [] for v in self.vertices}
        down = {v: [] for v in self.vertices}
        for a, b, c in self.edges:
            up[a].append((b, c))
            down[b].append((a, c))
        self._up = {v: tuple(ws) for v, ws in up.items()}
        self._down = {v: tuple(ws) for v, ws in down.items()}
        if len(self._topo_reversed) != len(self.vertices):
            raise LatticeError("cover digraph contains a directed cycle")
        self._check_covers()

    # -- construction checks ------------------------------------------------

    def _check_covers(self):
        ups = self._upsets
        for a, b, _ in self.edges:
            ib = 1 << self._vindex[b]
            for z, _ in self._up[a]:
                if z != b and ups[self._vindex[z]] & ib:
                    raise LatticeError(
                        f"edge ({a!r}, {b!r}) is not a cover: {z!r} lies between")

    # -- derived structure ---------------------------------------------------

    @cached_property
    def _upsets(self):
        """Inclusive up-set of each vertex as a bitmask, indexed by _vindex."""
        n = len(self.vertices)
        masks = [0] * n
        for v in self._topo_reversed:
            i = self._vindex[v]
            m = 1 << i
            for w, _ in self._up[v]:
                m |= masks[self._vindex[w]]
            masks[i] = m
        return masks

    @cached_property
    def _downsets(self):
        n = len(self.vertices)
        masks = [0] * n
        for v in reversed(self._topo_reversed):
            i = self._vindex[v]
            m = 1 << i
            for w, _ in self._down[v]:
                m |= masks[self._vindex[w]]
            masks[i] = m
        return masks

    @cached_property
    def _topo_reversed(self):
        """Vertices in reverse topological order (tops first).

        Vertices on or below a directed cycle are left out, which is how
        the constructor detects cycles.
        """
        indeg = {v: len(self._up[v]) for v in self.vertices}
        queue = deque(v for v in self.vertices if indeg[v] == 0)
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for w, _ in self._down[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        return order

    @cached_property
    def _down_lookup(self):
        return {m: i for i, m in enumerate(self._downsets)}

    @cached_property
    def _up_lookup(self):
        return {m: i for i, m in enumerate(self._upsets)}

    def __len__(self):
        return len(self.vertices)

    def __contains__(self, v):
        return v in self._vindex

    def __eq__(self, other):
        if not isinstance(other, ColoredLattice):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __repr__(self):
        return f"ColoredLattice({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def up_neighbors(self, v):
        return self._up[v]

    def down_neighbors(self, v):
        return self._down[v]

    def edge_color(self, x, y):
        try:
            return self._edge_color[(x, y)]
        except KeyError:
            raise LatticeError(f"no edge {x!r} -> {y!r}") from None

    def has_edge(self, x, y):
        return (x, y) in self._edge_color

    def le(self, x, y):
        return bool(self._upsets[self._vindex[x]] & (1 << self._vindex[y])) \
            if x != y else True

    def comparable(self, x, y):
        return self.le(x, y) or self.le(y, x)

    @cached_property
    def is_connected(self):
        seen = {self.vertices[0]}
        queue = deque(seen)
        while queue:
            v = queue.popleft()
            for w, _ in self._up[v] + self._down[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == len(self.vertices)

    def meet(self, x, y):
        common = self._downsets[self._vindex[x]] & self._downsets[self._vindex[y]]
        i = self._down_lookup.get(common)
        if i is None:
            raise LatticeError(f"no meet for {x!r}, {y!r}")
        return self.vertices[i]

    def join(self, x, y):
        common = self._upsets[self._vindex[x]] & self._upsets[self._vindex[y]]
        i = self._up_lookup.get(common)
        if i is None:
            raise LatticeError(f"no join for {x!r}, {y!r}")
        return self.vertices[i]

    @cached_property
    def is_lattice(self):
        down, up = self._downsets, self._upsets
        dl, ul = self._down_lookup, self._up_lookup
        n = len(self.vertices)
        for i in range(n):
            for j in range(i + 1, n):
                if (down[i] & down[j]) not in dl:
                    return False
                if (up[i] & up[j]) not in ul:
                    return False
        return True

    @cached_property
    def minimum(self):
        """The unique bottom element, or None."""
        full = (1 << len(self.vertices)) - 1
        sources = [v for v in self.vertices if not self._down[v]]
        if len(sources) == 1 and self._upsets[self._vindex[sources[0]]] == full:
            return sources[0]
        return None

    @cached_property
    def maximum(self):
        full = (1 << len(self.vertices)) - 1
        sinks = [v for v in self.vertices if not self._up[v]]
        if len(sinks) == 1 and self._downsets[self._vindex[sinks[0]]] == full:
            return sinks[0]
        return None

    @cached_property
    def ranks(self):
        """Edge-consistent rank map with smallest value 0, or None.

        None means no consistent assignment exists (e.g. an odd cycle of
        covers) or the graph is disconnected.
        """
        if not self.is_connected:
            return None
        start = self.vertices[0]
        val = {start: 0}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w, _ in self._up[v]:
                if w in val:
                    if val[w] != val[v] + 1:
                        return None
                else:
                    val[w] = val[v] + 1
                    queue.append(w)
            for w, _ in self._down[v]:
                if w in val:
                    if val[w] != val[v] - 1:
                        return None
                else:
                    val[w] = val[v] - 1
                    queue.append(w)
        low = min(val.values())
        return {v: r - low for v, r in val.items()}

    @cached_property
    def length(self):
        """Rank of the top element (the lattice's length)."""
        ranks = self.ranks
        if ranks is None:
            raise LatticeError("not ranked")
        return max(ranks.values())

    def dual(self):
        """Order-reversed lattice; edge colors are kept."""
        return ColoredLattice(self.vertices,
                              [(b, a, c) for a, b, c in self.edges])

    def relabel(self, f):
        """Rename vertices through an injective map (dict or callable)."""
        g = f.__getitem__ if isinstance(f, dict) else f
        images = {v: g(v) for v in self.vertices}
        if len(set(images.values())) != len(images):
            raise LatticeError("relabeling is not injective")
        return ColoredLattice(images.values(),
                              [(images[a], images[b], c) for a, b, c in self.edges])


# -- structural predicates ----------------------------------------------------


def is_diamond_colored(L):
    """True iff every diamond carries equal colors on opposite edges."""
    for v in L.vertices:
        ups = L.up_neighbors(v)
        for i in range(len(ups)):
            s, cs = ups[i]
            for j in range(i + 1, len(ups)):
                t, ct = ups[j]
                for u, csu in L.up_neighbors(s):
                    if L.has_edge(t, u):
                        if csu != ct or L.edge_color(t, u) != cs:
                            return False
    return True


def is_topographically_balanced(L):
    """Check unique completion of non-chain length-2 valleys and mountains."""
    for v in L.vertices:
        ups = [w for w, _ in L.up_neighbors(v)]
        for i in range(len(ups)):
            for j in range(i + 1, len(ups)):
                s, t = ups[i], ups[j]
                common = [u for u, _ in L.up_neighbors(s) if L.has_edge(t, u)]
                if len(common) != 1:
                    return False
        downs = [w for w, _ in L.down_neighbors(v)]
        for i in range(len(downs)):
            for j in range(i + 1, len(downs)):
                s, t = downs[i], downs[j]
                common = [u for u, _ in L.down_neighbors(s) if L.has_edge(u, t)]
                if len(common) != 1:
                    return False
    return True


def rank_function(L):
    """The unique rank map with rank 0 at the bottom.

    Raises LatticeError when the graph is disconnected or admits no
    consistent rank.  On topographically balanced lattices the rank
    identity is verified for every pair as a safety net.
    """
    if not L.is_connected:
        raise LatticeError("disconnected cover graph")
    ranks = L.ranks
    if ranks is None:
        raise LatticeError("no consistent rank function exists")
    if L.is_lattice and is_topographically_balanced(L):
        pair = rank_identity_failure(L)
        if pair is not None:
            raise LatticeError(f"rank identity fails at ({pair[0]!r}, {pair[1]!r})")
    return dict(ranks)


def rank_identity_failure(L):
    """The first pair (s, t) breaking the rank identity, or None.

    The identity is 2*rho(s v t) - rho(s) - rho(t) = rho(s) + rho(t) - 2*rho(s ^ t).
    It is symmetric and holds for s == t, so each unordered pair is tried
    once, in vertex order.  L must be a ranked lattice.
    """
    ranks = L.ranks
    if ranks is None:
        raise LatticeError("not ranked")
    vertices = L.vertices
    for i, s in enumerate(vertices):
        for t in vertices[i + 1:]:
            if (2 * ranks[L.join(s, t)] - ranks[s] - ranks[t]
                    != ranks[s] + ranks[t] - 2 * ranks[L.meet(s, t)]):
                return s, t
    return None


def _op_tables(L):
    n = len(L.vertices)
    idx = L._vindex
    meets = [[0] * n for _ in range(n)]
    joins = [[0] * n for _ in range(n)]
    for i, x in enumerate(L.vertices):
        for j in range(i, n):
            y = L.vertices[j]
            m = idx[L.meet(x, y)]
            jo = idx[L.join(x, y)]
            meets[i][j] = meets[j][i] = m
            joins[i][j] = joins[j][i] = jo
    return meets, joins


def is_modular(L):
    """Definitional modular-law check over all triples."""
    if not L.is_lattice:
        raise LatticeError("not a lattice")
    meets, joins = _op_tables(L)
    n = len(L.vertices)
    le = [[bool(L._downsets[j] & (1 << i)) for j in range(n)] for i in range(n)]
    for x in range(n):
        for b in range(n):
            if not le[x][b]:
                continue
            jx, mb = joins[x], meets[b]
            for a in range(n):
                if jx[mb[a]] != mb[jx[a]]:
                    return False
    return True


def is_distributive(L):
    """Definitional distributive-law check over all triples."""
    if not L.is_lattice:
        raise LatticeError("not a lattice")
    meets, joins = _op_tables(L)
    n = len(L.vertices)
    for a in range(n):
        ma, ja = meets[a], joins[a]
        for b in range(n):
            mab = ma[b]
            for c in range(n):
                if ma[joins[b][c]] != joins[mab][ma[c]]:
                    return False
    return True


# -- paths --------------------------------------------------------------------

UP = "up"
DOWN = "down"


@dataclass(frozen=True)
class PathRecord:
    """A walk in a cover graph: vertex sequence plus (color, direction) steps."""

    vertices: tuple
    steps: tuple

    def __len__(self):
        return len(self.steps)

    @property
    def is_simple(self):
        return len(set(self.vertices)) == len(self.vertices)

    @property
    def is_mountain(self):
        dirs = [d for _, d in self.steps]
        return DOWN not in dirs or UP not in dirs[dirs.index(DOWN):]

    @property
    def is_valley(self):
        dirs = [d for _, d in self.steps]
        return UP not in dirs or DOWN not in dirs[dirs.index(UP):]

    @property
    def apex(self):
        if not self.is_mountain:
            raise LatticeError("not a mountain path")
        k = sum(1 for _, d in self.steps if d == UP)
        return self.vertices[k]

    @property
    def nadir(self):
        if not self.is_valley:
            raise LatticeError("not a valley path")
        k = sum(1 for _, d in self.steps if d == DOWN)
        return self.vertices[k]

    def validate(self, L):
        if len(self.vertices) != len(self.steps) + 1:
            raise LatticeError("vertex/step count mismatch")
        for (a, b), (color, direction) in zip(
                zip(self.vertices, self.vertices[1:]), self.steps):
            x, y = (a, b) if direction == UP else (b, a)
            if not L.has_edge(x, y) or L.edge_color(x, y) != color:
                raise LatticeError(
                    f"step {a!r} -> {b!r} ({direction}, color {color}) is not an edge")
        return self


def path_from_vertices(L, vertices):
    """Build a PathRecord from a vertex sequence, reading off edge data."""
    vertices = tuple(vertices)
    steps = []
    for a, b in zip(vertices, vertices[1:]):
        if L.has_edge(a, b):
            steps.append((L.edge_color(a, b), UP))
        elif L.has_edge(b, a):
            steps.append((L.edge_color(b, a), DOWN))
        else:
            raise LatticeError(f"{a!r} and {b!r} are not joined by an edge")
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
    vertices = list(iproduct(*[L.vertices for L in lattices]))
    edges = []
    for vt in vertices:
        for q, Lq in enumerate(lattices):
            for w, c in Lq.up_neighbors(vt[q]):
                edges.append((vt, vt[:q] + (w,) + vt[q + 1:], c))
    return ColoredLattice(vertices, edges)


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
    seen = {L.minimum}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        if v == L.maximum:
            return True
        for w, _ in L.up_neighbors(v):
            if w in K and w not in seen:
                seen.add(w)
                queue.append(w)
    return False


def full_length_witness(L, K, x):
    """Least element of K above x; unique when K is full length in L."""
    above = [y for y in sorted(K, key=sort_key) if L.le(x, y)]
    minimal = [y for y in above if not any(z != y and L.le(z, y) for z in above)]
    if len(minimal) != 1:
        raise LatticeError(
            f"minimal element over {x!r} is not unique; K is not full length")
    return minimal[0]


def induced_covers(L, members):
    """Pairs (x, y) of members where y covers x in the order induced from L."""
    return [(x, y) for x in members for y in members
            if x != y and L.le(x, y)
            and not any(z != x and z != y and L.le(x, z) and L.le(z, y)
                        for z in members)]


def induced_sublattice(L, K):
    """Sublattice on K with the order induced from L.

    Covers of the induced order must be edges of L (true for full-length
    sublattices); otherwise there is no color to inherit and this raises.
    """
    members = sorted(set(K), key=sort_key)
    edges = []
    for x, y in induced_covers(L, members):
        if not L.has_edge(x, y):
            raise LatticeError(
                f"induced cover ({x!r}, {y!r}) is not an edge of the host")
        edges.append((x, y, L.edge_color(x, y)))
    return ColoredLattice(members, edges)
