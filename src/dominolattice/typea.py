"""The type-A fundamental lattice and its four coordinatizations.

Elements live in a k x (N-k) box and are seen, interchangeably, as
partitions, as k-subsets of [N] (tableaux), as length-N bitstrings over a
physical two-row box layout (circle diagrams), or as the census of shaded
boxes along the northwest-southeast diagonals (diagonal coordinates).
Partitions are the default view; every map here is a pure function on
plain tuples.  The lattice builders import the lattice and poset modules
when they run, so that the maps, and a solve, load neither.

Diagonal coordinates are a cell census, read in O(N) off the L tableau
by `_tableau_to_diagonal_L`:

    d_l = #{r : t_r <= l} - max(0, l - (N-k)).

Proof sketch: row r of a shape, with L-tableau entry t_r, holds one cell
of each color t_r, ..., N-k+r-1 (a color-l move swaps entry l+1 for l,
so it adds the row's cell of color l).  A row whose colors stop short of
l, N-k+r <= l, also has t_r <= l, so the cells of color l are the rows
with t_r <= l less those max(0, l - (N-k)) rows: one prefix count, +1
from each entry on and -1 from each row end N-k+r on.  So the census's
differences are the circle word: with d_0 = d_N = 0 the step
b_l = d_l - d_{l-1} + [l > N-k] is 1 exactly at the entries, and a
sequence is a diagonal exactly when each step is 0 or 1.  Because phi
preserves colors, the same count over the preimage's L tableau gives
the Domino move counts (`isomorphism.move_census`).

The one move rule, which `_up_edges` and `_hop_lattice` read off either
family's move table, is stated in the box module's docstring.
"""

from functools import lru_cache
from itertools import accumulate, combinations, combinations_with_replacement

# BoxSpec lives in box, with the shape check; it is re-exported here.
from .box import BoxSpec, _l_move_table, validate_partition
from .records import Record, _set_field, is_int


class CircleState(Record):
    """Length-N indicator bits plus the physical numbering scheme they use."""

    __slots__ = ("bits", "scheme")

    def __init__(self, bits, scheme):
        if scheme not in ("L", "D"):
            raise ValueError(f"unknown circle scheme {scheme!r}")
        bits = tuple(bits)
        if not all((type(b) is int or is_int(b)) and b in (0, 1) for b in bits):
            raise ValueError("circle bits must be 0/1")
        _set_field(self, "bits", bits)
        _set_field(self, "scheme", scheme)

    @property
    def ones(self):
        """1-based positions of the dots."""
        return tuple(i + 1 for i, b in enumerate(self.bits) if b)


def vertex_id(r, c):
    return f"{r},{c}"


def vertex_rc(v):
    r, c = v.split(",")
    return int(r), int(c)


def cell_color(spec, r, c):
    """The color N-k+r-c of box cell (r, c), the one place it is written."""
    return spec.N - spec.k + r - c


@lru_cache(maxsize=None)
def build_p_a(spec):
    """Grid poset on (r, c) cells with color N-k+r-c at (r, c)."""
    from .poset import VertexColoredPoset
    vertices = []
    covers = []
    colors = {}
    for r in range(1, spec.k + 1):
        for c in range(1, spec.cols + 1):
            v = vertex_id(r, c)
            vertices.append(v)
            colors[v] = cell_color(spec, r, c)
            if r < spec.k:
                covers.append((v, vertex_id(r + 1, c)))
            if c < spec.cols:
                covers.append((v, vertex_id(r, c + 1)))
    return VertexColoredPoset(vertices, covers, colors)


def build_l_a(spec):
    """The fundamental lattice: ideal lattice of the grid poset."""
    from .poset import j_lattice
    return j_lattice(build_p_a(spec))


# -- partitions -----------------------------------------------------------------


def is_valid_partition(spec, parts):
    try:
        validate_partition(spec, parts)
    except ValueError:
        return False
    return True


@lru_cache(maxsize=None)
def all_partitions(spec):
    """Every k x (N-k) partition, in lexicographic order.

    That is sort_key order, in which the lattice builders hand them over.
    The partitions are the combinations with replacement of cols, ..., 0,
    which itertools makes in reverse lexicographic order.
    """
    return tuple(combinations_with_replacement(range(spec.cols, -1, -1), spec.k))[::-1]


@lru_cache(maxsize=None)
def _box_cells(spec):
    """{vertex_id(r, c): (r, c)} for every cell of the box."""
    return {vertex_id(r, c): (r, c)
            for r in range(1, spec.k + 1) for c in range(1, spec.cols + 1)}


def ideal_to_partition(spec, ideal):
    """The shape whose cells are the order ideal `ideal` of P_A.

    A set that is not one raises ValueError naming a member that is not a
    cell of the box, else a cell outside the shape its rows count, else
    the cell past the first row longer than the row above; so does a str.
    """
    if isinstance(ideal, str):
        raise ValueError("an ideal is a set of cell ids such as '1,1', not a str")
    # read once, so that an iterator can be searched for an unhashable member
    members = ideal if isinstance(ideal, frozenset) else list(ideal)
    outside = []
    try:
        ideal = frozenset(members)
    except TypeError:           # an unhashable member, which is no cell
        ideal, outside = frozenset(), [v for v in members if not _hashable(v)]
    cells = _box_cells(spec)
    counts = [0] * spec.k
    weight = 0
    for v in ideal:
        rc = cells.get(v)
        if rc is None:
            outside.append(v)
        else:
            counts[rc[0] - 1] += 1
            weight += rc[1]
    # The columns of a row of n cells sum to at least n(n + 1)/2, with
    # equality exactly when they are 1, ..., n.
    if (not outside and weight == sum(n * (n + 1) // 2 for n in counts)
            and all(a >= b for a, b in zip(counts, counts[1:]))):
        return tuple(counts)
    if outside:
        bad = min(outside, key=str)
    else:
        bad = min(ideal - _partition_to_ideal(counts), key=vertex_rc, default=None)
    if bad is None:
        r = next(r for r in range(1, spec.k) if counts[r] > counts[r - 1])
        bad = vertex_id(r + 1, counts[r - 1] + 1)
    raise ValueError(f"not an order ideal of the {spec.k}x{spec.cols} grid: cell {bad} "
                     f"lies outside the box or past a missing cell")


def _hashable(v):
    try:
        hash(v)
    except TypeError:
        return False
    return True


def partition_to_ideal(spec, parts):
    return _partition_to_ideal(validate_partition(spec, parts))


def _partition_to_ideal(parts):
    """partition_to_ideal on a shape already validated."""
    return frozenset(vertex_id(r + 1, c + 1)
                     for r, p in enumerate(parts) for c in range(p))


def partition_rank(spec, parts):
    return sum(validate_partition(spec, parts))


def partition_meet(spec, a, b):
    return _partwise(min, spec, a, b)


def partition_join(spec, a, b):
    return _partwise(max, spec, a, b)


def _partwise(pick, spec, a, b):
    """The parts picked pairwise from two validated shapes."""
    return tuple(map(pick, validate_partition(spec, a), validate_partition(spec, b)))


# -- tableaux (L convention: entries increasing) ----------------------------------


def partition_to_tableau_L(spec, parts):
    return _partition_to_tableau_L(spec, validate_partition(spec, parts))


def _partition_to_tableau_L(spec, parts):
    """partition_to_tableau_L on a shape already validated."""
    cols = spec.cols
    return tuple(cols + r + 1 - p for r, p in enumerate(parts))


def tableau_to_partition_L(spec, entries):
    return _tableau_to_partition_L(spec, _validate_tableau_L(spec, entries))


def _validate_tableau_L(spec, entries):
    """An L tableau: k strictly increasing ints in [1, N], as a tuple."""
    entries = tuple(entries)
    if len(entries) != spec.k:
        raise ValueError(f"expected {spec.k} tableau entries")
    prev = 0
    for i, t in enumerate(entries):
        if not is_int(t) or not 1 <= t <= spec.N:
            raise ValueError(f"entries must lie in [1, {spec.N}]: entry {i + 1} out of range")
        if t <= prev:
            raise ValueError(f"entries must strictly increase at position {i + 1}")
        prev = t
    return entries


def _tableau_to_partition_L(spec, entries):
    """tableau_to_partition_L on k increasing entries in [1, N] already checked."""
    return tuple(spec.cols + r + 1 - t for r, t in enumerate(entries))


# -- circle diagrams (L scheme) ----------------------------------------------------


def validate_entries(spec, entries):
    """A D tableau, in any order: k distinct ints in [1, N], as a set."""
    entries = tuple(entries)
    if len(entries) != spec.k or len(set(entries)) != spec.k:
        raise ValueError(f"expected {spec.k} distinct tableau entries")
    if not all(is_int(t) and 1 <= t <= spec.N for t in entries):
        raise ValueError(f"entries must be integers in [1, {spec.N}]")
    return frozenset(entries)


def validate_circle(spec, state, scheme):
    """The increasing dots of a circle state of this scheme with N bits and k dots."""
    if not isinstance(state, CircleState):
        raise ValueError(f"expected a CircleState, got {type(state).__name__}")
    if state.scheme != scheme:
        raise ValueError(f"expected a circle state in the {scheme}-scheme numbering")
    if len(state.bits) != spec.N:
        raise ValueError(f"expected {spec.N} bits")
    ones = state.ones
    if len(ones) != spec.k:
        raise ValueError(f"expected {spec.k} dots, got {len(ones)}")
    return ones


def tableau_to_circle(spec, entries, scheme="L"):
    return _circle(spec, validate_entries(spec, entries), scheme)


def _circle(spec, entries, scheme):
    """The circle state whose dots are entries, a k-subset of [N] already checked."""
    return CircleState([1 if i in entries else 0 for i in range(1, spec.N + 1)], scheme)


def circle_to_tableau(spec, state):
    """Dot positions, increasing in the L scheme and decreasing in the D scheme."""
    if isinstance(state, CircleState) and state.scheme == "D":
        return validate_circle(spec, state, "D")[::-1]
    return validate_circle(spec, state, "L")


def partition_to_circle_L(spec, parts):
    return _circle(spec, partition_to_tableau_L(spec, parts), "L")


def circle_to_partition_L(spec, state):
    return _tableau_to_partition_L(spec, validate_circle(spec, state, "L"))


# -- diagonal coordinates ------------------------------------------------------------

# Diagonal i collects the box cells (r, c) with r - c = i - (N - k), which
# are the cells of color i; the first N-k diagonals start along the top row
# (rightmost first), the remaining k-1 continue down the left column.


def partition_to_diagonal(spec, parts):
    """Diagonal coordinates: entry i counts the shape's cells of color i."""
    return _partition_to_diagonal(spec, validate_partition(spec, parts))


def _partition_to_diagonal(spec, parts):
    """partition_to_diagonal on a shape already validated."""
    return _tableau_to_diagonal_L(spec, _partition_to_tableau_L(spec, parts))


def _tableau_to_diagonal_L(spec, entries):
    """Diagonal coordinates of the shape whose L tableau, checked, is entries.

    The census of the module docstring as one prefix count; the entries
    may come in any order.
    """
    steps = [0] * (spec.cols + 1) + [-1] * spec.k
    for t in entries:
        steps[t] += 1
    return tuple(accumulate(steps[1:-1]))


def _diagonal_to_tableau_L(spec, diag):
    """The L tableau of a diagonal tuple: the l whose step is 1.

    The one diagonal check: every entry is an int and every step
    b_l = d_l - d_{l-1} + [l > N-k], l = 1..N with d_0 = d_N = 0, is 0 or 1.
    """
    cols = spec.cols
    if len(diag) != spec.N - 1:
        raise ValueError(f"expected {spec.N - 1} diagonal entries")
    entries, prev = [], 0
    for l, d in enumerate(diag + (0,), start=1):
        if type(d) is not int and not is_int(d):   # exact ints skip the call
            raise ValueError(f"diagonal entry {l} must be a nonnegative integer")
        b = d - prev + (l > cols)
        if b == 1:
            entries.append(l)
        elif b:
            raise ValueError(f"diagonal step between entries {l - 1} and {l} is {b}, not 0 or 1")
        prev = d
    return entries


def validate_diagonal(spec, diag):
    diag = tuple(diag)
    _diagonal_to_tableau_L(spec, diag)
    return diag


def is_valid_diagonal(spec, diag):
    try:
        _diagonal_to_tableau_L(spec, tuple(diag))
    except ValueError:
        return False
    return True


def diagonal_to_partition(spec, diag):
    """The shape whose L tableau is the circle word read off diag's steps."""
    return _tableau_to_partition_L(spec, _diagonal_to_tableau_L(spec, tuple(diag)))


# -- the coordinate table ---------------------------------------------------------

# Each system maps to its (partition -> coordinates, coordinates -> partition)
# pair; partitions themselves are only validated.
L_COORDINATES = {
    "part": (validate_partition, validate_partition),
    "tab": (partition_to_tableau_L, tableau_to_partition_L),
    "circ": (partition_to_circle_L, circle_to_partition_L),
    "diag": (partition_to_diagonal, diagonal_to_partition),
}


# -- colored up-edges in each coordinatization ------------------------------------


def _tableau_mask(entries):
    """The int mask of distinct tableau entries: bit t set for each entry t."""
    return sum(1 << t for t in entries)


def _up_edges(spec, x, system, scheme, moves):
    """The tableau, circle and diagonal up-edge rules of both lattices.

    `scheme` ("L" or "D") is the family's circle numbering, tableau order
    and tableau check.  `moves` = (lows, ends, renumber, columns) is its
    move table: color l flips the tableau bits ends[l] << lows[l] where the
    one move rule finds it on Q, bit renumber[t] per entry t, and adds a
    to diagonal entry i for each (i, a) in columns[l - 1], if that is one.
    """
    lows, ends, renumber, columns = moves
    if system in ("tab", "circ"):
        entries = (validate_circle(spec, x, scheme) if system == "circ"
                   else _validate_tableau_L(spec, x) if scheme == "L"
                   else validate_entries(spec, x))
        mask, q = _tableau_mask(entries), _tableau_mask(renumber[t] for t in entries)
        legal = (q >> 1) & ~q
        hops = [([t for t in range(1, spec.N + 1) if m >> t & 1], l)
                for l in range(1, spec.N) if legal >> l & 1
                for m in [mask ^ ends[l] << lows[l]]]
        if system == "circ":
            return [(_circle(spec, t, scheme), l) for t, l in hops]
        return [(tuple(t if scheme == "L" else t[::-1]), l) for t, l in hops]
    if system == "diag":
        diag = validate_diagonal(spec, x)
        out = []
        for l, column in enumerate(columns, start=1):
            cand = list(diag)
            for i, a in column:
                cand[i] += a
            if is_valid_diagonal(spec, cand):
                out.append((tuple(cand), l))
        return out
    raise ValueError(f"unknown coordinatization {system!r}")


def l_up_edges(spec, x, system="part"):
    """Up-neighbors of x with edge colors, computed natively per system."""
    if system == "part":
        return _l_part_up_edges(spec, validate_partition(spec, x))
    return _up_edges(spec, x, system, "L", _l_move_table(spec.N))


def _l_part_up_edges(spec, parts):
    """The partition rule of l_up_edges on a shape already validated.

    Row l can take one more cell, (l, parts[l-1] + 1), when it is short
    of the box and of the row above; the edge takes that cell's color.
    """
    cols = spec.cols
    out = []
    for l in range(1, spec.k + 1):
        p = parts[l - 1]
        if p < cols and (l == 1 or parts[l - 2] > p):
            tau = parts[:l - 1] + (p + 1,) + parts[l:]
            out.append((tau, cell_color(spec, l, p + 1)))
    return out


def build_l_graph(spec):
    """The fundamental lattice on partitions, from the partition edge rule.

    It is `build_l_a(spec)` with each ideal relabeled as its partition.
    Like every lattice builder it keeps nothing: each call builds a new
    lattice, which lives as long as its caller holds it.
    """
    from .lattice import _indexed_lattice
    vertices = all_partitions(spec)
    at = {v: i for i, v in enumerate(vertices)}
    return _indexed_lattice(vertices, {(i, at[w]): color for i, v in enumerate(vertices)
                                       for w, color in _l_part_up_edges(spec, v)})


# -- product-of-chains lattice and its tableau sublattice ---------------------------


def build_l_tilde(spec):
    """Product of k colored chains; vertices are tableau-valued k-tuples.

    Chain r runs from the numeric label N-k+r (bottom) up to r, the edge
    into label v carrying color v.
    """
    from .lattice import _indexed_lattice, product
    # chain r's labels r, ..., N-k+r in numeric order: label v has index v - r
    return product(*[_indexed_lattice(tuple(range(r, spec.cols + r + 1)),
                                      {(i + 1, i): i + r for i in range(spec.cols)})
                     for r in range(1, spec.k + 1)])


def build_l_tab(spec):
    """The strictly increasing k-tuples, a full-length sublattice of L_tilde.

    They are the L tableaux, listed by `combinations` in sort_key order,
    and a color-l move hops an entry from l+1 to l: the edge of L_tilde
    into label l of one chain.  So the covers are the host's edges
    between tableaux, and no host is built.  The tuples are closed under
    the host's componentwise min and max, and each cover is a host edge,
    so the sublattice is full length.
    """
    vertices = tuple(combinations(range(1, spec.N + 1), spec.k))
    masks = list(map(_tableau_mask, vertices))
    return _hop_lattice(vertices, masks, masks, _l_move_table(spec.N))


def _hop_lattice(vertices, masks, qs, moves):
    """The lattice whose covers hop tableau entries by the one move rule.

    vertices are distinct labels in sort_key order, masks their distinct
    tableau masks and qs their masks Q; by the move table `moves`, a legal
    color l, read inline, leads from mask m to the vertex of mask
    m ^ ends[l] << lows[l].
    """
    from .lattice import _indexed_lattice
    lows, ends = moves[:2]
    at = {m: i for i, m in enumerate(masks)}
    covers = {}
    for i, m in enumerate(masks):
        q = qs[i]
        legal = (q >> 1) & ~(q | 1)
        while legal:
            low = legal & -legal
            legal ^= low
            l = low.bit_length() - 1
            covers[i, at[m ^ ends[l] << lows[l]]] = l
    return _indexed_lattice(vertices, covers)
