"""Independent brute-force ground truth.

BFS distances, exhaustive shortest-path enumeration, explicit-map
isomorphism checking, the covers of an induced order, the
diamond-coloring check, the definitional lattice laws and their report,
the cell-by-cell color census, the paper's matrix route to the
per-color move counts, and the Domino game played by the generic ideal
solver on J(P_A) and read through phi.  Nothing here reuses the
closed-form machinery it is meant to check: the matrix route's shift is
counted cell by cell, not by the prefix count, and the ideal route
counts moves by the colors of ideal differences and never walks a
tableau.  The induced covers, the diamond and law checks read a lattice
only through its public methods.  Beyond the lattice module, each
function imports the layers it uses when it runs, so that a process
that calls one oracle loads only what that oracle reads.
"""

from collections import deque
from functools import lru_cache
from itertools import combinations

from .lattice import LatticeError, PathRecord, path_from_vertices, sort_key


class PathCapExceeded(RuntimeError):
    """Raised when shortest-path enumeration would overflow its cap."""


def _adjacency(L):
    return {v: [w for w, _ in L.up_neighbors(v) + L.down_neighbors(v)]
            for v in L.vertices}


def _require_vertices(L, *vertices):
    """Reject, naming it, the first of vertices that is not a vertex of L."""
    for v in vertices:
        if v not in L:
            raise LatticeError(f"{v!r} is not a vertex of the lattice")


def bfs_distances(L, source):
    _require_vertices(L, source)
    return _bfs(_adjacency(L), source)


def _bfs(adj, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def bfs_all_pairs(L):
    """Exact distance table over all vertex pairs; rejects disconnected input."""
    adj = _adjacency(L)
    table = {}
    for s in L.vertices:
        dist = _bfs(adj, s)
        if len(dist) != len(L.vertices):
            raise LatticeError("graph is disconnected")
        table.update(((s, t), d) for t, d in dist.items())
    return table


def enumerate_shortest_paths(L, s, t, cap=100_000):
    """All simple shortest paths from s to t (edges usable both ways).

    Walks only along vertices whose distance-to-t strictly decreases, so
    every emitted path is simple and shortest.  Raises PathCapExceeded
    rather than silently truncating.  The search collects vertex trails,
    and the PathRecords are made only once it has finished under the cap.
    """
    _require_vertices(L, s, t)
    adj = _adjacency(L)
    dist_t = _bfs(adj, t)
    if s not in dist_t:
        raise LatticeError(f"{s!r} and {t!r} are not connected")
    trails = []
    stack = [(s, [s])]
    while stack:
        v, trail = stack.pop()
        if v == t:
            trails.append(trail)
            if len(trails) > cap:
                raise PathCapExceeded(f"more than {cap} shortest paths")
            continue
        for w in adj[v]:
            if dist_t.get(w, -1) == dist_t[v] - 1:
                stack.append((w, trail + [w]))
    return [path_from_vertices(L, trail) for trail in trails]


def check_constructed_iso(G, H, f):
    """Is the explicit map f a color-preserving digraph isomorphism G -> H?

    G and H are both lattices, whose colored edges must map onto each
    other, or both vertex-colored posets (`colors` not None), whose
    vertex colors must be kept and whose covers must map onto each other.
    """
    g = f.__getitem__ if isinstance(f, dict) else f
    images = {v: g(v) for v in G.vertices}
    if len(set(images.values())) != len(G.vertices):
        return False
    if set(images.values()) != set(H.vertices):
        return False
    if G.colors is None:
        g_edges = {(images[a], images[b], c) for a, b, c in G.edges}
        return g_edges == set(H.edges)
    return (all(G.colors[v] == H.colors[w] for v, w in images.items())
            and {(images[a], images[b]) for a, b in G.covers} == H.covers)


def induced_covers(L, members):
    """Pairs (x, y) of members where y covers x in the order induced from L."""
    return [(x, y) for x in members for y in members
            if x != y and L.le(x, y)
            and not any(z != x and z != y and L.le(x, z) and L.le(z, y)
                        for z in members)]


def bareiss_solve(matrix, rhs):
    """Solve an integer square system exactly.

    Fraction-free forward elimination, then integer back-substitution
    over the determinant; one Fraction per entry.  Raises ValueError on
    a singular matrix.
    """
    from fractions import Fraction
    det, (x,) = _bareiss_scaled_columns(matrix, [rhs])
    return [Fraction(v, det) for v in x]


def _bareiss_scaled_columns(matrix, columns):
    """(d, xs): d > 0 is |det(matrix)| and each x in xs solves matrix x = d b.

    The forward pass runs once over [matrix | columns]; each column is
    then back-substituted on its own, in integers: by Cramer's rule d
    times a solution is an integer vector, so every division is exact.
    """
    from .isomorphism import _bareiss_forward
    n = len(matrix)
    if any(len(v) != n for v in (*matrix, *columns)):
        raise ValueError("matrix must be square and match the right-hand side")
    a = [list(row) + [b[i] for b in columns] for i, row in enumerate(matrix)]
    if not _bareiss_forward(a):
        raise ValueError("matrix is singular")
    # the last pivot is the determinant of the row-permuted matrix
    det = a[n - 1][n - 1] if n else 1
    solutions = []
    for j in range(n, n + len(columns)):
        x = [0] * n
        for r in range(n - 1, -1, -1):
            acc = det * a[r][j]
            for c in range(r + 1, n):
                acc -= a[r][c] * x[c]
            x[r], rest = divmod(acc, a[r][r])
            if rest:
                raise AssertionError(f"row {r} does not divide exactly")
        solutions.append(x if det > 0 else [-v for v in x])
    return abs(det), solutions


def exact_inverse(matrix):
    """Inverse as a matrix of Fractions, its columns solved by one elimination."""
    from fractions import Fraction
    det, rows = _scaled_inverse(matrix)
    return tuple(tuple(Fraction(v, det) for v in row) for row in rows)


def _scaled_inverse(matrix):
    """(d, rows): d > 0 is |det(matrix)| and rows the integer rows of d matrix^-1."""
    n = len(matrix)
    det, cols = _bareiss_scaled_columns(matrix, [[int(i == j) for i in range(n)]
                                                 for j in range(n)])
    return det, tuple(zip(*cols))


def cell_census(spec, parts):
    """Diagonal coordinates by definition: entry l counts the cells of color l."""
    from .typea import cell_color, validate_partition
    diag = [0] * (spec.N - 1)
    for r, p in enumerate(validate_partition(spec, parts), start=1):
        for c in range(1, p + 1):
            diag[cell_color(spec, r, c) - 1] += 1
    return tuple(diag)


def bareiss_decompose(spec, diag):
    """Per-color move counts by solving P c = d - m exactly.

    P is inverted once per box (`_move_matrix_inverse`), as integer rows
    over one common denominator, so a solve is one integer matrix-vector
    product and one Fraction per entry.  The shift m is the cell-by-cell
    `cell_census` of the minimum of the built Domino lattice, not the
    closed form, so this route shares nothing with the prefix count.
    The solution must be a vector of nonnegative integers.
    """
    from .typea import validate_diagonal
    return _bareiss_decompose(spec, validate_diagonal(spec, diag), _minimum_census(spec))


def _bareiss_decompose(spec, diag, shift):
    """bareiss_decompose of a checked diagonal, with the shift m of a D the caller holds."""
    from fractions import Fraction
    rhs = [d - s for d, s in zip(diag, shift)]
    det, rows = _move_matrix_inverse(spec)
    sol = [Fraction(sum(a * b for a, b in zip(row, rhs)), det) for row in rows]
    for i, value in enumerate(sol, start=1):
        if value.denominator != 1 or value < 0:
            raise ValueError(
                f"coefficient {i} is not a nonnegative integer: {value}")
    return tuple(int(value) for value in sol)


@lru_cache(maxsize=None)
def _move_matrix_inverse(spec):
    """_scaled_inverse of the move matrix P, one elimination per box."""
    from .isomorphism import move_matrix
    return _scaled_inverse(move_matrix(spec).entries)


@lru_cache(maxsize=None)
def _minimum_census(spec):
    """cell_census of the minimum of the built Domino lattice, once per box."""
    from .domino import build_d_a
    return cell_census(spec, build_d_a(spec).minimum)


def ideal_greedy_solve(spec, sigma, tau, via="join"):
    """Shortest Domino play by the greedy solver on ideals, read through phi.

    The slow route that `solver.solve_domino` is checked against: the
    generic `solve_distributive` on the order ideals of J(P_A) that the
    two preimages name, with every vertex and the waypoint carried back
    through phi.  It shares no code with the tableau walk.
    """
    from .isomorphism import phi, phi_inverse
    from .solver import GameSolution, solve_distributive
    from .typea import build_p_a, ideal_to_partition, partition_to_ideal

    def ideal(shape):
        return partition_to_ideal(spec, phi_inverse(spec, shape))

    def shape(x):
        return phi(spec, ideal_to_partition(spec, x))

    sol = solve_distributive(build_p_a(spec), ideal(sigma), ideal(tau), via=via)
    path = PathRecord(tuple(map(shape, sol.path.vertices)), sol.path.steps)
    return GameSolution(sol.distance, sol.per_color, path, shape(sol.waypoint))


def is_diamond_colored(L):
    """True iff every diamond carries equal colors on opposite edges."""
    up = {v: dict(L.up_neighbors(v)) for v in L.vertices}
    for ups in up.values():
        covers = list(ups.items())
        for a, (s, cs) in enumerate(covers):
            for t, ct in covers[a + 1:]:
                for u, csu in up[s].items():
                    ctu = up[t].get(u)
                    if ctu is not None and (csu != ct or ctu != cs):
                        return False
    return True


def is_topographically_balanced(L):
    """Check unique completion of non-chain length-2 valleys and mountains."""
    for neighbors in (L.up_neighbors, L.down_neighbors):
        adj = {v: {w for w, _ in neighbors(v)} for v in L.vertices}
        for ws in adj.values():
            for s, t in combinations(ws, 2):
                if len(adj[s] & adj[t]) != 1:
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
    """Meet and join tables on vertex positions, read off L.meet and L.join."""
    vs, index = L.vertices, L.index
    return ([[index(L.meet(x, y)) for y in vs] for x in vs],
            [[index(L.join(x, y)) for y in vs] for x in vs])


def is_modular(L):
    """Definitional modular-law check over all triples."""
    if not L.is_lattice:
        raise LatticeError("not a lattice")
    meets, joins = _op_tables(L)
    n = len(L.vertices)
    for x in range(n):
        jx = joins[x]
        for b in range(n):
            if jx[b] != b:      # x <= b exactly when x v b = b
                continue
            mb = meets[b]
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
        ma = meets[a]
        for b in range(n):
            mab = ma[b]
            for c in range(n):
                if ma[joins[b][c]] != joins[mab][ma[c]]:
                    return False
    return True


def check_lattice_laws(L):
    """Definitional verdicts: lattice, modular, distributive, rank identity."""
    report = {
        "vertices": len(L.vertices),
        "is_lattice": L.is_lattice,
        "modular": None,
        "distributive": None,
        "topographically_balanced": is_topographically_balanced(L),
        "rank_identity": None,
    }
    if not report["is_lattice"]:
        return report
    report["modular"] = is_modular(L)
    report["distributive"] = is_distributive(L)
    report["rank_identity"] = L.ranks is not None and rank_identity_failure(L) is None
    return report


def random_colored_poset(rng, max_vertices=8, max_colors=3, min_vertices=1):
    """A random vertex-colored poset, reproducible from the given rng."""
    from .poset import VertexColoredPoset
    n = rng.randint(min_vertices, max_vertices)
    names = [f"v{i}" for i in range(n)]
    less = {name: set() for name in names}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                less[names[i]].add(names[j])
    for i in range(n):          # transitive closure along the topological order
        for j in range(i + 1, n):
            if names[j] in less[names[i]]:
                less[names[i]] |= less[names[j]]
    covers = []
    for a in names:
        for b in less[a]:
            if not any(b in less[z] for z in less[a] if z != b):
                covers.append((a, b))
    colors = {name: rng.randint(1, max_colors) for name in names}
    return VertexColoredPoset(names, covers, colors)


def random_simple_path(L, rng):
    """A uniformly improvised simple walk in the cover graph (both directions)."""
    adj = _adjacency(L)
    start = rng.choice(L.vertices)
    trail = [start]
    seen = {start}
    limit = rng.randint(0, len(L.vertices) - 1)
    while len(trail) - 1 < limit:
        options = [w for w in adj[trail[-1]] if w not in seen]
        if not options:
            break
        nxt = rng.choice(sorted(options, key=sort_key))
        trail.append(nxt)
        seen.add(nxt)
    return path_from_vertices(L, trail)
