"""Named verification suites behind the CLI `verify` subcommand.

Each suite returns a report dict with a boolean "passed" plus per-check
entries, so failures say what broke; a failing check that knows where it
broke also carries a "witness" message.  The pytest acceptance module
covers the same ground; these suites make it scriptable.  An isomorphism
check is `lattice.iso_failure`, on cover indices, whose message is the
witness; `oracle.check_constructed_iso` is its reference in the tests.  A
suite imports the coordinate, Domino, isomorphism, poset, oracle and
solver modules it calls when it runs, so that a `verify` process loads
only the box, the lattice module and the layers of the suites it runs.
"""

import random
from collections import Counter
from math import comb

from .box import BoxSpec, _shape_masks
from .lattice import ColoredLattice, LatticeError, birkhoff_failure, iso_failure, product
from .suites import DEFAULTS, SUITE_FLAGS, SUITES


def _entry(name, ok, witness=None):
    entry = {"name": name, "passed": ok}
    if witness is not None:
        entry["witness"] = witness
    return entry


def _result(checks):
    """Report for (name, passed) or (name, passed, witness) checks.

    A witness, where a check has one, says where a failing check broke;
    passing checks give None, so their entries stay as they were.
    """
    return {"passed": all(check[1] for check in checks),
            "checks": [_entry(*check) for check in checks]}


def suite_fundamental(seed=0):
    """Birkhoff round trips and the J/M/j/m identity families."""
    from .oracle import random_colored_poset
    from .poset import (canonical_iso_to_filters, canonical_iso_to_ideals,
                        disjoint_sum, dual, j_lattice, join_irreducibles, m_lattice,
                        meet_irreducibles, poset_iso_failure, principal_filter,
                        principal_ideal, recolor)
    rng = random.Random(seed)
    theorems = (("j(J(P)) = P and J(j(L)) = L", j_lattice, join_irreducibles,
                 principal_ideal, canonical_iso_to_ideals),
                ("m(M(P)) = P and M(m(L)) = L", m_lattice, meet_irreducibles,
                 principal_filter, canonical_iso_to_filters))
    broke = [None] * len(theorems)      # each theorem's first failure, poset side first
    for _ in range(50):
        P = random_colored_poset(rng, 8, 4)
        for t, (_, build, irreducibles, principal, canonical) in enumerate(theorems):
            L = build(P)
            irr = irreducibles(L)
            broke[t] = (broke[t]
                        or poset_iso_failure(P, irr, {v: principal(P, v) for v in P.vertices})
                        or iso_failure(L, build(irr), {x: canonical(L, x) for x in L.vertices}))
    checks = [(theorem[0], failure is None, failure)
              for theorem, failure in zip(theorems, broke)]

    fam = dict.fromkeys(("duality family", "recoloring family", "sum/product family"))
    sigma = {c: c + 7 for c in range(1, 4)}
    for _ in range(25):
        P = random_colored_poset(rng, 6, 3)
        Q = random_colored_poset(rng, 6, 3)
        flipped, tinted_P, summed_PQ = dual(P), recolor(P, sigma), disjoint_sum(P, Q)
        for build in (j_lattice, m_lattice):
            built, reverse = build(P), build(flipped)
            comp = {x: frozenset(set(P.vertices) - x) for x in reverse.vertices}
            fam["duality family"] = (fam["duality family"]
                                     or iso_failure(reverse, built.dual(), comp))
            tinted = ColoredLattice(built.vertices,
                                    [(a, b, sigma[c]) for a, b, c in built.edges])
            fam["recoloring family"] = fam["recoloring family"] or iso_failure(
                build(tinted_P), tinted, {x: x for x in built.vertices})
            summed = build(summed_PQ)
            split = {x: (frozenset(v for t, v in x if t == 0),
                         frozenset(v for t, v in x if t == 1))
                     for x in summed.vertices}
            fam["sum/product family"] = fam["sum/product family"] or iso_failure(
                summed, product(built, build(Q)), split)
    checks += [(name, failure is None, failure) for name, failure in fam.items()]
    return _result(checks)


def _native_up_edges(spec, coordinates, up_edges, sigma):
    """sigma's up-edges by each system's own rule, decoded; "part" is the partition rule."""
    return {system: {(decode(spec, t), l)
                     for t, l in up_edges(spec, encode(spec, sigma), system)}
            for system, (encode, decode) in coordinates.items()}


def suite_coordinates(k, N):
    """Conversion square and edge agreement for one box."""
    from .domino import D_COORDINATES
    from .typea import (L_COORDINATES, all_partitions, build_l_a, build_l_graph,
                        ideal_to_partition, l_up_edges)
    spec = BoxSpec(k, N)
    checks = []
    parts = all_partitions(spec)
    ok = all(decode(spec, encode(spec, p)) == p
             for table in (L_COORDINATES, D_COORDINATES)
             for encode, decode in table.values() for p in parts)
    checks.append(("round trips through every coordinatization", ok))
    agree = dict.fromkeys(("tab", "circ", "diag"), True)
    for p in parts:
        edges = _native_up_edges(spec, L_COORDINATES, l_up_edges, p)
        for system in agree:
            agree[system] &= edges[system] == edges["part"]
    for system, ok in agree.items():
        checks.append((f"edge agreement part vs {system}", ok))
    failure = iso_failure(build_l_a(spec), build_l_graph(spec),
                          lambda i: ideal_to_partition(spec, i))
    checks.append(("ideal lattice matches the partition edge rule", failure is None, failure))
    checks.append(("cardinality C(N, k)", len(parts) == comb(N, k)))
    return _result(checks)


def suite_iso(k, N):
    """Phi as a colored digraph isomorphism, plus the matrix transport.

    The shapes are the vertices of the lattices just built, so they are
    valid and the checks call the unchecked cores: each result is still
    compared with a vertex of D, or with the diagonal of one.  L and D
    have the box's shapes as vertices, so each shape's diagonal is taken
    once and serves as the image's too; an image that is not a shape
    matches no diagonal.
    """
    from .domino import build_d_a
    from .isomorphism import _apply_p, _phi, _phi_inverse, move_matrix
    from .typea import _partition_to_diagonal, build_l_graph
    spec = BoxSpec(k, N)
    L = build_l_graph(spec)
    D = build_d_a(spec)
    image = {p: _phi(spec, p) for p in L.vertices}
    failure = iso_failure(L, D, image)
    diagonal = {p: _partition_to_diagonal(spec, p) for p in L.vertices}
    checks = [
        ("phi is a color-preserving isomorphism", failure is None, failure),
        ("phi_inverse inverts phi",
         all(_phi_inverse(spec, q) == p for p, q in image.items())),
        ("matrix transport agrees with phi",
         all(_apply_p(spec, diagonal[p]) == diagonal.get(q) for p, q in image.items())),
        ("move matrix is invertible over the integers",
         move_matrix(spec).is_unimodular),
    ]
    return _result(checks)


def suite_solver(k, N, seed=0):
    """Closed forms against the oracles: distances, counts, paths, colors.

    Distances against BFS, the cell-census move counts against the Bareiss
    solve, path legality and the per-color census of every shortest path.
    The distance between two ideals of J(P_A) is the size of their
    symmetric difference; a shape's ideal is its set of cells, so row r
    of the difference holds |a_r - b_r| cells, and L's distances are read
    off the shapes.  The Domino solves call the unchecked core on D's
    shapes, each read once into its two tableau masks, and each returned
    path is checked against D, whose minimum gives the Bareiss solve its
    shift; the first illegal path is the witness, with its pair and the
    step that `PathRecord.validate` rejects.  A census pair with more
    shortest paths than the enumeration's cap is a ValueError that names
    the pair and the cap.
    """
    from .domino import build_d_a
    from .isomorphism import decompose
    from .oracle import (PathCapExceeded, _bareiss_decompose, bfs_all_pairs, cell_census,
                         enumerate_shortest_paths)
    from .solver import _solve_domino
    from .typea import _partition_to_diagonal, build_l_graph
    spec = BoxSpec(k, N)
    L = build_l_graph(spec)
    D = build_d_a(spec)
    distL = bfs_all_pairs(L)
    distD = bfs_all_pairs(D)
    masks = {a: _shape_masks(spec, a) for a in D.vertices}
    okL = okD = True
    badPath = None
    for a, ma in masks.items():
        for b, mb in masks.items():
            okL &= sum(abs(x - y) for x, y in zip(a, b)) == distL[(a, b)]
            gd = _solve_domino(spec, a, b, ma, mb, "join")
            okD &= gd.distance == distD[(a, b)]
            try:
                gd.path.validate(D)
            except LatticeError as exc:
                badPath = badPath or f"path {a} -> {b}: {exc}"
    diags = [_partition_to_diagonal(spec, a) for a in D.vertices]
    shift = cell_census(spec, D.minimum)
    checks = [("ideal-counting distance equals BFS on L", okL),
              ("multiset distance equals BFS on D", okD),
              ("returned domino paths are legal colored edges", badPath is None, badPath),
              ("census move counts equal the Bareiss solve of P c = d - m",
               all(decompose(spec, d) == _bareiss_decompose(spec, d, shift) for d in diags))]
    rng = random.Random(seed)
    verts = list(D.vertices)
    okColors = True
    for _ in range(10):
        a, b = rng.choice(verts), rng.choice(verts)
        expected = _solve_domino(spec, a, b, masks[a], masks[b], "join").per_color
        try:
            paths = enumerate_shortest_paths(D, a, b)
        except PathCapExceeded as exc:
            raise ValueError(f"census pair {a} -> {b}: {exc}") from None
        for p in paths:
            okColors &= Counter(c for c, _ in p.steps) == expected
    checks.append(("all shortest paths share the per-color census", okColors))
    return _result(checks)


def _small_product(spec):
    """Whether the box's chain product L_tilde is small enough to check.

    L_tilde has (cols+1)^k vertices, against C(N, k) for L_A, D_A and
    L_tab, which are checked at every box; so the cap, 130, gates L_tilde
    alone.
    """
    return (spec.cols + 1) ** spec.k <= 130


def suite_structure(k, N):
    """Diamond coloring, balance, lattice laws, and the rank identity.

    All of them hold exactly when the lattice is diamond-colored and
    distributive, which Birkhoff's theorem turns into the one-pass
    certificate `lattice.birkhoff_failure`; its message is the witness of
    a failing check, and D_A's verdict is the one its build asserted.  The
    definitional checks, `oracle.is_diamond_colored` and
    `oracle.check_lattice_laws`, are the oracle the tests compare it with.
    The builders keep no lattice, so each is built, certified and dropped
    before the next is built: the suite holds one lattice at a time.
    """
    from .domino import build_d_a
    from .typea import build_l_graph, build_l_tab, build_l_tilde
    spec = BoxSpec(k, N)
    builders = [("L_A", build_l_graph), ("D_A", build_d_a)]
    if _small_product(spec):
        builders.append(("L_tilde", build_l_tilde))
    builders.append(("L_tab", build_l_tab))
    checks = []
    for name, build in builders:
        failure = birkhoff_failure(build(spec))
        checks.append((f"{name} structure and rank identity", failure is None, failure))
    return _result(checks)


def suite_transport(k, N):
    """Move-vector coherence across coordinatizations; geometric legality."""
    from .domino import D_COORDINATES, d_up_edges, is_legal_domino_move
    from .typea import all_partitions
    spec = BoxSpec(k, N)
    okEdges = okGeom = True
    for sigma in all_partitions(spec):
        edges = _native_up_edges(spec, D_COORDINATES, d_up_edges, sigma)
        okEdges &= all(e == edges["part"] for e in edges.values())
        okGeom &= all(is_legal_domino_move(spec, sigma, t) for t, _ in edges["part"])
    return _result([
        ("beta vectors generate one edge set in all coordinatizations", okEdges),
        ("every generated edge is a legal domino move", okGeom),
    ])


def run_suite(name, k=DEFAULTS["-k"], N=DEFAULTS["-N"], seed=DEFAULTS["--seed"]):
    """Run `suite_<name>` on the values of the flags `suites.SUITE_FLAGS` lists for it."""
    flags = SUITE_FLAGS.get(name)
    if flags is None:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    values = {"-k": k, "-N": N, "--seed": seed}
    return globals()[f"suite_{name}"](*(values[flag] for flag in flags))
