import copy
import pickle
import random
from itertools import combinations, product as iproduct

import pytest

from dominolattice.lattice import (DOWN, UP, ColoredLattice, CoverDigraph, LatticeError,
                                   PathRecord, _ranks_from, birkhoff_failure,
                                   check_full_length_sublattice,
                                   full_length_witness, iso_failure,
                                   mountainize,
                                   path_from_vertices,
                                   path_stats, product, valleyize)
from dominolattice.domino import build_d_a, pi
from dominolattice.isomorphism import phi
from dominolattice.isomorphism import MoveMatrix, move_matrix
from dominolattice.poset import (PosetError, VertexColoredPoset, canonical_iso_to_filters,
                                 canonical_iso_to_ideals, enumerate_order_ideals,
                                 j_lattice, join_irreducibles, join_to_meet_irreducible,
                                 m_lattice)
from dominolattice.oracle import (check_lattice_laws, enumerate_shortest_paths,
                                  induced_covers, is_diamond_colored, is_distributive,
                                  is_modular,
                                  is_topographically_balanced,
                                  random_colored_poset, random_simple_path,
                                  rank_function, rank_identity_failure)
from dominolattice.solver import solve_domino
from dominolattice.typea import (BoxSpec, CircleState, build_l_a, build_l_graph,
                                 build_l_tab, build_l_tilde, build_p_a)

from conftest import DESK_SPECS, PRODUCT_SPECS, count_calls, iso_verdict


def two_chain(color):
    return ColoredLattice("01", [("0", "1", color)])


def n5():
    return ColoredLattice("0abct", [("0", "a", 1), ("a", "t", 2),
                                    ("0", "b", 1), ("b", "c", 2), ("c", "t", 3)])


def m3():
    return ColoredLattice("0abct", [("0", "a", 1), ("0", "b", 2), ("0", "c", 3),
                                    ("a", "t", 4), ("b", "t", 5), ("c", "t", 6)])


def hexagon():
    # ranked and a lattice, but a and b have no common cover: not balanced
    return ColoredLattice("01abcd", [("0", "a", 1), ("a", "c", 2), ("c", "1", 3),
                                     ("0", "b", 2), ("b", "d", 1), ("d", "1", 3)])


def bowtie():
    return ColoredLattice("abcd", [("a", "c", 1), ("a", "d", 2),
                                   ("b", "c", 2), ("b", "d", 1)])


def l24():
    return build_l_graph(BoxSpec(2, 6))


class TestConstruction:
    def test_rejects_non_cover_edge(self):
        with pytest.raises(LatticeError, match="not a cover"):
            ColoredLattice("abc", [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])

    def test_rejects_cycle(self):
        with pytest.raises(LatticeError, match="cycle"):
            ColoredLattice("ab", [("a", "b", 1), ("b", "a", 1)])

    def test_rejects_conflicting_colors(self):
        with pytest.raises(LatticeError, match="conflicting"):
            ColoredLattice("ab", [("a", "b", 1), ("a", "b", 2)])

    def test_rejects_bool_color(self):
        with pytest.raises(LatticeError, match="integer"):
            ColoredLattice("ab", [("a", "b", True)])

    def test_vertex_order_is_numeric_for_ints_only(self):
        assert ColoredLattice([10, 9, 2], [(2, 9, 1), (9, 10, 1)]).vertices == (2, 9, 10)
        assert ColoredLattice(["v9", "v10"], []).vertices == ("v10", "v9")


def _cover_digraph(cls, vertices, covers):
    if cls is ColoredLattice:
        return ColoredLattice(vertices, [(a, b, 1) for a, b in covers])
    return VertexColoredPoset(vertices, covers, {v: 1 for v in vertices})


class TestCoverDigraph:
    @pytest.mark.parametrize("cls, error", [(ColoredLattice, LatticeError),
                                            (VertexColoredPoset, PosetError)],
                             ids=["lattice", "poset"])
    @pytest.mark.parametrize("covers, message", [
        ([("a", "z")], "cover ('a', 'z') mentions unknown vertex"),
        ([("b", "b")], "reflexive cover at 'b'"),
        ([("a", "b"), ("b", "a")], "cover relation contains a cycle"),
        ([("a", "b"), ("b", "c"), ("c", "a"), ("d", "a")], "cover relation contains a cycle"),
        ([("a", "b"), ("b", "a"), ("c", "d")], "cover relation contains a cycle"),
        ([("a", "b"), ("b", "c"), ("a", "c")],
         "('a', 'c') is not a cover: 'b' lies between"),
        # the rank is sought in every component, not only in the first
        # vertex's: a lies apart from the transitive cover
        ([("b", "c"), ("c", "d"), ("b", "d")],
         "('b', 'd') is not a cover: 'c' lies between"),
    ], ids=["unknown", "loop", "cycle", "three-cycle-with-tail", "cycle-beside-a-chain",
            "transitive", "transitive-apart"])
    def test_rejects_with_shared_message(self, cls, error, covers, message):
        with pytest.raises(error) as exc:
            _cover_digraph(cls, "abcd", covers)
        assert str(exc.value) == message

    def test_both_classes_share_the_order(self):
        rng = random.Random(6)
        for _ in range(10):
            P = random_colored_poset(rng, 7)
            L = _cover_digraph(ColoredLattice, P.vertices, P.covers)
            assert L.vertices == P.vertices
            for u in P.vertices:
                assert L.index(u) == P.index(u)
                for v in P.vertices:
                    assert L.le(u, v) == P.le(u, v)

    def test_edge_order(self):
        # recorded before the index core; edges list in (x, y) vertex order
        assert build_d_a(BoxSpec(2, 5)).edges == (
            ((0, 0), (1, 1), 4), ((1, 0), (3, 0), 3), ((1, 1), (3, 1), 3),
            ((2, 0), (0, 0), 1), ((2, 0), (2, 2), 4), ((2, 2), (1, 1), 1),
            ((2, 2), (3, 3), 3), ((3, 0), (2, 0), 2), ((3, 0), (3, 2), 4),
            ((3, 1), (2, 1), 2), ((3, 2), (2, 2), 2), ((3, 3), (3, 1), 1))

    def test_neighbor_order(self):
        D = build_d_a(BoxSpec(2, 5))
        assert D.up_neighbors((2, 2)) == (((1, 1), 1), ((3, 3), 3))
        assert D.down_neighbors((2, 2)) == (((2, 0), 4), ((3, 2), 2))

    def test_ideal_lattice_vertex_order(self):
        P = VertexColoredPoset("abcd", [("a", "b"), ("a", "c"), ("b", "d")],
                               {"a": 1, "b": 2, "c": 1, "d": 3})
        assert ["".join(sorted(x)) for x in j_lattice(P).vertices] == [
            "", "a", "ab", "abc", "abcd", "abd", "ac"]

    def test_only_an_order_without_a_rank_reads_its_up_sets(self):
        # the maximal elements b and d lie at different heights, but each
        # component has a rank; N5 has none
        def poset():
            return VertexColoredPoset("abcdef", [("a", "b"), ("a", "c"), ("c", "d"),
                                                 ("e", "f")], dict.fromkeys("abcdef", 1))

        for build, fallbacks in ((poset, 0), (n5, 1)):
            _, calls = count_calls([CoverDigraph._reject_non_covers], build)
            assert calls["CoverDigraph._reject_non_covers"] == fallbacks

    def test_topo_puts_every_vertex_after_its_upper_covers(self):
        # Kahn's pass from the maximal elements, on graded orders and on
        # ungraded ones such as N5 and its dual
        rng = random.Random(32)
        orders = [build(spec) for spec in DESK_SPECS
                  for build in (build_l_graph, build_d_a, build_l_tab)]
        for _ in range(50):
            P = random_colored_poset(rng, 7, 3)
            orders += [P, j_lattice(P), m_lattice(P)]
        orders += [n5(), n5().dual(), bowtie()]
        for L in orders:
            place = {i: n for n, i in enumerate(L._topo)}
            assert sorted(place) == list(range(len(L))), L
            assert all(place[i] > place[j] for i, ws in enumerate(L._up) for j in ws), L

    def test_an_ungraded_order_builds_and_orders(self):
        # N5 has no rank, so its covers are checked on the up-sets
        L = n5()
        above = {"0": "0abct", "a": "at", "b": "bct", "c": "ct", "t": "t"}
        for x in L.vertices:
            for y in L.vertices:
                assert L.le(x, y) == (y in above[x]), (x, y)

    @pytest.mark.parametrize("query", [
        lambda D: D.le((0, 0, 0, 0), (1, 0, 0, 0)),
        lambda D: D.join((0, 0, 0, 0), (1, 0, 0, 0)),
        lambda D: D.is_lattice,
    ], ids=["le", "join", "is_lattice"])
    def test_up_sets_are_built_when_first_read(self, query):
        D = build_d_a(BoxSpec(4, 10))
        assert "_upsets" not in D.__dict__
        query(D)
        assert "_upsets" in D.__dict__


def _public_copy(L):
    """L rebuilt by the public constructor, which sorts and looks up every label."""
    return ColoredLattice(L.vertices, L.edges)


def _defined_ideal_lattice(P, filters):
    """J(P), or M(P) with filters, from the definition, by the public constructor.

    The ideals are the subsets closed under going down; a cover adds one
    vertex v to an ideal and takes v's color.  A filter is the complement
    of an ideal, and M(P) orders them by reverse containment.
    """
    vs, full = P.vertices, frozenset(P.vertices)
    ideals = {frozenset(S) for r in range(len(vs) + 1) for S in combinations(vs, r)
              if all(P.strict_down(v) <= set(S) for v in S)}
    label = (lambda x: full - x) if filters else (lambda x: x)
    return ColoredLattice([label(x) for x in ideals],
                          [(label(x), label(x | {v}), P.color(v))
                           for x in ideals for v in full - x if x | {v} in ideals])


def _defined_product(*lattices):
    """The componentwise product, by the public constructor on its labels."""
    vertices = list(iproduct(*[L.vertices for L in lattices]))
    return ColoredLattice(vertices, [(t, t[:q] + (w,) + t[q + 1:], c)
                                     for t in vertices for q, L in enumerate(lattices)
                                     for w, c in L.up_neighbors(t[q])])


class TestIndexSpaceBuilders:
    # the builders hand the order core vertices in sort_key order and covers
    # by index; the public constructor is their oracle
    @pytest.mark.parametrize("build", [build_l_graph, build_d_a, build_l_a, build_l_tilde,
                                       build_l_tab])
    def test_box_builders_match_the_public_constructor(self, build):
        for spec in DESK_SPECS:
            L = build(spec)
            assert L == _public_copy(L), spec

    def test_ideal_builders_match_the_public_constructor(self):
        rng = random.Random(24)
        for n in range(50):
            P, Q = random_colored_poset(rng, 7, 3), random_colored_poset(rng, 4, 2)
            if n % 2:
                # int labels, numbered out of their string order
                names = dict(zip(P.vertices, rng.sample(range(100), len(P))))
                P = VertexColoredPoset(names.values(),
                                       [(names[a], names[b]) for a, b in P.covers],
                                       {names[v]: c for v, c in P.colors.items()})
            J, M, JQ, MQ = j_lattice(P), m_lattice(P), j_lattice(Q), m_lattice(Q)
            assert J == _defined_ideal_lattice(P, False), n
            assert M == _defined_ideal_lattice(P, True), n
            assert J.dual() == ColoredLattice(J.vertices, [(b, a, c) for a, b, c in J.edges]), n
            assert product(J, JQ) == _defined_product(J, JQ), n
            assert product(JQ, M, MQ) == _defined_product(JQ, M, MQ), n
            assert enumerate_order_ideals(P) == list(J.vertices), n


class TestDiamondColoring:
    def test_chain_has_no_diamonds(self):
        L = ColoredLattice("abc", [("a", "b", 1), ("b", "c", 7)])
        assert is_diamond_colored(L)

    def test_l24_is_diamond_colored(self):
        assert is_diamond_colored(l24())

    def test_mismatched_diamond_fails(self):
        bad = ColoredLattice("0abt", [("0", "a", 1), ("0", "b", 2),
                                      ("a", "t", 1), ("b", "t", 3)])
        assert not is_diamond_colored(bad)


class TestBalance:
    def test_grid_product_is_balanced(self):
        assert is_topographically_balanced(product(two_chain(1), two_chain(2)))

    def test_l23_is_balanced(self):
        spec = BoxSpec(2, 5)
        assert is_topographically_balanced(build_l_a(spec))

    def test_pentagon_is_not_balanced(self):
        assert not is_topographically_balanced(n5())


class TestRank:
    def test_chain_ranks(self):
        L = ColoredLattice("abcd", [("a", "b", 1), ("b", "c", 1), ("c", "d", 1)])
        assert rank_function(L) == {"a": 0, "b": 1, "c": 2, "d": 3}

    def test_l24_rank_of_full_square(self):
        assert rank_function(l24())[(3, 3)] == 6

    def test_odd_cycle_has_no_rank(self):
        zigzag = ColoredLattice("abcde", [("a", "b", 1), ("c", "b", 1),
                                          ("c", "d", 1), ("e", "d", 1),
                                          ("e", "a", 1)])
        with pytest.raises(LatticeError, match="rank"):
            rank_function(zigzag)

    def test_disconnected_rejected(self):
        L = ColoredLattice("abcd", [("a", "b", 1), ("c", "d", 1)])
        assert L.ranks is None
        with pytest.raises(LatticeError, match="disconnected"):
            rank_function(L)

    @pytest.mark.parametrize("build, connected, ranked", [
        (n5, True, False), (hexagon, True, True),
        (lambda: ColoredLattice("abcd", [("a", "b", 1), ("c", "d", 1)]), False, False),
    ], ids=["N5", "hexagon", "two-chains"])
    def test_one_traversal_gives_the_rank_and_the_components(self, build, connected, ranked):
        # the traversal that certifies the covers keeps the rank and the
        # component count; ranks and is_connected read them, searching no more
        L, built = count_calls([_ranks_from], build)
        (ranks, is_connected), read = count_calls([_ranks_from],
                                                  lambda: (L.ranks, L.is_connected))
        assert built["_ranks_from"] == 1 and read == {}
        assert is_connected == connected
        assert (ranks is not None) == ranked

    def test_hexagon_breaks_rank_identity(self):
        H = hexagon()
        assert H.is_lattice and H.ranks is not None
        assert rank_identity_failure(H) == ("a", "b")
        assert check_lattice_laws(H)["rank_identity"] is False
        with pytest.raises(LatticeError, match="not ranked"):
            rank_identity_failure(n5())


class TestBalanceRankEquivalence:
    def test_balance_iff_ranked_with_identity(self):
        # balanced lattices are exactly the ranked ones satisfying
        # 2r(s v t) - r(s) - r(t) = r(s) + r(t) - 2r(s ^ t), on every
        # probed instance
        rng = random.Random(21)
        cases = [n5(), m3(), hexagon(), l24(), product(two_chain(1), two_chain(2))]
        cases += [j_lattice(random_colored_poset(rng, 6)) for _ in range(10)]
        for L in cases:
            identity = L.ranks is not None and rank_identity_failure(L) is None
            assert is_topographically_balanced(L) == identity


class TestMeetJoin:
    def test_meet_with_top_is_identity(self):
        L = l24()
        for x in L.vertices:
            assert L.meet(x, L.maximum) == x
            assert L.join(x, L.minimum) == x

    def test_partition_meet_join_are_componentwise(self):
        L = l24()
        assert L.meet((3, 1), (2, 2)) == (2, 1)
        assert L.join((3, 1), (2, 2)) == (3, 2)

    def test_join_of_ideals_is_union(self):
        L = build_l_a(BoxSpec(2, 5))
        for x in L.vertices:
            for y in L.vertices:
                assert L.join(x, y) == x | y
                assert L.meet(x, y) == x & y

    def test_failure_on_non_lattice(self):
        two_tops = ColoredLattice("abc", [("a", "b", 1), ("a", "c", 2)])
        with pytest.raises(LatticeError):
            two_tops.join("b", "c")
        with pytest.raises(LatticeError) as exc:
            bowtie().meet("c", "d")
        assert str(exc.value) == "no meet for 'c', 'd'"
        with pytest.raises(LatticeError) as exc:
            bowtie().join("a", "b")
        assert str(exc.value) == "no join for 'a', 'b'"


class TestUnknownVertex:
    # every query of a vertex looks it up once, through CoverDigraph.index,
    # and an unknown one raises the order's own error, naming it
    @pytest.mark.parametrize("query", [
        lambda L: L.index((9, 9)),
        lambda L: L.le((9, 9), L.minimum),
        lambda L: L.le(L.minimum, (9, 9)),
        lambda L: L.le((9, 9), (9, 9)),
        lambda L: L.meet((9, 9), L.minimum),
        lambda L: L.join(L.minimum, (9, 9)),
        lambda L: L.up_neighbors((9, 9)),
        lambda L: L.down_neighbors((9, 9)),
        lambda L: full_length_witness(L, L.vertices, (9, 9)),
        lambda L: join_to_meet_irreducible(L, (9, 9)),
        lambda L: canonical_iso_to_ideals(L, (9, 9)),
        lambda L: canonical_iso_to_filters(L, (9, 9)),
    ], ids=["index", "le-first", "le-second", "le-same", "meet", "join", "up_neighbors",
            "down_neighbors", "full_length_witness", "join_to_meet_irreducible",
            "canonical_iso_to_ideals", "canonical_iso_to_filters"])
    def test_a_lattice_raises_its_error(self, query):
        with pytest.raises(LatticeError) as exc:
            query(build_l_tilde(BoxSpec(2, 5)))
        assert str(exc.value) == "(9, 9) is not a vertex"

    # a walk starting at an unknown vertex was accepted, and one stepping
    # from it was reported as a missing edge
    @pytest.mark.parametrize("walk", [
        lambda D: PathRecord(((9, 9),), ()).validate(D),
        lambda D: path_from_vertices(D, [(9, 9)]),
        lambda D: path_from_vertices(D, [(9, 9), (0, 0)]),
        lambda D: mountainize(D, PathRecord(((9, 9),), ())),
    ], ids=["validate", "path_from_vertices", "path_from_vertices-step", "mountainize"])
    def test_a_walk_names_its_unknown_vertex(self, walk):
        with pytest.raises(LatticeError) as exc:
            walk(build_d_a(BoxSpec(2, 5)))
        assert str(exc.value) == "(9, 9) is not a vertex"

    @pytest.mark.parametrize("query", [
        lambda L: L.index([3, 3]),
        lambda L: L.up_neighbors([3, 3]),
        lambda L: L.le([3, 3], L.minimum),
    ], ids=["index", "up_neighbors", "le"])
    def test_an_unhashable_vertex_raises_the_order_error(self, query):
        # the index lookup raised a bare TypeError, naming no vertex
        with pytest.raises(LatticeError) as exc:
            query(build_l_graph(BoxSpec(2, 5)))
        assert str(exc.value) == "[3, 3] is not a vertex"

    @pytest.mark.parametrize("query", [
        lambda P: P.index("9,9"),
        lambda P: P.le("9,9", "1,1"),
        lambda P: P.strict_up("9,9"),
        lambda P: P.strict_down("9,9"),
        lambda P: P.color("9,9"),
    ], ids=["index", "le", "strict_up", "strict_down", "color"])
    def test_a_poset_raises_its_error(self, query):
        with pytest.raises(PosetError) as exc:
            query(build_p_a(BoxSpec(2, 5)))
        assert str(exc.value) == "'9,9' is not a vertex"


class TestLaws:
    def test_every_ideal_lattice_is_distributive(self):
        rng = random.Random(4)
        for _ in range(15):
            L = j_lattice(random_colored_poset(rng, 6))
            assert is_distributive(L)
            assert is_modular(L)

    def test_m3_is_modular_not_distributive(self):
        assert is_modular(m3())
        assert not is_distributive(m3())

    def test_n5_is_not_modular(self):
        assert not is_modular(n5())


def definitional_verdict(L):
    """The definitional checks: diamond-colored, and every law holds."""
    laws = check_lattice_laws(L)
    return is_diamond_colored(L) and all(
        laws[law] for law in ("is_lattice", "topographically_balanced",
                              "modular", "distributive", "rank_identity"))


def birkhoff_scan(L):
    """birkhoff_failure as one scan of every join irreducible at every vertex, O(V*J).

    The reference for the certificate's bottom-up takeable sets: the same
    checks in the same order, each vertex's takeable join irreducibles
    found by testing every one of them.
    """
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
    for x, ys in enumerate(L._up):
        fx = masks[x]
        added = 0
        for y in ys:
            d = masks[y] ^ fx
            if d & (d - 1):
                return (f"cover ({vs[x]!r}, {vs[y]!r}) adds {d.bit_count()} "
                        "join irreducibles, not one")
            b = d.bit_length() - 1
            if color[x, y] != hue[b]:
                return (f"cover ({vs[x]!r}, {vs[y]!r}) has color {color[x, y]}, "
                        f"but the join irreducible {vs[members[b]]!r} it adds "
                        f"has color {hue[b]}")
            added |= d
        rest = ~fx
        missing = sum(bit for m, bit in bits if m & rest == bit) & ~added
        if missing:
            j = members[(missing & -missing).bit_length() - 1]
            return (f"no cover out of {vs[x]!r} adds the join irreducible "
                    f"{vs[j]!r}, though every join irreducible below it lies "
                    f"below {vs[x]!r}")
    return None


def certify(L):
    """birkhoff_failure(L), after checking it against the scan and the definitional verdict."""
    failure = birkhoff_failure(L)
    assert failure == birkhoff_scan(L)
    assert (failure is None) == definitional_verdict(L), failure
    if failure is not None:
        assert any(repr(v) in failure for v in L.vertices), failure
    return failure


def mutants(L, rng):
    """L with one edge dropped and L with one edge recolored."""
    edges = list(L.edges)
    i = rng.randrange(len(edges))
    a, b, c = edges[i]
    return (ColoredLattice(L.vertices, edges[:i] + edges[i + 1:]),
            ColoredLattice(L.vertices, edges[:i] + [(a, b, c + 1)] + edges[i + 1:]))


def d37_mutant(kind):
    """D(3,7) with one recolored edge, one dropped edge or one swapped diamond."""
    D = build_d_a(BoxSpec(3, 7))
    color = {(a, b): c for a, b, c in D.edges}
    x = next(v for v in D.vertices if len(D.up_neighbors(v)) >= 2)
    (s, cs), (t, ct) = D.up_neighbors(x)[:2]
    if kind == "recolored":
        color[x, s] = ct
    elif kind == "dropped":
        del color[x, s]
    else:
        u = D.join(s, t)
        color[x, s], color[t, u], color[x, t], color[s, u] = ct, ct, cs, cs
    return ColoredLattice(D.vertices, [(a, b, c) for (a, b), c in color.items()])


class TestBirkhoffCertificate:
    """The one-pass certificate against the definitional law checks."""

    @pytest.mark.parametrize("spec", DESK_SPECS, ids=lambda s: f"k{s.k}N{s.N}")
    def test_every_box(self, spec):
        for L in (build_l_graph(spec), build_d_a(spec)):
            assert certify(L) is None

    @pytest.mark.parametrize("spec", PRODUCT_SPECS, ids=lambda s: f"k{s.k}N{s.N}")
    def test_chain_products(self, spec):
        for L in (build_l_tilde(spec), build_l_tab(spec)):
            assert certify(L) is None

    def test_ideal_and_filter_lattices_and_their_duals(self):
        rng = random.Random(8)
        for _ in range(50):
            P = random_colored_poset(rng, 7, 3)
            for L in (j_lattice(P), m_lattice(P)):
                assert certify(L) is None
                assert certify(L.dual()) is None

    def test_one_edge_mutants_of_ideal_lattices(self):
        rng = random.Random(9)
        verdicts = set()
        for _ in range(40):
            L = j_lattice(random_colored_poset(rng, 6, 3, min_vertices=2))
            for K in mutants(L, rng):
                verdicts.add(certify(K) is None)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("L, message", [
        (ColoredLattice("0", []), None),
        (n5(), "cover ('a', 't') adds 2 join irreducibles, not one"),
        (m3(), "cover ('a', 't') adds 2 join irreducibles, not one"),
        (hexagon(), "no cover out of 'a' adds the join irreducible 'b', though "
                    "every join irreducible below it lies below 'a'"),
        (ColoredLattice("abc", [("a", "c", 1), ("b", "c", 2)]),
         "2 minimal elements, among them 'a' and 'b'"),
        (ColoredLattice("0abcd", [("0", "a", 1), ("0", "b", 2), ("a", "c", 3),
                                  ("b", "c", 3), ("a", "d", 3), ("b", "d", 3)]),
         "'c' and 'd' lie above the same join irreducibles"),
        (ColoredLattice("0ab", [("0", "a", 1), ("0", "b", 2)]),
         "no cover out of 'a' adds the join irreducible 'b', though every "
         "join irreducible below it lies below 'a'"),
        (ColoredLattice("0abt", [("0", "a", 1), ("0", "b", 2),
                                 ("a", "t", 2), ("b", "t", 3)]),
         "cover ('b', 't') has color 3, but the join irreducible 'a' it adds "
         "has color 1"),
    ], ids=["one-element", "N5", "M3", "hexagon", "two-minima", "bowtie",
            "V", "miscolored-square"])
    def test_small_lattices_name_the_broken_check(self, L, message):
        assert certify(L) == message

    @pytest.mark.parametrize("kind", ["recolored", "dropped", "swapped"])
    def test_d37_mutants_fail_with_a_witness(self, kind):
        D = d37_mutant(kind)
        assert certify(D) is not None
        assert not definitional_verdict(D)


class TestBirkhoffScanReference:
    """The bottom-up takeable sets against the scan, where the law checks cost too much."""

    @pytest.mark.parametrize("k, N", [(3, 9), (4, 9), (5, 11)])
    def test_larger_boxes(self, k, N):
        spec = BoxSpec(k, N)
        for L in (build_l_graph(spec), build_d_a(spec)):
            assert birkhoff_failure(L) is None is birkhoff_scan(L)
            assert birkhoff_failure(L.dual()) is None is birkhoff_scan(L.dual())

    def test_one_edge_mutants_of_ideal_and_filter_lattices(self):
        rng = random.Random(10)
        verdicts = set()
        for _ in range(150):
            P = random_colored_poset(rng, 7, 3, min_vertices=2)
            for L in (j_lattice(P), m_lattice(P)):
                for K in (*mutants(L, rng), *mutants(L.dual(), rng)):
                    failure = birkhoff_failure(K)
                    assert failure == birkhoff_scan(K)
                    verdicts.add(failure is None)
        assert verdicts == {True, False}


class TestIsoCertificate:
    """iso_failure on cover indices against the label-space check_constructed_iso."""

    @pytest.mark.parametrize("spec", DESK_SPECS, ids=lambda s: f"k{s.k}N{s.N}")
    def test_phi_on_every_box(self, spec):
        L = build_l_graph(spec)
        assert iso_verdict(L, build_d_a(spec), {p: phi(spec, p) for p in L.vertices})

    @staticmethod
    def phi_37():
        spec = BoxSpec(3, 7)
        L = build_l_graph(spec)
        return L, build_d_a(spec), {p: phi(spec, p) for p in L.vertices}

    @staticmethod
    def failure(G, H, f):
        assert not iso_verdict(G, H, f)
        return iso_failure(G, H, f)

    def test_two_swapped_images(self):
        L, D, image = self.phi_37()
        u, v = L.vertices[3], L.vertices[10]
        image[u], image[v] = image[v], image[u]
        failure = self.failure(L, D, image)
        assert repr(u) in failure or repr(v) in failure, failure

    def test_non_injective_map(self):
        L, D, image = self.phi_37()
        u, v = L.vertices[3], L.vertices[10]
        image[v] = image[u]
        assert self.failure(L, D, image) == f"{u!r} and {v!r} both map to {image[u]!r}"

    def test_image_outside_the_target(self):
        L, D, image = self.phi_37()
        v = L.vertices[10]
        image[v] = (9, 9, 9)
        assert self.failure(L, D, image) == (f"{v!r} maps to (9, 9, 9), "
                                             "which is not a vertex of the target")

    def test_map_onto_part_of_the_target(self):
        L, D, image = self.phi_37()
        top = L.maximum
        G = ColoredLattice([v for v in L.vertices if v != top],
                           [e for e in L.edges if e[1] != top])
        assert self.failure(G, D, image) == f"no vertex maps to {image[top]!r}"

    def test_swapped_color(self):
        L, D, image = self.phi_37()
        (a, b, c), *rest = D.edges
        H = ColoredLattice(D.vertices, [(a, b, c + 1)] + rest)
        failure = self.failure(L, H, image)
        assert f"its image ({a!r}, {b!r}) has color {c + 1}" in failure, failure

    def test_dropped_cover_of_the_target(self):
        L, D, image = self.phi_37()
        edges = list(D.edges)
        a, b, _ = edges.pop(7)
        failure = self.failure(L, ColoredLattice(D.vertices, edges), image)
        assert failure.endswith(f"maps to ({a!r}, {b!r}), which is not a cover"), failure

    def test_dropped_cover_of_the_source(self):
        L, D, image = self.phi_37()
        edges = list(L.edges)
        a, b, _ = edges.pop(7)
        failure = self.failure(ColoredLattice(L.vertices, edges), D, image)
        assert failure == (f"({a!r}, {b!r}) is not a cover, but its image "
                           f"({image[a]!r}, {image[b]!r}) is")

    def test_callable_map_and_identity(self):
        L = l24()
        assert iso_failure(L, L, lambda v: v) is None
        assert iso_verdict(L, L, {v: v for v in L.vertices})


def greatest(bounds, le):
    """The member of bounds that every member is le to, or None."""
    top = [m for m in bounds if all(le(z, m) for z in bounds)]
    return top[0] if top else None


def definitional_bounds(L, x, y):
    """(meet, join) of x and y read off le alone; None where there is none."""
    vs = L.vertices
    return (greatest([z for z in vs if L.le(z, x) and L.le(z, y)], L.le),
            greatest([z for z in vs if L.le(x, z) and L.le(y, z)],
                     lambda a, b: L.le(b, a)))


class TestIsLattice:
    """is_lattice checks joins only; the definition checks both, pair by pair."""

    def check_against_the_definition(self, L):
        bounds = {(x, y): definitional_bounds(L, x, y)
                  for x in L.vertices for y in L.vertices}
        verdict = all(None not in pair for pair in bounds.values())
        assert L.is_lattice == verdict
        if verdict:
            for (x, y), (meet, join) in bounds.items():
                assert (L.meet(x, y), L.join(x, y)) == (meet, join)
        return verdict

    @pytest.mark.parametrize("L, verdict", [
        (ColoredLattice("0", []), True),
        (ColoredLattice("0ab", [("0", "a", 1), ("0", "b", 2)]), False),
        (ColoredLattice("abt", [("a", "t", 1), ("b", "t", 2)]), False),
        (bowtie(), False),
        (n5(), True),
        (m3(), True),
    ], ids=["one-element", "V", "Lambda", "bowtie", "N5", "M3"])
    def test_small_orders(self, L, verdict):
        assert self.check_against_the_definition(L) == verdict
        assert self.check_against_the_definition(L.dual()) == verdict

    def test_random_posets_and_their_ideal_lattices(self):
        rng = random.Random(10)
        verdicts = set()
        for _ in range(60):
            P = random_colored_poset(rng, 7, 3)
            L = _cover_digraph(ColoredLattice, P.vertices, P.covers)
            verdicts.add(self.check_against_the_definition(L))
            assert self.check_against_the_definition(j_lattice(P))
        assert verdicts == {True, False}


class TestPaths:
    @pytest.mark.parametrize("turns", [(UP, DOWN, UP), (DOWN, UP, DOWN)],
                             ids=["up-down-up", "down-up-down"])
    def test_apex_and_nadir_need_a_single_turn(self, turns):
        p = PathRecord(tuple(range(len(turns) + 1)), tuple((1, d) for d in turns))
        assert not p.is_mountain and not p.is_valley
        with pytest.raises(LatticeError, match="^not a mountain path$"):
            p.apex
        with pytest.raises(LatticeError, match="^not a valley path$"):
            p.nadir

    def test_empty_path_stats(self):
        p = PathRecord(((0, 0),), ())
        assert path_stats(p) == (0, {}, {})

    def test_validate_rejects_unknown_direction(self):
        p = PathRecord(((3, 0), (1, 0)), ((3, "sideways"),))
        with pytest.raises(LatticeError, match="sideways"):
            p.validate(build_d_a(BoxSpec(2, 5)))

    @pytest.mark.parametrize("vertices, steps, message", [
        (((0, 0), (1, 1)), (), r"^vertex/step count mismatch$"),
        (((0, 0), (1, 0)), ((4, UP),),
         r"^step \(0, 0\) -> \(1, 0\) \(up, color 4\) is not an edge$"),
        (((0, 0), (1, 1)), ((3, UP),),
         r"^step \(0, 0\) -> \(1, 1\) \(up, color 3\) is not an edge$"),
    ], ids=["count-mismatch", "no-edge", "wrong-color"])
    def test_validate_rejects_a_walk_off_the_lattice(self, vertices, steps, message):
        # in D(2,5), (1, 1) covers (0, 0) with color 4 and (1, 0) is not adjacent
        with pytest.raises(LatticeError, match=message):
            PathRecord(vertices, steps).validate(build_d_a(BoxSpec(2, 5)))

    def test_worked_three_step_path(self):
        L = l24()
        p = path_from_vertices(L, [(1, 1), (2, 1), (3, 1), (3, 0)])
        length, asc, desc = path_stats(p)
        assert length == 3
        assert asc == {3: 1, 2: 1} and desc == {5: 1}

    def test_length_is_total_of_censuses(self):
        L = l24()
        rng = random.Random(8)
        for _ in range(50):
            p = random_simple_path(L, rng)
            length, asc, desc = path_stats(p)
            assert length == sum(asc.values()) + sum(desc.values())

    def test_saturated_up_paths_share_length_and_colors(self):
        # all maximal-chain segments between two comparable elements agree
        L = l24()
        for s in L.vertices:
            for t in L.vertices:
                if s == t or not L.le(s, t):
                    continue
                stats = set()
                stack = [(s, ())]
                while stack:
                    v, colors = stack.pop()
                    if v == t:
                        stats.add((len(colors), tuple(sorted(colors))))
                        continue
                    for w, c in L.up_neighbors(v):
                        if L.le(w, t):
                            stack.append((w, colors + (c,)))
                assert len(stats) == 1, (s, t, stats)

    def test_rank_difference_is_ascent_minus_descent(self):
        L = l24()
        ranks = L.ranks
        rng = random.Random(13)
        for _ in range(50):
            p = random_simple_path(L, rng)
            _, asc, desc = path_stats(p)
            assert (ranks[p.vertices[-1]] - ranks[p.vertices[0]]
                    == sum(asc.values()) - sum(desc.values()))


class TestRecords:
    """The immutable records share one base: field equality within a class,
    a hash and repr read off the fields, and no assignment."""

    def records(self):
        solution = solve_domino(BoxSpec(2, 6), (4, 3), (1, 1))
        return [BoxSpec(2, 5), CircleState((0, 1, 1), "D"), pi(6),
                move_matrix(BoxSpec(2, 5)), solution.path, solution]

    def test_repr_names_the_fields(self):
        assert repr(BoxSpec(2, 5)) == "BoxSpec(k=2, N=5)"
        assert repr(CircleState((0, 1), "L")) == "CircleState(bits=(0, 1), scheme='L')"
        assert repr(PathRecord((1, 2), ((3, "up"),))) \
            == "PathRecord(vertices=(1, 2), steps=((3, 'up'),))"
        solution = solve_domino(BoxSpec(2, 6), (1, 0), (1, 0))
        assert repr(solution) == ("GameSolution(distance=0, per_color=Counter(), "
                                  "path=PathRecord(vertices=((1, 0),), steps=()), "
                                  "waypoint=(1, 0))")

    def test_equal_fields_are_equal_only_within_one_class(self):
        assert BoxSpec(2, 5) == BoxSpec(2, 5) != BoxSpec(2, 6)
        assert hash(BoxSpec(2, 5)) == hash(BoxSpec(2, 5))
        assert BoxSpec(2, 5) != (2, 5) and (2, 5) != BoxSpec(2, 5)
        assert PathRecord((), ()) != MoveMatrix((), ())
        assert len({BoxSpec(2, 5), BoxSpec(2, 5), BoxSpec(3, 5)}) == 2

    def test_a_box_is_a_cache_key(self):
        assert build_p_a(BoxSpec(2, 5)) is build_p_a(BoxSpec(2, 5))

    def test_a_game_solution_is_not_hashable(self):
        with pytest.raises(TypeError, match="Counter"):
            hash(self.records()[-1])

    def test_fields_cannot_be_assigned_added_or_deleted(self):
        fields = ["k", "bits", "mapping", "entries", "vertices", "distance"]
        for record, field in zip(self.records(), fields):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                record.extra = 1
            with pytest.raises(AttributeError):
                delattr(record, field)

    def test_pickle_and_copy_rebuild_an_equal_record(self):
        for record in self.records():
            assert pickle.loads(pickle.dumps(record)) == record
            assert copy.copy(record) == record == copy.deepcopy(record)

    def test_construction_still_validates(self):
        with pytest.raises(ValueError, match="integers"):
            BoxSpec(2, 5.0)
        with pytest.raises(ValueError, match="scheme"):
            CircleState((0, 1), "X")
        with pytest.raises(ValueError, match="0/1"):
            CircleState((0, 2), "L")


class TestMountainize:
    def test_mountain_returned_unchanged(self):
        L = l24()
        p = path_from_vertices(L, [(0, 0), (1, 0), (1, 1)])
        assert mountainize(L, p) == p

    def test_valley_in_grid_becomes_mountain(self):
        L = product(two_chain(1), two_chain(2))
        bottom, top = L.minimum, L.maximum
        s, t = ("1", "0"), ("0", "1")
        p = path_from_vertices(L, [s, bottom, t])
        m = mountainize(L, p)
        assert m.vertices == (s, top, t)
        assert len(m) == 2

    def test_shortest_paths_mountainize_cleanly(self):
        L = l24()
        rng = random.Random(3)
        verts = list(L.vertices)
        for _ in range(100):
            a, b = rng.choice(verts), rng.choice(verts)
            p = rng.choice(enumerate_shortest_paths(L, a, b))
            m, v = mountainize(L, p), valleyize(L, p)
            assert m.is_mountain and v.is_valley
            assert path_stats(p) == path_stats(m) == path_stats(v)
            assert m.apex == L.join(a, b)
            assert v.nadir == L.meet(a, b)

    def test_non_shortest_walk_can_have_no_mountainization(self):
        # (2,0) > (1,0) < (1,1) < (2,1): lifting the valley creates a
        # backtrack through (2,1), and indeed no length-3 mountain from
        # (2,0) to (2,1) with a color-3 ascent exists, so the procedure
        # reports failure instead of inventing a path
        L = l24()
        p = path_from_vertices(L, [(2, 0), (1, 0), (1, 1), (2, 1)])
        with pytest.raises(LatticeError, match="backtrack"):
            mountainize(L, p)

    def test_unbalanced_input_fails(self):
        L = n5()
        p = path_from_vertices(L, ["a", "0", "b"])
        with pytest.raises(LatticeError, match="balanced"):
            mountainize(L, p)


class TestProduct:
    def test_product_of_two_chains_is_a_diamond(self):
        L = product(two_chain(1), two_chain(2))
        assert len(L) == 4 and len(L.edges) == 4
        assert is_diamond_colored(L)

    def test_chain_product_length(self):
        spec = BoxSpec(2, 6)
        assert build_l_tilde(spec).length == 8

    def test_rank_adds_over_factors(self):
        A = ColoredLattice("abc", [("a", "b", 1), ("b", "c", 2)])
        B = two_chain(3)
        L = product(A, B)
        ra, rb, rl = A.ranks, B.ranks, L.ranks
        for (x, y) in L.vertices:
            assert rl[(x, y)] == ra[x] + rb[y]


class TestFullLength:
    def test_whole_lattice_is_full_length(self):
        L = l24()
        assert check_full_length_sublattice(L, set(L.vertices))

    def test_tableau_sublattice_is_full_length(self):
        spec = BoxSpec(2, 6)
        big = build_l_tilde(spec)
        K = [v for v in big.vertices if all(a < b for a, b in zip(v, v[1:]))]
        assert check_full_length_sublattice(big, K)
        assert build_l_tab(spec).length == big.length

    def test_missing_top_fails(self):
        L = l24()
        K = set(L.vertices) - {L.maximum}
        assert not check_full_length_sublattice(L, K)

    def test_rejects_a_k_outside_the_host(self):
        with pytest.raises(LatticeError, match="^K is not a vertex subset of L$"):
            check_full_length_sublattice(l24(), [(9, 9)])

    def test_rejects_a_host_that_is_not_a_lattice(self):
        L = bowtie()
        with pytest.raises(LatticeError, match="^host is not a lattice$"):
            check_full_length_sublattice(L, L.vertices)

    def test_k_without_a_join_fails(self):
        # the 3x3 grid L_tilde(2,4) without the join of its two atoms: a
        # bottom-to-top chain still runs inside K
        big = build_l_tilde(BoxSpec(2, 4))
        atoms = [w for w, _ in big.up_neighbors(big.minimum)]
        K = set(big.vertices) - {big.join(*atoms)}
        assert check_full_length_sublattice(big, K) is False

    def test_the_guard_rejects_a_cover_the_host_edges_miss(self):
        # {bottom, top} of L_tilde(2,5) is closed under meet and join and
        # top covers bottom in its induced order, but that cover is no edge
        # of the host: only a full-length K has the host's edges as covers
        big = build_l_tilde(BoxSpec(2, 5))
        K = [big.minimum, big.maximum]
        assert all(big.meet(x, y) in K and big.join(x, y) in K for x in K for y in K)
        assert induced_covers(big, K) == [tuple(K)]
        assert not big.has_edge(*K)
        assert check_full_length_sublattice(big, K) is False

    @pytest.mark.parametrize("spec", PRODUCT_SPECS + (BoxSpec(4, 8),),
                             ids=lambda s: f"k{s.k}N{s.N}")
    def test_l_tab_is_the_induced_order_on_the_tableaux(self, spec):
        big = build_l_tilde(spec)
        K = [v for v in big.vertices if all(a < b for a, b in zip(v, v[1:]))]
        assert build_l_tab(spec) == ColoredLattice(
            K, [(x, y, big.edge_color(x, y)) for x, y in induced_covers(big, K)])

    def test_l_tab_builds_no_host_and_runs_no_order_search(self):
        tab, calls = count_calls([build_l_tilde, product, check_full_length_sublattice,
                                  ColoredLattice.is_lattice.func, induced_covers],
                                 lambda: build_l_tab(BoxSpec(3, 7)))
        assert calls == {}
        assert tab == build_l_tab(BoxSpec(3, 7))

    @pytest.mark.parametrize("spec", DESK_SPECS, ids=lambda s: f"k{s.k}N{s.N}")
    def test_l_tab_is_full_length_in_l_tilde_by_its_min_and_max(self, spec):
        # the tableaux are cut out by v_r < v_(r+1), which L_tilde's
        # componentwise min and max preserve, and each cover of L_tab
        # lowers one entry by one, an edge of L_tilde colored by the new entry
        tab = build_l_tab(spec)
        for x, y in combinations(tab.vertices, 2):
            assert tab.join(x, y) == tuple(map(min, x, y))
            assert tab.meet(x, y) == tuple(map(max, x, y))
        for x, y, c in tab.edges:
            (r,) = [r for r in range(spec.k) if x[r] != y[r]]
            assert x[r] - 1 == y[r] == c
        assert tab.length == spec.k * spec.cols

    def test_sublattice_edges_and_ranks_agree_with_host(self):
        spec = BoxSpec(2, 6)
        big = build_l_tilde(spec)
        K = build_l_tab(spec)
        big_ranks = big.ranks
        for v, r in K.ranks.items():
            assert big_ranks[v] == r
        for a, b, c in K.edges:
            assert big.edge_color(a, b) == c

    def test_witness_is_identity_inside_k(self):
        spec = BoxSpec(2, 6)
        big = build_l_tilde(spec)
        K = set(build_l_tab(spec).vertices)
        for x in K:
            if len(big.down_neighbors(x)) == 1:
                assert full_length_witness(big, K, x) == x

    def test_witness_map_is_color_preserving_bijection(self):
        # the witness map is a color-preserving bijection and preserves
        # order one way; the image order may gain comparabilities (the
        # source is only a weak subposet of it)
        spec = BoxSpec(2, 6)
        big = build_l_tilde(spec)
        tab = build_l_tab(spec)
        K = set(tab.vertices)
        jbig = join_irreducibles(big)
        jtab = join_irreducibles(tab)
        f = {x: full_length_witness(big, K, x) for x in jbig.vertices}
        assert sorted(f.values()) == sorted(jtab.vertices)
        for x in jbig.vertices:
            assert jbig.color(x) == jtab.color(f[x])
        for u in jbig.vertices:
            for v in jbig.vertices:
                if jbig.le(u, v):
                    assert jtab.le(f[u], f[v])
        assert len(jtab) == tab.length

    def test_grid_correspondence_inside_chain_product(self):
        # the (r, c) cell of the grid poset corresponds to the unique
        # minimal tableau column above the matching join irreducible
        spec = BoxSpec(2, 6)
        big = build_l_tilde(spec)
        K = set(build_l_tab(spec).vertices)
        grid = build_p_a(spec)
        jtab = join_irreducibles(build_l_tab(spec))

        def jirr(r, c):
            base = [spec.cols + i for i in range(1, spec.k + 1)]
            base[r - 1] = spec.cols + r - c
            return tuple(base)

        f = {}
        for v in grid.vertices:
            r, c = (int(x) for x in v.split(","))
            f[v] = full_length_witness(big, K, jirr(r, c))
        assert iso_failure(grid, jtab, f) is None
