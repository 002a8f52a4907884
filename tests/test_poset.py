import random

import pytest

from dominolattice.lattice import ColoredLattice, iso_failure, product
from dominolattice.poset import (PosetError, VertexColoredPoset, _ideal_mask,
                                 canonical_iso_to_filters,
                                 canonical_iso_to_ideals,
                                 disjoint_sum, dual, enumerate_order_ideals,
                                 is_order_ideal, j_lattice, join_irreducibles,
                                 join_to_meet_irreducible, m_lattice,
                                 meet_irreducibles,
                                 principal_filter, principal_ideal, recolor)
from dominolattice.domino import build_d_a
from dominolattice.lattice import CoverDigraph
from dominolattice.typea import BoxSpec, build_l_a, build_l_graph, build_p_a
from dominolattice.oracle import check_constructed_iso, induced_covers, random_colored_poset

from conftest import DESK_SPECS, count_calls, iso_verdict


def chain(colors):
    n = len(colors)
    return VertexColoredPoset(
        [f"c{i}" for i in range(n)],
        [(f"c{i}", f"c{i+1}") for i in range(n - 1)],
        {f"c{i}": colors[i] for i in range(n)})


def antichain(colors):
    return VertexColoredPoset([f"a{i}" for i in range(len(colors))], [],
                              {f"a{i}": c for i, c in enumerate(colors)})


def n5():
    return ColoredLattice("0abct", [("0", "a", 1), ("a", "t", 2),
                                    ("0", "b", 1), ("b", "c", 2), ("c", "t", 3)])


def m3():
    return ColoredLattice("0abct", [("0", "a", 1), ("0", "b", 2), ("0", "c", 3),
                                    ("a", "t", 2), ("b", "t", 3), ("c", "t", 1)])


def irreducibles_by_definition(L, neighbors):
    """The vertices with one neighbor edge, ordered by `induced_covers` and colored by it."""
    members = [v for v in L.vertices if len(neighbors(v)) == 1]
    return VertexColoredPoset(members, induced_covers(L, members),
                              {v: neighbors(v)[0][1] for v in members})


def assert_irreducibles_by_definition(L):
    assert join_irreducibles(L) == irreducibles_by_definition(L, L.down_neighbors)
    assert meet_irreducibles(L) == irreducibles_by_definition(L, L.up_neighbors)


class TestConstruction:
    def test_rejects_cycle(self):
        with pytest.raises(PosetError):
            VertexColoredPoset("ab", [("a", "b"), ("b", "a")], {"a": 1, "b": 1})

    def test_rejects_non_cover(self):
        with pytest.raises(PosetError, match="not a cover"):
            VertexColoredPoset("abc", [("a", "b"), ("b", "c"), ("a", "c")],
                               {"a": 1, "b": 1, "c": 1})

    def test_rejects_missing_color(self):
        with pytest.raises(PosetError, match="no color"):
            VertexColoredPoset("ab", [("a", "b")], {"a": 1})

    def test_rejects_bool_color(self):
        with pytest.raises(PosetError, match="positive integer"):
            VertexColoredPoset("a", [], {"a": True})

    def test_empty_poset(self):
        P = VertexColoredPoset([], [], {})
        assert enumerate_order_ideals(P) == [frozenset()]
        assert len(j_lattice(P)) == 1


class TestIdeals:
    def test_chain_ideals_are_prefixes(self):
        assert len(enumerate_order_ideals(chain([1, 2, 3]))) == 4

    def test_antichain_ideals_are_all_subsets(self):
        assert len(enumerate_order_ideals(antichain([1, 2]))) == 4

    def test_grid_2x4_has_15_ideals(self):
        assert len(enumerate_order_ideals(build_p_a(BoxSpec(2, 6)))) == 15

    def test_enumeration_is_deterministic_and_downward_closed(self):
        P = build_p_a(BoxSpec(2, 5))
        ideals = enumerate_order_ideals(P)
        assert ideals == enumerate_order_ideals(P)
        assert all(is_order_ideal(P, x) for x in ideals)

    def test_is_order_ideal_matches_the_definition(self):
        # every subset of 50 random posets, alone and with a foreign vertex
        def by_definition(P, members):
            return members <= set(P.vertices) and all(
                u in members for v in members for u in P.vertices if P.le(u, v))

        rng = random.Random(50)
        seen = {True: 0, False: 0, "foreign": 0}
        for _ in range(50):
            P = random_colored_poset(rng, 7)
            verts = P.vertices
            for mask in range(1 << len(verts)):
                sel = {verts[i] for i in range(len(verts)) if mask >> i & 1}
                for members in (sel, sel | {"foreign"}):
                    want = by_definition(P, members)
                    assert is_order_ideal(P, members) == want
                    seen[want] += 1
                    seen["foreign"] += "foreign" in members
        assert min(seen.values()) > 0

    def test_an_ideal_mask_numbers_the_vertices_as_the_core_does(self):
        # bit b of a mask is P.vertices[b], so a principal ideal's mask is
        # the core's down-set of its vertex
        rng = random.Random(52)
        for _ in range(50):
            P = random_colored_poset(rng, 7, 4)
            for x in enumerate_order_ideals(P):
                assert _ideal_mask(P, x) == sum(1 << P.index(v) for v in x)
            for i, v in enumerate(P.vertices):
                assert _ideal_mask(P, principal_ideal(P, v)) == P._downsets[i]

    def test_minimal_and_maximal_of_match_the_definition(self):
        # every subset of 50 random posets, alone and with a foreign vertex
        def extremes(P, members, below):
            inside = [v for v in P.vertices if v in members]
            return [v for v in inside
                    if not any(u != v and below(u, v) for u in inside)]

        rng = random.Random(51)
        for _ in range(50):
            P = random_colored_poset(rng, 7)
            verts = P.vertices
            for mask in range(1 << len(verts)):
                sel = {verts[i] for i in range(len(verts)) if mask >> i & 1}
                for members in (sel, sel | {"foreign"}):
                    assert P.minimal_of(members) == extremes(P, members, P.le)
                    assert P.maximal_of(members) == \
                        extremes(P, members, lambda u, v: P.le(v, u))

    def test_ideals_count_antichains(self):
        # ideals correspond one-to-one with antichains (their maximal elements)
        rng = random.Random(2)
        for _ in range(20):
            P = random_colored_poset(rng, 7)
            verts = P.vertices
            antichains = 0
            for mask in range(1 << len(verts)):
                sel = [verts[i] for i in range(len(verts)) if mask >> i & 1]
                if all(not P.le(a, b) for a in sel for b in sel if a != b):
                    antichains += 1
            assert len(enumerate_order_ideals(P)) == antichains


class TestJandM:
    def test_single_vertex_gives_two_chain(self):
        L = j_lattice(antichain([1]))
        assert len(L) == 2 and len(L.edges) == 1
        assert L.edges[0][2] == 1

    def test_j_of_grid_matches_figure(self):
        # the 2x3 box gives a 10-element lattice
        assert len(build_l_a(BoxSpec(2, 5))) == 10

    def test_j_of_disjoint_sum_is_product(self):
        rng = random.Random(5)
        for _ in range(10):
            P, Q = random_colored_poset(rng, 5), random_colored_poset(rng, 5)
            JS = j_lattice(disjoint_sum(P, Q))
            split = {x: (frozenset(v for t, v in x if t == 0),
                         frozenset(v for t, v in x if t == 1))
                     for x in JS.vertices}
            assert check_constructed_iso(JS, product(j_lattice(P), j_lattice(Q)),
                                         split)

    def test_m_single_vertex(self):
        M = m_lattice(antichain([1]))
        assert len(M) == 2 and M.edges[0][2] == 1

    def test_m_of_two_chain_by_hand(self):
        # filters of a<b with colors 1,2: {a,b} -> {b} -> {} reading up,
        # removing the minimal element each time
        M = m_lattice(chain([1, 2]))
        assert M.minimum == frozenset({"c0", "c1"})
        assert M.maximum == frozenset()
        assert M.edge_color(frozenset({"c0", "c1"}), frozenset({"c1"})) == 1
        assert M.edge_color(frozenset({"c1"}), frozenset()) == 2

    def test_m_equals_dual_j_of_dual(self):
        # filters of P are ideals of P*, with identical colors, so
        # M(P) = (J(P*))* vertex-for-vertex
        for n in range(1, 5):
            P = chain(list(range(1, n + 1)))
            M = m_lattice(P)
            J = j_lattice(dual(P)).dual()
            assert check_constructed_iso(M, J, {x: x for x in M.vertices})


class TestPosetIso:
    def test_same_colors_in_another_order_is_not_an_iso(self):
        # the identity on c0 < c1 < c2 and on c0 < c1, c0 < c2 is a
        # color-preserving bijection, but not an order isomorphism
        P = chain([1, 2, 1])
        Q = VertexColoredPoset(P.vertices, [("c0", "c1"), ("c0", "c2")], P.colors)
        same = {v: v for v in P.vertices}
        assert iso_failure(P, P, same) is None and iso_failure(Q, Q, same) is None
        assert iso_failure(P, Q, same) == (
            "cover ('c1', 'c2') maps to ('c1', 'c2'), which is not a cover")
        assert iso_failure(Q, P, same) == (
            "cover ('c0', 'c2') maps to ('c0', 'c2'), which is not a cover")
        # c1 < c2 is missing from the source's covers, not added to them
        R = VertexColoredPoset(P.vertices, [("c0", "c1")], P.colors)
        assert iso_failure(R, P, same) == (
            "('c1', 'c2') is not a cover, but its image ('c1', 'c2') is")

    @pytest.mark.parametrize("f, message", [
        ({"c0": "c0", "c1": "c1", "c2": "x"},
         "'c2' maps to 'x', which is not a vertex of the target"),
        ({"c0": "c0", "c1": "c0", "c2": "c2"}, "'c0' and 'c1' both map to 'c0'"),
        ({"c0": "c0", "c1": "c2", "c2": "c1"},
         "'c1' has color 2, but its image 'c2' has color 1"),
    ], ids=["outside", "two-to-one", "recolored"])
    def test_the_witness_names_the_first_vertex_where_the_map_fails(self, f, message):
        P = chain([1, 2, 1])
        assert iso_failure(P, P, f) == message

    def test_the_witness_names_a_vertex_that_no_vertex_maps_to(self):
        P, Q = antichain([1, 1]), antichain([1, 1, 1])
        assert iso_failure(P, Q, {"a0": "a0", "a1": "a1"}) == "no vertex maps to 'a2'"

    def test_a_color_failure_before_a_two_to_one_vertex_is_the_witness(self):
        # c1 is recolored, and c2 maps to c1's image too: c1 comes first
        P = chain([1, 2, 1])
        f = {"c0": "c0", "c1": "c2", "c2": "c2"}
        assert not iso_verdict(P, P, f)
        assert iso_failure(P, P, f) == "'c1' has color 2, but its image 'c2' has color 1"

    def test_agrees_with_the_oracle_on_random_posets_and_maps(self):
        # iso_verdict checks iso_failure against check_constructed_iso, which
        # reads only the public vertices, colors and covers
        rng = random.Random(44)
        verdicts = {"identity": set(), "within colors": set(), "dual": set(),
                    "recolored": set()}
        for _ in range(150):
            P = random_colored_poset(rng, 7, 3)
            same = {v: v for v in P.vertices}
            verdicts["identity"].add(iso_verdict(P, P, same))
            # a color-preserving bijection, which is an order isomorphism or not
            classes = {}
            for v in P.vertices:
                classes.setdefault(P.colors[v], []).append(v)
            shuffled = {}
            for members in classes.values():
                shuffled.update(zip(members, rng.sample(members, len(members))))
            verdicts["within colors"].add(iso_verdict(P, P, shuffled))
            # the same vertices and colors with every cover reversed
            verdicts["dual"].add(iso_verdict(P, dual(P), same))
            sigma = {c: rng.randint(1, 3) for c in range(1, 4)}
            verdicts["recolored"].add(iso_verdict(P, recolor(P, sigma), same))
            # any map into another random poset, two-to-one and outside it included
            Q = random_colored_poset(rng, 7, 3)
            targets = list(Q.vertices) + ["outside"]
            iso_verdict(P, Q, {v: rng.choice(targets) for v in P.vertices})
        assert verdicts == {"identity": {True}, "within colors": {True, False},
                            "dual": {True, False}, "recolored": {True, False}}


class TestIrreducibles:
    def test_two_chain_join_irreducible(self):
        L = j_lattice(antichain([3]))
        P = join_irreducibles(L)
        assert len(P) == 1
        assert P.color(P.vertices[0]) == 3

    def test_two_chain_meet_irreducible(self):
        L = j_lattice(antichain([3]))
        assert len(meet_irreducibles(L)) == 1

    def test_l24_join_irreducibles_recover_grid(self):
        spec = BoxSpec(2, 6)
        L = build_l_a(spec)
        P = join_irreducibles(L)
        assert len(P) == 8
        grid = build_p_a(spec)
        f = {v: principal_ideal(grid, v) for v in grid.vertices}
        assert iso_failure(grid, P, f) is None

    def test_l23_meet_irreducibles_count(self):
        assert len(meet_irreducibles(build_l_a(BoxSpec(2, 5)))) == 6

    def test_rejects_non_lattice(self):
        two_tops = ColoredLattice("abc", [("a", "b", 1), ("a", "c", 2)])
        two_bottoms = ColoredLattice("abc", [("a", "c", 1), ("b", "c", 2)])
        bowtie = ColoredLattice("abcd", [("a", "c", 1), ("a", "d", 2),
                                         ("b", "c", 2), ("b", "d", 1)])
        for L in (two_tops, two_bottoms, bowtie):
            for irreducibles in (join_irreducibles, meet_irreducibles):
                with pytest.raises(PosetError) as exc:
                    irreducibles(L)
                assert str(exc.value) == "input is not a lattice"

    def test_distributive_lattices_skip_the_pairwise_lattice_check(self):
        # Birkhoff's certificate settles D(6,14) in one pass over its covers;
        # is_lattice asks every one of its 4.5 million pairs for a join
        D = build_d_a(BoxSpec(6, 14))
        assert len(join_irreducibles(D)) == len(meet_irreducibles(D)) == 6 * 8
        assert "is_lattice" not in D.__dict__

    def test_other_lattices_still_take_the_pairwise_check(self):
        for L, n in ((n5(), 3), (m3(), 3)):
            assert len(join_irreducibles(L)) == len(meet_irreducibles(L)) == n
            assert L.__dict__["is_lattice"] is True

    def test_random_ideal_and_filter_lattices_match_the_definition(self):
        rng = random.Random(28)
        for _ in range(40):
            P = random_colored_poset(rng, 7, 3)
            for L in (j_lattice(P), m_lattice(P)):
                assert_irreducibles_by_definition(L)

    @pytest.mark.parametrize("build", [m3, n5], ids=["M3", "N5"])
    def test_lattices_that_fail_the_certificate_match_the_definition(self, build):
        assert_irreducibles_by_definition(build())

    @pytest.mark.parametrize("spec", DESK_SPECS, ids=lambda s: f"k{s.k}N{s.N}")
    def test_every_box_matches_the_definition(self, spec):
        for L in (build_l_graph(spec), build_d_a(spec)):
            assert_irreducibles_by_definition(L)

    def test_the_covers_come_from_the_masks_not_an_order_search(self):
        D = build_d_a(BoxSpec(4, 9))
        for irreducibles in (join_irreducibles, meet_irreducibles):
            P, calls = count_calls([induced_covers, CoverDigraph.le], lambda: irreducibles(D))
            assert calls == {}
            assert len(P) == 4 * 5

    def test_join_meet_irreducible_pairing(self):
        spec = BoxSpec(2, 6)
        L = build_l_a(spec)
        J = join_irreducibles(L)
        M = meet_irreducibles(L)
        f = {u: join_to_meet_irreducible(L, u) for u in J.vertices}
        assert iso_failure(J, M, f) is None


class TestRoundTrips:
    def test_fundamental_theorem_on_random_posets(self):
        rng = random.Random(42)
        for _ in range(50):
            P = random_colored_poset(rng, 8, 4)
            L = j_lattice(P)
            assert iso_failure(P, join_irreducibles(L),
                               {v: principal_ideal(P, v) for v in P.vertices}) is None
            assert check_constructed_iso(
                L, j_lattice(join_irreducibles(L)),
                {x: canonical_iso_to_ideals(L, x) for x in L.vertices})
            M = m_lattice(P)
            assert iso_failure(P, meet_irreducibles(M),
                               {v: principal_filter(P, v) for v in P.vertices}) is None
            assert check_constructed_iso(
                M, m_lattice(meet_irreducibles(M)),
                {x: canonical_iso_to_filters(M, x) for x in M.vertices})

    def test_canonical_maps_list_the_irreducibles_below_and_above(self):
        # the definitional listing, on lattices and on non-lattices alike
        rng = random.Random(43)
        cases = [ColoredLattice("0abct", [("0", "a", 1), ("a", "t", 2), ("0", "b", 1),
                                          ("b", "c", 2), ("c", "t", 3)]),
                 ColoredLattice("0abcd", [("0", "a", 1), ("0", "b", 2), ("a", "c", 3),
                                          ("b", "c", 3), ("a", "d", 3), ("b", "d", 3)])]
        cases += [build(random_colored_poset(rng, 7, 3))
                  for _ in range(10) for build in (j_lattice, m_lattice)]
        for L in cases:
            jirr = [v for v in L.vertices if len(L.down_neighbors(v)) == 1]
            mirr = [v for v in L.vertices if len(L.up_neighbors(v)) == 1]
            for x in L.vertices:
                assert canonical_iso_to_ideals(L, x) == frozenset(
                    j for j in jirr if L.le(j, x))
                assert canonical_iso_to_filters(L, x) == frozenset(
                    m for m in mirr if L.le(x, m))

    def test_canonical_iso_extremes(self):
        L = build_l_a(BoxSpec(2, 6))
        assert canonical_iso_to_ideals(L, L.minimum) == frozenset()
        assert len(canonical_iso_to_ideals(L, L.maximum)) == 8


class TestOperations:
    def test_double_dual_is_identity(self):
        rng = random.Random(9)
        for _ in range(10):
            P = random_colored_poset(rng, 6)
            assert dual(dual(P)) == P

    def test_j_of_dual_is_dual_of_j(self):
        rng = random.Random(10)
        for _ in range(10):
            P = random_colored_poset(rng, 6)
            JD = j_lattice(dual(P))
            comp = {x: frozenset(set(P.vertices) - x) for x in JD.vertices}
            assert check_constructed_iso(JD, j_lattice(P).dual(), comp)

    def test_m_of_sum_is_product(self):
        rng = random.Random(11)
        for _ in range(10):
            P, Q = random_colored_poset(rng, 5), random_colored_poset(rng, 5)
            MS = m_lattice(disjoint_sum(P, Q))
            split = {x: (frozenset(v for t, v in x if t == 0),
                         frozenset(v for t, v in x if t == 1))
                     for x in MS.vertices}
            assert check_constructed_iso(MS, product(m_lattice(P), m_lattice(Q)),
                                         split)

    def test_recolor_requires_total_map(self):
        P = chain([1, 2])
        with pytest.raises(PosetError, match="missing"):
            recolor(P, {1: 5})
        Q = recolor(P, {1: 5, 2: 6})
        assert sorted(Q.colors.values()) == [5, 6]
