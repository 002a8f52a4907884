import re
from itertools import product
from math import comb

import pytest

from dominolattice.domino import BoxPermutation
from dominolattice.lattice import iso_failure
from dominolattice.oracle import cell_census, check_constructed_iso, is_diamond_colored
from dominolattice.poset import join_irreducibles, principal_ideal
from dominolattice.typea import (BoxSpec, CircleState, all_partitions,
                                 build_l_a, build_l_graph,
                                 build_l_tab, build_l_tilde, build_p_a,
                                 circle_to_tableau, diagonal_to_partition,
                                 ideal_to_partition, is_valid_diagonal,
                                 l_up_edges, partition_join, partition_meet,
                                 partition_rank, partition_to_circle_L,
                                 partition_to_diagonal, partition_to_ideal,
                                 partition_to_tableau_L, tableau_to_circle,
                                 tableau_to_partition_L, validate_diagonal,
                                 validate_partition)

from conftest import DESK_SPECS

BOX24 = BoxSpec(2, 6)

# Frozen reference data: the complete colored edge list of L(2,4)
# in partition coordinates.
L24_EDGES = {
    ((3, 0), (4, 0), 1), ((3, 1), (4, 1), 1), ((3, 2), (4, 2), 1), ((3, 3), (4, 3), 1),
    ((2, 0), (3, 0), 2), ((2, 1), (3, 1), 2), ((2, 2), (3, 2), 2), ((4, 3), (4, 4), 2),
    ((1, 0), (2, 0), 3), ((1, 1), (2, 1), 3), ((3, 2), (3, 3), 3), ((4, 2), (4, 3), 3),
    ((2, 1), (2, 2), 4), ((3, 1), (3, 2), 4), ((4, 1), (4, 2), 4), ((0, 0), (1, 0), 4),
    ((1, 0), (1, 1), 5), ((2, 0), (2, 1), 5), ((3, 0), (3, 1), 5), ((4, 0), (4, 1), 5),
}

# Frozen reference rows: partition, tableau, diagonal coordinates.
L24_TABLE = [
    ((0, 0), (5, 6), (0, 0, 0, 0, 0)),
    ((1, 0), (4, 6), (0, 0, 0, 1, 0)),
    ((1, 1), (4, 5), (0, 0, 0, 1, 1)),
    ((2, 0), (3, 6), (0, 0, 1, 1, 0)),
    ((2, 1), (3, 5), (0, 0, 1, 1, 1)),
    ((2, 2), (3, 4), (0, 0, 1, 2, 1)),
    ((3, 0), (2, 6), (0, 1, 1, 1, 0)),
    ((3, 1), (2, 5), (0, 1, 1, 1, 1)),
    ((3, 2), (2, 4), (0, 1, 1, 2, 1)),
    ((3, 3), (2, 3), (0, 1, 2, 2, 1)),
    ((4, 0), (1, 6), (1, 1, 1, 1, 0)),
    ((4, 1), (1, 5), (1, 1, 1, 1, 1)),
    ((4, 2), (1, 4), (1, 1, 1, 2, 1)),
    ((4, 3), (1, 3), (1, 1, 2, 2, 1)),
    ((4, 4), (1, 2), (1, 2, 2, 2, 1)),
]


class TestSpec:
    def test_bounds(self):
        with pytest.raises(ValueError):
            BoxSpec(0, 3)
        with pytest.raises(ValueError):
            BoxSpec(3, 3)
        assert BoxSpec(2, 6).cols == 4


class TestRejectsBool:
    # bool subclasses int, so True and False would pass as 1 and 0
    def test_box_spec(self):
        with pytest.raises(ValueError, match="integers"):
            BoxSpec(True, 3)

    def test_partition(self):
        with pytest.raises(ValueError, match="not an integer"):
            validate_partition(BOX24, (True, False))

    def test_diagonal(self):
        with pytest.raises(ValueError, match="nonnegative integer"):
            validate_diagonal(BOX24, (0, 0, 0, True, 0))

    def test_tableau(self):
        with pytest.raises(ValueError, match="out of range"):
            tableau_to_partition_L(BOX24, (True, 2))

    def test_circle_bits(self):
        # these bits would read as the dots of (3, 2) at (2, 5)
        with pytest.raises(ValueError, match="0/1"):
            CircleState((True, False, True, False, False), "L")

    def test_circle_bits_of_an_int_subclass_are_ints(self):
        # the exact-int fast path must keep is_int's meaning for subclasses
        class Small(int):
            pass

        state = CircleState((0, Small(1), Small(0), 1, 0), "L")
        assert state.ones == (2, 4)

    @pytest.mark.parametrize("bit", [1.0, 2])
    def test_circle_bits_that_are_not_0_or_1_ints(self, bit):
        with pytest.raises(ValueError, match="circle bits must be 0/1"):
            CircleState((0, bit, 0, 1, 0), "L")

    def test_circle_bits_are_stored_as_a_tuple(self):
        state = CircleState([0, 1, 1, 0, 0], "L")
        assert state.bits == (0, 1, 1, 0, 0)
        assert hash(state) == hash(CircleState((0, 1, 1, 0, 0), "L"))

    def test_box_permutation(self):
        with pytest.raises(ValueError, match="not a permutation"):
            BoxPermutation((True, 2))


class TestGridPoset:
    def test_smallest_grid(self):
        P = build_p_a(BoxSpec(1, 2))
        assert len(P) == 1
        assert P.color("1,1") == 1

    def test_corner_color(self):
        assert build_p_a(BOX24).color("1,4") == 1

    def test_rotation_example_ideal(self):
        # the shaded ideal pictured for the 3x4 grid reads off as (4,3,0)
        spec = BoxSpec(3, 7)
        ideal = partition_to_ideal(spec, (4, 3, 0))
        assert ideal_to_partition(spec, ideal) == (4, 3, 0)
        assert len(ideal) == 7

    def test_color_range(self):
        for spec in (BOX24, BoxSpec(3, 7), BoxSpec(1, 5)):
            P = build_p_a(spec)
            assert all(1 <= P.color(v) <= spec.N - 1 for v in P.vertices)


class TestFundamentalLattice:
    def test_l23_size(self):
        assert len(build_l_a(BoxSpec(2, 5))) == 10

    def test_l24_matches_reference_edges_exactly(self):
        L = build_l_graph(BOX24)
        assert len(L) == 15
        assert set(L.edges) == L24_EDGES

    def test_partition_edge_rule_is_the_relabeled_ideal_lattice(self):
        for spec in DESK_SPECS:
            assert build_l_graph(spec) == build_l_a(spec).relabel(
                lambda i: ideal_to_partition(spec, i))

    def test_cardinality_is_binomial(self):
        for spec in DESK_SPECS:
            assert len(all_partitions(spec)) == comb(spec.N, spec.k)

    def test_partitions_come_in_strictly_increasing_order(self):
        for spec in DESK_SPECS:
            parts = all_partitions(spec)
            assert all(a < b for a, b in zip(parts, parts[1:]))

    def test_l24_reference_table(self):
        for part, tab, diag in L24_TABLE:
            assert partition_to_tableau_L(BOX24, part) == tab
            assert partition_to_diagonal(BOX24, part) == diag

    def test_diamond_colored(self):
        assert is_diamond_colored(build_l_a(BOX24))


class TestPartitionConversions:
    def test_empty_and_full(self):
        spec = BOX24
        assert ideal_to_partition(spec, frozenset()) == (0, 0)
        full = partition_to_ideal(spec, (4, 4))
        assert len(full) == 8
        assert ideal_to_partition(spec, full) == (4, 4)

    @pytest.mark.parametrize("cells,named", [
        ({"1,2"}, "1,2"), ({"9,9"}, "9,9"), ({"1,1", "0,1"}, "0,1"), ({"2,1"}, "2,1"),
        ({"1,1", "1,2", "1,3", "1,4", "1,5"}, "1,5"), ({"1,1", "1,01"}, "1,01"),
        ({"1,1", "1,3", "2,1", "2,2"}, "1,3"), ({(1, 1)}, "(1, 1)")])
    def test_a_set_that_is_not_an_ideal_names_its_cell(self, cells, named):
        with pytest.raises(ValueError, match=re.escape(f"cell {named} lies outside")):
            ideal_to_partition(BOX24, cells)

    @pytest.mark.parametrize("cells,named", [
        ([["1,1"]], "['1,1']"), (["1,1", ("1,2", [])], "('1,2', [])")])
    def test_an_unhashable_member_is_named_as_no_cell(self, cells, named):
        # frozenset() of the members raised a bare TypeError
        for members in (cells, iter(cells)):
            with pytest.raises(ValueError, match=re.escape(f"cell {named} lies outside")):
                ideal_to_partition(BoxSpec(2, 5), members)

    @pytest.mark.parametrize("text", ["1,1", "", "1,1 2,1"])
    def test_a_string_is_not_a_set_of_cell_ids(self, text):
        with pytest.raises(ValueError, match="an ideal is a set of cell ids"):
            ideal_to_partition(BoxSpec(2, 5), text)

    def test_tableau_examples(self):
        assert partition_to_tableau_L(BOX24, (4, 3)) == (1, 3)
        assert partition_to_tableau_L(BoxSpec(3, 9), (5, 2, 2)) == (2, 6, 7)
        assert partition_to_tableau_L(BOX24, (0, 0)) == (5, 6)

    def test_tableau_round_trip(self):
        for p in all_partitions(BOX24):
            assert tableau_to_partition_L(BOX24, partition_to_tableau_L(BOX24, p)) == p

    def test_tableau_rejects_non_monotone(self):
        with pytest.raises(ValueError, match="increase"):
            tableau_to_partition_L(BOX24, (3, 1))

    def test_circle_examples(self):
        assert tableau_to_circle(BOX24, (1, 3)).bits == (1, 0, 1, 0, 0, 0)
        assert tableau_to_circle(BOX24, (1, 2)).bits == (1, 1, 0, 0, 0, 0)

    def test_circle_round_trip_all_subsets(self):
        from itertools import combinations
        for S in combinations(range(1, 7), 2):
            assert circle_to_tableau(BOX24, tableau_to_circle(BOX24, S)) == S

    def test_circle_popcount_rejected(self):
        with pytest.raises(ValueError, match="dots"):
            circle_to_tableau(BOX24, CircleState((1, 1, 1, 0, 0, 0), "L"))


class TestDiagonals:
    def test_figure_values(self):
        assert partition_to_diagonal(BOX24, (4, 3)) == (1, 1, 2, 2, 1)
        assert partition_to_diagonal(BoxSpec(3, 9), (5, 2, 2)) == (0, 1, 1, 1, 1, 2, 2, 1)
        assert partition_to_diagonal(BOX24, (0, 0)) == (0, 0, 0, 0, 0)

    def test_inverse_examples(self):
        assert diagonal_to_partition(BOX24, (1, 1, 2, 2, 1)) == (4, 3)
        assert diagonal_to_partition(BOX24, (0, 0, 0, 0, 0)) == (0, 0)

    def test_round_trip_is_exhaustive(self):
        for p in all_partitions(BOX24):
            assert diagonal_to_partition(BOX24, partition_to_diagonal(BOX24, p)) == p

    @pytest.mark.parametrize("N", range(2, 13))
    def test_codec_is_the_cell_census_and_its_inverse(self, N):
        # the prefix count against the cell-by-cell definition, every shape
        for k in range(1, N):
            spec = BoxSpec(k, N)
            for p in all_partitions(spec):
                diag = partition_to_diagonal(spec, p)
                assert diag == cell_census(spec, p)
                assert diagonal_to_partition(spec, diag) == p

    def test_validity_characterizes_the_image(self):
        # every sequence passing the step/bound conditions comes from a shape
        spec = BOX24
        images = {partition_to_diagonal(spec, p) for p in all_partitions(spec)}
        count = 0
        def walk(prefix):
            nonlocal count
            if len(prefix) == spec.N - 1:
                count += 1
                assert tuple(prefix) in images
                return
            for d in range(spec.k + 1):
                if is_valid_diagonal_prefix(spec, prefix + [d]):
                    walk(prefix + [d])
        def is_valid_diagonal_prefix(spec, pre):
            n, k = spec.N, spec.k
            for i, d in enumerate(pre, start=1):
                if d < 0 or (i <= n - k and d > min(i, k)) \
                        or (i >= n - k and d > min(n - i, n - k)):
                    return False
            for i in range(1, min(len(pre), n - k)):
                if pre[i] not in (pre[i - 1], pre[i - 1] + 1):
                    return False
            for i in range(n - k, len(pre)):
                if pre[i] not in (pre[i - 1], pre[i - 1] - 1):
                    return False
            return True
        walk([])
        assert count == len(images) == comb(spec.N, spec.k)

    @pytest.mark.parametrize("N", range(2, 8))
    def test_validity_is_exactly_the_census_image(self, N):
        # every sequence with entries in [-1, min(k, N-k) + 1], and one of
        # the wrong length, against the cell-by-cell census of every shape
        for k in range(1, N):
            spec = BoxSpec(k, N)
            images = {cell_census(spec, p) for p in all_partitions(spec)}
            top = min(k, N - k) + 1
            accepted = {d for d in product(range(-1, top + 1), repeat=N - 1)
                        if is_valid_diagonal(spec, d)}
            assert accepted == images
            assert not is_valid_diagonal(spec, (0,) * N)

    @pytest.mark.parametrize("diag,first,second", [
        ((-1, 0, 0, 0, 0), 0, 1), ((1, 0, 0, 0, 0), 1, 2), ((0, 0, 1, 3, 1), 3, 4),
        ((0, 0, 0, 0, 2), 4, 5), ((0, 0, 1, 2, 2), 5, 6)])
    def test_a_rejected_diagonal_names_its_two_entries(self, diag, first, second):
        named = f"between entries {first} and {second}"
        with pytest.raises(ValueError, match=named):
            validate_diagonal(BOX24, diag)
        with pytest.raises(ValueError, match=named):
            diagonal_to_partition(BOX24, diag)

    def test_invalid_sequences_rejected(self):
        assert not is_valid_diagonal(BOX24, (1, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            diagonal_to_partition(BOX24, (0, 0, 0, 0, 2))


class TestUpEdges:
    def test_bottom_has_single_up_edge(self):
        assert l_up_edges(BOX24, (0, 0), "part") == [((1, 0), 4)]

    def test_diagonal_edge_example(self):
        edges = l_up_edges(BOX24, (0, 1, 2, 2, 1), "diag")
        assert ((1, 1, 2, 2, 1), 1) in edges

    def test_top_has_no_up_edges(self):
        assert l_up_edges(BOX24, (4, 4), "part") == []
        assert l_up_edges(BOX24, partition_to_tableau_L(BOX24, (4, 4)), "tab") == []

    @pytest.mark.parametrize("entries", [(9, 9), (7, 1, 0), (2, 2), (1,),
                                         (0, 3), (7, 1), (True, 3), (2.0, 3)])
    def test_tableau_must_be_k_distinct_ints_in_range(self, entries):
        with pytest.raises(ValueError, match="entries"):
            l_up_edges(BOX24, entries, "tab")

    @pytest.mark.parametrize("bits,scheme,match", [
        ((1, 0, 1, 0), "L", "bits"),
        ((1, 0, 1, 0, 0, 0, 0), "L", "bits"),
        ((1, 1, 1, 0, 0, 0), "L", "dots"),
        ((0, 0, 0, 0, 0, 0), "L", "dots"),
        ((1, 0, 1, 0, 0, 0), "D", "L-scheme"),
    ])
    def test_circle_must_have_n_bits_and_k_dots(self, bits, scheme, match):
        with pytest.raises(ValueError, match=match):
            l_up_edges(BOX24, CircleState(bits, scheme), "circ")

    def test_all_systems_agree(self):
        # each system's native up-edges at encode(p) are the encoded
        # partition-rule edges at p, and encode is one to one, on every
        # box with k(N-k) <= 12, as the Domino rules are compared
        for spec in DESK_SPECS:
            parts = all_partitions(spec)
            for system, encode in (("tab", partition_to_tableau_L),
                                   ("circ", partition_to_circle_L),
                                   ("diag", partition_to_diagonal)):
                assert len({encode(spec, p) for p in parts}) == len(parts)
                for p in parts:
                    assert set(l_up_edges(spec, encode(spec, p), system)) == {
                        (encode(spec, q), l) for q, l in l_up_edges(spec, p)}

    def test_ideal_lattice_matches_edge_rules(self):
        for spec in (BOX24, BoxSpec(3, 6)):
            assert check_constructed_iso(
                build_l_a(spec), build_l_graph(spec),
                lambda i: ideal_to_partition(spec, i))


class TestChainProduct:
    def test_single_chain(self):
        L = build_l_tilde(BoxSpec(1, 5))
        assert len(L) == 5 and L.length == 4

    def test_lengths_agree(self):
        spec = BOX24
        assert build_l_tilde(spec).length == 8
        assert build_l_tab(spec).length == 8

    def test_tab_join_irreducibles_match_grid(self):
        spec = BOX24
        tab = build_l_tab(spec)
        grid = build_p_a(spec)
        jt = join_irreducibles(tab)
        # explicit correspondence: (r, c) has tableau column with
        # entries c+1..c+r-1 replaced... read off via the ideal lattice
        L = build_l_a(spec)
        f = {}
        for v in grid.vertices:
            ideal = principal_ideal(grid, v)
            f[v] = partition_to_tableau_L(spec, ideal_to_partition(spec, ideal))
        assert iso_failure(grid, jt, f) is None

    def test_l_tab_isomorphic_to_l_a(self):
        spec = BOX24
        tab = build_l_tab(spec)
        L = build_l_a(spec)
        f = {i: partition_to_tableau_L(spec, ideal_to_partition(spec, i))
             for i in L.vertices}
        assert check_constructed_iso(L, tab, f)


class TestConversionSquare:
    def test_exhaustive_over_desk_scale_boxes(self):
        # every coordinatization pair commutes and inverts, on both sides
        from dominolattice.domino import (circle_to_partition_D, gamma_pt,
                                          gamma_tp, partition_to_circle_D)
        from dominolattice.typea import circle_to_partition_L, partition_to_circle_L
        for spec in DESK_SPECS:
            for p in all_partitions(spec):
                tab = partition_to_tableau_L(spec, p)
                assert tableau_to_partition_L(spec, tab) == p
                assert circle_to_tableau(spec, tableau_to_circle(spec, tab)) == tab
                assert circle_to_partition_L(spec, partition_to_circle_L(spec, p)) == p
                assert diagonal_to_partition(spec, partition_to_diagonal(spec, p)) == p
                assert gamma_tp(spec, gamma_pt(spec, p)) == p
                assert circle_to_partition_D(spec, partition_to_circle_D(spec, p)) == p


class TestMeetJoinRank:
    def test_idempotent(self):
        assert partition_meet(BOX24, (3, 1), (3, 1)) == (3, 1)

    def test_componentwise(self):
        assert partition_meet(BOX24, (3, 1), (2, 2)) == (2, 1)
        assert partition_join(BOX24, (3, 1), (2, 2)) == (3, 2)

    def test_rank_example(self):
        assert partition_rank(BOX24, (3, 3)) == 6

    def test_agrees_with_lattice_ops(self):
        L = build_l_a(BOX24)
        for x in L.vertices:
            for y in L.vertices:
                px, py = ideal_to_partition(BOX24, x), ideal_to_partition(BOX24, y)
                assert partition_meet(BOX24, px, py) == ideal_to_partition(
                    BOX24, L.meet(x, y))
                assert partition_join(BOX24, px, py) == ideal_to_partition(
                    BOX24, L.join(x, y))
