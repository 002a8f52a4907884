from itertools import product
from math import comb

import pytest

from dominolattice import lattice, typea
from dominolattice.domino import (D_COORDINATES, _move_table, _shape_masks, beta_circ,
                                  beta_diag, beta_part, build_d_a, circle_to_partition_D,
                                  d_max, d_min, d_up_edges, dtab_move_pair, gamma_ct,
                                  gamma_pt, gamma_tc, gamma_tp,
                                  is_legal_domino_move, is_red, m_diag,
                                  partition_to_circle_D, pi)
from dominolattice.oracle import (check_constructed_iso, is_diamond_colored,
                                  is_topographically_balanced)
from dominolattice.typea import (L_COORDINATES, BoxSpec, CircleState, all_partitions,
                                 diagonal_to_partition, is_valid_partition,
                                 l_up_edges, partition_to_diagonal)

from conftest import DESK_SPECS, count_calls

BOX24 = BoxSpec(2, 6)


def raises(f, *args):
    """Whether f(*args) raises ValueError."""
    try:
        f(*args)
    except ValueError:
        return True
    return False


def cell_set_legal_move(spec, sigma, tau):
    """Reference legality test: the symmetric difference of two cell sets."""
    if not (is_valid_partition(spec, sigma) and is_valid_partition(spec, tau)):
        return False

    def cells(parts):
        return {(r + 1, c + 1) for r, p in enumerate(parts) for c in range(p)}

    diff = cells(sigma) ^ cells(tau)
    if len(diff) == 1:
        return diff == {(1, spec.cols)}
    if len(diff) == 2:
        (r1, c1), (r2, c2) = sorted(diff)
        return abs(r1 - r2) + abs(c1 - c2) == 1
    return False


def printed_move_pair(N, l):
    """The printed three-branch table of the D-tableau move pair (x, y)."""
    p = N % 2
    if l < N // 2:
        return (2 * l - 1 + p, 2 * l + 1 + p)
    if l == N // 2:
        return (2 * l - 1 + p, 2 * l + p)
    return (2 * N - 2 * l + 2 - p, 2 * N - 2 * l - p)

# Frozen reference data: the complete colored edge list of D(2,4).
D24_EDGES = {
    ((1, 1), (0, 0), 1), ((2, 2), (2, 0), 1), ((4, 2), (4, 0), 1), ((3, 2), (3, 0), 1),
    ((3, 1), (1, 1), 2), ((3, 3), (2, 2), 2), ((4, 4), (4, 2), 2), ((3, 0), (1, 0), 2),
    ((4, 1), (3, 1), 3), ((4, 3), (3, 3), 3), ((4, 2), (3, 2), 3), ((4, 0), (3, 0), 3),
    ((2, 1), (4, 1), 4), ((3, 3), (4, 4), 4), ((2, 2), (4, 2), 4), ((2, 0), (4, 0), 4),
    ((4, 1), (4, 3), 5), ((3, 1), (3, 3), 5), ((1, 1), (2, 2), 5), ((0, 0), (2, 0), 5),
}

# Frozen reference rows: partition, decreasing tableau, diagonal coordinates.
D24_TABLE = [
    ((2, 1), (4, 2), (0, 0, 1, 1, 1)),
    ((4, 1), (6, 2), (1, 1, 1, 1, 1)),
    ((4, 3), (6, 4), (1, 1, 2, 2, 1)),
    ((3, 1), (5, 2), (0, 1, 1, 1, 1)),
    ((3, 3), (5, 4), (0, 1, 2, 2, 1)),
    ((1, 1), (3, 2), (0, 0, 0, 1, 1)),
    ((4, 4), (6, 5), (1, 2, 2, 2, 1)),
    ((2, 2), (4, 3), (0, 0, 1, 2, 1)),
    ((0, 0), (2, 1), (0, 0, 0, 0, 0)),
    ((4, 2), (6, 3), (1, 1, 1, 2, 1)),
    ((2, 0), (4, 1), (0, 0, 1, 1, 0)),
    ((3, 2), (5, 3), (0, 1, 1, 2, 1)),
    ((4, 0), (6, 1), (1, 1, 1, 1, 0)),
    ((3, 0), (5, 1), (0, 1, 1, 1, 0)),
    ((1, 0), (3, 1), (0, 0, 0, 1, 0)),
]


class TestBoard:
    def test_upper_right_is_red(self):
        assert is_red(BOX24, 1, BOX24.cols)
        # the whole checkerboard, row 1 on top, alternates from that corner
        board = "\n".join("".join("R" if is_red(BOX24, r, c) else "W"
                                   for c in range(1, BOX24.cols + 1))
                           for r in range(1, BOX24.k + 1))
        assert board == "WRWR\nRWRW"

    def test_neighbors_of_corner_are_white(self):
        assert not is_red(BOX24, 1, BOX24.cols - 1)
        assert not is_red(BOX24, 2, BOX24.cols)

    def test_out_of_board_rejected(self):
        with pytest.raises(ValueError):
            is_red(BOX24, 0, 1)

    def test_bool_cell_rejected(self):
        # True would pass as row 1 and put (1, 4) on the red corner
        with pytest.raises(ValueError, match="outside"):
            is_red(BOX24, True, 4)

    def test_a_string_cell_is_named_by_its_repr(self):
        # str would print '1' as 1 and name a cell that is on the board
        with pytest.raises(ValueError) as raised:
            is_red(BoxSpec(2, 5), "1", 1)
        assert str(raised.value) == "cell ('1', 1) is outside the 2x3 board"


class TestBetaPart:
    def test_add_horizontal_pair(self):
        tau, delta = beta_part(BOX24, (2, 1), 4)
        assert tau == (4, 1) and delta == (2, 0)

    def test_remove_vertical_pair(self):
        tau, delta = beta_part(BOX24, (1, 1), 1)
        assert tau == (0, 0) and delta == (-1, -1)

    def test_remove_red_corner(self):
        tau, delta = beta_part(BOX24, (4, 1), 3)
        assert tau == (3, 1) and delta == (-1, 0)

    def test_absent_move_is_none(self):
        assert beta_part(BOX24, (0, 0), 1) is None

    def test_at_most_one_move_per_color(self):
        for spec in (BOX24, BoxSpec(2, 5), BoxSpec(3, 7), BoxSpec(5, 8)):
            for sigma in all_partitions(spec):
                for l in spec.colors:
                    beta_part(spec, sigma, l)  # raises if ambiguous


class TestBuild:
    def test_d24_matches_reference_edges_exactly(self):
        D = build_d_a(BOX24)
        assert len(D) == 15
        assert set(D.edges) == D24_EDGES

    def test_d24_reference_table(self):
        for part, tab, diag in D24_TABLE:
            assert gamma_pt(BOX24, part) == tab
            assert partition_to_diagonal(BOX24, part) == diag

    def test_d23_is_isomorphic_to_l23(self):
        from dominolattice.isomorphism import phi
        from dominolattice.typea import build_l_graph
        spec = BoxSpec(2, 5)
        L = build_l_graph(spec)
        D = build_d_a(spec)
        assert len(D) == 10
        assert check_constructed_iso(L, D, {p: phi(spec, p) for p in L.vertices})

    @pytest.mark.parametrize("spec", DESK_SPECS + (BoxSpec(5, 12), BoxSpec(6, 14)),
                             ids=lambda spec: f"{spec.k}-{spec.N}")
    def test_edges_are_the_partition_table(self, spec):
        # build_d_a hops tableau entries through pi; beta_part, the paper's
        # branch table, defines the same edges without pi
        table = {(sigma, hit[0], l) for sigma in all_partitions(spec)
                 for l in spec.colors
                 for hit in [beta_part(spec, sigma, l)] if hit is not None}
        assert set(build_d_a(spec).edges) == table

    def test_the_build_reads_each_shape_once(self):
        _, calls = count_calls([_shape_masks], lambda: build_d_a(BoxSpec(3, 8)))
        assert calls["_shape_masks"] == comb(8, 3), calls

    @pytest.mark.parametrize("spec", DESK_SPECS, ids=lambda spec: f"{spec.k}-{spec.N}")
    def test_shape_masks_are_the_d_tableau_and_the_preimages_l_tableau(self, spec):
        from dominolattice.isomorphism import phi_inverse
        for sigma in all_partitions(spec):
            lam = phi_inverse(spec, sigma)
            assert _shape_masks(spec, sigma) == (
                sum(1 << t for t in gamma_pt(spec, sigma)),
                sum(1 << t for t in typea.partition_to_tableau_L(spec, lam)))

    @pytest.mark.parametrize("N", range(2, 40))
    def test_move_tables_flip_the_move_pairs(self, N):
        lows, ends, renumber, _ = _move_table(N)
        assert [renumber[pi(N)(t)] for t in range(1, N + 1)] == list(range(1, N + 1))
        assert [ends[l] << lows[l] for l in range(1, N)] == [
            1 << x | 1 << y for x, y in (dtab_move_pair(N, l) for l in range(1, N))]
        assert set(ends[1:]) <= {3, 5}
        l_lows, l_ends, l_renumber, _ = typea._l_move_table(N)
        assert [l_ends[l] << l_lows[l] for l in range(1, N)] == [
            1 << l | 1 << l + 1 for l in range(1, N)]
        assert list(l_renumber) == list(range(N + 1))

    def test_vertices_in_numeric_order(self):
        assert build_d_a(BoxSpec(1, 12)).vertices == tuple((i,) for i in range(12))

    def test_cardinalities(self):
        for spec in DESK_SPECS:
            assert len(build_d_a(spec)) == comb(spec.N, spec.k)

    def test_structure(self):
        D = build_d_a(BOX24)
        assert is_diamond_colored(D)
        assert is_topographically_balanced(D)
        assert D.is_lattice

    def test_a_recolored_move_fails_the_build_at_a_named_shape(self, monkeypatch):
        # recolor one of the two up-moves of (1, 1, 0) where the hop covers
        # enter the lattice: the certificate names the cover or join
        # irreducible where the coloring breaks
        spec = BoxSpec(3, 7)
        source = all_partitions(spec).index((1, 1, 0))
        indexed = lattice._indexed_lattice

        def recolored(vertices, covers):
            moves = sorted(pair for pair in covers if pair[0] == source)
            assert len(moves) == 2
            covers[moves[0]] = 99
            return indexed(vertices, covers)

        monkeypatch.setattr(lattice, "_indexed_lattice", recolored)
        with pytest.raises(AssertionError, match=r"\(\d, \d, \d\)"):
            build_d_a(spec)

    def test_extremes(self):
        assert d_min(BOX24) == (2, 1)
        assert d_max(BOX24) == (1, 0)
        assert m_diag(BOX24) == (0, 0, 1, 1, 1)

    def test_tiny_board_extremes(self):
        # a 1x1 board has two shapes and they are the two extremes
        spec = BoxSpec(1, 2)
        assert {d_min(spec), d_max(spec)} == {(0,), (1,)}


class TestLegalMoves:
    def test_horizontal_pair(self):
        assert is_legal_domino_move(BOX24, (2, 1), (4, 1))

    def test_red_corner_single(self):
        assert is_legal_domino_move(BOX24, (4, 1), (3, 1))

    def test_three_cell_change_is_illegal(self):
        assert not is_legal_domino_move(BOX24, (2, 1), (3, 3))

    def test_non_corner_single_is_illegal(self):
        assert not is_legal_domino_move(BOX24, (2, 1), (1, 1))

    def test_every_edge_is_geometric(self):
        for spec in (BOX24, BoxSpec(3, 7), BoxSpec(5, 8)):
            D = build_d_a(spec)
            for a, b, _ in D.edges:
                assert is_legal_domino_move(spec, a, b)

    def test_every_legal_move_is_exactly_one_edge(self):
        for spec in DESK_SPECS:     # includes (2,6), (2,5) and (3,6)
            D = build_d_a(spec)
            parts = all_partitions(spec)
            for a in parts:
                for b in parts:
                    if a >= b:
                        continue
                    arrows = int(D.has_edge(a, b)) + int(D.has_edge(b, a))
                    assert arrows == (1 if is_legal_domino_move(spec, a, b) else 0)

    @pytest.mark.parametrize("k, N", [(1, 5), (2, 6), (3, 7), (3, 8), (4, 8), (2, 9)])
    def test_rowwise_test_matches_the_cell_sets(self, k, N):
        spec = BoxSpec(k, N)
        shapes = list(all_partitions(spec))
        shapes += [(spec.cols + 1,) + (0,) * (k - 1), (0,) * (k - 1) + (-1,),
                   (1,) * (k + 1), (True,) + (0,) * (k - 1)]
        for a in shapes:
            for b in shapes:
                assert is_legal_domino_move(spec, a, b) == cell_set_legal_move(spec, a, b)


class TestGammaMaps:
    def test_gamma_pt_examples(self):
        assert gamma_pt(BOX24, (4, 3)) == (6, 4)
        assert gamma_pt(BoxSpec(3, 9), (5, 2, 2)) == (8, 4, 3)
        assert gamma_pt(BOX24, (0, 0)) == (2, 1)

    def test_gamma_round_trip(self):
        for p in all_partitions(BOX24):
            assert gamma_tp(BOX24, gamma_pt(BOX24, p)) == p

    def test_gamma_tp_rejects_repeats(self):
        with pytest.raises(ValueError, match="distinct"):
            gamma_tp(BOX24, (4, 4))

    def test_gamma_tc_example(self):
        assert gamma_tc(BOX24, (6, 4)).bits == (0, 0, 0, 1, 0, 1)
        assert gamma_tc(BOX24, (6, 4)).scheme == "D"

    def test_gamma_tc_prefix(self):
        assert gamma_tc(BOX24, (1, 2)).bits == (1, 1, 0, 0, 0, 0)

    def test_gamma_circle_round_trip(self):
        from itertools import combinations
        for S in combinations(range(1, 7), 2):
            dec = tuple(sorted(S, reverse=True))
            assert gamma_ct(BOX24, gamma_tc(BOX24, S)) == dec

    def test_wrong_scheme_rejected(self):
        with pytest.raises(ValueError, match="D-scheme"):
            gamma_ct(BOX24, CircleState((1, 1, 0, 0, 0, 0), "L"))


class TestMoveVectors:
    def test_beta_diag_n6_columns(self):
        assert beta_diag(BOX24, 1) == (0, 0, 0, -1, -1)
        assert beta_diag(BOX24, 2) == (0, -1, -1, 0, 0)
        assert beta_diag(BOX24, 3) == (-1, 0, 0, 0, 0)
        assert beta_diag(BOX24, 4) == (1, 1, 0, 0, 0)
        assert beta_diag(BOX24, 5) == (0, 0, 1, 1, 0)

    def test_beta_circ_examples(self):
        assert beta_circ(BOX24, 1) == (1, 0, -1, 0, 0, 0)
        assert beta_circ(BOX24, 3) == (0, 0, 0, 0, 1, -1)

    def test_beta_circ_preserves_popcount(self):
        for spec in (BOX24, BoxSpec(3, 9)):
            for l in spec.colors:
                assert sum(beta_circ(spec, l)) == 0

    def test_move_pair_ranges(self):
        with pytest.raises(ValueError):
            dtab_move_pair(6, 6)

    @pytest.mark.parametrize("N", ["x", True, 1])
    def test_move_pair_checks_n_before_the_color(self, N):
        with pytest.raises(ValueError) as raised:
            dtab_move_pair(N, 1)
        assert str(raised.value) == f"need an integer N >= 2, got {N!r}"

    def test_move_pair_matches_the_printed_table(self):
        for N in range(2, 61):
            for l in range(1, N):
                assert dtab_move_pair(N, l) == printed_move_pair(N, l)

    def test_beta_diag_n7_columns(self):
        spec = BoxSpec(3, 7)
        assert [beta_diag(spec, l) for l in spec.colors] == [
            (0, 0, 0, -1, -1, 0), (0, -1, -1, 0, 0, 0), (-1, 0, 0, 0, 0, 0),
            (1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1)]

    def test_move_pairs_n7_n8(self):
        assert [dtab_move_pair(7, l) for l in range(1, 7)] == [
            (2, 4), (4, 6), (6, 7), (7, 5), (5, 3), (3, 1)]
        assert [dtab_move_pair(8, l) for l in range(1, 8)] == [
            (1, 3), (3, 5), (5, 7), (7, 8), (8, 6), (6, 4), (4, 2)]

    @pytest.mark.parametrize("color", [True, 2.5, 2.0])
    def test_color_must_be_an_int(self, color):
        with pytest.raises(ValueError, match="color"):
            beta_part(BOX24, (1, 1), color)
        with pytest.raises(ValueError, match="color"):
            beta_diag(BOX24, color)
        with pytest.raises(ValueError, match="color"):
            dtab_move_pair(6, color)

    @pytest.mark.parametrize("entries", [(9, 9), (7, 1, 0), (2, 2), (1,),
                                         (0, 3), (7, 1), (True, 3), (2.0, 3)])
    def test_up_edges_reject_a_bad_tableau(self, entries):
        with pytest.raises(ValueError, match="entries"):
            d_up_edges(BOX24, entries, "tab")

    @pytest.mark.parametrize("bits,scheme,match", [
        ((1, 0, 1, 0), "D", "bits"),
        ((1, 0, 1, 0, 0, 0, 0), "D", "bits"),
        ((1, 1, 1, 0, 0, 0), "D", "dots"),
        ((0, 0, 0, 0, 0, 0), "D", "dots"),
        ((1, 0, 1, 0, 0, 0), "L", "D-scheme"),
    ])
    def test_up_edges_reject_a_bad_circle(self, bits, scheme, match):
        with pytest.raises(ValueError, match=match):
            d_up_edges(BOX24, CircleState(bits, scheme), "circ")

    def test_transport_coherence(self):
        for spec in (BOX24, BoxSpec(2, 5), BoxSpec(3, 7), BoxSpec(4, 7)):
            for sigma in all_partitions(spec):
                part = set(d_up_edges(spec, sigma, "part"))
                tab = {(gamma_tp(spec, t), l)
                       for t, l in d_up_edges(spec, gamma_pt(spec, sigma), "tab")}
                circ = {(circle_to_partition_D(spec, t), l)
                        for t, l in d_up_edges(
                            spec, partition_to_circle_D(spec, sigma), "circ")}
                diag = {(diagonal_to_partition(spec, t), l)
                        for t, l in d_up_edges(
                            spec, partition_to_diagonal(spec, sigma), "diag")}
                assert part == tab == circ == diag

    @pytest.mark.parametrize("N", range(2, 7))
    def test_decoder_and_edge_rule_share_one_boundary(self, N):
        # each family's decoder raises ValueError exactly when its native
        # up-edge rule does, for every system, over in- and out-of-box input
        families = (("L", L_COORDINATES, l_up_edges), ("D", D_COORDINATES, d_up_edges))
        for k in range(1, N):
            spec = BoxSpec(k, N)
            inputs = {
                "part": [*product(range(-1, N - k + 2), repeat=k), (0,) * (k + 1)],
                "tab": [*product(range(N + 2), repeat=k), tuple(range(1, k + 2))],
                "circ": [CircleState(bits, scheme) for scheme in "LD"
                         for n in (N - 1, N, N + 1) for bits in product((0, 1), repeat=n)],
                "diag": [*product(range(-1, 4), repeat=N - 1), (0,) * N],
            }
            for side, coordinates, up_edges in families:
                for system, (_, decode) in coordinates.items():
                    for x in inputs[system]:
                        assert raises(decode, spec, x) == raises(up_edges, spec, x, system), \
                            (side, system, spec, x)

    def test_four_move_game_on_the_5x3_board(self):
        spec = BoxSpec(5, 8)
        D = build_d_a(spec)
        game = [(2, 2, 2, 1, 0), (3, 2, 2, 1, 0), (3, 3, 3, 1, 0),
                (3, 3, 1, 1, 0), (3, 3, 0, 0, 0)]
        for a, b in zip(game, game[1:]):
            assert is_legal_domino_move(spec, a, b)
            assert D.has_edge(a, b) or D.has_edge(b, a)
