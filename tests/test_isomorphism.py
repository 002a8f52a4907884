from fractions import Fraction
from itertools import product

import pytest

from dominolattice import isomorphism
from dominolattice.domino import (build_d_a, circle_to_partition_D, d_max, d_min,
                                  d_up_edges, gamma_ct, gamma_pt, gamma_tc, gamma_tp,
                                  m_diag, partition_to_circle_D)
from dominolattice.isomorphism import (BoxPermutation, _apply_p, apply_p,
                                       decompose, integer_determinant,
                                       move_census, move_matrix, phi, phi_circ,
                                       phi_circ_inverse, phi_inverse, pi)
from dominolattice.oracle import (bareiss_solve, bfs_all_pairs, cell_census,
                                  check_constructed_iso, exact_inverse)
from dominolattice.typea import (BoxSpec, CircleState, _diagonal_to_tableau_L,
                                 _validate_tableau_L, all_partitions,
                                 build_l_graph, circle_to_partition_L,
                                 circle_to_tableau, l_up_edges,
                                 partition_to_circle_L, partition_to_diagonal,
                                 partition_to_tableau_L, tableau_to_circle,
                                 validate_circle, validate_entries,
                                 validate_partition)

from conftest import DESK_SPECS, count_calls

BOX24 = BoxSpec(2, 6)


class TestPi:
    def test_n6(self):
        assert pi(6).mapping == (1, 3, 5, 6, 4, 2)

    def test_n9(self):
        assert pi(9).mapping == (2, 4, 6, 8, 9, 7, 5, 3, 1)

    def test_n2(self):
        assert pi(2).mapping == (1, 2)

    def test_inverse(self):
        for n in range(2, 12):
            p = pi(n)
            q = p.inverse()
            assert all(q(p(i)) == i for i in range(1, n + 1))

    @pytest.mark.parametrize("N", [4.0, True, "6", 1, -3])
    def test_rejects_n_that_is_not_an_int_at_least_2(self, N):
        with pytest.raises(ValueError, match="N >= 2"):
            pi(N)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            BoxPermutation((1, 1))

    @pytest.mark.parametrize("i", [0, -1, 7, True, 2.0, "1"])
    def test_call_rejects_a_position_outside_1_to_n(self, i):
        # indexing the mapping would wrap 0 and -1 round to the end
        with pytest.raises(ValueError) as exc:
            pi(6)(i)
        assert str(exc.value) == f"position {i!r} outside [1, 6]"


class TestPhiCirc:
    def test_worked_example(self):
        # L dots in boxes 4 and 5 land in D boxes 6 and 4
        s = CircleState((0, 0, 0, 1, 1, 0), "L")
        assert phi_circ(s).ones == (4, 6)

    def test_zero_state(self):
        s = CircleState((0, 0, 0, 0, 0, 0), "L")
        assert phi_circ(s).bits == (0, 0, 0, 0, 0, 0)

    def test_derived_pair(self):
        s = CircleState((1, 0, 1, 0, 0, 0), "L")
        assert phi_circ(s).ones == (1, 5)

    def test_scheme_enforced(self):
        with pytest.raises(ValueError):
            phi_circ(CircleState((1, 0), "D"))
        with pytest.raises(ValueError):
            phi_circ_inverse(CircleState((1, 0), "L"))

    @pytest.mark.parametrize("call", [
        lambda x: l_up_edges(BOX24, x, "circ"),
        lambda x: d_up_edges(BOX24, x, "circ"),
        lambda x: circle_to_partition_L(BOX24, x),
        lambda x: circle_to_partition_D(BOX24, x),
        lambda x: circle_to_tableau(BOX24, x),
        lambda x: gamma_ct(BOX24, x),
        phi_circ,
        phi_circ_inverse,
    ], ids=["l_up_edges", "d_up_edges", "circle_to_partition_L", "circle_to_partition_D",
            "circle_to_tableau", "gamma_ct", "phi_circ", "phi_circ_inverse"])
    def test_a_circle_that_is_not_a_circle_state_is_rejected(self, call):
        with pytest.raises(ValueError, match="CircleState|circle state"):
            call((1, 0, 1, 0, 0, 0))

    def test_round_trip(self):
        s = CircleState((0, 1, 1, 0, 0, 0), "L")
        assert phi_circ_inverse(phi_circ(s)) == s


class TestOneCheckPerCall:
    """On valid input each map checks it once and re-checks nothing it builds from it."""

    # the shape checks of the four coordinate systems, and pi's record
    WATCHED = (validate_partition, _validate_tableau_L, validate_entries, validate_circle,
               _diagonal_to_tableau_L, BoxPermutation.__init__)

    @staticmethod
    def cases(spec):
        """(map, its valid inputs, the calls it makes) for one box."""
        parts = all_partitions(spec)
        L, D = ([CircleState(bits, scheme) for bits in product((0, 1), repeat=spec.N)
                 if sum(bits) == spec.k] for scheme in "LD")
        tab_L = [partition_to_tableau_L(spec, p) for p in parts]
        tab_D = [gamma_pt(spec, p) for p in parts]
        return [
            (tableau_to_circle, tab_L, {"validate_entries": 1}),
            (gamma_tc, tab_D, {"validate_entries": 1}),
            (circle_to_tableau, L + D, {"validate_circle": 1}),
            (gamma_ct, D, {"validate_circle": 1}),
            (partition_to_circle_L, parts, {"validate_partition": 1}),
            (partition_to_circle_D, parts, {"validate_partition": 1}),
            (circle_to_partition_L, L, {"validate_circle": 1}),
            (circle_to_partition_D, D, {"validate_circle": 1}),
            (lambda spec, x: l_up_edges(spec, x, "circ"), L, {"validate_circle": 1}),
            (lambda spec, x: d_up_edges(spec, x, "circ"), D, {"validate_circle": 1}),
            (lambda spec, x: d_min(spec), [None], {}),
            (lambda spec, x: d_max(spec), [None], {}),
            (lambda spec, x: m_diag(spec), [None], {}),
            (lambda spec, x: phi_circ(x), L, {}),
            (lambda spec, x: phi_circ_inverse(x), D, {}),
        ]

    @pytest.mark.parametrize("N", range(2, 7))
    def test_each_map_checks_its_input_once(self, N):
        for k in range(1, N):
            spec = BoxSpec(k, N)
            for f, inputs, expected in self.cases(spec):
                f(spec, inputs[0])      # warm-up: the per-N tables are cached
                for x in inputs:
                    _, calls = count_calls(self.WATCHED, lambda: f(spec, x))
                    assert calls == expected, (f, spec, x)


class TestPhi:
    def test_paper_values(self):
        assert phi(BOX24, (0, 0)) == (2, 1)
        assert phi(BOX24, (4, 0)) == (0, 0)
        assert phi(BOX24, (4, 4)) == (1, 0)
        assert phi_inverse(BOX24, (4, 3)) == (1, 1)

    def test_mutual_inverse(self):
        for p in all_partitions(BOX24):
            assert phi_inverse(BOX24, phi(BOX24, p)) == p
            assert phi(BOX24, phi_inverse(BOX24, p)) == p

    @pytest.mark.parametrize("k,N", [(2, 5), (2, 6), (3, 6), (3, 7)])
    def test_color_preserving_isomorphism(self, k, N):
        spec = BoxSpec(k, N)
        L = build_l_graph(spec)
        D = build_d_a(spec)
        assert check_constructed_iso(L, D, {p: phi(spec, p) for p in L.vertices})


class TestTableauPhi:
    """phi as elementwise pi on tableaux against the circle route."""

    @pytest.mark.parametrize("N", range(2, 13))
    def test_matches_phi_circ_on_every_shape(self, N):
        for k in range(1, N):
            spec = BoxSpec(k, N)
            for sigma in all_partitions(spec):
                circ = phi_circ(partition_to_circle_L(spec, sigma))
                assert phi(spec, sigma) == gamma_tp(spec, gamma_ct(spec, circ))
                back = phi_circ_inverse(gamma_tc(spec, gamma_pt(spec, sigma)))
                assert phi_inverse(spec, sigma) == circle_to_partition_L(spec, back)


class TestExactAlgebra:
    def test_solve_known_system(self):
        x = bareiss_solve([[2, 1], [1, 3]], [3, 4])
        assert x == [Fraction(1), Fraction(1)]

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            bareiss_solve([[1, 2], [2, 4]], [1, 2])

    @pytest.mark.parametrize("matrix,rhs", [([[2]], [2, 99]), ([[1, 0], [0, 1]], [1]),
                                            ([[1, 0]], [1])])
    def test_shapes_that_do_not_match_are_rejected(self, matrix, rhs):
        with pytest.raises(ValueError, match="square"):
            bareiss_solve(matrix, rhs)

    def test_determinant(self):
        assert integer_determinant([[2, 0], [0, 3]]) == 6
        assert integer_determinant([[1, 2], [2, 4]]) == 0
        assert integer_determinant([]) == 1     # as bareiss_solve takes n = 0

    @pytest.mark.parametrize("matrix", [[[1, 2], [3]], [[1, 2]], [[1], [2]]],
                             ids=["ragged", "wide", "tall"])
    def test_determinant_of_a_matrix_that_is_not_square_is_rejected(self, matrix):
        with pytest.raises(ValueError, match="^matrix must be square"):
            integer_determinant(matrix)

    def test_inverse_is_exact(self):
        m = [[3, 1], [5, 2]]
        inv = exact_inverse(m)
        assert inv == ((2, -1), (-5, 3))

    # [[0, 2], [3, 1]] needs a row swap and has determinant -6; after the
    # swap of [[0, 2], [-3, 1]] (determinant 6) the last pivot is -6
    @pytest.mark.parametrize("matrix,x,inverse", [
        ([[0, 2], [3, 1]], (Fraction(1, 6), Fraction(1, 2)),
         ((Fraction(-1, 6), Fraction(1, 3)), (Fraction(1, 2), 0))),
        ([[0, 2], [-3, 1]], (Fraction(-1, 6), Fraction(1, 2)),
         ((Fraction(1, 6), Fraction(-1, 3)), (Fraction(1, 2), 0))),
    ])
    def test_swapped_rows_and_a_non_unit_determinant(self, matrix, x, inverse):
        assert bareiss_solve(matrix, [1, 1]) == list(x)
        assert exact_inverse(matrix) == inverse

    def test_back_substitution_that_does_not_divide_raises(self, monkeypatch):
        # a forward pass that eliminates nothing leaves no Cramer quotients
        monkeypatch.setattr(isomorphism, "_bareiss_forward", lambda a: 1)
        with pytest.raises(AssertionError, match="row 0 does not divide exactly"):
            bareiss_solve([[2, 1], [1, 2]], [0, 1])


class TestMoveMatrix:
    def test_columns_match_worked_inverse_example(self):
        P = move_matrix(BOX24)
        assert P.column(1) == (0, 0, 0, -1, -1)
        assert P.column(2) == (0, -1, -1, 0, 0)
        assert P.column(3) == (-1, 0, 0, 0, 0)
        assert P.column(4) == (1, 1, 0, 0, 0)
        assert P.column(5) == (0, 0, 1, 1, 0)
        assert P.shift == (0, 0, 1, 1, 1)

    @pytest.mark.parametrize("l", [0, -2, 6, True, 1.0])
    def test_column_rejects_a_color_outside_1_to_n_minus_1(self, l):
        # indexing the rows would wrap 0 and -2 round to the last columns
        with pytest.raises(ValueError) as exc:
            move_matrix(BOX24).column(l)
        assert str(exc.value) == f"color {l!r} outside [1, 5]"

    def test_matrix_times_unit_vector_is_column(self):
        P = move_matrix(BOX24)
        for l in range(1, 6):
            e = [1 if i == l - 1 else 0 for i in range(5)]
            col = tuple(sum(row[j] * e[j] for j in range(5)) for row in P.entries)
            assert col == P.column(l)

    def test_unimodular_for_desk_scale_sizes(self):
        # P depends on (k, N) only through N; check N = 4..10
        for N in range(4, 11):
            P = move_matrix(BoxSpec(2, N))
            assert P.is_unimodular
            inv = exact_inverse(P.entries)
            n = len(inv)
            assert all(v.denominator == 1 for row in inv for v in row)
            prod = [[sum(P.entries[i][k] * inv[k][j] for k in range(n))
                     for j in range(n)] for i in range(n)]
            assert prod == [[1 if i == j else 0 for j in range(n)]
                            for i in range(n)]


class TestApplyP:
    def test_worked_value(self):
        assert apply_p(BOX24, (0, 1, 2, 2, 1)) == (0, 1, 1, 2, 1)

    def test_zero_maps_to_shift(self):
        assert apply_p(BOX24, (0, 0, 0, 0, 0)) == (0, 0, 1, 1, 1)

    def test_commutes_with_phi(self):
        for p in all_partitions(BOX24):
            assert apply_p(BOX24, partition_to_diagonal(BOX24, p)) \
                == partition_to_diagonal(BOX24, phi(BOX24, p))

    def test_reads_the_shift_without_eliminating_the_move_matrix(self):
        # the shift is the Domino minimum's diagonal; the (N-1)^2 matrix
        # and its determinant are not needed to transport one vector
        spec = BoxSpec(100, 200)
        move_matrix.cache_clear()
        isomorphism._determinant.cache_clear()
        out, calls = count_calls([isomorphism._bareiss_forward],
                                 lambda: apply_p(spec, (0,) * 199))
        assert out == m_diag(spec)
        assert calls["_bareiss_forward"] == 0


class TestSparseTransport:
    """apply_p and its unchecked core against the dense product P d + m."""

    @pytest.mark.parametrize("spec", DESK_SPECS, ids=lambda s: f"k{s.k}N{s.N}")
    def test_matches_the_dense_product_on_every_shape(self, spec):
        P = move_matrix(spec)
        for p in all_partitions(spec):
            d = partition_to_diagonal(spec, p)
            dense = tuple(sum(a * x for a, x in zip(row, d)) + m
                          for row, m in zip(P.entries, P.shift))
            assert _apply_p(spec, d) == dense
            assert apply_p(spec, d) == dense


class TestDecompose:
    def test_worked_examples(self):
        assert decompose(BOX24, (0, 1, 1, 2, 1)) == (0, 1, 2, 2, 1)
        assert decompose(BOX24, (1, 2, 2, 2, 1)) == (0, 0, 1, 2, 1)

    def test_minimum_decomposes_to_zero(self):
        assert decompose(BOX24, (0, 0, 1, 1, 1)) == (0, 0, 0, 0, 0)

    def test_sum_is_rank(self):
        D = build_d_a(BOX24)
        dist = bfs_all_pairs(D)
        for p in all_partitions(BOX24):
            c = decompose(BOX24, partition_to_diagonal(BOX24, p))
            assert sum(c) == dist[(D.minimum, p)]

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            decompose(BOX24, (2, 0, 0, 0, 0))


class TestMoveCensus:
    @pytest.mark.parametrize("N", range(2, 13))
    def test_prefix_count_is_the_cell_census_of_the_preimage(self, N):
        # the closed form against the cell-by-cell colors of phi_inverse(sigma)
        for k in range(1, N):
            spec = BoxSpec(k, N)
            for sigma in all_partitions(spec):
                census = move_census(spec, sigma)
                assert census == partition_to_diagonal(spec, phi_inverse(spec, sigma))
                assert census == cell_census(spec, phi_inverse(spec, sigma))


class TestLegalityIdentity:
    """Move legality read off Q, the preimage's L tableau, against beta_part."""

    @staticmethod
    def bits(mask, N):
        return {l for l in range(1, N) if mask >> l & 1}

    @pytest.mark.parametrize("spec", DESK_SPECS, ids=lambda s: f"k{s.k}N{s.N}")
    def test_legal_colors_are_the_bit_pairs_of_q(self, spec):
        into = {sigma: set() for sigma in all_partitions(spec)}
        for rho in into:
            for sigma, l in d_up_edges(spec, rho, "part"):
                into[sigma].add(l)
        qinv = pi(spec.N).inverse()
        for sigma, down in into.items():
            q = sum(1 << t for t in partition_to_tableau_L(spec, phi_inverse(spec, sigma)))
            assert sum(1 << qinv(t) for t in gamma_pt(spec, sigma)) == q
            up = {l for _, l in d_up_edges(spec, sigma, "part")}
            assert up == self.bits((q >> 1) & ~q, spec.N)
            assert down == self.bits(q & ~(q >> 1), spec.N)
