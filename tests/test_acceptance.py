"""Acceptance criteria, one test per criterion, all exact-integer checks.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.
"""

import random
from collections import Counter
from math import comb

from dominolattice.domino import (build_d_a, d_max, d_min,
                                  is_legal_domino_move, m_diag, gamma_pt,
                                  gamma_tp, d_up_edges, circle_to_partition_D,
                                  partition_to_circle_D)
from dominolattice.isomorphism import decompose, move_matrix, phi, phi_inverse, pi
from dominolattice.lattice import mountainize, path_stats, valleyize
from dominolattice.oracle import (bfs_all_pairs, check_constructed_iso,
                                  check_lattice_laws, enumerate_shortest_paths,
                                  is_diamond_colored)
from dominolattice.poset import (canonical_iso_to_filters,
                                 canonical_iso_to_ideals, j_lattice,
                                 join_irreducibles, m_lattice,
                                 meet_irreducibles)
from dominolattice.solver import solve_distributive, solve_domino
from dominolattice.typea import (BoxSpec, all_partitions, build_l_a,
                                 build_l_graph, build_l_tab,
                                 build_l_tilde, build_p_a,
                                 partition_to_diagonal, partition_to_ideal,
                                 partition_to_tableau_L)
from dominolattice.verify import suite_fundamental

from conftest import DESK_SPECS, PRODUCT_SPECS

BOX24 = BoxSpec(2, 6)
BOX23 = BoxSpec(2, 5)


def report(n, text):
    print(f"criterion {n:2d}: PASS - {text}")


def test_criterion_01_cardinalities():
    assert len(build_l_a(BOX23)) == 10
    assert len(build_l_a(BOX24)) == 15
    assert len(build_d_a(BOX24)) == 15
    for spec in DESK_SPECS:
        expected = comb(spec.N, spec.k)
        assert len(build_l_a(spec)) == expected
        assert len(build_d_a(spec)) == expected
    report(1, "lattice sizes match the binomial counts")


def test_criterion_02_reference_data():
    assert partition_to_tableau_L(BOX24, (4, 3)) == (1, 3)
    assert partition_to_diagonal(BOX24, (4, 3)) == (1, 1, 2, 2, 1)
    assert partition_to_tableau_L(BOX24, (3, 3)) == (2, 3)
    assert partition_to_diagonal(BOX24, (3, 3)) == (0, 1, 2, 2, 1)
    assert d_min(BOX24) == (2, 1)
    assert d_max(BOX24) == (1, 0)
    report(2, "reference coordinates and extremes reproduced")


def test_criterion_03_pi_values():
    assert pi(6).mapping == (1, 3, 5, 6, 4, 2)
    assert pi(9).mapping == (2, 4, 6, 8, 9, 7, 5, 3, 1)
    report(3, "box renumbering permutations")


def test_criterion_04_phi():
    assert phi(BOX24, (0, 0)) == (2, 1)
    assert phi(BOX24, (4, 0)) == (0, 0)
    assert phi(BOX24, (4, 4)) == (1, 0)
    assert phi_inverse(BOX24, (4, 3)) == (1, 1)
    for k, N in ((2, 5), (2, 6), (3, 6), (3, 7)):
        spec = BoxSpec(k, N)
        L = build_l_graph(spec)
        assert check_constructed_iso(L, build_d_a(spec),
                                     {p: phi(spec, p) for p in L.vertices})
    report(4, "phi values and colored-digraph isomorphisms")


def test_criterion_05_matrix_pipeline():
    P = move_matrix(BOX24)
    assert [P.column(l) for l in range(1, 6)] == [
        (0, 0, 0, -1, -1), (0, -1, -1, 0, 0), (-1, 0, 0, 0, 0),
        (1, 1, 0, 0, 0), (0, 0, 1, 1, 0)]
    assert decompose(BOX24, (0, 1, 1, 2, 1)) == (0, 1, 2, 2, 1)
    assert decompose(BOX24, (1, 2, 2, 2, 1)) == (0, 0, 1, 2, 1)
    assert Counter(dict(enumerate(decompose(BOX24, (1, 2, 2, 2, 1)), start=1))) \
        == Counter({3: 1, 4: 2, 5: 1})
    assert m_diag(BOX24) == (0, 0, 1, 1, 1)
    report(5, "move matrix, decompositions, and shift")


def test_criterion_06_solver_worked_examples():
    sol = solve_domino(BOX24, (4, 3), (1, 1))
    assert sol.distance == 3
    assert sol.path.vertices == ((4, 3), (3, 3), (2, 2), (1, 1))
    sol = solve_domino(BOX24, (4, 4), (1, 1))
    assert sol.distance == 3
    assert list(sol.path.steps) == [(2, "up"), (4, "down"), (5, "down")]
    L = build_l_graph(BOX24)
    assert L.ranks[(3, 3)] == 6
    assert partition_to_diagonal(BOX24, (3, 3)) == (0, 1, 2, 2, 1)
    assert sum(partition_to_diagonal(BOX24, (3, 3))) == 6
    report(6, "worked games and the rank decomposition")


def test_criterion_07_oracle_equivalence():
    rng = random.Random(99)
    for spec in DESK_SPECS:
        P = build_p_a(spec)
        L = build_l_graph(spec)
        D = build_d_a(spec)
        distL = bfs_all_pairs(L)
        distD = bfs_all_pairs(D)
        for a in L.vertices:
            ia = partition_to_ideal(spec, a)
            for b in L.vertices:
                assert solve_distributive(P, ia, partition_to_ideal(spec, b)) \
                    .distance == distL[(a, b)]
                assert solve_domino(spec, a, b).distance == distD[(a, b)]
        verts = list(D.vertices)
        for _ in range(10):
            a, b = rng.choice(verts), rng.choice(verts)
            censuses = set()
            for p in enumerate_shortest_paths(D, a, b, cap=20000):
                _, asc, desc = path_stats(p)
                censuses.add(frozenset((asc + desc).items()))
            assert len(censuses) == 1
    report(7, "formula distances equal BFS; censuses are invariants")


def test_criterion_08_five_row_board_game():
    spec = BoxSpec(5, 8)
    D = build_d_a(spec)
    game = [(2, 2, 2, 1, 0), (3, 2, 2, 1, 0), (3, 3, 3, 1, 0),
            (3, 3, 1, 1, 0), (3, 3, 0, 0, 0)]
    for a, b in zip(game, game[1:]):
        assert is_legal_domino_move(spec, a, b)
        assert D.has_edge(a, b) or D.has_edge(b, a)
    bfs = bfs_all_pairs(D)[(game[0], game[-1])]
    assert solve_domino(spec, game[0], game[-1]).distance == bfs == 4
    report(8, "the four sample moves are legal; 4 is optimal")


def test_criterion_09_structure_suite():
    built = []
    for spec in DESK_SPECS:
        built.append(build_l_graph(spec))
        built.append(build_d_a(spec))
        built.append(build_l_tab(spec))
    for spec in PRODUCT_SPECS:
        built.append(build_l_tilde(spec))
    for L in built:
        assert is_diamond_colored(L)
        assert check_lattice_laws(L) == {
            "vertices": len(L), "is_lattice": True, "modular": True,
            "distributive": True, "topographically_balanced": True,
            "rank_identity": True}
    report(9, f"structure checks on {len(built)} built lattices")


def test_criterion_10_fundamental_theorem_suite():
    built = [build_l_tab(spec) for spec in DESK_SPECS]
    for spec in PRODUCT_SPECS:
        built += (build_l_a(spec), build_d_a(spec), build_l_tilde(spec))
    for L in built:
        assert check_constructed_iso(
            L, j_lattice(join_irreducibles(L)),
            {x: canonical_iso_to_ideals(L, x) for x in L.vertices})
        assert check_constructed_iso(
            L, m_lattice(meet_irreducibles(L)),
            {x: canonical_iso_to_filters(L, x) for x in L.vertices})
    suite = suite_fundamental(seed=2024)
    assert suite["passed"], suite["checks"]
    report(10, "round trips and all six identity families")


def test_criterion_11_mountainization():
    L = build_l_graph(BOX24)
    rng = random.Random(17)
    verts = list(L.vertices)
    for _ in range(100):
        a, b = rng.choice(verts), rng.choice(verts)
        p = rng.choice(enumerate_shortest_paths(L, a, b))
        m = mountainize(L, p)
        v = valleyize(L, p)
        assert path_stats(m) == path_stats(p) == path_stats(v)
        assert len(m.steps) == len(p.steps)
        assert m.apex == L.join(a, b)
        assert v.nadir == L.meet(a, b)
    report(11, "100 random shortest paths rewrite cleanly")


def test_criterion_12_transport_coherence():
    from dominolattice.typea import diagonal_to_partition
    for spec in DESK_SPECS:
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
            for tau, _ in part:
                assert is_legal_domino_move(spec, sigma, tau)
    report(12, "beta vectors agree across coordinatizations")
