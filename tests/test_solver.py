import random
import tracemalloc
from collections import Counter
from math import comb

import pytest

import sys

from dominolattice import solver, verify
from dominolattice.cli import main
from dominolattice.domino import build_d_a, d_max, d_min, is_legal_domino_move
from dominolattice.isomorphism import phi_inverse
from dominolattice.lattice import DOWN, UP, PathRecord, path_stats
from dominolattice.oracle import (bfs_all_pairs, enumerate_shortest_paths,
                                  ideal_greedy_solve, random_colored_poset)
from dominolattice.poset import enumerate_order_ideals, j_lattice
from dominolattice.solver import (GameSolution, _walk_tables,
                                  color_census, solve_distributive, solve_domino)
from dominolattice.typea import (BoxSpec, all_partitions, build_l_a,
                                 build_p_a, ideal_to_partition,
                                 partition_to_ideal)

from conftest import DESK_SPECS, count_calls

BOX24 = BoxSpec(2, 6)


@pytest.fixture
def forbid_lattice_build(monkeypatch):
    """Make every module's build_d_a, bareiss_solve and exact_inverse raise when called."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the solve path built the lattice or ran Bareiss")
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dominolattice":
            for attr in ("build_d_a", "bareiss_solve", "exact_inverse"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)


def random_shape(rng, spec):
    return tuple(sorted((rng.randint(0, spec.cols) for _ in range(spec.k)),
                        reverse=True))


class TestMultisets:
    # move multisets are Counters: | is the entrywise-max union, - truncates
    def test_worked_union(self):
        S = Counter({3: 1, 4: 2, 5: 1})
        T = Counter({2: 1, 3: 1, 4: 1})
        assert S | T == Counter({2: 1, 3: 1, 4: 2, 5: 1})

    def test_worked_difference_sizes(self):
        S = Counter({3: 1, 4: 2, 5: 1})
        T = Counter({2: 1, 3: 1, 4: 1})
        U = S | T
        assert (U - S).total() == 1
        assert (U - T).total() == 2

    def test_union_idempotent(self):
        S = Counter({1: 2, 5: 1})
        assert S | S == S


class TestColorCensus:
    def test_empty(self):
        P = build_p_a(BOX24)
        assert color_census(P, frozenset()) == Counter()

    def test_worked_pair(self):
        # boxes added and removed along the three-move example game
        P = build_p_a(BOX24)
        s = partition_to_ideal(BOX24, (1, 1))
        t = partition_to_ideal(BOX24, (3, 0))
        u = s | t
        assert color_census(P, u - s) + color_census(P, u - t) \
            == Counter({2: 1, 3: 1, 5: 1})

    def test_additive_over_disjoint_sets(self):
        P = build_p_a(BOX24)
        a = frozenset({"1,1", "1,2"})
        b = frozenset({"2,1"})
        assert color_census(P, a) + color_census(P, b) == color_census(P, a | b)


class TestSolveDistributive:
    def test_zero_distance(self):
        P = build_p_a(BOX24)
        s = partition_to_ideal(BOX24, (2, 1))
        sol = solve_distributive(P, s, s)
        assert sol.distance == 0 and len(sol.path.steps) == 0

    def test_worked_example(self):
        P = build_p_a(BOX24)
        s = partition_to_ideal(BOX24, (1, 1))
        t = partition_to_ideal(BOX24, (3, 0))
        sol = solve_distributive(P, s, t)
        assert sol.distance == 3
        assert sol.waypoint == partition_to_ideal(BOX24, (3, 1))
        walked = [ideal_to_partition(BOX24, x) for x in sol.path.vertices]
        assert walked == [(1, 1), (2, 1), (3, 1), (3, 0)]

    def test_all_pairs_match_bfs(self):
        spec = BoxSpec(2, 5)
        P = build_p_a(spec)
        L = build_l_a(spec)
        dist = bfs_all_pairs(L)
        for s in L.vertices:
            for t in L.vertices:
                for via in ("join", "meet"):
                    sol = solve_distributive(P, s, t, via=via)
                    assert sol.distance == dist[(s, t)]
                    sol.path.validate(L)

    def test_rejects_a_via_other_than_join_or_meet(self):
        P = build_p_a(BOX24)
        s, t = partition_to_ideal(BOX24, (1, 1)), partition_to_ideal(BOX24, (3, 0))
        with pytest.raises(ValueError, match="^via must be 'join' or 'meet', got 'up'$"):
            solve_distributive(P, s, t, via="up")

    def test_meet_route_waypoint(self):
        P = build_p_a(BOX24)
        s = partition_to_ideal(BOX24, (1, 1))
        t = partition_to_ideal(BOX24, (3, 0))
        sol = solve_distributive(P, s, t, via="meet")
        assert sol.waypoint == s & t
        assert sol.distance == 3

    def test_meet_route_descends_smallest_color_first(self):
        # (2,1) holds cells of colors 3 and 5 at its corners: the color-3
        # cell goes first, as in the Domino walk
        P = build_p_a(BOX24)
        s = partition_to_ideal(BOX24, (2, 1))
        t = partition_to_ideal(BOX24, (0, 0))
        sol = solve_distributive(P, s, t, via="meet")
        walked = [ideal_to_partition(BOX24, x) for x in sol.path.vertices]
        assert walked == [(2, 1), (1, 1), (1, 0), (0, 0)]
        assert sol.path.steps == ((3, DOWN), (5, DOWN), (4, DOWN))

    def test_rejects_non_ideal(self):
        P = build_p_a(BOX24)
        with pytest.raises(ValueError, match="order ideal"):
            solve_distributive(P, frozenset({"1,2"}), frozenset())


def frozenset_leg(P, start, target):
    """A greedy leg on frozensets: one extreme of the difference a step.

    Going up it adjoins a minimal element of target - current, going down
    it removes a maximal element of current - target, smallest color
    first, then the poset's vertex order.
    """
    extremes = P.minimal_of if start <= target else P.maximal_of
    chain = [start]
    current = start
    while current != target:
        pick = min(extremes(current ^ target),
                   key=lambda v: (P.color(v), P.index(v)))
        current = current ^ {pick}
        chain.append(current)
    return chain


def frozenset_solve(P, s, t, via):
    """solve_distributive's play, composed from frozenset legs."""
    union = s | t
    per_color = color_census(P, union - s) + color_census(P, union - t)
    if via == "join":
        waypoint = union
        up, down = frozenset_leg(P, s, union), frozenset_leg(P, t, union)
        verts = up + down[-2::-1]
        dirs = [UP] * (len(up) - 1) + [DOWN] * (len(down) - 1)
    else:
        waypoint = s & t
        down, up = frozenset_leg(P, s, waypoint), frozenset_leg(P, waypoint, t)
        verts = down + up[1:]
        dirs = [DOWN] * (len(down) - 1) + [UP] * (len(up) - 1)
    steps = tuple((P.color(next(iter(a ^ b))), d)
                  for a, b, d in zip(verts, verts[1:], dirs))
    return GameSolution(len(union - s) + len(union - t), per_color,
                        PathRecord(tuple(verts), steps), waypoint)


class TestMaskGreedyPlay:
    """The mask legs of solve_distributive make the frozenset legs' play."""

    @staticmethod
    def assert_same_play(P, L):
        for s in L.vertices:
            for t in L.vertices:
                for via in ("join", "meet"):
                    got = solve_distributive(P, s, t, via=via)
                    assert got == frozenset_solve(P, s, t, via)
                    got.path.validate(L)

    def test_random_posets(self):
        rng = random.Random(23)
        for _ in range(30):
            P = random_colored_poset(rng, 6, 3)
            self.assert_same_play(P, j_lattice(P))

    @pytest.mark.parametrize("k, N", [(2, 5), (3, 6)])
    def test_every_pair_of_the_box(self, k, N):
        spec = BoxSpec(k, N)
        self.assert_same_play(build_p_a(spec), build_l_a(spec))

    @pytest.mark.parametrize("s, t, name", [
        (frozenset({"1,2"}), frozenset(), "s"),
        (frozenset(), frozenset({"2,1"}), "t"),
        (frozenset({"1,1", "9,9"}), frozenset(), "s"),
        (frozenset(), frozenset({"foreign"}), "t"),
    ], ids=["s-not-closed", "t-not-closed", "s-foreign", "t-foreign"])
    def test_rejects_non_ideals_and_non_vertices(self, s, t, name):
        P = build_p_a(BOX24)
        with pytest.raises(ValueError,
                           match=f"^{name} is not an order ideal of the poset$"):
            solve_distributive(P, s, t)


class TestSolveDomino:
    def test_worked_three_move_game(self):
        sol = solve_domino(BOX24, (4, 3), (1, 1))
        assert sol.distance == 3
        assert sol.path.vertices == ((4, 3), (3, 3), (2, 2), (1, 1))

    def test_worked_multiset_game(self):
        sol = solve_domino(BOX24, (4, 4), (1, 1))
        assert sol.distance == 3
        assert [c for c, _ in sol.path.steps] == [2, 4, 5]
        assert [d for _, d in sol.path.steps] == ["up", "down", "down"]

    def test_per_color_counts(self):
        sol = solve_domino(BOX24, (4, 4), (1, 1))
        assert sol.per_color == Counter({2: 1, 4: 1, 5: 1})

    def test_distance_is_multiset_asymmetry(self):
        from dominolattice.isomorphism import decompose
        from dominolattice.typea import partition_to_diagonal
        for a in all_partitions(BOX24):
            for b in all_partitions(BOX24):
                S = decompose(BOX24, partition_to_diagonal(BOX24, a))
                T = decompose(BOX24, partition_to_diagonal(BOX24, b))
                manhattan = sum(abs(x - y) for x, y in zip(S, T))
                assert solve_domino(BOX24, a, b).distance == manhattan

    def test_all_pairs_match_bfs(self):
        for spec in (BoxSpec(2, 5), BOX24, BoxSpec(3, 6)):
            D = build_d_a(spec)
            dist = bfs_all_pairs(D)
            for a in D.vertices:
                for b in D.vertices:
                    sol = solve_domino(spec, a, b)
                    assert sol.distance == dist[(a, b)]
                    sol.path.validate(D)

    def test_path_moves_are_geometric(self):
        sol = solve_domino(BoxSpec(5, 8), (2, 2, 2, 1, 0), (3, 3, 0, 0, 0))
        for a, b in zip(sol.path.vertices, sol.path.vertices[1:]):
            assert is_legal_domino_move(BoxSpec(5, 8), a, b)

    def test_waypoints_are_lattice_join_and_meet(self):
        D = build_d_a(BOX24)
        for a in D.vertices:
            for b in D.vertices:
                assert solve_domino(BOX24, a, b).waypoint == D.join(a, b)
                assert solve_domino(BOX24, a, b, via="meet").waypoint == D.meet(a, b)

    def test_per_color_matches_every_shortest_path(self):
        rng = random.Random(6)
        for spec in (BoxSpec(2, 5), BOX24):
            D = build_d_a(spec)
            verts = list(D.vertices)
            for _ in range(10):
                a, b = rng.choice(verts), rng.choice(verts)
                expected = solve_domino(spec, a, b).per_color
                for p in enumerate_shortest_paths(D, a, b):
                    _, asc, desc = path_stats(p)
                    assert asc + desc == expected

    def test_rejects_invalid_shape(self):
        with pytest.raises(ValueError):
            solve_domino(BOX24, (5, 0), (1, 1))

    def test_rejects_a_via_other_than_join_or_meet(self):
        with pytest.raises(ValueError, match="^via must be 'join' or 'meet', got 'up'$"):
            solve_domino(BOX24, (4, 3), (1, 1), via="up")


class TestClosedFormSolve:
    """solve_domino never builds D, so it runs where C(N, k) is out of reach."""

    def test_solve_neither_builds_nor_eliminates(self, forbid_lattice_build, capsys):
        spec = BoxSpec(5, 12)
        rng = random.Random(5)
        pairs = [(d_min(spec), d_max(spec)), (d_max(spec), d_min(spec))]
        pairs += [(random_shape(rng, spec), random_shape(rng, spec)) for _ in range(4)]
        for a, b in pairs:
            for via in ("join", "meet"):
                solve_domino(spec, a, b, via=via)
                for fmt in ("text", "json"):
                    code = main(["solve", "-k", "5", "-N", "12", "--via", via,
                                 "--format", fmt, "--from", ",".join(map(str, a)),
                                 "--to", ",".join(map(str, b))])
                    assert code == 0
        capsys.readouterr()

    def test_large_boxes_without_the_lattice(self):
        build_d_a.cache_clear()
        rng = random.Random(2024)
        spec = BoxSpec(10, 20)
        games = [(spec, random_shape(rng, spec), random_shape(rng, spec), via)
                 for via in ("join", "meet") for _ in range(10)]
        big = BoxSpec(20, 40)
        games += [(big, d_min(big), d_max(big), "join"),
                  (big, d_max(big), d_min(big), "meet")]
        huge = BoxSpec(50, 100)
        games += [(huge, d_min(huge), d_max(huge), "join"),
                  (huge, d_max(huge), d_min(huge), "meet")]
        vast = BoxSpec(100, 200)        # 10 000 steps each way
        games += [(vast, a, b, via) for a, b in ((d_min(vast), d_max(vast)),
                                                 (d_max(vast), d_min(vast)))
                  for via in ("join", "meet")]
        for spec, a, b, via in games:
            sol = solve_domino(spec, a, b, via=via)
            lam, mu = phi_inverse(spec, a), phi_inverse(spec, b)
            assert sol.distance == sum(abs(x - y) for x, y in zip(lam, mu))
            if spec in (big, huge, vast):   # bottom <-> top crosses the whole box
                assert sol.distance == spec.k * spec.cols
            verts = sol.path.vertices
            assert verts[0] == a and verts[-1] == b
            assert all(is_legal_domino_move(spec, v, w)
                       for v, w in zip(verts, verts[1:]))
        assert build_d_a.cache_info().currsize == 0


class TestWalkMemory:
    def test_walk_tables_take_linear_memory(self):
        # bottom -> top of (1, 10 000): tables of N-bit ints would take
        # about 40 MB here; tables of positions, about 7 MB
        spec = BoxSpec(1, 10_000)
        a, b = d_min(spec), d_max(spec)
        _walk_tables.cache_clear()
        tracemalloc.start()
        try:
            sol = solve_domino(spec, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.distance == spec.cols
        assert peak < 20_000_000, peak


class TestTableauWalkAgainstIdealOracle:
    """The tableau walk against the generic ideal solver, read through phi."""

    @pytest.mark.parametrize("spec", DESK_SPECS, ids=lambda s: f"k{s.k}N{s.N}")
    def test_every_ordered_pair_both_routes(self, spec):
        shapes = all_partitions(spec)
        for a in shapes:
            for b in shapes:
                for via in ("join", "meet"):
                    got = solve_domino(spec, a, b, via=via)
                    want = ideal_greedy_solve(spec, a, b, via=via)
                    assert got.distance == want.distance
                    assert got.per_color == want.per_color
                    assert got.waypoint == want.waypoint
                    assert got.path.vertices == want.path.vertices
                    assert got.path.steps == want.path.steps


class TestGameSolution:
    def test_consistency_enforced(self):
        sol = solve_domino(BOX24, (4, 3), (1, 1))
        with pytest.raises(ValueError):
            GameSolution(sol.distance + 1, sol.per_color, sol.path, sol.waypoint)

    def test_length_error_gives_both_numbers(self):
        sol = solve_domino(BOX24, (4, 3), (1, 1))
        with pytest.raises(ValueError, match="the path has 3 steps but the distance is 4"):
            GameSolution(4, sol.per_color, sol.path, sol.waypoint)

    @pytest.mark.parametrize("per_color, message", [
        (Counter({2: 1, 3: 1, 5: 1}), "color 3: the path makes 0 moves, per_color counts 1"),
        (Counter({2: 1, 4: 2, 5: 0}), "color 4: the path makes 1 moves, per_color counts 2"),
        (Counter({2: 1, 4: 1}), "color 5: the path makes 1 moves, per_color counts 0"),
        ({2: 1, 4: 1, 5: 1, 0: -1}, "color 0: the path makes 0 moves, per_color counts -1"),
    ])
    def test_color_error_names_the_first_color_that_differs(self, per_color, message):
        sol = solve_domino(BOX24, (4, 4), (1, 1))   # colors 2, 4 and 5, once each
        with pytest.raises(ValueError, match=message):
            GameSolution(sol.distance, per_color, sol.path, sol.waypoint)

    def test_the_cores_record_their_answers_without_the_recount(self):
        P = build_p_a(BOX24)
        s, t = partition_to_ideal(BOX24, (4, 4)), partition_to_ideal(BOX24, (1, 0))
        _, calls = count_calls([GameSolution.__init__], lambda: (
            solve_domino(BOX24, (4, 3), (1, 1)), solve_distributive(P, s, t)))
        assert calls == {}

    @staticmethod
    def _checked_records(monkeypatch):
        """The records the cores make, each rebuilt through the checking constructor."""
        built = []

        def checked(*fields):
            built.append(GameSolution(*fields))
            return built[-1]

        monkeypatch.setattr(solver, "_trusted_solution", checked)
        return built

    def test_every_solution_of_the_solver_suite_passes_the_constructor(self, monkeypatch):
        # the cores skip the recount; the checking constructor must accept each record
        built = self._checked_records(monkeypatch)
        assert verify.suite_solver(3, 8)["passed"]
        # one Domino solve per ordered pair, ten more for the census
        assert len(built) == comb(8, 3) ** 2 + 10

    @pytest.mark.parametrize("spec", DESK_SPECS + (BoxSpec(3, 8),),
                             ids=lambda s: f"k{s.k}N{s.N}")
    def test_every_generic_solution_passes_the_constructor(self, monkeypatch, spec):
        # every ordered pair of P_A's ideals, both routes
        built = self._checked_records(monkeypatch)
        P = build_p_a(spec)
        ideals = enumerate_order_ideals(P)
        for s in ideals:
            for t in ideals:
                for via in ("join", "meet"):
                    solve_distributive(P, s, t, via)
        assert len(built) == 2 * comb(spec.N, spec.k) ** 2

    def test_zero_entries_count_as_absent(self):
        sol = solve_domino(BOX24, (4, 4), (1, 1))
        per_color = Counter({1: 0, 2: 1, 4: 1, 5: 1, 3: 0})
        assert GameSolution(sol.distance, per_color, sol.path, sol.waypoint) \
            == GameSolution(sol.distance, per_color, sol.path, sol.waypoint)
