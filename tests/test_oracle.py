import pytest

from dominolattice.domino import build_d_a, d_max, d_min, m_diag
from dominolattice.isomorphism import decompose, phi
from dominolattice.lattice import ColoredLattice, LatticeError, path_from_vertices, path_stats
from dominolattice.oracle import (PathCapExceeded, bareiss_decompose,
                                  bfs_all_pairs, bfs_distances, check_constructed_iso,
                                  check_lattice_laws, enumerate_shortest_paths,
                                  random_colored_poset)
from dominolattice.poset import j_lattice
from dominolattice.typea import (BoxSpec, build_l_a, build_l_graph,
                                 partition_to_diagonal)

from conftest import DESK_SPECS, count_calls

BOX24 = BoxSpec(2, 6)


def chain_lattice(n):
    return ColoredLattice(range(n), [(i, i + 1, 1) for i in range(n - 1)])


class TestBfs:
    def test_chain_distance(self):
        d = bfs_all_pairs(chain_lattice(5))
        assert d[(0, 4)] == 4

    def test_worked_domino_distance(self):
        d = bfs_all_pairs(build_d_a(BOX24))
        assert d[((4, 4), (1, 1))] == 3

    def test_distance_table_axioms(self):
        d = bfs_all_pairs(build_d_a(BOX24))
        verts = build_d_a(BOX24).vertices
        for a in verts:
            assert d[(a, a)] == 0
            for b in verts:
                assert d[(a, b)] == d[(b, a)]
                for c in verts:
                    assert d[(a, c)] <= d[(a, b)] + d[(b, c)]

    def test_rejects_disconnected(self):
        L = ColoredLattice("abcd", [("a", "b", 1), ("c", "d", 1)])
        with pytest.raises(LatticeError, match="disconnected"):
            bfs_all_pairs(L)


    def test_missing_source_is_named(self):
        with pytest.raises(LatticeError) as exc:
            bfs_distances(chain_lattice(3), (9, 9))
        assert str(exc.value) == "(9, 9) is not a vertex of the lattice"


class TestShortestPaths:
    @pytest.mark.parametrize("s, t", [((9, 9), 0), (0, (9, 9))], ids=["source", "target"])
    def test_missing_endpoint_is_named(self, s, t):
        # a missing source was reported as "not connected" to the target
        with pytest.raises(LatticeError) as exc:
            enumerate_shortest_paths(chain_lattice(3), s, t)
        assert str(exc.value) == "(9, 9) is not a vertex of the lattice"

    def test_adjacent_vertices(self):
        L = chain_lattice(3)
        paths = enumerate_shortest_paths(L, 0, 1)
        assert len(paths) == 1 and len(paths[0].steps) == 1

    def test_diamond_has_two_paths(self):
        L = ColoredLattice("0abt", [("0", "a", 1), ("0", "b", 2),
                                    ("a", "t", 2), ("b", "t", 1)])
        assert len(enumerate_shortest_paths(L, "0", "t")) == 2

    def test_worked_color_census(self):
        D = build_d_a(BOX24)
        for p in enumerate_shortest_paths(D, (4, 4), (1, 1)):
            _, asc, desc = path_stats(p)
            assert asc + desc == {2: 1, 4: 1, 5: 1}

    def test_cap_exceeded_is_distinct(self):
        L = build_l_a(BoxSpec(3, 6))
        with pytest.raises(PathCapExceeded):
            enumerate_shortest_paths(L, L.minimum, L.maximum, cap=2)

    def test_records_are_made_only_under_the_cap(self):
        # bottom -> top of D(3,6) has 42 geodesics, its maximal chains; the
        # search collects vertex trails and makes their records only once
        # it has finished under the cap, so the 42nd path over a cap of 41
        # raises before any record is made
        D = build_d_a(BoxSpec(3, 6))
        s, t = D.minimum, D.maximum

        def chains(v):
            if v == t:
                return [(v,)]
            return [(v,) + rest for w, _ in D.up_neighbors(v) for rest in chains(w)]

        paths, calls = count_calls([path_from_vertices],
                                   lambda: enumerate_shortest_paths(D, s, t, cap=42))
        assert calls == {"path_from_vertices": 42}, calls
        assert sorted(p.vertices for p in paths) == sorted(chains(s))

        def over_the_cap():
            with pytest.raises(PathCapExceeded, match="^more than 41 shortest paths$"):
                enumerate_shortest_paths(D, s, t, cap=41)

        _, calls = count_calls([path_from_vertices], over_the_cap)
        assert calls == {}, calls


class TestConstructedIso:
    def test_identity(self):
        L = build_d_a(BOX24)
        assert check_constructed_iso(L, L, {v: v for v in L.vertices})

    def test_collapsing_map_fails(self):
        L = chain_lattice(3)
        assert not check_constructed_iso(L, L, {0: 0, 1: 0, 2: 2})

    def test_color_mismatch_fails(self):
        A = ColoredLattice("ab", [("a", "b", 1)])
        B = ColoredLattice("ab", [("a", "b", 2)])
        assert not check_constructed_iso(A, B, {"a": "a", "b": "b"})


class TestLatticeLaws:
    def test_l24_report(self):
        L = build_l_graph(BOX24)
        report = check_lattice_laws(L)
        assert report["is_lattice"] and report["modular"]
        assert report["distributive"] and report["rank_identity"]

    def test_pentagon_not_modular(self):
        N5 = ColoredLattice("0abct", [("0", "a", 1), ("a", "t", 2),
                                      ("0", "b", 1), ("b", "c", 2),
                                      ("c", "t", 3)])
        report = check_lattice_laws(N5)
        assert report["is_lattice"] and not report["modular"]

    def test_every_ideal_lattice_is_distributive(self):
        import random
        rng = random.Random(1)
        for _ in range(10):
            report = check_lattice_laws(j_lattice(random_colored_poset(rng, 6)))
            assert report["distributive"]


class TestRandomPosets:
    def test_reproducible(self):
        import random
        a = random_colored_poset(random.Random(5), 8)
        b = random_colored_poset(random.Random(5), 8)
        assert a == b

    def test_respects_bounds(self):
        import random
        rng = random.Random(6)
        for _ in range(30):
            P = random_colored_poset(rng, 5, 2)
            assert len(P) <= 5
            assert all(c <= 2 for c in P.colors.values())


class TestClosedFormAgainstBuiltLattice:
    """The phi extremes and the cell census against the built Domino lattice."""

    @pytest.mark.parametrize("spec", DESK_SPECS, ids=lambda s: f"k{s.k}N{s.N}")
    def test_extremes(self, spec):
        D = build_d_a(spec)
        assert d_min(spec) == D.minimum == phi(spec, (0,) * spec.k)
        assert d_max(spec) == D.maximum == phi(spec, (spec.cols,) * spec.k)
        assert m_diag(spec) == partition_to_diagonal(spec, D.minimum)

    @pytest.mark.parametrize("spec", DESK_SPECS, ids=lambda s: f"k{s.k}N{s.N}")
    def test_census_equals_the_bareiss_solve_and_sums_to_the_rank(self, spec):
        D = build_d_a(spec)
        ranks = D.ranks
        for sigma in D.vertices:
            diag = partition_to_diagonal(spec, sigma)
            census = decompose(spec, diag)
            assert census == bareiss_decompose(spec, diag)
            assert sum(census) == ranks[sigma]

    def test_bareiss_route_rejects_an_invalid_diagonal(self):
        with pytest.raises(ValueError):
            bareiss_decompose(BOX24, (2, 0, 0, 0, 0))
