"""Law-level properties over randomly generated structures."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from dominolattice.domino import is_legal_domino_move
from dominolattice.isomorphism import move_census, phi_inverse
from dominolattice.lattice import ColoredLattice, path_stats, product, sort_key
from dominolattice.oracle import (bfs_all_pairs, cell_census,
                                  enumerate_shortest_paths, ideal_greedy_solve,
                                  is_diamond_colored,
                                  is_distributive,
                                  is_modular, is_topographically_balanced,
                                  random_colored_poset, random_simple_path,
                                  rank_function)
from dominolattice.poset import (canonical_iso_to_ideals, disjoint_sum, dual,
                                 j_lattice, join_irreducibles, m_lattice,
                                 recolor)
from dominolattice.solver import solve_distributive, solve_domino
from dominolattice.typea import (BoxSpec, all_partitions,
                                 diagonal_to_partition, partition_to_diagonal,
                                 partition_to_tableau_L,
                                 tableau_to_partition_L)

from conftest import iso_verdict

SMALL_SPECS = st.sampled_from(
    [BoxSpec(k, N) for k in range(1, 7) for N in range(k + 1, 11)
     if k * (N - k) <= 10])


@st.composite
def domino_games(draw):
    """A box with N <= 24, two of its shapes and a route."""
    N = draw(st.integers(2, 24))
    spec = BoxSpec(draw(st.integers(1, N - 1)), N)
    shape = st.lists(st.integers(0, spec.cols), min_size=spec.k, max_size=spec.k)
    sigma, tau = (tuple(sorted(draw(shape), reverse=True)) for _ in range(2))
    return spec, sigma, tau, draw(st.sampled_from(("join", "meet")))


def poset_from_seed(seed, max_vertices=6, max_colors=3):
    return random_colored_poset(random.Random(seed), max_vertices, max_colors)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_ideal_lattices_are_diamond_colored_distributive_balanced(seed):
    L = j_lattice(poset_from_seed(seed, 7))
    assert is_diamond_colored(L)
    assert is_distributive(L)
    assert is_modular(L)
    assert is_topographically_balanced(L)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_filter_lattices_are_diamond_colored_distributive(seed):
    L = m_lattice(poset_from_seed(seed, 7))
    assert is_diamond_colored(L)
    assert is_distributive(L)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_distributive_implies_modular(seed):
    L = j_lattice(poset_from_seed(seed, 6))
    assert not is_distributive(L) or is_modular(L)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_rank_equals_ideal_size(seed):
    P = poset_from_seed(seed, 7)
    L = j_lattice(P)
    ranks = rank_function(L)
    assert all(ranks[x] == len(x) for x in L.vertices)
    assert L.length == len(P)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_canonical_ideal_map_is_an_isomorphism(seed):
    L = j_lattice(poset_from_seed(seed, 6))
    H = j_lattice(join_irreducibles(L))
    assert iso_verdict(L, H, {x: canonical_iso_to_ideals(L, x) for x in L.vertices})


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_sum_goes_to_product_for_both_constructions(seed_a, seed_b):
    P, Q = poset_from_seed(seed_a, 5), poset_from_seed(seed_b, 5)
    for build in (j_lattice, m_lattice):
        S = build(disjoint_sum(P, Q))
        split = {x: (frozenset(v for t, v in x if t == 0),
                     frozenset(v for t, v in x if t == 1))
                 for x in S.vertices}
        assert iso_verdict(S, product(build(P), build(Q)), split)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_dual_and_recolor_families(seed):
    P = poset_from_seed(seed, 6)
    sigma = {c: c + 11 for c in set(P.colors.values())}
    for build in (j_lattice, m_lattice):
        built = build(P)
        comp = {x: frozenset(set(P.vertices) - x)
                for x in build(dual(P)).vertices}
        assert iso_verdict(build(dual(P)), built.dual(), comp)
        tinted = ColoredLattice(built.vertices,
                                [(a, b, sigma[c]) for a, b, c in built.edges])
        assert iso_verdict(build(recolor(P, sigma)), tinted,
                           {x: x for x in built.vertices})


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_path_length_decomposes_into_censuses(seed):
    rng = random.Random(seed)
    L = j_lattice(random_colored_poset(rng, 6, 3, min_vertices=1))
    p = random_simple_path(L, rng)
    length, asc, desc = path_stats(p)
    assert length == sum(asc.values()) + sum(desc.values())
    ranks = L.ranks
    assert (ranks[p.vertices[-1]] - ranks[p.vertices[0]]
            == sum(asc.values()) - sum(desc.values()))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_saturated_up_paths_agree_in_length_and_ascents(seed):
    # two saturated climbs between the same endpoints use the same colors
    rng = random.Random(seed)
    L = j_lattice(random_colored_poset(rng, 7))
    verts = list(L.vertices)
    s = rng.choice(verts)
    above = [t for t in verts if t != s and L.le(s, t)]
    if not above:
        return
    t = rng.choice(above)
    censuses = set()
    stack = [(s, ())]
    while stack:
        v, colors = stack.pop()
        if v == t:
            censuses.add(tuple(sorted(colors)))
            continue
        for w, c in L.up_neighbors(v):
            if L.le(w, t):
                stack.append((w, colors + (c,)))
    assert len(censuses) == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_solver_distance_matches_bfs_on_random_ideal_lattices(seed):
    rng = random.Random(seed)
    P = random_colored_poset(rng, 6)
    L = j_lattice(P)
    dist = bfs_all_pairs(L)
    verts = list(L.vertices)
    for _ in range(5):
        s, t = rng.choice(verts), rng.choice(verts)
        assert solve_distributive(P, s, t).distance == dist[(s, t)]


@settings(max_examples=50, deadline=None)
@given(SMALL_SPECS, st.integers(0, 10**9))
def test_coordinate_round_trips(spec, seed):
    rng = random.Random(seed)
    parts = rng.choice(all_partitions(spec))
    assert tableau_to_partition_L(spec, partition_to_tableau_L(spec, parts)) == parts
    assert diagonal_to_partition(spec, partition_to_diagonal(spec, parts)) == parts


@st.composite
def box_shapes(draw):
    """A box with N <= 60 and one of its shapes."""
    N = draw(st.integers(2, 60))
    spec = BoxSpec(draw(st.integers(1, N - 1)), N)
    parts = draw(st.lists(st.integers(0, spec.cols), min_size=spec.k, max_size=spec.k))
    return spec, tuple(sorted(parts, reverse=True))


@settings(max_examples=100, deadline=None)
@given(box_shapes())
def test_diagonal_codec_and_move_census_are_the_cell_census(shape):
    spec, parts = shape
    diag = partition_to_diagonal(spec, parts)
    assert diag == cell_census(spec, parts)
    assert diagonal_to_partition(spec, diag) == parts
    assert move_census(spec, parts) == cell_census(spec, phi_inverse(spec, parts))


@settings(max_examples=20, deadline=None)
@given(SMALL_SPECS)
def test_shortest_path_censuses_are_invariants(spec):
    from dominolattice.domino import build_d_a
    D = build_d_a(spec)
    rng = random.Random(spec.k * 1000 + spec.N)
    verts = list(D.vertices)
    s, t = rng.choice(verts), rng.choice(verts)
    censuses = set()
    for p in enumerate_shortest_paths(D, s, t, cap=5000):
        _, asc, desc = path_stats(p)
        censuses.add(frozenset((asc + desc).items()))
    assert len(censuses) <= 1


@settings(max_examples=100, deadline=None)
@given(domino_games())
def test_domino_walk_matches_the_ideal_oracle_beyond_the_small_boxes(game):
    # large k reaches the vertical dominoes, where a hop moves two rows
    spec, sigma, tau, via = game
    got = solve_domino(spec, sigma, tau, via=via)
    want = ideal_greedy_solve(spec, sigma, tau, via=via)
    assert got.distance == want.distance
    assert got.per_color == want.per_color
    assert got.waypoint == want.waypoint
    assert got.path.vertices == want.path.vertices
    assert got.path.steps == want.path.steps
    verts = got.path.vertices
    assert all(is_legal_domino_move(spec, v, w) for v, w in zip(verts, verts[1:]))
    assert list(got.per_color) == sorted(got.per_color)


def isinstance_sort_key(v):
    """sort_key as one isinstance chain, the definition its type dispatch keeps."""
    if isinstance(v, frozenset):
        return (2, tuple(sorted(isinstance_sort_key(x) for x in v)))
    if isinstance(v, tuple):
        return (1, tuple(isinstance_sort_key(x) for x in v))
    if type(v) is int:
        return (0, "int", v)
    return (0, type(v).__name__, repr(v))


class Small(int):
    pass


MIXED_LABELS = st.recursive(
    st.one_of(st.booleans(), st.integers(-20, 20),
              st.integers(-20, 20).map(Small), st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3).map(tuple),
                            st.frozensets(inner, max_size=3)),
    max_leaves=12)


def sharing_members(labels):
    """labels, then tuples and frozensets built from the very same objects."""
    return labels + [tuple(labels), frozenset(labels),
                     (tuple(labels[:2]), tuple(labels[:1])),
                     frozenset({tuple(labels[1:3]), frozenset(labels[:2])})]


@settings(max_examples=100, deadline=None)
@given(st.lists(MIXED_LABELS, max_size=12).map(sharing_members))
def test_sort_key_orders_mixed_labels_as_the_isinstance_chain(labels):
    want = [isinstance_sort_key(v) for v in labels]
    assert [sort_key(v) for v in labels] == want
    assert sorted(labels, key=sort_key) == sorted(labels, key=isinstance_sort_key)
