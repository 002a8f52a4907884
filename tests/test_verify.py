import inspect
from math import comb

import pytest

from dominolattice import lattice, oracle, poset, solver, verify
from dominolattice.cli import main
from dominolattice.domino import build_d_a
from dominolattice.isomorphism import (_bareiss_forward, _determinant, _phi,
                                       move_matrix)
from dominolattice.lattice import ColoredLattice, CoverDigraph, product
from dominolattice.poset import join_irreducibles, meet_irreducibles
from dominolattice.suites import DEFAULTS, SUITE_FLAGS
from dominolattice.typea import (BoxSpec, _partition_to_ideal, build_l_graph, build_l_tab,
                                 build_l_tilde, validate_diagonal, validate_entries,
                                 validate_partition)
from dominolattice.verify import SUITES, run_suite

from conftest import count_calls


@pytest.mark.parametrize("suite", SUITES)
def test_every_suite_passes_on_the_main_example(suite):
    result = run_suite(suite, k=2, N=6, seed=3)
    assert result["passed"], result["checks"]


def test_reports_carry_named_checks():
    result = run_suite("iso", k=2, N=5)
    names = {c["name"] for c in result["checks"]}
    assert any("isomorphism" in n for n in names)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("bogus")


@pytest.mark.parametrize("suite", SUITES)
def test_each_suite_takes_the_flags_the_table_lists(suite):
    # run_suite passes the listed flags' values positionally, in table order
    params = list(inspect.signature(getattr(verify, f"suite_{suite}")).parameters)
    assert params == [flag.lstrip("-") for flag in SUITE_FLAGS[suite]]


def test_a_suite_added_to_the_table_runs_with_exactly_its_flags(monkeypatch):
    # adding a suite takes one table entry and its function, no dispatch branch
    monkeypatch.setitem(SUITE_FLAGS, "probe", ("--seed", "-N"))
    monkeypatch.setattr(verify, "suite_probe", lambda *values: {"passed": True, "got": values},
                        raising=False)
    assert run_suite("probe", k=3, N=7, seed=11)["got"] == (11, 7)
    assert run_suite("probe")["got"] == (DEFAULTS["--seed"], DEFAULTS["-N"])


def test_each_lattice_runs_the_birkhoff_pass_once():
    # build_d_a asserts the certificate, and the structure suite and both
    # irreducibles' posets read the verdict it left on D; each reran the pass
    for cached in (build_l_graph, build_d_a, build_l_tilde, build_l_tab):
        cached.cache_clear()
    spec = BoxSpec(3, 7)

    def run():
        D = build_d_a(spec)
        passed = verify.suite_structure(spec.k, spec.N)["passed"]
        return passed, len(join_irreducibles(D)), len(meet_irreducibles(D))

    result, calls = count_calls([lattice._birkhoff_pass], run)
    assert result == (True, 12, 12)
    # L_A, D_A, L_tilde and L_tab, one pass each
    assert calls == {"_birkhoff_pass": 4}, calls


def test_fundamental_is_seed_stable():
    a = run_suite("fundamental", seed=12)
    b = run_suite("fundamental", seed=12)
    assert a == b


def test_failing_structure_check_names_its_witness(monkeypatch):
    D = build_d_a(BoxSpec(3, 7))
    (a, b, c), *rest = D.edges
    mutant = ColoredLattice(D.vertices, [(a, b, c + 1)] + rest)
    monkeypatch.setattr(verify, "build_d_a", lambda spec: mutant)
    result = run_suite("structure", k=3, N=7)
    assert result["passed"] is False
    by_name = {check["name"]: check for check in result["checks"]}
    failed = by_name.pop("D_A structure and rank identity")
    assert failed["passed"] is False
    assert any(repr(v) in failed["witness"] for v in mutant.vertices)
    assert all(check == {"name": check["name"], "passed": True}
               for check in by_name.values())


def test_failing_iso_check_names_its_witness(monkeypatch):
    spec = BoxSpec(3, 7)
    u, v = build_l_graph(spec).vertices[3:5]
    swap = {u: v, v: u}
    monkeypatch.setattr(verify, "_phi", lambda spec, p: _phi(spec, swap.get(p, p)))
    result = run_suite("iso", k=3, N=7)
    assert result["passed"] is False
    failed = result["checks"][0]
    assert failed["name"] == "phi is a color-preserving isomorphism"
    assert failed["passed"] is False
    assert repr(u) in failed["witness"] or repr(v) in failed["witness"], failed
    assert set(failed) == {"name", "passed", "witness"}


def test_failing_fundamental_family_names_its_witness(monkeypatch):
    # the product with its factors swapped has the pairs of the sum's
    # split map the other way round
    monkeypatch.setattr(verify, "product", lambda A, B: product(B, A))
    result = run_suite("fundamental", seed=0)
    by_name = {check["name"]: check for check in result["checks"]}
    failed = by_name.pop("sum/product family")
    assert failed["passed"] is False
    assert "which is not a vertex of the target" in failed["witness"], failed
    assert all(check == {"name": check["name"], "passed": True}
               for check in by_name.values())


def test_iso_suite_maps_each_vertex_through_phi_once(monkeypatch):
    calls = []

    def counting_phi(spec, sigma):
        calls.append(sigma)
        return _phi(spec, sigma)

    monkeypatch.setattr(verify, "_phi", counting_phi)
    result = run_suite("iso", k=3, N=7)
    assert result["passed"]
    assert sorted(calls) == sorted(build_l_graph(BoxSpec(3, 7)).vertices)


def test_iso_suite_validates_each_shape_at_most_once():
    # the suite's shapes are vertices of the lattices it builds, so its
    # checks run on unchecked cores; a validator called per check and
    # shape would run several times C(N, k)
    for cached in (build_l_graph, build_d_a, move_matrix):
        cached.cache_clear()
    result, calls = count_calls([validate_partition, validate_diagonal, validate_entries],
                                lambda: verify.suite_iso(4, 10))
    assert result["passed"]
    assert all(n <= comb(10, 4) for n in calls.values()), calls


def test_solver_suite_validates_each_shape_at_most_once():
    # the all-pairs loop and the census pairs solve on D's vertices, so
    # they call the unchecked Domino core; the checked solve validated
    # both shapes of every pair, twice C(N, k) squared times
    result, calls = count_calls([validate_partition],
                                lambda: verify.suite_solver(3, 8))
    assert result["passed"]
    assert calls["validate_partition"] <= comb(8, 3), calls


def test_solver_suite_reads_no_ideal():
    # L's distances are read off the shapes, row by row, so the suite
    # makes no ideal and reads none into a poset mask
    result, calls = count_calls([poset._ideal_mask, _partition_to_ideal],
                                lambda: verify.suite_solver(3, 8))
    assert result["passed"]
    assert calls == {}, calls


def test_solver_suite_reads_each_shape_into_its_masks_once():
    # the all-pairs loop and the census pairs play on tableau masks read
    # once per shape, not twice per solve, 2 C(N, k)^2 + 20 reads
    result, calls = count_calls([solver._shape_masks], lambda: verify.suite_solver(3, 8))
    assert result["passed"]
    assert calls["_shape_masks"] == comb(8, 3), calls


def test_solver_suite_reports_a_capped_census_pair_as_a_domain_error(monkeypatch, capsys):
    # a census pair with more shortest paths than the cap is a ValueError
    # naming the pair and the cap; the CLI prints one error line, exits 2
    # and writes nothing to stdout
    enumerate_shortest_paths = oracle.enumerate_shortest_paths
    monkeypatch.setattr(oracle, "enumerate_shortest_paths",
                        lambda L, s, t: enumerate_shortest_paths(L, s, t, cap=1))
    with pytest.raises(ValueError,
                       match=r"^census pair \(\d, \d\) -> \(\d, \d\): more than 1 shortest paths$"):
        verify.suite_solver(2, 5, seed=0)
    assert main(["verify", "--suite", "solver", "-k", "2", "-N", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: census pair "), err


def test_iso_suite_eliminates_the_move_matrix_once():
    # move_matrix rejects a singular P by its determinant, and the suite
    # asks whether P is unimodular: one Bareiss elimination serves both
    for cached in (move_matrix, _determinant):
        cached.cache_clear()
    result, calls = count_calls([_bareiss_forward], lambda: verify.suite_iso(3, 8))
    assert result["passed"]
    assert calls["_bareiss_forward"] == 1, calls


def test_solver_suite_eliminates_the_move_matrix_at_most_twice():
    # the Bareiss oracle inverts P once per box and multiplies for each
    # shape; with the determinant that move_matrix checks, two eliminations
    for cached in (move_matrix, _determinant, oracle._move_matrix_inverse):
        cached.cache_clear()
    result, calls = count_calls([_bareiss_forward], lambda: verify.suite_solver(3, 8))
    assert result["passed"]
    assert 1 <= calls["_bareiss_forward"] <= 2, calls


def test_fundamental_suite_builds_each_lattice_and_poset_once():
    # per theorem round: J(P) or M(P), its irreducibles' poset and that
    # poset's lattice; per family round: dual(P), recolor(P) and P + Q
    # once, and J(P) reused in the product.  Building the irreducibles'
    # posets, dual(P), J(dual(P)) and J(P) twice made 700 lattices and
    # 500 posets.  Builds are counted where every one of them links its
    # covers, since J, M, products and duals skip the public constructor.
    result, calls = count_calls([CoverDigraph._link], lambda: verify.suite_fundamental(0),
                                by_class=True)
    assert result["passed"]
    assert 0 < calls["ColoredLattice._link"] <= 600, calls
    assert 0 < calls["VertexColoredPoset._link"] <= 275, calls


def test_fundamental_suite_reads_up_sets_only_for_orders_without_a_rank():
    # a rank per connected component certifies the covers; the depth
    # below the maximal elements alone left 53 of the 275 posets to the
    # up-sets
    result, calls = count_calls([CoverDigraph._reject_non_covers],
                                lambda: verify.suite_fundamental(0), by_class=True)
    assert result["passed"]
    assert calls == {"VertexColoredPoset._reject_non_covers": 12}, calls
