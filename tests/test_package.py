"""The package surface: lazy top-level exports, what a command imports,
and the `python -m dominolattice` entry point."""

import ast
import importlib
import os
import subprocess
import sys
import tomllib

import pytest

import dominolattice

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Every top-level name, written out under the submodule it lives in.
EXPORTS = {
    "lattice": ["ColoredLattice", "LatticeError", "PathRecord", "birkhoff_failure",
                "check_full_length_sublattice", "full_length_witness",
                "mountainize", "path_stats", "product", "valleyize"],
    "poset": ["PosetError", "VertexColoredPoset", "canonical_iso_to_ideals",
              "canonical_iso_to_filters", "disjoint_sum", "dual",
              "enumerate_order_ideals", "j_lattice", "join_irreducibles", "m_lattice",
              "meet_irreducibles", "recolor"],
    "box": ["BoxPermutation", "BoxSpec", "pi"],
    "typea": ["CircleState", "build_l_a", "build_l_tab", "build_l_tilde",
              "build_p_a", "diagonal_to_partition", "ideal_to_partition",
              "partition_join", "partition_meet", "partition_rank",
              "partition_to_diagonal", "partition_to_ideal", "partition_to_tableau_L",
              "tableau_to_circle", "tableau_to_partition_L"],
    "domino": ["beta_circ", "beta_diag", "beta_part", "build_d_a", "d_max", "d_min",
               "gamma_ct", "gamma_pt", "gamma_tc", "gamma_tp", "is_legal_domino_move",
               "is_red", "m_diag"],
    "isomorphism": ["MoveMatrix", "apply_p", "decompose", "move_census",
                    "move_matrix", "phi", "phi_circ", "phi_inverse"],
    "solver": ["GameSolution", "color_census", "solve_distributive", "solve_domino"],
    "oracle": ["PathCapExceeded", "bareiss_decompose", "bfs_all_pairs",
               "check_constructed_iso", "check_lattice_laws", "enumerate_shortest_paths",
               "ideal_greedy_solve", "is_diamond_colored", "is_distributive",
               "is_modular", "is_topographically_balanced", "rank_function",
               "rank_identity_failure"],
}
NAMES = [name for names in EXPORTS.values() for name in names]

# Names a module imports only to export them: `typea` re-exports the box,
# and `domino` and `isomorphism` the permutation, that `box` defines.
RE_EXPORTS = {("typea", "BoxSpec"), ("domino", "BoxPermutation"),
              ("isomorphism", "BoxPermutation"), ("isomorphism", "pi")}

# Modules a solve or convert never runs, so its process must not load them.
NOT_ON_THE_SOLVE_PATH = ("dominolattice.verify", "dominolattice.oracle",
                         "dominolattice.io", "fractions", "dataclasses", "inspect")

# What each command runs (it must load that module) and the package modules
# it does not run, beyond NOT_ON_THE_SOLVE_PATH: a solve walks tableau masks
# with the box's move table and builds no lattice, a convert maps
# coordinates or applies phi, a family export builds a lattice from its
# edge rule and writes JSON itself, and family A's builds no Domino lattice.
LATTICE_LAYERS = ("dominolattice.lattice", "dominolattice.poset")
COMMAND_IMPORTS = {
    "solve": ("dominolattice.solver", LATTICE_LAYERS + ("dominolattice.isomorphism",
                                                        "dominolattice.typea",
                                                        "dominolattice.domino")),
    "convert": ("dominolattice.isomorphism", LATTICE_LAYERS + ("dominolattice.solver",)),
    "lattice": ("dominolattice.lattice", ("dominolattice.poset", "dominolattice.isomorphism",
                                          "dominolattice.solver", "dominolattice.domino")),
}

# What each verify suite runs (it must load that module) and the layers
# it does not call: the structure certificate reads only the lattice
# module and the builders, phi's check the oracle's isomorphism test, the
# fundamental theorems the poset builders and the oracle's random posets,
# and the solver suite the Domino solver, reading L's distances off the
# shapes.
SUITE_IMPORTS = {
    "structure": ("dominolattice.lattice", ("dominolattice.oracle", "dominolattice.poset",
                                            "dominolattice.solver", "dominolattice.isomorphism",
                                            "fractions")),
    "iso": ("dominolattice.lattice", ("dominolattice.oracle", "dominolattice.poset",
                                      "dominolattice.solver", "fractions")),
    "fundamental": ("dominolattice.poset", ("dominolattice.solver", "dominolattice.typea",
                                            "dominolattice.domino", "dominolattice.isomorphism",
                                            "fractions")),
    "solver": ("dominolattice.solver", ("dominolattice.poset",)),
}

# The modules that know the order core's internals (its masks and index
# tables): the core itself and the poset subclass built on it.
KNOW_THE_CORE = ("lattice.py", "poset.py")


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def imported_by(argv):
    """The modules a CLI run of argv imports, as `-X importtime` names them."""
    done = run_python("-X", "importtime", "-m", "dominolattice.cli", *argv.split())
    assert done.returncode == 0, done.stderr
    return {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:")}


class TestExports:
    def test_the_78_names(self):
        assert len(NAMES) == len(set(NAMES)) == 78
        assert sorted(dominolattice.__all__) == sorted(NAMES)

    @pytest.mark.parametrize("module, name",
                             [(m, n) for m, names in EXPORTS.items() for n in names])
    def test_each_name_is_the_object_in_its_home_module(self, module, name):
        home = importlib.import_module(f"dominolattice.{module}")
        assert getattr(dominolattice, name) is getattr(home, name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from dominolattice import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(NAMES)
        assert all(namespace[n] is getattr(dominolattice, n) for n in NAMES)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            dominolattice.no_such_name

    def test_dir_lists_every_name_and_the_version(self):
        assert set(NAMES) | {"__version__"} <= set(dir(dominolattice))
        assert dominolattice.__version__ == "1.0.0"


class TestImportBudget:
    @pytest.mark.parametrize("argv", [
        "solve -k 3 -N 7 --from 0 --to 4,4,4 --format json",
        "convert -k 3 -N 7 --map phi 4,2,1",
        "lattice --family A -k 2 -N 5",
    ])
    def test_commands_import_only_what_they_run(self, argv):
        done = run_python("-X", "importtime", "-m", "dominolattice.cli", *argv.split())
        assert done.returncode == 0, done.stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                    if line.startswith("import time:")}
        runs, skipped = COMMAND_IMPORTS[argv.split()[0]]
        assert runs in imported
        unused = set(NOT_ON_THE_SOLVE_PATH + skipped)
        assert imported.isdisjoint(unused), sorted(imported & unused)

    @pytest.mark.parametrize("argv", [
        "verify --suite structure -k 2 -N 5",
        "verify --suite iso -k 2 -N 5",
        "verify --suite fundamental --seed 1",
        "verify --suite solver -k 2 -N 5",
    ])
    def test_verify_loads_only_what_its_suite_runs(self, argv):
        imported = imported_by(argv)
        runs, skipped = SUITE_IMPORTS[argv.split()[2]]
        assert {"dominolattice.verify", runs} <= imported
        assert imported.isdisjoint(skipped), sorted(imported & set(skipped))

    @pytest.mark.parametrize("argv", [
        "solve -k 3 -N 7 --from 0 --to 4,4,4 --format json",
        "lattice --family A -k 2 -N 5",
        "lattice --family D -k 3 -N 7",
    ])
    def test_json_writers_load_no_json(self, argv):
        # the solve and family documents are written directly
        assert "json" not in imported_by(argv)

    def test_importing_the_cli_loads_no_lattice_phi_or_solver(self):
        done = run_python("-c", "import sys, dominolattice.cli; "
                          "print(sorted(m for m in sys.modules if m.startswith('dominolattice')))")
        assert done.returncode == 0, done.stderr
        loaded = set(ast.literal_eval(done.stdout))
        assert "dominolattice.cli" in loaded
        unused = set(LATTICE_LAYERS) | {"dominolattice.isomorphism", "dominolattice.solver"}
        assert loaded.isdisjoint(unused), sorted(loaded & unused)

    def test_a_library_solve_loads_only_the_box_records_and_solver(self):
        done = run_python("-c", "import sys; from dominolattice import BoxSpec, solve_domino; "
                          "solve_domino(BoxSpec(3, 7), (4, 2, 1), (0, 0, 0)); "
                          "print(sorted(m for m in sys.modules if m.startswith('dominolattice')))")
        assert done.returncode == 0, done.stderr
        assert ast.literal_eval(done.stdout) == [
            "dominolattice", "dominolattice.box", "dominolattice.records", "dominolattice.solver"]

    def test_the_permutation_loads_only_the_box_and_records(self):
        # pi and BoxPermutation live in the box, not behind phi
        done = run_python("-c", "import sys; from dominolattice import pi, BoxPermutation; pi(7); "
                          "print(sorted(m for m in sys.modules if m.startswith('dominolattice')))")
        assert done.returncode == 0, done.stderr
        assert ast.literal_eval(done.stdout) == [
            "dominolattice", "dominolattice.box", "dominolattice.records"]

    def test_bare_import_loads_no_submodule(self):
        done = run_python("-c", "import sys, dominolattice; "
                          "print(sorted(m for m in sys.modules if m.startswith('dominolattice')))")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "['dominolattice']"


class TestModuleEntryPoint:
    @pytest.mark.parametrize("argv", [
        "solve -k 2 -N 6 --from 4,4 --to 1,1",
        "solve -k 3 -N 9 --from 6,3,1 --to 0,0,0 --via meet --format json",
        "solve -k 2 -N 6 --from 9 --to 0",
        "solve -k 0 -N 6 --from 0 --to 0",
    ])
    def test_same_output_as_the_cli_module(self, argv):
        package = run_python("-m", "dominolattice", *argv.split())
        cli = run_python("-m", "dominolattice.cli", *argv.split())
        assert (package.stdout, package.stderr, package.returncode) \
            == (cli.stdout, cli.stderr, cli.returncode)


class TestImports:
    def test_no_module_imports_a_name_it_never_uses(self):
        package = os.path.join(SRC, "dominolattice")
        unused = []
        for filename in sorted(os.listdir(package)):
            if not filename.endswith(".py"):
                continue
            with open(os.path.join(package, filename)) as source:
                tree = ast.parse(source.read())
            imported = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported |= {a.asname or a.name.split(".")[0] for a in node.names}
                elif isinstance(node, ast.ImportFrom):
                    imported |= {a.asname or a.name for a in node.names}
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            module = filename[:-3]
            unused += [(module, name) for name in sorted(imported - used)
                       if (module, name) not in RE_EXPORTS]
        assert unused == []


class TestLayering:
    def test_the_box_imports_only_the_records_from_the_package(self):
        # a solve compiles the box, so the box compiles nothing else of the package
        with open(os.path.join(SRC, "dominolattice", "box.py")) as source:
            tree = ast.parse(source.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module if node.level == 0 else "." * node.level
                             + (node.module or ""))
            elif isinstance(node, ast.Import):
                imported |= {a.name for a in node.names}
        package = {m for m in imported if m.startswith(".") or m.startswith("dominolattice")}
        assert package == {".records"}, sorted(imported)

    def test_only_verify_imports_the_oracles(self):
        # no production module may lean on the slow references it is checked by
        package = os.path.join(SRC, "dominolattice")
        importers = []
        for filename in sorted(os.listdir(package)):
            if not filename.endswith(".py"):
                continue
            with open(os.path.join(package, filename)) as source:
                tree = ast.parse(source.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    paths = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    paths = [f"{node.module or ''}.{a.name}" for a in node.names]
                else:
                    continue
                if any("oracle" in path.split(".") for path in paths):
                    importers.append(filename)
        assert sorted(set(importers)) == ["verify.py"]

    def test_the_oracle_shares_no_census_with_what_it_checks(self):
        # the matrix route counts its shift cell by cell, not by the prefix count
        census = {"partition_to_diagonal", "_tableau_to_diagonal_L", "move_census",
                  "decompose"}
        with open(os.path.join(SRC, "dominolattice", "oracle.py")) as source:
            tree = ast.parse(source.read())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update((node.name, node.asname))
        assert not names & census, sorted(names & census)
        assert "cell_census" in names


class TestSupportedPython:
    def test_every_module_parses_as_the_oldest_supported_python(self):
        with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), "rb") as handle:
            assert tomllib.load(handle)["project"]["requires-python"] == ">=3.10"
        package = os.path.join(SRC, "dominolattice")
        for filename in sorted(os.listdir(package)):
            if filename.endswith(".py"):
                with open(os.path.join(package, filename)) as source:
                    ast.parse(source.read(), filename, feature_version=(3, 10))

    def test_the_check_rejects_newer_syntax(self):
        with pytest.raises(SyntaxError):
            ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                      feature_version=(3, 10))


class TestEncapsulation:
    def test_only_the_order_core_reads_private_attributes_of_other_objects(self):
        package = os.path.join(SRC, "dominolattice")
        readers = {}
        for filename in sorted(os.listdir(package)):
            if not filename.endswith(".py"):
                continue
            with open(os.path.join(package, filename)) as source:
                tree = ast.parse(source.read())
            reads = [ast.unparse(node) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and node.attr.startswith("_") and not node.attr.startswith("__")
                     and not (isinstance(node.value, ast.Name)
                              and node.value.id in ("self", "cls"))]
            if reads:
                readers[filename] = sorted(set(reads))
        assert set(readers) <= set(KNOW_THE_CORE), readers
