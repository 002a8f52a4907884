"""Diamond-colored distributive lattices and the Domino Game.

Build the type-A fundamental lattices in four coordinatizations, the
Domino Game digraph, the explicit isomorphism between them, and solve
move-minimizing games in closed form, with brute-force oracles checking
everything at desk scale.

The names below are exported lazily: `import dominolattice` loads no
submodule, and the first use of a name imports the one submodule it
lives in, so a process pays only for what it runs.
"""

from importlib import import_module as _import_module

__version__ = "1.0.0"

# Each exported name, listed under the submodule it lives in.
_EXPORTS = {
    "lattice": ("ColoredLattice", "LatticeError", "PathRecord", "birkhoff_failure",
                "check_full_length_sublattice", "full_length_witness", "mountainize",
                "path_stats", "product", "valleyize"),
    "poset": ("PosetError", "VertexColoredPoset", "canonical_iso_to_ideals",
              "canonical_iso_to_filters", "disjoint_sum", "dual",
              "enumerate_order_ideals", "j_lattice", "join_irreducibles",
              "m_lattice", "meet_irreducibles", "recolor"),
    "typea": ("BoxSpec", "CircleState", "build_l_a", "build_l_tab",
              "build_l_tilde", "build_p_a", "diagonal_to_partition",
              "ideal_to_partition", "partition_join", "partition_meet",
              "partition_rank", "partition_to_diagonal", "partition_to_ideal",
              "partition_to_tableau_L", "tableau_to_circle",
              "tableau_to_partition_L"),
    "domino": ("beta_circ", "beta_diag", "beta_part", "build_d_a", "d_max", "d_min",
               "gamma_ct", "gamma_pt", "gamma_tc", "gamma_tp",
               "is_legal_domino_move", "is_red", "m_diag"),
    "isomorphism": ("BoxPermutation", "MoveMatrix", "apply_p", "decompose",
                    "move_census", "move_matrix", "phi", "phi_circ", "phi_inverse",
                    "pi"),
    "solver": ("GameSolution", "color_census", "solve_distributive", "solve_domino"),
    "oracle": ("PathCapExceeded", "bareiss_decompose", "bfs_all_pairs",
               "check_constructed_iso", "check_lattice_laws", "enumerate_shortest_paths",
               "ideal_greedy_solve", "is_diamond_colored", "is_distributive",
               "is_modular", "is_topographically_balanced", "rank_function",
               "rank_identity_failure"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = tuple(_HOME)


def __getattr__(name):
    """Import the submodule that `name` lives in and bind `name` here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
