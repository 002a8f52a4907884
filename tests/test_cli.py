import contextlib
import hashlib
import io
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dominolattice import io as serial
from dominolattice.cli import (_TEXT, _from_partition, fmt_partition, main, parse_partition,
                               render_partition)
from dominolattice.domino import build_d_a, d_max, d_min
from dominolattice.oracle import random_colored_poset
from dominolattice.solver import solve_domino
from dominolattice.suites import SUITES
from dominolattice.typea import BoxSpec, all_partitions, build_l_graph, build_p_a
from dominolattice.poset import PosetError, j_lattice

from conftest import DESK_SPECS


# Any JSON value, and documents near the poset schema: few vertices, so
# that the ideal lattice stays small, with ids and covers of any JSON type.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
POSET_IDS = st.sampled_from(["a", "b", "c", "d"]) | JSON_VALUES
POSET_DOCUMENTS = JSON_VALUES | st.fixed_dictionaries({
    "vertices": st.lists(st.fixed_dictionaries(
        {"id": POSET_IDS, "color": st.integers(0, 3) | JSON_VALUES}), max_size=5)
    | JSON_VALUES,
    "covers": st.lists(st.lists(POSET_IDS, max_size=3) | JSON_VALUES, max_size=5)
    | JSON_VALUES,
})


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestLatticeCommand:
    def test_family_a_json(self, capsys):
        code, out, _ = run_cli(capsys, "lattice", "--family", "A", "-k", "2", "-N", "5")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["vertices"]) == 10
        assert {"part", "tab", "circ", "diag", "rank"} <= set(doc["vertices"][0])

    def test_family_d_dot(self, capsys):
        code, out, _ = run_cli(capsys, "lattice", "--family", "D",
                               "-k", "2", "-N", "6", "--format", "dot")
        assert code == 0
        assert out.count(" -> ") == 20
        assert sum(1 for line in out.splitlines()
                   if line.strip().endswith('";')) == 15

    def test_dot_output_is_stable(self, capsys):
        _, first, _ = run_cli(capsys, "lattice", "--family", "D",
                              "-k", "2", "-N", "6", "--format", "dot")
        _, second, _ = run_cli(capsys, "lattice", "--family", "D",
                               "-k", "2", "-N", "6", "--format", "dot")
        assert first == second

    def test_bad_box_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "lattice", "-k", "0", "-N", "3")
        assert exc.value.code == 1

    def test_missing_box_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "lattice", "-k", "2")
        assert exc.value.code == 1

    def test_poset_file_input(self, capsys, tmp_path):
        import random
        P = random_colored_poset(random.Random(12), 5)
        target = tmp_path / "poset.json"
        target.write_text(json.dumps({
            "vertices": [{"id": v, "color": P.color(v)} for v in P.vertices],
            "covers": sorted(map(list, P.covers))}))
        code, out, _ = run_cli(capsys, "lattice", "--poset", str(target))
        assert code == 0
        assert out == serial.lattice_to_json(j_lattice(P))

    def test_unreadable_poset_file_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "lattice", "--poset", str(tmp_path / "absent.json"))
        assert code == 1 and out == ""
        assert err.startswith("error: cannot read")

    @pytest.mark.parametrize("text", [
        '{"vertices": [{"id": "a"}], "covers": []}', "[1]",
        '{"vertices": [{"id": "a", "color": 1}], "covers": [["a"]]}',
        '{"vertices": [{"id": "a", "color": 1}], "covers": [["a", "b", "c"]]}',
        '{"vertices": [{"id": "a", "color": 1}], "covers": [[["a"], "a"]]}',
        '{"vertices": [{"id": 1, "color": 1}], "covers": []}',
        '{"vertices": [{"id": "a", "color": 1}, {"id": "b", "color": 1}], "covers": ["ab"]}',
        '{"vertices": [], "covers": {"ab": 1}}',
        '{"vertices": [{"id": "c\\\\d", "color": 1}], "covers": []}',
        pytest.param("[" * 100_000, id="nested-too-deeply"),
        pytest.param('{"vertices": [', id="not-json"),
    ])
    def test_poset_of_wrong_schema_is_domain_error(self, capsys, tmp_path, text):
        target = tmp_path / "poset.json"
        target.write_text(text)
        code, _, err = run_cli(capsys, "lattice", "--poset", str(target))
        assert code == 2 and "schema" in err
        with pytest.raises(PosetError):
            serial.poset_from_json(text)

    def test_semicolon_in_an_id_is_domain_error(self, capsys, tmp_path):
        # ids a, b and a;b would all label the ideal {a, b} as {a;b}
        target = tmp_path / "poset.json"
        target.write_text('{"vertices": [{"id": "a", "color": 1}, {"id": "b", "color": 1}, '
                          '{"id": "a;b", "color": 2}], "covers": []}')
        code, out, err = run_cli(capsys, "lattice", "--poset", str(target))
        assert (code, out) == (2, "") and "'a;b'" in err

    def test_quote_in_an_id_is_domain_error(self, capsys, tmp_path):
        # a quote ends the DOT node name early
        target = tmp_path / "poset.json"
        target.write_text('{"vertices": [{"id": "x\\"y", "color": 1}], "covers": []}')
        code, out, err = run_cli(capsys, "lattice", "--poset", str(target),
                                 "--format", "dot")
        assert (code, out) == (2, "") and """'x"y'""" in err

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(POSET_DOCUMENTS)
    def test_poset_exit_code_contract(self, tmp_path, doc):
        target = tmp_path / "poset.json"
        target.write_text(json.dumps(doc))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(["lattice", "--poset", str(target)])
        assert code in (0, 2)

    @pytest.mark.parametrize("family, side", [("A", "L"), ("D", "D")])
    def test_exported_coordinates_convert_back(self, capsys, family, side):
        # the export and convert share the coordinate tables and the text
        # formats: each column of a vertex must parse back to its part
        _, out, _ = run_cli(capsys, "lattice", "--family", family, "-k", "3", "-N", "7")
        vertices = json.loads(out)["vertices"]
        assert len(vertices) == 35
        for vertex in vertices:
            for system in ("tab", "circ", "diag"):
                result = run_cli(capsys, "convert", "-k", "3", "-N", "7", "--from",
                                 f"{system}:{side}", "--to", "part", vertex[system])
                assert result == (0, vertex["part"] + "\n", ""), (system, vertex)

    def test_parts_listed_in_numeric_order(self, capsys):
        code, out, _ = run_cli(capsys, "lattice", "--family", "A", "-k", "1", "-N", "12")
        assert code == 0
        assert [v["part"] for v in json.loads(out)["vertices"]] == [str(i) for i in range(12)]


class TestConvertCommand:
    def test_partition_to_tableau(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "-k", "2", "-N", "6",
                               "--from", "part:L", "--to", "tab", "4,3")
        assert code == 0 and out.strip() == "{1,3}"

    def test_phi_inverse(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "-k", "2", "-N", "6",
                               "--map", "phi-inverse", "4,3")
        assert code == 0 and out.strip() == "1,1"

    @pytest.mark.parametrize("flags", [["--to", "tab"], ["--from", "part:L"],
                                       ["--from", "part:L", "--to", "tab"]])
    @pytest.mark.parametrize("mapping", ["phi", "phi-inverse"])
    def test_map_with_from_or_to_is_usage_error(self, capsys, mapping, flags):
        with pytest.raises(SystemExit) as exc:
            main(["convert", "-k", "2", "-N", "6", "--map", mapping, *flags, "4,3"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (1, "")
        assert "not both" in err

    def test_d_partition_to_diagonal(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "-k", "2", "-N", "6",
                               "--from", "part:D", "--to", "diag", "3,3")
        assert code == 0 and out.strip() == "(0,1,2,2,1)"

    def test_circle_to_partition(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "-k", "2", "-N", "6",
                               "--from", "circ:L", "--to", "part", "101000")
        assert code == 0 and out.strip() == "4,3"

    def test_invalid_shape_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "convert", "-k", "2", "-N", "6",
                               "--from", "part:L", "--to", "tab", "1,4")
        assert code == 2
        assert "position" in err or "decreasing" in err

    def test_unknown_system_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "convert", "-k", "2", "-N", "6",
                                 "--from", "foo:L", "--to", "part", "1")
        assert (code, out) == (2, "")
        assert err == "error: unknown coordinate system 'foo'\n"

    @pytest.mark.parametrize("k, N", [(2, 6), (3, 7)])
    @pytest.mark.parametrize("side", ["L", "D"])
    @pytest.mark.parametrize("system", ["part", "tab", "circ", "diag"])
    def test_every_shape_round_trips_through_every_system(self, capsys, system,
                                                          side, k, N):
        box = ["-k", str(k), "-N", str(N)]
        for parts in all_partitions(BoxSpec(k, N)):
            text = ",".join(str(p) for p in parts)
            code, coords, _ = run_cli(capsys, "convert", *box, "--from", f"part:{side}",
                                      "--to", system, text)
            assert code == 0
            code, back, _ = run_cli(capsys, "convert", *box, "--from", f"{system}:{side}",
                                    "--to", "part", coords.strip())
            assert (code, back) == (0, text + "\n")

    @settings(max_examples=300, deadline=None)
    @given(system=st.sampled_from(["part", "tab", "circ", "diag", "", "foo"])
           | st.text(max_size=6),
           side=st.sampled_from(["", ":L", ":D", ":", ":X"])
           | st.text(max_size=3).map(lambda t: ":" + t),
           dest=st.sampled_from(["part", "tab", "circ", "diag"]),
           value=st.text(alphabet=st.sampled_from("0123456789,(){}- \u0663"),
                         max_size=14) | st.text(max_size=8))
    def test_convert_exit_code_contract(self, system, side, dest, value):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main(["convert", "-k", "2", "-N", "6", f"--from={system}{side}",
                             "--to", dest, "--", value])
            except SystemExit as exc:
                assert exc.code == 1
                return
        assert code in (0, 2)


class TestSolveCommand:
    def test_worked_game(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "-k", "2", "-N", "6",
                               "--from", "4,3", "--to", "1,1")
        assert code == 0
        assert "distance: 3" in out

    def test_identity_game(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "-k", "2", "-N", "6",
                               "--from", "2,1", "--to", "2,1")
        assert code == 0 and "distance: 0" in out

    def test_four_move_game(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "-k", "5", "-N", "8",
                               "--from", "2,2,2,1", "--to", "3,3", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["distance"] == 4

    def test_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "-k", "2", "-N", "6",
                               "--from", "4,4", "--to", "1,1", "--format", "json")
        doc = json.loads(out)
        assert doc["distance"] == 3
        assert doc["per_color"] == {"2": 1, "4": 1, "5": 1}
        assert doc["path"][0] == "4,4" and doc["path"][-1] == "1,1"

    def test_mismatched_shape_reported(self, capsys):
        code, _, err = run_cli(capsys, "solve", "-k", "2", "-N", "6",
                               "--from", "1,2,3", "--to", "1,1")
        assert code == 2 and "too many parts" in err


class TestVerifyCommand:
    def test_iso_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "iso", "-k", "2", "-N", "5")
        assert code == 0
        assert json.loads(out)["iso"]["passed"]

    def test_fundamental_with_seed(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "fundamental",
                               "--seed", "7")
        assert code == 0
        assert json.loads(out)["fundamental"]["passed"]

    def test_solver_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "solver",
                               "-k", "2", "-N", "6")
        assert code == 0
        assert json.loads(out)["solver"]["passed"]

    def test_structure_suite_at_6_14(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "structure",
                               "-k", "6", "-N", "14")
        report = json.loads(out)["structure"]
        assert code == 0 and report["passed"]
        # L_tilde, with 9^6 vertices, is over the cap; L_tab is checked at every box
        assert [(c["name"], c["passed"]) for c in report["checks"]] == [
            ("L_A structure and rank identity", True),
            ("D_A structure and rank identity", True),
            ("L_tab structure and rank identity", True)]

    def test_all_suites_read_every_flag(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all",
                               "-k", "2", "-N", "4", "--seed", "1")
        report = json.loads(out)
        assert code == 0 and sorted(report) == sorted(SUITES)
        assert all(report[name]["passed"] for name in SUITES)

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "--suite", "nonsense")
        assert exc.value.code == 1

    @pytest.mark.parametrize("k, N", [("0", "5"), ("7", "5")])
    def test_bad_box_is_usage_error(self, capsys, k, N):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "--suite", "structure", "-k", k, "-N", N)
        assert exc.value.code == 1
        assert "need 1 <= k <= N-1" in capsys.readouterr().err


class TestPostParseUsageErrors:
    """Checks made after parsing print the subcommand's usage, not the top level's."""

    @pytest.mark.parametrize("argv, error", [
        (["convert", "-k", "2", "-N", "6", "4,3"],
         "convert needs either --map or both --from and --to"),
        (["convert", "-k", "2", "-N", "6", "--map", "phi", "--to", "tab", "4,3"],
         "convert takes --map or --from/--to, not both"),
        (["lattice", "-k", "2"], "lattice needs -k and -N (or --poset FILE)"),
        (["lattice", "--poset", "p.json", "-k", "2", "-N", "5"],
         "lattice takes --poset FILE or -k and -N, not both"),
        (["lattice", "--poset", "p.json", "-N", "5"],
         "lattice takes --poset FILE or -k and -N, not both"),
        (["lattice", "-k", "2", "-N", "4", "--construction", "M"],
         "lattice takes --construction only with --poset FILE"),
        (["lattice", "--poset", "p.json", "--family", "D"],
         "lattice takes --family only with -k and -N"),
        # a verify flag its suite does not read, even a box it would reject
        (["verify", "--suite", "fundamental", "-k", "0", "-N", "3"],
         "verify --suite fundamental does not read -k"),
        (["verify", "--suite", "fundamental", "-N", "9"],
         "verify --suite fundamental does not read -N"),
        (["verify", "--suite", "coordinates", "-k", "2", "-N", "6", "--seed", "5"],
         "verify --suite coordinates does not read --seed"),
        (["verify", "--suite", "iso", "--seed", "5"], "verify --suite iso does not read --seed"),
        (["verify", "--suite", "structure", "-k", "4", "-N", "10", "--seed", "0"],
         "verify --suite structure does not read --seed"),
        (["verify", "--suite", "transport", "--seed", "1"],
         "verify --suite transport does not read --seed"),
    ])
    def test_usage_names_the_subcommand(self, capsys, argv, error):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (1, "")
        assert err.startswith(f"usage: dominolattice {argv[0]} ")
        assert err.endswith(f"error: {error}\n")


class TestParsing:
    def test_trailing_zeros_normalized(self):
        spec = BoxSpec(3, 7)
        assert parse_partition(spec, "2,1") == (2, 1, 0)
        assert parse_partition(spec, "2,1,0") == (2, 1, 0)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_partition(BoxSpec(2, 6), "a,b")

    @pytest.mark.parametrize("text", [
        "1_0", "\u0663", "+3", "3,,1", "3,1,", ",3", ",", "(,)", "3 1", "0x3", "1e1",
        "3,\u00a01", "((1))", "(1", "1)", ")1(",
    ])
    def test_each_field_is_a_sign_and_ascii_digits(self, text):
        with pytest.raises(ValueError, match="cannot parse partition"):
            parse_partition(BoxSpec(3, 13), text)

    @pytest.mark.parametrize("text, parts", [
        ("", (0, 0, 0)), ("()", (0, 0, 0)), ("  ", (0, 0, 0)),
        ("(3,1)", (3, 1, 0)), (" 3 , 1 ", (3, 1, 0)), ("10,0,0", (10, 0, 0)),
    ])
    def test_brackets_spaces_and_omitted_zeros_still_parse(self, text, parts):
        assert parse_partition(BoxSpec(3, 13), text) == parts

    def test_field_longer_than_int_accepts_is_a_parse_error(self):
        with pytest.raises(ValueError, match="cannot parse partition"):
            parse_partition(BoxSpec(2, 6), "9" * 5000)

    def test_negative_field_parses_then_fails_as_a_shape(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_partition(BoxSpec(2, 6), "-1")

    @pytest.mark.parametrize("text", ["3,,1", "1_0", "\u0663"])
    def test_bad_field_exits_2_from_solve(self, capsys, text):
        code, out, err = run_cli(capsys, "solve", "-k", "3", "-N", "13",
                                 "--from", text, "--to", "0")
        assert (code, out) == (2, "")
        assert "cannot parse partition" in err

    @pytest.mark.parametrize("text", ["1_0", "+3", "\u0663"])
    @pytest.mark.parametrize("argv", [
        "solve -k @ -N 20 --from 0 --to 0",
        "solve -k 3 -N @ --from 0 --to 0",
        "verify --suite solver -k @ -N 6",
        "verify --suite solver -k 2 -N @",
        "verify --suite solver -k 2 -N 5 --seed @",
    ])
    def test_integer_flags_follow_the_field_rule(self, capsys, argv, text):
        # int() reads all three; a flag, like a partition field, is a sign and ASCII digits
        with pytest.raises(SystemExit) as exc:
            main([text if a == "@" else a for a in argv.split()])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (1, "")
        assert err.endswith(f"invalid int value: {text!r}\n")

    def test_integer_flag_longer_than_int_accepts_is_a_usage_error(self, capsys):
        nines = "9" * 5000
        with pytest.raises(SystemExit) as exc:
            main(["solve", "-k", nines, "-N", "6", "--from", "0", "--to", "0"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (1, "")
        assert err.endswith(f"invalid int value: {nines!r}\n")

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.sampled_from("0123456789,-+_() \u0663\u00a0x"),
                   max_size=12) | st.text(max_size=8))
    def test_solve_exit_code_contract(self, text):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main(["solve", "-k", "2", "-N", "6",
                             "--from", text, "--to", "0"])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)


class TestRendering:
    def test_glyphs(self):
        spec = BoxSpec(2, 6)
        art = render_partition(spec, (3, 1))
        assert art == "###r\n#..."

    def test_shaded_corner_is_hash(self):
        spec = BoxSpec(2, 6)
        assert render_partition(spec, (4, 1)).splitlines()[0] == "####"

    @pytest.mark.parametrize("parts, art", [
        ((11, 11, 11), "###########\n###########\n###########"),
        ((0, 0, 0), "..........r\n...........\n..........."),
        ((10, 4, 0), "##########r\n####.......\n..........."),
    ], ids=["full", "empty", "first-row-one-short"])
    def test_rows_of_a_wide_board(self, parts, art):
        assert render_partition(BoxSpec(3, 14), parts) == art


class TestSerialization:
    def test_repeated_vertex_ids_are_rejected(self):
        with pytest.raises(PosetError, match="unique"):
            serial.poset_from_json('{"vertices": [{"id": "a", "color": 1}, '
                                   '{"id": "a", "color": 2}], "covers": []}')

    def test_dot_labels_carry_colors(self):
        L = build_l_graph(BoxSpec(2, 5))
        dot = serial.lattice_to_dot(L)
        assert 'label="4"' in dot and "rank=same" in dot


def old_solve_json(spec, a, b, via):
    """The solve document as the dict that json.dumps printed, through the checked solve."""
    sol = solve_domino(spec, a, b, via)
    doc = {
        "distance": sol.distance,
        "per_color": {str(c): n for c, n in sorted(sol.per_color.items())},
        "waypoint": fmt_partition(sol.waypoint),
        "path": [fmt_partition(p) for p in sol.path.vertices],
        "steps": [{"color": c, "direction": d} for c, d in sol.path.steps],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def old_family_json(spec, family):
    """The family export as the dict that json.dumps printed, through the checked codecs."""
    L = build_l_graph(spec) if family == "A" else build_d_a(spec)
    side = "L" if family == "A" else "D"
    ranks = L.ranks
    doc = {
        "family": family,
        "k": spec.k,
        "N": spec.N,
        "vertices": [dict({s: _from_partition(spec, s, side, p) for s in _TEXT},
                          rank=ranks[p]) for p in L.vertices],
        "edges": [{"from": fmt_partition(a), "to": fmt_partition(b), "color": c}
                  for a, b, c in L.edges],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def solve_cases():
    """Seeded (box, from, to, via) cases up to (5,12): random pairs, equal
    endpoints, and the Domino extremes as endpoints, each by join and meet."""
    rng = random.Random(23)
    cases = []
    for k, N in [(1, 2), (1, 5), (2, 6), (3, 7), (3, 8), (4, 9), (4, 10), (5, 12)]:
        spec = BoxSpec(k, N)
        shapes = all_partitions(spec)
        pairs = [(rng.choice(shapes), rng.choice(shapes)) for _ in range(4)]
        same = rng.choice(shapes)
        pairs += [(same, same), (d_min(spec), rng.choice(shapes)),
                  (rng.choice(shapes), d_max(spec)), (d_max(spec), d_min(spec))]
        cases += [(spec, a, b, via) for a, b in pairs for via in ("join", "meet")]
    return cases


class TestJsonWriters:
    """The direct JSON writers print what json.dumps(doc, indent=2, sort_keys=True)
    printed of the documents the commands used to build."""

    @pytest.mark.parametrize("family", ["A", "D"])
    @pytest.mark.parametrize("spec", DESK_SPECS, ids=str)
    def test_family_export_on_every_desk_box(self, capsys, spec, family):
        code, out, err = run_cli(capsys, "lattice", "--family", family,
                                 "-k", str(spec.k), "-N", str(spec.N))
        assert (code, err) == (0, "")
        assert out == old_family_json(spec, family)

    @pytest.mark.parametrize("spec, a, b, via", solve_cases(), ids=str)
    def test_solve_on_seeded_pairs(self, capsys, spec, a, b, via):
        code, out, err = run_cli(capsys, "solve", "-k", str(spec.k), "-N", str(spec.N),
                                 "--from", fmt_partition(a), "--to", fmt_partition(b),
                                 "--via", via, "--format", "json")
        assert (code, err) == (0, "")
        assert out == old_solve_json(spec, a, b, via)


GOLDEN_POSET = ('{"vertices": [{"id": "a", "color": 1}, {"id": "b", "color": 2}, '
                '{"id": "c", "color": 1}, {"id": "d", "color": 3}], '
                '"covers": [["a", "b"], ["a", "c"], ["b", "d"]]}')


class TestGoldenOutput:
    """stdout of a few commands, pinned by sha256; any change to it is deliberate."""

    @pytest.mark.parametrize("argv, digest", [
        ("solve -k 2 -N 6 --from 4,4 --to 1,1",
         "d5c07e4028495c2800b909190dd5284467ff1a7f34d32482ab036efb57313514"),
        ("solve -k 2 -N 6 --from 4,4 --to 1,1 --via meet --format json",
         "d3dc3a283dbfd5b2d93deb5bded24840d030ef498a9f64009bf2bfd65fc1d07c"),
        ("lattice --family A -k 3 -N 7",
         "9d2124b659741e2e321c0d68baed8ed0c22962a3941a65a7f6faa295cf942487"),
        ("lattice --family D -k 3 -N 8 --format dot",
         "afe420f119ca0f3d6852f04f03108f94fc4e2d49b8840df315063e0efe831dd9"),
        ("lattice --poset FILE --construction M",
         "bbfebd7f76147be28f164f1d5175772564ff75b49b3cd3c3d50ca6cfd7fb3b33"),
        ("lattice --poset FILE --construction J --format dot",
         "7ef229450e14de801916f1360cecf113e65a273fe98b3bcfcf8b1f983396ddbc"),
        ("verify --suite structure -k 2 -N 5",
         "87f86566e979e21379b9e671779a89deda33e2a3b46c2cede0a812b4f60f65a8"),
        ("lattice --family D -k 3 -N 7",
         "19cc104f5f97f1b6a3b692f453b24e9ff2ee1392e18c6b939f00a16c19a0fe20"),
        ("lattice --family D -k 4 -N 9 --format dot",
         "3af925bcfaa34df7217ebb94448daf0fe4c4d548e5485482ff34d08357b9339f"),
        ("solve -k 3 -N 9 --from 6,3,1 --to 0,0,0 --format json",
         "b7b08a9d34107dc4346c2d6a6e4c175f21b73d0e55aebf0b95d26c87fab0d879"),
        ("verify --suite coordinates -k 3 -N 7",
         "d92d368a27265b79a8fdd4cbce9e9beed40d28b4c074ff283c3888727e92ab2d"),
        ("verify --suite transport -k 3 -N 7",
         "399f81c796fee28485b9c9960f165bdd1b5203d6e71789c758be89a42918bcce"),
        ("verify --suite iso -k 3 -N 7",
         "fdcb63254150f7b4fbcb54624595dc485a7299913e6cc4d6893a873714edbbd1"),
        ("solve -k 20 -N 40 --from " + ",".join(["20"] * 20) + " --to 0",
         "f9f7a05d631ee0e4aec811029004be3d566df90f05b574e3ff8af7495a2ef550"),
        ("solve -k 3 -N 14 --from 11,5,2 --to 0,0,0 --via meet",
         "4ca3888c518937200380ea8a1f0dbf73c5a3ee4784ac1f023cc747f05423d96e"),
        # colors up to 13, whose keys sort as strings: "1", "10", ..., "2"
        ("solve -k 3 -N 14 --from 11,5,2 --to 0,0,0 --via meet --format json",
         "2df2d3b3d9ead9d9183b657b803c835e6eb8b24baf6b590bc87f54b68215d2a0"),
        # an empty census and no steps
        ("solve -k 3 -N 7 --from 2,1 --to 2,1 --format json",
         "82e5b023aef35cbc8897bd4582579d7f0dc7424d8451791528c744b4d2a2d63f"),
        # the benchmark's export
        ("lattice --family A -k 5 -N 12",
         "487c5b606f59f3ef85c8b66b7d6f1ae5269b00ed297964f016921b3ea4d7008a"),
        ("lattice --family D -k 4 -N 11",
         "8bec6628f6924534ee34f338142586dcbe08771dbb6c7b7c4cb181c5de512c52"),
        # the benchmark's solver and fundamental suites
        ("verify --suite solver -k 3 -N 8 --seed 5",
         "8dcd058e75e8b6233ae50db9e3631c5cddbab696ad4d9a552190ca8256ac1e9b"),
        ("verify --suite fundamental --seed 0",
         "25f7ba3dae073b048f713c3cfafae01a26b9d5414543efb92b33ead0b247b900"),
    ])
    def test_stdout_is_unchanged(self, capsys, tmp_path, argv, digest):
        poset = tmp_path / "poset.json"
        poset.write_text(GOLDEN_POSET)
        code, out, err = run_cli(capsys, *argv.replace("FILE", str(poset)).split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
