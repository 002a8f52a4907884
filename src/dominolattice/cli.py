"""Command-line front end.

Subcommands: lattice (build/export), convert (coordinates and phi),
solve (domino game with ASCII playback), verify (named suites).
Exit codes: 0 success, 1 usage, 2 domain violation, 3 verification failure.
Parsing needs only the box, the shapes and the coordinate tables.  Each
subcommand imports what it runs when it runs: the lattice module,
serialization, phi, the solver, the suites.  A solve loads the solver but
no lattice, poset or isomorphism module; a convert loads no lattice,
poset or solver module; a family's JSON export loads no poset or
serialization module.  The solve and family JSON documents are written
directly, byte for byte as json.dumps(doc, indent=2, sort_keys=True)
prints them, so only `verify` loads json; a verify run loads the layers
of the suites it runs, and a flag its suite does not read is a usage error.
"""

import argparse
import re
import sys
from operator import itemgetter

from .domino import D_COORDINATES, _gamma_pt, build_d_a
from .suites import DEFAULTS, SUITE_FLAGS, SUITES
from .typea import (L_COORDINATES, BoxSpec, CircleState, _partition_to_tableau_L,
                    _tableau_to_diagonal_L, build_l_graph, validate_partition)

USAGE_ERROR, DOMAIN_ERROR, VERIFY_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


_INT_FIELD = re.compile(r"\s*-?[0-9]+\s*", re.ASCII)


def _read_int(text):
    """text as an int if it is an optional minus sign and ASCII digits, else None."""
    if _INT_FIELD.fullmatch(text):
        try:
            return int(text)
        except ValueError:      # more digits than int() accepts
            pass
    return None


def parse_ints(text, brackets, what):
    """Comma-separated integers, optionally wrapped in one given bracket pair.

    Each field is read by `_read_int`; an empty field is an error, but an
    empty text is the empty tuple.
    """
    body = text.strip()
    opening, closing = brackets
    if body.startswith(opening) and body.endswith(closing):
        body = body[1:-1]
    if body == "":
        return ()
    values = tuple(map(_read_int, body.split(",")))
    if None in values:
        raise ValueError(f"cannot parse {what} {text!r}")
    return values


def _int_flag(text):
    """An integer flag (-k, -N, --seed), read by the partition field rule."""
    value = _read_int(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def parse_partition(spec, text):
    """Comma-separated parts, first row first; trailing zeros may be omitted."""
    values = parse_ints(text, "()", "partition")
    if len(values) > spec.k:
        raise ValueError(f"too many parts for k={spec.k}")
    return validate_partition(spec, values + (0,) * (spec.k - len(values)))


def parse_circle(spec, text, side):
    bits = text.strip()
    if not set(bits) <= {"0", "1"}:
        raise ValueError(f"cannot parse circle bitstring {text!r}")
    return CircleState(tuple(int(b) for b in bits), side)


def fmt_partition(parts):
    return ",".join(map(str, parts))


def fmt_tableau(entries):
    return "{" + ",".join(str(e) for e in entries) + "}"


def fmt_circle(state):
    return "".join(str(b) for b in state.bits)


def fmt_diagonal(diag):
    return "(" + ",".join(str(d) for d in diag) + ")"


# Text parser and formatter of each coordinate system; a parser takes
# (spec, text, side).  Tableau entries are read in any order.
_TEXT = {
    "part": (lambda spec, text, side: parse_partition(spec, text), fmt_partition),
    "tab": (lambda spec, text, side: tuple(sorted(parse_ints(text, "{}", "tableau"))),
            fmt_tableau),
    "circ": (parse_circle, fmt_circle),
    "diag": (lambda spec, text, side: parse_ints(text, "()", "diagonal sequence"),
             fmt_diagonal),
}
_COORDINATES = {"L": L_COORDINATES, "D": D_COORDINATES}


def _to_partition(spec, system, side, text):
    if system not in _TEXT:
        raise ValueError(f"unknown coordinate system {system!r}")
    parse, _ = _TEXT[system]
    return _COORDINATES[side][system][1](spec, parse(spec, text, side))


def _from_partition(spec, system, side, parts):
    _, fmt = _TEXT[system]
    return fmt(_COORDINATES[side][system][0](spec, parts))


def render_partition(spec, parts):
    """One character per box: '#' shaded, '.' unshaded, 'r' the red corner (1, N-k)."""
    cols = spec.cols
    rows = ["#" * p + "." * (cols - p) for p in parts]
    if parts[0] < cols:
        rows[0] = rows[0][:-1] + "r"
    return "\n".join(rows)


def _digits(spec):
    """str(i) for each i up to N and the box's area k(N-k): every int the JSON holds."""
    return tuple(map(str, range(max(spec.N, spec.k * spec.cols) + 1)))


def _joined(digits, ints):
    """A nonempty int tuple as comma-separated digit strings.

    itemgetter looks up all of them in C, about three times as fast as
    mapping digits.__getitem__; given one index it returns the item alone.
    """
    return ",".join(itemgetter(*ints)(digits)) if len(ints) > 1 else digits[ints[0]]


def _json_block(items, brackets, depth):
    """A list or object as json.dumps(..., indent=2) writes it at this depth.

    items are the list's values, or the object's "key": value members in
    key order, each already written or a %s field of a template; with
    none, it is the bare brackets.
    """
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-2] + brackets[1]


def cmd_lattice(args):
    if args.poset is not None:
        from . import io as serial
        from .poset import j_lattice, m_lattice
        try:
            with open(args.poset, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"error: cannot read {args.poset}: {exc.strerror}", file=sys.stderr)
            return USAGE_ERROR
        P = serial.poset_from_json(text)
        L = m_lattice(P) if args.construction == "M" else j_lattice(P)
        if args.format == "dot":
            sys.stdout.write(serial.lattice_to_dot(L, name="ideals"))
        else:
            sys.stdout.write(serial.lattice_to_json(L))
        return 0
    spec = _spec_from(args)
    family = args.family or "A"
    L = build_l_graph(spec) if family == "A" else build_d_a(spec)
    if args.format == "dot":
        from . import io as serial
        sys.stdout.write(serial.lattice_to_dot(L, name=f"{family}_{spec.k}_{spec.N}"))
        return 0
    # The vertices come from the build, which validated them, so their
    # coordinates are read through the unchecked cores; the circle's dots
    # are the family's tableau entries.
    digits = _digits(spec)
    name = {p: _joined(digits, p) for p in L.vertices}
    ranks = L.ranks
    vertex = _json_block(['"circ": "%s"', '"diag": "(%s)"', '"part": "%s"', '"rank": %s',
                          '"tab": "{%s}"'], "{}", 2)
    vertices = []
    for p in L.vertices:
        ltab = _partition_to_tableau_L(spec, p)
        tab = ltab if family == "A" else _gamma_pt(spec, p)
        bits = ["0"] * spec.N
        for t in tab:
            bits[t - 1] = "1"
        diag = _tableau_to_diagonal_L(spec, ltab)
        vertices.append(vertex % ("".join(bits), _joined(digits, diag), name[p],
                                  digits[ranks[p]], _joined(digits, tab)))
    edge = _json_block(['"color": %s', '"from": "%s"', '"to": "%s"'], "{}", 2)
    edges = [edge % (digits[c], name[a], name[b]) for a, b, c in L.edges]
    doc = _json_block(['"N": %s', '"edges": %s', '"family": "%s"', '"k": %s', '"vertices": %s'],
                      "{}", 0)
    sys.stdout.write(doc % (digits[spec.N], _json_block(edges, "[]", 1), family, digits[spec.k],
                            _json_block(vertices, "[]", 1)) + "\n")
    return 0


def cmd_convert(args):
    spec = _spec_from(args)
    if args.map:
        from .isomorphism import phi, phi_inverse
        parts = parse_partition(spec, args.value)
        out = phi(spec, parts) if args.map == "phi" else phi_inverse(spec, parts)
        print(fmt_partition(out))
        return 0
    system, _, side = args.src.partition(":")
    side = side or "L"
    if side not in _COORDINATES:
        raise ValueError(f"unknown side {side!r}; use L or D")
    parts = _to_partition(spec, system, side, args.value)
    print(_from_partition(spec, args.dest, side, parts))
    return 0


def cmd_solve(args):
    from .solver import solve_domino
    spec = _spec_from(args)
    sigma = parse_partition(spec, args.src)
    tau = parse_partition(spec, args.dest)
    sol = solve_domino(spec, sigma, tau, via=args.via)
    if args.format == "json":
        digits = _digits(spec)
        path = [f'"{_joined(digits, p)}"' for p in sol.path.vertices]
        census = sorted((digits[c], digits[n]) for c, n in sol.per_color.items())
        step = _json_block(['"color": %s', '"direction": "%s"'], "{}", 2)
        steps = [step % (digits[c], d) for c, d in sol.path.steps]
        doc = _json_block(['"distance": %s', '"path": %s', '"per_color": %s', '"steps": %s',
                           '"waypoint": "%s"'], "{}", 0)
        sys.stdout.write(doc % (
            digits[sol.distance], _json_block(path, "[]", 1),
            _json_block([f'"{c}": {n}' for c, n in census], "{}", 1),
            _json_block(steps, "[]", 1), _joined(digits, sol.waypoint)) + "\n")
        return 0
    print(f"distance: {sol.distance}")
    census = " ".join(f"{c}:{n}" for c, n in sorted(sol.per_color.items())) or "-"
    print(f"moves per color: {census}")
    print(f"waypoint ({args.via}): {fmt_partition(sol.waypoint)}")
    print()
    print(fmt_partition(sol.path.vertices[0]))
    print(render_partition(spec, sol.path.vertices[0]))
    for (color, direction), vert in zip(sol.path.steps, sol.path.vertices[1:]):
        print(f"  | move color {color} ({direction})")
        print(f"  v")
        print(fmt_partition(vert))
        print(render_partition(spec, vert))
    return 0


def cmd_verify(args):
    import json
    from .verify import run_suite
    spec = _spec_from(args)
    names = SUITES if args.suite == "all" else (args.suite,)
    report = {}
    for name in names:
        report[name] = run_suite(name, k=spec.k, N=spec.N, seed=args.seed)
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if all(r["passed"] for r in report.values()) else VERIFY_ERROR


def _spec_from(args):
    try:
        return BoxSpec(args.k, args.N)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR) from None


def build_parser():
    parser = _Parser(prog="dominolattice",
                     description="Type-A fundamental lattices and the Domino Game")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="build and export a lattice")
    p.add_argument("--family", choices=("A", "D"),
                   help="the fundamental (A, default) or Domino (D) lattice of the box")
    p.add_argument("-k", type=_int_flag)
    p.add_argument("-N", type=_int_flag)
    p.add_argument("--poset", metavar="FILE",
                   help="build the ideal/filter lattice of a poset JSON file")
    p.add_argument("--construction", choices=("J", "M"),
                   help="the poset's ideal (J, default) or filter (M) lattice")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_lattice, parser=p)

    p = sub.add_parser("convert", help="convert coordinates or apply phi")
    p.add_argument("-k", type=_int_flag, required=True)
    p.add_argument("-N", type=_int_flag, required=True)
    p.add_argument("--from", dest="src", metavar="SYSTEM[:SIDE]",
                   help="part, tab, circ, or diag, optionally :L or :D")
    p.add_argument("--to", dest="dest", choices=("part", "tab", "circ", "diag"))
    p.add_argument("--map", choices=("phi", "phi-inverse"))
    p.add_argument("value")
    p.set_defaults(func=cmd_convert, parser=p)

    p = sub.add_parser("solve", help="solve the domino game between two shapes")
    p.add_argument("-k", type=_int_flag, required=True)
    p.add_argument("-N", type=_int_flag, required=True)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dest", required=True)
    p.add_argument("--via", choices=("join", "meet"), default="join")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_solve, parser=p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all", choices=SUITES + ("all",))
    # -k, -N and --seed take their DEFAULTS after parsing, when the suite reads them
    for flag in DEFAULTS:
        p.add_argument(flag, type=_int_flag)
    p.set_defaults(func=cmd_verify, parser=p)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # usage errors found after parsing show the subcommand's usage line
    usage_error = args.parser.error
    if args.command == "convert" and not args.map and not (args.src and args.dest):
        usage_error("convert needs either --map or both --from and --to")
    if args.command == "convert" and args.map and (args.src or args.dest):
        usage_error("convert takes --map or --from/--to, not both")
    if args.command == "lattice" and args.poset is None \
            and (args.k is None or args.N is None):
        usage_error("lattice needs -k and -N (or --poset FILE)")
    if args.command == "lattice" and args.poset is not None \
            and (args.k is not None or args.N is not None):
        usage_error("lattice takes --poset FILE or -k and -N, not both")
    if args.command == "lattice" and args.poset is None and args.construction is not None:
        usage_error("lattice takes --construction only with --poset FILE")
    if args.command == "lattice" and args.poset is not None and args.family is not None:
        usage_error("lattice takes --family only with -k and -N")
    if args.command == "verify":
        reads = SUITE_FLAGS.get(args.suite, DEFAULTS)
        for flag, default in DEFAULTS.items():
            dest = flag.lstrip("-")
            if getattr(args, dest) is None:
                setattr(args, dest, default)
            elif flag not in reads:
                usage_error(f"verify --suite {args.suite} does not read {flag}")
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
