"""Traced run: the per-layer census behind `run.py --trace 1`.

Spans are recorded here, in the benchmark, around calls into the public
functions of each module (typea, domino, lattice, poset, isomorphism,
solver, oracle, verify, cli); nothing inside the package is instrumented.
A span has a name "<layer>.<call>", start, end, parent span and op id; the
spans stay in memory and go to the result file when the run ends.

The census is the same for every workload, so each traced run reports every
per-layer metric; its inputs come from the workload seed, as in the timed
runs:

* cold solve, per box of the cold_solve grid: the CLI solve path replayed
  stage by stage in-process from cold caches (all_partitions, beta_part,
  ColoredLattice, its masks, the diamond check), then build_d_a timed
  alone, then move_matrix and the first solve.
* warm solve at (7,16): the same requests solved untraced and traced,
  alternately, for the tracing overhead; then each request solved once
  more, right before the sibling calls that solve makes on the same
  inputs (validate, diagonal conversions, decompose), so that the
  solver's own time can be split off.
* verify, one pass of the verify workload: each suite's stages replayed,
  then the suite (or, for the export, cli.main) timed alone from cold.

Metric names ending in _s are total seconds over the census, _ms the
median of one call; counts have unit "count".  As in the timed runs, times
are scaled to reference speed by the median machine-speed probe of the
census (trace.speed; see probe.py), taken before every op.  A span marked inclusive
covers a call whose parts are also staged on their own (build_d_a in the
cold op, run_suite, cli.main, the warm solve_domino); it is left out of its
layer's self time, and the difference between it and its stages is
reported: domino.build_d_a_gap_s, and inside verify.self_s, cli.self_s and
solver.self_ms.  A stage that is not split further (build_d_a inside a
verify suite, say) counts wholly to its own layer.
"""

import contextlib
import io
import json
import random
import statistics
import sys
import time
from collections import defaultdict

from checks import Checker, ExportChecker, all_passed
from probe import NOMINAL_S, probe_seconds
from common import (COLD_GRID, WARM_BOX, import_seconds, pairs_for,
                    seeded, verify_commands)

LAYERS = ("typea", "domino", "lattice", "poset", "isomorphism", "solver",
          "oracle", "verify", "cli")
WARM_TRACED = 400           # warm requests in the traced census
OVERHEAD_ROUNDS = 2         # alternating untraced/traced passes over them
CALIBRATION_SPANS = 20000


class Tracer:
    """In-memory spans: (name, start, end, parent index, op id, inclusive)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = 0

    @contextlib.contextmanager
    def span(self, name, inclusive=False):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op, inclusive)

    def begin_op(self):
        self.op += 1

    def durations(self, name):
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total(self, name):
        return sum(self.durations(name))

    def staged(self, op):
        """Seconds the layer spans of one op cover, inclusive spans left out."""
        return sum(s[2] - s[1] for s in self.spans
                   if s[4] == op and not s[5] and s[0].split(".")[0] in LAYERS)

    def self_times(self):
        """Per layer: exclusive span time minus the part child spans cover."""
        child = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _, inclusive) in enumerate(self.spans):
            layer = name.split(".")[0]
            if layer in LAYERS and not inclusive:
                out[layer] += end - start - child[i]
        return out


def clear_caches():
    """Drop every lru_cache in the package: the state of a fresh process."""
    for name, module in list(sys.modules.items()):
        if name == "dominolattice" or name.startswith("dominolattice."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


class Census:
    def __init__(self, seed):
        self.seed = seed
        self.t = Tracer()
        self.counts = defaultdict(int)
        self.extra = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.gaps = defaultdict(float)
        self.solver_self = []
        self.probes = []

    def probe(self):
        self.probes.append(probe_seconds())

    def outcome(self, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            self.errors.append(problem)

    # -- cold solve -----------------------------------------------------------

    def cold_solve(self, box):
        from dominolattice import (BoxSpec, ColoredLattice, beta_part, build_d_a,
                                   is_diamond_colored, move_matrix, solve_domino)
        from dominolattice.typea import all_partitions, validate_partition
        t = self.t
        clear_caches()
        t.begin_op()
        spec = BoxSpec(*box)
        with t.span("op.cold_solve"):
            with t.span("typea.all_partitions"):
                vertices = all_partitions(spec)
            with t.span("domino.beta_part"):
                edges = []
                for sigma in vertices:
                    for color in spec.colors:
                        hit = beta_part(spec, sigma, color)
                        if hit is not None:
                            edges.append((sigma, hit[0], color))
            self.counts["domino.edges"] += len(edges)
            with t.span("lattice.construct"):
                L = ColoredLattice(vertices, edges)
            with t.span("lattice.masks"):
                L.minimum, L.maximum
            with t.span("lattice.is_diamond_colored"):
                is_diamond_colored(L)
        staged = t.staged(t.op)
        del L, edges
        clear_caches()
        with t.span("domino.build_d_a", inclusive=True):
            build_d_a(spec)
        self.gaps["domino"] += t.durations("domino.build_d_a")[-1] - staged
        checker = Checker(*box)
        via, a, b = pairs_for(checker, self.seed, f"cold{box}", 1)[0]
        with t.span("typea.validate_partition"):
            validate_partition(spec, a)
        with t.span("typea.validate_partition"):
            validate_partition(spec, b)
        move_matrix.cache_clear()
        with t.span("isomorphism.move_matrix"):
            move_matrix(spec)
        with t.span("solver.first_solve"):
            sol = solve_domino(spec, a, b, via=via)
        self.outcome(self._check(checker, via, a, b, sol)
                     or checker.bfs_check(a, b, sol.distance))

    @staticmethod
    def _check(checker, via, a, b, sol):
        return checker.check(via, a, b, sol.distance, sorted(sol.per_color.items()),
                             sol.waypoint, sol.path.vertices, sol.path.steps)

    # -- warm solve -----------------------------------------------------------

    def warm_solve(self):
        """Runs right after the cold (7,16) op, whose lattice it reuses."""
        from dominolattice import (BoxSpec, decompose, phi, phi_inverse,
                                   solve_domino)
        from dominolattice.typea import (diagonal_to_partition,
                                         partition_to_diagonal,
                                         validate_partition)
        t = self.t
        spec = BoxSpec(*WARM_BOX)
        checker = Checker(*WARM_BOX)
        pairs = pairs_for(checker, self.seed, "warm", WARM_TRACED)
        solve_domino(spec, pairs[0][1], pairs[0][2], via=pairs[0][0])
        clock = time.perf_counter
        untraced, traced = [], []
        for _ in range(OVERHEAD_ROUNDS):
            start = clock()
            for via, a, b in pairs:
                solve_domino(spec, a, b, via=via)
            untraced.append(clock() - start)
            start = clock()
            for via, a, b in pairs:
                t.begin_op()
                with t.span("solver.solve_domino", inclusive=True):
                    sol = solve_domino(spec, a, b, via=via)
            traced.append(clock() - start)
        self.extra["trace.overhead_s"] = (
            statistics.fmean(traced) - statistics.fmean(untraced), "s")
        for via, a, b in pairs:
            t.begin_op()
            start = clock()
            sol = solve_domino(spec, a, b, via=via)
            incl = clock() - start
            self.outcome(self._check(checker, via, a, b, sol))
            self.counts["solver.steps"] += len(sol.path.steps)
            diags = [partition_to_diagonal(spec, v) for v in sol.path.vertices]
            first = len(t.spans)
            for x in (a, b):
                with t.span("typea.validate_partition"):
                    validate_partition(spec, x)
                with t.span("typea.partition_to_diagonal"):
                    d = partition_to_diagonal(spec, x)
                with t.span("isomorphism.decompose"):
                    decompose(spec, d)
                self.counts["isomorphism.decompose_calls"] += 1
            for d in diags:
                with t.span("typea.diagonal_to_partition"):
                    diagonal_to_partition(spec, d)
            siblings = sum(end - start for _, start, end, *_ in t.spans[first:])
            self.solver_self.append(incl - siblings)
            with t.span("isomorphism.phi"):
                phi(spec, a)
            with t.span("isomorphism.phi_inverse"):
                phi_inverse(spec, a)

    # -- verify ---------------------------------------------------------------

    def _partition_lattice(self, spec):
        from dominolattice import build_p_a, ideal_to_partition, j_lattice
        with self.t.span("poset.j_lattice"):
            LA = j_lattice(build_p_a(spec))
        self.counts["poset.ideals"] += len(LA)
        with self.t.span("lattice.relabel"):
            return LA.relabel(lambda i: ideal_to_partition(spec, i))

    def _domino(self, spec):
        from dominolattice import build_d_a
        with self.t.span("domino.build_d_a"):
            return build_d_a(spec)

    def stage_structure(self, spec):
        from dominolattice import (is_diamond_colored, is_distributive, is_modular,
                                   is_topographically_balanced)
        t = self.t
        for L in (self._partition_lattice(spec), self._domino(spec)):
            with t.span("lattice.ranks"):
                ranks = L.ranks
            with t.span("lattice.is_lattice"):
                L.is_lattice
            with t.span("lattice.is_diamond_colored"):
                is_diamond_colored(L)
            with t.span("lattice.is_topographically_balanced"):
                is_topographically_balanced(L)
            with t.span("lattice.is_modular"):
                is_modular(L)
            with t.span("lattice.is_distributive"):
                is_distributive(L)
            with t.span("lattice.meet_join_pairs"):
                for s in L.vertices:
                    for u in L.vertices:
                        ranks[L.join(s, u)] + ranks[L.meet(s, u)]

    def stage_iso(self, spec):
        from dominolattice import (apply_p, check_constructed_iso, move_matrix, phi,
                                   phi_inverse, partition_to_diagonal)
        t = self.t
        L, D = self._partition_lattice(spec), self._domino(spec)
        with t.span("isomorphism.phi_all"):
            image = {p: phi(spec, p) for p in L.vertices}
        with t.span("oracle.check_constructed_iso"):
            check_constructed_iso(L, D, image)
        with t.span("isomorphism.phi_inverse_all"):
            [phi_inverse(spec, q) for q in image.values()]
        with t.span("isomorphism.move_matrix"):
            move_matrix(spec).is_unimodular
        with t.span("isomorphism.apply_p_all"):
            [apply_p(spec, partition_to_diagonal(spec, p)) for p in L.vertices]

    def stage_solver(self, spec, seed):
        from dominolattice import (bfs_all_pairs, build_p_a, enumerate_shortest_paths,
                                   solve_distributive, solve_domino)
        from dominolattice.typea import partition_to_ideal
        t = self.t
        P = build_p_a(spec)
        L, D = self._partition_lattice(spec), self._domino(spec)
        for G in (L, D):
            with t.span("oracle.bfs_all_pairs"):
                bfs_all_pairs(G)
        for a in D.vertices:
            ia = partition_to_ideal(spec, a)
            for b in D.vertices:
                ib = partition_to_ideal(spec, b)
                with t.span("solver.solve_distributive"):
                    solve_distributive(P, ia, ib)
                with t.span("solver.suite_solve_domino"):
                    sol = solve_domino(spec, a, b)
                with t.span("lattice.validate_path"):
                    sol.path.validate(D)
        rng = random.Random(seed)
        verts = list(D.vertices)
        for _ in range(10):
            a, b = rng.choice(verts), rng.choice(verts)
            with t.span("oracle.enumerate_shortest_paths"):
                enumerate_shortest_paths(D, a, b)

    def stage_fundamental(self, seed, rounds=50):
        """J and M of the posets the suite draws, in the suite's order."""
        from dominolattice import j_lattice, m_lattice
        from dominolattice.oracle import random_colored_poset
        rng = random.Random(seed)
        posets = [random_colored_poset(rng, 8, 4) for _ in range(rounds)]
        posets += [random_colored_poset(rng, 6, 3) for _ in range(2 * max(10, rounds // 2))]
        for P in posets:
            with self.t.span("poset.random_jm"):
                J = j_lattice(P)
                m_lattice(P)
            self.counts["poset.ideals"] += len(J)

    def stage_export(self, spec):
        from dominolattice import partition_to_diagonal, partition_to_tableau_L
        from dominolattice.typea import partition_to_circle_L
        L = self._partition_lattice(spec)
        with self.t.span("lattice.ranks"):
            L.ranks
        with self.t.span("typea.coords_export"):
            for p in L.vertices:
                partition_to_tableau_L(spec, p)
                partition_to_circle_L(spec, p)
                partition_to_diagonal(spec, p)

    def verify_op(self, name, args, export):
        from dominolattice import BoxSpec, cli
        from dominolattice.verify import run_suite
        t = self.t
        opts = dict(zip(args[1::2], args[2::2]))
        spec = BoxSpec(opts.get("-k", 2), opts.get("-N", 5))
        seed = opts.get("--seed", 0)
        clear_caches()
        t.begin_op()
        with t.span(f"op.verify.{name}"):
            if name == "structure":
                self.stage_structure(spec)
            elif name == "iso":
                self.stage_iso(spec)
            elif name == "solver":
                self.stage_solver(spec, seed)
            elif name == "fundamental":
                self.stage_fundamental(seed)
            else:
                self.stage_export(spec)
        staged = t.staged(t.op)
        clear_caches()
        if name == "export":
            buf = io.StringIO()
            with t.span("cli.main_export", inclusive=True), \
                    contextlib.redirect_stdout(buf):
                code = cli.main([str(a) for a in args])
            self.gaps["cli"] += t.durations("cli.main_export")[-1] - staged
            self.outcome(f"export exited {code}" if code else export.check(json.loads(buf.getvalue())))
        else:
            with t.span(f"verify.suite_{name}", inclusive=True):
                report = run_suite(name, k=spec.k, N=spec.N, seed=seed)
            self.gaps["verify"] += t.durations(f"verify.suite_{name}")[-1] - staged
            self.outcome(None if all_passed(report) else f"suite {name} did not pass")

    # -- metrics --------------------------------------------------------------

    def metrics(self):
        t = self.t
        m = {}

        def total(metric):
            m[metric] = (t.total(metric[:-2]), "s")

        def median_ms(metric):
            m[metric] = (statistics.median(t.durations(metric[:-3])) * 1e3, "ms")

        total("typea.all_partitions_s")
        for name in ("partition_to_diagonal", "diagonal_to_partition", "validate_partition"):
            median_ms(f"typea.{name}_ms")
        total("typea.coords_export_s")
        total("domino.beta_part_s")
        m["domino.edges"] = (self.counts["domino.edges"], "count")
        total("domino.build_d_a_s")
        m["domino.build_d_a_gap_s"] = (self.gaps["domino"], "s")
        for name in ("construct", "masks", "is_diamond_colored",
                     "is_topographically_balanced", "is_lattice", "is_modular",
                     "is_distributive", "ranks", "meet_join_pairs", "relabel"):
            total(f"lattice.{name}_s")
        total("poset.j_lattice_s")
        m["poset.ideals"] = (self.counts["poset.ideals"], "count")
        total("poset.random_jm_s")
        total("isomorphism.move_matrix_s")
        median_ms("isomorphism.decompose_ms")
        m["isomorphism.decompose_calls"] = (self.counts["isomorphism.decompose_calls"], "count")
        median_ms("isomorphism.phi_ms")
        median_ms("isomorphism.phi_inverse_ms")
        median_ms("solver.solve_domino_ms")
        m["solver.self_ms"] = (statistics.median(self.solver_self) * 1e3, "ms")
        m["solver.steps"] = (self.counts["solver.steps"], "count")
        median_ms("solver.solve_distributive_ms")
        for name in ("bfs_all_pairs", "enumerate_shortest_paths", "check_constructed_iso"):
            total(f"oracle.{name}_s")
        for name in ("structure", "iso", "solver", "fundamental"):
            total(f"verify.suite_{name}_s")
        m["cli.import_s"] = self.extra.pop("cli.import_s")
        total("cli.main_export_s")
        selfs = t.self_times()
        selfs["solver"] += sum(self.solver_self)
        for layer in ("verify", "cli"):
            selfs[layer] += self.gaps[layer]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (selfs[layer], "s")
        m.update(self.extra)
        m["trace.spans"] = (len(t.spans), "count")
        m["trace.span_cost_us"] = (span_cost() * 1e6, "us")
        speed = NOMINAL_S / statistics.median(self.probes)
        m = {name: (value * speed if unit in ("s", "ms", "us") else value, unit)
             for name, (value, unit) in m.items()}
        m["trace.speed"] = (speed, "ratio")
        return m


def span_cost():
    """Seconds one empty span costs, from a throwaway tracer."""
    t = Tracer()
    start = time.perf_counter()
    for _ in range(CALIBRATION_SPANS):
        with t.span("calibration"):
            pass
    return (time.perf_counter() - start) / CALIBRATION_SPANS


def run(workload, seed, deadline):
    """The census; returns (metrics, attempted, failed, detail)."""
    c = Census(seed)
    c.extra["cli.import_s"] = (import_seconds(deadline, 3)[0], "s")
    for box in COLD_GRID:
        c.probe()
        c.cold_solve(box)
    c.probe()
    c.warm_solve()
    export = ExportChecker()
    for name, args in verify_commands(seeded(seed, "verify")):
        c.probe()
        c.verify_op(name, args, export)
    c.probe()
    clear_caches()
    metrics = c.metrics()
    detail = {
        "errors": c.errors[:20],
        "spans": [list(s) for s in c.t.spans],
        "span_count": len(c.t.spans),
    }
    return metrics, c.attempted, c.failed, detail
