"""Command-line front end.

Exit codes: 0 success, 1 input error, 2 compatibility failure (solution still
written), 3 verification failure, 4 Hamiltonian rejected.  Outputs are
byte-identical for identical inputs and flags.

The argument parser is built once per process, on the first ``entry`` call,
and never mutated after: ``parse_args`` leaves it as it was and every
default is immutable, so in-process callers that run many commands pay for
the parse alone.
"""
from __future__ import annotations

import argparse
import functools
import os
import random
import re
import sys
from typing import List, Optional

from . import one_dim
from .ekeland import ekeland_maximize, ekeland_point
from .errors import EikographError, HamiltonianRejection, InputError, VerificationError
from .graph import Curve, MetricGraph, _tolerance
from .hamiltonian import catalog, reduce_to_eikonal, solve_general
from .io import (_decode_json, dump_json, dump_value_function, edge_csv, load_graph,
                 load_value_function, point_from_obj, point_to_obj)
from .slopes import monge_samples_csv, verify_monge
from .solver import (boundary_modulus, check_compatibility, solve, verify_dpp,
                     verify_suboptimality)
from .spaces import FiniteMetricSpace, parse_value_vector

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCOMPATIBLE = 2
EXIT_VERIFICATION = 3
EXIT_HAMILTONIAN = 4

_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$",
                              re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse knows only "-1" and "-.5" as negative numbers, and takes
        # any other argument that starts with "-" for an option; every float
        # literal is a number here, so "--tol -1e-9" reaches the library
        self._negative_number_matcher = _NEGATIVE_NUMBER

    # argparse's default exit status for bad usage is 2, which this tool
    # reserves for compatibility failures; remap to the input-error code
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="eikograph",
                description="Solve and verify |∇u| = f on metric graphs.")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    ps = sub.add_parser("solve", parents=[], help="solve the Dirichlet problem from a graph file")
    ps.add_argument("graph", help="graph JSON file")
    ps.add_argument("--out-dir", default=".", help="directory for u.json and compat.json")
    ps.add_argument("--tol", type=float, default=1e-12, help="compatibility tolerance")
    ps.add_argument("--edge-csv", metavar="EDGE", default=None,
                    help="also write (s, u) samples along this edge")

    pv = sub.add_parser("verify", help="check a solution file against the equation")
    pv.add_argument("graph", help="graph JSON file")
    pv.add_argument("u", help="solution JSON file (from solve)")
    pv.add_argument("--mode", required=True, choices=("monge", "dpp", "subopt", "modulus"))
    pv.add_argument("--out-dir", default=".")
    pv.add_argument("--tol", type=float, default=None, help="verdict tolerance")
    pv.add_argument("--tau", type=float, default=None, help="walk radius for dpp")
    pv.add_argument("--seed", type=int, default=0, help="seed for random curves (subopt)")
    pv.add_argument("--curves", type=int, default=25, help="random curve count (subopt)")
    pv.add_argument("--curves-file", default=None,
                    help="JSON curves to test instead of random ones (subopt)")

    pr = sub.add_parser("reduce", help="reduce a named Hamiltonian to eikonal form and solve")
    pr.add_argument("graph")
    pr.add_argument("--hamiltonian", required=True,
                    help="eikonal-affine | quadratic | nonmono-a | nonmono-b | discounted")
    pr.add_argument("--out-dir", default=".")
    pr.add_argument("--quad-knots", type=int, default=65, help="knots per edge for h")

    pw = sub.add_parser("viscous", help="viscous 1-D solutions: CSV per eps plus an overlay SVG")
    pw.add_argument("--eps", required=True, help="comma-separated positive values")
    pw.add_argument("--grid-n", type=int, default=4097)
    pw.add_argument("--out-dir", default=".")

    pe = sub.add_parser("ekeland", help="variational principle on a finite metric space")
    pe.add_argument("distances", help="CSV distance matrix")
    pe.add_argument("values", help="CSV value vector (inf allowed)")
    pe.add_argument("--eps", type=float, default=None, help="penalty rate (minimize form)")
    pe.add_argument("--start", type=int, default=0, help="starting point index")
    pe.add_argument("--maximize", action="store_true", help="use the near-maximizer form")
    pe.add_argument("--delta", type=float, default=None, help="slack (maximize form)")
    pe.add_argument("--lam", type=float, default=None, help="move budget (maximize form)")
    pe.add_argument("--out-dir", default=".")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser (see the module docstring)."""
    return build_parser()


def _write(out_dir: str, name: str, content: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="\n") as fh:
        fh.write(content)
    return path


def _read(path: str) -> str:
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from None


def cmd_solve(args) -> int:
    text = _read(args.graph)
    graph, field, data = load_graph(text, filename=args.graph)
    if data is None:
        raise InputError("%s declares no boundary vertices; nothing to solve" % args.graph)
    tol = _tolerance(args.tol)  # refused before the solve, not after it
    u = solve(field, data)
    compat = check_compatibility(field, data, tol=tol, u=u)
    print("u.json ->", _write(args.out_dir, "u.json", dump_value_function(u)))
    print("compat.json ->", _write(args.out_dir, "compat.json", dump_json(compat)))
    if args.edge_csv is not None:
        print("edge csv ->", _write(args.out_dir, "edge_%s.csv" % args.edge_csv,
                                    edge_csv(u, args.edge_csv)))
    if not compat.ok:
        print("compatibility violated by %.17g (boundary data is not attained everywhere)"
              % compat.worst_violation)
        return EXIT_INCOMPATIBLE
    print("compatibility ok")
    return EXIT_OK


def _load_curves(path: str, graph: MetricGraph) -> List[Curve]:
    doc = _decode_json(_read(path), path)
    if not isinstance(doc, list):
        raise InputError("%s: expected a JSON array of curves" % path)
    curves = []
    for entry in doc:
        points = entry.get("points") if isinstance(entry, dict) else None
        if not (isinstance(points, list) and len(points) >= 2):
            raise InputError("%s: each curve needs a 'points' array of two or more points" % path)
        hints = entry.get("edges")
        if hints is not None and not (isinstance(hints, list)
                                      and all(isinstance(h, str) for h in hints)):
            raise InputError("%s: a curve's 'edges' must be an array of edge ids" % path)
        pts = [point_from_obj(o, graph) for o in points]
        curve = Curve(graph, pts, hints)
        for ptx in pts:
            if graph.is_boundary(ptx):
                raise InputError("%s: curve touches boundary vertex %r; "
                                 "sub-optimality is an interior check" % (path, ptx.id))
        curves.append(curve)
    if not curves:
        raise InputError("%s: no curves" % path)
    return curves


def cmd_verify(args) -> int:
    graph, field, data = load_graph(_read(args.graph), filename=args.graph)
    if data is None:
        raise InputError("%s declares no boundary vertices; it has no solution to verify" % args.graph)
    u = load_value_function(_read(args.u), field, data, filename=args.u)
    if args.mode == "monge":
        report = verify_monge(u, field, tol=args.tol)
        _write(args.out_dir, "monge.json", dump_json(report))
        _write(args.out_dir, "monge.csv", monge_samples_csv(report))
        if not report.ok:
            loc = None if report.worst_point is None else point_to_obj(report.worst_point)
            why = next((" (%s)" % s.reason for s in report.samples
                        if s.reason and s.point == report.worst_point), "")
            print("steepest-descent check failed: worst violation %.17g at %r%s"
                  % (report.worst_violation, loc, why))
            return EXIT_VERIFICATION
        print("steepest-descent check ok (%d samples)" % len(report.samples))
        return EXIT_OK
    if args.mode == "dpp":
        report = verify_dpp(u, tau=args.tau, tol=args.tol)
        _write(args.out_dir, "dpp.json", dump_json(report))
        if not report.ok:
            worst = max((s for s in report.samples if not s.skipped),
                        key=lambda s: abs(s.residual))
            print("dynamic-programming check failed: residual %.17g at %r"
                  % (worst.residual, point_to_obj(worst.point)))
            return EXIT_VERIFICATION
        print("dynamic-programming check ok (max defect %.17g)" % report.max_defect)
        return EXIT_OK
    if args.mode == "subopt":
        curves = None
        if args.curves_file is not None:
            curves = _load_curves(args.curves_file, graph)
        report = verify_suboptimality(u, curves=curves, rng=random.Random(args.seed),
                                      n_random=args.curves, tol=args.tol)
        _write(args.out_dir, "subopt.json", dump_json(report))
        if not report.ok:
            print("sub-optimality failed: defect %.17g over %d pairs"
                  % (report.max_defect, report.n_pairs))
            return EXIT_VERIFICATION
        print("sub-optimality ok (%d curves, %d pairs)" % (report.n_curves, report.n_pairs))
        return EXIT_OK
    # modulus
    report = boundary_modulus(u, tol=args.tol)
    _write(args.out_dir, "modulus.json", dump_json(report))
    if not report.ok:
        print("boundary modulus failed: one-sided defect %.17g, two-sided defect %.17g"
              % (report.max_upper_defect, report.max_abs_defect))
        return EXIT_VERIFICATION
    print("boundary modulus ok (%d pairs, constant %.17g)"
          % (report.n_checked, report.upper_constant))
    return EXIT_OK


def cmd_reduce(args) -> int:
    graph, field, data = load_graph(_read(args.graph), filename=args.graph)
    H = catalog(args.hamiltonian, field)
    if data is not None:
        u = solve_general(H, graph, data, n_knots=args.quad_knots)
        h_field = u.field
    elif H.depends_on_r:
        raise InputError("r-dependent Hamiltonians need boundary data to solve against")
    else:
        u, h_field = None, reduce_to_eikonal(H, 0.0, graph, n_knots=args.quad_knots)
    h_doc = {"kind": "reduced-cost-field", "hamiltonian": args.hamiltonian,
             "edges": {eid: {"knots": list(h_field.profiles[eid].knots),
                             "values": list(h_field.profiles[eid].values)}
                       for eid in sorted(h_field.profiles)}}
    print("h.json ->", _write(args.out_dir, "h.json", dump_json(h_doc)))
    if u is not None:
        print("u.json ->", _write(args.out_dir, "u.json", dump_value_function(u)))
    return EXIT_OK


def cmd_viscous(args) -> int:
    try:
        eps_list = [float(tok) for tok in args.eps.split(",") if tok.strip()]
    except ValueError:
        raise InputError("--eps wants comma-separated numbers, got %r" % args.eps) from None
    if not eps_list:
        raise InputError("--eps list is empty")
    grid = one_dim.uniform_grid(args.grid_n)
    profiles = [one_dim.viscous_solution(e, grid) for e in eps_list]
    for e, prof in zip(eps_list, profiles):
        _write(args.out_dir, "viscous-%g.csv" % e, one_dim.profile_csv(prof))
    overlay = profiles + [one_dim.limit_profile(grid)]
    print("viscous.svg ->", _write(args.out_dir, "viscous.svg",
                                   one_dim.render_svg(overlay, title="viscous solutions")))
    return EXIT_OK


def cmd_ekeland(args) -> int:
    space = FiniteMetricSpace.from_csv(_read(args.distances))
    fvals = parse_value_vector(_read(args.values))
    if args.maximize:
        if args.delta is None or args.lam is None:
            raise InputError("--maximize needs --delta and --lam")
        rec = ekeland_maximize(space, fvals, args.delta, args.lam, args.start, full=True)
    else:
        if args.eps is None:
            raise InputError("need --eps (or --maximize with --delta/--lam)")
        rec = ekeland_point(space, fvals, args.eps, args.start, full=True)
    _write(args.out_dir, "ekeland.json", dump_json(rec))
    print(space.labels[rec.point])
    return EXIT_OK


def entry(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "reduce":
            return cmd_reduce(args)
        if args.command == "viscous":
            return cmd_viscous(args)
        return cmd_ekeland(args)
    except HamiltonianRejection as exc:
        sys.stderr.write("hamiltonian rejected: %s\n" % exc)
        return EXIT_HAMILTONIAN
    except VerificationError as exc:
        sys.stderr.write("verification failed: %s\n" % exc)
        return EXIT_VERIFICATION
    except EikographError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_INPUT


def main():
    code = entry()
    raise SystemExit(code)


if __name__ == "__main__":
    main()
