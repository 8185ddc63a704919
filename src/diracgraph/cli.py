"""Command-line front end.

One subcommand per analysis; reports go to stdout or --out as text or
canonical JSON.  Exit codes: 0 success, 1 usage or malformed input,
2 computation error, 3 capacity error, 4 internal error (a bug).
"""

from __future__ import annotations

import argparse
import cmath
import sys
from dataclasses import replace

import numpy as np

from . import geometry, hodge, morphisms
from .complexes import (
    build_complex,
    euler_characteristic,
    load_edge_list,
    simplex_distance,
)
from .dynamics import lax_deform, trajectory_csv
from .errors import CapacityError, ComputationError, ConsistencyError, DiracGraphError
from .jsonutil import canonical_json, fraction_str
from .operators import build_operators
from .spectra import (
    aligned_dirac_pair,
    analytic_torsion,
    dirac_charpoly,
    dirac_zeta,
    invariant_report,
    kirchhoff_trees,
    magnitude,
    max_simplex_degree,
    nonzero_product,
    simplex_graph_trees,
    spectral_distance,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTATION = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


def _load(args):
    g = load_edge_list(args.input)
    c = build_complex(g, args.max_dim)
    return g, c


def _ops(args):
    g, c = _load(args)
    return g, c, build_operators(c)


def cmd_analyze(args):
    g, c, ops = _ops(args)
    b = hodge.betti_numbers(ops)
    eigs = ops.dirac_eigensystem[0]
    zero = ~hodge.nonzero(eigs)
    pdet = nonzero_product(eigs)
    pdet_l = nonzero_product(np.sort(np.concatenate([e for e, _ in ops.block_eigensystems])))
    for name, value in (("Det(D)^2", pdet * pdet), ("Det(L)", pdet_l)):
        if not np.isfinite(value):
            raise OverflowError(f"{name} of this {c.v}-simplex complex overflows the float range")
    torsion = analytic_torsion(ops)
    # tr L = tr D^2 = 2 nnz(d): each (k+1)-simplex has k + 2 faces
    trace_l = 2 * sum((k + 1) * n for k, n in enumerate(c.counts) if k)
    report = {
        "v": list(c.counts),
        "chi": euler_characteristic(c),
        "betti": list(b),
        "positiveDiracEigenvalues": [float(x) for x in eigs[~zero & (eigs > 0)]],
        "kernelDim": int(np.sum(zero)),
        "diracPseudoDeterminant": pdet,
        "characteristicPolynomial": dirac_charpoly(ops),
        "analyticTorsion": torsion,
        "invariants": [
            invariant_report("Det(D)^2 = Det(L)", pdet ** 2, pdet_l, 1e-6),
            invariant_report("zeta(-2) = tr(L)",
                             float(dirac_zeta(ops, -2).value.real),
                             float(trace_l), 1e-8),
            invariant_report("analytic torsion = 1", torsion, 1.0, 1e-8),
        ],
    }
    lines = [
        f"simplex counts : {tuple(c.counts)}  (v = {c.v})",
        f"chi            : {report['chi']}",
        f"betti          : {tuple(b)}",
        f"Det(D)         : {report['diracPseudoDeterminant']:.6g}",
        f"torsion        : {report['analyticTorsion']:.9g}",
        "positive spectrum: "
        + " ".join(f"{x:.4f}" for x in report["positiveDiracEigenvalues"]),
    ]
    return report, "\n".join(lines)


def cmd_cohomology(args):
    _, _, ops = _ops(args)
    report = hodge.cohomology_report(ops)
    lines = [
        f"v     : {report['v']}",
        f"betti : {report['betti']}",
        f"chi   : {report['chi']}",
    ]
    return report, "\n".join(lines)


def cmd_curvature(args):
    g = load_edge_list(args.input)
    ks = geometry.curvature_vector(g)
    total = sum(ks.values())
    report = {
        "curvature": {str(v): k for v, k in ks.items()},
        "sum": total,
        "chi": int(total),
    }
    lines = [f"K({v}) = {fraction_str(k)}" for v, k in ks.items()]
    lines.append(f"sum = {fraction_str(total)}")
    return report, "\n".join(lines)


def cmd_morse(args):
    if args.f is not None and args.seed is not None:
        raise argparse.ArgumentTypeError("morse takes --f or --seed, not both")
    g = load_edge_list(args.input)
    if args.f:
        try:
            values = [float(x) for x in args.f.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError("--f expects comma-separated numbers")
        data = geometry.poincare_hopf(g, values)
    else:
        if args.seed is None:
            raise argparse.ArgumentTypeError("morse needs --f values or --seed")
        import random

        rng = random.Random(args.seed)
        order = list(g.vertices)
        rng.shuffle(order)
        data = geometry.poincare_hopf(g, {v: order.index(v) for v in g.vertices})
    report = {
        "f": {str(v): data.f[v] for v in g.vertices},
        "indices": {str(v): data.indices[v] for v in g.vertices},
        "critical": list(data.critical),
        "sum": data.total,
    }
    lines = [f"i({v}) = {data.indices[v]}" for v in g.vertices]
    lines.append(f"sum = {data.total}")
    return report, "\n".join(lines)


def cmd_spectrum(args):
    _, _, ops = _ops(args)
    report = {
        "dirac": [float(x) for x in ops.dirac_eigensystem[0]],
        "byDegree": {
            str(k): [float(x) for x in ops.block_eigensystems[k][0]]
            for k in range(len(ops.complex.strata))
        },
    }
    text = "dirac spectrum: " + " ".join(f"{x:.6f}" for x in report["dirac"])
    return report, text


def cmd_zeta(args):
    _, _, ops = _ops(args)
    try:
        s = complex(args.s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {args.s!r}")
    if not cmath.isfinite(s):
        raise argparse.ArgumentTypeError("--s must be finite")
    z = dirac_zeta(ops, s)
    report = {"s": z.s, "value": z.value, "branch": z.branch}
    return report, f"zeta({s}) = {z.value}"


def cmd_distance(args):
    g = load_edge_list(args.input)
    h = load_edge_list(args.second)
    dist = simplex_distance(g, h)
    da, db = aligned_dirac_pair(g, h)
    # padded to the complete complex, the sums stay and only the size grows
    rep = replace(spectral_distance(da, db), size=2 ** g.n - 1)
    deg = max_simplex_degree(da, db)
    report = {
        "simplexDistance": dist,
        "spectralDistance": rep.distance,
        "lidskiiBound": rep.bound,
        "degreeTimesDistance": float(deg * dist),
        "maxSimplexDegree": deg,
    }
    text = (
        f"simplex distance   : {fraction_str(dist)}\n"
        f"spectral distance  : {rep.distance:.9g}\n"
        f"lidskii bound      : {rep.bound:.9g}\n"
        f"deg * distance     : {float(deg * dist):.9g}"
    )
    return report, text


def cmd_magnitude(args):
    g = load_edge_list(args.input)
    value = magnitude(g)
    return {"magnitude": value}, f"|G| = {value:.9g}"


def cmd_trees(args):
    g, c = _load(args)
    trees = kirchhoff_trees(g)
    strees = simplex_graph_trees(c)
    report = {"spanningTrees": trees, "simplexGraphSpanningTrees": strees}
    return report, f"spanning trees: {trees}\nsimplex-graph spanning trees: {strees}"


def cmd_deform(args):
    path = args.snapshots or (args.out + ".snapshots.json" if args.out else None)
    if args.snapshot_every and path is None:
        raise argparse.ArgumentTypeError("--snapshot-every needs --snapshots or --out")
    _, _, ops = _ops(args)
    states = lax_deform(ops, args.T, args.h, variant=args.variant)
    csv = trajectory_csv(states)
    if args.snapshot_every:
        snaps = [
            {"t": s.t, "d": s.d.tolist(), "b": s.b.tolist()}
            for i, s in enumerate(states)
            if i % args.snapshot_every == 0
        ]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(snaps))
    return None, csv.rstrip("\n")


def cmd_lefschetz(args):
    g, c, ops = _ops(args)
    maps = morphisms.automorphisms(g)
    entries = []
    zeta_product = 1.0 + 0j
    for t in maps:
        rep = morphisms.lefschetz(ops, t)
        entry = {
            "permutation": [t[v] for v in g.vertices],
            "lefschetz": rep.lefschetz,
            "traces": list(rep.traces),
            "fixedSimplices": [
                {"simplex": list(x), "index": i} for x, i in rep.fixed_simplices
            ],
        }
        if args.z is not None:
            zt = morphisms.lefschetz_zeta(ops, t, args.z)
            entry["zeta"] = zt
            zeta_product *= zt
        entries.append(entry)
    report = {"automorphisms": entries, "count": len(maps)}
    if args.z is not None:
        report["zetaProduct"] = zeta_product
    lines = [f"{len(maps)} automorphisms"]
    for e in entries:
        lines.append(f"  {e['permutation']}  L(T) = {e['lefschetz']}")
    return report, "\n".join(lines)


def cmd_dimension(args):
    g = load_edge_list(args.input)
    dim = geometry.dimension(g)
    return {"dimension": dim}, f"dim = {fraction_str(dim)}"


def cmd_contract(args):
    g = load_edge_list(args.input)
    result = geometry.contract(g)
    verdict = result.contractible if result.contractible is not None else "unknown"
    report = {
        "contractible": result.contractible,
        "removed": list(result.steps),
        "remaining": list(result.reduced.vertices),
    }
    text = (
        f"contractible: {verdict}\n"
        f"removed     : {list(result.steps)}\n"
        f"remaining   : {list(result.reduced.vertices)}"
    )
    return report, text


COMMANDS = {
    "analyze": cmd_analyze,
    "cohomology": cmd_cohomology,
    "curvature": cmd_curvature,
    "morse": cmd_morse,
    "spectrum": cmd_spectrum,
    "zeta": cmd_zeta,
    "distance": cmd_distance,
    "magnitude": cmd_magnitude,
    "trees": cmd_trees,
    "deform": cmd_deform,
    "lefschetz": cmd_lefschetz,
    "dimension": cmd_dimension,
    "contract": cmd_contract,
}


class _Parser(argparse.ArgumentParser):
    """An argparse parser that accepts each option only spelled in full and
    reports a usage error as one stderr line, like every other error.

    add_subparsers makes the subparsers of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="diracgraph",
        description="Dirac operator toolchain for the clique complex of a graph",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, max_dim=False, inputs=1):
        """Positional inputs, --format and --out, plus --max-dim for commands that build D."""
        p.add_argument("input", help="edge-list file")
        if inputs == 2:
            p.add_argument("second", help="second edge-list file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        if max_dim:
            p.add_argument("--max-dim", type=int, default=None, dest="max_dim")
        return p

    for name, max_dim in (("analyze", True), ("cohomology", True), ("curvature", False),
                          ("spectrum", True), ("magnitude", False), ("trees", True),
                          ("dimension", False), ("contract", False)):
        common(sub.add_parser(name), max_dim)
    p = common(sub.add_parser("morse"))
    p.add_argument("--seed", type=int, default=None, help="RNG seed")
    p.add_argument("--f", help="comma-separated injective vertex values")
    p = common(sub.add_parser("zeta"), max_dim=True)
    p.add_argument("--s", required=True, help="complex argument, e.g. '2' or '1+0.5j'")
    common(sub.add_parser("distance"), inputs=2)
    p = common(sub.add_parser("deform"), max_dim=True)
    p.add_argument("--T", type=float, default=10.0, help="total deformation time")
    p.add_argument("--h", type=float, default=0.01, help="sampling interval: rows at t = 0, h, 2h, ...")
    p.add_argument("--variant", choices=("real", "complexified"), default="real")
    p.add_argument("--snapshot-every", type=int, default=0, dest="snapshot_every")
    p.add_argument("--snapshots", help="path for full-matrix JSON snapshots")
    p = common(sub.add_parser("lefschetz"), max_dim=True)
    p.add_argument("--z", type=complex, default=None, help="evaluate zeta_T at this point")
    return parser


def _validate(args):
    for name in ("h", "T"):
        value = getattr(args, name, 1.0)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"--{name} must be positive")
        if not cmath.isfinite(value):
            raise argparse.ArgumentTypeError(f"--{name} must be finite")
    if getattr(args, "z", None) is not None and not cmath.isfinite(args.z):
        raise argparse.ArgumentTypeError("--z must be finite")
    if getattr(args, "snapshot_every", 0) < 0:
        raise argparse.ArgumentTypeError("--snapshot-every must be non-negative")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_OK
    try:
        _validate(args)
        report, text = COMMANDS[args.command](args)
        output = canonical_json(report) if args.format == "json" and report is not None else text + "\n"
    except (argparse.ArgumentTypeError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError:
        print(f"capacity error: out of memory in {args.command}", file=sys.stderr)
        return EXIT_CAPACITY
    except ComputationError as e:
        print(f"computation error: {e}", file=sys.stderr)
        return EXIT_COMPUTATION
    except ArithmeticError as e:  # a float result beyond double range (OverflowError)
        print(f"computation error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_COMPUTATION
    except ConsistencyError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except DiracGraphError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
