"""Command-line front end.

Four subcommands:

    maxglm run         --config run.cfg [--override key=value ...]
    maxglm convergence --scheme htc --n 20,40,80,160
    maxglm ap          --ch 1e2,1e3,1e4,1e5
    maxglm check       [--suite all|ops|flux|matrices]

Every command exits 0 on success and nonzero on failure; `check` fails when
any property residual exceeds its threshold.
"""

import argparse
import sys

from . import harness


def _int_list(text):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers, got %r" % text)


def _float_list(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated numbers, got %r" % text)


def _cmd_run(args):
    pairs = harness.parse_config_file(args.config) if args.config else {}
    config = harness.make_config(pairs, args.override)
    series, _ = harness.simulate(config)
    print("scheme=%s ic=%s grid=%dx%d steps=%d final t=%.6g"
          % (config.scheme, config.ic, config.nx, config.ny,
             len(series) - 1, series.t[-1]))
    print("energy: initial %.12e  max |relative drift| %.3e"
          % (series.energy[0], series.max_abs_energy_error()))
    print("divergence at final step: |div B| = %.6e  |div E| = %.6e"
          % (series.div_B[-1], series.div_E[-1]))
    if config.output_dir:
        print("wrote energy.csv / divergence.csv under %s"
              % harness.resolve_output_dir(config.output_dir))
    return 0


def _print_error_table(rows, orders):
    names = harness.COMPONENT_NAMES
    print("   N  " + "".join("%11s" % c for c in names))
    for N, errs in rows:
        print("%4d  " % N + "".join("  %9.3e" % errs[c] for c in names))
    for i in range(1, len(rows)):
        cells = []
        for c in names:
            seq = orders.get(c, [])
            cells.append("%11.2f" % seq[i - 1] if len(seq) >= i else "%11s" % "-")
        print("  ->  " + "".join(cells))


def _cmd_convergence(args):
    outdir = args.output_dir if args.output_dir is not None else "runs/convergence_%s" % args.scheme
    rows, orders = harness.study_convergence(args.scheme, args.n, output_dir=outdir)
    print("planar wave, %s scheme, one period (cfl=%g):"
          % (args.scheme, harness.PLANAR_REFERENCE_CFL))
    _print_error_table(rows, orders)
    for line in harness.summarize_convergence(args.scheme, rows, orders):
        print(line)
    if outdir:
        print("wrote errors.csv and summary.txt under %s"
              % harness.resolve_output_dir(outdir))
    return 0


def _cmd_ap(args):
    outdir = args.output_dir if args.output_dir is not None else "runs/ap"
    rows, orders = harness.study_ap(args.ch, output_dir=outdir)
    print("divergence vs cleaning speed (40x40, dt=1e-2, t=0.1):")
    print("%10s  %12s  %12s  %8s  %8s" % ("ch", "|div B|", "|div E|", "ord B", "ord E"))
    for i, (ch, div_b, div_e) in enumerate(rows):
        tail = "        -         -" if i == 0 else "  %8.2f  %8.2f" % orders[i - 1]
        print("%10.3g  %12.6e  %12.6e%s" % (ch, div_b, div_e, tail))
    for line in harness.summarize_ap(rows, orders):
        print(line)
    if outdir:
        print("wrote ap.csv and summary.txt under %s"
              % harness.resolve_output_dir(outdir))
    return 0


def _cmd_check(args):
    report = harness.check(args.suite)
    for line in report.lines():
        print(line)
    print("%d/%d checks passed" % (sum(ok for *_, ok in report.rows), len(report.rows)))
    return 0 if report.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="maxglm",
        description="Structure-preserving solvers for the hyperbolic "
                    "Maxwell system with divergence cleaning.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", help="path to a 'key = value' config file")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config entry")
    p_run.set_defaults(func=_cmd_run)

    p_conv = sub.add_parser("convergence", help="planar-wave refinement study")
    p_conv.add_argument("--scheme", choices=harness.SCHEMES, required=True)
    p_conv.add_argument("--n", type=_int_list, default=[20, 40, 80, 160],
                        metavar="N1,N2,...", help="mesh resolutions")
    p_conv.add_argument("--output-dir", default=None,
                        help="where to write errors.csv ('' disables)")
    p_conv.set_defaults(func=_cmd_convergence)

    p_ap = sub.add_parser("ap", help="divergence decay vs cleaning speed")
    p_ap.add_argument("--ch", type=_float_list, default=[1e2, 1e3, 1e4, 1e5],
                      metavar="CH1,CH2,...", help="cleaning speeds")
    p_ap.add_argument("--output-dir", default=None,
                      help="where to write ap.csv ('' disables)")
    p_ap.set_defaults(func=_cmd_ap)

    p_check = sub.add_parser("check", help="run the property check suites")
    p_check.add_argument("--suite", default="all",
                         choices=("all",) + tuple(sorted(harness.CHECK_SUITES)))
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
