"""Command-line driver for the 2D benchmark studies.

Subcommands: bar2d (single run), bar2d-sweep (config-file grid),
dtcrit-sweep (critical time step ratios), quadrature-check (geometry
exactness report). Exit codes: 0 success, 2 config error, 3 numerical
failure.
"""

import argparse
import configparser
import math
import sys

import numpy as np

from . import __version__, geometry
from .benchmark import (
    BarBenchmarkConfig,
    convergence_csv_rows,
    dtcrit_csv_rows,
    run_bar_case,
    run_bar_convergence,
    run_dtcrit_sweep,
)
from .errors import ConfigError, NumericalError
from .momentfit import LUMPING_SCHEMES


def _parse_list(text, convert, key):
    try:
        values = [convert(v) for v in str(text).split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad list value: {exc}") from exc
    if not values:
        raise ConfigError(f"{key} lists no values")
    return values


def _write_rows(rows, out):
    text = "\n".join(rows) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _bar_cfg_from_args(args):
    kwargs = {}
    if args.h is not None:
        if not (math.isfinite(args.h) and args.h > 0):
            raise ConfigError(f"h must be positive and finite, got {args.h!r}")
        n = max(2, int(round(BarBenchmarkConfig.lx / args.h + 1.0 - args.cut_fraction)))
        kwargs["elements_x"] = n
    if args.elements is not None:
        kwargs["elements_x"] = args.elements
    return BarBenchmarkConfig(
        cut_fraction=args.cut_fraction,
        order=args.order,
        scheme=args.scheme,
        epsilon=args.epsilon,
        dt=args.dt,
        t_end=args.t_end,
        **kwargs,
    )


def cmd_bar2d(args):
    cfg = _bar_cfg_from_args(args)
    report = run_bar_case(cfg)
    _write_rows(convergence_csv_rows([report]), args.out)
    return 0


def _read_sweep_config(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if "bar2d" not in parser:
        raise ConfigError("config file needs a [bar2d] section")
    sec = parser["bar2d"]
    try:
        grid = {
            "elements": _parse_list(sec.get("elements", "10,20,40"), int, "elements"),
            "orders": _parse_list(sec.get("orders", "5"), int, "orders"),
            "cut_fractions": _parse_list(sec.get("cut_fractions", "1.0"), float, "cut_fractions"),
            "schemes": _parse_list(sec.get("schemes", "fitted"), str.strip, "schemes"),
            "epsilons": _parse_list(sec.get("epsilons", "0.01"), float, "epsilons"),
            "dt": sec.getfloat("dt", 1e-5),
            "t_end": sec.getfloat("t_end", 0.4),
        }
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    # the grid's keys are the documented ones; a misspelt key must not fall
    # back to its default silently
    unknown = sorted(set(sec) - set(grid))
    if unknown:
        raise ConfigError(f"unknown [bar2d] key: {', '.join(unknown)}")
    return grid


def cmd_bar2d_sweep(args):
    grid = _read_sweep_config(args.config)
    # CLI overrides config-file keys
    if args.orders is not None:
        grid["orders"] = _parse_list(args.orders, int, "--orders")
    if args.fractions is not None:
        grid["cut_fractions"] = _parse_list(args.fractions, float, "--fractions")
    if args.schemes is not None:
        grid["schemes"] = _parse_list(args.schemes, str.strip, "--schemes")
    if args.epsilons is not None:
        grid["epsilons"] = _parse_list(args.epsilons, float, "--epsilons")
    base = BarBenchmarkConfig(dt=grid["dt"], t_end=grid["t_end"])
    reports = run_bar_convergence(
        base,
        grid["elements"],
        grid["orders"],
        grid["cut_fractions"],
        grid["schemes"],
        grid["epsilons"],
    )
    _write_rows(convergence_csv_rows(reports), args.out)
    return 0


def cmd_dtcrit_sweep(args):
    orders = _parse_list(args.orders, int, "--orders")
    fractions = _parse_list(args.fractions, float, "--fractions")
    schemes = _parse_list(args.schemes, str.strip, "--schemes")
    epsilons = _parse_list(args.epsilons, float, "--epsilons")
    rows = run_dtcrit_sweep(orders, fractions, schemes, epsilons)
    _write_rows(dtcrit_csv_rows(rows), args.out)
    return 0


def cmd_quadrature_check(args):
    rows = ["check,parameter,value,reference,abs_error"]
    # straight-cut monomial exactness on the unit element: one leaf, no split
    for frac in (0.25, 0.5, 0.76):
        ls = geometry.half_plane(1.0, 0.0, frac)
        cutq = geometry.build_cut_quadrature(
            ls, ((0.0, 1.0), (0.0, 1.0)), gauss_degree=args.degree
        )
        xc = 2.0 * frac - 1.0
        worst = 0.0
        for a in range(args.degree + 1):
            for b in range(args.degree + 1 - a):
                got = float(
                    np.dot(cutq.weights, cutq.points[:, 0] ** a * cutq.points[:, 1] ** b)
                )
                exact_xi = (xc ** (a + 1) - (-1.0) ** (a + 1)) / (a + 1)
                exact_eta = (1.0 - (-1.0) ** (b + 1)) / (b + 1)
                worst = max(worst, abs(got - exact_xi * exact_eta))
        rows.append(f"straight_cut_monomials,fraction={frac!r},{worst!r},0.0,{worst!r}")
    # circular void volume-ratio convergence
    ls = geometry.circle(0.0, 0.0, 0.5)
    exact = 1.0 - math.pi * 0.25 / 4.0
    for depth in range(1, 6):
        cutq = geometry.build_cut_quadrature(
            ls, ((0.0, 1.0), (0.0, 1.0)), depth=depth, gauss_degree=args.degree
        )
        err = abs(cutq.volume_ratio - exact)
        rows.append(f"circle_volume_ratio,depth={depth},{cutq.volume_ratio!r},{exact!r},{err!r}")
    _write_rows(rows, args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cutsem", description="cut spectral-element wave benchmarks"
    )
    parser.add_argument("--version", action="version", version=f"cutsem {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bar2d", help="single cut-bar run")
    size = p.add_mutually_exclusive_group()
    size.add_argument("--h", type=float, default=None, help="target element size")
    size.add_argument("--elements", type=int, default=None, help="element columns")
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--cut-fraction", dest="cut_fraction", type=float, default=0.5)
    p.add_argument("--scheme", default="fitted", choices=LUMPING_SCHEMES)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--dt", type=float, default=1e-5)
    p.add_argument("--t-end", dest="t_end", type=float, default=0.4)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_bar2d)

    p = sub.add_parser("bar2d-sweep", help="config-driven convergence sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--orders", default=None)
    p.add_argument("--fractions", default=None)
    p.add_argument("--schemes", default=None)
    p.add_argument("--epsilons", default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_bar2d_sweep)

    p = sub.add_parser("dtcrit-sweep", help="critical time step ratio study")
    p.add_argument("--orders", default="4,5,6,7")
    p.add_argument("--fractions", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    p.add_argument("--schemes", default="fitted,hrz,scaled")
    p.add_argument("--epsilons", default="0.01,0.1")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_dtcrit_sweep)

    p = sub.add_parser("quadrature-check", help="geometry exactness report")
    p.add_argument("--degree", type=int, default=8)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_quadrature_check)

    return parser


def main(argv=None):
    # argparse exits with code 2 on a usage error by itself
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
