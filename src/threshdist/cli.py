"""Command-line surface.

Subcommands: dist, selprob, limit, rate, design, simulate, reproduce,
selfcheck.  Exit codes: 0 success, 2 usage error, 3 numeric failure,
4 regime not covered by the catalog.  Randomized commands require an
explicit --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import special as sf
from . import distributions as fd
from . import limits as lm
from . import estimators as est
from . import simulate as mc
from .estimators import DesignSpec, NonConvergenceError, SingularDesignError
from .simulate import default_eta

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_REGIME = 4

GRID_POINTS = 601
GRID_RANGE = (-6.0, 6.0)


def _ext_float(text: str) -> float:
    """Float arguments accepting inf / -inf spellings."""
    val = float(text)
    if math.isnan(val):
        raise argparse.ArgumentTypeError("NaN is not a valid value")
    return val


def _emit(rows: list[dict], fmt: str, out: str | None) -> None:
    """Write rows either as CSV (full-precision repr) or as a JSON list."""
    if fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        if not rows:
            text = ""
        else:
            cols = list(rows[0])
            lines = [",".join(cols)]
            for row in rows:
                lines.append(",".join(
                    repr(v) if isinstance(v, float) else str(v) for v in (row[c] for c in cols)))
            text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_eta(args, n: int) -> float:
    if args.eta is not None and args.eta_rule is not None:
        raise ValueError("give either --eta or --eta-rule, not both")
    if args.eta is not None:
        return args.eta
    if args.eta_rule in (None, "default"):
        return default_eta(n)
    raise ValueError(f"unknown eta rule {args.eta_rule!r}")


def _resolve_alpha(text: str | None, n: int, xi: float, eta: float) -> float:
    if text is None or text == "root-n-over-xi":
        return fd.root_n_over_xi(n, xi)
    if text == "inverse-xi-eta":
        return fd.inverse_xi_eta(xi, eta)
    return float(text)


def _mode_from_args(args) -> fd.VarianceMode:
    if args.mode == "known":
        return fd.VarianceMode.known_sigma()
    if args.dof is None:
        raise ValueError("--mode unknown requires --dof")
    return fd.VarianceMode.unknown_sigma(int(args.dof))


def _spec_from_args(args) -> fd.ComponentSpec:
    eta = _resolve_eta(args, args.n)
    alpha = _resolve_alpha(args.alpha, args.n, args.xi, eta)
    return fd.ComponentSpec(n=args.n, xi=args.xi, theta=args.theta,
                            sigma=args.sigma, eta=eta, alpha=alpha)


def _dist_grid(mix: fd.MixtureDistribution) -> np.ndarray:
    grid = np.linspace(GRID_RANGE[0], GRID_RANGE[1], GRID_POINTS)
    a = mix.atom_location
    off = 1e-9 * max(1.0, abs(a))
    return np.unique(np.concatenate([grid, [a - off, a, a + off]]))


def _cmd_dist(args) -> int:
    spec = _spec_from_args(args)
    mode = _mode_from_args(args)
    mix = fd.as_mixture(args.kind, mode, spec)
    grid = _dist_grid(mix)
    rows = [{"x": float(x), "cdf": float(c), "ac_density": float(d),
             "atom_location": mix.atom_location, "atom_weight": mix.atom_weight}
            for x, c, d in zip(grid, mix.cdf(grid), mix.ac_density(grid))]
    _emit(rows, args.format, args.out)
    return EXIT_OK


def _regime_from_args(args) -> lm.RegimeParams:
    return lm.RegimeParams(e=args.e, nu=args.nu, zeta=args.zeta, r=args.r,
                           d=args.d, r_prime=args.r_prime, w=args.w, dof=args.dof)


def _cmd_selprob(args) -> int:
    if args.limit:
        params = _regime_from_args(args)
        value = lm.limit_selection_probability(params, args.mode)
    else:
        spec = _spec_from_args(args)
        value = fd.deletion_probability(spec, _mode_from_args(args))
    _emit([{"value": value}], args.format, args.out)
    return EXIT_OK


def _cmd_limit(args) -> int:
    params = _regime_from_args(args)
    if args.oracle:
        family = lm.oracle_limit(args.kind, params)
    else:
        family = lm.limit_distribution(args.kind, args.mode, params)
    meta = {"family": type(family).__name__}
    if isinstance(family, lm.EscapesToInfinity):
        meta["direction"] = family.direction
        _emit([meta], args.format, args.out)
        return EXIT_OK
    # the fixed-dof families integrate their atom weight on every read
    loc, weight = family.atom_location, family.atom_weight
    rows = []
    grid = np.linspace(GRID_RANGE[0], GRID_RANGE[1], GRID_POINTS)
    if loc is not None and math.isfinite(loc):
        off = 1e-9 * max(1.0, abs(loc))
        grid = np.unique(np.concatenate([grid, [loc - off, loc, loc + off]]))
    for x in grid:
        rows.append({"family": meta["family"], "x": float(x), "cdf": family.cdf(float(x)),
                     "atom_location": loc if loc is not None else math.nan,
                     "atom_weight": weight})
    _emit(rows, args.format, args.out)
    return EXIT_OK


def _cmd_rate(args) -> int:
    _emit([{"value": lm.uniform_rate(args.n, args.xi, args.eta)}], args.format, args.out)
    return EXIT_OK


def _design_from_args(args) -> DesignSpec:
    if args.variant == "I":
        if args.rho is None:
            raise ValueError("variant I needs --rho")
        return DesignSpec("I", args.n, args.k, rho=args.rho)
    if args.c is None:
        raise ValueError("variant II needs --c")
    return DesignSpec("II", args.n, args.k, c=args.c)


def _cmd_design(args) -> int:
    spec = _design_from_args(args)
    X = est.make_design(spec)
    xi = est.xi_values(X)
    cond = float(np.linalg.cond(X.T @ X))
    if args.out:
        est.write_matrix(args.out, X)
    meta = {"variant": spec.variant, "n": spec.n, "k": spec.k, "rho": spec.rho,
            "c": spec.c, "condition_number": cond,
            "xi": [float(v) for v in xi],
            "matrix_file": args.out}
    if args.format == "json":
        if not args.out:
            meta["matrix"] = [[float(v) for v in row] for row in X]
        sys.stdout.write(json.dumps(meta, indent=2) + "\n")
    else:
        rows = [{"key": k, "value": v} for k, v in meta.items() if k not in ("xi", "matrix")]
        rows += [{"key": f"xi_{i + 1}", "value": float(v)} for i, v in enumerate(xi)]
        _emit(rows, "csv", None)
    return EXIT_OK


def _write_result_files(result: mc.SimResult, prefix: str) -> None:
    mids = 0.5 * (result.hist_edges[:-1] + result.hist_edges[1:])
    k = result.config.design.k
    for i in range(k):
        mix = result.overlay[i]
        density = mix.ac_density(mids)
        with open(f"{prefix}_comp{i + 1}.csv", "w", encoding="utf-8") as fh:
            fh.write("bin_left,bin_right,hist_height,x,overlay_ac_density,"
                     "overlay_atom_location,overlay_atom_weight,zero_proportion\n")
            for j, x in enumerate(mids):
                row = (result.hist_edges[j], result.hist_edges[j + 1],
                       result.hist_heights[i, j], x, density[j],
                       mix.atom_location, mix.atom_weight, result.zero_proportion[i])
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
    meta = {
        "estimator": result.config.estimator,
        "feasible": result.config.feasible,
        "n": result.config.design.n,
        "k": k,
        "eta": result.config.eta_value(),
        "reps": result.config.reps,
        "seed": result.config.seed,
        "xi": [float(v) for v in result.xi],
        "zero_proportion": [float(v) for v in result.zero_proportion],
        "outlier_count": [int(v) for v in result.outlier_count],
        "solver_failures": result.solver_failures,
    }
    with open(f"{prefix}_meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_simulate(args) -> int:
    design = _design_from_args(args)
    theta = tuple(float(t) for t in args.theta.split(","))
    eta = None if args.eta is None and args.eta_rule in (None, "default") else _resolve_eta(args, design.n)
    config = mc.SimConfig(design=design, theta=theta, sigma=args.sigma,
                          estimator=args.estimator, feasible=not args.infeasible,
                          eta=eta, reps=args.reps, seed=args.seed)
    result = mc.run_study(config)
    if args.out:
        _write_result_files(result, args.out)
    else:
        rows = [{"component": i + 1,
                 "zero_proportion": float(result.zero_proportion[i]),
                 "atom_weight": result.overlay[i].atom_weight,
                 "xi": float(result.xi[i]),
                 "outliers": int(result.outlier_count[i])}
                for i in range(design.k)]
        _emit(rows, args.format, None)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    paths = mc.reproduce_figures(args.out, seed=args.seed, reps=args.reps)
    sys.stdout.write("\n".join(paths) + "\n")
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    from . import selfcheck
    failures = selfcheck.run(args.checks or None)
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def _add_component_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--xi", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--eta", type=float)
    p.add_argument("--eta-rule", choices=["default"])
    p.add_argument("--alpha", help="root-n-over-xi | inverse-xi-eta | <value>")


def _add_regime_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--e", type=_ext_float)
    p.add_argument("--nu", type=_ext_float)
    p.add_argument("--zeta", type=_ext_float)
    p.add_argument("--r", type=_ext_float)
    p.add_argument("--d", type=_ext_float)
    p.add_argument("--r-prime", type=_ext_float)
    p.add_argument("--w", type=_ext_float)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threshdist",
        description="Finite-sample and limit distributions of thresholding estimators")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="evaluate cdf/density/atom on a grid")
    _add_component_flags(p)
    p.add_argument("--kind", choices=list(fd.KINDS), required=True)
    p.add_argument("--mode", choices=["known", "unknown"], default="known")
    p.add_argument("--dof", type=int)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_dist)

    p = sub.add_parser("selprob", help="deletion probability, finite or limiting")
    _add_component_flags(p)
    p.add_argument("--mode", choices=["known", "unknown"], default="known")
    p.add_argument("--dof", type=_ext_float, help="residual dof (int, or inf in --limit mode)")
    p.add_argument("--limit", action="store_true", help="limiting value from regime parameters")
    _add_regime_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_selprob)

    p = sub.add_parser("limit", help="emit a limit-distribution cdf grid")
    p.add_argument("--kind", choices=list(fd.KINDS), required=True)
    p.add_argument("--mode", choices=["known", "unknown"], default="known")
    p.add_argument("--dof", type=_ext_float)
    p.add_argument("--oracle", action="store_true",
                   help="sqrt(n)/xi scaling under consistent tuning")
    _add_regime_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_limit)

    p = sub.add_parser("rate", help="uniform consistency rate min(sqrt(n)/xi, 1/(xi*eta))")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_rate)

    p = sub.add_parser("design", help="emit a benchmark design matrix and metadata")
    p.add_argument("--variant", choices=["I", "II"], required=True)
    p.add_argument("--rho", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_design)

    p = sub.add_parser("simulate", help="run a seeded simulation study")
    p.add_argument("--variant", choices=["I", "II"], required=True)
    p.add_argument("--rho", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theta", required=True, help="comma-separated true coefficients")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--eta", type=float)
    p.add_argument("--eta-rule", choices=["default"])
    p.add_argument("--estimator", choices=list(mc.ESTIMATORS), required=True)
    p.add_argument("--infeasible", action="store_true", help="use the true sigma")
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("reproduce", help="emit the data behind the twelve benchmark panels")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reps", type=int, default=10_000)
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser("selfcheck", help="run the library invariant suites")
    p.add_argument("checks", nargs="*", help="subset of check names (default: all)")
    p.set_defaults(fn=_cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except lm.RegimeNotCoveredError as exc:
        _error(str(exc), EXIT_REGIME)
        return EXIT_REGIME
    except (sf.QuadratureError, NonConvergenceError, mc.SolverFailureRateError) as exc:
        _error(str(exc), EXIT_NUMERIC)
        return EXIT_NUMERIC
    except (ValueError, SingularDesignError) as exc:
        _error(str(exc), EXIT_USAGE)
        return EXIT_USAGE


def _error(message: str, code: int) -> None:
    sys.stderr.write(json.dumps({"error": message, "exit_code": code}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
