"""Command-line surface.

Subcommands: dist, selprob, limit, rate, design, simulate, reproduce,
selfcheck.  Exit codes: 0 success, 2 usage error, 3 numeric failure,
4 regime not covered by the catalog.  Randomized commands require an
explicit --seed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace

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

# one compact line of strict JSON; an indent would select the pure-Python encoder
_JSON = json.JSONEncoder(allow_nan=False)
# a token argparse reads as a value, not an option: -1e-3, -inf, -1.5,2 as well
# as its own -1 and -.5
_NEGATIVE_NUMBER = re.compile(r"^-(\.?\d|inf)", re.IGNORECASE)


def _emit(rows, fmt: str, out: str | None) -> None:
    """Write rows, a list of dicts, as CSV (full-precision repr, and ``nan``
    for an absent value, None), or any JSON value as one line of strict
    JSON (``null`` for None)."""
    if fmt == "json":
        text = _JSON.encode(rows) + "\n"
    else:
        if not rows:
            text = ""
        else:
            cols = list(rows[0])
            lines = [",".join(cols)]
            for row in rows:
                lines.append(",".join(
                    "nan" if v is None else repr(v) if isinstance(v, float) else str(v)
                    for v in (row[c] for c in cols)))
            text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_eta(args, n: int) -> float:
    if args.eta is not None and args.eta_rule is not None:
        raise ValueError("give either --eta or --eta-rule, not both")
    return default_eta(n) if args.eta is None else args.eta


def _dof_from_args(args):
    if args.mode == "known" and args.dof is not None:
        raise ValueError("--dof applies only with --mode unknown")
    return args.dof


def _mode_from_args(args) -> fd.VarianceMode:
    dof = _dof_from_args(args)
    if args.mode == "known":
        return fd.VarianceMode.known_sigma()
    if dof is None:
        raise ValueError("--mode unknown requires --dof")
    # selprob reads --dof as a float so that --limit can take inf
    if isinstance(dof, float) and dof.is_integer():
        dof = int(dof)
    return fd.VarianceMode.unknown_sigma(dof)


def _given(value, default):
    return default if value is None else value


def _spec_from_args(args) -> fd.ComponentSpec:
    if args.n is None:
        raise ValueError("a finite-sample law requires --n")
    # the alpha presets divide by xi and eta, so they read a validated spec
    spec = fd.ComponentSpec(n=args.n, xi=_given(args.xi, 1.0), theta=_given(args.theta, 0.0),
                            sigma=_given(args.sigma, 1.0), eta=_resolve_eta(args, args.n))
    if args.alpha is None or args.alpha == "root-n-over-xi":
        return spec
    if args.alpha == "inverse-xi-eta":
        return replace(spec, alpha=fd.inverse_xi_eta(spec.xi, spec.eta))
    return replace(spec, alpha=float(args.alpha))


def _grid(law: fd.MixtureDistribution) -> np.ndarray:
    """The output grid, with the atom and both its one-sided neighbors."""
    grid = np.linspace(GRID_RANGE[0], GRID_RANGE[1], GRID_POINTS)
    return fd.with_atom_neighborhood(grid, law.atom_location)


def _cmd_dist(args) -> int:
    spec = _spec_from_args(args)
    mode = _mode_from_args(args)
    mix = fd.as_mixture(args.kind, mode, spec)
    grid = _grid(mix)
    loc, weight = mix.atom_location, mix.atom_weight
    rows = [{"x": x, "cdf": c, "ac_density": d, "atom_location": loc, "atom_weight": weight}
            for x, c, d in zip(grid.tolist(), mix.cdf(grid).tolist(),
                               mix.ac_density(grid).tolist())]
    _emit(rows, args.format, args.out)
    return EXIT_OK


def _regime_from_args(args) -> lm.RegimeParams:
    return lm.RegimeParams(e=args.e, nu=args.nu, zeta=args.zeta, r=args.r, d=args.d,
                           r_prime=args.r_prime, w=args.w, dof=_dof_from_args(args))


# the selprob flags that only the finite-sample path, or only the --limit
# path, reads; a flag left out reads None (_spec_from_args supplies xi = 1,
# theta = 0 and sigma = 1), so a given one shows.  --n is also taken, unused,
# with --limit.
_FINITE_ONLY = ("xi", "theta", "sigma", "eta", "eta_rule", "alpha")
_LIMIT_ONLY = ("e", "nu", "zeta", "r", "d", "r_prime", "w")


def _cmd_selprob(args) -> int:
    for name in _FINITE_ONLY if args.limit else _LIMIT_ONLY:
        if getattr(args, name) is not None:  # a flag that this path would ignore
            raise ValueError(f"--{name.replace('_', '-')} does not apply "
                             f"{'with' if args.limit else 'without'} --limit")
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
    # the fixed-dof families average their atom weight afresh on every read
    loc, weight = family.atom_location, family.atom_weight
    grid = _grid(family)
    rows = [{"family": meta["family"], "x": x, "cdf": c,
             "atom_location": loc, "atom_weight": weight}
            for x, c in zip(grid.tolist(), family.cdf(grid).tolist())]
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
            "xi": xi.tolist(),
            "matrix_file": args.out}
    if args.format == "json":
        if not args.out:
            meta["matrix"] = X.tolist()
        _emit(meta, "json", None)
    else:
        rows = [{"key": k, "value": v} for k, v in meta.items() if k not in ("xi", "matrix")]
        rows += [{"key": f"xi_{i + 1}", "value": float(v)} for i, v in enumerate(xi)]
        _emit(rows, "csv", None)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    design = _design_from_args(args)
    theta = tuple(float(t) for t in args.theta.split(","))
    config = mc.SimConfig(design=design, theta=theta, sigma=args.sigma,
                          estimator=args.estimator, feasible=not args.infeasible,
                          eta=_resolve_eta(args, design.n), reps=args.reps, seed=args.seed)
    result = mc.run_study(config)
    if args.out:
        mc.write_study(result, args.out)
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
    p.add_argument("--n", type=int, help="sample size (required unless selprob --limit)")
    p.add_argument("--xi", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--eta-rule", choices=["default"])
    p.add_argument("--alpha", help="root-n-over-xi | inverse-xi-eta | <value>")


def _add_regime_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--e", type=float)
    p.add_argument("--nu", type=float)
    p.add_argument("--zeta", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--d", type=float)
    p.add_argument("--r-prime", type=float)
    p.add_argument("--w", type=float)


def _add_design_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=["I", "II"], required=True)
    p.add_argument("--rho", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)


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
    p.add_argument("--dof", type=float, help="residual dof (int, or inf in --limit mode)")
    p.add_argument("--limit", action="store_true", help="limiting value from regime parameters")
    _add_regime_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_selprob)

    p = sub.add_parser("limit", help="emit a limit-distribution cdf grid")
    p.add_argument("--kind", choices=list(fd.KINDS), required=True)
    p.add_argument("--mode", choices=["known", "unknown"], default="known")
    p.add_argument("--dof", type=float)
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
    _add_design_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_design)

    p = sub.add_parser("simulate", help="run a seeded simulation study")
    _add_design_flags(p)
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

    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
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
    except (sf.QuadratureError, NonConvergenceError) as exc:
        _error(str(exc), EXIT_NUMERIC)
        return EXIT_NUMERIC
    except (ValueError, SingularDesignError, OSError) as exc:
        _error(str(exc), EXIT_USAGE)
        return EXIT_USAGE


def _error(message: str, code: int) -> None:
    sys.stderr.write(json.dumps({"error": message, "exit_code": code}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
