"""Command-line front end.

Each subcommand reads JSON inputs, runs one computation and prints a
machine-readable JSON report on stdout (full double precision); a one-line
human summary goes to stderr.  Exit codes: 0 success, 1 input or usage
error, 2 solver non-convergence, 3 infeasible or validation failure.

The default tolerance is 1e-7, overridable by the GNORM_DEFAULT_TOL
environment variable and per-invocation by --tol; either must be finite and
positive.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys

from . import __version__, solver
from .choi import choi_matrix
from .decisions import (
    GeneralizedPOVM,
    certify_optimal,
    experiment_from_json,
    helstrom,
    max_entangled_tester_exists,
    prior_weighted,
)
from .errors import (
    DomainError,
    EmptySectionError,
    GnormError,
    ShapeError,
    SolverError,
    ValidationError,
)
from .hermitian import as_count, as_tol, json_field, json_list, matrix_from_json, matrix_to_json
from .norms import NormResult, base_norm, diamond_norm, dmax, dual_base_norm, hmin, ncomb_norm
from .sections import section_from_descriptor

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_INFEASIBLE = 3


def _jsonable(x):
    """JSON has no infinity: write it as the string "inf" or "-inf"."""
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ShapeError(f"input file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ShapeError(f"file {path} is not valid JSON: {exc}")


def _load_matrix(path: str):
    return matrix_from_json(_load_json(path))


def _default_tol() -> float:
    raw = os.environ.get("GNORM_DEFAULT_TOL")
    if raw is None:
        return solver.DEFAULT_TOL
    try:
        return float(raw)
    except ValueError:
        raise ShapeError(f"GNORM_DEFAULT_TOL is not a number: {raw!r}")


def _emit(args, values: dict, summary: str, res: NormResult | None = None, witness=None) -> int:
    """Print the invocation's JSON report on stdout and ``summary`` on stderr.

    The report holds the command, the sha256 of each input file, ``values``
    and the version; ``requested_tol`` for commands that take --tol; and for
    a norm result ``res`` its values, gap, method and solver statistics.  The
    witnesses (``res``'s optimizers, else ``witness``) go to --witness-out.
    """
    report = {
        "command": args.command,
        "inputs": {name: _digest(getattr(args, name)) for name in args.inputs},
        "version": __version__,
    }
    if hasattr(args, "tol"):
        report["requested_tol"] = args.tol
    out = getattr(args, "witness_out", None)
    if res is not None:
        values.update(value=res.value, primal_value=res.primal_value, dual_value=res.dual_value)
        report.update(gap=res.gap, achieved_tol=res.gap, method=res.method)
        report["solver"] = {"status": res.status, "iterations": res.iterations}
        if out and res.primal_witness is not None:
            witness = {
                "primal_witness": matrix_to_json(res.primal_witness),
                "dual_witness": [matrix_to_json(w) for w in res.dual_witness],
            }
    if out and witness is not None:
        with open(out, "w") as fh:
            json.dump(witness, fh)
        report["witnesses"] = out
    report["values"] = {k: _jsonable(v) for k, v in values.items()}
    print(json.dumps(report, indent=2, sort_keys=True))
    print(summary, file=sys.stderr)
    return EXIT_OK


# -- subcommands ----------------------------------------------------------------


def _cmd_norm(args) -> int:
    section = section_from_descriptor(_load_json(args.section))
    x = _load_matrix(args.matrix)
    fn = dual_base_norm if args.dual else base_norm
    res = fn(section, x, tol=args.tol, max_iter=args.max_iter)
    summary = f"norm = {res.value:.12g} (gap {res.gap:.3e}, {res.method})"
    return _emit(args, {"dual": bool(args.dual)}, summary, res)


def _cmd_dmax(args) -> int:
    value = dmax(_load_matrix(args.a), _load_matrix(args.b))
    return _emit(args, {"dmax": value}, f"dmax = {value:.12g} (log base 2)")


def _cmd_helstrom(args) -> int:
    error, povm = helstrom(_load_matrix(args.rho0), _load_matrix(args.rho1), args.lam)
    witness = {"effects": [matrix_to_json(m) for m in povm.effects]}
    summary = f"minimal Bayes error = {error:.12g}"
    return _emit(args, {"error": error, "lambda": args.lam}, summary, witness=witness)


def _load_choi(args, name: str):
    return choi_matrix(_load_matrix(getattr(args, name)), name)


def _cmd_diamond(args) -> int:
    diff = prior_weighted(args.lam, _load_choi(args, "choi0"), _load_choi(args, "choi1"))
    res = diamond_norm(diff, tol=args.tol, max_iter=args.max_iter)
    error = max(0.0, 0.5 * (1.0 - res.value))
    summary = f"channel-section norm = {res.value:.12g}, error = {error:.12g}"
    return _emit(args, {"lambda": args.lam, "error": error}, summary, res)


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(d) for d in text.split(","))
    except ValueError:
        raise ShapeError(f"--dims must be comma-separated integers, got {text!r}") from None


def _cmd_comb_norm(args) -> int:
    dims = _parse_dims(args.dims)
    res = ncomb_norm(dims, _load_matrix(args.matrix), tol=args.tol, max_iter=args.max_iter)
    summary = f"network norm = {res.value:.12g} (gap {res.gap:.3e})"
    return _emit(args, {"dims": list(dims)}, summary, res)


def _cmd_hmin(args) -> int:
    sigma = _load_matrix(args.state)
    if args.dims:
        sigma = sigma.with_dims(_parse_dims(args.dims))
    value = hmin(sigma, tol=args.tol, max_iter=args.max_iter)
    return _emit(args, {"hmin": value}, f"conditional min-entropy = {value:.12g}")


def _cmd_certify(args) -> int:
    experiment, problem = experiment_from_json(_load_json(args.experiment))
    if problem is None:
        raise ShapeError("experiment file: missing 'payoff' field")
    cand_obj = _load_json(args.candidate)
    kind = json_field(cand_obj, "kind", "candidate file")
    if kind == "povm":
        effects = json_list(cand_obj, "effects", "povm candidate file")
        candidate = GeneralizedPOVM(experiment.section, tuple(matrix_from_json(m) for m in effects))
    elif kind == "choi":
        candidate = matrix_from_json(json_field(cand_obj, "matrix", "choi candidate file"))
    else:
        raise ShapeError("candidate file: field 'kind' must be 'povm' or 'choi'")
    cert = certify_optimal(candidate, experiment, problem, tol=args.tol, max_iter=args.max_iter)
    values = {
        "feasible": cert.feasible,
        "candidate_payoff": cert.candidate_payoff,
        "payoff_at_optimum": cert.payoff_at_optimum,
        "slack_residual": cert.slack_residual,
    }
    summary = (
        f"optimal: {cert.feasible} (payoff {cert.candidate_payoff:.9g} vs "
        f"optimum {cert.payoff_at_optimum:.9g})"
    )
    return _emit(args, values, summary)


def _cmd_tester_check(args) -> int:
    x0, x1 = _load_choi(args, "choi0"), _load_choi(args, "choi1")
    exists, residual = max_entangled_tester_exists(x0, x1, args.lam, tol=args.tol)
    summary = f"maximally entangled optimal tester exists: {exists} (residual {residual:.3e})"
    return _emit(args, {"exists": exists, "residual": residual, "lambda": args.lam}, summary)


def _command(sub, name: str, fn, help: str, *inputs: str):
    """A subcommand whose positional arguments are the JSON files ``inputs``."""
    p = sub.add_parser(name, help=help)
    for path in inputs:
        p.add_argument(path)
    p.set_defaults(fn=fn, inputs=inputs)
    return p


def _add_common(p, witness=True):
    p.add_argument("--tol", type=float, default=None, help="target tolerance")
    p.add_argument("--max-iter", type=int, default=solver.DEFAULT_MAX_ITER)
    if witness:
        p.add_argument("--witness-out", default=None, help="write optimizers to this JSON file")


class _Parser(argparse.ArgumentParser):  # its subcommand parsers are _Parsers too
    def error(self, message):  # a usage error is an input error (exit 1), not argparse's 2
        raise ShapeError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every :func:`main` call shares it."""
    parser = _Parser(
        prog="gnorm",
        description="Base norms on sections of the PSD cone and their "
        "discrimination/decision applications.",
    )
    parser.add_argument("--version", action="version", version=f"gnorm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "norm", _cmd_norm, "section norm of a hermitian matrix", "section", "matrix")
    p.add_argument("--dual", action="store_true", help="use the dual section")
    _add_common(p)

    _command(sub, "dmax", _cmd_dmax, "max-relative entropy log2 inf{t : a <= t b}", "a", "b")

    p = _command(sub, "helstrom", _cmd_helstrom, "minimal error for two states", "rho0", "rho1")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--witness-out", default=None)

    p = _command(sub, "diamond", _cmd_diamond,
                 "channel-section norm of a weighted Choi difference", "choi0", "choi1")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    _add_common(p)

    p = _command(sub, "comb-norm", _cmd_comb_norm, "network-section norm", "matrix")
    p.add_argument("--dims", required=True, help="comma-separated space dims H0,...,Hn")
    _add_common(p)

    p = _command(sub, "hmin", _cmd_hmin, "conditional min-entropy of a bipartite PSD matrix",
                 "state")
    p.add_argument("--dims", default=None, help="override subsystem dims as dK,dH")
    _add_common(p, witness=False)

    p = _command(sub, "certify", _cmd_certify, "certify a decision procedure as optimal",
                 "candidate", "experiment")
    _add_common(p, witness=False)

    p = _command(sub, "tester-check", _cmd_tester_check,
                 "maximally entangled optimal tester criterion", "choi0", "choi1")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=None)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if hasattr(args, "tol"):
            args.tol = as_tol(_default_tol() if args.tol is None else args.tol, "tol")
            if args.tol == 0.0:  # the CLI asks for a positive tolerance
                raise DomainError("tol must be positive; got 0.0")
        as_count(getattr(args, "max_iter", 1), "max_iter")
        return args.fn(args)
    except (ShapeError, DomainError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        sol = exc.solution
        detail = ""
        if sol is not None:
            detail = f" (best primal {sol.primal_value:.9g}, best dual {sol.dual_value:.9g})"
        print(f"solver did not converge: {exc}{detail}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValidationError, EmptySectionError) as exc:
        print(f"infeasible or invalid: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except GnormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
