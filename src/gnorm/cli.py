"""Command-line front end.

Each subcommand reads JSON inputs, runs one computation and prints a
machine-readable JSON report on stdout (full double precision); a one-line
human summary goes to stderr.  Exit codes: 0 success, 1 input error,
2 solver non-convergence, 3 infeasible or validation failure.

The default tolerance is 1e-7, overridable by the GNORM_DEFAULT_TOL
environment variable and per-invocation by --tol.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

from . import __version__, solver
from .decisions import (
    GeneralizedPOVM,
    certify_optimal,
    experiment_from_json,
    helstrom,
    max_entangled_tester_exists,
)
from .errors import (
    DomainError,
    EmptySectionError,
    GnormError,
    ShapeError,
    SolverError,
    ValidationError,
)
from .hermitian import json_field, json_list, matrix_from_json, matrix_to_json
from .norms import NormResult, base_norm, diamond_norm, dmax, dual_base_norm, hmin, ncomb_norm
from .sections import section_from_descriptor

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_INFEASIBLE = 3


@dataclass
class Report:
    """Deterministic machine-readable result of one invocation."""

    command: str
    inputs: dict
    values: dict
    requested_tol: float | None = None
    achieved_tol: float | None = None
    gap: float | None = None
    method: str | None = None
    solver: dict = field(default_factory=dict)
    witnesses: str | None = None
    version: str = __version__

    def to_dict(self) -> dict:
        out = {
            "command": self.command,
            "inputs": self.inputs,
            "values": _jsonable(self.values),
            "version": self.version,
        }
        if self.requested_tol is not None:
            out["requested_tol"] = self.requested_tol
        if self.achieved_tol is not None:
            out["achieved_tol"] = self.achieved_tol
        if self.gap is not None:
            out["gap"] = self.gap
        if self.method is not None:
            out["method"] = self.method
        if self.solver:
            out["solver"] = _jsonable(self.solver)
        if self.witnesses is not None:
            out["witnesses"] = self.witnesses
        return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


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


def _load_matrix(path: str, strict: bool = False):
    return matrix_from_json(_load_json(path), strict)


def _default_tol() -> float:
    raw = os.environ.get("GNORM_DEFAULT_TOL")
    if raw is None:
        return solver.DEFAULT_TOL
    try:
        return float(raw)
    except ValueError:
        raise ShapeError(f"GNORM_DEFAULT_TOL is not a number: {raw!r}")


def _norm_report(report: Report, res: NormResult, witness_out: str | None):
    report.values["value"] = res.value
    report.values["primal_value"] = res.primal_value
    report.values["dual_value"] = res.dual_value
    report.gap = res.gap
    report.method = res.method
    report.achieved_tol = res.gap
    report.solver = {"status": res.status, "iterations": res.iterations}
    if witness_out and res.primal_witness is not None:
        payload = {
            "primal_witness": matrix_to_json(res.primal_witness),
            "dual_witness": [matrix_to_json(w) for w in res.dual_witness],
        }
        with open(witness_out, "w") as fh:
            json.dump(payload, fh)
        report.witnesses = witness_out


def _emit(report: Report, summary: str) -> None:
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    print(summary, file=sys.stderr)


# -- subcommands ----------------------------------------------------------------


def _cmd_norm(args) -> int:
    section = section_from_descriptor(_load_json(args.section))
    x = _load_matrix(args.matrix)
    fn = dual_base_norm if args.dual else base_norm
    res = fn(section, x, tol=args.tol, max_iter=args.max_iter)
    report = Report(
        "norm",
        {"section": _digest(args.section), "matrix": _digest(args.matrix)},
        {"dual": bool(args.dual)},
        requested_tol=args.tol,
    )
    _norm_report(report, res, args.witness_out)
    _emit(report, f"norm = {res.value:.12g} (gap {res.gap:.3e}, {res.method})")
    return EXIT_OK


def _cmd_dmax(args) -> int:
    a = _load_matrix(args.a)
    b = _load_matrix(args.b)
    value = dmax(a, b)
    report = Report("dmax", {"a": _digest(args.a), "b": _digest(args.b)}, {"dmax": value})
    _emit(report, f"dmax = {value:.12g} (log base 2)")
    return EXIT_OK


def _cmd_helstrom(args) -> int:
    rho0 = _load_matrix(args.rho0)
    rho1 = _load_matrix(args.rho1)
    error, povm = helstrom(rho0, rho1, args.lam)
    report = Report(
        "helstrom",
        {"rho0": _digest(args.rho0), "rho1": _digest(args.rho1)},
        {"error": error, "lambda": args.lam},
    )
    if args.witness_out:
        with open(args.witness_out, "w") as fh:
            json.dump({"effects": [matrix_to_json(m) for m in povm.effects]}, fh)
        report.witnesses = args.witness_out
    _emit(report, f"minimal Bayes error = {error:.12g}")
    return EXIT_OK


def _cmd_diamond(args) -> int:
    x0 = _load_matrix(args.choi0)
    x1 = _load_matrix(args.choi1)
    for name, x in (("choi0", x0), ("choi1", x1)):
        if len(x.subsystem_dims) != 2:
            raise ShapeError(f"{name}: 'dims' must have length 2 (output, input)")
    diff = args.lam * x0 - (1.0 - args.lam) * x1
    res = diamond_norm(diff, tol=args.tol, max_iter=args.max_iter)
    report = Report(
        "diamond",
        {"choi0": _digest(args.choi0), "choi1": _digest(args.choi1)},
        {"lambda": args.lam, "error": 0.5 * (1.0 - res.value)},
        requested_tol=args.tol,
    )
    _norm_report(report, res, args.witness_out)
    _emit(report, f"channel-section norm = {res.value:.12g}, error = {0.5*(1-res.value):.12g}")
    return EXIT_OK


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(d) for d in text.split(","))
    except ValueError:
        raise ShapeError(f"--dims must be comma-separated integers, got {text!r}") from None


def _cmd_comb_norm(args) -> int:
    dims = _parse_dims(args.dims)
    x = _load_matrix(args.matrix)
    res = ncomb_norm(dims, x, tol=args.tol, max_iter=args.max_iter)
    report = Report(
        "comb-norm",
        {"matrix": _digest(args.matrix)},
        {"dims": list(dims)},
        requested_tol=args.tol,
    )
    _norm_report(report, res, args.witness_out)
    _emit(report, f"network norm = {res.value:.12g} (gap {res.gap:.3e})")
    return EXIT_OK


def _cmd_hmin(args) -> int:
    sigma = _load_matrix(args.state)
    if args.dims:
        sigma = sigma.with_dims(_parse_dims(args.dims))
    value = hmin(sigma, tol=args.tol, max_iter=args.max_iter)
    report = Report(
        "hmin", {"state": _digest(args.state)}, {"hmin": value}, requested_tol=args.tol
    )
    _emit(report, f"conditional min-entropy = {value:.12g}")
    return EXIT_OK


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
    report = Report(
        "certify",
        {"candidate": _digest(args.candidate), "experiment": _digest(args.experiment)},
        {
            "feasible": cert.feasible,
            "candidate_payoff": cert.candidate_payoff,
            "payoff_at_optimum": cert.payoff_at_optimum,
            "slack_residual": cert.slack_residual,
        },
        requested_tol=args.tol,
    )
    _emit(
        report,
        f"optimal: {cert.feasible} (payoff {cert.candidate_payoff:.9g} vs "
        f"optimum {cert.payoff_at_optimum:.9g})",
    )
    return EXIT_OK


def _cmd_tester_check(args) -> int:
    x0 = _load_matrix(args.choi0)
    x1 = _load_matrix(args.choi1)
    exists, residual = max_entangled_tester_exists(x0, x1, args.lam, tol=args.tol)
    report = Report(
        "tester-check",
        {"choi0": _digest(args.choi0), "choi1": _digest(args.choi1)},
        {"exists": exists, "residual": residual, "lambda": args.lam},
        requested_tol=args.tol,
    )
    _emit(report, f"maximally entangled optimal tester exists: {exists} (residual {residual:.3e})")
    return EXIT_OK


def _add_common(p, witness=True):
    p.add_argument("--tol", type=float, default=None, help="target tolerance")
    p.add_argument("--max-iter", type=int, default=solver.DEFAULT_MAX_ITER)
    if witness:
        p.add_argument("--witness-out", default=None, help="write optimizers to this JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnorm",
        description="Base norms on sections of the PSD cone and their "
        "discrimination/decision applications.",
    )
    parser.add_argument("--version", action="version", version=f"gnorm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="section norm of a hermitian matrix")
    p.add_argument("section")
    p.add_argument("matrix")
    p.add_argument("--dual", action="store_true", help="use the dual section")
    _add_common(p)
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("dmax", help="max-relative entropy log2 inf{t : a <= t b}")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_dmax)

    p = sub.add_parser("helstrom", help="minimal error for two states")
    p.add_argument("rho0")
    p.add_argument("rho1")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--witness-out", default=None)
    p.set_defaults(fn=_cmd_helstrom)

    p = sub.add_parser("diamond", help="channel-section norm of a weighted Choi difference")
    p.add_argument("choi0")
    p.add_argument("choi1")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    _add_common(p)
    p.set_defaults(fn=_cmd_diamond)

    p = sub.add_parser("comb-norm", help="network-section norm")
    p.add_argument("matrix")
    p.add_argument("--dims", required=True, help="comma-separated space dims H0,...,Hn")
    _add_common(p)
    p.set_defaults(fn=_cmd_comb_norm)

    p = sub.add_parser("hmin", help="conditional min-entropy of a bipartite PSD matrix")
    p.add_argument("state")
    p.add_argument("--dims", default=None, help="override subsystem dims as dK,dH")
    _add_common(p, witness=False)
    p.set_defaults(fn=_cmd_hmin)

    p = sub.add_parser("certify", help="certify a decision procedure as optimal")
    p.add_argument("candidate")
    p.add_argument("experiment")
    _add_common(p, witness=False)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("tester-check", help="maximally entangled optimal tester criterion")
    p.add_argument("choi0")
    p.add_argument("choi1")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(fn=_cmd_tester_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "tol") and args.tol is None:
            args.tol = _default_tol()
        if getattr(args, "max_iter", 1) < 1:
            raise DomainError(f"max_iter must be at least 1, got {args.max_iter}")
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
