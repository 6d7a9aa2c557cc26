"""Generalized experiments, decision problems and optimal procedures.

An experiment is a finite family of members of one section together with a
prior.  A decision procedure for a payoff assignment is a measurement on the
section (effects PSD, summing into the dual section) or, more generally, a
completely positive map whose Choi matrix sends the section into density
matrices.  The maximal average payoff equals the norm of the payoff-weighted
block matrix

    xi = sum_theta  prior_theta * W_theta^T (x) b_theta

over the section {I (x) b}, which is how quantum payoffs are solved (one
PSD block over :func:`id_tensor_section`; classical ones collapse xi into
one block per outcome), and every optimizer is certified by a
complementary-slackness witness q:  xi <= I (x) q  and  ((I (x) q) - xi) X^T = 0.
The minimizing q of the payoff's own solve is such a witness for every
optimal X, so certification reads q and the optimum off that solve, and a
candidate fails exactly by its payoff deficit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import solver
from .choi import ChoiMatrix, choi_matrix, is_channel_choi
from .errors import DomainError, ShapeError, SolverError, ValidationError
from .hermitian import (
    HermitianMatrix,
    _pinv_sqrt,
    _psd_values,
    _real,
    _support_columns,
    abs_pos_neg,
    as_array,
    as_count,
    as_tol,
    eig,
    eigenvalues,
    herm,
    identity,
    json_field,
    json_floats,
    json_list,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    partial_trace,
    psd_check,
    tensor,
    trace,
    trace_pair,
    transpose_in_basis,
    zeros,
)
from .norms import NormResult, base_norm, majorant_norm
from .sections import (
    Section,
    contains,
    dual_section,
    id_tensor_section,
    require_faithful,
    section_from_descriptor,
    section_to_descriptor,
    states_section,
)

MEMBER_TOL = 1e-6
PRIOR_TOL = 1e-12


def prior_weighted(lam: float, a: HermitianMatrix, b: HermitianMatrix) -> HermitianMatrix:
    """lam a - (1 - lam) b; DomainError unless the prior lam is real (:func:`_real`) in [0, 1]."""
    if not (_real(lam) and 0.0 <= lam <= 1.0):
        raise DomainError(f"prior must lie in [0, 1]; got {lam!r}")
    lam = float(lam)
    return lam * a - (1.0 - lam) * b


@dataclass(frozen=True, eq=False)
class Experiment:
    """A parametrized family of section members with a prior."""

    section: Section
    family: tuple[HermitianMatrix, ...]
    prior: np.ndarray

    def __post_init__(self):
        fam = tuple(self.family)
        if not fam:
            raise ValidationError("an experiment needs at least one member")
        for idx, b in enumerate(fam):
            if not contains(self.section, b, MEMBER_TOL):
                raise ValidationError(f"family element {idx} is not a section member")
        p = as_array(self.prior, "prior", finite=False).reshape(-1)  # the range rule reads it
        if p.shape[0] != len(fam):
            raise ValidationError("prior length must match the family")
        if not np.all(np.isfinite(p)) or np.any(p < -PRIOR_TOL) or abs(p.sum() - 1.0) > PRIOR_TOL:
            raise ValidationError("prior must be a probability vector (sum 1, entries >= 0)")
        object.__setattr__(self, "family", fam)
        object.__setattr__(self, "prior", np.clip(p, 0.0, None))

    @property
    def size(self) -> int:
        return len(self.family)


@dataclass(frozen=True, eq=False)
class DecisionProblem:
    """Classical payoff table w(theta, d) in [0, 1] or quantum payoff
    operators 0 <= W_theta <= I."""

    kind: str  # classical | quantum
    table: np.ndarray | None = None
    operators: tuple[HermitianMatrix, ...] | None = None

    def __post_init__(self):
        if self.kind == "classical":
            t = as_array(self.table, "payoff table", finite=False)  # the range rule reads it
            if t.ndim != 2 or t.size == 0:
                raise ValidationError("classical payoff table must be 2-d (theta, d) and nonempty")
            if not np.all(np.isfinite(t)) or np.any(t < -1e-12) or np.any(t > 1 + 1e-12):
                raise ValidationError("payoff table entries must be finite and lie in [0, 1]")
            object.__setattr__(self, "table", np.clip(t, 0.0, 1.0))
        elif self.kind == "quantum":
            ops = tuple(self.operators)
            if not ops:
                raise ValidationError("quantum problem needs payoff operators")
            d = ops[0].dim
            for idx, w in enumerate(ops):
                if w.dim != d:
                    raise ValidationError("payoff operators must share one dimension")
                ev = eigenvalues(w)  # one spectrum for both tests
                if not _psd_values(ev, 1e-9) or float(np.max(np.abs(ev))) > 1 + 1e-10:
                    raise ValidationError(f"payoff operator {idx} must satisfy 0 <= W <= I")
            object.__setattr__(self, "operators", ops)
        else:
            raise ValidationError(f"unknown decision problem kind {self.kind!r}")

    @property
    def n_outcomes(self) -> int:
        return self.table.shape[1] if self.kind == "classical" else self.operators[0].dim

    def complement(self) -> DecisionProblem:
        """Payoff <-> loss swap, W' = I - W."""
        if self.kind == "classical":
            return DecisionProblem("classical", table=1.0 - self.table)
        eye = identity(self.n_outcomes)
        return DecisionProblem("quantum", operators=tuple(eye - w for w in self.operators))


def classical_problem(table) -> DecisionProblem:
    return DecisionProblem("classical", table=table)


def quantum_problem(operators) -> DecisionProblem:
    return DecisionProblem("quantum", operators=tuple(operators))


@dataclass(frozen=True, eq=False)
class GeneralizedPOVM:
    """Measurement on a section: PSD effects summing into the dual section."""

    section: Section
    effects: tuple[HermitianMatrix, ...]
    validation_tol: float = MEMBER_TOL

    def __post_init__(self):
        effs = tuple(self.effects)
        if not effs:
            raise ValidationError("a measurement needs at least one effect")
        tol = as_tol(self.validation_tol, "validation_tol")
        object.__setattr__(self, "validation_tol", tol)
        for idx, m in enumerate(effs):
            if not psd_check(m, tol):
                raise ValidationError(f"effect {idx} is not PSD within {tol:.0e}")
        object.__setattr__(self, "effects", effs)
        if not contains(dual_section(self.section), self.total(), tol):
            raise ValidationError("effects do not sum into the dual section")

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)

    def total(self) -> HermitianMatrix:
        return sum(self.effects[1:], self.effects[0])

    def probabilities(self, b: HermitianMatrix) -> np.ndarray:
        return np.array([trace_pair(m, b) for m in self.effects])


@dataclass(frozen=True, eq=False)
class Certificate:
    """Complementary-slackness check of a candidate decision procedure;
    ``payoff_at_optimum`` and ``witness_q`` come from :func:`max_payoff`'s solve."""

    feasible: bool
    witness_q: HermitianMatrix | None
    slack_residual: float
    majorization_residual: float
    candidate_payoff: float
    payoff_at_optimum: float


@dataclass(frozen=True, eq=False)
class PayoffResult:
    """Maximal average payoff with the optimizing procedure.

    ``choi`` is the Choi matrix of an optimal procedure (block-diagonal for
    classical problems); ``povm`` carries the measurement form whenever the
    problem is classical.
    """

    value: float
    norm: NormResult
    choi: HermitianMatrix
    povm: GeneralizedPOVM | None


# -- payoff machinery ----------------------------------------------------------


def classical_xi_blocks(experiment: Experiment, problem: DecisionProblem):
    w = problem.table
    if w.shape[0] != experiment.size:
        raise ShapeError("payoff table row count must match the experiment family")
    blocks = []
    for d in range(w.shape[1]):
        acc = zeros(experiment.section.dims)
        for th, b in enumerate(experiment.family):
            acc = acc + float(experiment.prior[th] * w[th, d]) * b
        blocks.append(acc)
    return blocks


def _block_diagonal(blocks, h_dims: tuple[int, ...]) -> HermitianMatrix:
    """sum_d |d><d| (x) blocks[d] on D (x) H."""
    h = blocks[0].dim
    out = np.zeros((len(blocks) * h, len(blocks) * h), dtype=complex)
    for d, blk in enumerate(blocks):
        out[d * h : (d + 1) * h, d * h : (d + 1) * h] = blk.entries
    return HermitianMatrix(out, (len(blocks),) + h_dims)


def build_xi(experiment: Experiment, problem: DecisionProblem) -> HermitianMatrix:
    """Payoff-weighted block matrix sum_theta prior * W^T (x) b on D (x) H."""
    require_faithful(experiment.section, "build_xi")
    h_dims = experiment.section.dims
    if problem.kind == "classical":
        return _block_diagonal(classical_xi_blocks(experiment, problem), h_dims)
    ops = problem.operators
    if len(ops) != experiment.size:
        raise ShapeError("one payoff operator per family element is required")
    n_d = problem.n_outcomes
    out = zeros((n_d,) + h_dims)
    for th, b in enumerate(experiment.family):
        out = out + float(experiment.prior[th]) * tensor(transpose_in_basis(ops[th]), b)
    return out


def _solved_povm(section: Section, effects, tol: float) -> GeneralizedPOVM:
    """The measurement read off a solve at ``tol``: validated at max(1e-5, 100 tol)."""
    return GeneralizedPOVM(section, tuple(effects), validation_tol=max(1e-5, 100 * tol))


def _payoff_blocks(experiment, problem, context: str) -> tuple[HermitianMatrix, ...]:
    """The blocks of the payoff's majorant program: q >= xi_d, one block per
    outcome, for classical problems, and Q >= xi for quantum ones."""
    require_faithful(experiment.section, context)
    if problem.kind == "classical":
        return tuple(classical_xi_blocks(experiment, problem))
    return (build_xi(experiment, problem),)


def _payoff_norm(section: Section, problem, blocks, tol, max_iter, context: str) -> NormResult:
    """The payoff's one majorant solve over ``blocks``: over the section for
    classical problems, over {I_k (x) b} (:func:`id_tensor_section`, cached on
    the section) for quantum ones, whose optimal Q = I_k (x) q is reported as
    q = Tr_K Q / k on the section, also in the result a stopped solve's
    SolverError carries."""
    context = f"{context} ({problem.kind})"
    if problem.kind == "classical":
        return majorant_norm(section, blocks, 1.0, tol, max_iter, context)
    k = problem.n_outcomes

    def on_section(norm: NormResult) -> NormResult:
        return replace(norm, primal_witness=section.lift(partial_trace(norm.primal_witness, 0) / k))

    try:
        return on_section(majorant_norm(id_tensor_section(section, k), blocks, 1.0, tol,
                                        max_iter, context))
    except SolverError as err:
        raise SolverError(str(err), on_section(err.solution)) from None


def max_payoff(
    experiment: Experiment,
    problem: DecisionProblem,
    tol: float = solver.DEFAULT_TOL,
    max_iter: int = solver.DEFAULT_MAX_ITER,
) -> PayoffResult:
    """Maximal average payoff over all decision procedures.

    Both kinds solve one majorant program and read the optimal procedure off
    its multipliers.  Classical problems use the block-collapsed constraints
    q >= xi_d over the section, one per outcome, whose multipliers are
    directly the optimal effects.  Quantum problems take the paper's form:
    the norm of xi over the section {I (x) b}, min Tr(Q n') over its span
    under Q >= xi, whose one multiplier Y is the transposed Choi matrix of an
    optimal procedure; the result's q is Tr_K Q / k.
    """
    section = experiment.section
    blocks = _payoff_blocks(experiment, problem, "max_payoff")
    norm = _payoff_norm(section, problem, blocks, tol, max_iter, "max_payoff")
    if problem.kind == "classical":
        povm = _solved_povm(section, norm.dual_witness, tol)
        return PayoffResult(norm.value, norm, povm_to_choi(povm), povm)
    return PayoffResult(norm.value, norm, transpose_in_basis(norm.dual_witness[0]), None)


def povm_to_choi(povm: GeneralizedPOVM) -> HermitianMatrix:
    """Block-diagonal Choi matrix with blocks M_d^T, on D (x) the caller's space."""
    blocks = [transpose_in_basis(m) for m in povm.effects]
    return _block_diagonal(blocks, povm.section.dims)


def choi_to_povm(section: Section, choi: HermitianMatrix) -> GeneralizedPOVM:
    """Diagonal blocks of a procedure Choi matrix, transposed into effects on the caller's space."""
    dims = choi.subsystem_dims
    if len(dims) < 2:
        raise ShapeError("expected a block matrix with (D, H...) subsystem dims")
    n_d, h_dims = dims[0], section.dims
    h = math.prod(h_dims)
    if choi.dim != n_d * h:
        b = f"{choi.dim / n_d:g}"
        raise ShapeError(f"Choi blocks are {b} x {b}, the section's are {h} x {h}")
    blocks = (choi.entries[d * h : (d + 1) * h, d * h : (d + 1) * h] for d in range(n_d))
    return GeneralizedPOVM(section, tuple(transpose_in_basis(herm(b, h_dims)) for b in blocks))


# -- discrimination ------------------------------------------------------------


def bayes_error(
    section: Section,
    b0: HermitianMatrix,
    b1: HermitianMatrix,
    lam: float,
    tol: float = solver.DEFAULT_TOL,
    max_iter: int = solver.DEFAULT_MAX_ITER,
) -> tuple[float, GeneralizedPOVM, NormResult]:
    """Minimal probability of error deciding between two members at prior lam.

    Equals (1 - |lam b0 - (1-lam) b1|_B) / 2; the optimal two-outcome
    measurement is read off the norm's dual optimizer (M0 = y1, M1 = y2).
    """
    x = prior_weighted(lam, b0, b1)
    for name, b in (("b0", b0), ("b1", b1)):
        if not contains(section, b, MEMBER_TOL):
            raise ValidationError(f"{name} is not a member of the section")
    res = base_norm(section, x, tol=tol, max_iter=max_iter)
    error = max(0.0, 0.5 * (1.0 - res.value))  # a norm a round-off above 1 is error 0
    return error, _solved_povm(section, res.dual_witness, tol), res


def multi_hypothesis_error(
    section: Section,
    family,
    prior,
    tol: float = solver.DEFAULT_TOL,
    max_iter: int = solver.DEFAULT_MAX_ITER,
) -> tuple[float, GeneralizedPOVM, PayoffResult]:
    """Minimal average error probability for k hypotheses.

    One minus the maximal payoff of the correct-guess problem (identity
    payoff table).
    """
    experiment = Experiment(section, tuple(family), prior)
    problem = classical_problem(np.eye(experiment.size))
    pay = max_payoff(experiment, problem, tol=tol, max_iter=max_iter)
    return max(0.0, 1.0 - pay.value), pay.povm, pay


def helstrom(
    rho0: HermitianMatrix, rho1: HermitianMatrix, lam: float
) -> tuple[float, GeneralizedPOVM]:
    """Closed-form minimal error for two density matrices.

    The first effect projects onto the strictly positive eigenspace of
    lam rho0 - (1-lam) rho1; the kernel is assigned to the second outcome.
    """
    x = prior_weighted(lam, rho0, rho1)
    for name, r in (("rho0", rho0), ("rho1", rho1)):
        if not psd_check(r, 1e-8) or abs(trace(r) - 1.0) > 1e-8:
            raise ValidationError(f"{name} must be a density matrix")
    s = eig(x)  # the error and the projector from one spectrum
    error = 0.5 - 0.5 * float(np.sum(np.abs(s.eigenvalues)))
    u = _support_columns(s)
    m0 = HermitianMatrix(u @ u.conj().T, x.subsystem_dims)
    m1 = identity(rho0.dims) - m0
    povm = GeneralizedPOVM(states_section(rho0.dim), (m0, m1))
    return error, povm


# -- certification ---------------------------------------------------------------


def certify_optimal(
    candidate,
    experiment: Experiment,
    problem: DecisionProblem,
    tol: float = 1e-6,
    solve_tol: float = solver.DEFAULT_TOL,
    max_iter: int = solver.DEFAULT_MAX_ITER,
) -> Certificate:
    """Decide whether a procedure attains the maximal average payoff.

    ``candidate`` is a :class:`GeneralizedPOVM`, a procedure Choi matrix, or
    a :class:`ChoiMatrix`.  The witness is the q of the solve
    :func:`max_payoff` runs: xi <= I (x) q, and Tr(((I (x) q) - xi) X^T) = 0
    holds exactly when the candidate's payoff reaches that solve's optimum
    (the input marginal of X^T is a dual element, which pairs with q as the
    normalizer does).  So ``feasible`` is decided by the payoff deficit.  A
    candidate not built on the experiment's own section (a Choi matrix, or a
    measurement on another section) must be a procedure for it: its blocks
    act on the section's dimension, it is PSD, and its transposed input
    marginal lies in the dual section; otherwise ValidationError.  The
    tolerances and ``max_iter`` pass their rules first (DomainError).
    """
    tol, solve_tol = as_tol(tol, "tol"), as_tol(solve_tol, "solve_tol")
    max_iter = as_count(max_iter, "max_iter")
    section = experiment.section
    blocks = _payoff_blocks(experiment, problem, "certify_optimal")
    xi = _block_diagonal(blocks, section.dims) if problem.kind == "classical" else blocks[0]
    n_d, h = problem.n_outcomes, section.ambient_dim

    if isinstance(candidate, GeneralizedPOVM):
        if candidate.n_outcomes != n_d:
            raise ValidationError("candidate outcome count does not match the problem")
        x = povm_to_choi(candidate)
    else:
        x = candidate.matrix if isinstance(candidate, ChoiMatrix) else candidate
    # a measurement on the experiment's own section was validated when built
    if getattr(candidate, "section", None) is not section:
        if x.dim != n_d * h:
            b = f"{x.dim / n_d:g}"
            raise ValidationError(f"candidate blocks are {b} x {b}, the section's are {h} x {h}")
        if not psd_check(x, MEMBER_TOL):
            raise ValidationError("candidate procedure is not PSD")
        marg = transpose_in_basis(partial_trace(x.with_dims((n_d, h)), 0))
        if not contains(dual_section(section), marg, MEMBER_TOL):
            raise ValidationError(
                "candidate is not a decision procedure for this section "
                "(its transposed input marginal is not in the experiment's dual section)"
            )

    xt = transpose_in_basis(x)
    payoff = trace_pair(xi, xt)
    norm = _payoff_norm(section, problem, blocks, solve_tol, max_iter, "certify_optimal")
    q = norm.primal_witness
    big_q = tensor(identity(n_d), q)
    slack = float(np.linalg.norm((big_q.entries - xi.entries) @ xt.entries))
    w_min = float(eigenvalues(big_q - xi)[-1])
    gap = norm.value - payoff
    return Certificate(
        feasible=bool(gap <= tol * max(1.0, abs(payoff))),
        witness_q=q,
        slack_residual=slack,
        majorization_residual=max(0.0, -w_min),
        candidate_payoff=payoff,
        payoff_at_optimum=norm.value,
    )


def decompose_povm(povm: GeneralizedPOVM) -> tuple[HermitianMatrix, tuple[HermitianMatrix, ...]]:
    """Split a measurement into its dual-section total c and an ordinary
    measurement on the support P of c: c^(1/2) L_d c^(1/2) = P M_d P.  c was
    validated with the measurement, so eigenvalues at the cutoff or below leave P."""
    c = povm.total()
    r = _pinv_sqrt(eig(c), c.subsystem_dims)
    lams = tuple(
        herm(r.entries @ m.entries @ r.entries, m.subsystem_dims) for m in povm.effects
    )
    return c, lams


def max_entangled_tester_exists(
    x0, x1, lam: float, tol: float = 1e-7
) -> tuple[bool, float]:
    """Whether an optimal two-outcome tester for discriminating two channels
    can use a maximally entangled input.

    True exactly when the input marginal of |lam X0 - (1-lam) X1| is a
    multiple of the identity; the returned residual is the relative deviation
    from that multiple.  A zero difference counts as True by convention
    (every tester is then optimal).
    """
    tol = as_tol(tol, "tol")
    m0, m1 = choi_matrix(x0, "x0"), choi_matrix(x1, "x1")
    for name, m in (("x0", m0), ("x1", m1)):
        if not is_channel_choi(m, 1e-6):
            raise ValidationError(f"{name} is not a channel Choi matrix")
    diff = prior_weighted(lam, m0, m1)
    d_h = m0.subsystem_dims[1]
    x_abs, _, _ = abs_pos_neg(diff)
    delta = partial_trace(x_abs, 0)
    mean = trace(delta) / d_h
    if mean <= 1e-12:
        return True, 0.0
    residual = op_norm(delta - mean * identity(d_h)) / mean
    return bool(residual <= tol), float(residual)


# -- JSON wire format -------------------------------------------------------------


def experiment_to_json(experiment: Experiment, problem: DecisionProblem | None = None) -> dict:
    out = {
        "section": section_to_descriptor(experiment.section),
        "family": [matrix_to_json(b) for b in experiment.family],
        "prior": [float(p) for p in experiment.prior],
    }
    if problem is not None:
        if problem.kind == "classical":
            out["payoff"] = {"kind": "classical", "table": problem.table.tolist()}
        else:
            out["payoff"] = {
                "kind": "quantum",
                "operators": [matrix_to_json(w) for w in problem.operators],
            }
    return out


def experiment_from_json(obj) -> tuple[Experiment, DecisionProblem | None]:
    where = "experiment JSON"
    section = section_from_descriptor(json_field(obj, "section", where))
    family = tuple(matrix_from_json(m) for m in json_list(obj, "family", where))
    experiment = Experiment(section, family, json_floats(obj, "prior", where))
    problem = None
    if "payoff" in obj:
        p = obj["payoff"]
        kind = json_field(p, "kind", "payoff")
        if kind == "classical":
            problem = classical_problem(json_floats(p, "table", "classical payoff"))
        elif kind == "quantum":
            operators = json_list(p, "operators", "quantum payoff")
            problem = quantum_problem(tuple(matrix_from_json(w) for w in operators))
        else:
            raise ValidationError("field 'payoff.kind' must be 'classical' or 'quantum'")
    return experiment, problem
