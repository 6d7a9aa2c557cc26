"""Every malformed input of the library raises its own error type.

One row per check that the rest of the suite does not reach, grouped by
module: the call, the exception type and a fragment of its message.  The
console script's own checks run in a subprocess; the CLI tests cover them.
"""

import math

import numpy as np
import pytest

from gnorm.choi import KrausMap, apply_choi_tensor_id, max_entangled_projection
from gnorm.decisions import (
    DecisionProblem,
    Experiment,
    GeneralizedPOVM,
    bayes_error,
    build_xi,
    certify_optimal,
    choi_to_povm,
    classical_problem,
    experiment_from_json,
    experiment_to_json,
    helstrom,
    max_payoff,
    quantum_problem,
)
from gnorm.errors import DomainError, EmptySectionError, ShapeError, ValidationError
from gnorm.hermitian import HermitianMatrix, herm, identity, json_dims, json_floats, json_list
from gnorm.norms import base_norm_psd, certify_extremal_psd, dmax, hmin, ncomb_norm
from gnorm.oracles import SampleSet, norm_lower_bound, norm_upper_bound
from gnorm.sections import (
    comb_section,
    custom_section,
    dual_section,
    generalized_section,
    povm_section,
    section_from_descriptor,
    singleton_section,
    states_section,
)
from gnorm.solver import FREE, PSD, Block, ConeProgram, MajorantProgram


def diag(*values):
    return herm(np.diag(values))


S2 = states_section(2)
KET0, KET1 = diag(1.0, 0.0), diag(0.0, 1.0)
PAIR = Experiment(S2, (KET0, KET1), [0.5, 0.5])
RESTRICTED = singleton_section(KET0)  # lives on the support of |0><0|
DENSE = ConeProgram((Block(2, PSD), Block(1, FREE)), np.zeros(5), np.ones((1, 5)), [1.0])
COLUMNS = np.eye(4)  # the whole hvec space of a 2 x 2 block: E = I


def _experiment_json_with_payoff(kind):
    obj = experiment_to_json(PAIR, classical_problem(np.eye(2)))
    obj["payoff"]["kind"] = kind
    return obj


CASES = {
    # choi
    "kraus map without operators": (lambda: KrausMap(()), ShapeError, "at least one operator"),
    "kraus operators of two shapes": (
        lambda: KrausMap((np.eye(2), np.eye(3))), ShapeError, "share one 2-d shape"),
    "kraus map on a wrong input dim": (
        lambda: KrausMap((np.eye(2),)).apply(identity(3)), ShapeError, "Kraus input 2"),
    "choi tensor id on a wrong sigma dim": (
        lambda: apply_choi_tensor_id(max_entangled_projection(2), 2, identity(3)),
        ShapeError, "H*L = 4"),
    # decisions
    "experiment without members": (
        lambda: Experiment(S2, (), []), ValidationError, "at least one member"),
    "prior of the wrong length": (
        lambda: Experiment(S2, (KET0,), [0.5, 0.5]), ValidationError, "prior length"),
    "quantum problem without operators": (
        lambda: quantum_problem(()), ValidationError, "needs payoff operators"),
    "payoff operators of two dims": (
        lambda: quantum_problem((identity(2) / 2, identity(3) / 2)),
        ValidationError, "share one dimension"),
    "payoff operator above I": (
        lambda: quantum_problem((2.0 * identity(2),)), ValidationError, "0 <= W <= I"),
    "unknown problem kind": (
        lambda: DecisionProblem("lottery"), ValidationError, "unknown decision problem kind"),
    "measurement without effects": (
        lambda: GeneralizedPOVM(S2, ()), ValidationError, "at least one effect"),
    "effect not PSD": (
        lambda: GeneralizedPOVM(S2, (diag(1.0, -1.0), diag(0.0, 2.0))),
        ValidationError, "effect 0 is not PSD"),
    "effects not summing into the dual": (
        lambda: GeneralizedPOVM(S2, (KET0,)), ValidationError, "do not sum into the dual"),
    "payoff table of the wrong row count": (
        lambda: max_payoff(PAIR, classical_problem(np.eye(3))), ShapeError, "row count"),
    "one payoff operator for two members": (
        lambda: build_xi(PAIR, quantum_problem((identity(2) / 2,))),
        ShapeError, "one payoff operator per family element"),
    "procedure matrix without block dims": (
        lambda: choi_to_povm(S2, identity(4)), ShapeError, "(D, H...) subsystem dims"),
    "bayes error of a non-member": (
        lambda: bayes_error(S2, identity(2), KET1, 0.5), ValidationError, "b0 is not a member"),
    "helstrom of a non-density matrix": (
        lambda: helstrom(identity(2), KET1, 0.5), ValidationError, "rho0 must be a density"),
    "candidate with three outcomes for two": (
        lambda: certify_optimal(
            GeneralizedPOVM(S2, (KET0, KET1, diag(0.0, 0.0))), PAIR, classical_problem(np.eye(2))
        ),
        ValidationError, "outcome count"),
    "candidate procedure not PSD": (
        lambda: certify_optimal(diag(1.0, -1.0, 1.0, 0.0), PAIR, classical_problem(np.eye(2))),
        ValidationError, "not PSD"),
    "unknown payoff kind in JSON": (
        lambda: experiment_from_json(_experiment_json_with_payoff("lottery")),
        ValidationError, "'classical' or 'quantum'"),
    # hermitian
    "non-square matrix": (
        lambda: HermitianMatrix(np.zeros((2, 3))), ShapeError, "square matrix"),
    "zero subsystem dim": (
        lambda: HermitianMatrix(np.eye(2), (0,)), ShapeError, "must be positive"),
    "JSON field that is no list": (
        lambda: json_list({"family": 1}, "family", "experiment"), ShapeError, "must be a list"),
    "JSON field that is no number": (
        lambda: json_floats({"prior": "half"}, "prior", "experiment"),
        ShapeError, "must be finite numbers"),
    "fractional dims in JSON": (
        lambda: json_dims({"dims": [1.5]}, "matrix"), ShapeError, "list of integers"),
    "too few dims in JSON": (
        lambda: json_dims({"dims": [2]}, "channels", least=2), ShapeError, "at least 2"),
    # norms
    "base_norm_psd of an indefinite matrix": (
        lambda: base_norm_psd(S2, diag(1.0, -1.0)), DomainError, "PSD input"),
    "comb norm of a matrix of the wrong dim": (
        lambda: ncomb_norm((2, 2), identity(3)), ShapeError, "product of dims"),
    "hmin of an indefinite matrix": (
        lambda: hmin(herm(np.diag([1.0, -1.0, 0.0, 0.0]), (2, 2))), DomainError, "PSD"),
    "certify without a candidate": (
        lambda: certify_extremal_psd(S2, KET0), ValidationError, "exactly one"),
    "certify off the carrier": (
        lambda: certify_extremal_psd(RESTRICTED, KET1, member_candidate=KET0),
        ValidationError, "outside the section's carrier"),
    "certify an indefinite input": (
        lambda: certify_extremal_psd(S2, diag(1.0, -1.0), dual_candidate=identity(2)),
        DomainError, "needs PSD input"),
    "dual candidate outside the dual": (
        lambda: certify_extremal_psd(S2, KET0, dual_candidate=2.0 * identity(2)),
        ValidationError, "dual candidate is not a member"),
    "member candidate outside the section": (
        lambda: certify_extremal_psd(S2, KET0, member_candidate=identity(2)),
        ValidationError, "member candidate is not a member"),
    # sections
    "unknown section kind": (
        lambda: section_from_descriptor({"kind": "torus"}), ValidationError, "unknown section"),
    "custom basis spanning nothing": (
        lambda: custom_section([diag(0.0, 0.0)], identity(2)), EmptySectionError, "empty span"),
    "indefinite normalizer": (
        lambda: custom_section([identity(2)], diag(1.0, -1.0)),
        ValidationError, "normalizer of section 'custom' is not PSD"),
    "generalized section over a restricted one": (
        lambda: generalized_section(RESTRICTED, 2), ValidationError, "needs a faithful section"),
    "states of dim 0": (lambda: states_section(0), ShapeError, "must be positive"),
    "singleton of zero": (
        lambda: singleton_section(diag(0.0, 0.0)), ValidationError, "nonzero matrix"),
    "generalized section with output dim 0": (
        lambda: generalized_section(S2, 0), ShapeError, "output dimension"),
    "comb of one space": (lambda: comb_section((2,)), ShapeError, "at least two positive dims"),
    "povm section of no outcome": (lambda: povm_section(S2, 0), ShapeError, "at least one"),
    "custom section without basis": (
        lambda: custom_section([], identity(2)), ValidationError, "nonempty basis"),
    # the one member diag(1, -7e-7, ..) / Tr is within INTERIOR_MARGIN of PSD, but its
    # weight 1.4e-6 off its support drops it from the restricted span
    "custom slice whose one member leaks off its support": (
        lambda: custom_section([diag(1.0, -7e-7, -7e-7, -7e-7, -7e-7)], identity(5)),
        EmptySectionError, "has no PSD member"),
    # span coordinates are checked before the span is read (a structured span is
    # built on its first read)
    "span coordinates of a matrix of the wrong dimension": (
        lambda: S2.span_coords(identity(3)), ShapeError, "expected dimension 2"),
    "span coordinates of the wrong count": (
        lambda: S2.from_span_coords([1.0, 0.0]), ShapeError, "expected 4 coordinates"),
    # solver
    "unknown cone kind": (lambda: Block(2, "lorentz"), ShapeError, "unknown cone kind"),
    "block of dim 0": (lambda: Block(0), ShapeError, "dimension must be positive"),
    "dense objective of the wrong length": (
        lambda: DENSE.with_objective(np.zeros(4)), ShapeError, "objective length 4 != total"),
    "dense rhs of the wrong length": (
        lambda: DENSE.with_rhs([1.0, 2.0]), ShapeError, "rhs length 2 != row count 1"),
    "dense rows of the wrong width": (
        lambda: ConeProgram(DENSE.blocks, DENSE.objective, np.ones((1, 4)), [1.0]),
        ShapeError, "constraint matrix shape (1, 4)"),
    "majorant columns that are not 2-d": (
        lambda: MajorantProgram(np.zeros(4), 1, np.zeros(8), np.zeros(4)),
        ShapeError, "not (d^2, r)"),
    "majorant objective of the wrong length": (
        lambda: MajorantProgram(COLUMNS, 1, np.zeros(4), np.zeros(4)),
        ShapeError, "objective length 4 != total block dim 8"),
    "majorant rhs of the wrong length": (
        lambda: MajorantProgram(COLUMNS, 1, np.zeros(8), np.zeros(3)),
        ShapeError, "rhs length 3 != row count 4"),
}


@pytest.mark.parametrize("call, error, fragment", CASES.values(), ids=CASES.keys())
def test_input_error(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_dmax_off_the_support_of_b_is_infinite():
    assert dmax(KET1, KET0) == math.inf


def test_oracle_bounds_off_the_carrier():
    # an input off the carrier has norm +inf on both sides; a sample off it
    # is skipped, leaving the bound at its start (0 below, +inf above)
    dual = dual_section(RESTRICTED)
    assert norm_lower_bound(RESTRICTED, KET1, SampleSet(dual, (KET0,), 0)) == math.inf
    assert norm_upper_bound(RESTRICTED, KET1, SampleSet(RESTRICTED, (KET0,), 0)) == math.inf
    assert norm_lower_bound(RESTRICTED, KET0, SampleSet(dual, (KET1,), 0)) == 0.0
    assert norm_upper_bound(RESTRICTED, KET0, SampleSet(RESTRICTED, (KET1,), 0)) == math.inf
