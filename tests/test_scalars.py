"""One rule for every count and tolerance argument.

A count (an iteration cap, a sample count, a seed, a grid size) passes the
integer test of the dimension rule, an int, a numpy integer or an integral
float but never a bool or a string, and is at least the entry's least
value; a tolerance is a finite, non-negative real number, never a bool or
a string.  Each entry accepts every spelling with one result and rejects
everything else with a DomainError that names the argument, before any
closed form or solve: the same answer on every input.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from gnorm import cli
from gnorm.choi import kraus_channel, max_entangled_projection
from gnorm.decisions import (
    Experiment,
    GeneralizedPOVM,
    certify_optimal,
    classical_problem,
    helstrom,
    max_entangled_tester_exists,
    prior_weighted,
)
from gnorm.errors import DomainError, ShapeError, SolverError
from gnorm.hermitian import (
    HermitianMatrix,
    diag,
    herm,
    hvec,
    identity,
    matrix_to_json,
    outer,
    partial_trace,
    psd_check,
)
from gnorm.norms import base_norm, base_norm_psd, certify_extremal_psd, diamond_norm
from gnorm.oracles import grid_hmin, sample_section
from gnorm.sections import Section, contains, singleton_section, states_section
from gnorm.solver import PSD, Block, ConeProgram, solve

S2 = states_section(2)
DIFF = diag([1.0, -1.0])  # its states norm, 2, is a closed form
STATE = diag([0.75, 0.25])
BELL = herm(max_entangled_projection(2).entries / 2, (2, 2))
X4 = herm(np.diag([1.0, -1.0, 0.0, 0.0]), (2, 2))
IDENTITY_CHANNEL = kraus_channel([np.eye(2)])
DEPHASING = kraus_channel([np.diag([1.0, -1.0])])
FIND_A_STATE = ConeProgram(
    (Block(2, PSD),), np.zeros(4), hvec(identity(2)).reshape(1, -1), np.array([1.0])
)
_, HELSTROM = helstrom(outer([1.0, 0.0]), STATE, 0.5)
EXPERIMENT = Experiment(S2, (outer([1.0, 0.0]), STATE), np.array([0.5, 0.5]))

# name -> (call on one count, least value, the name the error starts with)
COUNTS = {
    "solve": (lambda v: solve(FIND_A_STATE, max_iter=v), 1, "max_iter"),
    "base_norm closed form": (lambda v: base_norm(S2, DIFF, max_iter=v), 1, "max_iter"),
    "base_norm_psd closed form": (lambda v: base_norm_psd(S2, STATE, max_iter=v), 1, "max_iter"),
    "diamond_norm": (lambda v: diamond_norm(X4, max_iter=v), 1, "max_iter"),
    "sample_section n": (lambda v: sample_section(S2, v), 0, "n"),
    "sample_section seed": (lambda v: sample_section(S2, 2, seed=v), 0, "seed"),
    "grid_hmin": (lambda v: grid_hmin(BELL, v), 1, "resolution"),
}

# name -> (call on one tolerance, the name the error starts with)
TOLS = {
    "solve": (lambda v: solve(FIND_A_STATE, tol=v), "tol"),
    "base_norm closed form": (lambda v: base_norm(S2, DIFF, tol=v), "tol"),
    "base_norm_psd closed form": (lambda v: base_norm_psd(S2, STATE, tol=v), "tol"),
    "certify_optimal": (
        lambda v: certify_optimal(HELSTROM, EXPERIMENT, classical_problem(np.eye(2)), tol=v),
        "tol"),
    "certify_extremal_psd": (
        lambda v: certify_extremal_psd(S2, STATE, dual_candidate=identity(2), tol=v), "tol"),
    "max_entangled_tester_exists": (
        lambda v: max_entangled_tester_exists(IDENTITY_CHANNEL, DEPHASING, 0.5, tol=v), "tol"),
    "GeneralizedPOVM": (
        lambda v: GeneralizedPOVM(S2, HELSTROM.effects, validation_tol=v), "validation_tol"),
    "psd_check": (lambda v: psd_check(STATE, v), "tol"),
    "contains": (lambda v: contains(S2, STATE, v), "tol"),
}

GOOD_COUNTS = [5, np.int64(5), 5.0, np.float64(5.0)]
GOOD_TOLS = [1e-7, np.float64(1e-7)]
BAD_SCALARS = [2.5, True, "5", math.nan, math.inf]


def fingerprint(value):
    """What an entry returned, down to types and bits."""
    if isinstance(value, HermitianMatrix):
        return value.subsystem_dims, value.entries.tobytes()
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, Section):
        return value.label
    if dataclasses.is_dataclass(value):
        return tuple(fingerprint(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return tuple(map(fingerprint, value))
    return value, type(value)


def outcome(call, value):
    """The fingerprint of ``call(value)``; a solve that ran out of iterations
    counts by the solution it reports."""
    try:
        return fingerprint(call(value))
    except SolverError as exc:
        return "SolverError", fingerprint(exc.solution)


@pytest.mark.parametrize("name", list(COUNTS))
def test_every_spelling_of_a_count_gives_one_result(name):
    call = COUNTS[name][0]
    results = [outcome(call, v) for v in GOOD_COUNTS]
    assert all(r == results[0] for r in results[1:])


@pytest.mark.parametrize("bad", ["least - 1"] + BAD_SCALARS, ids=repr)
@pytest.mark.parametrize("name", list(COUNTS))
def test_a_bad_count_is_a_domain_error_naming_its_argument(name, bad):
    call, least, argument = COUNTS[name]
    with pytest.raises(DomainError) as info:
        call(least - 1 if bad == "least - 1" else bad)
    assert str(info.value).startswith(f"{argument} must be an integer of at least {least}")


@pytest.mark.parametrize("name", list(TOLS))
def test_every_spelling_of_a_tolerance_gives_one_result(name):
    call = TOLS[name][0]
    results = [outcome(call, v) for v in GOOD_TOLS]
    assert all(r == results[0] for r in results[1:])


@pytest.mark.parametrize("bad", [-1, -1e-7, True, "1e-7", math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("name", list(TOLS))
def test_a_bad_tolerance_is_a_domain_error_naming_its_argument(name, bad):
    call, argument = TOLS[name]
    with pytest.raises(DomainError) as info:
        call(bad)
    assert str(info.value).startswith(f"{argument} must be a finite, non-negative number")


def test_a_count_reaches_the_solve_as_a_python_int():
    for spelling in (3, np.int64(3), 3.0, np.float64(3.0)):
        with pytest.raises(SolverError) as info:
            diamond_norm(X4, max_iter=spelling)
        assert type(info.value.solution.iterations) is int
        assert info.value.solution.iterations == 3
    samples = sample_section(S2, np.float64(2.0), seed=np.int64(4))
    assert len(samples.points) == 2 and type(samples.seed) is int


@pytest.mark.parametrize("lam", [0.5, np.float64(0.5), 1, np.int64(1), 1.0])
def test_a_prior_is_any_real_number_in_the_unit_interval(lam):
    got = prior_weighted(lam, STATE, DIFF)
    want = prior_weighted(float(lam), STATE, DIFF)
    assert got.entries.tobytes() == want.entries.tobytes()


@pytest.mark.parametrize("bad", [-1, 2.5, True, "0.5", math.nan, math.inf], ids=repr)
def test_a_bad_prior_is_a_domain_error(bad):
    with pytest.raises(DomainError, match=r"^prior must lie in \[0, 1\]"):
        prior_weighted(bad, STATE, DIFF)


@pytest.mark.parametrize("index", [1, np.int64(1), 1.0])
def test_every_spelling_of_a_subsystem_index_traces_one_factor(index):
    assert partial_trace(BELL, index).allclose(identity(2) / 2, 0.0)


@pytest.mark.parametrize("bad", [-1, 2, 0.7, 2.5, True, "1", math.nan, math.inf], ids=repr)
def test_a_bad_subsystem_index_is_a_shape_error(bad):
    with pytest.raises(ShapeError, match="^subsystem_index must be an integer"):
        partial_trace(BELL, bad)


@pytest.fixture
def norm_files(tmp_path):
    paths = []
    for name, obj in (("sec", {"kind": "states", "dims": [2]}), ("x", matrix_to_json(DIFF))):
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        paths.append(str(tmp_path / f"{name}.json"))
    return paths


@pytest.mark.parametrize(
    "flag, value, argument",
    [("--max-iter", v, "max-iter") for v in ("2.5", "True", "nan", "abc")]
    + [("--max-iter", v, "max_iter") for v in ("0", "-1")]
    + [("--tol", "abc", "--tol")]
    + [("--tol", v, "tol") for v in ("nan", "inf", "-1", "0")],
)
def test_the_cli_rejects_a_bad_count_or_tolerance_as_an_input_error(norm_files, capsys, flag,
                                                                    value, argument):
    """A closed-form norm, so only the argument rule can fail: exit 1, no
    report, and a message naming the argument."""
    assert cli.main(["norm", *norm_files, flag, value]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: ") and argument in err


@pytest.mark.parametrize("argv", [["nosuch"], ["norm"], ["helstrom", "a", "b", "--lambda", "x"]])
def test_a_malformed_command_line_exits_1(argv, capsys):
    assert cli.main(argv) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: ")


@pytest.mark.parametrize("argv", [["--version"], ["norm", "--help"]])
def test_help_and_version_still_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("bad", [-1, True, "1e-9", math.nan, math.inf], ids=repr)
def test_compress_applies_the_tolerance_rule(bad):
    """An off-carrier x on a restricted section: None at tol 1e-9, and a bad
    tolerance is a DomainError rather than a carrier test that NaN passes."""
    restricted = singleton_section(diag([1.0, 0.0]))
    off_carrier = diag([0.0, 1.0])
    assert restricted.compress(off_carrier, 1e-9) is None
    for call in (restricted.compress, restricted.slice_point):
        with pytest.raises(DomainError, match="^tol must be a finite, non-negative number"):
            call(off_carrier, bad)


@pytest.mark.parametrize(
    "budget, argument",
    [({"max_iter": 0}, "max_iter"), ({"max_iter": 2.5}, "max_iter"),
     ({"solve_tol": math.nan}, "solve_tol"), ({"solve_tol": -1e-7}, "solve_tol")],
)
def test_certify_optimal_checks_its_budget_before_the_candidate(budget, argument):
    """The same DomainError for a valid measurement and for a candidate whose
    blocks do not fit the section."""
    problem = classical_problem(np.eye(2))
    for candidate in (HELSTROM, identity(3)):
        with pytest.raises(DomainError, match=f"^{argument} must be"):
            certify_optimal(candidate, EXPERIMENT, problem, **budget)
