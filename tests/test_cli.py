"""End-to-end CLI tests: file I/O, exit codes, report determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import rand_kraus_channel
from gnorm.choi import (
    apply_choi,
    apply_choi_tensor_id,
    is_channel_choi,
    kraus_channel,
    max_entangled_projection,
)
from gnorm.decisions import (
    Experiment,
    bayes_error,
    classical_problem,
    experiment_to_json,
    helstrom,
    max_entangled_tester_exists,
)
from gnorm.errors import DomainError, ShapeError, SolverError
from gnorm.hermitian import herm, identity, matrix_to_json, outer
from gnorm.norms import base_norm, diamond_norm
from gnorm.sections import channels_section, states_section

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(PKG_ROOT, "src"), env.get("PYTHONPATH", "")]
    )
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "gnorm.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


@pytest.fixture
def state_files(tmp_path):
    zero = write_json(tmp_path / "zero.json", matrix_to_json(outer([1.0, 0.0])))
    plus = write_json(
        tmp_path / "plus.json",
        matrix_to_json(outer([1.0 / math.sqrt(2), 1.0 / math.sqrt(2)])),
    )
    return zero, plus


def test_norm_command_states(tmp_path):
    sec = write_json(tmp_path / "sec.json", {"kind": "states", "dims": [2]})
    mat = write_json(tmp_path / "mat.json", matrix_to_json(herm(np.diag([1.0, -1.0]))))
    proc = run_cli("norm", sec, mat)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["values"]["value"] == pytest.approx(2.0, abs=1e-9)
    assert report["command"] == "norm"
    assert "requested_tol" in report and "achieved_tol" in report


def test_norm_command_singleton_closed_form(tmp_path):
    sec = write_json(
        tmp_path / "sec.json",
        {"kind": "singleton", "matrix": matrix_to_json(identity(2) / 2)},
    )
    mat = write_json(tmp_path / "mat.json", matrix_to_json(herm(np.diag([1.0, -1.0]))))
    proc = run_cli("norm", sec, mat)
    report = json.loads(proc.stdout)
    # the slice through I/2: value |(I/2)^(1/2) x (I/2)^(1/2)|_1 = 1
    assert report["values"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert report["method"] == "closed_form"


def test_norm_command_dual_flag(tmp_path):
    sec = write_json(tmp_path / "sec.json", {"kind": "states", "dims": [2]})
    mat = write_json(tmp_path / "mat.json", matrix_to_json(herm(np.diag([1.0, -1.0]))))
    proc = run_cli("norm", sec, mat, "--dual")
    report = json.loads(proc.stdout)
    assert report["values"]["value"] == pytest.approx(1.0, abs=1e-9)


def test_norm_witness_out(tmp_path):
    sec = write_json(tmp_path / "sec.json", {"kind": "channels", "dims": [2, 2]})
    mat = write_json(
        tmp_path / "mat.json",
        matrix_to_json(herm(max_entangled_projection(2).entries, (2, 2))),
    )
    wpath = str(tmp_path / "wit.json")
    proc = run_cli("norm", sec, mat, "--witness-out", wpath, "--tol", "1e-8")
    assert proc.returncode == 0
    wit = json.load(open(wpath))
    assert "primal_witness" in wit and len(wit["dual_witness"]) == 2


def test_dmax_command(tmp_path):
    a = write_json(tmp_path / "a.json", matrix_to_json(herm(np.diag([0.5, 0.5]))))
    proc = run_cli("dmax", a, a)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["values"]["dmax"] == pytest.approx(0.0, abs=1e-9)


def test_dmax_infinite_value(tmp_path):
    a = write_json(tmp_path / "a.json", matrix_to_json(herm(np.diag([0.0, 1.0]))))
    b = write_json(tmp_path / "b.json", matrix_to_json(herm(np.diag([1.0, 0.0]))))
    proc = run_cli("dmax", a, b)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["values"]["dmax"] == "inf"


def test_helstrom_command(state_files):
    zero, plus = state_files
    proc = run_cli("helstrom", zero, plus, "--lambda", "0.5")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    expected = (1.0 - 1.0 / math.sqrt(2.0)) / 2.0
    assert report["values"]["error"] == pytest.approx(expected, abs=1e-6)


def test_helstrom_rejects_mismatched_dimensions(tmp_path, state_files):
    zero, _ = state_files
    eye3 = write_json(tmp_path / "eye3.json", matrix_to_json(identity(3) / 3.0))
    for args in ((zero, eye3), (eye3, zero)):
        proc = run_cli("helstrom", *args)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("input error: dimension mismatch")
        assert "Traceback" not in proc.stderr


def test_diamond_command(tmp_path):
    psi = herm(max_entangled_projection(2).entries, (2, 2))
    x_z = kraus_channel([np.diag([1.0, -1.0]).astype(complex)]).matrix
    c0 = write_json(tmp_path / "c0.json", matrix_to_json(psi))
    c1 = write_json(tmp_path / "c1.json", matrix_to_json(x_z))
    proc = run_cli("diamond", c0, c1, "--lambda", "0.5", "--tol", "1e-8")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["values"]["value"] == pytest.approx(1.0, abs=1e-6)
    assert report["values"]["error"] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("lam", ["1.5", "-0.1", "nan"])
def test_diamond_rejects_lambda_outside_unit_interval(tmp_path, lam):
    psi = herm(max_entangled_projection(2).entries, (2, 2))
    c0 = write_json(tmp_path / "c0.json", matrix_to_json(psi))
    proc = run_cli("diamond", c0, c0, "--lambda", lam)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "input error: prior must lie in [0, 1]" in proc.stderr
    # the library's other prior callers share the rule
    rho = identity(2) / 2
    for call in (
        lambda: bayes_error(states_section(2), rho, rho, float(lam)),
        lambda: helstrom(rho, rho, float(lam)),
        lambda: max_entangled_tester_exists(psi, psi, float(lam)),
    ):
        with pytest.raises(DomainError, match=r"prior must lie in \[0, 1\]"):
            call()


NO_CHOI_DIMS = herm(np.eye(4) / 2)  # 4 x 4, but no (output, input) dims


@pytest.mark.parametrize(
    "entry",
    [
        "apply_choi",
        "apply_choi_tensor_id",
        "is_channel_choi",
        "diamond_norm",
        "max_entangled_tester_exists",
        "cli diamond",
        "cli tester-check",
    ],
)
def test_every_choi_entry_point_rejects_a_matrix_without_output_input_dims(tmp_path, entry):
    psi = herm(max_entangled_projection(2).entries, (2, 2))  # the identity channel
    if entry.startswith("cli "):
        bad = write_json(tmp_path / "bad.json", matrix_to_json(NO_CHOI_DIMS))
        good = write_json(tmp_path / "good.json", matrix_to_json(psi))
        proc = run_cli(entry[4:], bad, good)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("input error: choi0: needs exactly two subsystem dims")
        return
    if entry == "is_channel_choi":
        assert is_channel_choi(NO_CHOI_DIMS) is False
        return
    calls = {
        "apply_choi": lambda: apply_choi(NO_CHOI_DIMS, identity(2)),
        "apply_choi_tensor_id": lambda: apply_choi_tensor_id(NO_CHOI_DIMS, 2, identity(4)),
        "diamond_norm": lambda: diamond_norm(NO_CHOI_DIMS),
        "max_entangled_tester_exists": lambda: max_entangled_tester_exists(NO_CHOI_DIMS, psi, 0.5),
    }
    with pytest.raises(ShapeError, match=r"\(output, input\)"):
        calls[entry]()


@pytest.mark.parametrize(
    "descriptor, dim",
    [({"kind": "states", "dims": [2]}, 16), ({"kind": "channels", "dims": [2, 2]}, 3)],
)
def test_norm_rejects_mismatched_dimension(tmp_path, descriptor, dim):
    sec = write_json(tmp_path / "sec.json", descriptor)
    mat = write_json(tmp_path / "mat.json", matrix_to_json(herm(np.eye(dim))))
    proc = run_cli("norm", sec, mat)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("input error: expected dim")
    assert "Traceback" not in proc.stderr


def test_comb_norm_command(tmp_path):
    psi = herm(max_entangled_projection(2).entries, (2, 2))
    from gnorm.hermitian import tensor

    member = tensor(psi, psi)
    mat = write_json(tmp_path / "m.json", matrix_to_json(member))
    proc = run_cli("comb-norm", mat, "--dims", "2,2,2,2", "--tol", "1e-7")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["values"]["value"] == pytest.approx(1.0, abs=1e-5)


def test_hmin_command(tmp_path):
    sigma = identity((2, 2)) / 4
    mat = write_json(tmp_path / "s.json", matrix_to_json(sigma))
    proc = run_cli("hmin", mat, "--tol", "1e-8")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["values"]["hmin"] == pytest.approx(1.0, abs=1e-6)


def test_hmin_command_zero_state_is_infinite(tmp_path):
    mat = write_json(tmp_path / "zero.json", matrix_to_json(herm(np.zeros((4, 4)), (2, 2))))
    proc = run_cli("hmin", mat)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["values"]["hmin"] == "inf"


def test_certify_command(tmp_path, state_files):
    zero_p, plus_p = state_files
    s = states_section(2)
    zero = outer([1.0, 0.0])
    plus = outer([1.0 / math.sqrt(2), 1.0 / math.sqrt(2)])
    e = Experiment(s, (zero, plus), np.array([0.5, 0.5]))
    p = classical_problem(np.eye(2))
    exp = write_json(tmp_path / "exp.json", experiment_to_json(e, p))
    _, povm = helstrom(zero, plus, 0.5)
    cand = write_json(
        tmp_path / "cand.json",
        {"kind": "povm", "effects": [matrix_to_json(m) for m in povm.effects]},
    )
    proc = run_cli("certify", cand, exp)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["values"]["feasible"] is True


def test_tester_check_command(tmp_path):
    psi = herm(max_entangled_projection(2).entries, (2, 2))
    x_z = kraus_channel([np.diag([1.0, -1.0]).astype(complex)]).matrix
    c0 = write_json(tmp_path / "c0.json", matrix_to_json(psi))
    c1 = write_json(tmp_path / "c1.json", matrix_to_json(x_z))
    proc = run_cli("tester-check", c0, c1, "--lambda", "0.5")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["values"]["exists"] is True


def test_exit_code_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    sec = write_json(tmp_path / "sec.json", {"kind": "states", "dims": [2]})
    proc = run_cli("norm", sec, str(bad))
    assert proc.returncode == 1
    assert "JSON" in proc.stderr or "json" in proc.stderr


def test_exit_code_missing_field(tmp_path):
    sec = write_json(tmp_path / "sec.json", {"kind": "states", "dims": [2]})
    mat = write_json(tmp_path / "mat.json", {"dims": [2]})
    proc = run_cli("norm", sec, mat)
    assert proc.returncode == 1
    assert "matrix" in proc.stderr


def test_exit_code_non_convergence(tmp_path):
    sec = write_json(tmp_path / "sec.json", {"kind": "channels", "dims": [2, 2]})
    rng = np.random.default_rng(0)
    g = rng.normal(size=(4, 4))
    mat = write_json(
        tmp_path / "mat.json", matrix_to_json(herm((g + g.T) / 2, (2, 2)))
    )
    proc = run_cli("norm", sec, mat, "--max-iter", "26", "--tol", "1e-14")
    assert proc.returncode == 2


def test_non_convergence_reports_the_callers_units(tmp_path):
    # the exit-2 line prints the library's stopped NormResult, in input units
    sec = write_json(tmp_path / "sec.json", {"kind": "channels", "dims": [2, 2]})
    rng = np.random.default_rng(0)
    x = herm(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), (2, 2)) * 1000.0
    mat = write_json(tmp_path / "mat.json", matrix_to_json(x))
    proc = run_cli("norm", sec, mat, "--max-iter", "3")
    with pytest.raises(SolverError) as info:
        base_norm(channels_section(2, 2), x, max_iter=3)
    res = info.value.solution
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"(best primal {res.primal_value:.9g}, best dual {res.dual_value:.9g})" in proc.stderr
    assert res.primal_value > 1000


def test_exit_code_max_iter_below_one(tmp_path):
    sec = write_json(tmp_path / "sec.json", {"kind": "channels", "dims": [2, 2]})
    x = herm(np.diag([1.0, -1.0, 0.0, 0.0]), (2, 2))
    mat = write_json(tmp_path / "mat.json", matrix_to_json(x))
    proc = run_cli("norm", sec, mat, "--max-iter", "0")
    assert proc.returncode == 1
    assert "max_iter" in proc.stderr
    # rejected before any computation, also where a closed form needs no solve
    states = write_json(tmp_path / "states.json", {"kind": "states", "dims": [2]})
    diag = write_json(tmp_path / "diag.json", matrix_to_json(herm(np.diag([1.0, -1.0]))))
    for value in ("0", "-5"):
        proc = run_cli("norm", states, diag, "--max-iter", value)
        assert proc.returncode == 1
        assert "max_iter" in proc.stderr and proc.stdout == ""


def test_certify_honours_max_iter(tmp_path):
    s = states_section(2)
    zero = outer([1.0, 0.0])
    plus = outer([1.0 / math.sqrt(2), 1.0 / math.sqrt(2)])
    e = Experiment(s, (zero, plus), np.array([0.5, 0.5]))
    exp = write_json(tmp_path / "exp.json", experiment_to_json(e, classical_problem(np.eye(2))))
    _, povm = helstrom(zero, plus, 0.5)
    cand = write_json(
        tmp_path / "cand.json",
        {"kind": "povm", "effects": [matrix_to_json(m) for m in povm.effects]},
    )
    proc = run_cli("certify", cand, exp, "--max-iter", "1")
    assert proc.returncode == 2


def test_exit_code_non_finite_matrix(tmp_path):
    # Python's json reads NaN; the matrix is rejected as an input error.
    entries = np.eye(4).tolist()
    entries[1][1] = float("nan")
    mat = write_json(
        tmp_path / "nan.json",
        {"dims": [2, 2], "matrix": [[[x, 0.0] for x in row] for row in entries]},
    )
    for argv in (("comb-norm", mat, "--dims", "2,2"), ("hmin", mat)):
        proc = run_cli(*argv)
        assert proc.returncode == 1, argv
        assert "non-finite" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_exit_code_validation_failure(tmp_path, state_files):
    zero_p, plus_p = state_files
    s = states_section(2)
    zero = outer([1.0, 0.0])
    plus = outer([1.0 / math.sqrt(2), 1.0 / math.sqrt(2)])
    e = Experiment(s, (zero, plus), np.array([0.5, 0.5]))
    p = classical_problem(np.eye(2))
    exp = write_json(tmp_path / "exp.json", experiment_to_json(e, p))
    cand = write_json(
        tmp_path / "cand.json",
        {"kind": "choi", "matrix": matrix_to_json(identity((2, 2)))},
    )
    proc = run_cli("certify", cand, exp)
    assert proc.returncode == 3


def test_report_determinism(tmp_path):
    sec = write_json(tmp_path / "sec.json", {"kind": "channels", "dims": [2, 2]})
    psi = herm(max_entangled_projection(2).entries, (2, 2))
    mat = write_json(tmp_path / "mat.json", matrix_to_json(psi))
    out1 = run_cli("norm", sec, mat, "--tol", "1e-8").stdout
    out2 = run_cli("norm", sec, mat, "--tol", "1e-8").stdout
    assert out1 == out2


def test_env_default_tol(tmp_path):
    sec = write_json(tmp_path / "sec.json", {"kind": "states", "dims": [2]})
    mat = write_json(tmp_path / "mat.json", matrix_to_json(herm(np.diag([1.0, -1.0]))))
    proc = run_cli("norm", sec, mat, env_extra={"GNORM_DEFAULT_TOL": "1e-5"})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["requested_tol"] == pytest.approx(1e-5)


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_tol_must_be_finite_and_positive(tmp_path, value):
    # rejected before any work, by --tol and by GNORM_DEFAULT_TOL alike
    sec = write_json(tmp_path / "sec.json", {"kind": "channels", "dims": [2, 2]})
    x = herm(np.diag([1.0, -1.0, 0.0, 0.0]), (2, 2))
    mat = write_json(tmp_path / "mat.json", matrix_to_json(x))
    for proc in (
        run_cli("norm", sec, mat, "--tol", value),
        run_cli("norm", sec, mat, env_extra={"GNORM_DEFAULT_TOL": value}),
    ):
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "input error" in proc.stderr and "tol" in proc.stderr
        assert "Traceback" not in proc.stderr


def _certify_files(tmp_path, candidate, **fields):
    """Candidate and experiment files; ``fields`` replace top-level fields of
    the experiment, and None drops one."""
    s = states_section(2)
    zero = outer([1.0, 0.0])
    plus = outer([1.0 / math.sqrt(2), 1.0 / math.sqrt(2)])
    e = Experiment(s, (zero, plus), np.array([0.5, 0.5]))
    obj = experiment_to_json(e, classical_problem(np.eye(2)))
    obj = {k: v for k, v in {**obj, **fields}.items() if v is not None}
    return (
        write_json(tmp_path / "cand.json", candidate),
        write_json(tmp_path / "exp.json", obj),
    )


def _malformed(tmp_path, case):
    diag = matrix_to_json(herm(np.diag([1.0, -1.0, 0.0, 0.0]), (2, 2)))
    mat = write_json(tmp_path / "mat.json", diag)
    if case == "povm without effects":
        return ("certify", *_certify_files(tmp_path, {"kind": "povm"}))
    if case == "choi without matrix":
        return ("certify", *_certify_files(tmp_path, {"kind": "choi"}))
    if case == "channels without dims":
        return ("norm", write_json(tmp_path / "sec.json", {"kind": "channels"}), mat)
    if case == "non-integer dims":
        bad = write_json(tmp_path / "bad.json", {**diag, "dims": ["x"]})
        return ("norm", write_json(tmp_path / "sec.json", {"kind": "states", "dims": [4]}), bad)
    states2 = {"kind": "states", "dims": [2]}
    two = matrix_to_json(herm(np.diag([1.0, -1.0])))
    if case == "ragged matrix rows":
        bad = write_json(tmp_path / "bad.json", {**two, "matrix": [[[1, 0], [0, 0]], [[0, 0]]]})
        return ("norm", write_json(tmp_path / "sec.json", states2), bad)
    if case == "entry not an [re, im] pair":
        rows = [[[1, 0, 5], [0, 0, 0]], [[0, 0, 0], [-1, 0, 0]]]
        bad = write_json(tmp_path / "bad.json", {**two, "matrix": rows})
        return ("norm", write_json(tmp_path / "sec.json", states2), bad)
    if case == "boolean matrix entries":
        rows = [[[True, 0], [0, 0]], [[0, 0], [True, 0]]]
        bad = write_json(tmp_path / "bad.json", {**two, "matrix": rows})
        return ("norm", write_json(tmp_path / "sec.json", states2), bad)
    if case == "non-integral dims":
        bad = write_json(tmp_path / "bad.json", {**two, "dims": [2.7]})
        return ("norm", write_json(tmp_path / "sec.json", states2), bad)
    if case == "boolean dims":
        bad = write_json(tmp_path / "bad.json", {**two, "dims": [True, 2]})
        return ("norm", write_json(tmp_path / "sec.json", states2), bad)
    identity_povm = {"kind": "povm", "effects": [matrix_to_json(identity(2))] * 2}
    if case == "classical payoff without table":
        return ("certify", *_certify_files(tmp_path, identity_povm, payoff={"kind": "classical"}))
    if case == "payoff not an object":
        return ("certify", *_certify_files(tmp_path, identity_povm, payoff=[1]))
    if case == "effects not a list":
        return ("certify", *_certify_files(tmp_path, {"kind": "povm", "effects": 3}))
    if case == "family not a list":
        return ("certify", *_certify_files(tmp_path, identity_povm, family=3))
    if case == "section without kind":
        return ("certify", *_certify_files(tmp_path, identity_povm, section={"dims": [2]}))
    if case == "experiment without prior":
        return ("certify", *_certify_files(tmp_path, identity_povm, prior=None))
    if case == "prior a string":
        return ("certify", *_certify_files(tmp_path, identity_povm, prior="x"))
    if case == "prior of strings":
        return ("certify", *_certify_files(tmp_path, identity_povm, prior=["a", "b"]))
    if case == "prior of numeric strings":
        return ("certify", *_certify_files(tmp_path, identity_povm, prior=["0.5", "0.5"]))
    if case == "classical table a string":
        payoff = {"kind": "classical", "table": "x"}
        return ("certify", *_certify_files(tmp_path, identity_povm, payoff=payoff))
    if case == "comb-norm non-integer dims":
        return ("comb-norm", mat, "--dims", "2,x")
    if case == "hmin one dim":
        return ("hmin", mat, "--dims", "2")
    raise AssertionError(case)


@pytest.mark.parametrize(
    "case",
    [
        "povm without effects",
        "choi without matrix",
        "channels without dims",
        "non-integer dims",
        "classical payoff without table",
        "payoff not an object",
        "effects not a list",
        "family not a list",
        "section without kind",
        "experiment without prior",
        "prior a string",
        "prior of strings",
        "classical table a string",
        "comb-norm non-integer dims",
        "hmin one dim",
        "ragged matrix rows",
        "entry not an [re, im] pair",
        "non-integral dims",
        "boolean dims",
        "prior of numeric strings",
        "boolean matrix entries",
    ],
)
def test_exit_code_malformed_input(tmp_path, case):
    proc = run_cli(*_malformed(tmp_path, case))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("input error:"), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("basis_dims, normalizer_dim", [((2, 3), 2), ((2,), 3)])
def test_norm_rejects_mismatched_custom_section(tmp_path, basis_dims, normalizer_dim):
    section = {
        "kind": "custom",
        "basis": [matrix_to_json(identity(d)) for d in basis_dims],
        "normalizer": matrix_to_json(identity(normalizer_dim)),
    }
    sec = write_json(tmp_path / "custom.json", section)
    mat = write_json(tmp_path / "mat.json", matrix_to_json(identity(2)))
    proc = run_cli("norm", sec, mat)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("input error: custom_section")
    assert "Traceback" not in proc.stderr


def test_dmax_rejects_mismatched_dimension(tmp_path):
    a = write_json(tmp_path / "a.json", matrix_to_json(identity(2)))
    b = write_json(tmp_path / "b.json", matrix_to_json(identity(3)))
    proc = run_cli("dmax", a, b)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("input error: dimension mismatch")
    assert "Traceback" not in proc.stderr


def test_main_in_process_matches_a_fresh_process(tmp_path, state_files, capsys):
    # main builds its parser once per process; repeated in-process runs print
    # the bytes, exit codes and witness files of a fresh process.
    from gnorm import cli

    assert cli.build_parser() is cli.build_parser()
    zero, plus = state_files
    witness = tmp_path / "witness.json"

    def written():
        text = witness.read_text() if witness.exists() else None
        witness.unlink(missing_ok=True)
        return text

    for argv in (
        ["helstrom", zero, plus, "--witness-out", str(witness)],
        ["helstrom", zero, str(tmp_path / "missing.json")],
        ["dmax", zero, plus, "--tol", "1e-8"],
    ):
        fresh = run_cli(*argv)
        fresh_witness = written()
        for _ in range(2):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
            out, err = capsys.readouterr()
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
            assert written() == fresh_witness


def test_failed_kernel_is_an_error_not_a_traceback(tmp_path, monkeypatch, capsys):
    from gnorm import cli, solver

    real = solver._eigh

    def nan_eigh(a):  # fails as LAPACK does: NaN out, invalid flag raised
        return real(a * np.nan)

    monkeypatch.setattr(solver, "_eigh", nan_eigh)
    rng = np.random.default_rng(5)
    chois = [kraus_channel(rand_kraus_channel(rng, 2, 2, 2)).matrix for _ in range(2)]
    c0, c1 = (write_json(tmp_path / f"c{j}.json", matrix_to_json(x)) for j, x in enumerate(chois))
    assert cli.main(["diamond", c0, c1]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: conic solver: invalid value in an ADMM step")


def test_dmax_rejects_a_non_psd_b(tmp_path):
    a = write_json(tmp_path / "a.json", matrix_to_json(identity(2) / 2))
    b = write_json(tmp_path / "b.json", matrix_to_json(herm(np.diag([1.0, -1.0]))))
    proc = run_cli("dmax", a, b)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("input error: matrix has negative eigenvalue")
    assert "Traceback" not in proc.stderr
