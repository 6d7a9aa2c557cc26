"""The numeric array rule (:func:`gnorm.hermitian.as_array`) at every place a
caller's array enters, and the matrix input path behind it.

One table: every entry point x every malformed kind of array, each a
ShapeError that names the argument.  Then the edge cases of the matrix
input path: the empty matrix, an overflowing hermitization, and entries
bit for bit equal to (m + m^*)/2.
"""

import re
import warnings

import numpy as np
import pytest

from gnorm.choi import KrausMap, kraus_channel, kraus_from_json
from gnorm.decisions import DecisionProblem, Experiment, classical_problem, experiment_from_json
from gnorm.errors import ShapeError
from gnorm.hermitian import (
    HermitianMatrix,
    as_array,
    diag,
    herm,
    identity,
    json_floats,
    matrix_from_json,
    matrix_to_json,
    outer,
)
from gnorm.sections import section_from_descriptor, states_section
from gnorm.solver import FREE, PSD, Block, ConeProgram, MajorantProgram

S2 = states_section(2)
KET0, KET1 = diag([1.0, 0.0]), diag([0.0, 1.0])
EYE = [[1, 0], [0, 1]]
EYE_PAIRS = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]  # the JSON [re, im] form of EYE
EXPERIMENT = {
    "section": {"kind": "states", "dims": [2]},
    "family": [matrix_to_json(KET0), matrix_to_json(KET1)],
    "prior": [0.5, 0.5],
}
DENSE_BLOCKS = (Block(2, PSD), Block(1, FREE))

# entry: (call on an array value, a valid value, the name in the message,
# whether complex entries are valid there)
ENTRIES = {
    "HermitianMatrix": (HermitianMatrix, EYE, "matrix entries", True),
    "herm": (herm, EYE, "matrix entries", True),
    "diag": (diag, [1, 0], "diagonal values", False),
    "outer": (outer, [1, 0], "vector", True),
    "matrix_from_json": (
        lambda v: matrix_from_json({"dims": [2], "matrix": v}), EYE_PAIRS,
        "field 'matrix' ([re, im] pairs)", False),
    "custom_section": (
        lambda v: section_from_descriptor({
            "kind": "custom",
            "basis": [{"dims": [2], "matrix": v}],
            "normalizer": matrix_to_json(identity(2)),
        }),
        EYE_PAIRS, "field 'matrix' ([re, im] pairs)", False),
    "KrausMap": (lambda v: KrausMap((v,)), EYE, "Kraus operator 0", True),
    "kraus_channel": (lambda v: kraus_channel([np.eye(2), v]), EYE, "Kraus operator 1", True),
    "kraus_from_json": (lambda v: kraus_from_json([v]), EYE_PAIRS, "Kraus JSON ([re, im] pairs)", False),
    "Experiment prior": (lambda v: Experiment(S2, (KET0, KET1), v), [0.5, 0.5], "prior", False),
    "experiment JSON prior": (
        lambda v: experiment_from_json({**EXPERIMENT, "prior": v}), [0.5, 0.5],
        "experiment JSON: field 'prior'", False),
    "DecisionProblem table": (
        lambda v: DecisionProblem("classical", table=v), EYE, "payoff table", False),
    "classical_problem": (classical_problem, EYE, "payoff table", False),
    "experiment JSON table": (
        lambda v: experiment_from_json({**EXPERIMENT, "payoff": {"kind": "classical", "table": v}}),
        EYE, "classical payoff: field 'table'", False),
    "json_floats": (lambda v: json_floats({"x": v}, "x", "object"), [1, 2], "object: field 'x'", False),
    "ConeProgram objective": (
        lambda v: ConeProgram(DENSE_BLOCKS, v, np.ones((1, 5)), [1.0]), [0] * 5, "objective", False),
    "ConeProgram rhs": (
        lambda v: ConeProgram(DENSE_BLOCKS, np.zeros(5), np.ones((1, 5)), v), [1], "rhs", False),
    "ConeProgram eq_matrix": (
        lambda v: ConeProgram(DENSE_BLOCKS, np.zeros(5), v, [1.0]), [[1] * 5], "eq_matrix", False),
    "MajorantProgram lift": (
        lambda v: MajorantProgram((v,), np.zeros(8), np.zeros(4)), np.eye(4).tolist(), "lift 0",
        False),
    "MajorantProgram objective": (
        lambda v: MajorantProgram((np.eye(4),), v, np.zeros(4)), [0] * 8, "objective", False),
    "MajorantProgram rhs": (
        lambda v: MajorantProgram((np.eye(4),), np.zeros(8), v), [0] * 4, "rhs", False),
    "Section.from_span_coords": (
        S2.from_span_coords, [1] + [0] * (S2.span_dim - 1), "span coordinates", False),
}


def _first_leaf(value, fn):
    """``value`` with its first number replaced by ``fn`` of it."""
    if isinstance(value, list):
        return [_first_leaf(value[0], fn)] + value[1:]
    return fn(value)


def _every_leaf(value, fn):
    return [_every_leaf(v, fn) for v in value] if isinstance(value, list) else fn(value)


MALFORMED = {
    "numeric strings": lambda v: _every_leaf(v, str),
    "a bool among numbers": lambda v: _first_leaf(v, bool),  # JSON true reads as one
    "a bool array": lambda v: np.array(_every_leaf(v, bool)),
    "an object array": lambda v: np.array(v, dtype=object),
    "ragged nesting": lambda v: [v, v[:-1]],
    "a complex entry": lambda v: _first_leaf(v, lambda x: complex(x, 1)),
}

CASES = [
    pytest.param(entry, kind, id=f"{entry}-{kind}")
    for entry, (_, _, _, complex_ok) in ENTRIES.items()
    for kind in MALFORMED
    if not (complex_ok and kind == "a complex entry")
]


@pytest.mark.parametrize("entry", ENTRIES)
def test_entry_accepts_its_valid_array(entry):
    call, good, _, _ = ENTRIES[entry]
    call(good)


@pytest.mark.parametrize("entry, kind", CASES)
def test_entry_rejects_malformed_array_by_name(entry, kind):
    call, good, name, _ = ENTRIES[entry]
    with pytest.raises(ShapeError, match=re.escape(name) + " must be finite numbers"):
        call(MALFORMED[kind](good))


def test_valid_arrays_convert_as_numpy_does():
    for value in ([1, 2], [[1.5, -2]], np.arange(3, dtype=np.int32), np.ones(2, dtype=np.float32)):
        got = as_array(value, "x")
        assert got.dtype == float and np.array_equal(got, np.asarray(value, dtype=float))
    got = as_array([[1, 2j]], "x", complex)
    assert got.dtype == complex and np.array_equal(got, [[1, 2j]])
    arr = np.ones(3)
    assert as_array(arr, "x") is arr  # a float array is not copied


def test_json_pairs_read_in_any_memory_order():
    pairs = np.asfortranarray(np.array([EYE_PAIRS]))  # one Kraus operator, column-major
    (op,) = kraus_from_json(pairs).operators
    assert np.array_equal(op, np.eye(2))


def test_empty_matrix_fails_the_square_rule():
    for call in (lambda: herm(np.zeros((0, 0))), lambda: HermitianMatrix(np.zeros((0, 0)))):
        with pytest.raises(ShapeError, match="nonempty square matrix"):
            call()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_hermitization_overflow_is_rejected():
    # finite entries whose sum with the adjoint overflows
    with pytest.raises(ShapeError, match="non-finite"):
        herm([[1, 1e308], [1e308, 1]])
    obj = {"dims": [2], "matrix": [[[1, 0], [1e308, 0]], [[1e308, 0], [1, 0]]]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the file reader reports it by the error alone
        with pytest.raises(ShapeError, match="non-finite"):
            matrix_from_json(obj)


def test_entries_are_the_hermitized_input_bit_for_bit():
    rng = np.random.default_rng(29)
    for scale in np.logspace(-300, 300, 25):
        for d in (1, 2, 3, 5):
            m = scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            m[0, -1] = complex(np.copysign(0.0, rng.normal()), np.copysign(0.0, rng.normal()))
            got = herm(m).entries
            want = (m + m.conj().T) / 2
            for part in (np.real, np.imag):
                assert np.array_equal(part(got), part(want))
                assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))
