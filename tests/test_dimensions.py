"""One rule for every dimension argument.

A dimension is an int, a numpy integer or an integral float (never a bool
or a string) of at least 1, and a dims argument is any sequence of them
that is not a str or bytes.  Each entry that takes a dimension accepts
every such spelling with identical results and rejects everything else
with a ShapeError that names the argument; the cached section constructors
apply the rule before their cache is consulted.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from gnorm.choi import (
    apply_choi_tensor_id,
    kraus_channel,
    max_entangled_projection,
    max_entangled_state,
    max_entangled_vector,
)
from gnorm.errors import ShapeError
from gnorm.hermitian import HermitianMatrix, herm, identity, json_dims, zeros
from gnorm.norms import NormResult, ncomb_norm
from gnorm.sections import (
    Section,
    channels_section,
    comb_section,
    generalized_section,
    id_tensor_section,
    povm_section,
    states_section,
)
from gnorm.solver import Block

S2 = states_section(2)
CHANNEL = kraus_channel([np.array([[1.0, 0.0], [0.0, 0.6]]), np.array([[0.0, 0.8], [0.0, 0.0]])])
SIGMA = herm(np.diag([0.4, 0.3, 0.2, 0.1]))
X4 = herm(np.diag([0.5, -0.25, 0.125, -0.125]))

# name -> (call on one dimension or dims, takes a sequence, fragment naming the argument)
ENTRIES = {
    "HermitianMatrix": (lambda d: HermitianMatrix(np.eye(4), d), True, "subsystem dims"),
    "herm": (lambda d: herm(np.eye(4), d), True, "subsystem dims"),
    "with_dims": (lambda d: identity(4).with_dims(d), True, "subsystem dims"),
    "identity": (identity, False, "dims"),
    "identity of a product": (identity, True, "dims"),
    "zeros": (zeros, False, "dims"),
    "zeros of a product": (zeros, True, "dims"),
    "json_dims": (lambda d: json_dims({"dims": list(d)}, "matrix JSON"), True, "field 'dims'"),
    "max_entangled_vector": (max_entangled_vector, False, "dimension d"),
    "max_entangled_projection": (max_entangled_projection, False, "dimension d"),
    "max_entangled_state": (max_entangled_state, False, "dimension d"),
    "apply_choi_tensor_id": (
        lambda d: apply_choi_tensor_id(CHANNEL, d, SIGMA), False, "ancilla_dim"),
    "states_section": (states_section, False, "dimension d"),
    "channels_section input": (lambda d: channels_section(d, 2), False, "dim_in"),
    "channels_section output": (lambda d: channels_section(2, d), False, "dim_out"),
    "comb_section": (comb_section, True, "comb dims"),
    "generalized_section": (lambda d: generalized_section(S2, d), False, "dim_out"),
    "povm_section": (lambda d: povm_section(S2, d), False, "outcomes"),
    "id_tensor_section": (lambda d: id_tensor_section(S2, d), False, "d_left"),
    "ncomb_norm": (lambda d: ncomb_norm(d, X4), True, "network dims"),
    "Block": (Block, False, "block dimension"),
}

GOOD_DIMS = [2, np.int64(2), 2.0]
GOOD_SEQUENCES = [(2, 2), [2, 2], np.array([2, 2]), (np.int64(2), np.int64(2)), (2.0, 2.0)]
BAD_DIMS = [0, -1, 2.5, True, "2"]


def fingerprint(value):
    """What an entry returned, down to types and bits."""
    if isinstance(value, HermitianMatrix):
        return value.subsystem_dims, tuple(map(type, value.subsystem_dims)), value.entries.tobytes()
    if isinstance(value, Section):
        return (
            value.label, value.subsystem_dims, value.span_matrix().tobytes(),
            fingerprint(value.normalizer),
        )
    if isinstance(value, NormResult):
        return value.value, value.primal_value, value.dual_value, value.iterations
    if isinstance(value, Block):
        return value.dim, type(value.dim), value.cone
    if isinstance(value, np.ndarray):
        return value.tobytes()
    return value, tuple(map(type, value))


@pytest.mark.parametrize("name", list(ENTRIES))
def test_every_spelling_of_a_dimension_gives_one_result(name):
    call, sequence, _ = ENTRIES[name]
    results = [fingerprint(call(d)) for d in (GOOD_SEQUENCES if sequence else GOOD_DIMS)]
    assert all(r == results[0] for r in results[1:])


@pytest.mark.parametrize("bad", BAD_DIMS, ids=repr)
@pytest.mark.parametrize("name", list(ENTRIES))
def test_a_bad_dimension_is_a_shape_error_naming_its_argument(name, bad):
    call, sequence, fragment = ENTRIES[name]
    with pytest.raises(ShapeError) as info:
        call([bad, 2] if sequence else bad)
    assert fragment in str(info.value)


@pytest.mark.parametrize("bad", ["", "22", b"\x02\x02"], ids=repr)
@pytest.mark.parametrize(
    "name", [n for n, (_, seq, _) in ENTRIES.items() if seq and n != "json_dims"]
)
def test_a_string_is_never_dims(name, bad):
    """A str or bytes is a sequence but never a dims argument, though
    iterating it may yield nothing or valid-looking integers.  (JSON dims
    arrive as lists; a string there fails json_list.)"""
    call, _, fragment = ENTRIES[name]
    with pytest.raises(ShapeError) as info:
        call(bad)
    assert fragment in str(info.value)


def test_cached_sections_check_before_their_cache():
    """In a fresh process: a numpy dimension builds the section an int does,
    and a bool is rejected even after the section it equals was built."""
    script = (
        "import numpy as np\n"
        "from gnorm.errors import ShapeError\n"
        "from gnorm.sections import channels_section, comb_section, states_section\n"
        "assert channels_section(np.int64(3), 3) is channels_section(3, 3)\n"
        "assert comb_section([2, 2, 2]) is comb_section(np.array([2, 2, 2]))\n"
        "states_section(1)\n"
        "try:\n"
        "    states_section(True)\n"
        "except ShapeError:\n"
        "    print('rejected')\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rejected"

