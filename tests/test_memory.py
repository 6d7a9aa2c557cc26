"""Each span-sized array is held once.

A comb section's span matrix M (d^2 x k) is the largest array gnorm holds,
and a solve that projects through the thin complement N never builds it.
Building the span writes both Kronecker parts into one array, assembling a
thin program holds N and no d^2 x k array, and a majorant program checks
C^T C = I for its columns C on one r x r Gram product, so each step's
tracemalloc peak stays within 1.25 times its data.
The span equals the stacked, unchunked Kronecker parts bit for bit, and the
check misses no column.
"""

import math
import tracemalloc

import numpy as np
import pytest

from gnorm.errors import ShapeError
from gnorm.hermitian import _transpose_columns, hunvec, hvec, identity
from gnorm.norms import majorant_program
from gnorm.sections import (
    _zero_sum_columns,
    channels_section,
    comb_section,
    dual_section,
    generalized_section,
)
from gnorm.solver import MajorantProgram

BUDGET = 1.25  # peak allocation over the data it builds


def traced_peak(build):
    """(result, tracemalloc peak in bytes of the allocations ``build`` made)."""
    tracemalloc.start()
    try:
        got = build()
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def base():
    """comb(2,3,2) with its dual built: what the d = 36 build reads."""
    sec = comb_section((2, 3, 2))
    dual_section(sec)
    return sec


def test_section_build_holds_one_span_array(base):
    sec, peak = traced_peak(lambda: generalized_section(base, 3))
    assert sec.span_matrix().shape == (36 * 36, 1185)
    assert peak <= BUDGET * sec.span_matrix().nbytes


def test_majorant_assembly_holds_one_gram_array(base):
    # the thin program is stated by N, the complement the solve projects
    # through: it holds no d^2 x k array, and its one Gram array is N^T N
    sec = generalized_section(base, 3)
    program, peak = traced_peak(lambda: majorant_program(sec, 2))
    n = sec.complement_matrix()
    assert program.complement and program.columns is n
    assert n.shape == (1296, 111)
    assert not isinstance(sec._cache["span"], np.ndarray)  # the span was never built
    assert peak <= BUDGET * n.nbytes


def unchunked_kron_columns(left, d_left, right, d_right):
    """hvec columns of L (x) R, all right columns in one product per left column."""
    d = d_left * d_right
    rights = hunvec(right.T, d_right)
    parts = [
        hvec(np.einsum("ik,bjl->bijkl", hunvec(col, d_left), rights).reshape(-1, d, d)).T
        for col in left.T
    ]
    return np.hstack(parts)


def test_span_equals_the_stacked_unchunked_kronecker_parts(base):
    dk, h = 3, base.ambient_dim
    traceless = np.zeros((dk * dk, dk * dk - 1))
    traceless[:dk, : dk - 1] = _zero_sum_columns(dk)
    traceless[dk:, dk - 1 :] = np.eye(dk * dk - dk)
    expected = np.hstack([
        unchunked_kron_columns(traceless, dk, np.eye(h * h), h),
        unchunked_kron_columns(
            hvec(identity(dk))[:, None] / math.sqrt(dk),
            dk,
            _transpose_columns(dual_section(base).span_matrix(), h),
            h,
        ),
    ])
    got = generalized_section(base, dk).span_matrix()
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def off_diagonal_miss(cols, miss):
    """``cols`` times the root of I + ``miss`` (e_0 e_1^T + e_1 e_0^T): columns
    whose Gram matrix misses I by ``miss`` on one off-diagonal pair."""
    g = np.eye(cols.shape[1])
    g[0, 1] = g[1, 0] = miss
    w, v = np.linalg.eigh(g)
    return cols @ ((v * np.sqrt(w)) @ v.T)


def majorant(cols, complement):
    d2 = cols.shape[0]
    return MajorantProgram(cols, 2, np.zeros(3 * d2), np.zeros(2 * d2), complement=complement)


@pytest.mark.parametrize("complement", [False, True], ids=["span", "complement"])
def test_an_off_diagonal_gram_miss_is_rejected(complement):
    sec = channels_section(2, 2)
    cols = sec.complement_matrix() if complement else sec.span_matrix()
    majorant(off_diagonal_miss(cols, 0.0), complement)
    with pytest.raises(ShapeError, match="orthonormal"):
        majorant(off_diagonal_miss(cols, 1e-6), complement)


@pytest.mark.parametrize("complement", [False, True], ids=["span", "complement"])
def test_gram_check_reads_every_block_of_columns(complement):
    # channels(5,5)'s span: k = 601 columns, checked in one Gram product; a
    # miss in the first, a middle or the last column alone is refused
    m = channels_section(5, 5).span_matrix()
    assert m.shape[1] == 601
    majorant(m, complement)
    for col, other in ((0, 1), (300, 299), (-1, -2)):
        skew = m.copy()
        skew[:, col] += 1e-6 * m[:, other]
        with pytest.raises(ShapeError, match="orthonormal"):
            majorant(skew, complement)
