"""Each span-sized array is held once.

A comb section's span matrix M (d^2 x k) is the largest array gnorm holds,
and a solve that projects through the thin complement N never builds it.
Building the span writes both Kronecker parts into one array, assembling a
thin program holds N and no d^2 x k array, and a lifts statement checks
sum_j c_j L_j^T L_j = sigma I a block of rows at a time, so each step's
tracemalloc peak stays within 1.25 times its data.
Neither saving moves a bit: the span equals the stacked, unchunked Kronecker
parts, and sigma is the trace of the Gram sum over k.
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
    assert program.lifts == () and program._shared["rows"].complement is n
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


def counted_runs(lifts):
    """(lift, copies) for each run of consecutive equal lift arrays."""
    runs = []
    for m in lifts:
        if runs and runs[-1][0] is m:
            runs[-1][1] += 1
        else:
            runs.append([m, 1])
    return runs


@pytest.mark.parametrize("copies, lifted", [(1, 0), (2, 0), (1, 2), (2, 3)])
def test_sigma_is_the_trace_of_the_gram_sum_over_k(copies, lifted):
    # copies alone are stated by the thin complement: state them by the span's lifts
    sec = channels_section(2, 3)
    lifts = majorant_program(sec, copies, lifted).lifts or (sec.span_matrix(),) * copies
    program = majorant(lifts)
    k = program.lifts[0].shape[1]
    gram = sum(c * (m.T @ m) for m, c in counted_runs(program.lifts))
    assert program._shared["rows"].sigma == float(np.trace(gram)) / k


def split_lifts(miss):
    """Two lifts M A and M B on channels(2,2)'s span M, with non-scalar grams
    A^T A and B^T B summing to 2 I, plus ``miss`` on one off-diagonal pair."""
    m = channels_section(2, 2).span_matrix()
    k = m.shape[1]
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    g1 = (q * np.linspace(0.2, 1.8, k)) @ q.T
    g2 = 2.0 * np.eye(k) - g1
    g2[0, 1] += miss
    g2[1, 0] += miss

    def root(g):
        w, v = np.linalg.eigh(g)
        return (v * np.sqrt(w)) @ v.T

    return m @ root(g1), m @ root(g2)


def majorant(lifts):
    n_rows = sum(m.shape[0] for m in lifts)
    return MajorantProgram(lifts, np.zeros(n_rows + lifts[0].shape[1]), np.zeros(n_rows))


def test_lifts_with_non_scalar_grams_summing_to_sigma_are_accepted():
    lifts = split_lifts(0.0)
    for m in lifts:
        gram = m.T @ m
        assert np.abs(gram - np.trace(gram) / len(gram) * np.eye(len(gram))).max() > 0.1
    assert abs(majorant(lifts)._shared["rows"].sigma - 2.0) <= 1e-12


def test_an_off_diagonal_gram_miss_is_rejected():
    with pytest.raises(ShapeError, match="sigma I"):
        majorant(split_lifts(1e-6))


def test_gram_check_reads_every_block_of_rows():
    # channels(5,5): k = 601, three blocks of PRODUCT_CHUNK rows
    m = channels_section(5, 5).span_matrix()
    k = m.shape[1]
    assert majorant((m, m))._shared["rows"].sigma == float(np.trace(2 * (m.T @ m))) / k
    skew = m.copy()
    skew[:, -1] += 1e-6 * m[:, -2]  # a miss in the last block only
    with pytest.raises(ShapeError, match="sigma I"):
        majorant((skew, skew))
