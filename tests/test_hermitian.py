"""Hermitian matrix calculus: examples with hand-computed oracles, then
property tests over random instances."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_herm, rand_psd
from gnorm.errors import DomainError, ShapeError
from gnorm.hermitian import (
    HermitianMatrix,
    abs_pos_neg,
    diag,
    eig,
    herm,
    hunvec,
    hunvec_matrix,
    hvec,
    identity,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    outer,
    partial_trace,
    pinv_sqrt,
    psd_check,
    sqrt_psd,
    support_projection,
    tensor,
    trace,
    trace_norm,
    trace_pair,
    transpose_in_basis,
)

KET0 = outer([1.0, 0.0])
PLUS = outer([1.0 / math.sqrt(2), 1.0 / math.sqrt(2)])


def test_construction_hermitizes():
    m = herm(np.array([[1.0, 1.0 + 1e-10j], [1.0 - 2e-10j, 2.0]]))
    assert np.allclose(m.entries, m.entries.conj().T)


def test_strict_mode_rejects_asymmetry():
    bad = np.array([[1.0, 0.5], [0.0, 2.0]])
    herm(bad)  # lenient mode hermitizes
    with pytest.raises(ShapeError):
        herm(bad, strict=True)


def test_non_finite_entries_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ShapeError):
            diag([bad, 1.0])
        with pytest.raises(ShapeError):
            herm(np.array([[1.0, 1j * bad], [0.0, 1.0]]))


def test_subsystem_dims_must_multiply():
    with pytest.raises(ShapeError):
        herm(np.eye(4), dims=(2, 3))


def test_sum_and_difference_reject_mismatched_dimensions():
    # the dimensions are compared before numpy broadcasts the entries
    for op in (operator.add, operator.sub):
        with pytest.raises(ShapeError, match="dimension mismatch: 2 vs 3"):
            op(identity(2), identity(3))
        with pytest.raises(ShapeError, match="dimension mismatch: 3 vs 1"):
            op(identity(3), identity(1))


def test_eig_identity_and_diagonal():
    s = eig(identity(2))
    assert np.allclose(s.eigenvalues, [1.0, 1.0])
    s = eig(diag([3.0, -1.0]))
    assert np.allclose(s.eigenvalues, [3.0, -1.0])


def test_eig_projector_difference():
    # 2x2 characteristic polynomial by hand: tr = 0, det = -1/2,
    # so the eigenvalues are +/- sqrt(1/2).
    x = KET0 - PLUS
    s = eig(x)
    root = math.sqrt(0.5)
    assert np.allclose(s.eigenvalues, [root, -root], atol=1e-12)
    recon = (s.eigenvectors * s.eigenvalues) @ s.eigenvectors.conj().T
    assert np.linalg.norm(recon - x.entries) <= 1e-10 * (1 + op_norm(x))


def test_trace_norm_examples():
    assert trace_norm(identity(3)) == pytest.approx(3.0)
    assert trace_norm(herm(np.zeros((2, 2)))) == 0.0
    assert trace_norm(KET0 - PLUS) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_op_norm_examples():
    assert op_norm(identity(2)) == pytest.approx(1.0)
    assert op_norm(diag([2.0, -5.0])) == pytest.approx(5.0)
    assert op_norm(KET0 - PLUS) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_psd_check_and_parts():
    assert psd_check(identity(4), 1e-12)
    x_abs, x_pos, x_neg = abs_pos_neg(diag([2.0, -3.0]))
    assert np.allclose(x_abs.entries, np.diag([2.0, 3.0]))
    assert np.allclose(x_pos.entries, np.diag([2.0, 0.0]))
    assert np.allclose(x_neg.entries, np.diag([0.0, 3.0]))


def test_support_projection_cutoff():
    p = support_projection(diag([1.0, 0.0, 1e-14]), cutoff=1e-10)
    assert np.allclose(p.entries, np.diag([1.0, 0.0, 0.0]))


def test_sqrt_and_pinv_sqrt():
    assert np.allclose(sqrt_psd(4.0 * identity(2)).entries, 2.0 * np.eye(2))
    assert np.allclose(pinv_sqrt(diag([4.0, 0.0])).entries, np.diag([0.5, 0.0]))
    assert np.allclose(sqrt_psd(PLUS).entries, PLUS.entries, atol=1e-12)
    with pytest.raises(DomainError):
        sqrt_psd(diag([1.0, -0.5]))


def test_partial_trace_examples():
    big = identity((2, 3))
    assert np.allclose(partial_trace(big, 0).entries, 2.0 * np.eye(3))
    assert np.allclose(partial_trace(big, 1).entries, 3.0 * np.eye(2))
    psi = sum(
        tensor(herm(np.outer(np.eye(2)[i], np.eye(2)[j])), herm(np.outer(np.eye(2)[i], np.eye(2)[j])))
        for i in range(2)
        for j in range(2)
    )
    assert np.allclose(partial_trace(psi, 0).entries, np.eye(2))


def test_partial_trace_requires_dims():
    with pytest.raises(ShapeError):
        partial_trace(identity(4), 0)
    with pytest.raises(ShapeError):
        partial_trace(identity((2, 2)), 2)


def test_transpose_entrywise():
    y_like = herm(np.array([[0.0, -1j], [1j, 0.0]]))
    t = transpose_in_basis(y_like)
    assert np.allclose(t.entries, np.array([[0.0, 1j], [-1j, 0.0]]))


def test_json_roundtrip():
    rng = np.random.default_rng(0)
    x = rand_herm(rng, 4, dims=(2, 2))
    obj = matrix_to_json(x)
    back = matrix_from_json(obj, strict=True)
    assert back.subsystem_dims == (2, 2)
    assert np.allclose(back.entries, x.entries)


def test_json_rejects_bad_fields():
    with pytest.raises(ShapeError):
        matrix_from_json({"matrix": [[[1, 0]]]})
    with pytest.raises(ShapeError):
        matrix_from_json({"dims": [2], "matrix": [[[1, 0]]]})


# -- properties ---------------------------------------------------------------

DIMS = st.integers(min_value=1, max_value=5)
SEEDS = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=40, deadline=None)
@given(DIMS, SEEDS)
def test_trace_norm_dominates_op_norm(d, seed):
    x = rand_herm(np.random.default_rng(seed), d)
    assert trace_norm(x) >= op_norm(x) - 1e-12


@settings(max_examples=40, deadline=None)
@given(DIMS, SEEDS)
def test_pos_neg_split_traces(d, seed):
    x = rand_herm(np.random.default_rng(seed), d)
    _, x_pos, x_neg = abs_pos_neg(x)
    assert trace_norm(x) == pytest.approx(trace(x_pos) + trace(x_neg), abs=1e-10)
    assert trace(x) == pytest.approx(trace(x_pos) - trace(x_neg), abs=1e-10)
    assert np.linalg.norm(x_pos.entries @ x_neg.entries) <= 1e-9 * (1 + op_norm(x)) ** 2


@settings(max_examples=40, deadline=None)
@given(DIMS, SEEDS)
def test_sqrt_roundtrip(d, seed):
    a = rand_psd(np.random.default_rng(seed), d)
    r = sqrt_psd(a)
    assert np.linalg.norm(r.entries @ r.entries - a.entries) <= 1e-9 * (1 + op_norm(a))


@settings(max_examples=40, deadline=None)
@given(DIMS, SEEDS)
def test_pinv_sqrt_inverts_full_rank(d, seed):
    rng = np.random.default_rng(seed)
    a = rand_psd(rng, d) + 0.1 * identity(d)
    r = pinv_sqrt(a)
    assert np.linalg.norm(r.entries @ a.entries @ r.entries - np.eye(d)) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(DIMS, SEEDS)
def test_transpose_involution_preserves_spectrum(d, seed):
    x = rand_herm(np.random.default_rng(seed), d)
    t = transpose_in_basis(x)
    assert np.allclose(transpose_in_basis(t).entries, x.entries)
    assert np.allclose(eig(t).eigenvalues, eig(x).eigenvalues, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), SEEDS)
def test_hvec_is_isometric(d, seed):
    rng = np.random.default_rng(seed)
    x, y = rand_herm(rng, d), rand_herm(rng, d)
    assert hvec(x) @ hvec(y) == pytest.approx(trace_pair(x, y), abs=1e-10)
    assert np.allclose(hunvec_matrix(hvec(x), d).entries, x.entries)
    # stacks along leading axes map entry by entry
    stack = np.stack([[x.entries, y.entries], [y.entries, x.entries]])
    vecs = hvec(stack)
    assert vecs.shape == (2, 2, d * d)
    assert np.array_equal(vecs[0, 0], hvec(x)) and np.array_equal(vecs[1, 0], hvec(y))
    hx, hy = hunvec(hvec(x), d), hunvec(hvec(y), d)
    assert np.array_equal(hunvec(vecs, d), np.array([[hx, hy], [hy, hx]]))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_partial_trace_adjointness(dims):
    rng = np.random.default_rng(99)
    dk, dh = dims
    for _ in range(100):
        a = rand_herm(rng, dh)
        x = rand_herm(rng, dk * dh, dims=dims)
        lhs = trace_pair(tensor(identity(dk), a), x)
        rhs = trace_pair(a, partial_trace(x, 0))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_arithmetic_keeps_dims():
    x = identity((2, 2))
    y = x + x * 0.5 - x / 2
    assert y.subsystem_dims == (2, 2)
    assert isinstance(-y, HermitianMatrix)


def scatter_hunvec(v, d):
    """hunvec as a zero-filled matrix with the diagonal, the scaled upper
    triangle and its conjugate written in: the reference for the gather."""
    iu, ju = np.triu_indices(d, k=1)
    m = iu.shape[0]
    x = np.zeros(v.shape[:-1] + (d * d,), dtype=complex)
    x[..., (d + 1) * np.arange(d)] = v[..., :d]
    off = (v[..., d : d + m] + 1j * v[..., d + m :]) / math.sqrt(2.0)
    x[..., iu * d + ju] = off
    x[..., ju * d + iu] = off.conj()
    return x.reshape(v.shape[:-1] + (d, d))


def test_hunvec_gather_is_bitwise_the_scatter():
    # d = 1 has no off-diagonal entries; (3,) and (2, 3) give 3-d and 4-d stacks
    rng = np.random.default_rng(101)
    for d in range(1, 10):
        for lead in ((), (3,), (2, 3)):
            for _ in range(20):
                shape = lead + (d * d,)
                v = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)
                assert np.array_equal(hunvec(v, d), scatter_hunvec(v, d))
