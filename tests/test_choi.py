"""Choi correspondence tests: direct-summation oracles for small maps, then
round-trip properties against raw Kraus application."""

import math

import numpy as np
import pytest

from conftest import rand_herm, rand_kraus_channel, rand_unitary
from gnorm.choi import (
    ChoiMatrix,
    KrausMap,
    apply_choi,
    apply_choi_tensor_id,
    choi_of_kraus,
    is_channel_choi,
    kraus_channel,
    kraus_from_json,
    kraus_to_json,
    max_entangled_projection,
    max_entangled_state,
    max_entangled_vector,
)
from gnorm.errors import ShapeError
from gnorm.hermitian import herm, identity, outer, partial_trace, tensor, trace, transpose_in_basis

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def psi_matrix(d):
    """Direct-summation oracle: Psi = sum_ij |i><j| (x) |i><j|."""
    out = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d))
            e[i, j] = 1.0
            out += np.kron(e, e)
    return out


def test_max_entangled_examples():
    assert np.allclose(max_entangled_vector(1), [1.0])
    assert np.allclose(max_entangled_vector(2), [1.0, 0.0, 0.0, 1.0])
    assert trace(max_entangled_state(3)) == pytest.approx(1.0)
    assert np.allclose(max_entangled_projection(2).entries, psi_matrix(2))


def test_choi_of_identity_map():
    x = choi_of_kraus(KrausMap((np.eye(2),)))
    assert np.allclose(x.matrix.entries, psi_matrix(2))
    assert x.dim_in == 2 and x.dim_out == 2


def test_choi_unitary_covariance():
    rng = np.random.default_rng(3)
    u = rand_unitary(rng, 3)
    x = choi_of_kraus(KrausMap((u,)))
    big_u = np.kron(u, np.eye(3))
    assert np.allclose(x.matrix.entries, big_u @ psi_matrix(3) @ big_u.conj().T)


def test_choi_of_depolarizing_by_direct_summation():
    # Kraus set {|i><j| / sqrt(d)} sends a to Tr(a) I / d.
    d = 2
    ops = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0 / math.sqrt(d)
            ops.append(e)
    oracle = sum(
        np.kron(v, np.eye(d)) @ psi_matrix(d) @ np.kron(v, np.eye(d)).conj().T for v in ops
    )
    x = choi_of_kraus(KrausMap(tuple(ops)))
    assert np.allclose(x.matrix.entries, oracle)
    assert np.allclose(x.matrix.entries, np.eye(4) / 2)


def test_apply_choi_identity_and_depolarizing():
    rng = np.random.default_rng(5)
    a = rand_herm(rng, 2)
    psi = ChoiMatrix(herm(psi_matrix(2), (2, 2)))
    assert np.allclose(apply_choi(psi, a).entries, a.entries)
    depol = ChoiMatrix(identity((2, 2)) / 2)
    assert np.allclose(apply_choi(depol, a).entries, trace(a) * np.eye(2) / 2)


def test_apply_choi_hadamard():
    x = kraus_channel([HADAMARD])
    ket0 = outer([1.0, 0.0])
    expected = HADAMARD @ ket0.entries @ HADAMARD.conj().T  # 2x2 product oracle
    assert np.allclose(apply_choi(x, ket0).entries, expected)


def test_apply_choi_dimension_mismatch():
    x = kraus_channel([np.eye(2)])
    with pytest.raises(ShapeError):
        apply_choi(x, identity(3))


def test_apply_choi_is_the_ancilla_free_contraction_bit_for_bit():
    # apply_choi reads Phi_X(a) off apply_choi_tensor_id with a one-dimensional
    # ancilla; on random channels that equals the direct contraction
    # Tr_H[(I_K (x) a^T) X] bit for bit, and carries no subsystem dims
    rng = np.random.default_rng(14)
    for _ in range(50):
        d_in, d_out = (int(v) for v in rng.integers(1, 5, size=2))
        x = kraus_channel(rand_kraus_channel(rng, d_in, d_out, d_in))
        a = rand_herm(rng, d_in)
        t = x.matrix.entries.reshape(d_out, d_in, d_out, d_in)
        direct = herm(np.einsum("kilj,ji->kl", t, a.entries.T))
        out = apply_choi(x, a)
        assert out.subsystem_dims == ()
        assert np.array_equal(out.entries, direct.entries)
        assert np.array_equal(out.entries, apply_choi_tensor_id(x, 1, a).entries)


def test_apply_choi_tensor_id_identity():
    rng = np.random.default_rng(11)
    sigma = rand_herm(rng, 4, dims=(2, 2))
    psi = ChoiMatrix(herm(psi_matrix(2), (2, 2)))
    out = apply_choi_tensor_id(psi, 2, sigma)
    assert np.allclose(out.entries, sigma.entries)


def test_apply_choi_tensor_id_product():
    rng = np.random.default_rng(12)
    tau = rand_herm(rng, 3)
    rho = rand_herm(rng, 2)
    depol = ChoiMatrix(identity((2, 2)) / 2)
    out = apply_choi_tensor_id(depol, 3, tensor(rho, tau))
    expected = np.kron(trace(rho) * np.eye(2) / 2, tau.entries)
    assert np.allclose(out.entries, expected)


def test_apply_choi_tensor_id_z_on_entangled():
    z_choi = kraus_channel([PAULI_Z])
    phi = max_entangled_state(2)
    out = apply_choi_tensor_id(z_choi, 2, phi)
    zi = np.kron(PAULI_Z, np.eye(2))
    expected = zi @ phi.entries @ zi.conj().T  # explicit 4x4 oracle
    assert np.allclose(out.entries, expected)


def test_apply_choi_tensor_id_matches_kraus_form():
    # (Phi (x) id_L)(sigma) = sum_i (V_i (x) I) sigma (V_i (x) I)^*
    rng = np.random.default_rng(13)
    for d_k, d_h, d_l in ((2, 2, 2), (3, 2, 3), (2, 3, 2), (4, 2, 3)):
        ops = [rng.normal(size=(d_k, d_h)) + 1j * rng.normal(size=(d_k, d_h)) for _ in range(3)]
        sigma = rand_herm(rng, d_h * d_l, dims=(d_h, d_l))
        lifted = [np.kron(v, np.eye(d_l)) for v in ops]
        expected = sum(w @ sigma.entries @ w.conj().T for w in lifted)
        out = apply_choi_tensor_id(choi_of_kraus(KrausMap(tuple(ops))), d_l, sigma)
        assert out.subsystem_dims == (d_k, d_l)
        assert np.max(np.abs(out.entries - expected)) <= 1e-12


def test_kraus_roundtrip_against_direct_application():
    rng = np.random.default_rng(21)
    for _ in range(50):
        d_in = int(rng.integers(1, 4))
        d_out = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        ops = [
            rng.normal(size=(d_out, d_in)) + 1j * rng.normal(size=(d_out, d_in))
            for _ in range(n)
        ]
        m = KrausMap(tuple(ops))
        x = choi_of_kraus(m)
        assert min(np.linalg.eigvalsh(x.matrix.entries)) >= -1e-10
        a = rand_herm(rng, d_in)
        via_choi = apply_choi(x, a)
        direct = m.apply(a)
        assert np.linalg.norm(via_choi.entries - direct.entries) <= 1e-10 * (
            1 + np.linalg.norm(direct.entries)
        )
        marg = partial_trace(x.matrix, 0)
        gram = sum(v.conj().T @ v for v in ops)
        assert np.allclose(marg.entries, gram.T)


def test_trace_preserving_iff_marginal_identity():
    rng = np.random.default_rng(22)
    ops = rand_kraus_channel(rng, 3, 2, 2)
    x = choi_of_kraus(KrausMap(tuple(ops)))
    assert is_channel_choi(x, 1e-9)
    scaled = KrausMap(tuple(0.9 * v for v in ops))
    assert not is_channel_choi(choi_of_kraus(scaled), 1e-9)


def test_kraus_json_roundtrip():
    rng = np.random.default_rng(23)
    ops = rand_kraus_channel(rng, 2, 3, 2)
    m = KrausMap(tuple(ops))
    back = kraus_from_json(kraus_to_json(m))
    for a, b in zip(m.operators, back.operators):
        assert np.allclose(a, b)


@pytest.mark.parametrize(
    "obj",
    [
        [[[[1, 0], [0, 0]], [[0, 0]]]],  # ragged rows
        [[[[1, 0, 5], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]]]],  # not [re, im] pairs
        [[[1, 0], [0, 0]]],  # one matrix, not a list of them
        [[[["1", 0], [0, 0]], [[0, 0], [1, 0]]]],  # a string entry
    ],
)
def test_kraus_json_rejects_malformed_arrays(obj):
    with pytest.raises(ShapeError, match=r"\[re, im\] pairs"):
        kraus_from_json(obj)


def test_transpose_convention_in_apply():
    # Phi_X(a) uses a^T: for the Choi matrix of conjugation by a non-real
    # unitary this is what makes the round trip exact.
    rng = np.random.default_rng(24)
    u = rand_unitary(rng, 2)
    x = kraus_channel([u])
    a = rand_herm(rng, 2)
    assert np.allclose(apply_choi(x, a).entries, u @ a.entries @ u.conj().T)
    xt = transpose_in_basis(x.matrix)
    assert is_channel_choi(xt, 1e-8)
