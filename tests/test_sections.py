"""Section constructors, duality, membership and support restriction."""

import numpy as np
import pytest

from conftest import rand_density, rand_herm, rand_kraus_channel, rand_psd
from gnorm import solver
from gnorm.choi import kraus_channel, max_entangled_projection
from gnorm.errors import EmptySectionError, ShapeError, SolverError, ValidationError
from gnorm.hermitian import (
    herm,
    hunvec_matrix,
    hvec,
    identity,
    matrix_to_json,
    outer,
    partial_trace,
    tensor,
    trace_pair,
    transpose_in_basis,
)
from gnorm.oracles import sample_section
from gnorm.sections import (
    channels_section,
    comb_section,
    contains,
    custom_section,
    dual_section,
    full_slice_section,
    generalized_section,
    id_tensor_section,
    interior_element,
    _kron_columns,
    povm_section,
    section_from_descriptor,
    section_to_descriptor,
    singleton_section,
    states_section,
    transpose_section,
)


def make_custom(rng, d=3, extra=3):
    """Random faithful section: span of a positive-definite member plus a few
    random directions, normalized by a random positive-definite matrix."""
    normalizer = rand_psd(rng, d) + 0.4 * identity(d)
    b0 = rand_psd(rng, d) + 0.4 * identity(d)
    b0 = b0 / trace_pair(b0, normalizer)
    basis = [b0] + [rand_herm(rng, d) for _ in range(extra)]
    return custom_section(basis, normalizer, label="random custom")


def test_span_bases_are_trace_orthonormal():
    rng = np.random.default_rng(100)
    for sec in (
        states_section(3),
        channels_section(2, 2),
        comb_section((2, 2, 2)),
        make_custom(rng),
        dual_section(channels_section(2, 2)),
    ):
        k = sec.span_dim
        for i in range(k):
            for j in range(i, k):
                want = 1.0 if i == j else 0.0
                got = trace_pair(sec.span_basis[i], sec.span_basis[j])
                assert abs(got - want) <= 1e-10


def test_orthonormalization_keeps_span_dims():
    # channels(a, b): the whole space minus the a^2 - 1 marginal constraints
    cases = [(states_section(d), d * d) for d in range(1, 5)]
    cases += [
        (channels_section(a, b), (a * b) ** 2 - a * a + 1)
        for a in range(2, 5) for b in range(2, 5)
    ]
    # the fourth column is a combination of the first two and must be dropped
    e = [herm(np.diag(v)) for v in np.eye(3)]
    sym = herm(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    custom = custom_section(e + [e[0] + 2.0 * e[1], sym], identity(3))
    cases += [
        (comb_section((2, 2, 2, 2)), 205),
        (comb_section((2, 3, 2, 3)), 1185),
        (comb_section((3, 2, 2)), 117),
        (povm_section(channels_section(2, 2), 3), 36),
        (povm_section(states_section(3), 2), 10),
        (id_tensor_section(channels_section(2, 2), 2), 13),
        (id_tensor_section(channels_section(2, 2), 3), 13),
        (dual_section(comb_section((2, 2, 2, 2))), 52),
        (custom, 4),
        (generalized_section(custom, 1), 6),
    ]
    for sec, dim in cases:
        assert sec.span_dim == dim, sec.label
        m = sec.span_matrix()
        assert np.max(np.abs(m.T @ m - np.eye(dim))) <= 1e-12, sec.label
    # Independent membership check of generalized sections: every span
    # element X has Tr_K X in (dual span)^T, and the dimension is that of
    # the whole set {X : Tr_K X in (dual span)^T}.
    for base, dk in (
        (states_section(2), 3),
        (comb_section((2, 2, 2)), 2),
        (channels_section(3, 2), 2),
        (custom, 1),
        (dual_section(channels_section(2, 2)), 2),
    ):
        sec = generalized_section(base, dk)
        dual = dual_section(base).span_matrix()
        h = base.ambient_dim
        assert sec.span_dim == (dk * dk - 1) * h * h + dual.shape[1], sec.label
        for j in sec.span_basis:
            v = hvec(transpose_in_basis(partial_trace(j, 0)))
            assert np.linalg.norm(v - dual @ (dual.T @ v)) <= 1e-12, sec.label


@pytest.mark.parametrize(
    "d_left,n_left,d_right,n_right", [(2, 3, 3, 2), (3, 9, 2, 4), (1, 0, 2, 3)]
)
def test_kron_columns_match_materialized_tensors(d_left, n_left, d_right, n_right):
    rng = np.random.default_rng(d_left + 10 * n_left)
    left = rng.normal(size=(d_left**2, n_left))
    right = rng.normal(size=(d_right**2, n_right))
    got = _kron_columns(left, d_left, right, d_right)
    want = np.zeros(((d_left * d_right) ** 2, n_left * n_right))
    for i in range(n_left):
        for j in range(n_right):
            want[:, i * n_right + j] = hvec(
                tensor(hunvec_matrix(left[:, i], d_left), hunvec_matrix(right[:, j], d_right))
            )
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-14
    # orthonormal inputs give orthonormal products, with no factorization
    ql, qr = np.linalg.qr(left)[0], np.linalg.qr(right)[0]
    m = _kron_columns(ql, d_left, qr, d_right)
    assert np.max(np.abs(m.T @ m - np.eye(m.shape[1])), initial=0.0) <= 1e-12


def test_span_columns_are_the_only_stored_span():
    restricted = singleton_section(outer([1.0, 0.0]))
    for sec in (
        states_section(2),
        channels_section(2, 2),
        comb_section((2, 2, 2, 2)),
        restricted,
    ):
        m = sec.span_matrix()
        assert m.shape[1] == sec.span_dim == len(sec.span_basis)
        for col, j in zip(m.T, sec.span_basis):
            want = hunvec_matrix(col, sec.ambient_dim, sec.subsystem_dims)
            assert j.subsystem_dims == sec.subsystem_dims
            assert np.array_equal(j.entries, want.entries)
    assert restricted.restricted and restricted.original_dim == 2
    assert restricted.ambient_dim == 1
    assert not states_section(2).restricted and states_section(2).original_dim is None
    # a comb section reads its stored columns: no rebuild, no cached copy
    comb = comb_section((2, 2, 2, 2))
    assert comb.span_matrix() is comb.span_matrix() is comb.span_columns
    assert "span_matrix" not in comb._cache
    # the column-form transpose agrees with transposing each basis matrix
    ch = channels_section(2, 2)
    for j, jt in zip(ch.span_basis, transpose_section(ch).span_basis):
        assert np.max(np.abs(transpose_in_basis(j).entries - jt.entries)) <= 1e-15


def test_states_section_shape():
    s = states_section(2)
    assert s.span_dim == 4
    assert np.allclose(s.normalizer.entries, np.eye(2))
    rho = rand_density(np.random.default_rng(0), 2)
    assert contains(s, rho)
    assert not contains(s, identity(2))  # trace 2


def test_singleton_normalizer_solves_pairing():
    s = singleton_section(identity(2) / 2)
    # Tr((I/2) c I) = 1 forces c = 1
    assert np.allclose(s.normalizer.entries, np.eye(2))
    assert contains(s, identity(2) / 2)
    assert not contains(s, identity(2))


def test_singleton_rank_deficient_restricts():
    s = singleton_section(outer([1.0, 0.0]))
    assert s.restricted
    assert s.ambient_dim == 1
    assert contains(s, outer([1.0, 0.0]))
    assert not contains(s, outer([0.0, 1.0]))


def test_singleton_rejects_non_psd():
    with pytest.raises(ValidationError):
        singleton_section(herm(np.diag([1.0, -1.0])))


def test_full_slice_section_shape_and_dual():
    rng = np.random.default_rng(55)
    b = rand_psd(rng, 2) + 0.3 * identity(2)
    sec = full_slice_section(b)
    assert sec.span_dim == 4
    member = b / trace_pair(b, b)
    assert contains(sec, member)
    # the dual collapses to the one-element section {b}
    d = dual_section(sec)
    assert d.span_dim == 1
    assert contains(d, b)
    assert not contains(d, 2.0 * b)
    # states is the b = I special case
    s = full_slice_section(identity(3))
    assert contains(s, rand_density(rng, 3))


def test_full_slice_section_rejects_singular():
    with pytest.raises(ValidationError):
        full_slice_section(herm(np.diag([1.0, 0.0])))


def test_channels_section_membership():
    c = channels_section(2, 2)
    assert c.span_dim == 13
    psi = max_entangled_projection(2)
    assert contains(c, psi)
    assert contains(c, identity((2, 2)) / 2)
    rho = rand_density(np.random.default_rng(1), 2)
    assert not contains(c, tensor(rho, rho))
    # normalizer I/dim_in
    assert np.allclose(c.normalizer.entries, np.eye(4) / 2)


def test_channels_section_random_chois_are_members():
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = kraus_channel(rand_kraus_channel(rng, 2, 2, 2))
        assert contains(channels_section(2, 2), x.matrix)


def test_dual_of_states_is_identity_singleton():
    d = dual_section(states_section(3))
    assert d.span_dim == 1
    assert contains(d, identity(3))
    assert not contains(d, identity(3) / 3)


def test_dual_of_channels_is_identity_tensor_states():
    dc = dual_section(channels_section(2, 2))
    rng = np.random.default_rng(3)
    for _ in range(5):
        rho = rand_density(rng, 2)
        assert contains(dc, tensor(identity(2), rho))
    assert not contains(dc, tensor(rand_density(rng, 2), rand_density(rng, 2)))


def test_duality_pairing_on_samples():
    rng = np.random.default_rng(4)
    sections = [
        states_section(2),
        channels_section(2, 2),
        make_custom(rng),
    ]
    for sec in sections:
        members = sample_section(sec, 8, seed=11).points
        duals = sample_section(dual_section(sec), 8, seed=12).points
        for b in members:
            for y in duals:
                assert trace_pair(b, y) == pytest.approx(1.0, abs=1e-8)


def test_dual_involution_membership_equivalence():
    rng = np.random.default_rng(5)
    for trial in range(20):
        sec = make_custom(rng, d=3, extra=int(rng.integers(1, 5)))
        double = dual_section(dual_section(sec))
        for p in sample_section(sec, 3, seed=trial).points:
            assert contains(double, p, 1e-7)
        for p in sample_section(double, 3, seed=trial + 1000).points:
            assert contains(sec, p, 1e-7)


def test_generalized_with_trivial_output_is_transposed_dual():
    rng = np.random.default_rng(6)
    sec = make_custom(rng)
    g = generalized_section(sec, 1)
    dual_t = transpose_section(dual_section(sec))
    for p in sample_section(g, 6, seed=1).points:
        assert contains(dual_t, p, 1e-7)
    for p in sample_section(dual_t, 6, seed=2).points:
        assert contains(g, p, 1e-7)


def test_generalized_of_states_is_channels():
    g = generalized_section(states_section(2), 2)
    c = channels_section(2, 2)
    for p in sample_section(g, 6, seed=3).points:
        assert contains(c, p, 1e-7)
    for p in sample_section(c, 6, seed=4).points:
        assert contains(g, p, 1e-7)


def test_comb_base_case_is_channels():
    cb = comb_section((2, 2))
    c = channels_section(2, 2)
    assert cb.span_dim == c.span_dim
    assert contains(cb, max_entangled_projection(2))


def test_comb_memoryless_member_and_recursion():
    comb = comb_section((2, 2, 2, 2))
    psi = max_entangled_projection(2)
    x1 = herm(psi.entries, (2, 2))
    x2 = herm(psi.entries, (2, 2))
    member = tensor(x2, x1)
    assert contains(comb, member, 1e-8)
    # Flattened recursion: tracing the last output leaves I (x) (previous comb)
    marg = partial_trace(member.with_dims((2, 2, 2, 2)), 0)
    assert np.allclose(marg.entries, np.kron(np.eye(2), x1.entries))
    inner = comb_section((2, 2))
    y = partial_trace(marg.with_dims((2, 2, 2)), 0) / 2.0
    assert contains(inner, herm(y.entries, (2, 2)))


def test_comb_dual_is_identity_tensor_previous():
    comb = comb_section((2, 2, 2, 2))
    dual = dual_section(comb)
    inner = comb_section((2, 2, 2))
    rng = np.random.default_rng(7)
    for p in sample_section(inner, 5, seed=8).points:
        assert contains(dual, tensor(identity(2), p), 1e-7)
    for p in sample_section(dual, 5, seed=9).points:
        marg = partial_trace(p.with_dims((2, 2, 2, 2)), 0) / 2.0
        assert contains(inner, herm(marg.entries, (2, 2, 2)), 1e-6)


def test_povm_section_over_states_is_binary_povms():
    ps = povm_section(states_section(2), 2)
    m0 = herm(np.diag([0.7, 0.2]))
    m1 = identity(2) - m0
    block = tensor(herm(np.diag([1.0, 0.0])), transpose_in_basis(m0)) + tensor(
        herm(np.diag([0.0, 1.0])), transpose_in_basis(m1)
    )
    assert contains(ps, block)
    uniform = tensor(identity(2), identity(2) / 2)
    assert contains(ps, uniform)
    # non-block-diagonal matrices are excluded
    rng = np.random.default_rng(8)
    assert not contains(ps, herm(rand_herm(rng, 4).entries, (2, 2)))


def test_povm_section_over_channels_is_testers():
    ps = povm_section(channels_section(2, 2), 2)
    rng = np.random.default_rng(9)
    sigma = rand_density(rng, 2)
    half = tensor(identity(2), sigma) / 2.0
    block = tensor(herm(np.diag([1.0, 0.0])), transpose_in_basis(half)) + tensor(
        herm(np.diag([0.0, 1.0])), transpose_in_basis(half)
    )
    assert contains(ps, block)
    for p in sample_section(ps, 6, seed=10).points:
        blocks = p.with_dims((2, 4))
        total = sum(
            transpose_in_basis(herm(p.entries[4 * d : 4 * (d + 1), 4 * d : 4 * (d + 1)], (2, 2)))
            for d in range(2)
        )
        # effects sum to I (x) sigma for a state sigma
        marg = partial_trace(total, 0)
        assert np.allclose(total.entries, np.kron(np.eye(2), marg.entries / 2.0), atol=1e-7)
        assert np.trace(marg.entries).real / 2.0 == pytest.approx(1.0, abs=1e-7)


def test_interior_element_of_states_is_maximally_mixed():
    b = interior_element(states_section(2))
    assert np.allclose(b.entries, np.eye(2) / 2, atol=1e-6)


def test_interior_element_positive_definite_on_customs():
    rng = np.random.default_rng(10)
    sec = make_custom(rng)
    b = interior_element(sec)
    assert contains(sec, b, 1e-6)
    assert np.linalg.eigvalsh(b.entries)[0] > 0


def test_interior_element_is_scaled_identity_when_span_holds_it():
    # lambda_min(X) <= Tr(X n) / Tr n = 1 / Tr n on the slice, with equality
    # only at I / Tr n: the closed form whenever I is in the span
    rng = np.random.default_rng(11)
    for d in range(2, 6):
        normalizer = rand_psd(rng, d) + 0.1 * identity(d)
        sec = custom_section([identity(d)] + [rand_herm(rng, d) for _ in range(d)], normalizer)
        b = interior_element(sec)
        expected = np.eye(d) / np.trace(normalizer.entries).real
        assert np.max(np.abs(b.entries - expected)) <= 1e-6


def test_interior_point_comes_only_from_a_converged_solve(monkeypatch):
    # a section is judged empty, restricted or faithful by its interior
    # point, so a solve stopped at its iteration cap builds no section
    rng = np.random.default_rng(12)
    basis = [rand_psd(rng, 3) for _ in range(5)]
    real_solve = solver.solve
    monkeypatch.setattr(
        solver, "solve", lambda program, tol, max_iter=3: real_solve(program, tol, max_iter=3)
    )
    with pytest.raises(SolverError, match="interior point"):
        custom_section(basis, identity(3))
    monkeypatch.undo()
    assert not custom_section(basis, identity(3)).restricted


def test_custom_auto_restriction():
    # Span touches only the upper-left 2x2 block: every member is supported
    # there, so the section compresses and flags itself.
    e = np.zeros((3, 3))
    e[0, 0] = 1.0
    f = np.zeros((3, 3))
    f[1, 1] = 1.0
    sec = custom_section([herm(e), herm(f)], identity(3))
    assert sec.restricted
    assert sec.ambient_dim == 2
    assert contains(sec, herm(np.diag([0.5, 0.5, 0.0])))
    assert not contains(sec, herm(np.diag([0.0, 0.0, 1.0])))


def test_custom_section_rejects_mismatched_dimensions():
    with pytest.raises(ShapeError, match="basis matrices differ"):
        custom_section([identity(2), identity(3)], identity(2))
    with pytest.raises(ShapeError, match="normalizer has dimension 3"):
        custom_section([identity(2)], identity(3))


def test_empty_section_raises():
    with pytest.raises(EmptySectionError):
        custom_section([herm(np.diag([1.0, -1.0]))], herm(np.diag([1.0, 0.0])))
    # every span element pairs to zero with the normalizer: an empty slice,
    # not an unbounded one
    with pytest.raises(EmptySectionError):
        custom_section([herm(np.diag([0.0, 1.0]))], herm(np.diag([1.0, 0.0])))


def test_unbounded_slice_rejected():
    # diag(1, t) satisfies the affine data for every t >= 0: not a section
    with pytest.raises(ValidationError):
        custom_section(
            [herm(np.diag([1.0, 0.0])), herm(np.diag([0.0, 1.0]))],
            herm(np.diag([1.0, 0.0])),
        )


def test_compact_slice_with_singular_normalizer_accepted():
    # span {I} with normalizer diag(1, 0): the slice is just {I}, compact
    sec = custom_section([identity(2)], herm(np.diag([1.0, 0.0])))
    assert contains(sec, identity(2))
    assert not contains(sec, identity(2) / 2)


def test_descriptor_roundtrip():
    rng = np.random.default_rng(11)
    for sec in (
        states_section(2),
        singleton_section(rand_psd(rng, 2) + 0.2 * identity(2)),
        full_slice_section(rand_psd(rng, 2) + 0.2 * identity(2)),
        channels_section(2, 2),
        comb_section((2, 2, 2)),
        make_custom(rng),
    ):
        desc = section_to_descriptor(sec)
        back = section_from_descriptor(desc)
        for p in sample_section(sec, 4, seed=13).points:
            assert contains(back, p, 1e-7)


def test_descriptor_is_a_copy():
    desc = section_to_descriptor(channels_section(2, 2))
    desc["dims"] = [3, 3]
    assert channels_section(2, 2).descriptor == {"kind": "channels", "dims": [2, 2]}
    gen = generalized_section(states_section(2), 2)
    section_to_descriptor(gen)["base"]["dims"].append(5)
    assert section_to_descriptor(gen)["base"] == {"kind": "states", "dims": [2]}
    # the full slice records its matrix when it is built
    b = herm(np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert full_slice_section(b).descriptor == {"kind": "singleton", "matrix": matrix_to_json(b)}


def test_povm_descriptor_roundtrip():
    ps = povm_section(states_section(2), 3)
    back = section_from_descriptor(section_to_descriptor(ps))
    for p in sample_section(ps, 4, seed=14).points:
        assert contains(back, p, 1e-7)


def test_generalized_descriptor_roundtrip():
    gen = generalized_section(states_section(2), 2)
    desc = section_to_descriptor(gen)
    assert desc == {"kind": "generalized", "dims": [2], "base": {"kind": "states", "dims": [2]}}
    back = section_from_descriptor(desc)
    assert back.span_dim == gen.span_dim
    for p in sample_section(gen, 4, seed=15).points:
        assert contains(back, p, 1e-7)
