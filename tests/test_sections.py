"""Section constructors, duality, membership and support restriction."""

import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from conftest import rand_density, rand_herm, rand_kraus_channel, rand_psd
from gnorm import solver
from gnorm.choi import kraus_channel, max_entangled_projection
from gnorm.errors import EmptySectionError, ShapeError, SolverError, ValidationError
from gnorm.hermitian import (
    _complement_columns,
    _transpose_columns,
    herm,
    hunvec_matrix,
    hvec,
    identity,
    matrix_to_json,
    outer,
    partial_trace,
    psd_check,
    tensor,
    trace_pair,
    transpose_in_basis,
)
from gnorm.norms import base_norm
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
        k, basis = sec.span_dim, sec.span_basis
        for i in range(k):
            for j in range(i, k):
                want = 1.0 if i == j else 0.0
                got = trace_pair(basis[i], basis[j])
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
    # the full slice passes the rules every section passes
    with pytest.raises(ValidationError, match="unbounded"):
        full_slice_section(herm(np.diag([1.0, 0.0])))
    with pytest.raises(EmptySectionError):
        full_slice_section(herm(np.zeros((2, 2))))


def test_full_slice_through_a_small_positive_definite_matrix():
    # no absolute floor on b: the slice through 1e-9 I is bounded
    sec = full_slice_section(identity(2) * 1e-9)
    res = base_norm(sec, herm(np.diag([1.0, -1.0])))
    assert res.method == "closed_form"
    assert abs(res.value - 2e-9) <= 1e-12 * 2e-9


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


@pytest.mark.parametrize("build", [
    lambda: comb_section.__wrapped__((2, 3, 2)),
    lambda: povm_section(states_section(3), 2),
], ids=["comb(2,3,2)", "povm(states(3),2)"])
def test_structured_span_is_built_on_its_first_read(build):
    sec = build()
    d2 = sec.ambient_dim ** 2
    built = lambda: isinstance(sec._cache["span"], np.ndarray)  # noqa: E731
    assert not built() and 0 < sec.span_dim < d2
    # wrong-size span coordinates are refused before the span is read
    with pytest.raises(ShapeError):
        sec.span_coords(identity(sec.ambient_dim + 1))
    with pytest.raises(ShapeError):
        sec.from_span_coords(np.zeros(sec.span_dim + 1))
    # the dual reads only the complement, and so does a thin base norm
    dual_section(sec)
    assert not built()
    copy = pickle.loads(pickle.dumps(sec))  # keeps the recipe
    x = rand_herm(np.random.default_rng(67), sec.ambient_dim, dims=sec.dims)
    assert base_norm(sec, x, tol=1e-8).status == "optimal"
    assert built() == (2 * sec.span_dim <= d2)
    m = sec.span_matrix()
    assert built() and m is sec.span_columns and not m.flags.writeable
    assert m.shape == (d2, sec.span_dim)
    assert np.max(np.abs(m.T @ m - np.eye(sec.span_dim))) <= 1e-12
    assert not isinstance(copy._cache["span"], np.ndarray)
    assert copy.span_matrix().tobytes() == m.tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_id_tensor_complement_is_built_on_its_first_read(d):
    # the span I_d/sqrt(d) (x) M is never the thin side: it is written at
    # construction, and the complement stays a recipe through a base norm
    base = channels_section.__wrapped__(2, 2)
    sec = id_tensor_section(base, d)
    assert id_tensor_section(base, d) is sec and base._cache[("id", d)] is sec
    d2 = sec.ambient_dim ** 2
    built = lambda: isinstance(sec._cache["complement"], np.ndarray)  # noqa: E731
    assert isinstance(sec._cache["span"], np.ndarray) and 2 * sec.span_dim <= d2
    copy = pickle.loads(pickle.dumps(sec))  # keeps the recipe
    x = rand_herm(np.random.default_rng(68), sec.ambient_dim, dims=sec.dims)
    assert base_norm(sec, x, tol=1e-8).status == "optimal"
    assert not built()
    n = sec.complement_matrix()
    assert built() and not n.flags.writeable
    assert n.shape == (d2, d2 - sec.span_dim)
    m = sec.span_matrix()
    assert np.max(np.abs(n.T @ n - np.eye(n.shape[1]))) <= 1e-12
    assert np.max(np.abs(m.T @ n)) <= 1e-12
    assert not isinstance(copy._cache["complement"], np.ndarray)
    assert copy.complement_matrix().tobytes() == n.tobytes()


def test_membership_reads_the_complement_of_an_unbuilt_span():
    sec = comb_section.__wrapped__((2, 3, 2, 3))  # uncached: its span is a recipe
    n, b0, d, tol = sec.complement_matrix(), sec.interior_point, sec.ambient_dim, 1e-8
    rng = np.random.default_rng(95)
    off = n @ rng.normal(size=n.shape[1])
    v = rng.normal(size=d * d)
    v -= n @ (n.T @ v)  # in the span
    along = v - (v @ hvec(sec.normalizer)) * hvec(b0)  # in the span, pairing to zero
    off, along = off / np.linalg.norm(off), along / np.linalg.norm(along)
    shifts = [0.0 * off, 1e-3 * off, 1e-12 * off, 1e-3 * along, 1e3 * along]
    points = [b0 + hunvec_matrix(shift, d) for shift in shifts]
    points.append(b0 * 1.5)
    verdicts = [contains(sec, x, tol) for x in points]
    assert not isinstance(sec._cache["span"], np.ndarray)
    m = sec.span_matrix()

    def span_side(x):  # the rule through the built span
        w = hvec(x)
        err = max(float(np.linalg.norm(w - m @ (m.T @ w))), abs(trace_pair(x, sec.normalizer) - 1))
        return err <= tol * (1.0 + np.linalg.norm(x.entries)) and psd_check(x, tol)

    assert verdicts == [span_side(x) for x in points] == [True, False, True, True, False, False]
    assert [contains(sec, x, tol) for x in points] == verdicts


def test_membership_depends_on_the_section_not_its_cache():
    # a channel's Choi matrix, perturbed by 1e-9 off the span and pairing to zero with the
    # normalizer, so that its weight off the span alone decides membership
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3)))[0]
    choi = kraus_channel([q[0:3], q[3:6], q[6:9]]).matrix
    ref = channels_section.__wrapped__(3, 3)  # uncached: the span is a recipe
    a = rng.normal(size=(9, 9))
    e = herm((a + a.T) / 2)
    e = (e - ref.normalizer * (trace_pair(e, ref.normalizer) / trace_pair(ref.normalizer,
                                                                           ref.normalizer)))
    x = herm(choi.entries + 1e-9 * e.entries, choi.subsystem_dims)
    assert abs(trace_pair(x, ref.normalizer) - 1.0) <= 1e-15
    # the weight read through N and through M differ in the last digits
    v, n, m = hvec(x), ref.complement_matrix(), ref.span_matrix()
    through_n = float(np.linalg.norm(n.T @ v))
    through_m = float(np.linalg.norm(v - m @ (m.T @ v)))
    assert through_n != through_m and abs(through_n - 2.3e-9) <= 1e-10
    tol = 0.5 * (through_n + through_m) / (1.0 + np.linalg.norm(x.entries))
    sec = channels_section.__wrapped__(3, 3)
    before = sec.slice_point(x, tol) is not None
    assert not isinstance(sec._cache["span"], np.ndarray)
    sec.span_matrix()
    assert (sec.slice_point(x, tol) is not None) == before
    assert contains(sec, x, tol) == before


def test_transposed_view_reads_nothing_of_its_parent_until_asked():
    parent = comb_section.__wrapped__((2, 2, 2, 2))  # uncached: the span is a recipe
    view = transpose_section(parent)
    assert not isinstance(parent._cache["span"], np.ndarray)
    assert not any(isinstance(view._cache[key], np.ndarray) for key in ("span", "complement"))
    d = parent.ambient_dim
    n = view.complement_matrix()
    assert not isinstance(parent._cache["span"], np.ndarray)
    m = view.span_matrix()
    assert not m.flags.writeable and not n.flags.writeable
    assert m.tobytes() == _transpose_columns(parent.span_matrix(), d).tobytes()
    assert n.tobytes() == _transpose_columns(parent.complement_matrix(), d).tobytes()


def thin_custom():
    """A custom section on C^3 whose span (6 of 9 dimensions) is larger than its complement."""
    x01 = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0] * 3]
    x12 = [[0.0] * 3, [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    y01 = [[0.0, -1j, 0.0], [1j, 0.0, 0.0], [0.0] * 3]
    basis = [np.eye(3), np.diag([1.0, -1.0, 0.0]), np.diag([0.0, 1.0, -1.0]), x01, x12, y01]
    return custom_section([herm(m) for m in basis], identity(3))


@pytest.mark.parametrize(
    "build",
    [
        lambda: channels_section(3, 3),
        lambda: comb_section((2, 2, 2, 2)),
        lambda: custom_section(
            [herm(np.diag([1.0, 0.0, 0.0])), herm(np.diag([0.0, 1.0, 0.0])),
             herm(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))],
            identity(3),
        ),
        lambda: states_section(3),
        lambda: dual_section(channels_section(2, 2)),
        lambda: custom_section([identity(2)], herm(np.diag([1.0, 0.0]))),
        lambda: comb_section((2,) * 5),
        lambda: singleton_section(herm([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])),
        lambda: singleton_section(herm(np.diag([2.0, 1.0, 0.0]))),
        lambda: thin_custom(),
        lambda: custom_section([hunvec_matrix(col, 2) for col in np.eye(4)], identity(2)),
    ],
    ids=[
        "channels(3,3)", "comb(2,2,2,2)", "restricted", "states(3)",
        "dual(channels(2,2))", "singular normalizer", "comb((2,)*5)",
        "singleton", "rank-deficient singleton", "thin custom", "full custom",
    ],
)
def test_complement_and_dual_span_are_exact(build):
    sec = build()
    m = sec.span_matrix()
    n = sec.complement_matrix()
    d2, k = m.shape
    # [M | N] is orthogonal; N is a copy, not a view keeping the Q factor alive,
    # built once and kept read-only
    assert n.shape == (d2, d2 - k)
    assert n.base is None
    assert not n.flags.writeable
    assert sec.complement_matrix() is n
    q = np.hstack([m, n])
    assert np.max(np.abs(q.T @ q - np.eye(d2))) <= 1e-12
    # the dual span is orthonormal and equals span{M M^T n} (+) M-perp
    dual = dual_section(sec).span_matrix()
    assert np.max(np.abs(dual.T @ dual - np.eye(dual.shape[1]))) <= 1e-12
    pn = m @ (m.T @ hvec(sec.normalizer))
    want = np.eye(d2) - m @ m.T + np.outer(pn, pn) / (pn @ pn)
    assert np.max(np.abs(dual @ dual.T - want)) <= 1e-12


def test_custom_complement_is_reproducible():
    first, second = thin_custom(), thin_custom()
    assert 2 * first.span_dim > first.ambient_dim**2
    assert first.complement_matrix().tobytes() == second.complement_matrix().tobytes()


CLOSED_FORMS = {
    "channels(3,3)": lambda: channels_section.__wrapped__(3, 3),
    "comb(2,3,2,3)": lambda: comb_section.__wrapped__((2, 3, 2, 3)),
    "comb(3,3,3)": lambda: comb_section.__wrapped__((3, 3, 3)),
    "povm(states(3),4)": lambda: povm_section(states_section(3), 4),
    "povm(channels(2,2),3)": lambda: povm_section(channels_section(2, 2), 3),
    "id(2)(x)comb(2,2,2,2)": lambda: id_tensor_section(comb_section((2, 2, 2, 2)), 2),
    "transpose(comb(2,2,2,2))": lambda: transpose_section(comb_section((2, 2, 2, 2))),
    "dual(comb(2,2,2,2))": lambda: dual_section(comb_section((2, 2, 2, 2))),
}


@pytest.mark.parametrize("name", list(CLOSED_FORMS))
def test_structured_complements_are_closed_forms(monkeypatch, name):
    def refused(m):  # a structured build, a full slice's included, factors no span
        raise AssertionError(f"complement of a {m.shape} span factored")

    monkeypatch.setattr("gnorm.sections._complement_columns", refused)
    sec = CLOSED_FORMS[name]()
    m, n = sec.span_matrix(), sec.complement_matrix()
    d2, k = m.shape
    assert n.shape == (d2, d2 - k)
    assert np.max(np.abs(n.T @ n - np.eye(d2 - k))) <= 1e-12
    assert np.max(np.abs(m.T @ n)) <= 1e-12
    # the same range as the complete QR factor's
    s = _complement_columns(m)
    assert np.max(np.abs(n @ n.T - s @ s.T)) <= 1e-12


def assert_numpy_random_unloaded(body):
    """Run ``body`` in a fresh process and require that it never imports numpy.random
    (numpy releases that import it themselves refuse every draw from it instead)."""
    script = (
        "import sys\n"
        "import numpy\n"
        "loaded = 'numpy.random' in sys.modules\n"
        "if loaded:\n"
        "    def refused(*args, **kwargs):\n"
        "        raise AssertionError('numpy.random drawn from')\n"
        "    numpy.random.default_rng = refused\n"
        "import gnorm\n"
        + body
        + "assert loaded or 'numpy.random' not in sys.modules\n"
        "print('unloaded' if not loaded else 'undrawn')\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() in ("unloaded", "undrawn")


def test_structured_paths_leave_numpy_random_unloaded():
    """Structured sections, their duals and their programs draw nothing."""
    assert_numpy_random_unloaded(
        "from gnorm.norms import majorant_program\n"
        "from gnorm.sections import (channels_section, comb_section, dual_section,\n"
        "                            id_tensor_section, povm_section, states_section)\n"
        "for sec in (channels_section(2, 2), comb_section((2, 3, 2, 3)),\n"
        "            povm_section(states_section(3), 4),\n"
        "            id_tensor_section(channels_section(2, 2), 2)):\n"
        "    for s in (sec, dual_section(sec)):\n"
        "        majorant_program(s, 2)\n"
    )


def test_custom_paths_leave_numpy_random_unloaded():
    """A thin custom section, a restricted custom section and a rank-deficient
    singleton, their duals and their programs factor their complements exactly."""
    assert_numpy_random_unloaded(
        "from gnorm.hermitian import herm, identity\n"
        "from gnorm.norms import majorant_program\n"
        "from gnorm.sections import custom_section, dual_section, singleton_section\n"
        "x = herm([[0.0, 1.0], [1.0, 0.0]])\n"
        "thin = custom_section([identity(2), herm(numpy.diag([1.0, -1.0])), x], identity(2))\n"
        "restricted = custom_section([herm(numpy.diag([1.0, 0.0, 0.0])),\n"
        "                             herm(numpy.diag([0.0, 1.0, 0.0])),\n"
        "                             herm([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0] * 3])],\n"
        "                            identity(3))\n"
        "single = singleton_section(herm(numpy.diag([2.0, 1.0, 0.0])))\n"
        "assert restricted.restricted and single.restricted and thin.span_dim == 3\n"
        "for sec in (thin, restricted, single):\n"
        "    for s in (sec, dual_section(sec)):\n"
        "        s.complement_matrix()\n"
        "        majorant_program(s, 2)\n"
    )


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


def cplx(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def bounded_case(seed):
    """A rank-one normalizer g g* and three random PSD spanning matrices on C^2:
    the span holds no PSD matrix annihilated by the normalizer."""
    rng = np.random.default_rng(seed)
    g = cplx(rng, 2, 1)
    n = herm(g @ g.conj().T)
    hs = [cplx(rng, 2, 2) for _ in range(3)]
    return [herm(h @ h.conj().T) for h in hs], n


def unbounded_case(seed):
    """A rank-one normalizer on C^3 with the projector onto one of its kernel
    vectors in the span: a PSD recession direction."""
    rng = np.random.default_rng(seed)
    g = cplx(rng, 3, 1)
    n = g @ g.conj().T
    v = np.linalg.eigh(n)[1][:, :1]
    return [herm(v @ v.conj().T)] + [herm(cplx(rng, 3, 3)) for _ in range(3)], herm(n)


def restricted_case(seed):
    """Two hermitian and one PSD spanning matrix supported on a random plane in
    C^4, and a positive-definite diagonal normalizer: no member is positive
    definite, so the section restricts to the plane."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(cplx(rng, 4, 4))[0][:, :2]
    hs = [cplx(rng, 2, 2) for _ in range(2)]
    mats = [herm(u @ (h + h.conj().T) @ u.conj().T) for h in hs]
    g = cplx(rng, 2, 2)
    mats.append(herm(u @ g @ g.conj().T @ u.conj().T))
    return mats, herm(np.diag(rng.uniform(0.5, 2.0, size=4)))


@pytest.mark.parametrize("seed", range(20))
def test_restriction_keeps_the_best_member_of_one_solve(monkeypatch, seed):
    # the interior point of the restricted carrier is the solved best member,
    # compressed onto its support: the build makes one solve
    calls = []
    real_solve = solver.solve
    monkeypatch.setattr(solver, "solve", lambda *a, **kw: calls.append(1) or real_solve(*a, **kw))
    sec = custom_section(*restricted_case(seed))
    assert len(calls) == 1
    assert sec.restricted and sec.ambient_dim == 2 and sec.span_dim == 3
    w = np.linalg.eigvalsh(sec.interior_point.entries)
    assert contains(sec, sec.lift(sec.interior_point))
    assert w[0] / w[-1] > 0.1


@pytest.mark.parametrize(
    "weights, x, value", [((1, 1, 0), (0, 0, 1), 1.0), ((1, 1, 1), (1, 0, 0), 2.0)]
)
def test_restriction_keeps_only_the_span_on_the_support(weights, x, value):
    # the one member is diag(1, 0, 1), up to scale; s has weight off its support, so the
    # restricted span is span{diag(1, 0, 1)}, not the compressions of both matrices (which
    # hold diag(1, 0, 0) and, for n = diag(1, 1, 0), an unbounded slice)
    s = herm(np.array([[0, 0, 0], [0, 0, 0.5], [0, 0.5, 1.0]]))
    b = herm(np.diag([1.0, 0.0, 1.0]))
    n = herm(np.diag(np.array(weights, dtype=float)))
    sec = custom_section([b, s], n)
    assert sec.restricted and sec.ambient_dim == 2 and sec.span_dim == 1
    assert contains(sec, b / trace_pair(b, n))
    assert not contains(sec, herm(np.diag([1.0, 0.0, 0.0])))
    # the support comes from a solve at tolerance 1e-8, so the closed form is that close
    xm = herm(np.diag(np.array(x, dtype=float)))
    assert abs(base_norm(sec, xm).value - value) <= 1e-7 * value
    assert abs(base_norm(sec, xm, prefer_closed=False).value - value) <= 1e-6 * value


def test_restricted_interior_point_pairs_to_one():
    # t* = -5e-7 passes the emptiness margin; the kept member pairs to one exactly
    sec = custom_section([herm(np.diag([1.0, -5e-7]))], identity(2))
    assert sec.restricted and sec.ambient_dim == 1
    assert abs(trace_pair(sec.interior_point, sec.normalizer) - 1.0) <= 1e-12
    assert contains(sec, sec.lift(sec.interior_point))
    assert abs(base_norm(sec, herm(np.diag([1.0, 0.0]))).value - 1.0) <= 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_bounded_slice_with_singular_normalizer_builds(seed):
    basis, n = bounded_case(seed)
    sec = custom_section(basis, n)
    assert contains(sec, sec.interior_point)


@pytest.mark.parametrize("seed", range(20))
def test_unbounded_slice_with_singular_normalizer_rejected(seed):
    with pytest.raises(ValidationError, match="unbounded"):
        custom_section(*unbounded_case(seed))


def test_pauli_disc_with_singular_normalizer():
    # span {I, sx, sy} with normalizer diag(1, 0): the slice is the disc
    # I + b sx + c sy with b^2 + c^2 <= 1, compact although n is singular
    sx = herm(np.array([[0.0, 1.0], [1.0, 0.0]]))
    sy = herm(np.array([[0.0, -1j], [1j, 0.0]]))
    sec = custom_section([identity(2), sx, sy], herm(np.diag([1.0, 0.0])))
    assert contains(sec, identity(2) + sx * 0.5)
    assert not contains(sec, identity(2) + sx * 1.5)


def test_singular_normalizer_section_solves_only_interior_programs(monkeypatch):
    # emptiness, restriction and boundedness are all read off the one
    # interior-point program
    described = []
    real = solver.MajorantProgram.__post_init__

    def spy(program):
        described.append(program.description)
        real(program)

    monkeypatch.setattr(solver.MajorantProgram, "__post_init__", spy)
    custom_section(*bounded_case(0))
    custom_section([identity(2)], herm(np.diag([1.0, 0.0])))
    assert described and set(described) == {"interior point (max min-eigenvalue)"}


def _custom_descriptor(dims):
    desc = section_to_descriptor(custom_section([identity((2, 2))], identity((2, 2))))
    return {**desc, "dims": dims}


@pytest.mark.parametrize(
    "desc",
    [
        {"kind": "states", "dims": [3, 7]},
        {"kind": "channels", "dims": [2, 2, 5]},
        {"kind": "channels", "dims": [2]},
        {"kind": "combs", "dims": [2]},
        {"kind": "povm", "dims": [2, 9], "base": {"kind": "states", "dims": [2]}},
        {"kind": "generalized", "dims": [2, 3], "base": {"kind": "states", "dims": [2]}},
        _custom_descriptor([3]),
        _custom_descriptor([4]),
        _custom_descriptor("junk"),
    ],
    ids=lambda d: f"{d['kind']} {d['dims']}",
)
def test_descriptor_dims_are_read_exactly(desc):
    with pytest.raises(ShapeError, match="field 'dims'"):
        section_from_descriptor(desc)


def test_custom_descriptor_dims_are_optional():
    desc = _custom_descriptor([2, 2])
    assert section_from_descriptor(desc).dims == (2, 2)
    del desc["dims"]
    assert section_from_descriptor(desc).dims == (2, 2)


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


@pytest.mark.parametrize(
    "wrap", [lambda s: s, dual_section, transpose_section], ids=["singleton", "dual", "transpose"]
)
def test_restricted_custom_descriptor_names_the_callers_dims(wrap):
    # restricted to a one-dimensional support, the section is still on (2, 2)
    sec = wrap(singleton_section(herm(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))))
    desc = section_to_descriptor(sec)
    matrices = desc["basis"] + [desc["normalizer"]]
    assert desc["kind"] == "custom"
    assert [desc["dims"]] + [m["dims"] for m in matrices] == [[2, 2]] * (1 + len(matrices))
    back = section_from_descriptor(json.loads(json.dumps(desc)))
    assert sec.restricted and back.restricted and back.dims == sec.dims == (2, 2)


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
