"""Norm computations: closed forms vs conic solves, named specializations,
axioms on random instances, and extremal-point certification."""

import math

import numpy as np
import pytest

from conftest import rand_density, rand_herm, rand_kraus_channel, rand_psd, rand_unitary
from gnorm import solver
from gnorm.choi import kraus_channel, max_entangled_projection, max_entangled_state
from gnorm.errors import DomainError, ShapeError
from gnorm.hermitian import (
    herm,
    identity,
    op_norm,
    outer,
    partial_trace,
    pinv_sqrt,
    psd_check,
    sqrt_psd,
    tensor,
    trace,
    trace_norm,
    trace_pair,
    transpose_in_basis,
)
from gnorm.norms import (
    base_norm,
    base_norm_psd,
    base_norm_singleton,
    certify_extremal_psd,
    diamond_norm,
    dmax,
    dual_base_norm,
    hmin,
    ncomb_norm,
    order_unit_norm_singleton,
)
from gnorm.oracles import sample_section
from gnorm.sections import (
    channels_section,
    comb_section,
    contains,
    custom_section,
    dual_section,
    full_hermitian_basis,
    full_slice_section,
    singleton_section,
    states_section,
)

PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def test_singleton_closed_forms():
    x = herm(np.diag([1.0, -1.0]))
    assert base_norm_singleton(identity(2), x) == pytest.approx(trace_norm(x))
    assert base_norm_singleton(identity(2) / 2, x) == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    b = rand_psd(rng, 2)
    # direct eigen computation as oracle
    r = sqrt_psd(b)
    oracle = trace_norm(herm(r.entries @ b.entries @ r.entries))
    assert base_norm_singleton(b, b) == pytest.approx(oracle, abs=1e-10)


def test_order_unit_closed_forms():
    x = herm(np.diag([1.0, -1.0]))
    assert order_unit_norm_singleton(identity(2), x) == pytest.approx(op_norm(x))
    assert order_unit_norm_singleton(identity(2) / 2, x) == pytest.approx(2.0)
    assert order_unit_norm_singleton(herm(np.diag([1.0, 0.0])), herm(np.diag([0.0, 1.0]))) == math.inf


def test_order_unit_rejects_a_non_psd_b_wherever_x_lies():
    # x inside and x outside the support of b: both are DomainError, the
    # PSD test coming before the leak test
    b = herm(np.diag([1.0, -0.5, 0.0]))
    for x in (herm(np.diag([0.0, 0.0, 1.0])), herm(np.diag([1.0, 0.0, 0.0]))):
        with pytest.raises(DomainError):
            order_unit_norm_singleton(b, x)


def test_dmax_examples():
    rng = np.random.default_rng(1)
    a = rand_psd(rng, 3)
    assert dmax(a, a) == pytest.approx(0.0, abs=1e-9)
    assert dmax(2.0 * a, a) == pytest.approx(1.0, abs=1e-9)
    assert dmax(outer([1.0, 0.0]), identity(2) / 2) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        dmax(herm(np.diag([1.0, -1.0])), a)


def test_member_has_norm_one():
    rng = np.random.default_rng(2)
    c = channels_section(2, 2)
    for p in sample_section(c, 5, seed=3).points:
        res = base_norm(c, p, tol=1e-8)
        assert res.value == pytest.approx(1.0, abs=1e-7)


def test_states_norm_is_trace_norm_closed_and_conic():
    rng = np.random.default_rng(3)
    s = states_section(2)
    for _ in range(10):
        x = rand_herm(rng, 2)
        closed = base_norm(s, x)
        assert closed.method == "closed_form"
        assert closed.value == pytest.approx(trace_norm(x), rel=1e-12)
        conic = base_norm(s, x, tol=1e-8, prefer_closed=False)
        assert conic.method == "conic"
        assert conic.value == pytest.approx(trace_norm(x), rel=1e-6)
        assert conic.gap <= 1e-6


def test_full_slice_custom_matches_singleton_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(5):
        b = rand_psd(rng, 2) + 0.3 * identity(2)
        sec = custom_section(list(full_hermitian_basis(2)), b, label="full slice")
        x = rand_herm(rng, 2)
        oracle = base_norm_singleton(b, x)
        assert base_norm(sec, x).value == pytest.approx(oracle, rel=1e-10)
        conic = base_norm(sec, x, tol=1e-8, prefer_closed=False)
        assert conic.value == pytest.approx(oracle, rel=1e-6)
        # the dedicated constructor takes the same closed path
        built = full_slice_section(b)
        assert base_norm(built, x).value == pytest.approx(oracle, rel=1e-10)


def test_singleton_closed_form_makes_two_eigendecompositions(monkeypatch):
    rng = np.random.default_rng(6)
    sec = singleton_section(rand_psd(rng, 3) + identity(3))
    x = rand_herm(rng, 3)
    calls = []

    def counted(name):
        real = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            calls.append(name)
            return real(a, *args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    res = base_norm(sec, x)
    assert res.method == "closed_form"
    # one of b (support and pseudo-inverse root), one of b^(-1/2) x b^(-1/2)
    assert len(calls) == 2


def test_full_slice_witnesses_on_rank_deficient_input():
    rng = np.random.default_rng(7)
    sec = full_slice_section(rand_psd(rng, 3) + 0.5 * identity(3))
    u = rand_unitary(rng, 3)
    x = herm((u * np.array([1.5, -0.7, 0.0])) @ u.conj().T)
    res = base_norm(sec, x)
    assert res.method == "closed_form"
    y1, y2 = res.dual_witness
    assert np.max(np.abs((y1 + y2 - sec.normalizer).entries)) <= 1e-12
    assert psd_check(y1) and psd_check(y2)
    assert trace_pair(x, y1 - y2) == pytest.approx(res.value, rel=1e-12, abs=1e-12)


def test_full_slice_constructor_cli_example_value():
    # slice through I/2 applied to diag(1, -1): |(I/2)^(1/2) x (I/2)^(1/2)|_1
    sec = full_slice_section(identity(2) / 2)
    res = base_norm(sec, herm(np.diag([1.0, -1.0])))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    # while the one-member section {I/2} gives the order-unit value
    one = singleton_section(identity(2) / 2)
    assert base_norm(one, herm(np.diag([1.0, -1.0]))).value == pytest.approx(2.0, abs=1e-12)


def test_witnesses_satisfy_their_constraints():
    rng = np.random.default_rng(5)
    c = channels_section(2, 2)
    x = rand_herm(rng, 4, dims=(2, 2))
    res = base_norm(c, x, tol=1e-9)
    q = res.primal_witness
    assert psd_check(q - x, 1e-7) and psd_check(q + x, 1e-7)
    assert trace_pair(q, c.normalizer) == pytest.approx(res.primal_value, abs=1e-7)
    y1, y2 = res.dual_witness
    assert psd_check(y1, 1e-6) and psd_check(y2, 1e-6)
    from gnorm.sections import contains

    assert contains(dual_section(c), y1 + y2, 1e-5)
    assert trace_pair(x, y1 - y2) == pytest.approx(res.dual_value, abs=1e-7)


def test_dual_base_norm_examples():
    rng = np.random.default_rng(6)
    s = states_section(3)
    x = rand_herm(rng, 3)
    assert dual_base_norm(s, x).value == pytest.approx(op_norm(x), rel=1e-10)
    c = channels_section(2, 2)
    rho = rand_density(rng, 2)
    res = dual_base_norm(c, tensor(identity(2), rho), tol=1e-8)
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_duality_pairing_bound():
    rng = np.random.default_rng(7)
    c = channels_section(2, 2)
    for _ in range(10):
        x = rand_herm(rng, 4, dims=(2, 2))
        y = rand_herm(rng, 4, dims=(2, 2))
        bx = base_norm(c, x, tol=1e-8).value
        by = dual_base_norm(c, y, tol=1e-8).value
        assert abs(trace_pair(x, y)) <= bx * by * (1 + 1e-6) + 1e-8


def test_base_norm_psd_examples():
    rng = np.random.default_rng(8)
    s = states_section(3)
    a = rand_psd(rng, 3)
    assert base_norm_psd(s, a).value == pytest.approx(trace(a), rel=1e-10)
    c = channels_section(2, 2)
    psi = max_entangled_projection(2)
    res = base_norm_psd(c, psi, tol=1e-8)
    assert res.value == pytest.approx(1.0, abs=1e-6)
    # sup over members of Tr Phi(b): for a channel Choi the value is 1
    for p in sample_section(c, 4, seed=9).points:
        assert res.value >= trace_pair(psi, p) / 2.0 - 1e-6  # normalizer scale check


def test_psd_specialization_matches_base_norm():
    rng = np.random.default_rng(9)
    c = channels_section(2, 2)
    for _ in range(5):
        a = rand_psd(rng, 4, dims=(2, 2))
        v1 = base_norm(c, a, tol=1e-8).value
        v2 = base_norm_psd(c, a, tol=1e-8).value
        assert v1 == pytest.approx(v2, rel=1e-6, abs=1e-6)


def test_diamond_norm_examples():
    psi = max_entangled_projection(2)
    x_id = herm(psi.entries, (2, 2))
    x_z = kraus_channel([PAULI_Z]).matrix
    res = diamond_norm(x_id - x_z, tol=1e-8)
    assert res.value == pytest.approx(2.0, abs=1e-5)
    # sampled pure-state lower bound achieves 2 at the maximally entangled state
    from gnorm.choi import apply_choi_tensor_id

    sigma = max_entangled_state(2)
    moved = apply_choi_tensor_id(x_id, 2, sigma) - apply_choi_tensor_id(x_z, 2, sigma)
    assert trace_norm(moved) == pytest.approx(2.0, abs=1e-10)
    assert res.value >= trace_norm(moved) - 1e-5

    assert diamond_norm(x_id, tol=1e-8).value == pytest.approx(1.0, abs=1e-7)
    zero = herm(np.zeros((4, 4)), (2, 2))
    assert diamond_norm(zero).value == 0.0


def test_diamond_dominates_sampled_input_states():
    rng = np.random.default_rng(10)
    from gnorm.choi import apply_choi_tensor_id

    x0 = kraus_channel(rand_kraus_channel(rng, 2, 2, 2)).matrix
    x1 = kraus_channel(rand_kraus_channel(rng, 2, 2, 2)).matrix
    diff = x0 - x1
    res = diamond_norm(diff, tol=1e-8)
    for _ in range(100):
        g = rng.normal(size=4) + 1j * rng.normal(size=4)
        g /= np.linalg.norm(g)
        sigma = herm(np.outer(g, g.conj()), (2, 2))
        moved = apply_choi_tensor_id(diff, 2, sigma)
        assert trace_norm(moved) <= res.value + 1e-5
    # a larger ancilla buys nothing: the fixed-ancilla value still dominates
    for _ in range(25):
        g = rng.normal(size=6) + 1j * rng.normal(size=6)
        g /= np.linalg.norm(g)
        sigma = herm(np.outer(g, g.conj()), (2, 3))
        moved = apply_choi_tensor_id(diff, 3, sigma)
        assert trace_norm(moved) <= res.value + 1e-5


def test_diamond_dual_witness_yields_optimal_input_state():
    # The dual optimizer pair sums to I (x) rho; the purified input built
    # from rho^T attains the norm under the moved-state trace norm.
    rng = np.random.default_rng(101)
    from gnorm.choi import apply_choi_tensor_id

    for seed in range(4):
        x0 = kraus_channel(rand_kraus_channel(rng, 2, 2, 2)).matrix
        x1 = kraus_channel(rand_kraus_channel(rng, 2, 2, 2)).matrix
        diff = x0 - x1
        res = diamond_norm(diff, tol=1e-9)
        y1, y2 = res.dual_witness
        rho = partial_trace(y1 + y2, 0) / 2.0  # I (x) rho marginal
        b = transpose_in_basis(rho)
        root = sqrt_psd(b)
        vec = np.zeros(4, dtype=complex)
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1.0
            vec += np.kron(root.entries @ e, e)
        sigma = herm(np.outer(vec, vec.conj()), (2, 2))
        moved = apply_choi_tensor_id(diff, 2, sigma)
        assert trace_norm(moved) == pytest.approx(res.value, abs=1e-5)


def test_diamond_unitary_pair_closed_form():
    # For conjugations by qubit unitaries the channel-section norm of the Choi
    # difference has a closed form: twice the half-angle sine of the relative
    # eigenphases (distance from the origin to the eigenvalue chord).
    from conftest import rand_unitary

    rng = np.random.default_rng(77)
    for _ in range(10):
        u, v = rand_unitary(rng, 2), rand_unitary(rng, 2)
        ang = np.angle(np.linalg.eigvals(u.conj().T @ v))
        oracle = 2.0 * abs(math.sin((ang[0] - ang[1]) / 2.0))
        got = diamond_norm(
            kraus_channel([u]).matrix - kraus_channel([v]).matrix, tol=1e-9
        ).value
        assert got == pytest.approx(oracle, abs=1e-7)


def unitary_pair_reference(u, v):
    """2 sqrt(1 - nu^2), nu the distance from 0 to the convex hull of the
    eigenvalues of U^dag V: the hull misses 0 only if some arc between
    neighbouring eigenphases exceeds pi, and then nu is the distance to the
    chord across that arc."""
    ang = np.sort(np.angle(np.linalg.eigvals(u.conj().T @ v)))
    arc = max(np.max(np.diff(ang), initial=0.0), 2.0 * math.pi - (ang[-1] - ang[0]))
    nu = max(0.0, -math.cos(arc / 2.0))
    return 2.0 * math.sqrt(1.0 - nu * nu)


@pytest.mark.parametrize("d, count", [(3, 3), (4, 2), (6, 2), (8, 1)])
def test_diamond_unitary_pair_closed_form_beyond_qubits(d, count):
    # V = U W with the eigenphases of W drawn on an arc shorter than pi (the
    # hull misses 0), except for a second pair, whose phases range over the
    # whole circle (at d = 6 its hull holds 0 and the norm is 2).
    from conftest import rand_unitary

    rng = np.random.default_rng(78 + d)
    for k in range(count):
        u, q = rand_unitary(rng, d), rand_unitary(rng, d)
        spread = 2.0 * math.pi if k == 1 else rng.uniform(0.5, 3.0)
        phases = rng.uniform(0.0, spread, size=d)
        v = u @ (q * np.exp(1j * phases)) @ q.conj().T
        oracle = unitary_pair_reference(u, v)
        got = diamond_norm(
            kraus_channel([u]).matrix - kraus_channel([v]).matrix, tol=1e-9
        ).value
        assert got == pytest.approx(oracle, abs=1e-7)


def test_dual_base_norm_brute_force_over_conditioning_states():
    # dual of the channel section: inf over states rho of the order-unit
    # value against I (x) rho; a Bloch grid gives a sound upper bound that
    # tightens to the solver value.
    rng = np.random.default_rng(78)
    c = channels_section(2, 2)
    x = rand_herm(rng, 4, dims=(2, 2))
    val = dual_base_norm(c, x, tol=1e-9).value
    best = math.inf
    n = 40
    for i in range(n):
        z = 1.0 - 2.0 * (i + 0.5) / n
        phi = 2.0 * math.pi * i / ((1 + math.sqrt(5)) / 2)
        for r in np.linspace(0.0, 1.0 - 1.0 / n, n):
            bloch = r * np.array([math.sqrt(1 - z * z) * math.cos(phi),
                                  math.sqrt(1 - z * z) * math.sin(phi), z])
            rho = herm(0.5 * (np.eye(2) + bloch[0] * np.array([[0, 1], [1, 0]])
                              + bloch[1] * np.array([[0, -1j], [1j, 0]])
                              + bloch[2] * np.diag([1.0, -1.0])))
            best = min(best, order_unit_norm_singleton(tensor(identity(2), rho), x))
    assert val <= best + 1e-7
    assert best <= val * (1 + 0.05)  # the coarse grid already lands close


def test_dmax_degenerate_zero_numerator():
    b = identity(2) / 2
    assert dmax(herm(np.zeros((2, 2))), b) == -math.inf


def test_hmin_requires_bipartite_dims():
    from gnorm.errors import ShapeError

    with pytest.raises(ShapeError):
        hmin(identity(4) / 4)


def test_hmin_of_zero_is_infinite():
    assert hmin(herm(np.zeros((4, 4)), (2, 2))) == math.inf


def test_ncomb_norm_examples():
    psi = herm(max_entangled_projection(2).entries, (2, 2))
    member = tensor(psi, psi)
    res = ncomb_norm((2, 2, 2, 2), member, tol=1e-7)
    assert res.value == pytest.approx(1.0, abs=1e-5)

    x = rand_herm(np.random.default_rng(11), 4)
    v_comb = ncomb_norm((2, 2), herm(x.entries, (2, 2)), tol=1e-8).value
    v_diamond = diamond_norm(herm(x.entries, (2, 2)), tol=1e-8).value
    assert v_comb == pytest.approx(v_diamond, rel=1e-6)


def test_ncomb_norm_difference_of_networks():
    psi = herm(max_entangled_projection(2).entries, (2, 2))
    x_z = kraus_channel([PAULI_Z]).matrix
    net_id = tensor(psi, psi)
    net_zz = tensor(x_z, x_z)
    diff = net_id - net_zz
    res = ncomb_norm((2, 2, 2, 2), diff, tol=1e-7)
    # dual sampled lower bound: best split of sampled co-strategies
    comb = comb_section((2, 2, 2, 2))
    lower = 0.0
    for y in sample_section(dual_section(comb), 10, seed=12).points:
        r = sqrt_psd(y)
        lower = max(lower, trace_norm(herm(r.entries @ diff.entries @ r.entries)))
    slot = diamond_norm(psi - x_z, tol=1e-7).value
    assert lower - 1e-6 <= res.value <= 2.0 + 1e-5
    assert res.value >= slot - 1e-5


def test_hmin_examples():
    phi = herm(max_entangled_state(2).entries, (2, 2))
    assert hmin(phi, tol=1e-8) == pytest.approx(-1.0, abs=1e-6)
    assert hmin(identity((2, 2)) / 4, tol=1e-8) == pytest.approx(1.0, abs=1e-6)
    # product state: 1-parameter scan oracle over diagonal conditioning states
    tau = herm(np.diag([0.9, 0.1]))
    rho0 = identity(2) / 2
    sigma = tensor(tau, rho0)
    ps = np.linspace(0.01, 0.99, 199)
    best = math.inf
    for p in ps:
        rho = herm(np.diag([p, 1 - p]))
        val = order_unit_norm_singleton(tensor(identity(2), rho), sigma)
        best = min(best, val)
    assert hmin(sigma, tol=1e-8) == pytest.approx(-math.log2(best), abs=1e-4)
    assert hmin(sigma, tol=1e-8) == pytest.approx(-math.log2(0.9), abs=1e-6)


def test_hmin_pure_state_closed_form():
    # For a pure bipartite state the optimal conditioning state is the
    # normalized square root of the marginal, giving
    # 2^(-hmin) = (Tr sqrt(marginal))^2.
    rng = np.random.default_rng(79)
    for d_k, d_h in ((2, 2), (3, 2), (2, 3)):
        for _ in range(5):
            g = rng.normal(size=d_k * d_h) + 1j * rng.normal(size=d_k * d_h)
            g /= np.linalg.norm(g)
            sigma = herm(np.outer(g, g.conj()), (d_k, d_h))
            marg = partial_trace(sigma, 0)
            w = np.clip(np.linalg.eigvalsh(marg.entries), 0.0, None)
            oracle = -2.0 * math.log2(float(np.sum(np.sqrt(w))))
            assert hmin(sigma, tol=1e-9) == pytest.approx(oracle, abs=1e-6)


def test_preparation_channels_reduce_to_trace_distance():
    # Channels with a one-dimensional input are state preparations; their
    # section norm of a difference is the plain trace distance.
    rng = np.random.default_rng(80)
    c = channels_section(1, 3)
    for _ in range(5):
        r0, r1 = rand_psd(rng, 3), rand_psd(rng, 3)
        r0 = r0 / trace(r0)
        r1 = r1 / trace(r1)
        diff = (r0 - r1).with_dims((3, 1))
        res = base_norm(c, diff, tol=1e-9)
        assert res.value == pytest.approx(trace_norm(r0 - r1), abs=1e-7)


def test_hmin_upper_bound_dimension():
    rng = np.random.default_rng(13)
    for _ in range(5):
        sigma = rand_density(rng, 4, dims=(2, 2))
        assert hmin(sigma, tol=1e-8) <= 1.0 + 1e-6


def test_norm_axioms_on_five_sections():
    rng = np.random.default_rng(14)
    sections = [
        states_section(2),
        states_section(3),
        channels_section(2, 2),
        dual_section(channels_section(2, 2)),
        custom_section(
            [identity(3) / 3]
            + [rand_herm(np.random.default_rng(140), 3) for _ in range(3)],
            identity(3),
            label="axioms custom",
        ),
    ]
    for sec in sections:
        d = sec.ambient_dim
        dims = sec.subsystem_dims
        for _ in range(50):
            x = rand_herm(rng, d, dims=dims)
            y = rand_herm(rng, d, dims=dims)
            nx = base_norm(sec, x, tol=1e-8).value
            ny = base_norm(sec, y, tol=1e-8).value
            nxy = base_norm(sec, x + y, tol=1e-8).value
            s = float(rng.uniform(0.2, 3.0))
            nsx = base_norm(sec, s * x, tol=1e-8).value
            assert nx >= -1e-9
            assert nsx == pytest.approx(s * nx, rel=1e-7, abs=1e-7 * (1 + nx))
            assert nxy <= nx + ny + 1e-7 * (1 + nx + ny)


def test_monotone_sandwich_formulas():
    rng = np.random.default_rng(15)
    c = channels_section(2, 2)
    x = rand_herm(rng, 4, dims=(2, 2))
    val = base_norm(c, x, tol=1e-9).value
    for y in sample_section(dual_section(c), 10, seed=16).points:
        r = sqrt_psd(y)
        assert trace_norm(herm(r.entries @ x.entries @ r.entries)) <= val + 1e-6
    for b in sample_section(c, 10, seed=17).points:
        rinv = pinv_sqrt(b)
        assert op_norm(herm(rinv.entries @ x.entries @ rinv.entries)) >= val - 1e-6


def test_restricted_section_unsupported_input_is_infinite():
    sec = singleton_section(outer([1.0, 0.0]))
    res = base_norm(sec, herm(np.diag([0.0, 1.0])))
    assert res.value == math.inf
    assert res.primal_witness is None


def test_certify_extremal_member_of_section():
    rng = np.random.default_rng(18)
    c = channels_section(2, 2)
    a = sample_section(c, 1, seed=19).points[0]
    y0 = sample_section(dual_section(c), 1, seed=20).points[0]
    cert = certify_extremal_psd(c, a, dual_candidate=y0, tol=1e-6)
    assert cert.feasible
    assert cert.slack_residual <= 1e-5


def test_certify_extremal_states_identity():
    rng = np.random.default_rng(21)
    a = rand_psd(rng, 2)
    s = states_section(2)
    cert = certify_extremal_psd(s, a, dual_candidate=identity(2), tol=1e-6)
    assert cert.feasible
    assert cert.norm_value == pytest.approx(trace(a), rel=1e-6)


def test_certify_extremal_solver_optimizers():
    rng = np.random.default_rng(22)
    c = channels_section(2, 2)
    for seed in range(3):
        a = rand_psd(rng, 4, dims=(2, 2))
        res = base_norm_psd(c, a, tol=1e-9)
        y_star = res.dual_witness[0]
        cert = certify_extremal_psd(c, a, dual_candidate=y_star, tol=1e-5)
        assert cert.feasible
        # and the minimizing member certifies on the other side
        b_star = res.primal_witness / trace_pair(res.primal_witness, c.normalizer)
        cert2 = certify_extremal_psd(c, a, member_candidate=b_star, tol=1e-5)
        assert cert2.feasible


def test_certify_extremal_rejects_suboptimal_member():
    # a = identity-channel Choi: the best member for the scaling form is a
    # itself (t = 1); the fully depolarizing Choi needs t = 4.
    c = channels_section(2, 2)
    psi = herm(max_entangled_projection(2).entries, (2, 2))
    depol = identity((2, 2)) / 2
    good = certify_extremal_psd(c, psi, member_candidate=psi, tol=1e-5)
    assert good.feasible
    assert good.scale_t == pytest.approx(1.0, abs=1e-8)
    bad = certify_extremal_psd(c, psi, member_candidate=depol, tol=1e-5)
    assert not bad.feasible
    assert bad.scale_t == pytest.approx(4.0, abs=1e-8)
    assert bad.optimum_gap == pytest.approx(3.0, abs=1e-5)


def test_certify_extremal_rejects_suboptimal_dual():
    rng = np.random.default_rng(23)
    c = channels_section(2, 2)
    # a is far from uniform; the central dual element is then suboptimal
    a = tensor(herm(np.diag([1.0, 0.0])), herm(np.diag([0.9, 0.1])))
    res = base_norm_psd(c, a, tol=1e-9)
    center = tensor(identity(2), identity(2) / 2)
    paired = trace_pair(a, center)
    if res.value - paired > 1e-3:
        cert = certify_extremal_psd(c, a, dual_candidate=center, tol=1e-6)
        assert not cert.feasible


def test_certify_extremal_reads_the_norm_solve():
    rng = np.random.default_rng(72)
    c = channels_section(2, 2)
    a = rand_psd(rng, 4, dims=(2, 2))
    res = base_norm_psd(c, a, tol=1e-9)
    cert = certify_extremal_psd(c, a, dual_candidate=res.dual_witness[0], solve_tol=1e-9)
    assert cert.feasible
    assert cert.norm_value == res.value
    assert np.array_equal(cert.witness_q.entries, res.primal_witness.entries)
    member = res.primal_witness / res.value
    assert certify_extremal_psd(c, a, member_candidate=member, solve_tol=1e-9).norm_value == res.value


def test_certify_extremal_closed_forms_need_no_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a closed-form certificate called the solver")

    monkeypatch.setattr(solver, "solve", no_solve)
    rng = np.random.default_rng(73)
    for sec in (states_section(2), full_slice_section(rand_psd(rng, 3) + identity(3))):
        a = rand_psd(rng, sec.ambient_dim)
        res = base_norm_psd(sec, a)
        assert res.method == "closed_form"
        y = res.dual_witness[0]
        b = res.primal_witness / res.value
        for cert in (
            certify_extremal_psd(sec, a, dual_candidate=y),
            certify_extremal_psd(sec, a, member_candidate=b),
        ):
            assert cert.feasible and cert.norm_value == res.value


def test_certify_extremal_on_restricted_sections():
    singleton = singleton_section(herm(np.diag([0.6, 0.4, 0.0])))
    e00, e11 = herm(np.diag([1.0, 0.0, 0.0])), herm(np.diag([0.0, 1.0, 0.0]))
    off = herm(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    custom = custom_section([e00, e11, off], identity(3))
    a = herm(np.array([[0.5, 0.2, 0.0], [0.2, 0.4, 0.0], [0.0, 0.0, 0.0]]))
    for sec in (singleton, custom):
        assert sec.restricted
        res = base_norm_psd(sec, a, tol=1e-9)
        normalizer = sec.lift(sec.normalizer)
        member = res.primal_witness / trace_pair(res.primal_witness, normalizer)
        for cert in (
            certify_extremal_psd(sec, a, dual_candidate=res.dual_witness[0], solve_tol=1e-9),
            certify_extremal_psd(sec, a, member_candidate=member, solve_tol=1e-9),
        ):
            assert cert.feasible
            assert cert.norm_value == res.value
            assert cert.witness_q.dim == cert.witness_dual.dim == 3


def test_results_carry_solve_diagnostics():
    rng = np.random.default_rng(61)
    ch = channels_section(2, 2)
    for res in (base_norm(ch, rand_herm(rng, 4)), base_norm_psd(ch, rand_psd(rng, 4))):
        assert res.method == "conic" and 0 < res.best_iteration <= res.iterations
        assert res.rejected >= 0
    closed = base_norm(states_section(3), rand_herm(rng, 3))
    assert closed.method == "closed_form"
    assert (closed.iterations, closed.best_iteration, closed.rejected) == (0, 0, 0)


def test_mismatched_dimension_is_a_shape_error():
    s2, ch = states_section(2), channels_section(2, 2)
    calls = (
        lambda: base_norm(s2, identity(4)),  # closed form
        lambda: base_norm(s2, identity(4), prefer_closed=False),  # conic
        lambda: base_norm(ch, identity(3)),
        lambda: base_norm_psd(ch, identity(3)),
        lambda: contains(s2, identity(3) / 3),
        lambda: certify_extremal_psd(s2, identity(3), dual_candidate=identity(2)),
    )
    for call in calls:
        with pytest.raises(ShapeError, match="expected dim"):
            call()


@pytest.mark.parametrize(
    "section, a",
    [
        (states_section(2), herm(np.diag([1.0, 0.0]))),
        (full_slice_section(herm(np.diag([1.0, 3.0]))), herm(np.diag([1.0, 0.0]))),
        (channels_section(2, 2), herm(np.zeros((4, 4)), (2, 2))),
    ],
    ids=["states-rank-one", "full-slice", "zero"],
)
def test_base_norm_psd_closed_forms_return_a_dual_member(section, a):
    res = base_norm_psd(section, a)
    assert res.method == "closed_form"
    y, zero = res.dual_witness
    assert contains(dual_section(section), y)
    assert trace_pair(a, y) == pytest.approx(res.value, abs=1e-12)
    assert not np.any(zero.entries)
    member = section.interior_point if res.value == 0 else res.primal_witness / res.value
    cert = certify_extremal_psd(section, a, member_candidate=member)
    assert cert.feasible and contains(dual_section(section), cert.witness_dual)


@pytest.mark.parametrize("d_in, d_out", [(2, 3), (3, 3), (3, 2), (4, 4)])
def test_channel_choi_has_norm_one(d_in, d_out):
    rng = np.random.default_rng(100 * d_in + d_out)
    x = kraus_channel(rand_kraus_channel(rng, d_in, d_out, 2)).matrix
    assert base_norm(channels_section(d_in, d_out), x, tol=1e-9).value == pytest.approx(
        1.0, abs=1e-7
    )


@pytest.mark.parametrize("d", [3, 4])
def test_hmin_of_classical_quantum_state_is_helstrom_guessing(d):
    from gnorm.decisions import helstrom

    rng = np.random.default_rng(d)
    rho0, rho1, lam = rand_density(rng, d), rand_density(rng, d), 0.3
    sigma = tensor(herm(np.diag([lam, 0.0])), rho0) + tensor(herm(np.diag([0.0, 1 - lam])), rho1)
    error, _ = helstrom(rho0, rho1, lam)
    value = hmin(sigma.with_dims((2, d)), tol=1e-9)
    assert value == pytest.approx(-math.log2(1.0 - error), abs=1e-7)


def test_singleton_closed_forms_reject_mismatched_dims():
    a2, b3 = identity(2), identity(3)
    for call in (
        lambda: base_norm_singleton(b3, a2),
        lambda: order_unit_norm_singleton(b3, a2),
        lambda: dmax(a2, b3),
    ):
        with pytest.raises(ShapeError, match="dimension mismatch: 3 vs 2"):
            call()


def test_base_norm_psd_off_restricted_support_is_infinite():
    sec = singleton_section(outer([1.0, 0.0]))
    res = base_norm_psd(sec, herm(np.diag([0.0, 1.0])))
    assert res.value == math.inf
    assert res.primal_witness is None and res.dual_witness is None


def test_certify_extremal_member_missing_the_input_support_is_not_feasible():
    cert = certify_extremal_psd(
        states_section(2), outer([1.0, 0.0]), member_candidate=outer([0.0, 1.0])
    )
    assert not cert.feasible
    assert cert.scale_t == math.inf and cert.witness_dual is None
    assert cert.norm_value == pytest.approx(1.0, abs=1e-12)


def test_dmax_rejects_a_non_psd_b_wherever_a_lies():
    # b's PSD test is the order-unit norm's: -5e-9 passes psd_check at 1e-8
    # but not the 1e-9 rule, so that b is rejected as well
    for b in (np.diag([1.0, -1.0]), np.diag([1.0, -5e-9])):
        for a in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
            with pytest.raises(DomainError):
                dmax(herm(a), herm(b))


def test_dmax_tests_both_arguments_by_one_psd_rule():
    # diag(1, -5e-9) fails the 1e-9 PSD rule as either argument
    nearly = herm(np.diag([1.0, -5e-9]))
    for a, b in ((nearly, identity(2)), (identity(2), nearly)):
        with pytest.raises(DomainError):
            dmax(a, b)
