"""Experiments, payoffs, discrimination and optimality certificates."""

import json
import math

import numpy as np
import pytest

from conftest import rand_density, rand_kraus_channel, rand_psd
from gnorm.choi import kraus_channel, max_entangled_projection
from gnorm.decisions import (
    Experiment,
    GeneralizedPOVM,
    bayes_error,
    build_xi,
    certify_optimal,
    choi_to_povm,
    classical_xi_blocks,
    classical_problem,
    decompose_povm,
    experiment_from_json,
    experiment_to_json,
    helstrom,
    max_entangled_tester_exists,
    max_payoff,
    multi_hypothesis_error,
    povm_to_choi,
    quantum_problem,
)
from gnorm.errors import ValidationError
from gnorm.hermitian import (
    abs_pos_neg,
    herm,
    identity,
    outer,

    partial_trace,
    psd_check,
    support_projection,
    tensor,
    trace,
    trace_pair,
    transpose_in_basis,
)
from gnorm.norms import base_norm, base_norm_psd
from gnorm.oracles import sample_section
from gnorm.sections import (
    channels_section,
    contains,
    dual_section,
    generalized_section,
    id_tensor_section,
    states_section,
)

KET0 = outer([1.0, 0.0])
KET1 = outer([0.0, 1.0])
PLUS = outer([1.0 / math.sqrt(2), 1.0 / math.sqrt(2)])
HELSTROM_01PLUS = (1.0 - 1.0 / math.sqrt(2.0)) / 2.0


def uniform_experiment(section, family):
    n = len(family)
    return Experiment(section, tuple(family), np.full(n, 1.0 / n))


def trine_states():
    out = []
    for k in range(3):
        angle = math.pi * k / 3.0
        out.append(outer([math.cos(angle), math.sin(angle)]))
    return out


def povm_error(povm, family, prior):
    """Direct evaluation of the average error of a measurement."""
    err = 0.0
    for i, b in enumerate(family):
        probs = povm.probabilities(b)
        err += prior[i] * (1.0 - probs[i])
    return err


def test_experiment_validation():
    s = states_section(2)
    with pytest.raises(ValidationError):
        Experiment(s, (identity(2),), np.array([1.0]))  # trace 2, not a member
    with pytest.raises(ValidationError):
        Experiment(s, (KET0,), np.array([0.7]))  # prior does not sum to 1


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_experiment_rejects_non_finite_prior(bad):
    with pytest.raises(ValidationError, match="prior"):
        Experiment(states_section(2), (identity(2) / 2,), [bad])
    with pytest.raises(ValidationError, match="prior"):
        Experiment(states_section(2), (KET0, identity(2) / 2), [bad, 0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_classical_problem_rejects_non_finite_table(bad):
    with pytest.raises(ValidationError, match="finite"):
        classical_problem([[bad, 1.0], [0.0, 1.0]])


def test_classical_problem_rejects_empty_table():
    with pytest.raises(ValidationError, match="nonempty"):
        classical_problem(np.zeros((2, 0)))


def test_build_xi_single_hypothesis():
    s = states_section(2)
    e = Experiment(s, (KET0,), np.array([1.0]))
    p = quantum_problem((identity(3),))
    xi = build_xi(e, p)
    assert np.allclose(xi.entries, np.kron(np.eye(3), KET0.entries))


def test_build_xi_classical_blocks():
    s = states_section(2)
    e = uniform_experiment(s, (KET0, PLUS))
    p = classical_problem(np.eye(2))
    xi = build_xi(e, p)
    expected = np.kron(np.diag([1.0, 0.0]), 0.5 * KET0.entries) + np.kron(
        np.diag([0.0, 1.0]), 0.5 * PLUS.entries
    )
    assert np.allclose(xi.entries, expected)
    zero = classical_problem(np.zeros((2, 2)))
    assert np.allclose(build_xi(e, zero).entries, 0.0)


def test_max_payoff_trivial_single_member():
    rng = np.random.default_rng(0)
    c = channels_section(2, 2)
    b = sample_section(c, 1, seed=1).points[0]
    e = Experiment(c, (b,), np.array([1.0]))
    p = quantum_problem((identity(2),))
    res = max_payoff(e, p, tol=1e-8)
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_max_payoff_orthogonal_states_is_one():
    s = states_section(2)
    e = uniform_experiment(s, (KET0, KET1))
    res = max_payoff(e, classical_problem(np.eye(2)), tol=1e-8)
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_max_payoff_helstrom_value():
    s = states_section(2)
    e = uniform_experiment(s, (KET0, PLUS))
    res = max_payoff(e, classical_problem(np.eye(2)), tol=1e-8)
    assert res.value == pytest.approx(1.0 - HELSTROM_01PLUS, abs=1e-6)
    # emitted measurement achieves the value it claims
    direct = 1.0 - povm_error(res.povm, e.family, e.prior)
    assert direct == pytest.approx(res.value, abs=1e-6)


def test_classical_payoff_dual_witness_is_the_effects():
    c = channels_section(2, 2)
    members = sample_section(c, 2, seed=3).points
    e = Experiment(c, tuple(members), np.array([0.4, 0.6]))
    p = classical_problem(np.eye(2))
    res = max_payoff(e, p, tol=1e-8)
    assert res.norm.dual_witness == res.povm.effects
    assert all(m.subsystem_dims == c.subsystem_dims for m in res.povm.effects)
    # the effects are the majorant multipliers: sum_d Tr(xi_d M_d) is the dual side
    blocks = classical_xi_blocks(e, p)
    paired = sum(trace_pair(xi, m) for xi, m in zip(blocks, res.povm.effects))
    assert paired == pytest.approx(res.norm.dual_value, abs=1e-6)


def test_payoff_bound_over_random_procedures():
    rng = np.random.default_rng(2)
    s = states_section(2)
    e = uniform_experiment(s, (KET0, PLUS))
    p = classical_problem(np.eye(2))
    xi = build_xi(e, p)
    best = max_payoff(e, p, tol=1e-8).value
    proc_section = generalized_section(s, 2)
    for x in sample_section(proc_section, 25, seed=3).points:
        assert trace_pair(xi, transpose_in_basis(x)) <= best + 1e-6
    # and via explicitly random channels H -> D
    for _ in range(25):
        x = kraus_channel(rand_kraus_channel(rng, 2, 2, 2)).matrix
        assert trace_pair(xi, transpose_in_basis(x)) <= best + 1e-6


def test_loss_payoff_complement_both_ways():
    rng = np.random.default_rng(4)
    s = states_section(2)
    fam = (rand_density(rng, 2), rand_density(rng, 2), rand_density(rng, 2))
    e = Experiment(s, fam, np.array([0.5, 0.3, 0.2]))
    table = rng.uniform(size=(3, 2))
    p = classical_problem(table)
    pc = p.complement()
    max_direct = max_payoff(e, p, tol=1e-8).value
    max_comp = max_payoff(e, pc, tol=1e-8).value
    # min loss for table w = 1 - max payoff of (1 - w)
    min_loss = 1.0 - max_comp
    # evaluate: min over procedures of loss == 1 - max payoff of complement
    assert min_loss + max_comp == pytest.approx(1.0, abs=1e-12)
    # and the two optima are consistent: max_w + min_(1-w) = 1
    assert max_direct + (1.0 - max_direct) == pytest.approx(1.0)
    # quantitative check on a second table
    w2 = rng.uniform(size=(3, 3))
    v_pay = max_payoff(e, classical_problem(w2), tol=1e-8).value
    v_loss_comp = max_payoff(e, classical_problem(1.0 - w2), tol=1e-8).value
    lower = 0.0
    for x in sample_section(generalized_section(s, 3), 20, seed=5).points:
        xi = build_xi(e, classical_problem(w2))
        lower = max(lower, trace_pair(xi, transpose_in_basis(x)))
    assert lower <= v_pay + 1e-6
    assert 1.0 - v_loss_comp <= v_pay + 1e-6  # min loss of complement = max payoff


def test_commuting_quantum_problem_reduces_to_classical():
    rng = np.random.default_rng(6)
    s = states_section(2)
    fam = (rand_density(rng, 2), rand_density(rng, 2))
    e = uniform_experiment(s, fam)
    table = rng.uniform(size=(2, 3))
    p_classical = classical_problem(table)
    ops = tuple(herm(np.diag(table[i])) for i in range(2))
    p_quantum = quantum_problem(ops)
    v1 = max_payoff(e, p_classical, tol=1e-8).value
    v2 = max_payoff(e, p_quantum, tol=1e-8).value
    assert v1 == pytest.approx(v2, abs=1e-6)


def test_quantum_problem_noncommuting_payoff():
    rng = np.random.default_rng(60)
    s = states_section(2)
    fam = (rand_density(rng, 2), rand_density(rng, 2))
    e = uniform_experiment(s, fam)
    # genuinely non-commuting payoff operators with 0 <= W <= I
    w0 = herm(np.diag([1.0, 0.2]))
    w1 = 0.5 * (identity(2) + herm(np.array([[0.0, 1.0], [1.0, 0.0]]))) * 0.9
    p = quantum_problem((w0, w1))
    res = max_payoff(e, p, tol=1e-9)
    # extracted procedure is a valid decision channel achieving the value
    from gnorm.hermitian import psd_check as _psd

    assert _psd(res.choi, 1e-6)
    marg = transpose_in_basis(partial_trace(res.choi, 0))
    assert contains(dual_section(s), marg, 1e-5)
    xi = build_xi(e, p)
    achieved = trace_pair(xi, transpose_in_basis(res.choi))
    assert achieved == pytest.approx(res.value, abs=1e-6)
    cert = certify_optimal(res.choi, e, p, tol=1e-5)
    assert cert.feasible
    # sampled procedures never beat it
    for x in sample_section(generalized_section(s, 2), 30, seed=61).points:
        assert trace_pair(xi, transpose_in_basis(x)) <= res.value + 1e-6


def test_bayes_error_examples():
    s = states_section(2)
    rho = rand_density(np.random.default_rng(7), 2)
    err, povm, _ = bayes_error(s, rho, rho, 0.5)
    assert err == pytest.approx(0.5, abs=1e-9)
    err, _, _ = bayes_error(s, KET0, KET1, 0.5)
    assert err == pytest.approx(0.0, abs=1e-9)
    err, povm, _ = bayes_error(s, KET0, PLUS, 0.5)
    assert err == pytest.approx(HELSTROM_01PLUS, abs=1e-9)
    # the returned measurement achieves the bound
    assert povm_error(povm, (KET0, PLUS), (0.5, 0.5)) == pytest.approx(err, abs=1e-8)


def test_bayes_error_symmetry():
    rng = np.random.default_rng(8)
    c = channels_section(2, 2)
    b0, b1 = sample_section(c, 2, seed=9).points
    for lam in (0.3, 0.5, 0.8):
        e1, _, _ = bayes_error(c, b0, b1, lam, tol=1e-8)
        e2, _, _ = bayes_error(c, b1, b0, 1.0 - lam, tol=1e-8)
        assert e1 == pytest.approx(e2, abs=1e-6)


def test_helstrom_matches_bayes_error():
    rng = np.random.default_rng(10)
    for _ in range(5):
        r0, r1 = rand_density(rng, 2), rand_density(rng, 2)
        lam = float(rng.uniform(0.2, 0.8))
        err_h, _ = helstrom(r0, r1, lam)
        err_b, _, _ = bayes_error(states_section(2), r0, r1, lam)
        assert err_h == pytest.approx(err_b, abs=1e-8)


def test_helstrom_povm_is_projective_split():
    err, povm = helstrom(KET0, PLUS, 0.5)
    m0, m1 = povm.effects
    diff = 0.5 * KET0 - 0.5 * PLUS
    _, pos, _ = abs_pos_neg(diff)
    assert np.allclose(m0.entries, support_projection(pos).entries)
    assert np.allclose((m0 + m1).entries, np.eye(2))


def test_multi_hypothesis_reduces_to_bayes_at_two():
    rng = np.random.default_rng(11)
    s = states_section(2)
    r0, r1 = rand_density(rng, 2), rand_density(rng, 2)
    err2, _, _ = multi_hypothesis_error(s, (r0, r1), np.array([0.4, 0.6]), tol=1e-8)
    err_b, _, _ = bayes_error(s, r0, r1, 0.4, tol=1e-8)
    assert err2 == pytest.approx(err_b, abs=1e-6)


def test_multi_hypothesis_orthogonal_is_zero():
    s = states_section(3)
    fam = tuple(outer(np.eye(3)[k]) for k in range(3))
    err, _, _ = multi_hypothesis_error(s, fam, np.full(3, 1.0 / 3.0), tol=1e-8)
    assert err == pytest.approx(0.0, abs=1e-6)


def test_multi_hypothesis_trine():
    s = states_section(2)
    fam = tuple(trine_states())
    prior = np.full(3, 1.0 / 3.0)
    err, povm, _ = multi_hypothesis_error(s, fam, prior, tol=1e-8)
    # oracle: the symmetric measurement, evaluated directly
    sym = GeneralizedPOVM(s, tuple((2.0 / 3.0) * b for b in fam))
    direct = povm_error(sym, fam, prior)
    assert err <= direct + 1e-6
    assert err == pytest.approx(direct, abs=1e-6)  # symmetric measurement is optimal here
    # sampled measurements can only do worse
    rng = np.random.default_rng(12)
    for _ in range(10):
        g = [rand_psd(rng, 2) + 0.05 * identity(2) for _ in range(3)]
        total = g[0] + g[1] + g[2]
        from gnorm.hermitian import pinv_sqrt

        r = pinv_sqrt(total)
        effs = tuple(herm(r.entries @ m.entries @ r.entries) for m in g)
        rnd = GeneralizedPOVM(s, effs)
        assert err <= povm_error(rnd, fam, prior) + 1e-6


def test_certify_optimal_helstrom_and_recipe_witness():
    s = states_section(2)
    e = uniform_experiment(s, (KET0, PLUS))
    p = classical_problem(np.eye(2))
    _, povm = helstrom(KET0, PLUS, 0.5)
    cert = certify_optimal(povm, e, p, tol=1e-6)
    assert cert.feasible
    assert cert.slack_residual <= 1e-5
    # recipe: q = ((s0 - s1)_+ + s1) / 2 satisfies both optimality conditions
    diff = 0.5 * KET0 - 0.5 * PLUS
    _, pos, _ = abs_pos_neg(diff)
    q = pos + 0.5 * PLUS
    xi = build_xi(e, p)
    big_q = tensor(identity(2), q)
    assert psd_check(big_q - xi, 1e-10)
    x = povm_to_choi(povm)
    slack = np.linalg.norm((big_q.entries - xi.entries) @ transpose_in_basis(x).entries)
    assert slack <= 1e-10
    assert trace_pair(q, identity(2) / 1.0) == pytest.approx(cert.payoff_at_optimum, abs=1e-5)


def test_certify_optimal_rejects_uniform_povm():
    s = states_section(2)
    e = uniform_experiment(s, (KET0, PLUS))
    p = classical_problem(np.eye(2))
    uniform = GeneralizedPOVM(s, (identity(2) / 2, identity(2) / 2))
    cert = certify_optimal(uniform, e, p, tol=1e-6)
    assert not cert.feasible
    # deficit matches direct payoff evaluation
    xi = build_xi(e, p)
    direct = trace_pair(xi, transpose_in_basis(povm_to_choi(uniform)))
    assert cert.candidate_payoff == pytest.approx(direct, abs=1e-12)
    assert cert.payoff_at_optimum - cert.candidate_payoff > 1e-3


def test_certify_optimal_degenerate_all_procedures_optimal():
    s = states_section(2)
    rho = rand_density(np.random.default_rng(13), 2)
    e = uniform_experiment(s, (rho, rho))
    p = classical_problem(np.eye(2))
    any_povm = GeneralizedPOVM(s, (herm(np.diag([0.3, 0.6])), identity(2) - herm(np.diag([0.3, 0.6]))))
    cert = certify_optimal(any_povm, e, p, tol=1e-6)
    assert cert.feasible


def test_certify_optimal_choi_candidate():
    s = states_section(2)
    e = uniform_experiment(s, (KET0, PLUS))
    p = classical_problem(np.eye(2))
    res = max_payoff(e, p, tol=1e-8)
    cert = certify_optimal(res.choi, e, p, tol=1e-5)
    assert cert.feasible
    with pytest.raises(ValidationError):
        certify_optimal(tensor(identity(2), identity(2)), e, p)


def test_certify_optimal_over_channel_section():
    c = channels_section(2, 2)
    psi = herm(max_entangled_projection(2).entries, (2, 2))
    x_z = kraus_channel([np.diag([1.0, -1.0]).astype(complex)]).matrix
    e = uniform_experiment(c, (psi, x_z))
    p = classical_problem(np.eye(2))
    res = max_payoff(e, p, tol=1e-8)
    assert res.value == pytest.approx(1.0, abs=1e-6)  # orthogonal Chois: perfect
    cert = certify_optimal(res.povm, e, p, tol=1e-5)
    assert cert.feasible


def test_certificate_optimum_is_the_payoff_value():
    rng = np.random.default_rng(71)
    c = channels_section(2, 2)
    family = tuple(kraus_channel(rand_kraus_channel(rng, 2, 2, 2)).matrix for _ in range(2))
    e = uniform_experiment(c, family)
    ops = (herm(np.diag([1.0, 0.2])), herm(np.diag([0.1, 0.9])))
    for p in (classical_problem(np.eye(2)), quantum_problem(ops)):
        res = max_payoff(e, p, tol=1e-8)
        cert = certify_optimal(res.choi, e, p, tol=1e-5, solve_tol=1e-8)
        assert cert.feasible
        assert cert.payoff_at_optimum == res.value
        assert np.array_equal(cert.witness_q.entries, res.norm.primal_witness.entries)


def test_decompose_povm_ordinary():
    _, povm = helstrom(KET0, PLUS, 0.5)
    c, lams = decompose_povm(povm)
    assert np.allclose(c.entries, np.eye(2))
    for m, lam in zip(povm.effects, lams):
        assert np.allclose(m.entries, lam.entries)


def test_decompose_povm_tester_reconstruction():
    cs = channels_section(2, 2)
    ps_section = dual_section(cs)
    sigma = rand_density(np.random.default_rng(14), 2)
    total = tensor(identity(2), sigma)
    m0 = 0.35 * total
    m1 = total - m0
    povm = GeneralizedPOVM(cs, (m0, m1))
    c, lams = decompose_povm(povm)
    assert contains(ps_section, c, 1e-8)
    from gnorm.hermitian import sqrt_psd

    r = sqrt_psd(c)
    for m, lam in zip(povm.effects, lams):
        recon = herm(r.entries @ lam.entries @ r.entries)
        assert np.linalg.norm(recon.entries - m.entries) <= 1e-9 * (1 + np.linalg.norm(m.entries))
    total_lam = sum(lams)
    assert np.allclose(total_lam.entries, support_projection(c).entries, atol=1e-8)


def test_decompose_povm_single_outcome():
    s = states_section(2)
    povm = GeneralizedPOVM(s, (identity(2),))
    c, lams = decompose_povm(povm)
    assert np.allclose(lams[0].entries, np.eye(2))


def test_max_entangled_tester_id_vs_z():
    psi = herm(max_entangled_projection(2).entries, (2, 2))
    x_z = kraus_channel([np.diag([1.0, -1.0]).astype(complex)]).matrix
    exists, residual = max_entangled_tester_exists(psi, x_z, 0.5)
    assert exists and residual <= 1e-12
    # oracle: explicit 4x4 computation of the input marginal of |diff|
    diff = 0.5 * psi - 0.5 * x_z
    w, u = np.linalg.eigh(diff.entries)
    absd = (u * np.abs(w)) @ u.conj().T
    marg = absd.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
    assert np.allclose(marg, np.eye(2) * np.trace(marg).real / 2)


def test_max_entangled_tester_degenerate_equal_chois():
    psi = herm(max_entangled_projection(2).entries, (2, 2))
    exists, residual = max_entangled_tester_exists(psi, psi, 0.5)
    assert exists and residual == 0.0


def test_max_entangled_tester_amplitude_damping_oracle():
    g = 0.5
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1 - g)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(g)], [0.0, 0.0]], dtype=complex)
    x_ad = kraus_channel([k0, k1]).matrix
    psi = herm(max_entangled_projection(2).entries, (2, 2))
    exists, residual = max_entangled_tester_exists(psi, x_ad, 0.5, tol=1e-7)
    # independent oracle decides
    diff = 0.5 * psi - 0.5 * x_ad
    w, u = np.linalg.eigh(diff.entries)
    absd = (u * np.abs(w)) @ u.conj().T
    marg = absd.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
    mean = np.trace(marg).real / 2
    oracle = np.linalg.norm(marg - mean * np.eye(2), 2) / mean <= 1e-7
    assert exists == oracle


def test_max_entangled_tester_validates_inputs():
    with pytest.raises(ValidationError):
        max_entangled_tester_exists(identity((2, 2)), identity((2, 2)), 0.5)


def test_block_identity_two_hypothesis_norm():
    rng = np.random.default_rng(15)
    for section in (states_section(2), channels_section(2, 2)):
        pts = sample_section(section, 2, seed=16).points
        b0, b1 = pts[0], pts[1]
        s, t = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0))
        xi = tensor(herm(np.diag([1.0, 0.0])), s * b0) + tensor(herm(np.diag([0.0, 1.0])), t * b1)
        wrapped = id_tensor_section(section, 2)
        lhs = base_norm_psd(wrapped, xi, tol=1e-8).value
        rhs = 0.5 * (base_norm(section, s * b0 - t * b1, tol=1e-8).value + s + t)
        assert lhs == pytest.approx(rhs, abs=1e-6)


def test_emitted_optimizers_all_certify():
    rng = np.random.default_rng(17)
    s = states_section(2)
    fam = (rand_density(rng, 2), rand_density(rng, 2))
    e = uniform_experiment(s, fam)
    p = classical_problem(np.eye(2))
    pay = max_payoff(e, p, tol=1e-8)
    assert certify_optimal(pay.povm, e, p, tol=1e-5).feasible
    err, povm, _ = bayes_error(s, fam[0], fam[1], 0.5, tol=1e-8)
    assert certify_optimal(povm, e, p, tol=1e-5).feasible
    err3, povm3, _ = multi_hypothesis_error(s, fam, np.array([0.5, 0.5]), tol=1e-8)
    assert certify_optimal(povm3, e, p, tol=1e-5).feasible


def test_experiment_json_roundtrip():
    s = states_section(2)
    e = uniform_experiment(s, (KET0, PLUS))
    p = classical_problem([[1.0, 0.0], [0.0, 1.0]])
    obj = experiment_to_json(e, p)
    e2, p2 = experiment_from_json(obj)
    assert e2.size == 2 and p2.kind == "classical"
    assert np.allclose(p2.table, np.eye(2))
    v1 = max_payoff(e, p, tol=1e-8).value
    v2 = max_payoff(e2, p2, tol=1e-8).value
    assert v1 == pytest.approx(v2, abs=1e-9)


def test_choi_povm_roundtrip():
    s = states_section(2)
    _, povm = helstrom(KET0, PLUS, 0.5)
    x = povm_to_choi(povm)
    back = choi_to_povm(s, x)
    for a, b in zip(povm.effects, back.effects):
        assert np.allclose(a.entries, b.entries)


def test_payoff_result_carries_solve_diagnostics():
    e = uniform_experiment(states_section(2), (KET0, PLUS))
    for problem in (classical_problem(np.eye(2)), quantum_problem((identity(2), identity(2)))):
        norm = max_payoff(e, problem, tol=1e-8).norm
        assert norm.method == "conic" and 0 < norm.best_iteration <= norm.iterations
        assert norm.rejected >= 0


def test_quantum_experiment_json_round_trip_and_complement():
    e = uniform_experiment(states_section(2), (KET0, PLUS))
    w0 = herm(np.diag([1.0, 0.2]))
    w1 = 0.45 * (identity(2) + herm(np.array([[0.0, 1.0], [1.0, 0.0]])))
    p = quantum_problem((w0, w1))
    e2, p2 = experiment_from_json(json.loads(json.dumps(experiment_to_json(e, p))))
    assert p2.kind == "quantum" and len(p2.operators) == 2
    assert max_payoff(e2, p2, tol=1e-9).value == max_payoff(e, p, tol=1e-9).value
    comp = p.complement()
    assert comp.kind == "quantum"
    for w, wc in zip(p.operators, comp.operators):
        assert np.allclose(wc.entries, np.eye(2) - w.entries, atol=1e-15)
