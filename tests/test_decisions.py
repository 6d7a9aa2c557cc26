"""Experiments, payoffs, discrimination and optimality certificates."""

import functools
import json
import math

import numpy as np
import pytest

from conftest import rand_density, rand_kraus_channel, rand_psd
from gnorm import decisions, solver
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
from gnorm.errors import ShapeError, SolverError, ValidationError
from gnorm.hermitian import (
    abs_pos_neg,
    herm,
    hunvec,
    hvec,
    identity,
    outer,

    partial_trace,
    psd_check,
    sqrt_psd,
    support_projection,
    tensor,
    trace,
    trace_pair,
    transpose_in_basis,
)
from gnorm.norms import base_norm, base_norm_psd
from gnorm.oracles import sample_section
from gnorm.sections import (
    _off_span,
    channels_section,
    contains,
    dual_section,
    generalized_section,
    id_tensor_section,
    singleton_section,
    states_section,
)
from gnorm.solver import FREE, Block, ConeProgram, solve

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


@pytest.mark.parametrize("c", [1e-3, 1e-6, 1e-9])
def test_payoff_value_scales_with_the_table(c):
    # the payoff is linear in the table's scale c.  Below unit scale the
    # solver's absolute stop rule, fed the blocks c xi_d unscaled, once read
    # 0.68922 c at c = 1e-3 (713 iterations), stagnated at 1e-6 and returned
    # c / 3 at 1e-9
    rng = np.random.default_rng(3)

    def channel():
        g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        q = np.linalg.qr(g)[0]
        return kraus_channel([q[0:2], q[2:4]]).matrix

    sec = channels_section(2, 2)
    e = Experiment(sec, tuple(channel() for _ in range(3)), np.full(3, 1.0 / 3.0))
    unit = max_payoff(e, classical_problem(np.eye(3)))
    res = max_payoff(e, classical_problem(c * np.eye(3)))
    tol = 10 * solver.DEFAULT_TOL * c * unit.value
    assert res.norm.status == "optimal"
    assert res.norm.iterations <= 2 * unit.norm.iterations
    assert abs(res.value - c * unit.value) <= tol
    # the witnesses are in the caller's units: Tr(q n) is the value, and the
    # emitted measurement achieves it
    assert abs(trace_pair(res.norm.primal_witness, sec.normalizer) - res.value) <= tol
    assert abs(c * (1.0 - povm_error(res.povm, e.family, e.prior)) - res.value) <= tol


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


def test_error_probabilities_are_never_negative():
    # The identity and the Z conjugation are perfectly distinguishable, so
    # the norm is 1; the solve may land a round-off above it, which must
    # read as error 0, not as a negative probability.
    c = channels_section(2, 2)
    b0 = kraus_channel([np.eye(2, dtype=complex)]).matrix
    b1 = kraus_channel([np.diag([1.0, -1.0]).astype(complex)]).matrix
    err, _, res = bayes_error(c, b0, b1, 0.5)
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= err <= 1e-9
    err, _, pay = multi_hypothesis_error(c, (b0, b1), np.array([0.5, 0.5]))
    assert pay.value == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= err <= 1e-9


def rand_channel(rng, d_in, d_out):
    n_kraus = int(rng.integers(1, d_in * d_out + 1))
    g = rng.normal(size=(d_out * n_kraus, d_in)) + 1j * rng.normal(size=(d_out * n_kraus, d_in))
    q, _ = np.linalg.qr(g)
    return kraus_channel([q[i * d_out : (i + 1) * d_out, :] for i in range(n_kraus)]).matrix


def test_bayes_error_escapes_a_balanced_stall(monkeypatch):
    # At this prior the residuals sit balanced, so balancing never moves the
    # penalty; stalls at 250 and 450 multiply it by 4 (564 iterations).
    keys = []
    next_point = solver._Anderson.next_point

    def spy(self, g, f, key, g_norm):
        keys.append(key)
        return next_point(self, g, f, key, g_norm)

    monkeypatch.setattr(solver._Anderson, "next_point", spy)
    rng = np.random.default_rng([0, 62])
    ch = channels_section(2, 3)
    b0, b1 = rand_channel(rng, 2, 3), rand_channel(rng, 2, 3)
    _, _, res = bayes_error(ch, b0, b1, 0.5, tol=1e-7)
    assert res.status == "optimal"
    assert abs(res.value - 0.6671834) <= 1e-6
    assert res.iterations < 1000
    assert any(new == 4.0 * old for old, new in zip(keys, keys[1:]))


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


def test_certify_optimal_rejects_a_measurement_on_another_section():
    e = uniform_experiment(states_section(2), (KET0, PLUS))
    p = classical_problem(np.eye(2))
    three = GeneralizedPOVM(states_section(3), (herm(np.diag([1.0, 0.0, 0.0])),
                                                herm(np.diag([0.0, 1.0, 1.0]))))
    with pytest.raises(ValidationError, match="3 x 3"):
        certify_optimal(three, e, p)
    # same dimension, but the effects of a states(4) measurement sum to I_4,
    # which is not in the dual of channels(2,2)
    c = channels_section(2, 2)
    psi = herm(max_entangled_projection(2).entries, (2, 2))
    e4 = uniform_experiment(c, (psi, herm(np.eye(4) / 2, (2, 2))))
    four = GeneralizedPOVM(states_section(4), (herm(np.diag([1.0, 0.0, 0.0, 0.0])),
                                               herm(np.diag([0.0, 1.0, 1.0, 1.0]))))
    with pytest.raises(ValidationError, match="dual section"):
        certify_optimal(four, e4, p)
    # an equal section built separately is accepted
    halves = tuple(herm(np.diag(v), (2, 2)) for v in ([0.5, 0, 0.5, 0], [0, 0.5, 0, 0.5]))
    twin = certify_optimal(GeneralizedPOVM(channels_section.__wrapped__(2, 2), halves), e4, p)
    same = certify_optimal(GeneralizedPOVM(c, halves), e4, p)
    assert twin.candidate_payoff == same.candidate_payoff


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


def test_certify_optimal_builds_the_payoff_blocks_once(monkeypatch):
    calls = []

    def counted(name):
        real = getattr(decisions, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return wrapper

    for name in ("build_xi", "classical_xi_blocks"):
        monkeypatch.setattr(decisions, name, counted(name))
    e = uniform_experiment(states_section(2), (KET0, PLUS))
    ops = (herm(np.diag([1.0, 0.2])), herm(np.diag([0.1, 0.9])))
    for p, built in ((classical_problem(np.eye(2)), "classical_xi_blocks"),
                     (quantum_problem(ops), "build_xi")):
        res = max_payoff(e, p, tol=1e-8)
        calls.clear()
        cert = certify_optimal(res.choi, e, p, tol=1e-5)
        assert cert.feasible
        assert calls == [built]


def random_quantum_payoff(rng, section, family_size, outcomes):
    """An experiment of ``family_size`` random members of ``section`` under a
    random prior, and random payoff operators 0 <= W <= I on ``outcomes``."""
    if section.label.startswith("states"):
        family = [rand_density(rng, section.ambient_dim) for _ in range(family_size)]
    else:
        d_in, d_out = section.dims[1], section.dims[0]
        family = [kraus_channel(rand_kraus_channel(rng, d_in, d_out, 2)).matrix
                  for _ in range(family_size)]
    experiment = Experiment(section, tuple(family), rng.dirichlet(np.ones(family_size)))
    ops = []
    for _ in range(family_size):
        u = np.linalg.qr(rng.normal(size=(outcomes, outcomes))
                         + 1j * rng.normal(size=(outcomes, outcomes)))[0]
        ops.append(herm((u * rng.uniform(0.0, 1.0, outcomes)) @ u.conj().T))
    return experiment, quantum_problem(ops)


def lifted_reference(experiment, problem, tol):
    """The quantum payoff in its lifted statement, I_k (x) (M s) - P = xi with
    objective Tr((M s) n) over span coordinates s, as a dense ConeProgram
    solved through the generic rows: (value, Y)."""
    sec, k = experiment.section, problem.n_outcomes
    d = sec.ambient_dim
    m = sec.span_matrix()
    lift = np.column_stack([hvec(tensor(identity(k), herm(hunvec(col, d)))) for col in m.T])
    n = lift.shape[0]
    program = ConeProgram(
        (Block(k * d), Block(m.shape[1], FREE)),
        np.concatenate([np.zeros(n), m.T @ hvec(sec.normalizer)]),
        np.hstack([-np.eye(n), lift]),
        hvec(build_xi(experiment, problem)),
        "lifted quantum payoff",
    )
    sol = solve(program, tol=tol)
    assert sol.status == "optimal" and isinstance(solver._rows(program), solver._DenseRows)
    return 0.5 * (sol.primal_value + sol.dual_value), hunvec(sol.dual_vector, k * d)


@pytest.mark.parametrize("build, outcomes", [
    (lambda: states_section(3), 3),
    (lambda: channels_section(2, 2), 2),
    (lambda: channels_section(2, 2), 3),
    (lambda: channels_section(3, 3), 3),
], ids=["states(3)-3", "channels(2,2)-2", "channels(2,2)-3", "channels(3,3)-3"])
def test_quantum_payoff_matches_the_lifted_dense_statement(build, outcomes):
    # the norm of xi over {I (x) b} against the lifted program it replaced
    tol = 1e-8
    experiment, problem = random_quantum_payoff(np.random.default_rng(91), build(), 3, outcomes)
    pay = max_payoff(experiment, problem, tol=tol)
    value, y = lifted_reference(experiment, problem, tol)
    assert abs(pay.value - value) <= 10 * tol * (1.0 + abs(value))
    (got,) = pay.norm.dual_witness
    assert got.subsystem_dims == (outcomes,) + experiment.section.dims
    assert np.max(np.abs(got.entries - y)) <= 1e-6
    q = pay.norm.primal_witness
    assert q.dims == experiment.section.dims
    xi = build_xi(experiment, problem)
    assert np.linalg.eigvalsh((tensor(identity(outcomes), q) - xi).entries)[0] >= -1e-6


def test_stopped_quantum_payoff_reports_q_on_the_section():
    # the SolverError of a stopped solve carries q = Tr_K Q / k, as an
    # optimal result does
    sec = channels_section(2, 2)
    experiment, problem = random_quantum_payoff(np.random.default_rng(93), sec, 3, 3)
    with pytest.raises(SolverError) as info:
        max_payoff(experiment, problem, max_iter=3)
    stopped = info.value.solution
    assert stopped.status == "max_iter" and stopped.primal_witness.dims == sec.dims
    (y,) = stopped.dual_witness
    assert y.subsystem_dims == (3,) + sec.dims


def test_quantum_payoff_reads_the_span_and_reuses_its_program(monkeypatch):
    # the payoff is one copy over the id-tensor section, whose span is the
    # side it reads: its complement stays a recipe, and the certificate of a
    # candidate that misses its slackness bound solves the same cached program
    sec = channels_section.__wrapped__(3, 3)
    experiment, problem = random_quantum_payoff(np.random.default_rng(92), sec, 2, 3)
    pay = max_payoff(experiment, problem, tol=1e-8)
    wrapped = id_tensor_section(sec, 3)
    assert not isinstance(wrapped._cache["complement"], np.ndarray)
    program = wrapped._cache[("majorant", 1)]
    assert not program.complement and program.columns is wrapped.span_matrix()
    seen, real = [], solver.solve
    monkeypatch.setattr(solver, "solve", lambda p, *a, **kw: seen.append(p) or real(p, *a, **kw))
    assert certify_optimal(pay.choi, experiment, problem, tol=1e-5).feasible
    assert seen == []  # the optimum is certified by its own witness
    blind = tensor(identity(3) / 3, partial_trace(pay.choi, 0))
    perturbed = 0.9 * pay.choi + 0.1 * blind
    assert not certify_optimal(perturbed, experiment, problem, tol=1e-5).feasible
    assert len(seen) == 1 and solver._rows(seen[0]) is solver._rows(program)
    assert not isinstance(wrapped._cache["complement"], np.ndarray)


def _instance(name):
    """(experiment, problem) of one named payoff instance. The first three have
    a positive definite T = Tr_D X^T at their optimum: the Helstrom problem on
    states(2), a three-hypothesis channels(2,2) problem (uniform prior, identity
    table) and a channels(3,3) quantum problem. The singular ones are
    two-hypothesis channels(2,2) problems, whose optimal testers have a
    rank-deficient input."""
    if name == "helstrom":
        return uniform_experiment(states_section(2), (KET0, PLUS)), classical_problem(np.eye(2))
    if name == "channels-3-hypotheses":
        rng = np.random.default_rng(5)
        family = [kraus_channel(rand_kraus_channel(rng, 2, 2, 2)).matrix for _ in range(3)]
        return uniform_experiment(channels_section(2, 2), family), classical_problem(np.eye(3))
    if name == "quantum":
        return random_quantum_payoff(np.random.default_rng(92), channels_section(3, 3), 2, 3)
    rng = np.random.default_rng(71)
    family = [kraus_channel(rand_kraus_channel(rng, 2, 2, 2)).matrix for _ in range(2)]
    e = uniform_experiment(channels_section(2, 2), family)
    if name == "singular-classical":
        return e, classical_problem(np.eye(2))
    return e, quantum_problem((herm(np.diag([1.0, 0.2])), herm(np.diag([0.1, 0.9]))))


@functools.cache
def _solved(name):
    """(experiment, problem, optimal candidate, its ``max_payoff`` at tol 1e-8),
    solved once per module."""
    e, p = _instance(name)
    pay = max_payoff(e, p, tol=1e-8)
    if name == "helstrom":
        candidate = helstrom(KET0, PLUS, 0.5)[1]
    elif name == "channels-3-hypotheses":
        candidate = pay.povm
    else:
        candidate = pay.choi
    return e, p, candidate, pay


def _perturbed(candidate):
    """0.9 X + 0.1 (I_D / k (x) Tr_D X): the same input marginal, a tenth of it guessed blind."""
    x = povm_to_choi(candidate) if isinstance(candidate, GeneralizedPOVM) else candidate
    k = x.subsystem_dims[0]
    return 0.9 * x + 0.1 * tensor(identity(k) / k, partial_trace(x, 0))


def _no_solve(*args, **kwargs):
    raise AssertionError("certify_optimal solved")


@pytest.mark.parametrize("name", ["helstrom", "channels-3-hypotheses", "quantum"])
def test_an_optimal_candidate_is_certified_by_its_own_witness(monkeypatch, name):
    e, p, candidate, pay = _solved(name)
    monkeypatch.setattr(solver, "solve", _no_solve)
    tol = 1e-6
    cert = certify_optimal(candidate, e, p, tol=tol)
    assert cert.feasible
    # the certificate is sound: q is in the span and majorizes xi, so Tr(q n)
    # bounds the optimum from above, and the candidate's payoff lies within tol
    q = cert.witness_q
    scale = 1.0 + np.linalg.norm(build_xi(e, p).entries)
    assert _off_span(*e.section.projector(), q) <= 1e-12 * scale
    assert cert.majorization_residual <= 1e-12 * scale
    assert cert.payoff_at_optimum == pytest.approx(trace_pair(q, e.section.normalizer), abs=1e-15)
    payoff = cert.candidate_payoff
    assert payoff <= cert.payoff_at_optimum <= payoff + tol * max(1.0, abs(payoff))
    assert cert.payoff_at_optimum >= pay.value - pay.norm.gap


@pytest.mark.parametrize("case", ["helstrom-perturbed", "channels-3-hypotheses-perturbed",
                                  "quantum-perturbed", "singular-classical", "singular-quantum"])
def test_a_fallback_certificate_is_the_payoff_solve(monkeypatch, case):
    # the optima perturbed miss their slackness bound; the singular optima have none
    singular = case.startswith("singular")
    e, p, candidate, pay = _solved(case.removesuffix("-perturbed"))
    if not singular:
        candidate = _perturbed(candidate)
    seen, real = [], solver.solve
    monkeypatch.setattr(solver, "solve", lambda *a, **kw: seen.append(1) or real(*a, **kw))
    cert = certify_optimal(candidate, e, p, tol=1e-5, solve_tol=1e-8)
    assert len(seen) == 1
    assert cert.feasible == singular
    bound = decisions._slackness_bound(e.section, build_xi(e, p), transpose_in_basis(candidate),
                                       p.n_outcomes)
    if singular:
        assert bound is None  # T is singular
    else:
        assert bound[1] - cert.candidate_payoff > 1e-5 * max(1.0, abs(cert.candidate_payoff))
    assert cert.payoff_at_optimum == pay.value
    assert np.array_equal(cert.witness_q.entries, pay.norm.primal_witness.entries)


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


def test_decompose_povm_reads_rank_deficient_solver_totals():
    """Bayes-optimal testers between random channels: the optimal inputs are
    often rank deficient, so the solver-built total, validated at the
    measurement's own tolerance, can have eigenvalues just below -1e-9.  Its
    support still carries an ordinary measurement: c^(1/2) L_d c^(1/2) is
    M_d compressed to the support P of c, and the L_d sum to P."""
    rng = np.random.default_rng(1)
    below = 0
    for _ in range(60):
        d = int(rng.integers(2, 4))
        b0, b1 = rand_channel(rng, d, d), rand_channel(rng, d, d)
        lam = rng.uniform(0.2, 0.8)
        povm = bayes_error(channels_section(d, d), b0, b1, lam)[1]
        below += not psd_check(povm.total(), 1e-9)
        c, lams = decompose_povm(povm)
        p = support_projection(c).entries
        r = sqrt_psd(abs_pos_neg(c)[1]).entries
        for m, lam_d in zip(povm.effects, lams):
            assert np.max(np.abs(r @ lam_d.entries @ r - p @ m.entries @ p)) <= 1e-10
        assert np.max(np.abs(sum(lams).entries - p)) <= 1e-6
    assert below > 0


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


def test_experiment_json_without_a_problem_has_no_payoff():
    e = uniform_experiment(states_section(2), (KET0, PLUS))
    obj = experiment_to_json(e)
    assert "payoff" not in obj
    e2, p2 = experiment_from_json(json.loads(json.dumps(obj)))
    assert p2 is None and e2.size == 2


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


@pytest.mark.parametrize("dims", [(), (2, 2)])
def test_povm_and_choi_round_trip_on_a_restricted_section(dims):
    # the effects live on the caller's space, not on the support the section is restricted to
    d = 2 if not dims else 4
    top = np.diag([1.0] + [0.0] * (d - 1))
    s = singleton_section(herm(top, dims))
    half = herm(top / 2, dims)
    povm = GeneralizedPOVM(s, (half, half))
    x = povm_to_choi(povm)
    assert x.subsystem_dims == (2,) + (dims or (d,))
    back = choi_to_povm(s, x)
    for got, want in zip(back.effects, povm.effects):
        assert got.subsystem_dims == (dims or (d,))
        assert np.array_equal(got.entries, want.entries)


def test_choi_to_povm_names_blocks_of_another_size():
    with pytest.raises(ShapeError, match="Choi blocks are 3 x 3, the section's are 2 x 2"):
        choi_to_povm(states_section(2), herm(np.eye(6), (2, 3)))
