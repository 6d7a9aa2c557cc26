"""Sampling determinism, bound soundness and the brute-force entropy grid."""

import math

import numpy as np
import pytest

from conftest import rand_herm
from gnorm.choi import max_entangled_state
from gnorm.errors import DomainError, ShapeError
from gnorm.hermitian import herm, identity, partial_trace, tensor, trace_norm
from gnorm.norms import base_norm, hmin
from gnorm.oracles import grid_hmin, norm_lower_bound, norm_upper_bound, sample_section
from gnorm.sections import channels_section, contains, dual_section, singleton_section, states_section


def test_sample_membership_and_determinism():
    s = states_section(2)
    a = sample_section(s, 10, seed=5)
    b = sample_section(s, 10, seed=5)
    for p, q in zip(a.points, b.points):
        assert np.allclose(p.entries, q.entries)
        assert contains(s, p, 1e-8)
    c = sample_section(s, 10, seed=6)
    assert not all(np.allclose(p.entries, q.entries) for p, q in zip(a.points, c.points))


def test_singleton_samples_are_copies():
    b = identity(3) / 3
    sec = singleton_section(b)
    ss = sample_section(sec, 4, seed=0)
    for p in ss.points:
        assert np.allclose(p.entries, b.entries)


def test_channel_samples_satisfy_marginal_constraint():
    c = channels_section(2, 2)
    ss = sample_section(c, 10, seed=7)
    for p in ss.points:
        assert contains(c, p, 1e-8)
        assert np.linalg.norm(partial_trace(p, 0).entries - np.eye(2)) <= 1e-8


def test_bounds_collapse_for_states_section():
    rng = np.random.default_rng(8)
    s = states_section(2)
    x = rand_herm(rng, 2)
    duals = sample_section(dual_section(s), 3, seed=9)
    lo = norm_lower_bound(s, x, duals)
    assert lo == pytest.approx(trace_norm(x), abs=1e-10)
    zero = herm(np.zeros((2, 2)))
    assert norm_lower_bound(s, zero, duals) == 0.0
    assert norm_upper_bound(s, zero, sample_section(s, 3, seed=10)) == 0.0


def test_sandwich_brackets_solver_value():
    rng = np.random.default_rng(11)
    c = channels_section(2, 2)
    members = sample_section(c, 20, seed=12)
    duals = sample_section(dual_section(c), 20, seed=13)
    for _ in range(10):
        x = rand_herm(rng, 4, dims=(2, 2))
        val = base_norm(c, x, tol=1e-8).value
        lo = norm_lower_bound(c, x, duals)
        hi = norm_upper_bound(c, x, members)
        assert lo <= val + 1e-6
        assert val <= hi + 1e-6


def test_bounds_tighten_with_more_samples():
    rng = np.random.default_rng(14)
    c = channels_section(2, 2)
    x = rand_herm(rng, 4, dims=(2, 2))
    lo_prev, hi_prev = 0.0, math.inf
    for n in (5, 10, 20, 40):
        members = sample_section(c, n, seed=15)
        duals = sample_section(dual_section(c), n, seed=16)
        lo = norm_lower_bound(c, x, duals)
        hi = norm_upper_bound(c, x, members)
        # fixed seed chain: larger sample sets extend smaller ones only in
        # count, so bounds are weakly monotone
        assert lo >= lo_prev - 1e-12
        assert hi <= hi_prev + 1e-12
        lo_prev, hi_prev = lo, hi


def test_grid_hmin_matches_analytic_values():
    phi = herm(max_entangled_state(2).entries, (2, 2))
    assert grid_hmin(phi, 200) == pytest.approx(-1.0, abs=1e-9)
    assert grid_hmin(identity((2, 2)) / 4, 200) == pytest.approx(1.0, abs=1e-9)
    tau = herm(np.diag([0.9, 0.1]))
    sigma = tensor(tau, identity(2) / 2)
    assert grid_hmin(sigma, 200) == pytest.approx(-math.log2(0.9), abs=1e-6)


def test_grid_hmin_tracks_solver():
    phi = herm(max_entangled_state(2).entries, (2, 2))
    assert abs(grid_hmin(phi, 200) - hmin(phi, tol=1e-8)) <= 2e-3


def test_grid_hmin_rejects_other_dims():
    with pytest.raises(ShapeError):
        grid_hmin(identity((2, 3)) / 6, 50)


def test_sampling_and_grid_reject_bad_counts():
    s = states_section(2)
    assert sample_section(s, 0).points == ()
    with pytest.raises(DomainError):
        sample_section(s, -1)
    phi = herm(max_entangled_state(2).entries, (2, 2))
    for resolution in (0, -3, 0.5):
        with pytest.raises(DomainError):
            grid_hmin(phi, resolution)
    assert grid_hmin(phi, 1) >= -1.0 - 1e-9
