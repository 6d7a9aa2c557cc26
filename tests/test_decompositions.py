"""Matrix decompositions per call outside the solver, and the closed-form
sampling boundary against the bisection it replaced.

Every closed form, validator and oracle reads one eigendecomposition per
matrix; the counts below are np.linalg.eigh, eigvalsh and svd calls made by
the second of two identical calls, so cached sections are warm.
"""

import numpy as np
import pytest

from gnorm import oracles
from gnorm.decisions import helstrom, quantum_problem
from gnorm.hermitian import diag, herm, identity, pinv_sqrt
from gnorm.norms import base_norm, dmax
from gnorm.sections import (
    channels_section,
    comb_section,
    custom_section,
    dual_section,
    full_slice_section,
    generalized_section,
    singleton_section,
    states_section,
)


@pytest.fixture
def decompositions(monkeypatch):
    """count(fn): calls fn twice and returns the decompositions the second call makes."""
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        def counted(*args, _real=getattr(np.linalg, name), **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def count(fn):
        fn()
        calls.clear()
        fn()
        return len(calls)

    return count


X4 = herm(np.arange(16.0).reshape(4, 4) + 1j * np.tri(4, 4, -1))
B3 = herm([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 0.5]])
RHO0 = herm([[0.7, 0.2], [0.2, 0.3]])
RHO1 = herm([[0.5, -0.5j], [0.5j, 0.5]])
W = herm([[0.9, 0.1], [0.1, 0.2]])

CASES = {
    "sample_section(channels(2,2), 40)": (
        lambda: oracles.sample_section(channels_section(2, 2), 40), 41
    ),
    "closed-form base_norm(states(4), x)": (lambda: base_norm(states_section(4), X4), 2),
    "singleton_section, positive definite": (lambda: singleton_section(B3), 3),
    "singleton_section, rank deficient": (lambda: singleton_section(diag([0.6, 0.4, 0.0])), 3),
    "full_slice_section": (lambda: full_slice_section(B3), 3),
    "dmax": (lambda: dmax(diag([0.5, 0.3, 0.2]), B3), 3),
    "helstrom": (lambda: helstrom(RHO0, RHO1, 0.4), 6),
    "quantum_problem, 2 operators": (lambda: quantum_problem([W, identity(2) - W]), 2),
    "generalized_section(states(2), 2)": (lambda: generalized_section(states_section(2), 2), 2),
    "custom_section, 2 matrices": (
        lambda: custom_section([identity(2), diag([1.0, -1.0])], identity(2)), 2
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_decompositions_per_call(decompositions, case):
    fn, expected = CASES[case]
    assert decompositions(fn) == expected


def bisect_to_boundary(b0, direction):
    """The bisection the sampler used before the closed form: the largest t
    with b0 + t D >= 0 to 80 halvings, capped at 1e12."""

    def min_eig(t):
        return float(np.linalg.eigvalsh(b0.entries + t * direction.entries)[0])

    hi = 1.0
    for _ in range(60):
        if min_eig(hi) < 0:
            break
        hi *= 2.0
        if hi > 1e12:
            return 1e12
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if min_eig(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


def restricted_custom():
    e00, e11 = diag([1.0, 0.0, 0.0]), diag([0.0, 1.0, 0.0])
    off = herm([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return custom_section([e00, e11, off], identity(3))


@pytest.mark.parametrize(
    "build",
    [
        lambda: channels_section(2, 2),
        lambda: channels_section(3, 3),
        lambda: comb_section((2, 2, 2, 2)),
        lambda: dual_section(channels_section(3, 3)),
        restricted_custom,
    ],
    ids=["channels(2,2)", "channels(3,3)", "comb(2,2,2,2)", "dual(channels(3,3))", "restricted"],
)
def test_closed_form_boundary_matches_bisection(build):
    section = build()
    b0 = section.interior_point
    r = pinv_sqrt(b0).entries
    pairing = section.span_coords(section.normalizer)
    samples = oracles.sample_section(section, 8, seed=3)
    # the draws of sample_section, replayed with the bisection's boundary
    rng = np.random.default_rng(3)
    for point in samples.points:
        g = rng.normal(size=section.span_dim)
        g = g - (g @ pairing) / (pairing @ pairing) * pairing
        direction = section.from_span_coords(g / np.linalg.norm(g))
        t_max = oracles._boundary(r, direction)
        reference = bisect_to_boundary(b0, direction)
        assert abs(t_max - reference) <= 1e-12 * reference
        t = rng.uniform(0.0, oracles.BOUNDARY_BACKOFF) * reference
        expected = section.lift(b0 + t * direction).entries
        assert np.max(np.abs(point.entries - expected)) <= 1e-12 * np.max(np.abs(expected))
