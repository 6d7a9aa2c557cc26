"""Independent sampling-based references for the conic machinery.

Nothing here touches the solver: members are generated by mixing the stored
interior point with random span directions scaled inside the cone boundary,
which has a closed form, and the norm bounds are the elementary sandwich

    max over sampled dual members y of |y^(1/2) x y^(1/2)|_1
        <=  |x|_B  <=
    min over sampled members b of |b^(-1/2) x b^(-1/2)|,

sound for any sample quality.  ``grid_hmin`` brute-forces the conditional
min-entropy of a two-qubit-conditioning system over a Bloch-ball grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .choi import choi_matrix
from .errors import DomainError, ShapeError
from .hermitian import HermitianMatrix, eigenvalues, pinv_sqrt
from .norms import base_norm_singleton, order_unit_norm_singleton
from .sections import Section, dual_section

BOUNDARY_BACKOFF = 0.98


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Deterministically generated members of one section."""

    section: Section
    points: tuple[HermitianMatrix, ...]
    seed: int


def sample_section(section: Section, n: int, seed: int = 0) -> SampleSet:
    """Draw n members: interior point b0 plus a random in-slice direction D,
    scaled by a uniform fraction of BOUNDARY_BACKOFF times the distance to the
    cone boundary in closed form (:func:`_boundary`).  DomainError for n < 0."""
    if n < 0:
        raise DomainError(f"sample count must be non-negative, got {n}")
    rng = np.random.default_rng(seed)
    b0 = section.interior_point
    r = pinv_sqrt(b0).entries  # b0 is positive definite
    k = section.span_dim
    # Span directions tangent to the slice: coefficients orthogonal to the
    # pairing row Tr(J_i n).
    pairing = section.span_coords(section.normalizer)
    p_norm2 = float(pairing @ pairing)
    points = []
    for _ in range(n):
        g = rng.normal(size=k)
        if p_norm2 > 0:
            g = g - (g @ pairing) / p_norm2 * pairing
        nrm = float(np.linalg.norm(g))
        if nrm < 1e-14:
            points.append(section.lift(b0))
            continue
        direction = section.from_span_coords(g / nrm)
        t_max = _boundary(r, direction)
        t = float(rng.uniform(0.0, BOUNDARY_BACKOFF)) * t_max
        points.append(section.lift(b0 + t * direction))
    return SampleSet(section, tuple(points), seed)


def _boundary(r: np.ndarray, direction: HermitianMatrix) -> float:
    """The largest t with b0 + t D >= 0, for r = b0^(-1/2): b0 + t D =
    b0^(1/2) (I + t r D r) b0^(1/2) leaves the cone at t = -1/lambda_min(r D r).
    Capped at 1e12, which also stands for a direction that never leaves it."""
    low = float(eigenvalues(HermitianMatrix(r @ direction.entries @ r))[-1])
    return min(-1.0 / low, 1e12) if low < 0.0 else 1e12


def norm_lower_bound(section: Section, x: HermitianMatrix, dual_samples: SampleSet) -> float:
    """max over sampled dual members y of |y^(1/2) x y^(1/2)|_1; never above
    the true norm."""
    xc = section.compress(x)
    if xc is None:
        return math.inf
    dual = dual_section(section)
    best = 0.0
    for y in dual_samples.points:
        yc = dual.compress(y)
        if yc is None:
            continue
        best = max(best, base_norm_singleton(yc, xc))
    return best


def norm_upper_bound(section: Section, x: HermitianMatrix, samples: SampleSet) -> float:
    """min over sampled members b of |b^(-1/2) x b^(-1/2)|; never below the
    true norm (off-support samples contribute +inf)."""
    xc = section.compress(x)
    if xc is None:
        return math.inf
    best = math.inf
    for b in samples.points:
        bc = section.compress(b)
        if bc is None:
            continue
        best = min(best, order_unit_norm_singleton(bc, xc))
    return best


def grid_hmin(sigma: HermitianMatrix, resolution: int = 200) -> float:
    """Brute-force conditional min-entropy for a qubit conditioning system.

    Scans conditioning states over a Bloch-ball grid (Fibonacci directions x
    radii, center included) and minimizes log2 of the smallest t with
    sigma <= t I (x) rho.  Converges to the entropy from below as the grid
    refines.  DomainError for a resolution below 1.
    """
    if resolution < 1:
        raise DomainError(f"grid resolution must be at least 1, got {resolution}")
    d_k, d_h = choi_matrix(sigma, "grid_hmin's sigma").subsystem_dims
    if d_h != 2:
        raise ShapeError("grid_hmin supports only a 2-dimensional conditioning system")
    res = int(resolution)
    pauli = np.array(
        [
            [[0, 1], [1, 0]],
            [[0, -1j], [1j, 0]],
            [[1, 0], [0, -1]],
        ],
        dtype=complex,
    )

    idx = np.arange(res)
    golden = (1 + math.sqrt(5.0)) / 2
    z = 1.0 - 2.0 * (idx + 0.5) / res
    phi = 2.0 * math.pi * idx / golden
    dirs = np.stack(
        [np.sqrt(1 - z**2) * np.cos(phi), np.sqrt(1 - z**2) * np.sin(phi), z], axis=1
    )
    radii = np.linspace(0.0, 1.0 - 1.0 / res, res)

    # rho = (I + r . pauli) / 2 stacked over the whole grid
    vecs = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
    vecs = np.concatenate([np.zeros((1, 3)), vecs])  # exact center
    rho = 0.5 * (np.eye(2)[None, :, :] + np.einsum("nk,kij->nij", vecs, pauli))

    w, u = np.linalg.eigh(rho)
    w = np.clip(w, 1e-300, None)
    rinv = np.einsum("nik,nk,njk->nij", u, 1.0 / np.sqrt(w), u.conj())
    # assemble I_K (x) rho^(-1/2) blockwise over the grid
    n = rho.shape[0]
    lift = np.zeros((n, 2 * d_k, 2 * d_k), dtype=complex)
    for i in range(d_k):
        lift[:, 2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = rinv
    conj = lift @ sigma.entries[None, :, :] @ lift
    tvals = np.linalg.eigvalsh(conj)[:, -1]
    tvals = np.where(tvals <= 0, np.inf, tvals)
    return float(-np.log2(np.min(tvals)))
