"""Self-contained first-order solver for conic programs.

Programs are stated over a list of variable blocks, each either a hermitian
PSD block (a d x d matrix variable constrained to the PSD cone, parametrized
by d^2 real coordinates via ``hvec`` so that the trace inner product is the
Euclidean one) or a free real vector block.  The problem solved is

    minimize    c . z
    subject to  A z = b,   z in K = (product of PSD cones and free spaces).

Algorithm: over-relaxed ADMM, alternating a projection onto the affine set
{A z = b} with a projection onto the cone product.  How the affine
projection is done follows from the program's structure:

* a :class:`MajorantProgram` (rows L_j s - P_j = b_j with
  sum_j L_j^T L_j = sigma I, the shape of every program the library solves:
  norms of any input, payoffs, certificates, interior points and recession
  searches) is projected in closed form, with products by the lifts L_j
  only: A A^T = I + L L^T has the inverse I - L L^T / (1 + sigma), and
  neither A nor A A^T is ever formed;
* a generic :class:`ConeProgram`, which only a caller states, keeps its
  dense A and a cached eigen pseudo-inverse of A A^T (which also covers
  dependent rows).

The cone projection groups consecutive PSD blocks of one dimension into
runs (a base or diamond norm has one run of two blocks, a classical payoff
one run of a block per outcome) and projects each run as one stack: one
``hunvec``, one batched ``eigh``, one rebuild and one ``hvec``; a block
without a negative eigenvalue keeps its coordinates.  On the small programs
that dominate calls, an iteration is mostly numpy call overhead paid per
block, so this halves the PSD projection of a diamond-norm iteration.

Neither affine projection depends on the penalty parameter, so
residual-balancing updates of the penalty cost nothing.  Dual variables for
the equality constraints are recovered from the first-order conditions of
the affine step; the cone-side scaled dual ``w`` furnishes an exactly
dual-cone-feasible slack s = -rho w.

Acceleration: one ADMM step is a fixed-point map T: u = (v, w) -> (v+, w+),
and the iteration is safeguarded type-II Anderson acceleration of T
(Zhang, O'Donoghue and Boyd, SIAM J. Optim. 30, 2020).  From the last
``ANDERSON_MEMORY`` differences of g = u - T(u) and of T(u) it extrapolates
the next point T(u) - dF^T gamma; a fit whose weights exceed
``ANDERSON_MAX_WEIGHT`` is skipped.  The safeguard evaluates T at that
point, which is the next iteration's step anyway: the point stands if its
|g| is no larger than the previous one, and otherwise the memory is
cleared and the iteration steps from the plain T(u) instead, the only case
that costs an extra step (``ConeSolution.rejected`` counts them).  Every
penalty change clears the memory too, since T depends on the penalty.
Residual checks, the best iterate and the returned point are always the
plain image T(u), never an extrapolated point: its PSD blocks are exact
cone projections and s = -rho w stays in the dual cone.

The memory of 20 comes from a sweep over 10, 20 and 30.  Iterations per
traced seed-1 benchmark pass (norms-small / norms-large / decisions) were
1150 / 2400 / 900, 900 / 1750 / 825 and 875 / 1750 / 750, and the 100
payoff solves of acceptance criterion 7 took 26075, 24625 and 28425.
A memory of 30 also breaks two unit tests built for a smaller memory (at
dimension 30 plain iteration comes within 1e-2 of their affine fixed
point as well, and their four solves no longer change the penalty), so
20 is kept.

Stopping: mixed absolute/relative primal residual, dual residual and duality
gap all below the requested tolerance, on the first iteration where they
are.  Every iteration screens the gap and the dual residual from values the
step already holds (the dual residual by the affine step's first-order
identity, Boyd et al., Found. Trends Mach. Learn. 3, 2011, section 3.3); an
iterate that passes gets the full check, products by A and A^T included,
which alone decides.  The full check also runs every ``CHECK_EVERY``
iterations, and only those checks keep the best iterate and drive residual
balancing and the plateau ladder, so the screen changes nothing but the
iteration the run stops at.  Inconsistent affine rows are reported
as infeasible before the loop.  Balanced residuals that stop improving for
``PLATEAU_WINDOW`` iterations walk the penalty up a ladder of six bumps; a
plateau after the last bump ends the run with the best iterate found and
status "stagnated" (first-order methods carry no exact infeasibility
certificates).

A solve is single-threaded and owns its iterate workspace; concurrent solves
on independent programs are safe (the per-program caches are written once).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError, SolverError
from .hermitian import HermitianMatrix, hunvec, hvec

PSD = "psd"
FREE = "free"

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 50000
OVER_RELAXATION = 1.5
PLATEAU_WINDOW = 1200
CHECK_EVERY = 25
RHO_ADAPT_EVERY = 100
ANDERSON_MEMORY = 20
ANDERSON_MAX_WEIGHT = 1e4
ANDERSON_REGULARIZATION = 1e-10


@dataclass(frozen=True, eq=False)
class Block:
    """One variable block: a PSD matrix of size ``dim`` or a free vector."""

    dim: int
    cone: str = PSD

    def __post_init__(self):
        if self.cone not in (PSD, FREE):
            raise ShapeError(f"unknown cone kind {self.cone!r}")
        if self.dim < 1:
            raise ShapeError("block dimension must be positive")

    @property
    def real_dim(self) -> int:
        return self.dim * self.dim if self.cone == PSD else self.dim


def _require_finite(*arrays):
    if not all(np.isfinite(a).all() for a in arrays):
        raise ShapeError(
            "program objective, rows or right-hand side has non-finite (NaN or infinite) entries"
        )


class _ProgramData:
    """What every program offers the solver and its callers."""

    @property
    def total_dim(self) -> int:
        return sum(b.real_dim for b in self.blocks)

    def with_rhs(self, rhs):
        """Same program with a new right-hand side, sharing the cached
        affine-projection data."""
        return dataclasses.replace(self, eq_rhs=rhs)

    def with_objective(self, objective):
        return dataclasses.replace(self, objective=objective)


@dataclass(frozen=True, eq=False)
class ConeProgram(_ProgramData):
    """Standard-form conic program data.

    ``objective`` is a real vector over the concatenated real parametrization
    of the blocks; ``eq_matrix`` / ``eq_rhs`` give the affine equality rows.
    """

    blocks: tuple[Block, ...]
    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    description: str = ""
    _shared: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        n = sum(b.real_dim for b in self.blocks)
        c = np.asarray(self.objective, dtype=float).reshape(-1)
        a = np.asarray(self.eq_matrix, dtype=float)
        rhs = np.asarray(self.eq_rhs, dtype=float).reshape(-1)
        if c.shape[0] != n:
            raise ShapeError(f"objective length {c.shape[0]} != total block dim {n}")
        if a.ndim != 2 or a.shape[1] != n:
            raise ShapeError(f"constraint matrix shape {a.shape} incompatible with n={n}")
        if rhs.shape[0] != a.shape[0]:
            raise ShapeError(f"rhs length {rhs.shape[0]} != row count {a.shape[0]}")
        _require_finite(c, a, rhs)
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", a)
        object.__setattr__(self, "eq_rhs", rhs)


@dataclass(frozen=True, eq=False)
class MajorantProgram(_ProgramData):
    """The majorant program over z = (P_1, ..., P_m, s):

        minimize    c . z
        subject to  L_j s - P_j = b_j,   P_j PSD,   s a free vector,

    for lifts L_j (d_j^2 x k) with sum_j L_j^T L_j = sigma I, checked on
    construction.  ``eq_rhs`` stacks the b_j.  Consecutive blocks that share
    one lift array share its products in the solve.  ``eq_matrix``, the dense
    A = [-I | L], is built on first read for :func:`dump_program` and other
    outside readers; :func:`solve` never reads it.  Every program the library
    solves has this shape.
    """

    lifts: tuple[np.ndarray, ...]
    objective: np.ndarray
    eq_rhs: np.ndarray
    description: str = ""
    _shared: dict = field(default_factory=dict, repr=False, compare=False)
    blocks: tuple[Block, ...] = field(init=False, repr=False)

    def __post_init__(self):
        lifts = tuple(np.asarray(m, dtype=float) for m in self.lifts)
        if not lifts or any(m.ndim != 2 for m in lifts):
            raise ShapeError("a majorant program needs at least one 2-d lift")
        k = lifts[0].shape[1]
        dims = [math.isqrt(m.shape[0]) for m in lifts]
        for m, d in zip(lifts, dims):
            if m.shape[1] != k or d < 1 or d * d != m.shape[0]:
                raise ShapeError(f"lift of shape {m.shape} is not (d^2, {k})")
        blocks = tuple(Block(d, PSD) for d in dims) + (Block(k, FREE),)
        n_rows = sum(m.shape[0] for m in lifts)
        c = np.asarray(self.objective, dtype=float).reshape(-1)
        rhs = np.asarray(self.eq_rhs, dtype=float).reshape(-1)
        if c.shape[0] != n_rows + k:
            raise ShapeError(f"objective length {c.shape[0]} != total block dim {n_rows + k}")
        if rhs.shape[0] != n_rows:
            raise ShapeError(f"rhs length {rhs.shape[0]} != row count {n_rows}")
        _require_finite(c, rhs)
        object.__setattr__(self, "lifts", lifts)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_rhs", rhs)
        if "rows" not in self._shared:
            # once per program family: with_rhs / with_objective share the lifts
            _require_finite(*lifts)
            self._shared["rows"] = _MajorantRows(lifts)

    @property
    def eq_matrix(self) -> np.ndarray:
        got = self._shared.get("eq_matrix")
        if got is None:
            n_rows = self.eq_rhs.shape[0]
            got = np.zeros((n_rows, self.total_dim))
            got[np.arange(n_rows), np.arange(n_rows)] = -1.0
            row = 0
            for m in self.lifts:
                got[row : row + m.shape[0], n_rows:] = m
                row += m.shape[0]
            self._shared["eq_matrix"] = got
        return got


@dataclass(frozen=True, eq=False)
class ConeSolution:
    """Certified primal-dual output of :func:`solve`.

    ``primal_point`` holds one entry per block (a hermitian ndarray for PSD
    blocks, a real vector for free blocks); ``dual_vector`` is the equality
    multiplier y and ``dual_slack`` the per-block slack of c - A^T y.
    """

    # optimal | max_iter (the iteration cap) | stagnated (a residual plateau
    # after the last penalty ladder bump) | infeasible (inconsistent affine
    # rows)
    status: str
    primal_value: float
    dual_value: float
    primal_point: tuple
    dual_vector: np.ndarray
    dual_slack: tuple
    primal_residual: float
    dual_residual: float
    gap: float
    iterations: int  # iterations run (each one ADMM step)
    best_iteration: int  # the iteration of the returned iterate
    rejected: int  # safeguard rejections, each one extra ADMM step

    @property
    def max_residual(self) -> float:
        return max(self.primal_residual, self.dual_residual, self.gap)


def _block_slices(blocks: tuple[Block, ...]) -> list[slice]:
    out, k = [], 0
    for b in blocks:
        out.append(slice(k, k + b.real_dim))
        k += b.real_dim
    return out


class _DenseRows:
    """The rows A z = b of a generic program: dense products with A and an
    eigen pseudo-inverse of A A^T (dependent rows are allowed)."""

    def __init__(self, a: np.ndarray):
        self.a = a
        w, u = np.linalg.eigh(a @ a.T)
        keep = w > 1e-12 * max(1.0, float(w[-1]))
        self._u, self._winv = u[:, keep], 1.0 / w[keep]

    def _gram_solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._u @ (self._winv * (self._u.T @ rhs))

    def consistent(self, b: np.ndarray) -> bool:
        """Whether A z = b has a solution at all."""
        y_ls = self._gram_solve(b)
        miss = float(np.linalg.norm(self.a @ (self.a.T @ y_ls) - b))
        return miss <= 1e-8 * (1.0 + float(np.linalg.norm(b)))

    def apply(self, z: np.ndarray) -> np.ndarray:
        return self.a @ z

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self.a.T @ y

    def project(self, zeta: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Projection of zeta onto {A z = b} and its multiplier (A A^T)^-1 (A zeta - b)."""
        mult = self._gram_solve(self.a @ zeta - b)
        return zeta - self.a.T @ mult, mult


class _MajorantRows:
    """The rows L_j s - P_j = b_j of a :class:`MajorantProgram`.

    With L the stacked lifts, A A^T = I + L L^T and L^T L = sigma I, so
    (A A^T)^-1 = I - L L^T / (1 + sigma).  Projecting zeta = (P~, s~) is then,
    with e_j = L_j s~ - P~_j - b_j and u = sum_j L_j^T e_j / (1 + sigma),

        s = s~ - u,   P_j = L_j s - b_j,   multiplier_j = e_j - L_j u = P_j - P~_j.
    """

    def __init__(self, lifts: tuple[np.ndarray, ...]):
        # Runs of consecutive blocks sharing one lift array: (lift, rows,
        # copies), ``rows`` being the run's slice of the stacked rows.
        self.runs = []
        lo = 0
        for m in lifts:
            hi = lo + m.shape[0]
            if self.runs and self.runs[-1][0] is m:
                _, rows, copies = self.runs[-1]
                self.runs[-1] = (m, slice(rows.start, hi), copies + 1)
            else:
                self.runs.append((m, slice(lo, hi), 1))
            lo = hi
        self.n_rows = lo
        k = lifts[0].shape[1]
        gram = sum(copies * (m.T @ m) for m, _, copies in self.runs)
        sigma = float(np.trace(gram)) / k
        if not sigma > 0.0 or float(np.max(np.abs(gram - sigma * np.eye(k)))) > 1e-9 * sigma:
            raise ShapeError("majorant lifts must satisfy sum_j L_j^T L_j = sigma I")
        self.sigma = sigma
        self.shrink = 1.0 / (1.0 + sigma)

    def consistent(self, b: np.ndarray) -> bool:
        """Always: the -I columns give A full row rank."""
        return True

    def _lift_minus(self, s: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The stacked L_j s - y_j written into ``out``: one product per run,
        broadcast over the run's (copies, d^2) view."""
        for m, rows, copies in self.runs:
            np.subtract(m @ s, y[rows].reshape(copies, -1), out=out[rows].reshape(copies, -1))
        return out

    def _pull(self, y: np.ndarray) -> np.ndarray:
        """sum_j L_j^T y_j, one product per run."""
        out = 0.0
        for m, rows, copies in self.runs:
            out = out + m.T @ y[rows].reshape(copies, -1).sum(axis=0)
        return out

    def apply(self, z: np.ndarray) -> np.ndarray:
        n = self.n_rows
        return self._lift_minus(z[n:], z[:n], np.empty(n))

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return np.concatenate([-y, self._pull(y)])

    def project(self, zeta: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_rows
        s_t = zeta[n:]
        out = np.empty_like(zeta)
        e = self._lift_minus(s_t, zeta[:n], out[:n])
        e -= b
        s = out[n:]
        np.subtract(s_t, self.shrink * self._pull(e), out=s)
        p = self._lift_minus(s, b, out[:n])
        return out, p - zeta[:n]


def _rows(program) -> _DenseRows | _MajorantRows:
    """The program's affine-row operator: given for a majorant program, built
    (and factorized) once per generic program and shared with its
    ``with_rhs`` / ``with_objective`` copies."""
    cache = program._shared
    if "rows" not in cache:
        cache["rows"] = _DenseRows(program.eq_matrix)
    return cache["rows"]


def _psd_runs(blocks) -> list[tuple[int, int, int]]:
    """(start, stop, d) in real coordinates of each run of consecutive PSD
    blocks of one dimension d."""
    runs, lo = [], 0
    for blk in blocks:
        hi = lo + blk.real_dim
        if blk.cone == PSD:
            if runs and runs[-1][1] == lo and runs[-1][2] == blk.dim:
                runs[-1] = (runs[-1][0], hi, blk.dim)
            else:
                runs.append((lo, hi, blk.dim))
        lo = hi
    return runs


def _positive_part(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and positive parts of hermitian matrices stacked
    along leading axes: one batched ``eigh`` and one rebuild."""
    w, u = np.linalg.eigh(mats)
    return w, (u * np.maximum(w, 0.0)[..., None, :]) @ u.conj().swapaxes(-1, -2)


def _project_cone(z: np.ndarray, runs) -> None:
    """Project z onto the cone product in place.  Each run of PSD blocks is
    projected as one stack; a block without a negative eigenvalue keeps its
    coordinates."""
    for lo, hi, d in runs:
        stack = z[lo:hi].reshape(-1, d * d)
        w, pos = _positive_part(hunvec(stack, d))
        np.copyto(stack, hvec(pos), where=w[:, :1] < 0.0)


class _Anderson:
    """Safeguarded type-II Anderson acceleration of a fixed-point map T
    (Zhang, O'Donoghue and Boyd, SIAM J. Optim. 30, 2020).

    The memory holds the last ``ANDERSON_MEMORY`` differences of the
    residual g = u - T(u) and of the image T(u) in fixed ring arrays, and
    their Gram matrix, updated with one product per point.  Differences
    taken under different maps never mix: a new ``key`` clears the memory.
    """

    def __init__(self, dim: int):
        self.dg = np.zeros((ANDERSON_MEMORY, dim))
        self.df = np.zeros((ANDERSON_MEMORY, dim))
        self.gram = np.zeros((ANDERSON_MEMORY, ANDERSON_MEMORY))
        self.eye = np.eye(ANDERSON_MEMORY)
        self.key = None
        self.rejected = 0
        self.clear()

    def clear(self):
        self.size = 0  # stored difference pairs
        self.slot = 0  # ring slot written next
        self.base = None  # (g, T(u)) at the current point, where the next differences start
        self.fallback = None  # (T(u), |g|) at the previous point, while u is extrapolated

    def next_point(self, g: np.ndarray, f: np.ndarray, key, g_norm: float) -> np.ndarray:
        """Record the current point's residual ``g`` (of norm ``g_norm``) and
        image ``f`` under the map named by ``key``, and return the next point: the
        extrapolation f - dF^T gamma, with gamma the regularized
        least-squares fit of g by the residual differences, or ``f`` itself
        when there is no candidate or its weights exceed
        ``ANDERSON_MAX_WEIGHT``."""
        if key != self.key:
            self.clear()
            self.key = key
        if self.base is not None:
            j = self.slot
            np.subtract(g, self.base[0], out=self.dg[j])
            np.subtract(f, self.base[1], out=self.df[j])
            self.size = min(self.size + 1, ANDERSON_MEMORY)
            self.slot = (j + 1) % ANDERSON_MEMORY
            col = self.dg[: self.size] @ self.dg[j]
            self.gram[j, : self.size] = col
            self.gram[: self.size, j] = col
        self.base = (g, f)
        k = self.size
        if k == 0:
            return f
        reg = ANDERSON_REGULARIZATION * float(self.gram[:k, :k].trace())
        if not reg > 0.0:
            return f
        gamma = np.linalg.solve(self.gram[:k, :k] + reg * self.eye[:k, :k], self.dg[:k] @ g)
        if not float(gamma @ gamma) <= ANDERSON_MAX_WEIGHT**2:
            return f
        self.fallback = (f, g_norm)
        return f - gamma @ self.df[:k]

    def safeguard(self, g_norm: float) -> np.ndarray | None:
        """Judge the current point by the norm of its residual.  None if it
        stands (it was not extrapolated, or |g| did not grow); otherwise the
        memory is cleared and T at the previous point, the point to step
        from instead, is returned."""
        fallback, self.fallback = self.fallback, None
        if fallback is None or g_norm <= fallback[1]:
            return None
        self.rejected += 1
        self.clear()
        return fallback[0]


def project_psd(x: HermitianMatrix) -> HermitianMatrix:
    """Euclidean projection onto the PSD cone (the positive part x_+)."""
    return HermitianMatrix(_positive_part(x.entries)[1], x.subsystem_dims)


def _split(z: np.ndarray, blocks, slices) -> tuple:
    out = []
    for blk, sl in zip(blocks, slices):
        if blk.cone == PSD:
            out.append(hunvec(z[sl], blk.dim))
        else:
            out.append(z[sl].copy())
    return tuple(out)


def solve(
    program: ConeProgram | MajorantProgram,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ConeSolution:
    """Run the operator-splitting iteration on ``program``.

    Deterministic for fixed inputs.  Returns the best iterate seen;
    ``status`` is "optimal" only if all residuals and the gap met ``tol``.
    ``max_iter`` must be at least 1 and ``tol`` finite and non-negative
    (``tol`` = 0 never stops early: the run ends at ``max_iter`` or on a
    plateau).
    """
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"tol must be finite and non-negative, got {tol}")
    rows = _rows(program)
    slices = _block_slices(program.blocks)
    runs = _psd_runs(program.blocks)
    b, c = program.eq_rhs, program.objective
    m, n = b.shape[0], c.shape[0]

    # Unsolvable affine rows mean the program is infeasible outright.
    if not rows.consistent(b):
        return ConeSolution(
            "infeasible", np.nan, np.nan, _split(np.zeros(n), program.blocks, slices),
            np.zeros(m), _split(np.zeros(n), program.blocks, slices),
            np.inf, np.inf, np.inf, 0, 0, 0,
        )

    def step(u: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One over-relaxed ADMM step: T(u) for u = (v, w), its affine
        projection z and the multiplier of that projection."""
        v, w = u[:n], u[n:]
        z, mult = rows.project(v - w - c / rho, b)
        shifted = OVER_RELAXATION * z + (1.0 - OVER_RELAXATION) * v + w
        out = np.empty(2 * n)
        out[:n] = shifted
        _project_cone(out[:n], runs)
        np.subtract(shifted, out[:n], out=out[n:])
        return out, z, mult

    u = np.zeros(2 * n)
    accel = _Anderson(2 * n)
    rho = 1.0
    b_scale = 1.0 + float(np.linalg.norm(b))
    c_scale = 1.0 + float(np.linalg.norm(c))

    best = None
    best_res = np.inf
    best_res_iter = 0
    last_rho_change = 0
    plateau_bumps = 0
    status = "max_iter"
    it = 0

    for it in range(1, max_iter + 1):
        f, z, mult = step(u, rho)
        g = u - f
        g_norm = math.sqrt(g @ g)
        back = accel.safeguard(g_norm)
        if back is not None:
            u = back
            f, z, mult = step(u, rho)
            g = u - f
            g_norm = math.sqrt(g @ g)
        # Checks and the best iterate read the plain image T(u), never an
        # extrapolated point: v is in the cone and s = -rho w in its dual.
        v, w = f[:n], f[n:]
        y = -rho * mult
        pobj = float(c @ v)
        dobj = float(b @ y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))

        # The screen: the gap, and the dual residual by the affine step's
        # identity c - A^T y - s = rho (v_u - w_u - z + w), u = (v_u, w_u)
        # the point stepped from.  Only the full check can stop the run.
        on_cadence = it % CHECK_EVERY == 0 or it == max_iter
        if on_cadence or (
            gap <= tol
            and rho * float(np.linalg.norm(u[:n] - u[n:] - z + w)) / c_scale <= tol
        ):
            s = -rho * w
            pres = float(np.linalg.norm(rows.apply(v) - b)) / b_scale
            dres = float(np.linalg.norm(c - rows.adjoint(y) - s)) / c_scale
            res = max(pres, dres, gap)
            # A screened iterate the check refuses is dropped: the best
            # iterate and the plateau clock move on the cadence alone.
            if res <= tol or (on_cadence and res < best_res):
                best = (v.copy(), y.copy(), s.copy(), pres, dres, gap, pobj, dobj, it)
            if res <= tol:
                status = "optimal"
                break
        if on_cadence:
            if res < best_res * (1.0 - 1e-3):
                best_res_iter = it
            best_res = min(best_res, res)
            # Residual balancing: a lopsided primal/dual residual ratio means
            # the penalty is off; rescaling it (and the scaled dual w with it)
            # does not touch the affine projection.
            if it % RHO_ADAPT_EVERY == 0 and it - last_rho_change >= 200:
                new_rho = rho
                if dres > 10.0 * pres and rho > 1e-4:
                    new_rho = rho / 2.0
                elif pres > 10.0 * dres and rho < 1e4:
                    new_rho = rho * 2.0
                elif it - max(best_res_iter, last_rho_change) >= PLATEAU_WINDOW:
                    # Balanced residuals that stopped improving: walk the
                    # penalty up an exploration ladder (wrapping around).
                    # The ladder has six rungs; a plateau after the last
                    # one ends the run.
                    if plateau_bumps == 6:
                        status = "stagnated"
                        break
                    new_rho = rho * 4.0 if rho < 1e3 else 1e-2
                    plateau_bumps += 1
                if new_rho != rho:
                    # w (and the w-part of g = u - T(u)) follows the
                    # penalty; the new key restarts the acceleration memory,
                    # so g_norm, now stale, is not read.
                    w *= rho / new_rho
                    g[n:] *= rho / new_rho
                    rho = new_rho
                    last_rho_change = it

        u = accel.next_point(g, f, rho, g_norm)

    v_b, y_b, s_b, pres, dres, gap, pobj, dobj, best_it = best
    return ConeSolution(
        status=status,
        primal_value=pobj,
        dual_value=dobj,
        primal_point=_split(v_b, program.blocks, slices),
        dual_vector=y_b,
        dual_slack=_split(s_b, program.blocks, slices),
        primal_residual=pres,
        dual_residual=dres,
        gap=gap,
        iterations=it,
        best_iteration=best_it,
        rejected=accel.rejected,
    )


def require_optimal(solution: ConeSolution, context: str) -> ConeSolution:
    if solution.status != "optimal":
        raise SolverError(
            f"{context}: solver stopped with status {solution.status!r} "
            f"(primal {solution.primal_value:.9g}, dual {solution.dual_value:.9g}, "
            f"max residual {solution.max_residual:.3e})",
            solution,
        )
    return solution


def dump_program(program: ConeProgram | MajorantProgram) -> str:
    """Debug text dump (objective, then constraint triplets row/col/value).

    Not a stability-guaranteed format; meant for cross-checking against
    external solvers.
    """
    lines = [f"# {program.description or 'cone program'}"]
    lines.append("blocks " + " ".join(f"{b.cone}:{b.dim}" for b in program.blocks))
    lines.append("objective " + " ".join(f"{x:.17g}" for x in program.objective))
    rows, cols = np.nonzero(program.eq_matrix)
    for r, cidx in zip(rows, cols):
        lines.append(f"A {r} {cidx} {program.eq_matrix[r, cidx]:.17g}")
    lines.append("rhs " + " ".join(f"{x:.17g}" for x in program.eq_rhs))
    return "\n".join(lines)
