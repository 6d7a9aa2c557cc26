"""Self-contained first-order solver for conic programs.

Programs are stated over a list of variable blocks, each either a hermitian
PSD block (a d x d matrix variable constrained to the PSD cone, parametrized
by d^2 real coordinates via ``hvec`` so that the trace inner product is the
Euclidean one) or a free real vector block.  The problem solved is

    minimize    c . z
    subject to  A z = b,   z in K = (product of PSD cones and free spaces).

Algorithm: ADMM on the PSD coordinates alone (over-relaxed on small blocks,
below), alternating a projection onto the affine set of PSD coordinates
that some free blocks make feasible with a projection onto the product of
PSD cones.  The free blocks are eliminated before the loop, the classic
move in ADMM for SDPs (Wen, Goldfarb and Yin, Math. Prog. Comp. 2, 2010):
given the PSD coordinates z_K, the free blocks z_F are fixed up to the null
space of their columns, and the free objective c_F becomes a shift of the
PSD objective by A_K^T y_F, y_F the part of the dual vector with
A_F^T y_F = c_F.  Free blocks are recovered from the PSD coordinates at full
checks and on return.
How the projection is done follows from the program's structure:

* a :class:`MajorantProgram` (rows E q - P_j = b_j, the shape of every
  program the library solves: norms of any input, payoffs, certificates and
  interior points) is projected in closed form.  Its c copies of one block
  all read E q, for the orthogonal projector E that orthonormal columns C
  state: E = C C^T when C spans E's range, E = I - C C^T when C spans its
  complement, and the free block q is in hvec coordinates either way.  The
  feasible slacks are V = {E q - b}, projecting onto V is
  P_j = E sum_j (zeta_j + b_j) / c - b_j, and q = E sum_j (P_j + b_j) / c;
  every product is C (C^T v), and neither A nor a Gram matrix is ever
  formed.  The library's builder states C by the side that
  :meth:`~gnorm.sections.Section.projector` chooses, the span's complement N
  when that is the thinner one, so that no span matrix is read;
* a generic :class:`ConeProgram`, which only a caller states, splits its
  dense A = [A_K | A_F] into PSD and free columns.  One SVD of A_F gives an
  orthonormal basis N of null(A_F^T) and pinv(A_F); the PSD coordinates
  range over the reduced rows N^T A_K z_K = N^T b, projected through a
  cached eigen pseudo-inverse of their Gram matrix (which also covers
  dependent rows), and z_F = pinv(A_F)(b - A_K z_K).  Without free blocks
  N = I and the reduced rows are A itself.  On a majorant program stated
  densely this is the closed-form projection.

The cone projection groups consecutive PSD blocks of one dimension into
runs (a base or diamond norm has one run of two blocks, a classical payoff
one run of a block per outcome) and projects each run as one stack: one
``hunvec``, one batched ``eigh``, one rebuild and one ``hvec``; a block
without a negative eigenvalue keeps its coordinates.  On the small programs
that dominate calls, an iteration is mostly numpy call overhead paid per
block, so this halves the PSD projection of a diamond-norm iteration.  For
the same reason the step calls the LAPACK kernels behind ``np.linalg.eigh``
and ``np.linalg.solve`` directly: their per-call wrapper (type checks and an
error-state context) costs about a third of a small ``eigh``, the kernels
return the same bits, and one error state entered per solve turns a failed
kernel into a :class:`NumericalError`.

Neither affine projection depends on the penalty parameter, so
residual-balancing updates of the penalty cost nothing.  Dual variables for
the equality constraints are recovered from the first-order conditions of
the affine step, y = y_F - rho * (multiplier of the projection), so that
A_F^T y = c_F holds by construction; the cone-side scaled dual ``w``
furnishes an exactly dual-cone-feasible slack s = -rho w on the PSD blocks,
and the free blocks' slack is zero.

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

The memory of 20 comes from a sweep over 10, 15, 20 and 30.  Steps
(iterations plus rejections) per traced seed-1 benchmark pass
(norms-small / norms-large / decisions) were 577 / 1516 / 512,
536 / 1065 / 469, 525 / 1066 / 466 and 522 / 977 / 466.  A memory of 30
takes fewer steps on the bench and on the two-use pairs (below), but ends
sequential pair #6 "stagnated", so 20 is kept.

The step's arithmetic is pinned bit for bit: a cheaper step must give the
same floats, so that iterates, iteration counts and rejections stay as
they are.  The plain step forms z + w and the cone projection writes
straight into the step's output, each giving the bits of the longer form
it replaced; the screen reads b . y as b . y_free - rho (b . mult),
without forming y, and only the full check, on the exact b . y, decides.
The checks: Tier-1 compares the cone projection with a per-block
reference, the direct kernels with ``np.linalg``, a full check on every
iteration with the screened stop, and the returned dual value with the
exact b . y, all bitwise; the benchmark's traced fingerprints carry the
iteration totals, and CI bounds the two-use iteration totals.

Stopping: mixed absolute/relative primal residual, dual residual and duality
gap all below the requested tolerance, on the first iteration where they
are.  Every iteration screens the gap and the dual residual from values the
step already holds (the dual residual by the affine step's first-order
identity, Boyd et al., Found. Trends Mach. Learn. 3, 2011, section 3.3); an
iterate that passes gets the full check, products by A and A^T included,
which alone decides.  The full check also runs every ``CHECK_EVERY``
iterations, and only those checks keep the best iterate and move the
penalty, at iterations fixed in advance, so the screen changes nothing but
the iteration the run stops at.  The row reduction decides infeasibility:
when A z = b has no solution, or no dual vector matches the free
objective, the solve returns status "infeasible" without running an
iteration.

One rule moves the penalty, residual balancing (Boyd et al., section
3.4.1, within [1e-4, 1e4]): primal and dual residuals over a factor apart
halve or double it.  Before iteration 200 it may act every 25 iterations,
at a factor 3; from then on, on a full check at least 200 iterations after
its last change, at a factor 10.  The early schedule adapts the penalty
while a solve is still short, as OSQP does (Stellato et al., Math. Prog.
Comp. 12, 2020): the dual residual of the benchmark's comb(2,2,2,2) base
norms runs 3.6 to 20 times the primal one through their first 200
iterations, and the penalty now halves there once or twice before
iteration 100.  Balancing every 25 iterations throughout, with no window,
ended payoff solves of acceptance criterion 7 "stagnated".  From iteration
200, balanced residuals whose best has not improved by 0.1% in the last 200
iterations are a stall and multiply the penalty by 4.  The seventh stall
ends the run with the best iterate found and status "stagnated"
(first-order methods carry no exact infeasibility certificates).

The penalty starts at sqrt(2) for a program of two or more PSD blocks
(base, diamond and comb norms, classical payoffs) and at 1 for one block or
none (quantum payoffs, ``hmin``, interior points): sqrt(2) took fewer steps
than 1 on every measured program of two or more blocks.

The step's relaxation alpha is fixed per solve by the program's largest PSD
block: alpha = ``OVER_RELAXATION`` = 1.5 below d = ``PLAIN_STEP_DIM`` = 8,
and a plain step (alpha = 1) from there on.  Measured in steps (iterations
plus safeguard rejections) over 20 seeded instances per family, alpha = 1
costs short solves at d = 4 and 6 (diamond, forced-conic states and
``hmin`` programs) 6% to 25% more steps, but cuts the tails that appear
from d = 8: channels(4,2) diamond norms take 17% fewer steps (the longest
964 -> 530) and channels(4,4) 27% fewer (14862 -> 9721).  The two-use
qubit pairs (d = 16) take 84631 sequential and 16146 parallel iterations in
total where over-relaxed steps took 124403 and 25667, and a 4-outcome
channels(4,4) quantum payoff (d = 64) 2318 where they took 9217.  Where in
d = 7 to 9 the cut belongs is not settled: the sign of the trade there
depends on the family measured.

A solve is single-threaded and owns its iterate workspace; concurrent solves
on independent programs are safe (the per-program caches are written once).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NumericalError, ShapeError, SolverError
from .hermitian import (HermitianMatrix, _hvec_layout, as_array, as_count,
                        as_dim, as_tol, hunvec)

PSD = "psd"
FREE = "free"

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 50000
OVER_RELAXATION = 1.5
PLAIN_STEP_DIM = 8
CHECK_EVERY = 25
ANDERSON_MEMORY = 20
ANDERSON_MAX_WEIGHT = 1e4
ANDERSON_REGULARIZATION = 1e-10

# The LAPACK gufuncs behind np.linalg.eigh and np.linalg.solve (one
# right-hand side), called without numpy's per-call wrapper.  A failure fills
# NaN and raises the invalid flag, which _kernel_errors turns into
# NumericalError.
_eigh = _umath_linalg.eigh_lo
_solve1 = _umath_linalg.solve1


@dataclass(frozen=True, eq=False)
class Block:
    """One variable block: a PSD matrix of size ``dim`` (a dimension) or a free vector."""

    dim: int
    cone: str = PSD

    def __post_init__(self):
        if self.cone not in (PSD, FREE):
            raise ShapeError(f"unknown cone kind {self.cone!r}")
        object.__setattr__(self, "dim", as_dim(self.dim, "block dimension"))

    @property
    def real_dim(self) -> int:
        return self.dim * self.dim if self.cone == PSD else self.dim


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

    def _set_vectors(self, n_rows: int) -> None:
        """Store the objective and the right-hand side as float vectors,
        checked against the blocks and ``n_rows`` rows."""
        n = self.total_dim
        c = as_array(self.objective, "objective").reshape(-1)
        rhs = as_array(self.eq_rhs, "rhs").reshape(-1)
        if c.shape[0] != n:
            raise ShapeError(f"objective length {c.shape[0]} != total block dim {n}")
        if rhs.shape[0] != n_rows:
            raise ShapeError(f"rhs length {rhs.shape[0]} != row count {n_rows}")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_rhs", rhs)


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
        n, a = self.total_dim, as_array(self.eq_matrix, "eq_matrix")
        if a.ndim != 2 or a.shape[1] != n:
            raise ShapeError(f"constraint matrix shape {a.shape} incompatible with n={n}")
        self._set_vectors(a.shape[0])
        object.__setattr__(self, "eq_matrix", a)


@dataclass(frozen=True, eq=False)
class MajorantProgram(_ProgramData):
    """The majorant program over z = (P_1, ..., P_c, q):

        minimize    c . z
        subject to  E q - P_j = b_j,   P_j PSD,   q a free vector,

    for ``copies`` = c blocks of one dimension d and the orthogonal projector
    E on Herm(d) in hvec coordinates that ``columns`` C (d^2 x r, orthonormal,
    checked on construction in one Gram product, never copied)
    states: E = C C^T, or E = I - C C^T when ``complement`` is set.  q is in
    hvec coordinates, and an objective with a part outside E's range is
    unbounded.  ``eq_rhs`` stacks the b_j.  The solve iterates on the slacks
    P_j alone: they fix q = E sum_j (P_j + b_j) / c, which is the free block
    it returns (see :class:`_MajorantRows`).  ``eq_matrix``, the dense
    A = [-I | E] per copy, is built on first read for :func:`dump_program`
    and other outside readers; :func:`solve` never reads it.  Every program
    the library solves has this shape.
    """

    columns: np.ndarray
    copies: int
    objective: np.ndarray
    eq_rhs: np.ndarray
    description: str = ""
    complement: bool = False
    _shared: dict = field(default_factory=dict, repr=False, compare=False)
    blocks: tuple[Block, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if "rows" not in self._shared:  # with_rhs / with_objective copies share it and C
            cols, copies = as_array(self.columns, "columns"), as_count(self.copies, "copies")
            d = math.isqrt(cols.shape[0]) if cols.ndim == 2 else 0
            if cols.ndim != 2 or d * d != cols.shape[0]:  # Block rejects d = 0
                raise ShapeError(f"majorant columns of shape {cols.shape} are not (d^2, r)")
            object.__setattr__(self, "columns", cols)
            object.__setattr__(self, "copies", copies)
            self._shared["blocks"] = (Block(d, PSD),) * copies + (Block(d * d, FREE),)
            self._shared["rows"] = _MajorantRows(cols, copies, self.complement)
        object.__setattr__(self, "blocks", self._shared["blocks"])
        self._set_vectors(self._shared["rows"].n_rows)

    @property
    def eq_matrix(self) -> np.ndarray:
        got = self._shared.get("eq_matrix")
        if got is None:
            n_rows, cols = self.eq_rhs.shape[0], self.columns
            got = np.zeros((n_rows, self.total_dim))
            got[np.arange(n_rows), np.arange(n_rows)] = -1.0
            e = cols @ cols.T
            if self.complement:
                e = np.eye(cols.shape[0]) - e
            got[:, n_rows:] = np.tile(e, (self.copies, 1))
            self._shared["eq_matrix"] = got
        return got


@dataclass(frozen=True, eq=False)
class ConeSolution:
    """Certified primal-dual output of :func:`solve`.

    ``primal_point`` holds one entry per block (a hermitian ndarray for PSD
    blocks, a real vector for free blocks); ``dual_vector`` is the equality
    multiplier y and ``dual_slack`` the per-block slack of c - A^T y.
    """

    # optimal | max_iter (the iteration cap) | stagnated (the seventh stall:
    # balanced residuals with no progress in 200 iterations) | infeasible
    # (A z = b has no solution, or no dual vector matches the free
    # objective; no iteration)
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


def _kept(w: np.ndarray) -> np.ndarray:
    """Which eigenvalues of a Gram matrix a pseudo-inverse keeps: those above
    1e-12 * max(1, largest)."""
    return w > 1e-12 * max(1.0, float(w.max(initial=0.0)))


class _DenseRows:
    """The rows A z = b of a generic program, free blocks eliminated.

    A = [A_K | A_F] splits into the PSD and the free columns, wherever the
    free blocks sit.  One SVD of A_F gives N, an orthonormal basis of
    null(A_F^T), and pinv(A_F).  The PSD coordinates z_K then range over the
    reduced rows N^T A_K z_K = N^T b, projected through an eigen
    pseudo-inverse of their Gram matrix (dependent rows are allowed), and
    z_F = pinv(A_F)(b - A_K z_K).  Without free blocks N = I and the reduced
    rows are A itself.
    """

    def __init__(self, a: np.ndarray, blocks: tuple[Block, ...]):
        free = np.concatenate([np.full(blk.real_dim, blk.cone == FREE) for blk in blocks])
        self.a = a
        self.cone, self.free = np.flatnonzero(~free), np.flatnonzero(free)
        self._a_k = reduced = a[:, self.cone]
        self._null = self._pinv = None
        if self.free.size:
            u, sv, vt = np.linalg.svd(a[:, self.free])
            r = int(np.count_nonzero(_kept(sv * sv)))
            self._null = u[:, r:]
            self._pinv = (vt[:r].T / sv[:r]) @ u[:, :r].T
            reduced = self._null.T @ reduced
        self._reduced = reduced
        w, u = _eigh(reduced @ reduced.T)
        keep = _kept(w)
        self._u, self._winv = u[:, keep], 1.0 / w[keep]

    def _gram_solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._u @ (self._winv * (self._u.T @ rhs))

    def eliminate(self, c: np.ndarray, b: np.ndarray):
        """The reduced objective C = c_K - A_K^T y_F over the PSD coordinates,
        the part y_F = pinv(A_F)^T c_F of the dual vector, the reduced
        right-hand side, and whether the program has a solution: None, or
        the dual residual reported for it.  That is inf when A z = b has no
        solution (the reduced rows miss b_red by more than
        1e-8 (1 + |b_red|)), and |c_F - A_F^T y_F| / (1 + |c|) when c_F
        lies outside range(A_F^T) (a miss above 1e-8 (1 + |c_F|)): then no
        dual vector matches the free objective."""
        if self._null is None:
            c_red, y_free, b_red = c[self.cone], np.zeros(b.shape[0]), b
        else:
            y_free = self._pinv.T @ c[self.free]
            c_red, b_red = c[self.cone] - self._a_k.T @ y_free, self._null.T @ b
        miss = np.linalg.norm(self._reduced @ (self._reduced.T @ self._gram_solve(b_red)) - b_red)
        if miss > 1e-8 * (1.0 + np.linalg.norm(b_red)):
            return c_red, y_free, b_red, np.inf
        c_free = c[self.free]
        miss = _norm(c_free - self.adjoint(y_free)[self.free])
        if miss > 1e-8 * (1.0 + _norm(c_free)):
            return c_red, y_free, b_red, miss / (1.0 + _norm(c))
        return c_red, y_free, b_red, None

    def apply(self, z: np.ndarray) -> np.ndarray:
        return self.a @ z

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self.a.T @ y

    def project(self, zeta: np.ndarray, b_red: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Projection z of the PSD coordinates zeta onto the reduced rows, and
        the multiplier of the rows A z = b: z = zeta - A_K^T multiplier."""
        mult = self._gram_solve(self._reduced @ zeta - b_red)
        z = zeta - self._reduced.T @ mult
        return z, mult if self._null is None else self._null @ mult

    def free_part(self, z_k: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The free blocks pinv(A_F)(b - A_K z_K) that go with z_K."""
        if self._pinv is None:
            return np.empty(0)
        return self._pinv @ (b - self._a_k @ z_k)


def apply_projector(columns: np.ndarray, complement: bool, v: np.ndarray) -> np.ndarray:
    """E v for the projector E that orthonormal ``columns`` C state: C (C^T v), or
    v - C (C^T v) when C spans E's complement.  The one application of E."""
    along = columns @ (columns.T @ v)
    return v - along if complement else along


class _MajorantRows:
    """The rows E q - P_j = b_j of a :class:`MajorantProgram`, the free block
    q eliminated.

    The slacks that some q makes feasible form the affine set V = {E q - b},
    and a P in V fixes q = E sum_j (P_j + b_j) / c.  Projecting zeta onto V
    is then

        P_j = E t - b_j,   t = sum_j (zeta_j + b_j) / c,   multiplier = P - zeta,

    one product C (C^T t).  The free objective c_q enters as E c_q / c, both
    in the slacks' objective and in the dual vector, whose pull is then
    E c_q.  C^T C = I is checked here within 1e-9, on the one r x r Gram
    product, taken in place.
    """

    def __init__(self, columns: np.ndarray, copies: int, complement: bool):
        self.columns, self.copies, self.complement = columns, copies, complement
        self.n_rows = copies * columns.shape[0]
        self.cone, self.free = slice(0, self.n_rows), slice(self.n_rows, None)
        gram = columns.T @ columns
        gram[np.diag_indices_from(gram)] -= 1.0
        if float(np.max(np.abs(gram, out=gram), initial=0.0)) > 1e-9:
            raise ShapeError("majorant columns must be orthonormal")

    def _project(self, v: np.ndarray) -> np.ndarray:
        return apply_projector(self.columns, self.complement, v)

    def _sum(self, y: np.ndarray) -> np.ndarray:
        """sum_j y_j over the copies."""
        return np.add.reduce(y.reshape(self.copies, -1), axis=0)

    def eliminate(self, c: np.ndarray, b: np.ndarray):
        """The slacks' objective C = c_P + E c_q / c, the part E c_q / c of the
        dual vector per copy, the right-hand side, which needs no reduction,
        and whether the program is bounded: None, or the dual residual
        |c_q - E c_q| / (1 + |c|) reported when it misses by more than
        1e-8 (1 + |c_q|), c_q having a part outside E's range.  Every
        majorant program has a solution, since the -I columns give A full
        row rank."""
        n = self.n_rows
        y_free = np.tile(self._project(c[n:] / self.copies), self.copies)
        miss = _norm(c[n:] - self._project(self._sum(y_free)))
        if miss > 1e-8 * (1.0 + _norm(c[n:])):
            return c[:n] + y_free, y_free, b, miss / (1.0 + _norm(c))
        return c[:n] + y_free, y_free, b, None

    def apply(self, z: np.ndarray) -> np.ndarray:
        n = self.n_rows
        return (self._project(z[n:]) - z[:n].reshape(self.copies, -1)).reshape(-1)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return np.concatenate([-y, self._project(self._sum(y))])

    def project(self, zeta: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = self._project(self._sum(zeta + b) / self.copies)
        p = (t - b.reshape(self.copies, -1)).reshape(-1)
        return p, p - zeta

    def free_part(self, p: np.ndarray, b: np.ndarray) -> np.ndarray:
        """q = E sum_j (P_j + b_j) / c."""
        return self._project(self._sum(p + b)) / self.copies


def _rows(program) -> _DenseRows | _MajorantRows:
    """The program's affine-row operator: given for a majorant program, built
    (and factorized) once per generic program and shared with its
    ``with_rhs`` / ``with_objective`` copies."""
    cache = program._shared
    if "rows" not in cache:
        cache["rows"] = _DenseRows(program.eq_matrix, program.blocks)
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


def _kernel_failed(err, flag):
    """numpy's error-state callback for an invalid floating-point value."""
    raise NumericalError(
        f"conic solver: {err} in an ADMM step "
        "(a failed eigendecomposition or Anderson solve)"
    )


def _kernel_errors() -> np.errstate:
    """The error state under which a failed kernel, or any other invalid
    floating-point operation, raises NumericalError."""
    return np.errstate(call=_kernel_failed, invalid="call")


def _positive_part(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and positive parts of complex hermitian matrices
    stacked along leading axes: one batched ``eigh`` and one rebuild."""
    w, u = _eigh(mats)
    return w, (u * np.maximum(w, 0.0)[..., None, :]) @ u.conj().swapaxes(-1, -2)


def _project_cone(z: np.ndarray, runs, out: np.ndarray | None = None) -> None:
    """Project z onto the cone product: each run's coordinates are written
    into ``out`` (contiguous, of z's shape, not overlapping z), or back into
    z.  Each run of PSD blocks is projected as one stack, through one lookup
    of its hvec layout; a block without a negative eigenvalue (rare) keeps
    its coordinates."""
    if out is None:
        out, z = z, z.copy()
    for lo, hi, d in runs:
        take, scale, src, coef = _hvec_layout(d)
        stack = z[lo:hi].reshape(-1, d * d)
        w, pos = _positive_part((stack.take(src, axis=1) * coef).view(complex).reshape(-1, d, d))
        dest = out[lo:hi].reshape(-1, d * d)
        np.multiply(pos.reshape(-1, d * d).view(float).take(take, axis=1), scale, out=dest)
        if max(w[:, 0].tolist()) >= 0.0:  # cheaper than a numpy reduction
            keep = w[:, 0] >= 0.0
            dest[keep] = stack[keep]


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
        # (dg, df, gram, eye) cut to the stored pairs; cut again only while
        # the memory fills, so a full memory reads whole arrays
        self.stored = None

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
        base, self.base = self.base, (g, f)
        if base is None:  # a fresh memory: no differences yet
            return f
        j = self.slot
        np.subtract(g, base[0], out=self.dg[j])
        np.subtract(f, base[1], out=self.df[j])
        if self.size < ANDERSON_MEMORY:
            k = self.size = self.size + 1
            self.stored = (self.dg[:k], self.df[:k], self.gram[:k, :k], self.eye[:k, :k])
        self.slot = (j + 1) % ANDERSON_MEMORY
        dg, df, gram, eye = self.stored
        col = dg @ dg[j]
        gram[j] = col
        gram[:, j] = col
        reg = ANDERSON_REGULARIZATION * float(gram.trace())
        if not reg > 0.0:
            return f
        gamma = _solve1(gram + reg * eye, dg @ g)
        if not float(gamma @ gamma) <= ANDERSON_MAX_WEIGHT**2:
            return f
        self.fallback = (f, g_norm)
        return f - gamma @ df

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
    with _kernel_errors():
        pos = _positive_part(x.entries)[1]
    return HermitianMatrix(pos, x.subsystem_dims)


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a real vector, the bits ``np.linalg.norm`` gives."""
    return math.sqrt(x @ x)


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
    ``max_iter`` passes :func:`as_count` and ``tol`` :func:`as_tol` (``tol``
    = 0 never stops early: the run ends at ``max_iter`` or on its seventh
    stall).  The stop rule is absolute below unit scale, so a program whose
    objective or right-hand side is far from unit norm can stop "optimal" at
    a wrong value: scale it first, as :func:`~gnorm.norms.majorant_norm` does.
    """
    tol, max_iter = as_tol(tol, "tol"), as_count(max_iter, "max_iter")
    with _kernel_errors():
        return _admm(program, tol, max_iter)


def _admm(program: ConeProgram | MajorantProgram, tol: float, max_iter: int) -> ConeSolution:
    """The iteration of :func:`solve` on checked arguments."""
    rows = _rows(program)
    slices = _block_slices(program.blocks)
    psd = tuple(blk for blk in program.blocks if blk.cone == PSD)
    runs = _psd_runs(psd)
    b, c = program.eq_rhs, program.objective
    # The loop runs on the PSD coordinates alone: objective c_red, and y_free
    # the part of the dual vector that the free objective fixes.
    c_red, y_free, b_red, no_solution = rows.eliminate(c, b)
    n = c_red.shape[0]

    def whole(cone_part: np.ndarray, free_part) -> np.ndarray:
        """A point over all blocks from its PSD coordinates and free blocks."""
        out = np.empty(c.shape[0])
        out[rows.cone] = cone_part
        out[rows.free] = free_part
        return out

    largest = max((blk.dim for blk in psd), default=0)
    alpha = OVER_RELAXATION if largest < PLAIN_STEP_DIM else 1.0

    def step(u: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One ADMM step, relaxed by ``alpha`` (see the module docstring):
        T(u) for u = (v, w), its affine projection z and the multiplier of
        that projection.  The plain step forms z + w, the value that
        1 z + 0 v + w takes, in one call."""
        v, w = u[:n], u[n:]
        z, mult = rows.project(v - w - c_rho, b_red)
        shifted = z + w if alpha == 1.0 else alpha * z + (1.0 - alpha) * v + w
        out = np.empty(2 * n)
        _project_cone(shifted, runs, out[:n])
        np.subtract(shifted, out[:n], out=out[n:])
        return out, z, mult

    u = np.zeros(2 * n)
    accel = _Anderson(2 * n)
    rho = math.sqrt(2.0) if len(psd) >= 2 else 1.0
    c_rho = c_red / rho
    offset = float(y_free @ b)  # c . z = c_red . z_K + offset on every z_K
    b_scale = 1.0 + _norm(b)
    c_scale = 1.0 + _norm(c)

    best = None
    best_res = np.inf
    best_res_iter = 0
    last_rho_change = 0
    stalls = 0
    status = "max_iter"
    it = 0
    if no_solution is not None:
        # No iteration: the zero point, with the residuals of no solution.
        status, max_iter = "infeasible", 0
        zero = np.zeros(c.shape[0])
        best = (zero, np.zeros(b.shape[0]), zero, np.inf, no_solution, np.inf, np.nan, np.nan, 0)

    for it in range(1, max_iter + 1):
        back = u
        while back is not None:  # a second step only when the safeguard rejects u
            u = back
            f, z, mult = step(u, rho)
            g = u - f
            g_norm = math.sqrt(g @ g)
            back = accel.safeguard(g_norm)
        # Checks and the best iterate read the plain image T(u), never an
        # extrapolated point: v is in the cone and s = -rho w in its dual.
        v, w = f[:n], f[n:]
        pobj = float(c_red @ v) + offset
        # The screen: the gap, on b . y read as y_free . b - rho (b . mult)
        # (y is formed on full checks only), and the dual residual by the
        # affine step's identity c - A^T y - s = rho (v_u - w_u - z + w),
        # u = (v_u, w_u) the point stepped from.  Only the full check, on
        # the exact b . y, can stop the run.
        dobj = offset - rho * float(b @ mult)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        on_cadence = it % CHECK_EVERY == 0 or it == max_iter
        if on_cadence or (
            gap <= tol
            and rho * _norm(u[:n] - u[n:] - z + w) / c_scale <= tol
        ):
            y = y_free - rho * mult
            dobj = float(b @ y)
            gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
            point = whole(v, rows.free_part(v, b))
            s = whole(-rho * w, 0.0)
            pres = _norm(rows.apply(point) - b) / b_scale
            dres = _norm(c - rows.adjoint(y) - s) / c_scale
            res = max(pres, dres, gap)
            # A screened iterate the check refuses is dropped: the best
            # iterate and the stall clock move on the cadence alone.
            if res <= tol or (on_cadence and res < best_res):
                best = (point, y, s, pres, dres, gap, pobj, dobj, it)
            if res <= tol:
                status = "optimal"
                break
        if on_cadence:
            if res < best_res * (1.0 - 1e-3):
                best_res_iter = it
            best_res = min(best_res, res)
            # Residual balancing: a lopsided primal/dual residual ratio means
            # the penalty is off; rescaling it (and the scaled dual w with it)
            # does not touch the affine projection.  Before iteration 200
            # every 25th iteration may balance, at a 3x ratio (a fixed
            # schedule: the screen's extra checks never add a change); from
            # then on one change per 200 iterations, at 10x.  Balanced
            # residuals with no progress in 200 iterations are a stall; the
            # seventh ends it.
            early = it < 200 and it % 25 == 0
            if early or it - last_rho_change >= 200:
                new_rho = rho
                ratio = 3.0 if early else 10.0
                if dres > ratio * pres and rho > 1e-4:
                    new_rho = rho / 2.0
                elif pres > ratio * dres and rho < 1e4:
                    new_rho = rho * 2.0
                elif it - best_res_iter >= 200:
                    if stalls == 6:
                        status = "stagnated"
                        break
                    new_rho = rho * 4.0
                    stalls += 1
                if new_rho != rho:
                    # w (and the w-part of g = u - T(u)) follows the
                    # penalty; the new key restarts the acceleration memory,
                    # so g_norm, now stale, is not read.
                    w *= rho / new_rho
                    g[n:] *= rho / new_rho
                    rho = new_rho
                    c_rho = c_red / rho
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


def require_optimal(solution: ConeSolution, context: str, report=None) -> ConeSolution:
    """``solution`` if optimal, else SolverError quoting and carrying ``report`` (default it)."""
    report = solution if report is None else report
    if solution.status != "optimal":
        raise SolverError(
            f"{context}: solver stopped with status {solution.status!r} "
            f"(primal {report.primal_value:.9g}, dual {report.dual_value:.9g}, "
            f"max residual {solution.max_residual:.3e})",
            report,
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
