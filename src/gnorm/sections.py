"""Affine descriptions of compact convex slices of the PSD cone.

A *section* here is a set B = {x >= 0 : x in span, Tr(x n) = 1} described by
an orthonormal (trace inner product) spanning basis of its linear hull
together with a PSD normalizing matrix n that evaluates to one on every
member.  Concrete families (dimension arguments by :func:`~gnorm.hermitian.as_dims`):

* all density matrices (``states_section``),
* a single PSD matrix (``singleton_section``),
* Choi matrices of channels (``channels_section``), of sequential networks
  (``comb_section``) and, generally, of maps sending a given section into
  density matrices (``generalized_section``),
* block-diagonal embeddings of measurements whose effects sum into the dual
  section (``povm_section``).

Every section carries a positive-definite interior point.  When the
construction data admits no positive-definite member, the section is
automatically compressed onto the support of the best achievable member (an
isometry recorded in ``embedding``) and flagged ``restricted``; all queries
accept matrices in the original space and translate.

The *dual section* of B collects every PSD matrix pairing to one with all of
B; duality is an involution on sections with positive-definite members, and
``dual_section`` realizes it from the stored affine data alone.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import solver
from .errors import EmptySectionError, ShapeError, ValidationError
from .hermitian import (
    HermitianMatrix,
    _psd_values,
    _support_columns,
    _transpose_columns,
    as_array,
    as_dim,
    as_dims,
    as_tol,
    eig,
    eigenvalues,
    frobenius_norm,
    herm,
    hunvec,
    hunvec_matrix,
    hvec,
    identity,
    matrix_to_json,
    psd_check,
    tensor,
    trace_pair,
    transpose_in_basis,
)

# A direction whose singular value is at most this (relative) counts as dependent.
DEPENDENT_DROP_TOL = 1e-9
DEFAULT_MEMBERSHIP_TOL = 1e-8
# A candidate interior point counts as positive definite above this floor.
FAITHFUL_EIG_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Section:
    """Immutable affine description of one section.

    ``span_columns`` holds the hvec coordinates of a trace-orthonormal
    spanning basis, one column each (read-only); it is the only span data
    stored, and ``span_basis`` is the same basis as matrices, built on first
    read and cached.  ``normalizer`` pairs to 1 with every member;
    ``interior_point`` is a positive-definite member.  ``embedding`` (an
    isometry, columns orthonormal) is set when the section was compressed
    onto a support subspace; the section is then ``restricted`` and matrices
    supplied by callers live in the original space of dimension
    ``original_dim``.
    """

    span_columns: np.ndarray
    normalizer: HermitianMatrix
    interior_point: HermitianMatrix
    label: str
    subsystem_dims: tuple[int, ...] = ()
    descriptor: dict | None = None
    embedding: np.ndarray | None = None
    original_subsystem_dims: tuple[int, ...] = ()
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def ambient_dim(self) -> int:
        """Dimension of the (possibly compressed) carrier space."""
        return self.normalizer.dim

    @property
    def restricted(self) -> bool:
        return self.embedding is not None

    @property
    def original_dim(self) -> int | None:
        return self.embedding.shape[0] if self.embedding is not None else None

    @property
    def span_dim(self) -> int:
        return self.span_columns.shape[1]

    @property
    def span_basis(self) -> tuple[HermitianMatrix, ...]:
        """The spanning basis as matrices (built on first read, cached)."""
        got = self._cache.get("span_basis")
        if got is None:
            got = tuple(
                hunvec_matrix(col, self.ambient_dim, self.subsystem_dims)
                for col in self.span_columns.T
            )
            self._cache["span_basis"] = got
        return got

    def dims_tuple(self) -> tuple[int, ...]:
        """Subsystem dims of the carrier space, ``(ambient_dim,)`` fallback."""
        return self.subsystem_dims if self.subsystem_dims else (self.ambient_dim,)

    def span_matrix(self) -> np.ndarray:
        """hvec coordinates of the spanning basis, one column per element."""
        return self.span_columns

    def span_coords(self, x: HermitianMatrix) -> np.ndarray:
        return self.span_matrix().T @ hvec(x)

    def from_span_coords(self, coords: np.ndarray) -> HermitianMatrix:
        vec = self.span_matrix() @ as_array(coords, "span coordinates")
        return hunvec_matrix(vec, self.ambient_dim, self.subsystem_dims)

    def complement_matrix(self) -> np.ndarray:
        """Orthonormal hvec basis of the span's orthogonal complement: the trailing
        columns of one complete QR, copied so as not to keep the d^2 x d^2 Q alive."""
        m = self.span_matrix()
        return np.linalg.qr(m, mode="complete")[0][:, m.shape[1] :].copy()

    def compress(self, x: HermitianMatrix, tol: float = DEFAULT_MEMBERSHIP_TOL):
        """Map a caller-space matrix into the carrier space.

        Returns None when ``x`` has weight outside the support subspace
        (beyond ``tol`` relative, :func:`as_tol`), which for norm purposes
        means +infinity.  Raises ShapeError when ``x`` is not of the
        caller-space dimension.
        """
        tol = as_tol(tol, "tol")
        expected = self.original_dim or self.ambient_dim
        if x.dim != expected:
            raise ShapeError(f"expected dim {expected}, got {x.dim}")
        if self.embedding is None:
            return x
        v = self.embedding
        xc = HermitianMatrix(v.conj().T @ x.entries @ v)
        back = v @ xc.entries @ v.conj().T
        if float(np.linalg.norm(x.entries - back)) > tol * (1.0 + frobenius_norm(x)):
            return None
        return xc

    def slice_point(self, x: HermitianMatrix, tol: float) -> HermitianMatrix | None:
        """:meth:`compress` of ``x`` if it passes :func:`contains` but the PSD test, else None."""
        xc = self.compress(x, tol)
        if xc is None:
            return None
        err = max(_span_residual(self.span_matrix(), xc), abs(trace_pair(xc, self.normalizer) - 1))
        return xc if err <= tol * (1.0 + frobenius_norm(xc)) else None

    def lift(self, xc: HermitianMatrix) -> HermitianMatrix:
        """Map a carrier-space matrix back to the caller space."""
        if self.embedding is None:
            return xc
        v = self.embedding
        return HermitianMatrix(v @ xc.entries @ v.conj().T, self.original_subsystem_dims)

    def __repr__(self) -> str:
        extra = ", restricted" if self.restricted else ""
        return f"Section({self.label}, ambient={self.ambient_dim}, span={self.span_dim}{extra})"


# -- linear algebra over hvec coordinates ------------------------------------


def _columns(mats) -> np.ndarray:
    """hvec coordinates of the matrices, one column each."""
    return np.column_stack([hvec(m) for m in mats])


def _orthonormalize_columns(cols: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span by one thresholded SVD: directions
    with singular value at most DEPENDENT_DROP_TOL * max(1, largest) are
    dropped."""
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, s > DEPENDENT_DROP_TOL * max(1.0, float(s[0]))]


def _kron_columns(left, d_left: int, right, d_right: int, out=None) -> np.ndarray:
    """hvec columns of L (x) R for all pairs of hvec columns L of ``left`` and
    R of ``right``, left index outermost, written into ``out`` (new when None).
    Tr((L (x) R)(L' (x) R')) = Tr(L L') Tr(R R'): orthonormal inputs give
    orthonormal columns.  Each entry is one product, taken for one left column
    and ``d_right`` right columns at a time, so the complex intermediate holds
    d_right matrices of the product's size (2 MB at d = 64)."""
    d = d_left * d_right
    k = right.shape[1]
    if out is None:
        out = np.empty((d * d, left.shape[1] * k))
    for i, col in enumerate(left.T):
        lcol = hunvec(col, d_left)
        for j in range(0, k, d_right):
            rights = hunvec(right[:, j : j + d_right].T, d_right)
            prod = np.einsum("ik,bjl->bijkl", lcol, rights).reshape(-1, d, d)
            out[:, i * k + j : i * k + j + len(prod)] = hvec(prod).T
    return out


def _zero_sum_columns(n: int) -> np.ndarray:
    """Orthonormal basis of the vectors in R^n summing to zero (Helmert)."""
    out = np.zeros((n, n - 1))
    for k in range(1, n):
        out[:k, k - 1] = 1.0 / math.sqrt(k * (k + 1))
        out[k, k - 1] = -k / math.sqrt(k * (k + 1))
    return out


def full_hermitian_basis(dim: int) -> tuple[HermitianMatrix, ...]:
    """The hvec coordinate basis: an orthonormal basis of the whole space."""
    eye = np.eye(dim * dim)
    return tuple(hunvec_matrix(eye[:, k], dim) for k in range(dim * dim))


# -- interior points ----------------------------------------------------------


def _pairing_complement(span_cols: np.ndarray, normalizer: HermitianMatrix):
    """The slice's affine hull {M s : p . s = 1}, p = M^T hvec(n), as
    M s0 + range(M N): s0 = p / |p|^2, and N (orthonormal, k x (k-1)) is the
    last k - 1 columns of the Householder reflection taking p onto e_1.
    Returns (M s0, M N).  Raises EmptySectionError when p = 0: then no span
    element pairs to one with the normalizer."""
    p = span_cols.T @ hvec(normalizer)
    norm_p = float(np.linalg.norm(p))
    if norm_p <= DEPENDENT_DROP_TOL * frobenius_norm(normalizer):
        raise EmptySectionError("empty slice: the whole span pairs to zero with the normalizer")
    v = p.copy()
    v[0] += math.copysign(norm_p, p[0])
    m_n = span_cols[:, 1:] - np.outer(span_cols @ v, v[1:] * (2.0 / float(v @ v)))
    return span_cols @ (p / norm_p**2), m_n


def _solve_interior(span_cols, normalizer):
    """max t  s.t.  b in the slice,  b - t I >= 0,  with b = M s0 + M N u.

    Split hvec(I) = M N g + rho with rho orthogonal to M N (rho != 0 since
    Tr n > 0); in u' = u - t g the rows read b - t I = [M N, -rho/|rho|]
    (u', t |rho|) + M s0, a majorant program with one orthonormal lift.
    Returns (t*, b*) of a converged solve; SolverError otherwise.
    """
    d = normalizer.dim
    m_s0, m_n = _pairing_complement(span_cols, normalizer)
    eye = hvec(identity(d))
    g = m_n.T @ eye
    rho = eye - m_n @ g
    norm_rho = float(np.linalg.norm(rho))
    lift = np.column_stack([m_n, -rho / norm_rho])
    c = np.zeros(d * d + lift.shape[1])
    c[-1] = -1.0 / norm_rho
    program = solver.MajorantProgram((lift,), c, -m_s0, "interior point (max min-eigenvalue)")
    sol = solver.require_optimal(solver.solve(program, tol=1e-8), "interior point")
    z = sol.primal_point[1]
    t_star = float(z[-1]) / norm_rho
    return t_star, hunvec_matrix(m_s0 + m_n @ (z[:-1] + t_star * g), d)


def _recession_direction_exists(span_cols, normalizer) -> bool:
    """Whether the slice has a nonzero PSD recession direction.

    Solves max Tr(y) over the span elements y = M N u pairing to zero with
    the normalizer, with y PSD and y <= I; a positive optimum means the slice
    is unbounded (only possible when the normalizer is singular).
    """
    _, m_n = _pairing_complement(span_cols, normalizer)
    if m_n.shape[1] == 0:
        return False
    eye = hvec(identity(normalizer.dim))
    program = solver.MajorantProgram(
        (m_n, -m_n),
        np.concatenate([np.zeros(2 * eye.size), -(m_n.T @ eye)]),
        np.concatenate([np.zeros(eye.size), -eye]),
        "recession direction search",
    )
    sol = solver.solve(program, tol=1e-8)
    solver.require_optimal(sol, "recession direction search")
    return -sol.primal_value > 1e-7


def interior_element(section: Section) -> HermitianMatrix:
    """Member maximizing the smallest eigenvalue (a conic program).

    Positive definite exactly when the section is faithful; raises
    :class:`EmptySectionError` when the slice carries no PSD element.
    """
    b_star = _solve_interior(section.span_matrix(), section.normalizer)[1]
    return section.lift(b_star.with_dims(section.subsystem_dims))


# -- generic constructor with faithfulness handling ---------------------------


def _make_section(
    span_cols: np.ndarray,
    normalizer: HermitianMatrix,
    label: str,
    subsystem_dims=(),
    interior_hint: HermitianMatrix | None = None,
    descriptor: dict | None = None,
    embedding: np.ndarray | None = None,
    original_subsystem_dims=(),
) -> Section:
    """Section with the span of the orthonormal hvec columns ``span_cols``."""
    dim = normalizer.dim
    if span_cols.shape[1] == 0:
        raise EmptySectionError(f"section {label!r} has an empty span")
    w = eigenvalues(normalizer)
    if not _psd_values(w, DEFAULT_MEMBERSHIP_TOL):
        raise ValidationError(f"normalizer of section {label!r} is not PSD")
    if not _positive_definite(w):
        # A singular normalizer can leave the slice unbounded; reject that
        # outright (a positive-definite normalizer makes it compact for free).
        if _recession_direction_exists(span_cols, normalizer):
            raise ValidationError(
                f"section {label!r} is unbounded: the slice contains a PSD "
                "recession direction annihilated by the normalizer"
            )

    interior = None
    if interior_hint is not None:
        cand = interior_hint
        member_ok = (
            abs(trace_pair(cand, normalizer) - 1.0) <= 10 * DEFAULT_MEMBERSHIP_TOL
            and _span_residual(span_cols, cand)
            <= 10 * DEFAULT_MEMBERSHIP_TOL * (1 + frobenius_norm(cand))
        )
        if member_ok and _positive_definite(eigenvalues(cand)):
            interior = cand

    if interior is None:
        t_star, b_star = _solve_interior(span_cols, normalizer)
        scale = max(1.0, frobenius_norm(b_star))
        if t_star < -1e-6 * scale:
            # Even the best slice point has a negative eigenvalue.
            raise EmptySectionError(
                f"section {label!r} is empty: best achievable smallest eigenvalue "
                f"is {t_star:.3e}"
            )
        if t_star > FAITHFUL_EIG_TOL * scale:
            interior = b_star.with_dims(tuple(subsystem_dims))
        else:
            # Restrict to the support of the best achievable member.
            v = _support_columns(eig(b_star), 1e-7 * scale)
            rank = v.shape[1]
            if rank == 0:
                raise EmptySectionError(f"section {label!r} has no PSD member")
            comp = embedding @ v if embedding is not None else v
            compressed = (hunvec(col, dim) for col in span_cols.T)
            return _make_section(
                _orthonormalize_columns(_columns(herm(v.conj().T @ j @ v) for j in compressed)),
                HermitianMatrix(v.conj().T @ normalizer.entries @ v),
                label,
                subsystem_dims=(),
                descriptor=descriptor,
                embedding=comp,
                original_subsystem_dims=tuple(original_subsystem_dims)
                or tuple(subsystem_dims),
            )

    # A contiguous copy: a column slice of an SVD factor would keep the whole
    # factor alive and slow every product with the span.
    span_cols = np.ascontiguousarray(span_cols)
    span_cols.setflags(write=False)
    return Section(
        span_columns=span_cols,
        normalizer=normalizer.with_dims(tuple(subsystem_dims)) if subsystem_dims else normalizer,
        interior_point=interior,
        label=label,
        subsystem_dims=tuple(subsystem_dims),
        descriptor=descriptor,
        embedding=embedding,
        original_subsystem_dims=tuple(original_subsystem_dims),
    )


def _span_residual(span_cols: np.ndarray, x: HermitianMatrix) -> float:
    vec = hvec(x)
    return float(np.linalg.norm(vec - span_cols @ (span_cols.T @ vec)))


def _positive_definite(w: np.ndarray) -> bool:
    """Smallest of the descending eigenvalues ``w`` above FAITHFUL_EIG_TOL * max(1, largest)."""
    return bool(w[-1] > FAITHFUL_EIG_TOL * max(1.0, float(w[0])))


# -- membership ----------------------------------------------------------------


def require_faithful(section: Section, what: str) -> None:
    """ValidationError naming ``what`` for a restricted section: it lives on its carrier space."""
    if section.restricted:
        raise ValidationError(f"{what} needs a faithful section, not one restricted to a support")


def contains(section: Section, x: HermitianMatrix, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
    """Span membership + unit pairing with the normalizer + PSD, all within tol (:func:`as_tol`)."""
    xc = section.slice_point(x, tol)
    return xc is not None and psd_check(xc, tol)


# -- concrete families ---------------------------------------------------------


def _cached_after(check):
    """The builder behind an ``lru_cache`` keyed on what ``check`` makes of the
    arguments: the dimension rule runs first.  ``__wrapped__`` is the builder."""
    def decorate(build):
        cached = functools.lru_cache(maxsize=None)(build)
        return functools.wraps(build)(lambda *args, **kw: cached(*check(*args, **kw)))

    return decorate


@_cached_after(lambda d: (as_dim(d, "dimension d"),))
def states_section(d: int) -> Section:
    """All density matrices on a space of dimension d: the full slice through I."""
    return dataclasses.replace(
        full_slice_section(identity(d)),
        label=f"states({d})",
        descriptor={"kind": "states", "dims": [d]},
    )


def singleton_section(b: HermitianMatrix) -> Section:
    """The one-element section {b} for PSD b != 0.

    When b is rank deficient the section is restricted to its support,
    where the normalized pseudo-inverse is the normalizer.
    """
    # one decomposition gives the PSD test, the support and the normalizer,
    # the pseudo-inverse (diagonal in v's coordinates when restricted)
    s = eig(b)
    if not _psd_values(s.eigenvalues, 1e-9):
        raise ValidationError("singleton_section needs a PSD matrix")
    v = _support_columns(s)
    rank = v.shape[1]
    if rank == 0:
        raise ValidationError("singleton_section needs a nonzero matrix")
    full = rank == b.dim
    bc = b if full else HermitianMatrix(v.conj().T @ b.entries @ v)
    inv = 1.0 / s.eigenvalues[:rank]
    return _make_section(
        _columns([bc / frobenius_norm(bc)]),
        HermitianMatrix((v * inv) @ v.conj().T if full else np.diag(inv)) / rank,
        "singleton",
        subsystem_dims=b.subsystem_dims if full else (),
        interior_hint=bc,
        embedding=None if full else v,
        original_subsystem_dims=() if full else b.subsystem_dims,
    )


def full_slice_section(b: HermitianMatrix) -> Section:
    """The whole slice {a >= 0 : Tr(a b) = 1} cut by one positive-definite b.

    This is the base of the full PSD cone determined by b; its norm has the
    closed form |b^(1/2) x b^(1/2)|_1 and its dual section is the one-element
    section {b}.  The states section is the special case b = I.
    """
    if not _positive_definite(eigenvalues(b)):
        raise ValidationError(
            "full_slice_section needs a positive-definite matrix (the slice "
            "through a singular matrix is unbounded)"
        )
    d = b.dim
    interior = b / trace_pair(b, b)  # the scaled copy of b on the slice
    return _make_section(
        np.eye(d * d),
        b,
        f"slice({d})",
        subsystem_dims=b.subsystem_dims,
        interior_hint=interior,
        descriptor={"kind": "singleton", "matrix": matrix_to_json(b)},
    )


def dual_section(section: Section) -> Section:
    """All PSD matrices pairing to one with every member.

    The span is the normalizer n joined with the orthogonal complement of the
    span columns M: span{M p} (+) M-perp for p = M^T hvec(n), with the basis
    [M p / |p| | ``complement_matrix()``], orthonormal as built.  Normalized by
    the input's interior point, duality twice reproduces the original membership.
    """
    got = section._cache.get("dual")
    if got is not None:
        return got
    m = section.span_matrix()
    p = m.T @ hvec(section.normalizer)
    dual = _make_section(
        np.column_stack([m @ (p / np.linalg.norm(p)), section.complement_matrix()]),
        section.interior_point,
        f"dual({section.label})",
        subsystem_dims=section.subsystem_dims,
        interior_hint=section.normalizer,
        embedding=section.embedding,
        original_subsystem_dims=section.original_subsystem_dims,
    )
    section._cache["dual"] = dual
    return dual


def transpose_section(section: Section) -> Section:
    """Entrywise transpose of every member (again a section)."""
    return _make_section(
        _transpose_columns(section.span_matrix(), section.ambient_dim),
        transpose_in_basis(section.normalizer),
        f"transpose({section.label})",
        subsystem_dims=section.subsystem_dims,
        interior_hint=transpose_in_basis(section.interior_point),
        embedding=None if section.embedding is None else section.embedding.conj(),
        original_subsystem_dims=section.original_subsystem_dims,
    )


def _marginal_section(section: Section, traceless: np.ndarray, dk: int, kind: str) -> Section:
    """The section with span (traceless (x) Herm(H)) + (I_K/sqrt(dk) (x) dual^T)
    for orthonormal hvec columns ``traceless`` on K: exact Kronecker lifts.
    Labelled ``kind(base label,dk)``; its descriptor names ``kind`` and the
    base's descriptor, when the base has one.  Both parts are written into
    one span array, the only span-sized allocation of the build."""
    label = f"{kind}({section.label},{dk})"
    require_faithful(section, label)
    desc = None
    if section.descriptor is not None:
        desc = {"kind": kind, "dims": [dk], "base": section.descriptor}
    dual = dual_section(section)
    h = section.ambient_dim
    eye_k = identity(dk)
    n_free = traceless.shape[1] * h * h
    span_cols = np.empty((dk * dk * h * h, n_free + dual.span_dim))
    _kron_columns(traceless, dk, np.eye(h * h), h, span_cols[:, :n_free])
    dual_cols = _transpose_columns(dual.span_matrix(), h)
    _kron_columns(hvec(eye_k)[:, None] / math.sqrt(dk), dk, dual_cols, h, span_cols[:, n_free:])
    return _make_section(
        span_cols,
        tensor(eye_k, transpose_in_basis(section.interior_point)),
        label,
        subsystem_dims=(dk,) + section.dims_tuple(),
        interior_hint=tensor(eye_k / dk, transpose_in_basis(dual.interior_point)),
        descriptor=desc,
    )


def generalized_section(section: Section, dim_out: int) -> Section:
    """Choi matrices of completely positive maps sending the given section
    into density matrices.

    Membership on K (x) H is "X PSD and Tr_K X in (dual section)^T", so the
    span is ker Tr_K + I_K (x) (dual span)^T: the traceless matrices on K
    tensored with all of Herm(H), plus I_K/sqrt(dim_out) tensored with the
    transposed dual basis, both exact Kronecker products of orthonormal
    bases.  The normalizer is I_K (x) b0^T for the interior member b0, and
    I_K/dim_out (x) n^T (n the dual interior point) is an interior point.
    """
    dk = as_dim(dim_out, "output dimension dim_out")
    # off-diagonal hvec coordinates are traceless already
    traceless = np.zeros((dk * dk, dk * dk - 1))
    traceless[:dk, : dk - 1] = _zero_sum_columns(dk)
    traceless[dk:, dk - 1 :] = np.eye(dk * dk - dk)
    return _marginal_section(section, traceless, dk, "generalized")


@_cached_after(lambda dim_in, dim_out: (as_dim(dim_in, "dim_in"), as_dim(dim_out, "dim_out")))
def channels_section(dim_in: int, dim_out: int) -> Section:
    """Choi matrices of channels from H (dim_in) to K (dim_out), two dimensions."""
    return dataclasses.replace(
        generalized_section(states_section(dim_in), dim_out),
        label=f"channels({dim_in},{dim_out})",
        descriptor={"kind": "channels", "dims": [dim_in, dim_out]},
    )


@_cached_after(lambda dims: (as_dims(dims, "comb dims"),))
def comb_section(dims: tuple[int, ...]) -> Section:
    """Choi matrices of sequential networks over spaces H_0, ..., H_n.

    ``dims`` is any sequence of at least two dimensions.  Built recursively:
    the base case is the channel section for (H_0, H_1); each further space
    wraps the previous section in ``generalized_section``.
    """
    if len(dims) < 2:
        raise ShapeError(f"comb_section needs at least two positive dims, got {dims}")
    sec = channels_section(dims[0], dims[1])
    for d in dims[2:]:
        sec = generalized_section(sec, d)
    label = f"comb({','.join(str(d) for d in dims)})"
    return dataclasses.replace(
        sec, label=label, descriptor={"kind": "combs", "dims": list(dims)}, _cache={}
    )


def povm_section(section: Section, outcomes: int) -> Section:
    """Block-diagonal members whose transposed blocks form a measurement on
    the given section (effects PSD, summing into the dual section).

    The span is (traceless diagonal on D) (x) Herm(H) plus
    I_D/sqrt(outcomes) (x) (dual span)^T, exact Kronecker products of
    orthonormal bases.  ``outcomes`` is a dimension.
    """
    n_d = as_dim(outcomes, "outcomes")
    traceless = np.zeros((n_d * n_d, n_d - 1))
    traceless[:n_d] = _zero_sum_columns(n_d)
    return _marginal_section(section, traceless, n_d, "povm")


def id_tensor_section(section: Section, d_left: int) -> Section:
    """The section {I_d (x) b : b in B} on the enlarged space; d = ``d_left``, a dimension."""
    d = as_dim(d_left, "d_left")
    require_faithful(section, "id_tensor_section")
    eye = identity(d)
    return _make_section(
        _kron_columns(
            hvec(eye)[:, None] / math.sqrt(d), d, section.span_matrix(), section.ambient_dim
        ),
        tensor(eye / d, section.normalizer),
        f"id({d})(x){section.label}",
        subsystem_dims=(d,) + section.dims_tuple(),
        interior_hint=tensor(eye, section.interior_point),
    )


def custom_section(basis, normalizer: HermitianMatrix, label: str = "custom") -> Section:
    """Section from a user-provided spanning set and normalizer.

    The basis is orthonormalized (one thresholded SVD; dependent directions
    are dropped); faithfulness is established by solving for an interior point
    and the section is support-restricted if necessary.
    """
    mats = [herm(m) for m in basis]
    if not mats:
        raise ValidationError("custom_section needs a nonempty basis")
    normalizer = herm(normalizer)
    d = mats[0].dim
    if any(m.dim != d for m in mats):
        raise ShapeError(
            f"custom_section basis matrices differ in dimension: {sorted({m.dim for m in mats})}"
        )
    if normalizer.dim != d:
        raise ShapeError(f"custom_section normalizer has dimension {normalizer.dim}, basis {d}")
    return _make_section(
        _orthonormalize_columns(_columns(mats)),
        normalizer,
        label,
        subsystem_dims=mats[0].subsystem_dims,
    )


# -- JSON descriptors ----------------------------------------------------------


def section_to_descriptor(section: Section) -> dict:
    """Serializable descriptor, a copy the caller may change; structured kinds
    round-trip, anything else is dumped as a custom basis + normalizer."""
    if section.descriptor is not None:
        return copy.deepcopy(section.descriptor)
    return {
        "kind": "custom",
        "dims": list(section.dims_tuple()),
        "basis": [matrix_to_json(section.lift(j)) for j in section.span_basis],
        "normalizer": matrix_to_json(section.lift(section.normalizer)),
    }


def section_from_descriptor(obj) -> Section:
    from .hermitian import json_dims, json_field, json_list, matrix_from_json

    kind = json_field(obj, "kind", "section descriptor")
    where = f"section descriptor of kind {kind!r}"
    if kind == "states":
        return states_section(json_dims(obj, where)[0])
    if kind == "singleton":
        # the slice through one positive-definite matrix (states is b = I)
        return full_slice_section(matrix_from_json(json_field(obj, "matrix", where)))
    if kind == "channels":
        return channels_section(*json_dims(obj, where, least=2)[:2])
    if kind == "combs":
        return comb_section(json_dims(obj, where))
    if kind == "generalized":
        base = section_from_descriptor(json_field(obj, "base", where))
        return generalized_section(base, json_dims(obj, where)[0])
    if kind == "povm":
        base = section_from_descriptor(json_field(obj, "base", where))
        return povm_section(base, json_dims(obj, where)[0])
    if kind == "custom":
        basis = [matrix_from_json(m) for m in json_list(obj, "basis", where)]
        return custom_section(basis, matrix_from_json(json_field(obj, "normalizer", where)))
    raise ValidationError(f"unknown section kind {kind!r}")
