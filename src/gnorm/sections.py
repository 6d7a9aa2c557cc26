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
isometry recorded in ``embedding``) and flagged ``restricted``.  A section's
``subsystem_dims`` are always the caller's: queries accept matrices on the
caller's space, and every matrix handed back is lifted onto it with those
dims.  A restricted carrier is unstructured.

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
    DEPENDENT_DROP_TOL,
    PRODUCT_CHUNK,
    HermitianMatrix,
    _complement_columns,
    _hvec_layout,
    _orthonormalize_columns,
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
    json_dims,
    json_field,
    json_list,
    matrix_from_json,
    matrix_to_json,
    psd_check,
    tensor,
    trace_pair,
    transpose_in_basis,
    unit_exponent,
)

DEFAULT_MEMBERSHIP_TOL = 1e-8
# A candidate interior point counts as positive definite above this floor.
FAITHFUL_EIG_TOL = 1e-8
# Emptiness and boundedness: an interior optimum t* is nonzero beyond this * max(1, |b*|_F).
INTERIOR_MARGIN = 1e-6


@dataclass(frozen=True, eq=False)
class Section:
    """Immutable affine description of one section.

    ``span_columns`` holds the hvec coordinates of a trace-orthonormal
    spanning basis, one column each (read-only); it is the only span data
    stored, and ``span_basis`` is the same basis as matrices, built on each
    read.  Structured builders (generalized, channel, comb, POVM and
    transposed sections) leave a recipe for the columns in the cache, and
    the span is built on its first read; ``span_dim`` is known either way.
    The complement N is exact too: a structured section's closed form,
    stated by its builder, or the trailing columns of a custom, singleton
    or restricted span's complete QR factor, built on the first read of
    :meth:`complement_matrix`.  After construction the span's projector E
    is read through :meth:`projector` alone, whichever side is cached.
    ``normalizer`` pairs to 1 with every member; ``interior_point`` is a
    positive-definite member.  ``embedding`` (an isometry) is set when the
    section was compressed onto the support of its best member: the span is
    then the given span's part on that support, the interior point that
    member, and the section ``restricted``.  Callers' matrices live on the
    space of ``subsystem_dims`` (``()`` for one unstructured system, as for
    :class:`HermitianMatrix`), of dimension ``original_dim`` when restricted;
    carrier matrices (basis, normalizer, interior point) carry these dims
    too, but a restricted carrier is unstructured.
    """

    span_dim: int
    normalizer: HermitianMatrix
    interior_point: HermitianMatrix
    label: str
    subsystem_dims: tuple[int, ...] = ()
    descriptor: dict | None = None
    embedding: np.ndarray | None = None
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
    def span_columns(self) -> np.ndarray:
        return self._read("span")

    @property
    def span_basis(self) -> tuple[HermitianMatrix, ...]:
        """The basis as matrices: each read builds all ``span_dim`` again, so read it once."""
        return tuple(
            hunvec_matrix(col, self.ambient_dim, self.normalizer.subsystem_dims)
            for col in self.span_columns.T
        )

    @property
    def dims(self) -> tuple[int, ...]:
        """The caller space's subsystem dims; ``(dim,)`` when unstructured."""
        v = self.normalizer.entries if self.embedding is None else self.embedding
        return self.subsystem_dims or (v.shape[0],)

    def span_matrix(self) -> np.ndarray:
        """hvec coordinates of the spanning basis, one column per element."""
        return self.span_columns

    def span_coords(self, x: HermitianMatrix) -> np.ndarray:
        if x.dim != self.ambient_dim:
            raise ShapeError(f"span coordinates of a matrix of dimension {x.dim}: "
                             f"expected dimension {self.ambient_dim}")
        return self.span_matrix().T @ hvec(x)

    def from_span_coords(self, coords: np.ndarray) -> HermitianMatrix:
        coords = as_array(coords, "span coordinates")
        if coords.shape != (self.span_dim,):
            raise ShapeError(f"span coordinates of shape {coords.shape}: "
                             f"expected {self.span_dim} coordinates")
        vec = self.span_matrix() @ coords
        return hunvec_matrix(vec, self.ambient_dim, self.normalizer.subsystem_dims)

    def complement_matrix(self) -> np.ndarray:
        """Orthonormal hvec basis N of the span's orthogonal complement, built on the first read
        and kept read-only: the dual span and thin majorant programs share this array.  Every
        builder leaves N, or its recipe, in the cache: a structured section its closed form, a
        function of the section's own parts (empty for a full slice); custom, singleton and
        restricted sections the trailing columns of the span's complete QR factor
        (:func:`_complement_columns`)."""
        return self._read("complement")

    def projector(self) -> tuple[np.ndarray, bool]:
        """(C, complement): orthonormal hvec columns stating the span's projector E, and whether
        they span E's complement.  The thin-side rule: N (E = I - N N^T) when d^2 - k < k, else
        M (E = M M^T), built on its first read.  Programs, their objective E hvec(n) and
        membership read E here alone, applied by :func:`solver.apply_projector`."""
        complement = 2 * self.span_dim > self.ambient_dim ** 2
        return self._read("complement" if complement else "span"), complement

    def _read(self, key: str) -> np.ndarray:
        """The cached columns under ``key``, built from their recipe on the first read."""
        got = self._cache[key] = _built(self._cache[key])
        return got

    def compress(self, x: HermitianMatrix, tol: float = DEFAULT_MEMBERSHIP_TOL):
        """Map a caller-space matrix into the carrier space.

        Returns None when ``x`` has weight outside the support subspace
        (beyond ``tol`` relative, :func:`as_tol`), which for norm purposes
        means +infinity.  Raises ShapeError when ``x`` is not of the
        caller-space dimension.
        """
        tol = as_tol(tol, "tol")
        expected = math.prod(self.dims)
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
        off = _off_span(*self.projector(), xc)
        err = max(off, abs(trace_pair(xc, self.normalizer) - 1))
        return xc if err <= tol * (1.0 + frobenius_norm(xc)) else None

    def lift(self, xc: HermitianMatrix) -> HermitianMatrix:
        """Map a carrier-space matrix back to the caller space, with its dims."""
        if self.embedding is None:
            return xc if xc.dims == self.dims else xc.with_dims(self.subsystem_dims)
        v = self.embedding
        return HermitianMatrix(v @ xc.entries @ v.conj().T, self.subsystem_dims)

    def __repr__(self) -> str:
        extra = ", restricted" if self.restricted else ""
        return f"Section({self.label}, ambient={self.ambient_dim}, span={self.span_dim}{extra})"


# -- linear algebra over hvec coordinates ------------------------------------


def _columns(mats) -> np.ndarray:
    """hvec coordinates of the matrices, one column each."""
    return np.column_stack([hvec(m) for m in mats])


def _built(columns) -> np.ndarray:
    """``columns`` itself, or the array its recipe builds, made read-only."""
    if not isinstance(columns, np.ndarray):
        columns = columns()
    columns.flags.writeable = False
    return columns


@functools.lru_cache(maxsize=None)
def _kron_layout(d_left: int, d_right: int) -> tuple:
    """For each hvec coordinate of a (d_left d_right)-square L (x) R: the float-view
    positions of its factors' entries in L and in R (real parts; each imaginary part is
    next), and its scale; hvec coordinates from the returned count on read imaginary parts."""
    d = d_left * d_right
    take, scale, _, _ = _hvec_layout(d)
    (i, j), (k, l) = (divmod(rc, d_right) for rc in divmod(take // 2, d))
    return 2 * (i * d_left + k), 2 * (j * d_right + l), d * (d + 1) // 2, scale


def _entries(cols: np.ndarray, d: int, pos: np.ndarray):
    """Real and imaginary parts, one row per float-view position in ``pos``, of
    the entries of every column's matrix, read as :func:`hunvec` reads them."""
    _, _, src, coef = _hvec_layout(d)
    return cols[src[pos]] * coef[pos, None], cols[src[pos + 1]] * coef[pos + 1, None]


def _kron_columns(left, d_left: int, right, d_right: int, out=None) -> np.ndarray:
    """hvec columns of L (x) R for all pairs of hvec columns L of ``left`` and
    R of ``right``, left index outermost, written into ``out`` (new when None).
    Tr((L (x) R)(L' (x) R')) = Tr(L L') Tr(R R'): orthonormal inputs give
    orthonormal columns.  Each hvec coordinate is one product of an entry of L
    and one of R, gathered by :func:`_kron_layout` and written PRODUCT_CHUNK
    rows at a time.  Every entry has the bits of the complex product
    (L R)[r, s] accumulated into zeros, as einsum takes it (never -0.0), times
    the coordinate's scale."""
    d, n_left, k = d_left * d_right, left.shape[1], right.shape[1]
    if out is None:
        out = np.empty((d * d, n_left * k))
    pos_l, pos_r, n_re, scale = _kron_layout(d_left, d_right)
    lr, li = _entries(left, d_left, pos_l)
    for lo, hi in ((0, n_re), (n_re, d * d)):
        for top in range(lo, hi, PRODUCT_CHUNK):
            rows = slice(top, min(top + PRODUCT_CHUNK, hi))
            rr, ri = (x[:, None] for x in _entries(right, d_right, pos_r[rows]))
            a, b = lr[rows, :, None], li[rows, :, None]
            block = a * rr - b * ri if lo == 0 else a * ri + b * rr  # real or imaginary part
            block += 0.0
            block *= scale[rows, None, None]
            out[rows] = block.reshape(block.shape[0], n_left * k)
    return out


def _lifted_columns(free: np.ndarray, d_k: int, inner: np.ndarray, h: int) -> np.ndarray:
    """[free (x) Herm(H) | I_K/sqrt(d_k) (x) inner] as hvec columns on K (x) H, both
    Kronecker parts written into one new array, for hvec columns ``free`` on K and
    ``inner`` on H (of dimension h); Herm(H) is read as its unit columns."""
    n_free = free.shape[1] * h * h
    out = np.empty((d_k * d_k * h * h, n_free + inner.shape[1]))
    if n_free:
        _kron_columns(free, d_k, np.eye(h * h), h, out[:, :n_free])
    lead = hvec(identity(d_k))[:, None] / math.sqrt(d_k)
    _kron_columns(lead, d_k, inner, h, out[:, n_free:])
    return out


def _zero_sum_columns(n: int) -> np.ndarray:
    """Orthonormal basis of the vectors in R^n summing to zero (Helmert)."""
    out = np.zeros((n, n - 1))
    for k in range(1, n):
        out[:k, k - 1] = 1.0 / math.sqrt(k * (k + 1))
        out[k, k - 1] = -k / math.sqrt(k * (k + 1))
    return out


def _traceless_columns(d: int) -> np.ndarray:
    """Orthonormal hvec basis of the traceless d x d matrices: Helmert columns on
    the diagonal, then the off-diagonal coordinates, traceless already."""
    out = np.zeros((d * d, d * d - 1))
    out[:d, : d - 1] = _zero_sum_columns(d)
    out[d:, d - 1 :] = np.eye(d * d - d)
    return out


def full_hermitian_basis(dim: int) -> tuple[HermitianMatrix, ...]:
    """The hvec coordinate basis: an orthonormal basis of the whole space."""
    eye = np.eye(dim * dim)
    return tuple(hunvec_matrix(eye[:, k], dim) for k in range(dim * dim))


# -- interior points ----------------------------------------------------------


def _pairing_norm(p: np.ndarray, normalizer: HermitianMatrix) -> float:
    """|p| for p = M^T hvec(n), or M p (of one norm); EmptySectionError when p = 0:
    no member can pair to one."""
    norm_p = float(np.linalg.norm(p))
    if norm_p <= DEPENDENT_DROP_TOL * frobenius_norm(normalizer):
        raise EmptySectionError("empty slice: the whole span pairs to zero with the normalizer")
    return norm_p


def _dual_span(normalizer: HermitianMatrix, complement: np.ndarray) -> np.ndarray:
    """The dual section's span{M p} (+) M-perp as [M p / |p| | N], orthonormal, for
    ``complement`` N an orthonormal basis of M-perp: M p = M M^T hvec(n) is read through N
    as (I - N N^T) hvec(n), so no span matrix is read."""
    m_p = solver.apply_projector(complement, True, hvec(normalizer))
    return np.column_stack([m_p / _pairing_norm(m_p, normalizer), complement])


def _pairing_complement(span_cols: np.ndarray, normalizer: HermitianMatrix):
    """The slice's affine hull {M s : p . s = 1} = M s0 + range(M N), returned as (M s0, M N):
    s0 = p / |p|^2, N the last k - 1 columns of the Householder reflection taking p onto e_1."""
    p = span_cols.T @ hvec(normalizer)
    norm_p = _pairing_norm(p, normalizer)
    v = p.copy()
    v[0] += math.copysign(norm_p, p[0])
    m_n = span_cols[:, 1:] - np.outer(span_cols @ v, v[1:] * (2.0 / float(v @ v)))
    return span_cols @ (p / norm_p**2), m_n


# -- recipes: a builder keeps these, with their arguments, in the section's cache
# (a functools.partial, so sections still pickle), built on the first read


def _pairing_part(section: Section) -> np.ndarray:
    """The span's part orthogonal to p: the complement of the dual section's span."""
    return _pairing_complement(section.span_matrix(), section.normalizer)[1]


def _transposed(section: Section, key: str) -> np.ndarray:
    """The entrywise transposes of ``section``'s columns under ``key`` (span or complement)."""
    return _transpose_columns(section._read(key), section.ambient_dim)


def _lifted_complement(free: np.ndarray, d_k: int, inner: Section) -> np.ndarray:
    """[free (x) Herm(H) | I_K/sqrt(d_k) (x) the complement of ``inner``], H its space."""
    return _lifted_columns(free, d_k, inner.complement_matrix(), inner.ambient_dim)


def _solve_interior(span_cols, normalizer):
    """max t  s.t.  b in the slice,  b - t I >= 0,  with b = M s0 + M N u.

    Split hvec(I) = M N g + rho with rho orthogonal to M N (rho != 0 since
    Tr n > 0): then b - t I = M s0 + M N (u - t g) - t rho, which is
    M s0 + E q for E the projector onto the range of the orthonormal columns
    C = [M N | rho/|rho|] and t = -<q, rho>/|rho|^2, a one-copy majorant
    program with objective rho/|rho|^2.  b* = M s0 + q + t* I.
    Returns (t*, b*) of a converged solve; SolverError otherwise.
    """
    d = normalizer.dim
    m_s0, m_n = _pairing_complement(span_cols, normalizer)
    eye = hvec(identity(d))
    rho = solver.apply_projector(m_n, True, eye)
    norm_rho = float(np.linalg.norm(rho))
    c = np.concatenate([np.zeros(d * d), rho / norm_rho**2])
    program = solver.MajorantProgram(np.column_stack([m_n, rho / norm_rho]), 1, c, -m_s0,
                                     "interior point (max min-eigenvalue)")
    sol = solver.require_optimal(solver.solve(program, tol=1e-8), "interior point")
    q = sol.primal_point[1]
    t_star = -float(q @ rho) / norm_rho**2
    return t_star, hunvec_matrix(m_s0 + q + t_star * eye, d)


def _scaled_interior(span_cols, normalizer):
    """(t*, b*, unit): :func:`_solve_interior` on the normalizer times unit = 2^-e, the power
    of two of :func:`unit_exponent`, so that t* and b* come out 1 / unit times their size."""
    unit = math.ldexp(1.0, -unit_exponent(frobenius_norm(normalizer)))
    return *_solve_interior(span_cols, normalizer * unit), unit


def interior_element(section: Section) -> HermitianMatrix:
    """Member maximizing the smallest eigenvalue (a conic program, at unit scale).

    Positive definite exactly when the section is faithful; raises
    :class:`EmptySectionError` when the slice carries no PSD element.
    """
    _, b_star, unit = _scaled_interior(section.span_matrix(), section.normalizer)
    return section.lift(b_star * unit)


# -- generic constructor with faithfulness handling ---------------------------


def _make_section(
    span_cols,
    normalizer: HermitianMatrix,
    label: str,
    subsystem_dims=(),
    interior_hint: HermitianMatrix | None = None,
    descriptor: dict | None = None,
    embedding: np.ndarray | None = None,
    complement=None,
    span_dim: int | None = None,
) -> Section:
    """Section with the span of the orthonormal hvec columns ``span_cols``, judged in one
    pass: the interior point is a positive-definite ``interior_hint``, else the solved best
    member b*.  A singular b* restricts to its support v: the normalizer, the span's part on v
    (weight off v at most INTERIOR_MARGIN) and b*, projected there and paired to one.
    ``complement`` is the orthonormal complement N of ``span_cols`` in closed form, or its
    recipe; the section keeps it for :meth:`Section.complement_matrix` unless it is restricted
    here.  This is the one place that supplies a default: a builder that states no N, and a
    restriction, get the recipe :func:`_complement_columns` over the span, built on its first
    read.  ``span_cols`` may be a recipe for ``span_dim`` columns, given with a complement:
    the section then builds the span on its first read, and the hint is tested through N.
    The side built here is the builder's; every later read of E picks :meth:`Section.projector`'s.

    The best member is solved for, and judged, at unit scale (:func:`_scaled_interior`); b*
    is scaled back, so the judgement does not turn on the normalizer's absolute scale."""
    dim = normalizer.dim
    carrier = tuple(subsystem_dims) if embedding is None else ()
    if isinstance(span_cols, np.ndarray):
        # A contiguous copy: a column slice of an SVD factor would keep the whole
        # factor alive and slow every product with the span.
        span_cols = _built(np.ascontiguousarray(span_cols))
        span_dim = span_cols.shape[1]
    if span_dim == 0:
        raise EmptySectionError(f"section {label!r} has an empty span")
    if complement is None:
        complement = functools.partial(_complement_columns, span_cols)
    elif not isinstance(span_cols, np.ndarray):
        complement = _built(complement)
    w = eigenvalues(normalizer)
    if not _psd_values(w, DEFAULT_MEMBERSHIP_TOL):
        raise ValidationError(f"normalizer of section {label!r} is not PSD")
    if not _positive_definite(w):
        # The slice is bounded exactly when no PSD y != 0 in the span has Tr(y n) = 0, i.e.
        # (Gordan's alternative) when the dual span holds a positive-definite matrix.
        complement = _built(complement)
        t_star, z_star = _solve_interior(_dual_span(normalizer, complement), identity(dim))
        if t_star <= INTERIOR_MARGIN * max(1.0, frobenius_norm(z_star)):
            why = "the slice contains a PSD recession direction annihilated by the normalizer"
            raise ValidationError(f"section {label!r} is unbounded: {why}")

    interior = None
    if interior_hint is not None:
        recipe = not isinstance(span_cols, np.ndarray)  # test the side the builder holds built
        off_span = _off_span(complement if recipe else span_cols, recipe, interior_hint)
        member_ok = (
            abs(trace_pair(interior_hint, normalizer) - 1.0) <= 10 * DEFAULT_MEMBERSHIP_TOL
            and off_span <= 10 * DEFAULT_MEMBERSHIP_TOL * (1 + frobenius_norm(interior_hint))
        )
        if member_ok and _positive_definite(eigenvalues(interior_hint)):
            interior = interior_hint

    if interior is None:
        span_cols = _built(span_cols)
        t_star, b_star, unit = _scaled_interior(span_cols, normalizer)
        scale = max(1.0, frobenius_norm(b_star))
        if t_star < -INTERIOR_MARGIN * scale:
            # Even the best slice point has a negative eigenvalue.
            why = f"best achievable smallest eigenvalue is {t_star * unit:.3e}"
            raise EmptySectionError(f"section {label!r} is empty: {why}")
        if t_star > FAITHFUL_EIG_TOL * scale:
            interior = (b_star * unit).with_dims(carrier)
        else:
            # v = support(b*); unit directions of weight w off v compress to norm sqrt(1 - w^2).
            # Those with w <= INTERIOR_MARGIN cut a slice in the bounded one, where b* is PD.
            v = _support_columns(eig(b_star), 1e-7 * scale)
            compressed = _columns(v.conj().T @ hunvec(col, dim) @ v for col in span_cols.T)
            u, s, _ = np.linalg.svd(compressed, full_matrices=False)
            span_cols = _built(np.ascontiguousarray(u[:, s * s >= 1.0 - INTERIOR_MARGIN**2]))
            span_dim = span_cols.shape[1]
            if span_dim == 0:
                raise EmptySectionError(f"section {label!r} has no PSD member")
            normalizer = HermitianMatrix(v.conj().T @ normalizer.entries @ v)
            b_v = hvec(v.conj().T @ b_star.entries @ v)
            b_c = solver.apply_projector(span_cols, False, b_v)
            interior = hunvec_matrix(b_c / float(b_c @ hvec(normalizer)), v.shape[1])
            embedding = v if embedding is None else embedding @ v
            carrier = ()
            complement = functools.partial(_complement_columns, span_cols)

    if normalizer.subsystem_dims != carrier:
        normalizer = normalizer.with_dims(carrier)
    return Section(
        span_dim=span_dim,
        normalizer=normalizer,
        interior_point=interior,
        label=label,
        subsystem_dims=tuple(subsystem_dims),
        descriptor=descriptor,
        embedding=embedding,
        _cache={"span": span_cols, "complement": complement},
    )


def _off_span(columns: np.ndarray, complement: bool, x: HermitianMatrix) -> float:
    """|v - E v| for v = hvec(x): its weight off the span of the E that ``columns`` state."""
    v = hvec(x)
    return float(np.linalg.norm(v - solver.apply_projector(columns, complement, v)))


def _positive_definite(w: np.ndarray) -> bool:
    """Smallest of the descending eigenvalues ``w`` above FAITHFUL_EIG_TOL * max(1, largest)."""
    return bool(w[-1] > FAITHFUL_EIG_TOL * max(1.0, float(w[0])))


# -- membership and programs -----------------------------------------------------


def require_faithful(section: Section, what: str) -> None:
    """ValidationError naming ``what`` for a restricted section: it lives on its carrier space."""
    if section.restricted:
        raise ValidationError(f"{what} needs a faithful section, not one restricted to a support")


def contains(section: Section, x: HermitianMatrix, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
    """Span membership + unit pairing with the normalizer + PSD, all within tol (:func:`as_tol`)."""
    xc = section.slice_point(x, tol)
    return xc is not None and psd_check(xc, tol)


def majorant_program(section: Section, copies: int) -> solver.MajorantProgram:
    """The program  min Tr(q n) : q in J,  q - P_j = b_j (j < copies),  P_j >= 0,
    stated as E q - P_j = b_j for q in hvec coordinates, E the span's orthogonal
    projector on the side :meth:`Section.projector` chooses, and objective E hvec(n).
    Callers set the right-hand sides.  Cached on the section."""
    key = ("majorant", copies)
    got = section._cache.get(key)
    if got is None:
        cols, complement = section.projector()
        n_rows = copies * section.ambient_dim ** 2
        p = solver.apply_projector(cols, complement, hvec(section.normalizer))
        got = section._cache[key] = solver.MajorantProgram(
            cols, copies, np.concatenate([np.zeros(n_rows), p]), np.zeros(n_rows),
            f"majorant over {section.label}, {copies} copies", complement)
    return got


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
        subsystem_dims=b.subsystem_dims,
        interior_hint=bc,
        embedding=None if full else v,
    )


def full_slice_section(b: HermitianMatrix) -> Section:
    """The whole slice {a >= 0 : Tr(a b) = 1} cut by one positive-definite b.

    This is the base of the full PSD cone determined by b; its norm has the
    closed form |b^(1/2) x b^(1/2)|_1 and its dual section is the one-element
    section {b}.  The states section is the special case b = I.  A singular b
    is refused as unbounded (ValidationError), b = 0 as empty (EmptySectionError).
    The span is all of Herm(d), so the complement is stated empty.
    """
    d = b.dim
    bb = trace_pair(b, b)
    return _make_section(
        np.eye(d * d),
        b,
        f"slice({d})",
        subsystem_dims=b.subsystem_dims,
        interior_hint=b / bb if bb > 0 else None,  # the scaled copy of b on the slice
        descriptor={"kind": "singleton", "matrix": matrix_to_json(b)},
        complement=np.empty((d * d, 0)),
    )


def dual_section(section: Section) -> Section:
    """All PSD matrices pairing to one with every member.

    The span is the normalizer n joined with the orthogonal complement of the
    span columns M: span{M p} (+) M-perp for p = M^T hvec(n), with the basis
    [M p / |p| | N], orthonormal as built, N = ``complement_matrix()``.  M p is
    the span's part (I - N N^T) hvec(n), so the build reads no span matrix.
    Its own complement is M's part orthogonal to p, M H for the last k - 1
    columns H of a Householder reflection (:func:`_pairing_part`), which
    reads M on its first read.  Normalized by the input's interior point,
    duality twice reproduces the original membership.
    """
    got = section._cache.get("dual")
    if got is not None:
        return got
    dual = _make_section(
        _dual_span(section.normalizer, section.complement_matrix()),
        section.interior_point,
        f"dual({section.label})",
        subsystem_dims=section.subsystem_dims,
        interior_hint=section.normalizer,
        embedding=section.embedding,
        complement=functools.partial(_pairing_part, section),
    )
    section._cache["dual"] = dual
    return dual


def transpose_section(section: Section) -> Section:
    """Entrywise transpose of every member (again a section): an isometry that
    keeps the PSD order, so nothing is checked or solved again.  It maps the
    span onto the span and the complement onto the complement; both are
    recipes, so the view reads nothing of ``section`` until it is asked."""
    return Section(
        section.span_dim,
        transpose_in_basis(section.normalizer),
        transpose_in_basis(section.interior_point),
        f"transpose({section.label})",
        subsystem_dims=section.subsystem_dims,
        embedding=None if section.embedding is None else section.embedding.conj(),
        _cache={key: functools.partial(_transposed, section, key)
                for key in ("span", "complement")},
    )


def _marginal_section(
    section: Section, traceless: np.ndarray, rest: np.ndarray, dk: int, kind: str
) -> Section:
    """The section with span (traceless (x) Herm(H)) + (I_K/sqrt(dk) (x) dual^T)
    for orthonormal hvec columns ``traceless`` on K: exact Kronecker lifts.
    ``rest`` completes ``traceless`` and I_K/sqrt(dk) to an orthonormal basis
    of Herm(K), so the complement is (rest (x) Herm(H)) + (I_K/sqrt(dk) (x)
    the complement of dual^T).  Both are recipes: the section builds N at
    once and the span on its first read.  Labelled ``kind(base label,dk)``; its
    descriptor names ``kind`` and the base's descriptor, when the base has one."""
    label = f"{kind}({section.label},{dk})"
    require_faithful(section, label)
    desc = None
    if section.descriptor is not None:
        desc = {"kind": kind, "dims": [dk], "base": section.descriptor}
    dual_t = transpose_section(dual_section(section))
    eye_k = identity(dk)
    h = section.ambient_dim
    return _make_section(
        functools.partial(_lifted_columns, traceless, dk, dual_t.span_matrix(), h),
        tensor(eye_k, dual_t.normalizer),
        label,
        subsystem_dims=(dk,) + section.dims,
        interior_hint=tensor(eye_k / dk, dual_t.interior_point),
        descriptor=desc,
        complement=functools.partial(_lifted_complement, rest, dk, dual_t),
        span_dim=traceless.shape[1] * h * h + dual_t.span_dim,
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
    return _marginal_section(section, _traceless_columns(dk), np.zeros((dk * dk, 0)), dk,
                             "generalized")


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
    # a fresh cache keeps only the span and the complement, which the new label does not name
    return dataclasses.replace(
        sec, label=label, descriptor={"kind": "combs", "dims": list(dims)},
        _cache={key: sec._cache[key] for key in ("span", "complement")},
    )


def povm_section(section: Section, outcomes: int) -> Section:
    """Block-diagonal members whose transposed blocks form a measurement on
    the given section (effects PSD, summing into the dual section).

    The span is (traceless diagonal on D) (x) Herm(H) plus
    I_D/sqrt(outcomes) (x) (dual span)^T, exact Kronecker products of
    orthonormal bases.  ``outcomes`` is a dimension.
    """
    n_d = as_dim(outcomes, "outcomes")
    # the traceless diagonal, then the off-diagonal coordinates
    traceless = _traceless_columns(n_d)
    return _marginal_section(section, traceless[:, : n_d - 1], traceless[:, n_d - 1 :], n_d,
                             "povm")


def id_tensor_section(section: Section, d_left: int) -> Section:
    """The section {I_d (x) b : b in B} on the enlarged space; d = ``d_left``, a dimension.
    Its span I_d/sqrt(d) (x) the base's span is written at once: with k <= d^2 it is never
    the side :meth:`Section.projector` thins to (for d >= 2), so majorant programs read it.
    Its complement (traceless (x) Herm(H)) + (I_d/sqrt(d) (x) the base's complement) stays a
    recipe.  Cached on the base section."""
    d = as_dim(d_left, "d_left")
    require_faithful(section, "id_tensor_section")
    key = ("id", d)
    got = section._cache.get(key)
    if got is None:
        eye = identity(d)
        got = section._cache[key] = _make_section(
            _lifted_columns(np.zeros((d * d, 0)), d, section.span_matrix(), section.ambient_dim),
            tensor(eye / d, section.normalizer),
            f"id({d})(x){section.label}",
            subsystem_dims=(d,) + section.dims,
            interior_hint=tensor(eye, section.interior_point),
            complement=functools.partial(_lifted_complement, _traceless_columns(d), d, section),
        )
    return got


def custom_section(basis, normalizer: HermitianMatrix, label: str = "custom") -> Section:
    """Section from a user-provided spanning set and normalizer.

    The basis is orthonormalized (one thresholded SVD; dependent directions
    are dropped); faithfulness is established by solving for an interior point
    and the section is support-restricted if necessary.  The span's complement
    has no closed form: it is read off the span's complete QR factor on its
    first read (:func:`_complement_columns`).
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
        "dims": list(section.dims),
        "basis": [matrix_to_json(section.lift(j)) for j in section.span_basis],
        "normalizer": matrix_to_json(section.lift(section.normalizer)),
    }


def section_from_descriptor(obj) -> Section:
    """The section a descriptor names (``dims`` as :func:`section_to_descriptor` writes them)."""
    kind = json_field(obj, "kind", "section descriptor")
    where = f"section descriptor of kind {kind!r}"
    if kind == "singleton":
        # the slice through one positive-definite matrix (states is b = I)
        return full_slice_section(matrix_from_json(json_field(obj, "matrix", where)))
    if kind == "custom":
        basis = [matrix_from_json(m) for m in json_list(obj, "basis", where)]
        if "dims" in obj and any(m.dims != json_dims(obj, where) for m in basis):
            raise ShapeError(f"{where}: field 'dims' is not the dims of every basis matrix")
        return custom_section(basis, matrix_from_json(json_field(obj, "normalizer", where)))
    n = {"states": 1, "generalized": 1, "povm": 1, "channels": 2, "combs": 2}.get(kind)
    if n is None:
        raise ValidationError(f"unknown section kind {kind!r}")
    dims = json_dims(obj, where, least=n)
    if len(dims) > n and kind != "combs":
        raise ShapeError(f"{where}: field 'dims' needs exactly {n} entries, got {list(dims)}")
    if kind == "states":
        return states_section(*dims)
    if kind == "channels":
        return channels_section(*dims)
    if kind == "combs":
        return comb_section(dims)
    build = generalized_section if kind == "generalized" else povm_section
    return build(section_from_descriptor(json_field(obj, "base", where)), *dims)
