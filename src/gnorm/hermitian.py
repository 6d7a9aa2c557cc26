"""Dense complex hermitian matrix calculus.

The central value type is :class:`HermitianMatrix`, an immutable dense
complex matrix stored in exactly hermitized form, optionally carrying a
factorization of its space into tensor subsystems.  Subsystems are always
listed in "output before input" order, so a map from H to K lives on K (x) H
with ``subsystem_dims = (dim_K, dim_H)``.

Everything here is a pure function of its arguments: eigendecompositions,
functional calculus (square roots, pseudo-inverse square roots, positive and
negative parts), tensor products, partial traces, and the trace / operator
norms.  The real parametrization ``hvec``/``hunvec`` maps a d x d hermitian
matrix to d^2 real coordinates so that the trace inner product becomes the
Euclidean one; the conic solver and the section machinery are built on it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import InitVar, dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericalError, ShapeError

# Asymmetry above this (relative) is rejected when strict construction is on.
STRICT_HERMITICITY_TOL = 1e-8
# Eigenvalue cutoff for supports and pseudo-inverses, relative to
# max(1, largest eigenvalue).  Keeps the support-restricted limit of
# b^{-1/2} x b^{-1/2} well conditioned.
SUPPORT_CUTOFF = 1e-10
# A direction whose singular value is at most this (relative) counts as dependent.
DEPENDENT_DROP_TOL = 1e-9
# Rows per part where a Kronecker product of hvec columns is written in parts.
PRODUCT_CHUNK = 256


def _real(value) -> bool:
    """The real-number test: an int, a float or a numpy one, never a bool or a string."""
    return type(value) is not bool and isinstance(value, (int, float, np.integer, np.floating))


def _integral(value) -> bool:
    """The integer test: a real number (:func:`_real`) of integral value."""
    return type(value) is int or _real(value) and float(value).is_integer()


def as_dims(value, name: str) -> tuple[int, ...]:
    """The dimension rule.  A dims argument is a sequence (list, tuple or 1-d
    array, never a string) of dimensions: integers (:func:`_integral`) of at
    least 1.  Returns them as ints, else raises a ShapeError naming ``name``."""
    # tuple and list first: the Sequence ABC check costs more than the rest
    seq = isinstance(value, (tuple, list, Sequence)) and not isinstance(value, (str, bytes))
    if (seq or getattr(value, "ndim", 0) == 1) and all(_integral(d) and d >= 1 for d in value):
        return tuple(map(int, value))
    raise ShapeError(f"{name} must be positive: a list of integers of at least one; got {value!r}")


def as_dim(value, name: str) -> int:
    """One dimension by the rule of :func:`as_dims`, as a Python int."""
    return as_dims((value,), name)[0]


def as_count(value, name: str, least: int = 1) -> int:
    """The count rule: an integer (:func:`_integral`) of at least ``least``, as an int."""
    if _integral(value) and value >= least:
        return int(value)
    raise DomainError(f"{name} must be an integer of at least {least}; got {value!r}")


def as_tol(value, name: str) -> float:
    """The tolerance rule: a finite, non-negative real number (:func:`_real`), as a float."""
    if _real(value) and 0 <= value < math.inf:  # false for NaN
        return float(value)
    raise DomainError(f"{name} must be a finite, non-negative number; got {value!r}")


def as_array(value, name: str, dtype=float, finite: bool = True) -> np.ndarray:
    """The numeric array rule.  An array argument is an ndarray or nested lists
    of finite ints and floats, and of complex numbers when ``dtype`` is complex;
    never bools, strings, objects or ragged nesting.  Returns it as ``dtype``,
    else raises a ShapeError naming ``name``.  ``finite=False`` admits NaN and ±inf."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.array(None)
    kinds = "iufc" if dtype is complex else "iuf"
    numbers = arr.dtype.kind in kinds and (arr is value or not _holds_bool(value))
    if numbers and (not finite or np.isfinite(arr).all()):
        return arr.astype(dtype, copy=False)
    what = "ints, floats or complex" if dtype is complex else "ints or floats"
    raise ShapeError(f"{name} must be finite numbers ({what}, no bools) in a rectangular array")


def _holds_bool(value) -> bool:
    """True for a bool, a bool array, or lists and tuples holding one at any
    depth: numpy reads a bool nested among numbers as a number."""
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return isinstance(value, (bool, np.bool_)) or getattr(value, "dtype", None) == bool


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """An element of the real vector space of hermitian matrices.

    Construction reads nonempty square entries by :func:`as_array`,
    hermitizes them, ``x := (x + x^*)/2``, and rejects a non-finite result.
    With ``strict=True`` an asymmetry above ``STRICT_HERMITICITY_TOL``
    (relative to the largest entry) raises instead.  ``subsystem_dims`` is an
    ordered tuple of factor dimensions whose product must equal ``dim``; the
    empty tuple means a single unstructured system; any sequence passing
    :func:`as_dims` is accepted.
    """

    entries: np.ndarray
    subsystem_dims: tuple[int, ...] = ()
    strict: InitVar[bool] = False

    def __post_init__(self, strict: bool):
        # finiteness is read once below, after hermitizing, which can overflow
        arr = as_array(self.entries, "matrix entries", complex, finite=False)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
            raise ShapeError(f"expected a nonempty square matrix, got shape {arr.shape}")
        twice = arr + arr.conj().T  # finite exactly when the hermitized matrix is
        if not np.isfinite(twice).all():
            raise ShapeError("matrix has non-finite (NaN or infinite) entries")
        if strict:
            scale = float(np.max(np.abs(arr)))
            asym = float(np.max(np.abs(arr - arr.conj().T)))
            if asym > STRICT_HERMITICITY_TOL * max(1.0, scale):
                raise ShapeError(
                    f"matrix is not hermitian: asymmetry {asym:.3e} exceeds "
                    f"{STRICT_HERMITICITY_TOL:.0e} * max(1, |entries|)"
                )
        twice /= 2
        twice.setflags(write=False)
        object.__setattr__(self, "entries", twice)
        dims = as_dims(self.subsystem_dims, "subsystem dims")
        if dims and math.prod(dims) != arr.shape[0]:
            raise ShapeError(f"product of dims {dims} does not match dim {arr.shape[0]}")
        object.__setattr__(self, "subsystem_dims", dims)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        """Effective subsystem dimensions; ``(dim,)`` when unstructured."""
        return self.subsystem_dims if self.subsystem_dims else (self.dim,)

    def with_dims(self, subsystem_dims) -> HermitianMatrix:
        return HermitianMatrix(self.entries, subsystem_dims)

    # -- arithmetic (real linear structure of the hermitian space) ----------

    def _binary_dims(self, other: HermitianMatrix) -> tuple[int, ...]:
        if self.dim != other.dim:
            raise ShapeError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return self.subsystem_dims or other.subsystem_dims

    def __add__(self, other: HermitianMatrix) -> HermitianMatrix:
        dims = self._binary_dims(other)
        return HermitianMatrix(self.entries + other.entries, dims)

    def __radd__(self, other) -> HermitianMatrix:
        if isinstance(other, (int, float)) and other == 0:  # supports sum()
            return self
        return NotImplemented

    def __sub__(self, other: HermitianMatrix) -> HermitianMatrix:
        dims = self._binary_dims(other)
        return HermitianMatrix(self.entries - other.entries, dims)

    def __neg__(self) -> HermitianMatrix:
        return HermitianMatrix(-self.entries, self.subsystem_dims)

    def __mul__(self, scalar) -> HermitianMatrix:
        s = float(scalar)
        return HermitianMatrix(self.entries * s, self.subsystem_dims)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> HermitianMatrix:
        return self * (1.0 / float(scalar))

    def allclose(self, other: HermitianMatrix, tol: float = 1e-10) -> bool:
        return self.dim == other.dim and bool(
            np.allclose(self.entries, other.entries, atol=tol, rtol=tol)
        )

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim}, subsystem_dims={self.subsystem_dims})"


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition with eigenvalues sorted in descending order.

    ``eigenvectors`` holds the corresponding orthonormal eigenvectors as
    columns, so ``x = U diag(w) U^*``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm(data, dims=None, strict: bool = False) -> HermitianMatrix:
    """Build a :class:`HermitianMatrix` from any array-like; ``dims`` by :func:`as_dims`."""
    if isinstance(data, HermitianMatrix):
        return data.with_dims(dims) if dims is not None else data
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the ShapeError alone
        return HermitianMatrix(data, () if dims is None else dims, strict)


def identity(dims) -> HermitianMatrix:
    """The identity on a space of dimension ``dims`` or on the product of a sequence of them."""
    dims = as_dims(dims if isinstance(dims, (Sequence, np.ndarray)) else (dims,), "dims")
    return HermitianMatrix(np.eye(math.prod(dims)), dims if len(dims) > 1 else ())


def zeros(dims) -> HermitianMatrix:
    """The zero matrix on the space of :func:`identity`."""
    return identity(dims) * 0.0


def outer(vector, dims=None) -> HermitianMatrix:
    """Rank-one projector-like matrix |v><v| (unnormalized)."""
    v = as_array(vector, "vector", complex).reshape(-1)
    return herm(np.outer(v, v.conj()), dims)


def diag(values) -> HermitianMatrix:
    return HermitianMatrix(np.diag(as_array(values, "diagonal values")))


def trace_pair(a: HermitianMatrix, b: HermitianMatrix) -> float:
    """Trace inner product Tr(a b), real for hermitian arguments."""
    a._binary_dims(b)  # the dimension test of + and -
    return float(np.vdot(b.entries, a.entries).real)


def trace(x: HermitianMatrix) -> float:
    return float(np.trace(x.entries).real)


def frobenius_norm(x: HermitianMatrix) -> float:
    return float(np.linalg.norm(x.entries))


def unit_exponent(norm: float) -> int:
    """0 for a norm within [2^-4, 2^4]; otherwise the e with norm * 2^-e in
    [1/2, 1) (``math.frexp``).  :func:`~gnorm.solver.solve`, whose stop rule is
    absolute below unit scale, solves a far-from-unit program at that power of two."""
    return 0 if 2.0**-4 <= norm <= 2.0**4 else math.frexp(norm)[1]


# -- eigendecomposition and functional calculus -----------------------------


def eig(x: HermitianMatrix) -> Spectrum:
    """Full eigendecomposition, eigenvalues descending."""
    try:
        w, u = np.linalg.eigh(x.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    return Spectrum(w[::-1].copy(), u[:, ::-1].copy())


def eigenvalues(x: HermitianMatrix) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(x.entries)[::-1].copy()
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc


def trace_norm(x: HermitianMatrix) -> float:
    """Sum of absolute eigenvalues; equals Tr x on PSD input."""
    return float(np.sum(np.abs(eigenvalues(x))))


def op_norm(x: HermitianMatrix) -> float:
    """Largest absolute eigenvalue."""
    return float(np.max(np.abs(eigenvalues(x))))


def psd_check(x: HermitianMatrix, tol: float = 1e-9) -> bool:
    """True iff the smallest eigenvalue is >= -tol * (1 + op_norm(x)), tol by :func:`as_tol`."""
    return _psd_values(eigenvalues(x), as_tol(tol, "tol"))


def _psd_values(w: np.ndarray, tol: float) -> bool:
    """:func:`psd_check` read off the descending eigenvalues ``w``."""
    return bool(w[-1] >= -tol * (1.0 + float(np.max(np.abs(w)))))


def _support_cutoff(w: np.ndarray) -> float:
    return SUPPORT_CUTOFF * max(1.0, float(w[0]))


def _support_columns(s: Spectrum, cutoff: float | None = None) -> np.ndarray:
    """Orthonormal eigenvector columns of ``s`` with eigenvalue above cutoff,
    largest first.  Default cutoff is ``SUPPORT_CUTOFF * max(1, largest eigenvalue)``."""
    if cutoff is None:
        cutoff = _support_cutoff(s.eigenvalues)
    return s.eigenvectors[:, s.eigenvalues > cutoff]


def _orthonormalize_columns(cols: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span by one thresholded SVD: directions
    with singular value at most DEPENDENT_DROP_TOL * max(1, largest) are
    dropped.  The kept columns lead the SVD factor; they are returned as a
    view of it."""
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, : np.count_nonzero(s > DEPENDENT_DROP_TOL * max(1.0, float(s[0])))]


def _complement_columns(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of range(m), for the
    orthonormal d^2 x k columns ``m``: the trailing d^2 - k columns of m's
    complete QR factor, copied C-ordered so that the d^2 x d^2 factor is freed.
    It is the complement of a custom, singleton or restricted section's span,
    which has no closed form (structured sections build theirs from their
    Kronecker parts).  Exact as built: columns that are already orthonormal
    need no threshold."""
    return np.array(np.linalg.qr(m, mode="complete")[0][:, m.shape[1] :], order="C")


def support_projection(x: HermitianMatrix, cutoff: float | None = None) -> HermitianMatrix:
    """Orthogonal projection onto the eigenvectors of x with eigenvalue above
    cutoff (default as in :func:`_support_columns`)."""
    u = _support_columns(eig(x), cutoff)
    return HermitianMatrix(u @ u.conj().T, x.subsystem_dims)


def abs_pos_neg(x: HermitianMatrix) -> tuple[HermitianMatrix, HermitianMatrix, HermitianMatrix]:
    """Return (|x|, x_+, x_-) with x = x_+ - x_-, |x| = x_+ + x_-, x_+ x_- = 0."""
    s = eig(x)
    pos = np.clip(s.eigenvalues, 0.0, None)
    neg = np.clip(-s.eigenvalues, 0.0, None)
    u = s.eigenvectors
    x_pos = HermitianMatrix((u * pos) @ u.conj().T, x.subsystem_dims)
    x_neg = HermitianMatrix((u * neg) @ u.conj().T, x.subsystem_dims)
    x_abs = HermitianMatrix((u * (pos + neg)) @ u.conj().T, x.subsystem_dims)
    return x_abs, x_pos, x_neg


def _psd_spectrum(s: Spectrum) -> Spectrum:
    """The spectrum ``s`` with eigenvalues clipped at zero; DomainError unless
    it passes :func:`psd_check` at 1e-9."""
    if not _psd_values(s.eigenvalues, 1e-9):
        low = float(s.eigenvalues[-1])
        raise DomainError(f"matrix has negative eigenvalue {low:.3e}, not PSD within 1e-09")
    return Spectrum(np.clip(s.eigenvalues, 0.0, None), s.eigenvectors)


def sqrt_psd(x: HermitianMatrix) -> HermitianMatrix:
    """Principal square root of a PSD matrix."""
    return _sqrt_psd(eig(x), x.subsystem_dims)


def _sqrt_psd(s: Spectrum, dims: tuple[int, ...]) -> HermitianMatrix:
    """:func:`sqrt_psd` read off the eigendecomposition ``s``."""
    s = _psd_spectrum(s)
    u = s.eigenvectors
    return HermitianMatrix((u * np.sqrt(s.eigenvalues)) @ u.conj().T, dims)


def pinv_sqrt(x: HermitianMatrix) -> HermitianMatrix:
    """Pseudo-inverse square root: eigenvalues above the support cutoff are
    mapped to 1/sqrt, the rest to zero."""
    return _pinv_sqrt(_psd_spectrum(eig(x)), x.subsystem_dims)


def _pinv_sqrt(s: Spectrum, dims: tuple[int, ...]) -> HermitianMatrix:
    """:func:`pinv_sqrt` read off the eigendecomposition ``s``, with no PSD test."""
    cutoff = _support_cutoff(s.eigenvalues)
    inv = np.where(s.eigenvalues > cutoff, 1.0 / np.sqrt(np.maximum(s.eigenvalues, cutoff)), 0.0)
    u = s.eigenvectors
    return HermitianMatrix((u * inv) @ u.conj().T, dims)


# -- tensor algebra ----------------------------------------------------------


def tensor(x: HermitianMatrix, y: HermitianMatrix) -> HermitianMatrix:
    return HermitianMatrix(np.kron(x.entries, y.entries), x.dims + y.dims)


def partial_trace(x: HermitianMatrix, subsystem_index: int) -> HermitianMatrix:
    """Trace out the named tensor factor.

    Satisfies the adjointness Tr((I (x) a) x) = Tr(a Tr_K x) when the first
    factor K is traced out, and the analogous identity for any index.
    """
    dims = x.subsystem_dims
    if not dims:
        raise ShapeError("partial_trace requires subsystem_dims to be set")
    n, k = len(dims), subsystem_index
    if not (_integral(k) and 0 <= k < n):
        raise ShapeError(f"subsystem_index must be an integer in [0, {n}) for {dims}; got {k!r}")
    k = int(k)
    tens = x.entries.reshape(dims + dims)
    out = np.trace(tens, axis1=k, axis2=n + k)
    rest = dims[:k] + dims[k + 1 :]
    d = math.prod(rest) if rest else 1
    return HermitianMatrix(out.reshape(d, d), rest if len(rest) > 1 else ())


def transpose_in_basis(x: HermitianMatrix) -> HermitianMatrix:
    """Entrywise transpose in the fixed computational basis."""
    return HermitianMatrix(x.entries.T.copy(), x.subsystem_dims)


# -- real parametrization ----------------------------------------------------

_SQRT2 = math.sqrt(2.0)


@lru_cache(maxsize=None)
def _hvec_layout(d: int) -> tuple[np.ndarray, ...]:
    """For a d x d matrix: the float-view positions and scales of the hvec
    coordinates (read by hvec) and, for every float-view entry, the hvec
    coordinate it is rebuilt from and its coefficient (read by hunvec)."""
    iu, ju = np.triu_indices(d, k=1)
    up, low = 2 * (iu * d + ju), 2 * (ju * d + iu)
    take = np.concatenate([2 * (d + 1) * np.arange(d), up, up + 1])
    scale = np.concatenate([np.ones(d), np.full(2 * up.shape[0], _SQRT2)])
    src = np.zeros(2 * d * d, dtype=np.intp)
    coef = np.zeros(2 * d * d)  # the diagonal's imaginary parts stay zero
    src[take] = np.arange(d * d)
    coef[take] = 1.0 / scale
    src[low], src[low + 1] = src[up], src[up + 1]
    coef[low], coef[low + 1] = coef[up], -coef[up + 1]
    return take, scale, src, coef


def hvec(x: HermitianMatrix | np.ndarray) -> np.ndarray:
    """Isometric real coordinates of a hermitian matrix.

    Diagonal entries come first, then sqrt(2)-scaled real and imaginary
    parts of the upper triangle; Tr(x y) = hvec(x) . hvec(y).  Arrays may
    stack matrices along leading axes: (..., d, d) maps to (..., d^2).
    """
    arr = np.ascontiguousarray(x.entries if isinstance(x, HermitianMatrix) else x, dtype=complex)
    d = arr.shape[-1]
    take, scale, _, _ = _hvec_layout(d)
    return arr.reshape(arr.shape[:-2] + (d * d,)).view(float).take(take, axis=-1) * scale


def hunvec(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`hvec` (also on stacks), returning raw complex ndarrays:
    one gather of the coordinates into the complex float layout."""
    _, _, src, coef = _hvec_layout(d)
    return (v.take(src, axis=-1) * coef).view(complex).reshape(v.shape[:-1] + (d, d))


def hunvec_matrix(v: np.ndarray, d: int, dims=()) -> HermitianMatrix:
    return HermitianMatrix(hunvec(v, d), dims)


def _transpose_columns(cols: np.ndarray, d: int) -> np.ndarray:
    """hvec columns of the entrywise transposes: an isometry that flips the
    sign of the imaginary hvec coordinates."""
    out = cols.copy()
    out[d + d * (d - 1) // 2 :] *= -1.0
    return out


# -- JSON wire format --------------------------------------------------------


def complex_to_json(arr: np.ndarray) -> list:
    """A complex array as nested lists with one [re, im] pair per entry."""
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def complex_from_json(raw, where: str, ndim: int) -> np.ndarray:
    """The complex array of ``ndim`` axes written by :func:`complex_to_json`,
    or a ShapeError naming ``where``: entries fail :func:`as_array` (finiteness is
    read by its readers, HermitianMatrix and KrausMap), are not [re, im] pairs,
    or lie at another depth."""
    arr = as_array(raw, f"{where} ([re, im] pairs)", finite=False)
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise ShapeError(f"{where} is not a nested array of [re, im] pairs, {ndim} levels deep")
    return np.ascontiguousarray(arr).view(complex)[..., 0]


def matrix_to_json(x: HermitianMatrix) -> dict:
    """Serialize as {"dims": [...], "matrix": [[[re, im], ...], ...]}."""
    return {"dims": list(x.dims), "matrix": complex_to_json(x.entries)}


def json_field(obj, key: str, where: str):
    """``obj[key]``, or a ShapeError naming ``where`` when ``obj`` is no JSON
    object or lacks the field."""
    if not isinstance(obj, dict) or key not in obj:
        raise ShapeError(f"{where} must be an object with a '{key}' field")
    return obj[key]


def json_list(obj, key: str, where: str) -> list:
    """The field ``obj[key]``, which must be a JSON list, else a ShapeError
    naming ``where``."""
    raw = json_field(obj, key, where)
    if not isinstance(raw, list):
        raise ShapeError(f"{where}: field '{key}' must be a list, got {raw!r}")
    return raw


def json_floats(obj, key: str, where: str) -> np.ndarray:
    """The field ``obj[key]`` by :func:`as_array`, its errors naming ``where``."""
    return as_array(json_field(obj, key, where), f"{where}: field '{key}'")


def json_dims(obj, where: str, least: int = 1) -> tuple[int, ...]:
    """The field ``dims`` of ``obj``: a list of at least ``least`` dimensions
    (:func:`as_dims`), else a ShapeError naming ``where``."""
    dims = as_dims(json_list(obj, "dims", where), f"{where}: field 'dims'")
    if len(dims) < least:
        raise ShapeError(f"{where}: field 'dims' needs at least {least} entries, got {list(dims)}")
    return dims


def matrix_from_json(obj, strict: bool = False) -> HermitianMatrix:
    dims = json_dims(obj, "matrix JSON", least=0)
    arr = complex_from_json(json_field(obj, "matrix", "matrix JSON"), "field 'matrix'", 2)
    d = math.prod(dims)
    if arr.shape != (d, d):
        raise ShapeError(f"field 'matrix' has shape {arr.shape}, expected ({d}, {d})")
    return herm(arr, dims if len(dims) > 1 else (), strict)
