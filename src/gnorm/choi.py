"""Choi correspondence between linear maps and matrices.

A map Phi: B(H) -> B(K) is represented by its Choi matrix
X = (Phi (x) id)(Psi) on K (x) H, where Psi = |psi><psi| and
|psi> = sum_i |i>|i> is kept unnormalized.  The inverse direction applies a
Choi matrix to an input, Phi_X(a) = Tr_H[(I (x) a^T) X], with the transpose
taken in the fixed computational basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .hermitian import (
    HermitianMatrix,
    as_dim,
    complex_from_json,
    complex_to_json,
    identity,
    partial_trace,
    psd_check,
)

DEFAULT_CHANNEL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Choi matrix of a map from H (dimension dim_in) to K (dim_out).

    The underlying hermitian matrix lives on K (x) H, i.e. subsystem order is
    (output, input).
    """

    matrix: HermitianMatrix

    def __post_init__(self):
        choi_matrix(self.matrix)

    @property
    def dim_out(self) -> int:
        return self.matrix.subsystem_dims[0]

    @property
    def dim_in(self) -> int:
        return self.matrix.subsystem_dims[1]


@dataclass(frozen=True, eq=False)
class KrausMap:
    """A completely positive map given by a nonempty list of Kraus operators."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(v, dtype=complex) for v in self.operators)
        if not ops:
            raise ShapeError("a Kraus map needs at least one operator")
        shape = ops[0].shape
        if len(shape) != 2 or any(v.shape != shape for v in ops):
            raise ShapeError("Kraus operators must all share one 2-d shape")
        object.__setattr__(self, "operators", ops)

    @property
    def dim_out(self) -> int:
        return self.operators[0].shape[0]

    @property
    def dim_in(self) -> int:
        return self.operators[0].shape[1]

    def apply(self, a: HermitianMatrix) -> HermitianMatrix:
        if a.dim != self.dim_in:
            raise ShapeError(f"input dim {a.dim} does not match Kraus input {self.dim_in}")
        out = sum(v @ a.entries @ v.conj().T for v in self.operators)
        return HermitianMatrix(out)


def max_entangled_vector(d: int) -> np.ndarray:
    """Unnormalized |psi> = sum_i |i>|i>, norm^2 = d (:func:`~gnorm.hermitian.as_dim`)."""
    return np.eye(as_dim(d, "dimension d"), dtype=complex).reshape(-1)


def max_entangled_projection(d: int) -> HermitianMatrix:
    """Unnormalized Psi = |psi><psi| on H (x) H (trace d)."""
    v = max_entangled_vector(d)
    return HermitianMatrix(np.outer(v, v.conj()), (d, d))


def max_entangled_state(d: int) -> HermitianMatrix:
    """Normalized maximally entangled state Psi / d."""
    return max_entangled_projection(d) / d


def choi_of_kraus(m: KrausMap) -> ChoiMatrix:
    """X = sum_i (V_i (x) I) Psi (V_i (x) I)^*, PSD on K (x) H."""
    dK, dH = m.dim_out, m.dim_in
    x = np.zeros((dK * dH, dK * dH), dtype=complex)
    for v in m.operators:
        w = v.reshape(-1)  # (V (x) I)|psi> is the row-major flattening of V
        x += np.outer(w, w.conj())
    return ChoiMatrix(HermitianMatrix(x, (dK, dH)))


def choi_matrix(x, name: str = "Choi matrix") -> HermitianMatrix:
    """The matrix of a :class:`ChoiMatrix`, or ``x`` itself when it is a
    :class:`HermitianMatrix` with exactly two subsystem dims (output, input);
    anything else is a ShapeError naming ``name``."""
    if isinstance(x, ChoiMatrix):
        return x.matrix
    dims = x.subsystem_dims if isinstance(x, HermitianMatrix) else None
    if dims is None or len(dims) != 2:
        raise ShapeError(f"{name}: needs exactly two subsystem dims (output, input), got {dims}")
    return x


def apply_choi(x: ChoiMatrix | HermitianMatrix, a: HermitianMatrix) -> HermitianMatrix:
    """Phi_X(a) = Tr_H[(I_K (x) a^T) X]: :func:`apply_choi_tensor_id` with L = 1."""
    return HermitianMatrix(apply_choi_tensor_id(x, 1, a).entries)


def apply_choi_tensor_id(
    x: ChoiMatrix | HermitianMatrix, ancilla_dim: int, sigma: HermitianMatrix
) -> HermitianMatrix:
    """(Phi (x) id_L)(sigma) for sigma on H (x) L, a matrix on K (x) L.

    One contraction: entry ((k,a),(l,b)) is
    sum_ij X[(k,i),(l,j)] sigma[(i,a),(j,b)], the Choi formula of
    :func:`apply_choi` with the ancilla indices a, b carried along; L = ``ancilla_dim``.
    """
    xm = choi_matrix(x)
    dK, dH = xm.subsystem_dims
    dL = as_dim(ancilla_dim, "ancilla_dim")
    if sigma.dim != dH * dL:
        raise ShapeError(f"input dim {sigma.dim} does not match H*L = {dH * dL}")
    t = xm.entries.reshape(dK, dH, dK, dH)
    s = sigma.entries.reshape(dH, dL, dH, dL)
    out = np.einsum("kilj,iajb->kalb", t, s).reshape(dK * dL, dK * dL)
    return HermitianMatrix(out, (dK, dL))


def is_channel_choi(x: ChoiMatrix | HermitianMatrix, tol: float = DEFAULT_CHANNEL_TOL) -> bool:
    """X >= 0 and Tr_K X = I, the Choi test of a channel; False without (output, input) dims."""
    try:
        xm = choi_matrix(x)
    except ShapeError:
        return False
    marg = partial_trace(xm, 0)
    ident = identity(marg.dim)
    return psd_check(xm, tol) and bool(
        np.max(np.abs(marg.entries - ident.entries)) <= tol * (1.0 + np.max(np.abs(xm.entries)))
    )


# -- JSON wire format --------------------------------------------------------


def kraus_to_json(m: KrausMap) -> list:
    return complex_to_json(np.array(m.operators))


def kraus_from_json(obj) -> KrausMap:
    return KrausMap(tuple(complex_from_json(obj, "Kraus JSON", 3)))


def kraus_channel(operators) -> ChoiMatrix:
    """Convenience: Choi matrix straight from a list of Kraus operators."""
    return choi_of_kraus(KrausMap(tuple(np.asarray(v, dtype=complex) for v in operators)))
