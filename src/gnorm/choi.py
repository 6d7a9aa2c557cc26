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
from .hermitian import HermitianMatrix, partial_trace

DEFAULT_CHANNEL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Choi matrix of a map from H (dimension dim_in) to K (dim_out).

    The underlying hermitian matrix lives on K (x) H, i.e. subsystem order is
    (output, input).
    """

    matrix: HermitianMatrix

    def __post_init__(self):
        if len(self.matrix.subsystem_dims) != 2:
            raise ShapeError(
                "a Choi matrix needs exactly two subsystem dims (output, input), "
                f"got {self.matrix.subsystem_dims}"
            )

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
    """Unnormalized |psi> = sum_i |i>|i>, norm^2 = d."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0
    return v


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


def apply_choi(x: ChoiMatrix | HermitianMatrix, a: HermitianMatrix) -> HermitianMatrix:
    """Phi_X(a) = Tr_H[(I_K (x) a^T) X]."""
    xm = x.matrix if isinstance(x, ChoiMatrix) else x
    if len(xm.subsystem_dims) != 2:
        raise ShapeError("apply_choi needs a matrix with (output, input) subsystem dims")
    dK, dH = xm.subsystem_dims
    if a.dim != dH:
        raise ShapeError(f"input dim {a.dim} does not match Choi input dim {dH}")
    t = xm.entries.reshape(dK, dH, dK, dH)
    out = np.einsum("kilj,ji->kl", t, a.entries.T)
    return HermitianMatrix(out)


def choi_tensor_id(x: ChoiMatrix | HermitianMatrix, ancilla_dim: int) -> ChoiMatrix:
    """Choi matrix of Phi (x) id_L on (K L) (x) (H L)."""
    xm = x.matrix if isinstance(x, ChoiMatrix) else x
    dK, dH = xm.subsystem_dims
    dL = int(ancilla_dim)
    t = xm.entries.reshape(dK, dH, dK, dH)
    eye = np.eye(dL)
    # Z[(k,a,i,b), (k',a',j,b')] = X[(k,i),(k',j)] delta_{a b} delta_{a' b'}
    z = np.einsum("uivj,ab,cd->uaibvcjd", t, eye, eye)
    d = dK * dL * dH * dL
    return ChoiMatrix(HermitianMatrix(z.reshape(d, d), (dK * dL, dH * dL)))


def apply_choi_tensor_id(
    x: ChoiMatrix | HermitianMatrix, ancilla_dim: int, sigma: HermitianMatrix
) -> HermitianMatrix:
    """(Phi (x) id_L)(sigma) for sigma on H (x) L, via the Choi matrix of
    Phi (x) id_L."""
    xm = x.matrix if isinstance(x, ChoiMatrix) else x
    dK, dH = xm.subsystem_dims
    dL = int(ancilla_dim)
    if sigma.dim != dH * dL:
        raise ShapeError(f"sigma dim {sigma.dim} does not match H*L = {dH * dL}")
    out = apply_choi(choi_tensor_id(xm, dL), sigma)
    return out.with_dims((dK, dL))


def is_channel_choi(x: ChoiMatrix | HermitianMatrix, tol: float = DEFAULT_CHANNEL_TOL) -> bool:
    """Choi characterization of trace-preserving cp maps: X >= 0, Tr_K X = I."""
    xm = x.matrix if isinstance(x, ChoiMatrix) else x
    from .hermitian import identity, psd_check  # local to avoid cycle noise

    if len(xm.subsystem_dims) != 2:
        return False
    marg = partial_trace(xm, 0)
    ident = identity(marg.dim)
    return psd_check(xm, tol) and bool(
        np.max(np.abs(marg.entries - ident.entries)) <= tol * (1.0 + np.max(np.abs(xm.entries)))
    )


# -- JSON wire format --------------------------------------------------------


def kraus_to_json(m: KrausMap) -> list:
    return [[[[float(z.real), float(z.imag)] for z in row] for row in v] for v in m.operators]


def kraus_from_json(obj) -> KrausMap:
    try:
        ops = [
            np.array([[complex(c[0], c[1]) for c in row] for row in v], dtype=complex)
            for v in obj
        ]
    except (TypeError, IndexError) as exc:
        raise ShapeError(f"Kraus JSON must be a list of [re, im] matrices: {exc}") from exc
    return KrausMap(tuple(ops))


def kraus_channel(operators) -> ChoiMatrix:
    """Convenience: Choi matrix straight from a list of Kraus operators."""
    return choi_of_kraus(KrausMap(tuple(np.asarray(v, dtype=complex) for v in operators)))
