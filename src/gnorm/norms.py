"""Norms attached to sections of the PSD cone, with certified witnesses.

For a section B with span J, normalizer n and dual section B~, the value
computed by :func:`base_norm` is

    |x|_B  =  min { Tr(q n) : q in J,  q - x >= 0,  q + x >= 0 }
           =  max { Tr(x (y1 - y2)) : y1, y2 >= 0,  y1 + y2 in B~ },

both sides coming out of a single operator-splitting solve (the maximizers
are the equality multipliers), together with the duality gap.  On PSD input
the same value is a plain linear program over the dual section,

    |a|_B  =  max { Tr(a y) : y in B~ }  =  min { Tr(q n) : q in J, q >= a },

and the minimizing side is exactly 2^(max-relative entropy of a from the
optimal member).  Closed forms replace the solver whenever the section is the
full slice {x >= 0 : Tr(x n) = 1} (value |n^(1/2) x n^(1/2)|_1) or a single
matrix {b} (value |b^(-1/2) x b^(-1/2)|, +inf off the support of b).

Specializations: the channel-section norm of a Choi-matrix difference is the
diamond norm, the network-section analogue generalizes it to combs, and the
order-unit norm over {I (x) rho} gives the conditional min-entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import solver
from .choi import choi_matrix
from .errors import DomainError, ShapeError, ValidationError
from .hermitian import (
    HermitianMatrix,
    _pinv_sqrt,
    _psd_spectrum,
    _sqrt_psd,
    _support_columns,
    eig,
    frobenius_norm,
    herm,
    hunvec_matrix,
    hvec,
    identity,
    psd_check,
    sqrt_psd,
    trace_norm,
    trace_pair,
)
from .sections import Section, _kron_columns, channels_section, comb_section, contains, dual_section

INF = math.inf


@dataclass(frozen=True, eq=False)
class NormResult:
    """Norm value with optimizers for both variational sides.

    ``value`` is the midpoint of the two conic objective values (they agree
    up to ``gap``); for closed forms all three coincide.  ``primal_witness``
    is the minimizing q (so value = Tr(q n), -q <= x <= q).  ``dual_witness``
    holds one PSD multiplier per majorant block q >= r_j: the pair (y1, y2),
    with y1 + y2 in the dual section, attaining Tr(x (y1 - y2)) for base
    norms; the effects for classical payoffs; (Y,) for quantum payoffs, Y
    the transposed Choi matrix of the procedure.  :func:`base_norm_psd`
    returns (Y, 0), Y the maximizing dual member, in the base-norm shape.
    Witnesses satisfy their constraints within a small multiple of the solve
    tolerance; both are None for infinite values.
    """

    value: float
    primal_value: float
    dual_value: float
    gap: float
    method: str  # closed_form | conic
    primal_witness: HermitianMatrix | None = None
    dual_witness: tuple[HermitianMatrix, ...] | None = None
    status: str = "optimal"
    iterations: int = 0  # the solver's last iteration; 0 for closed forms
    best_iteration: int = 0  # the iteration of the returned iterate
    rejected: int = 0  # safeguard rejections of the acceleration


# -- closed forms -------------------------------------------------------------


def _closed_form(value: float, q, ys, status: str = "optimal") -> NormResult:
    """The one closed-form NormResult: both sides equal ``value``, gap 0."""
    return NormResult(value, value, value, 0.0, "closed_form", q, ys, status)


def base_norm_singleton(b: HermitianMatrix, x: HermitianMatrix) -> float:
    """|b^(1/2) x b^(1/2)|_1 for PSD b: the norm of the full slice through b."""
    if b.dim != x.dim:
        raise ShapeError(f"dimension mismatch: {b.dim} vs {x.dim}")
    r = sqrt_psd(b)
    return trace_norm(HermitianMatrix(r.entries @ x.entries @ r.entries))


def _order_unit(b: HermitianMatrix, x: HermitianMatrix):
    """(|b^(-1/2) x b^(-1/2)|, b^(-1/2), the spectrum of b^(-1/2) x b^(-1/2)),
    or (+inf, None, None) when x leaks outside the support of b; DomainError
    when b is not PSD, wherever x lies."""
    if b.dim != x.dim:
        raise ShapeError(f"dimension mismatch: {b.dim} vs {x.dim}")
    # one decomposition gives the PSD test, the support test and b^(-1/2)
    sb = _psd_spectrum(eig(b))
    u = _support_columns(sb)
    p = u @ u.conj().T
    leak = x.entries - p @ x.entries @ p
    if float(np.linalg.norm(leak)) > 1e-9 * (1.0 + frobenius_norm(x)):
        return INF, None, None
    r = _pinv_sqrt(sb, b.subsystem_dims)
    s = eig(HermitianMatrix(r.entries @ x.entries @ r.entries))
    return float(np.max(np.abs(s.eigenvalues))), r, s


def order_unit_norm_singleton(b: HermitianMatrix, x: HermitianMatrix) -> float:
    """|b^(-1/2) x b^(-1/2)| on the support of b; +inf when x leaks outside."""
    return _order_unit(b, x)[0]


def dmax(a: HermitianMatrix, b: HermitianMatrix) -> float:
    """Max-relative entropy log2 inf{t : a <= t b}; +inf off-support.

    Returns -inf for a = 0 (every positive t works); DomainError unless a, b pass psd_check.
    """
    if not psd_check(a, 1e-9):  # the PSD rule _order_unit applies to b
        raise DomainError("dmax is defined for PSD arguments")
    t = order_unit_norm_singleton(b, a)
    if t == INF:
        return INF
    if t <= 0.0:
        return -INF
    return math.log2(t)


def _full_slice_norm(section: Section, x: HermitianMatrix) -> NormResult:
    n = section.normalizer
    sn = eig(n)
    r, rinv = _sqrt_psd(sn, n.subsystem_dims), _pinv_sqrt(sn, n.subsystem_dims)
    s = eig(HermitianMatrix(r.entries @ x.entries @ r.entries))
    w, u = s.eigenvalues, s.eigenvectors
    value = float(np.sum(np.abs(w)))
    # y1 weighs the positive eigenspace 1 and the kernel 1/2; y2 = n - y1
    cutoff = 1e-12 * max(1.0, float(np.max(np.abs(w))))
    weight = np.where(w > cutoff, 1.0, np.where(w < -cutoff, 0.0, 0.5))
    z_abs = (u * np.abs(w)) @ u.conj().T
    q = HermitianMatrix(rinv.entries @ z_abs @ rinv.entries, section.subsystem_dims)
    y1 = HermitianMatrix(r.entries @ (u * weight) @ u.conj().T @ r.entries, section.subsystem_dims)
    y2 = n - y1
    return _closed_form(value, section.lift(q), (section.lift(y1), section.lift(y2)))


def _singleton_norm(section: Section, x: HermitianMatrix) -> NormResult:
    # b is positive definite (the section's interior point): x never leaks
    b = section.interior_point
    value, rinv, s = _order_unit(b, x)
    q = section.lift((value * b).with_dims(section.subsystem_dims))
    top = int(np.argmax(np.abs(s.eigenvalues)))
    u = s.eigenvectors[:, top : top + 1]
    y = HermitianMatrix(rinv.entries @ (u @ u.conj().T) @ rinv.entries, section.subsystem_dims)
    zero = herm(np.zeros_like(y.entries), section.subsystem_dims)
    pair = (y, zero) if s.eigenvalues[top] >= 0 else (zero, y)
    return _closed_form(value, q, (section.lift(pair[0]), section.lift(pair[1])))


# -- conic programs ------------------------------------------------------------


def majorant_program(section: Section, copies: int, lifted: int = 0) -> solver.MajorantProgram:
    """The program  min Tr(q n) : q in J,  q - P_j = b_j (j < copies),
    I_lifted (x) q - P = b (when lifted > 0),  P_j >= 0.

    q = M s runs over the span (M = ``span_matrix``, orthonormal), so the
    lifts are M per copy and, for the lifted block, the Kronecker lift
    I (x) M (columns hvec(I (x) J_i)); their Gram sum is (copies + lifted) I.
    Callers set the right-hand sides.  Cached on the section.
    """
    key = ("majorant", copies, lifted)
    got = section._cache.get(key)
    if got is None:
        m_span = section.span_matrix()
        lifts = (m_span,) * copies
        if lifted:
            i_col = hvec(identity(lifted))[:, None]
            lifts += (_kron_columns(i_col, lifted, m_span, section.ambient_dim),)
        n_rows = sum(m.shape[0] for m in lifts)
        c = np.concatenate([np.zeros(n_rows), section.span_coords(section.normalizer)])
        desc = f"majorant over {section.label}, {copies} copies"
        if lifted:
            desc += f" and one lifted by I({lifted})"
        got = solver.MajorantProgram(lifts, c, np.zeros(n_rows), desc)
        section._cache[key] = got
    return got


def _conic_result(primal: float, dual: float, q, ys, sol: solver.ConeSolution) -> NormResult:
    """The one conic NormResult: value max(0, midpoint), gap |primal - dual|."""
    return NormResult(
        max(0.0, 0.5 * (primal + dual)), primal, dual, abs(primal - dual), "conic",
        q, ys, sol.status, sol.iterations, sol.best_iteration, sol.rejected,
    )


def majorant_norm(section: Section, blocks, scale: float, tol, max_iter, context) -> NormResult:
    """min Tr(q n) over {q in J : q >= r_j for each block r_j}, by one solve.

    Each block's size says which constraint it states: a block of dimension d
    (the section's) is q >= r_j, and a last block of dimension k d (k > 1) is
    the lifted I_k (x) q >= r_j.  Value and q are multiplied by ``scale``, and
    the dual witness holds each block's multiplier y_j, lifted to the
    caller's space."""
    d = section.ambient_dim
    lifted = blocks[-1].dim // d if blocks[-1].dim > d else 0
    rhs = np.concatenate([hvec(b) for b in blocks])
    program = majorant_program(section, len(blocks) - (lifted > 0), lifted).with_rhs(rhs)
    sol = solver.require_optimal(solver.solve(program, tol=tol, max_iter=max_iter), context)
    q = section.lift(section.from_span_coords(sol.primal_point[-1]) * scale)
    ys, lo = [], 0
    for b in blocks:
        y = sol.dual_vector[lo : lo + b.dim ** 2]
        dims = section.subsystem_dims if b.dim == d else (lifted,) + section.dims_tuple()
        ys.append(section.lift(hunvec_matrix(y, b.dim, dims)))
        lo += b.dim ** 2
    return _conic_result(sol.primal_value * scale, sol.dual_value * scale, q, tuple(ys), sol)


def _front_half(section: Section, x: HermitianMatrix, prefer_closed: bool, psd: bool):
    """What base_norm and base_norm_psd share before a solve: compress x, then
    answer +inf off the carrier, zero input and the closed forms.  Returns
    (result, None) when answered, else (None, compressed x)."""
    xc = section.compress(x)
    if xc is None:
        return _closed_form(INF, None, None, "unsupported"), None
    if psd and not psd_check(xc, 1e-8):
        raise DomainError("base_norm_psd needs a PSD input")
    if frobenius_norm(xc) == 0.0:
        d, half = section.ambient_dim, section.lift(section.normalizer / 2.0)
        return _closed_form(0.0, section.lift(herm(np.zeros((d, d)))), (half, half)), None
    if prefer_closed and section.span_dim == section.ambient_dim ** 2:
        return _full_slice_norm(section, xc), None
    if prefer_closed and section.span_dim == 1:
        return _singleton_norm(section, xc), None
    return None, xc


def base_norm(
    section: Section,
    x: HermitianMatrix,
    tol: float = solver.DEFAULT_TOL,
    max_iter: int = solver.DEFAULT_MAX_ITER,
    prefer_closed: bool = True,
) -> NormResult:
    """Norm of an arbitrary hermitian x relative to the section.

    Closed forms handle full-slice and one-member sections (disable with
    ``prefer_closed=False`` to force the conic path, e.g. for
    cross-validation); otherwise one conic solve returns matching primal and
    dual optimizers.  +inf is returned (not raised) when x is not supported
    on a restricted section's carrier subspace.
    """
    done, xc = _front_half(section, x, prefer_closed, psd=False)
    if done is not None:
        return done
    scale = frobenius_norm(xc)
    xn = xc / scale
    return majorant_norm(
        section, (xn, -xn), scale, tol, max_iter, f"base_norm over {section.label}"
    )


def dual_base_norm(
    section: Section,
    x: HermitianMatrix,
    tol: float = solver.DEFAULT_TOL,
    max_iter: int = solver.DEFAULT_MAX_ITER,
) -> NormResult:
    """Norm dual to :func:`base_norm`: the base norm of the dual section."""
    return base_norm(dual_section(section), x, tol=tol, max_iter=max_iter)


def base_norm_psd(
    section: Section,
    a: HermitianMatrix,
    tol: float = solver.DEFAULT_TOL,
    max_iter: int = solver.DEFAULT_MAX_ITER,
) -> NormResult:
    """Section norm of a PSD matrix: the linear program over the dual.

    One majorant solve gives both sides: the minimizing side inf Tr(q n)
    over {q in J : q >= a} (the max-relative-entropy form of the value) and,
    as its multiplier, the maximizer of sup Tr(a y) over dual members y.
    ``a`` is solved at unit Frobenius norm.  A closed form's base-norm pair
    (y1, y2) is returned as (y1 + y2, 0).
    """
    norm, ac = _front_half(section, a, prefer_closed=True, psd=True)
    if norm is None:
        scale = frobenius_norm(ac)
        norm = majorant_norm(
            section, (ac / scale,), scale, tol, max_iter, f"base_norm_psd over {section.label}"
        )
    if norm.dual_witness is None:
        return norm
    y = sum(norm.dual_witness[1:], norm.dual_witness[0])
    zero = herm(np.zeros_like(y.entries), y.subsystem_dims)
    return replace(norm, dual_witness=(y, zero))


# -- named specializations -----------------------------------------------------


def diamond_norm(
    x, tol: float = solver.DEFAULT_TOL, max_iter: int = solver.DEFAULT_MAX_ITER
) -> NormResult:
    """Channel-section norm of a hermitian matrix on K (x) H.

    For a difference of channel Choi matrices this is the diamond norm of the
    difference map; the dual optimizer is an optimal two-outcome tester pair.
    """
    m = choi_matrix(x)
    d_out, d_in = m.subsystem_dims
    return base_norm(channels_section(d_in, d_out), m, tol=tol, max_iter=max_iter)


def ncomb_norm(
    dims, x: HermitianMatrix, tol: float = solver.DEFAULT_TOL,
    max_iter: int = solver.DEFAULT_MAX_ITER,
) -> NormResult:
    """Network-section norm over the spaces H_0, ..., H_n (dims in that order).

    With an even count 2N of spaces this is the N-round network
    distinguishability norm.
    """
    dims = tuple(int(d) for d in dims)
    total = math.prod(dims)
    if x.dim != total:
        raise ShapeError(f"matrix dim {x.dim} != product of dims {dims}")
    xm = x.with_dims(tuple(reversed(dims)))
    return base_norm(comb_section(dims), xm, tol=tol, max_iter=max_iter)


def hmin(
    sigma: HermitianMatrix, tol: float = solver.DEFAULT_TOL,
    max_iter: int = solver.DEFAULT_MAX_ITER,
) -> float:
    """Conditional min-entropy of K given H for PSD sigma on K (x) H.

    Computed as -log2 of the order-unit norm over {I_K (x) rho}: the dual of
    the channel-section norm applied to sigma.  Returns +inf for sigma = 0
    (-log2 0, the mirror of :func:`dmax`'s -inf).
    """
    sigma = choi_matrix(sigma, "hmin's sigma")
    if not psd_check(sigma, 1e-8):
        raise DomainError("hmin needs a PSD matrix")
    d_out, d_in = sigma.subsystem_dims
    res = dual_base_norm(channels_section(d_in, d_out), sigma, tol=tol, max_iter=max_iter)
    return -math.log2(res.value) if res.value > 0.0 else INF


# -- optimizer certification -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExtremalCertificate:
    """Outcome of checking a claimed optimizer of the PSD-norm programs.

    ``feasible`` means the complementary-slackness witness exists within
    tolerance: for a dual candidate y0, some q in the span cone with
    a <= q and (q - a) y0 = 0; for a member candidate b0, a scale t and a
    dual element y0 with a <= t b0 and (t b0 - a) y0 = 0.  ``norm_value`` is
    :func:`base_norm_psd`'s value and ``optimum_gap`` the candidate's distance
    from it."""

    feasible: bool
    witness_q: HermitianMatrix | None
    witness_dual: HermitianMatrix | None
    scale_t: float
    slack_residual: float
    optimum_gap: float
    norm_value: float


def certify_extremal_psd(
    section: Section,
    a: HermitianMatrix,
    dual_candidate: HermitianMatrix | None = None,
    member_candidate: HermitianMatrix | None = None,
    tol: float = 1e-6,
    solve_tol: float = solver.DEFAULT_TOL,
    max_iter: int = solver.DEFAULT_MAX_ITER,
) -> ExtremalCertificate:
    """Check a claimed maximizer (dual element) or minimizer (member) of the
    PSD-norm value for ``a``.

    Exactly one candidate must be given; both are checked against one
    :func:`base_norm_psd` result, which decides ``feasible`` by the gap.  A
    dual candidate y0 falls short by value - Tr(a y0), with the norm's q as
    witness (every dual element pairs with q as n does); a member b0
    overshoots by t - value, t the least scale with a <= t b0.
    """
    if (dual_candidate is None) == (member_candidate is None):
        raise ValidationError("pass exactly one of dual_candidate / member_candidate")
    ac = section.compress(a)
    if ac is None:
        raise ValidationError("input has weight outside the section's carrier space")
    if not psd_check(ac, 1e-8):
        raise DomainError("certify_extremal_psd needs PSD input")
    check_tol = max(1e-6, 10 * tol)
    if dual_candidate is not None:
        if not contains(dual_section(section), dual_candidate, check_tol):
            raise ValidationError("dual candidate is not a member of the dual section")
    elif not contains(section, member_candidate, check_tol):
        raise ValidationError("member candidate is not a member of the section")

    norm = base_norm_psd(section, a, tol=solve_tol, max_iter=max_iter)
    if dual_candidate is not None:
        y0 = section.compress(dual_candidate, check_tol)
        q = section.compress(norm.primal_witness)
        paired = trace_pair(ac, y0)
        gap = norm.value - paired
        slack = float(np.linalg.norm((q.entries - ac.entries) @ y0.entries))
        return ExtremalCertificate(
            feasible=bool(gap <= tol * max(1.0, abs(paired))),
            witness_q=norm.primal_witness,
            witness_dual=section.lift(y0),
            scale_t=norm.value,
            slack_residual=slack,
            optimum_gap=float(gap),
            norm_value=norm.value,
        )

    b0 = section.compress(member_candidate, check_tol)
    t_min = order_unit_norm_singleton(b0, ac)
    if t_min == INF:
        return ExtremalCertificate(False, norm.primal_witness, None, INF, INF, INF, norm.value)
    y_star = section.compress(norm.dual_witness[0])
    gap = t_min - norm.value
    slack = float(np.linalg.norm((t_min * b0.entries - ac.entries) @ y_star.entries))
    return ExtremalCertificate(
        feasible=bool(gap <= tol * max(1.0, norm.value)),
        witness_q=section.lift((t_min * b0).with_dims(section.subsystem_dims)),
        witness_dual=norm.dual_witness[0],
        scale_t=t_min,
        slack_residual=slack,
        optimum_gap=float(gap),
        norm_value=norm.value,
    )
