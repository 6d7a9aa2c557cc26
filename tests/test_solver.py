"""Conic solver tests: closed-form norm programs as oracles, duality and
scaling properties, and degenerate statuses."""

import math

import numpy as np
import pytest

from conftest import rand_herm, rand_kraus_channel, rand_psd
from gnorm import sections, solver
from gnorm.choi import kraus_channel
from gnorm.decisions import (
    Experiment,
    build_xi,
    certify_optimal,
    classical_problem,
    max_payoff,
    quantum_problem,
)
from gnorm.errors import DomainError, NumericalError, ShapeError, SolverError
from gnorm.hermitian import (
    herm,
    hunvec,
    hvec,
    identity,
    op_norm,
    outer,
    partial_trace,
    tensor,
    trace_norm,
    trace_pair,
)
from gnorm.norms import base_norm, base_norm_psd, certify_extremal_psd, hmin, majorant_program
from gnorm.sections import (
    channels_section,
    comb_section,
    contains,
    custom_section,
    dual_section,
    id_tensor_section,
    states_section,
)
from gnorm.solver import (
    FREE,
    PSD,
    Block,
    ConeProgram,
    MajorantProgram,
    dump_program,
    project_psd,
    require_optimal,
    solve,
)


def trace_norm_program(x):
    """min Tr q  s.t.  q - x >= 0, q + x >= 0, q an arbitrary hermitian."""
    d = x.dim
    n_h = d * d
    a = np.zeros((2 * n_h, 3 * n_h))
    a[:n_h, :n_h] = -np.eye(n_h)
    a[:n_h, 2 * n_h :] = np.eye(n_h)
    a[n_h:, n_h : 2 * n_h] = -np.eye(n_h)
    a[n_h:, 2 * n_h :] = np.eye(n_h)
    rhs = np.concatenate([hvec(x), -hvec(x)])
    c = np.zeros(3 * n_h)
    c[2 * n_h :] = hvec(identity(d))
    blocks = (Block(d, PSD), Block(d, PSD), Block(n_h, FREE))
    return ConeProgram(blocks, c, a, rhs, "trace norm")


def op_norm_program(x):
    """min t  s.t.  t I - x >= 0, t I + x >= 0."""
    d = x.dim
    n_h = d * d
    e = hvec(identity(d))
    a = np.zeros((2 * n_h, 2 * n_h + 1))
    a[:n_h, :n_h] = -np.eye(n_h)
    a[:n_h, 2 * n_h] = e
    a[n_h:, n_h : 2 * n_h] = -np.eye(n_h)
    a[n_h:, 2 * n_h] = e
    rhs = np.concatenate([hvec(x), -hvec(x)])
    c = np.zeros(2 * n_h + 1)
    c[2 * n_h] = 1.0
    blocks = (Block(d, PSD), Block(d, PSD), Block(1, FREE))
    return ConeProgram(blocks, c, a, rhs, "operator norm")


def test_trace_norm_diagonal_example():
    sol = solve(trace_norm_program(herm(np.diag([1.0, -1.0]))), tol=1e-9)
    assert sol.status == "optimal"
    assert sol.primal_value == pytest.approx(2.0, abs=1e-7)


def test_op_norm_diagonal_example():
    sol = solve(op_norm_program(herm(np.diag([2.0, -5.0]))), tol=1e-9)
    assert sol.status == "optimal"
    assert sol.primal_value == pytest.approx(5.0, abs=1e-7)


def test_feasibility_density_matrix():
    # find rho >= 0 with Tr rho = 1 (zero objective)
    d = 3
    a = hvec(identity(d)).reshape(1, -1)
    prog = ConeProgram((Block(d, PSD),), np.zeros(d * d), a, np.array([1.0]), "find a state")
    sol = solve(prog, tol=1e-9)
    assert sol.status == "optimal"
    rho = sol.primal_point[0]
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-7)
    assert np.linalg.eigvalsh(rho)[0] >= -1e-9


def test_trace_norm_family_against_closed_form():
    rng = np.random.default_rng(42)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        x = rand_herm(rng, d)
        sol = solve(trace_norm_program(x), tol=1e-8)
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(trace_norm(x), rel=1e-6, abs=1e-6)
        # weak duality at the returned point
        assert sol.dual_value <= sol.primal_value + 1e-6


def test_op_norm_family_against_closed_form():
    rng = np.random.default_rng(43)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        x = rand_herm(rng, d)
        sol = solve(op_norm_program(x), tol=1e-8)
        assert sol.primal_value == pytest.approx(op_norm(x), rel=1e-6, abs=1e-6)


def test_scaling_equivariance():
    rng = np.random.default_rng(44)
    x = rand_herm(rng, 3)
    base = trace_norm_program(x)
    sol1 = solve(base, tol=1e-9)
    sol2 = solve(base.with_objective(base.objective * 7.0), tol=1e-9)
    assert sol2.primal_value == pytest.approx(7.0 * sol1.primal_value, rel=1e-6)


def test_max_iter_status():
    rng = np.random.default_rng(45)
    x = rand_herm(rng, 4)
    sol = solve(trace_norm_program(x), tol=0.0, max_iter=30)
    assert sol.status == "max_iter"
    with pytest.raises(SolverError):
        require_optimal(sol, "test")
    # best iterate still satisfies weak duality up to its own reported gap
    assert sol.dual_value <= sol.primal_value + max(1e-9, 10 * abs(sol.gap) * (
        1 + abs(sol.primal_value) + abs(sol.dual_value)
    ))


def test_max_iter_below_one_rejected():
    program = trace_norm_program(rand_herm(np.random.default_rng(46), 2))
    for max_iter in (0, -3):
        with pytest.raises(DomainError):
            solve(program, max_iter=max_iter)


def test_tol_must_be_finite_and_non_negative():
    program = trace_norm_program(rand_herm(np.random.default_rng(46), 2))
    for tol in (np.nan, np.inf, -np.inf, -1.0):
        with pytest.raises(DomainError):
            solve(program, tol=tol)
    # tol = 0 never stops early: the run ends at the cap
    assert solve(program, tol=0.0, max_iter=3).status == "max_iter"


def test_non_finite_program_data_rejected():
    dense = trace_norm_program(rand_herm(np.random.default_rng(47), 2))
    ch = channels_section(2, 2)
    span, thin = span_statement(ch, 1), majorant_program(ch, 1)
    builders = (
        (lambda c, a, b: ConeProgram(dense.blocks, c, a, b),
         (dense.objective, dense.eq_matrix, dense.eq_rhs)),
        (lambda m, c, b: MajorantProgram(m, 1, c, b),
         (span.columns, span.objective, span.eq_rhs)),
        (lambda n, c, b: MajorantProgram(n, 1, c, b, complement=True),
         (thin.columns, thin.objective, thin.eq_rhs)),
    )
    for build, parts in builders:
        for i in range(3):
            for bad in (np.nan, np.inf, -np.inf):
                broken = [p.copy() for p in parts]
                broken[i].flat[1] = bad
                with pytest.raises(ShapeError):
                    build(*broken)


def test_inconsistent_rows_detected_infeasible():
    d = 2
    row = hvec(identity(d))
    a = np.vstack([row, row])
    prog = ConeProgram(
        (Block(d, PSD),), np.zeros(d * d), a, np.array([1.0, 2.0]), "contradictory traces"
    )
    sol = solve(prog, tol=1e-9)
    assert sol.status == "infeasible"


def test_cone_infeasible_never_reports_optimal():
    # Tr u = -1 with u PSD has no solution; a first-order method may stop on
    # stagnation, but must not claim optimality.  Its best iterate comes at
    # iteration 25, so the seventh stall ends it well before the cap.
    d = 2
    a = hvec(identity(d)).reshape(1, -1)
    prog = ConeProgram((Block(d, PSD),), np.zeros(d * d), a, np.array([-1.0]), "Tr u = -1")
    sol = solve(prog, tol=1e-9, max_iter=20000)
    assert sol.status == "stagnated"
    assert sol.iterations <= 4000


def test_project_psd_examples_and_idempotence():
    assert np.allclose(project_psd(herm(np.diag([1.0, -1.0]))).entries, np.diag([1.0, 0.0]))
    rng = np.random.default_rng(46)
    psd_in = herm(np.diag([0.3, 0.7]))
    assert np.allclose(project_psd(psd_in).entries, psd_in.entries)
    for _ in range(50):
        x = rand_herm(rng, int(rng.integers(2, 6)))
        once = project_psd(x)
        twice = project_psd(once)
        assert np.allclose(once.entries, twice.entries, atol=1e-12)
        assert np.linalg.eigvalsh(once.entries)[0] >= -1e-12


def test_dual_slack_in_cone():
    rng = np.random.default_rng(47)
    x = rand_herm(rng, 3)
    sol = solve(trace_norm_program(x), tol=1e-9)
    for blk, s in zip((3, 3), sol.dual_slack[:2]):
        assert np.linalg.eigvalsh(s)[0] >= -1e-9


def test_dump_program_mentions_blocks():
    text = dump_program(trace_norm_program(herm(np.diag([1.0, -1.0]))))
    assert "psd:2" in text and "free:4" in text and text.count("A ") > 0


def span_statement(sec, copies):
    """``majorant_program(sec, copies)`` stated by the span M: the library's
    program when it is, else E = M M^T with objective M M^T hvec(n)."""
    cached = majorant_program(sec, copies)
    if not cached.complement:
        return cached
    m = sec.span_matrix()
    c = np.concatenate([np.zeros(copies * m.shape[0]), m @ sec.span_coords(sec.normalizer)])
    return MajorantProgram(m, copies, c, cached.eq_rhs)


def majorant_cases():
    """Fresh (uncached) majorant programs with feasible right-hand sides: the
    base norm on channels(2,2) and comb(2,2,2,2), a 3-outcome classical
    payoff and the 1-copy program on channels(2,2), and a quantum payoff with
    3 outcomes, one copy over id(3)(x)channels(2,2), each stated by the span;
    then the library's complement statement of the four thin ones."""
    rng = np.random.default_rng(48)
    ch = channels_section(2, 2)
    comb = comb_section((2, 2, 2, 2))
    out, thin = [], []
    for sec, copies in ((ch, 2), (comb, 2), (ch, 3), (ch, 1), (id_tensor_section(ch, 3), 1)):
        cached = span_statement(sec, copies)
        d = sec.ambient_dim
        if copies == 2:
            x = rand_herm(rng, d)
            rhs = [hvec(x), -hvec(x)]
        else:
            rhs = [hvec(rand_herm(rng, d)) for _ in range(copies)]
        rhs = np.concatenate(rhs)
        out.append(MajorantProgram(cached.columns, copies, cached.objective, rhs))
        library = majorant_program(sec, copies)
        if library.complement:
            thin.append(MajorantProgram(library.columns, copies, library.objective, rhs,
                                        complement=True))
    assert len(thin) == 4
    return out + thin


def reduced_projection_reference(program, zeta, b):
    """The projection of the PSD coordinates zeta onto {z_K : A_K z_K + A_F z_F = b
    for some z_F}, by a dense least-squares solve of the optimality system of
    min |z_K - zeta|^2 over [A_K | A_F] z = b, A split into its PSD and free
    columns: (z_K, z_F, multiplier) with z_K = zeta - A_K^T multiplier."""
    a = program.eq_matrix
    free = np.concatenate([np.full(blk.real_dim, blk.cone == FREE) for blk in program.blocks])
    a_k, a_f = a[:, ~free], a[:, free]
    m, n_k, n_f = a.shape[0], a_k.shape[1], a_f.shape[1]
    kkt = np.block([
        [np.eye(n_k), np.zeros((n_k, n_f)), a_k.T],
        [np.zeros((n_f, n_k)), np.zeros((n_f, n_f)), a_f.T],
        [a_k, a_f, np.zeros((m, m))],
    ])
    got = np.linalg.lstsq(kkt, np.concatenate([zeta, np.zeros(n_f), b]), rcond=None)[0]
    return got[:n_k], got[n_k : n_k + n_f], got[n_k + n_f :]


def test_majorant_projection_matches_dense():
    # the closed form and the dense elimination of the free block, against
    # the dense least-squares reference
    rng = np.random.default_rng(49)
    for program in majorant_cases():
        b, c = program.eq_rhs, program.objective
        a = program.eq_matrix
        zeta = rng.normal(size=b.shape[0])
        z_ref, s_ref, mult_ref = reduced_projection_reference(program, zeta, b)
        for rows in (solver._rows(program), solver._DenseRows(a, program.blocks)):
            b_red = rows.eliminate(c, b)[2]
            z, mult = rows.project(zeta, b_red)
            assert np.max(np.abs(z - z_ref)) <= 1e-10
            assert np.max(np.abs(mult - mult_ref)) <= 1e-10
            assert np.max(np.abs(rows.free_part(z, b) - s_ref)) <= 1e-10
        full = rng.normal(size=program.total_dim)
        y = rng.normal(size=b.shape[0])
        rows = solver._rows(program)
        assert np.max(np.abs(rows.apply(full) - a @ full)) <= 1e-10
        assert np.max(np.abs(rows.adjoint(y) - a.T @ y)) <= 1e-10


def test_majorant_projection_copies_match_dense_solve():
    # one, two and three copies stated by the complement (channels(2,2)) and
    # by the span (its dual, and id(2)(x)channels(2,2)), against the dense
    # least-squares reference
    rng = np.random.default_rng(57)
    ch = channels_section(2, 2)
    for sec, thin in ((ch, True), (dual_section(ch), False), (id_tensor_section(ch, 2), False)):
        for copies in (1, 2, 3):
            program = majorant_program(sec, copies)
            rows = solver._rows(program)
            assert rows.complement == thin and rows.copies == copies
            a = program.eq_matrix
            for _ in range(3):
                b = rng.normal(size=a.shape[0])
                zeta = rng.normal(size=a.shape[0])
                z_ref, s_ref, mult_ref = reduced_projection_reference(program, zeta, b)
                z, mult = rows.project(zeta, b)
                assert np.max(np.abs(z - z_ref)) <= 1e-12
                assert np.max(np.abs(mult - mult_ref)) <= 1e-12
                assert np.max(np.abs(rows.free_part(z, b) - s_ref)) <= 1e-12
                full = rng.normal(size=a.shape[1])
                assert np.max(np.abs(rows.apply(full) - a @ full)) <= 1e-12


def dense_projector(program):
    """The dense projector E that lifts each copy: C C^T, or I - C C^T."""
    cols = program.columns
    e = cols @ cols.T
    return np.eye(cols.shape[0]) - e if program.complement else e


def test_majorant_solve_returns_recovered_free_block_and_exact_free_dual():
    # the free block is q = E sum_j (P_j + b_j) / c of the returned slacks,
    # and the dual vector pulls back to the free objective exactly
    for program in majorant_cases():
        sol = solve(program, tol=1e-8)
        assert sol.status == "optimal"
        e, copies = dense_projector(program), program.copies
        n = e.shape[0]
        c_q = program.objective[-n:]
        q = sol.primal_point[-1]
        slacks = np.concatenate([hvec(p) for p in sol.primal_point[:-1]])
        recovered = e @ (slacks + program.eq_rhs).reshape(copies, n).sum(axis=0)
        dual_pull = e @ sol.dual_vector.reshape(copies, n).sum(axis=0)
        assert np.linalg.norm(q - recovered / copies) <= 1e-12 * (1.0 + np.linalg.norm(q))
        assert np.linalg.norm(dual_pull - c_q) <= 1e-12 * (1.0 + np.linalg.norm(c_q))
        assert not np.any(sol.dual_slack[-1])


def test_dense_program_with_interleaved_free_block():
    # the trace-norm majorant program min Tr q over q >= x, q >= -x and
    # q >= -I, stated densely with the free block q second among the
    # blocks (3, free, 3, 3), solves to the majorant program's value
    rng = np.random.default_rng(63)
    x = rand_herm(rng, 3)
    eye = np.eye(9)
    rhs = np.concatenate([hvec(x), -hvec(x), -hvec(identity(3))])
    majorant = MajorantProgram(
        eye, 3, np.concatenate([np.zeros(27), hvec(identity(3))]), rhs
    )
    zero = np.zeros((9, 9))
    a = np.block([[-eye, eye, zero, zero], [zero, eye, -eye, zero], [zero, eye, zero, -eye]])
    c = np.concatenate([np.zeros(9), hvec(identity(3)), np.zeros(18)])
    blocks = (Block(3, PSD), Block(9, FREE), Block(3, PSD), Block(3, PSD))
    dense = ConeProgram(blocks, c, a, rhs, "interleaved trace norm")
    ref = solve(majorant, tol=1e-9)
    sol = solve(dense, tol=1e-9)
    assert sol.status == ref.status == "optimal"
    assert abs(sol.primal_value - trace_norm(x)) <= 1e-7
    assert abs(sol.primal_value - ref.primal_value) <= 1e-7
    assert abs(sol.dual_value - ref.dual_value) <= 1e-7
    assert [np.shape(p) for p in sol.primal_point] == [(3, 3), (9,), (3, 3), (3, 3)]
    assert np.max(np.abs(sol.primal_point[1] - ref.primal_point[-1])) <= 1e-6
    assert not np.any(sol.dual_slack[1]) and sol.dual_vector.shape == (27,)
    # the dual vector pulls back to the free objective
    assert np.max(np.abs(a[:, 9:18].T @ sol.dual_vector - hvec(identity(3)))) <= 1e-12


def test_unbounded_free_objective_never_reports_optimal():
    # Tr u + t_1 + t_2 = 1 with u PSD and t free; minimizing t_1 is
    # unbounded (t_1 -> -inf, t_2 -> +inf): the free objective (1, 0) is not
    # in the range of the free columns' transpose, span (1, 1).
    d = 2
    a = np.concatenate([hvec(identity(d)), [1.0, 1.0]]).reshape(1, -1)
    c = np.concatenate([np.zeros(d * d), [1.0, 0.0]])
    prog = ConeProgram((Block(d, PSD), Block(2, FREE)), c, a, np.array([1.0]), "unbounded")
    sol = solve(prog, tol=1e-9, max_iter=5000)
    assert sol.status != "optimal"
    assert sol.dual_residual >= 0.1


def per_block_cone_projection(z, blocks):
    """The cone projection one PSD block at a time: the reference for the stack."""
    out, lo = z.copy(), 0
    for blk in blocks:
        hi = lo + blk.real_dim
        if blk.cone == PSD:
            w, u = np.linalg.eigh(hunvec(z[lo:hi], blk.dim))
            if w[0] < 0.0:
                out[lo:hi] = hvec((u * np.clip(w, 0.0, None)) @ u.conj().T)
        lo = hi
    return out


def test_stacked_cone_projection_is_bitwise_per_block():
    rng = np.random.default_rng(58)
    layouts = {
        (4, 4): [(0, 32, 4)],
        (4, 4, 4): [(0, 48, 4)],
        (4, 9, 4): [(0, 16, 4), (16, 97, 9), (97, 113, 4)],
        (3, None, 3, 3): [(0, 9, 3), (14, 32, 3)],
    }
    for dims, runs in layouts.items():
        blocks = tuple(Block(5, FREE) if d is None else Block(d, PSD) for d in dims)
        assert solver._psd_runs(blocks) == runs
        for trial in range(20):
            parts = []
            for j, blk in enumerate(blocks):
                if blk.cone == FREE:
                    parts.append(rng.normal(size=blk.dim))
                elif trial % 2 and j == len(blocks) - 1:
                    # only some blocks of the run have a negative eigenvalue
                    parts.append(hvec(rand_psd(rng, blk.dim) + identity(blk.dim)))
                else:
                    parts.append(hvec(rand_herm(rng, blk.dim)))
            z = np.concatenate(parts)
            got = z.copy()
            solver._project_cone(got, runs)
            assert np.array_equal(got, per_block_cone_projection(z, blocks))
            if trial % 2:
                assert np.array_equal(got[-len(parts[-1]) :], parts[-1])


def test_majorant_solve_matches_dense_copy():
    for program in majorant_cases():
        sol = solve(program, tol=1e-8)
        # the closed-form path never builds the dense A
        assert "eq_matrix" not in program._shared
        dense = ConeProgram(program.blocks, program.objective, program.eq_matrix, program.eq_rhs)
        ref = solve(dense, tol=1e-8)
        assert sol.status == ref.status == "optimal"
        assert sol.iterations == ref.iterations
        assert abs(sol.primal_value - ref.primal_value) <= 1e-9
        assert abs(sol.dual_value - ref.dual_value) <= 1e-9


def test_library_programs_are_majorant_programs(monkeypatch):
    def no_dense_rows(a):
        raise AssertionError("a library solve built dense rows")

    def no_objective(self, objective):
        raise AssertionError("a library solve changed a majorant program's objective")

    monkeypatch.setattr(solver, "_DenseRows", no_dense_rows)
    monkeypatch.setattr(MajorantProgram, "with_objective", no_objective)
    rng = np.random.default_rng(51)
    # uncached sections, so no program family carries rows built earlier
    for sec in (channels_section.__wrapped__(2, 2), comb_section.__wrapped__((2, 2, 2, 2))):
        d = sec.ambient_dim
        a = rand_psd(rng, d)
        res = base_norm_psd(sec, a, tol=1e-9)
        y, zero = res.dual_witness
        q = res.primal_witness
        assert res.method == "conic" and not np.any(zero.entries)
        assert np.linalg.eigvalsh(y.entries)[0] >= -1e-8
        assert contains(dual_section(sec), y, 1e-6)
        assert contains(sec, q / trace_pair(q, sec.normalizer), 1e-6)
        assert np.linalg.eigvalsh((q - a).entries)[0] >= -1e-6
        assert abs(trace_pair(q, sec.normalizer) - res.value) <= 1e-6 * res.value
        assert abs(trace_pair(a, y) - res.value) <= 1e-6 * res.value
        for cert in (
            certify_extremal_psd(sec, a, dual_candidate=y),
            certify_extremal_psd(sec, a, member_candidate=q / res.value),
        ):
            assert cert.feasible

    ch = channels_section.__wrapped__(2, 2)
    family = tuple(kraus_channel(rand_kraus_channel(rng, 2, 2, 2)).matrix for _ in range(2))
    experiment = Experiment(ch, family, np.array([0.5, 0.5]))
    ops = (herm(np.diag([1.0, 0.2])), herm(np.diag([0.1, 0.9])))
    pay = max_payoff(experiment, quantum_problem(ops), tol=1e-9)
    assert certify_optimal(pay.choi, experiment, quantum_problem(ops), tol=1e-5).feasible
    (y,) = pay.norm.dual_witness
    q = pay.norm.primal_witness
    xi = build_xi(experiment, quantum_problem(ops))
    assert np.linalg.eigvalsh(y.entries)[0] >= -1e-8
    assert contains(dual_section(ch), partial_trace(y.with_dims((2, 4)), 0), 1e-6)
    assert np.linalg.eigvalsh((tensor(identity(2), q) - xi).entries)[0] >= -1e-6
    assert abs(trace_pair(q, ch.normalizer) - pay.value) <= 1e-6
    assert abs(trace_pair(xi, y) - pay.value) <= 1e-6


def thin_side_sections():
    return channels_section(3, 3), comb_section((2, 2, 2, 2)), states_section(3)


def thin_side_cases():
    """(section, base-norm program) over channels(3,3), comb(2,2,2,2) and the
    full slice states(3), whose complement N has 0 columns, and a 3-copy
    program over channels(3,3): all stated by the section's complement."""
    ch = channels_section(3, 3)
    return [(sec, majorant_program(sec, 2)) for sec in thin_side_sections()] + [
        (ch, majorant_program(ch, 3))]


def span_side_projection(m, copies, zeta, b):
    """P_j = M M^T (sum_j (zeta_j + b_j)) / copies - b_j through the span matrix M."""
    total = (zeta + b).reshape(copies, -1).sum(axis=0)
    return (m @ (m.T @ total) / copies - b.reshape(copies, -1)).reshape(-1)


def test_single_run_programs_project_through_the_thin_complement():
    rng = np.random.default_rng(64)
    for sec, program in thin_side_cases():
        m, copies = sec.span_matrix(), program.copies
        d2, k = m.shape
        n = program.columns
        assert solver._rows(program).complement and n is sec.complement_matrix()
        assert n.shape == (d2, d2 - k)
        assert np.linalg.norm(m.T @ n) <= 1e-12
        assert np.linalg.norm(n.T @ n - np.eye(d2 - k)) <= 1e-12
        for _ in range(3):
            zeta, b = rng.normal(size=(2, copies * d2))
            p, mult = solver._rows(program).project(zeta, b)
            assert np.max(np.abs(p - span_side_projection(m, copies, zeta, b))) <= 1e-13
            assert np.array_equal(mult, p - zeta)


def test_id_tensor_and_dual_section_programs_keep_the_span_side():
    ch = channels_section(2, 2)
    for sec in (id_tensor_section(ch, 2), dual_section(ch)):
        program = majorant_program(sec, 2)
        assert not solver._rows(program).complement and program.columns is sec.span_matrix()


def complement_builds(sec, d):
    """Builds of ``sec``'s cached N recipe while it builds its dual, two norms and a
    3-copy program; checks that its thin programs and its dual share one N."""
    closed = []
    recipe = sec._cache["complement"]
    if not isinstance(recipe, np.ndarray):
        sec._cache["complement"] = lambda: closed.append(1) or recipe()
    rng = np.random.default_rng(66)
    dual = dual_section(sec)
    base_norm(sec, rand_herm(rng, d), tol=1e-8)
    base_norm_psd(sec, rand_psd(rng, d), tol=1e-8)
    majorant_program(sec, 3)
    n = sec.complement_matrix()
    programs = [p for key, p in sec._cache.items() if key[0] == "majorant"]
    assert len(programs) == 3
    assert all(p.complement and p.columns is n for p in programs)
    assert np.array_equal(dual.span_matrix()[:, 1:], n)
    return len(closed)


def test_section_builds_its_complement_once(monkeypatch):
    closed, build = [], sections._lifted_complement
    monkeypatch.setattr(sections, "_lifted_complement", lambda *a: closed.append(1) or build(*a))
    sec = channels_section.__wrapped__(2, 2)  # uncached: its build writes N once
    assert len(closed) == 1
    assert complement_builds(sec, 4) == 0
    assert len(closed) == 1


def test_custom_section_factors_its_complement_once():
    sec = custom_section([identity(2), herm(np.diag([1.0, -1.0])), herm([[0.0, 1.0], [1.0, 0.0]])],
                         identity(2))
    recipe = sec._cache["complement"]  # the span's complete QR factor, not yet built
    assert recipe.func is sections._complement_columns and recipe.args[0] is sec.span_matrix()
    assert complement_builds(sec, 2) == 1


def test_thin_and_span_side_solves_agree():
    rng = np.random.default_rng(65)
    tol = 1e-8
    for sec in thin_side_sections():
        x = hvec(rand_herm(rng, sec.ambient_dim))
        rhs = np.concatenate([x, -x])
        thin, span = majorant_program(sec, 2).with_rhs(rhs), span_statement(sec, 2).with_rhs(rhs)
        assert solver._rows(thin).complement and thin.columns is sec.complement_matrix()
        assert not solver._rows(span).complement and span.columns is sec.span_matrix()
        got, ref = solve(thin, tol=tol), solve(span, tol=tol)
        assert got.status == ref.status == "optimal"
        for a, b in ((got.primal_value, ref.primal_value), (got.dual_value, ref.dual_value)):
            assert abs(a - b) <= tol * (1.0 + abs(b))


@pytest.mark.parametrize("complement", [False, True], ids=["span", "complement"])
def test_majorant_rejects_bad_columns(complement):
    sec = channels_section(2, 2)
    m, n = sec.span_matrix(), sec.complement_matrix()
    cols = n if complement else m
    zeros = lambda c, copies: (np.zeros((copies + 1) * c.shape[0]), np.zeros(copies * c.shape[0]))
    # columns that are not orthonormal: random, or one of them of norm 1.5
    skewed = cols.copy()
    skewed[:, 0] *= 1.5
    for bad in (np.random.default_rng(50).normal(size=cols.shape), skewed):
        with pytest.raises(ShapeError, match="orthonormal"):
            MajorantProgram(bad, 2, *zeros(bad, 2), complement=complement)
    # a row count that is not a square, and columns that are not 2-d
    for bad in (cols[:-1], cols[:, 0]):
        with pytest.raises(ShapeError, match=r"not \(d\^2, r\)"):
            MajorantProgram(bad, 2, np.zeros(48), np.zeros(32), complement=complement)
    # no copy
    with pytest.raises(DomainError, match="copies"):
        MajorantProgram(cols, 0, np.zeros(16), np.zeros(0), complement=complement)
    MajorantProgram(cols, 2, *zeros(cols, 2), complement=complement)


def test_dump_program_lists_majorant_rows():
    # the free block is q in hvec coordinates (16) on both sides: stated by
    # the complement (channels(2,2)) and by the span (its dual)
    ch = channels_section(2, 2)
    for program, blocks in ((majorant_program(ch, 2), "psd:4 psd:4 free:16"),
                            (majorant_program(dual_section(ch), 2), "psd:4 psd:4 free:16")):
        text = dump_program(program)
        assert blocks in text
        assert text.count("\nA ") == np.count_nonzero(program.eq_matrix)


def test_anderson_solves_affine_contraction_in_dim_plus_one_steps(monkeypatch):
    # On an affine map with memory >= dimension, type-II Anderson acceleration
    # is GMRES in disguise: dim + 1 evaluations of T reach the fixed point, up
    # to the Gram regularization (about 1e-4 relative on these spectra), where
    # plain iteration is still percents off.  The memory is pinned at the 20
    # these bounds were set for.
    monkeypatch.setattr(solver, "ANDERSON_MEMORY", 20)
    rng = np.random.default_rng(53)
    for dim in range(1, solver.ANDERSON_MEMORY + 1):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        a = (q * np.linspace(-0.9, 0.9, dim)) @ q.T
        c = rng.normal(size=dim)
        star = np.linalg.solve(np.eye(dim) - a, c)
        memory = solver._Anderson(dim)
        u = plain = np.zeros(dim)
        for _ in range(dim + 1):
            f = a @ u + c
            u = memory.next_point(u - f, f, 1.0, np.linalg.norm(u - f))
            plain = a @ plain + c
        assert np.linalg.norm(u - star) <= 1e-3 * np.linalg.norm(star)
        assert np.linalg.norm(plain - star) >= 1e-2 * np.linalg.norm(star)


def test_anderson_memory_cleared_by_rejection_and_key_change():
    rng = np.random.default_rng(54)
    memory = solver._Anderson(3)
    f = None
    for _ in range(3):
        g, f = rng.normal(size=3), rng.normal(size=3)
        u = memory.next_point(g, f, 1.0, np.linalg.norm(g))
    assert memory.size == 2 and u is not f
    # a residual that did not grow keeps the extrapolated point
    assert memory.safeguard(0.0) is None and memory.size == 2
    u = memory.next_point(rng.normal(size=3), rng.normal(size=3), 1.0, 1.0)
    back = memory.safeguard(1e6)
    assert back is not None and memory.size == 0 and memory.rejected == 1
    for _ in range(3):
        memory.next_point(rng.normal(size=3), rng.normal(size=3), 1.0, 1.0)
    assert memory.size == 2
    f = rng.normal(size=3)
    assert memory.next_point(rng.normal(size=3), f, 2.0, 1.0) is f and memory.size == 0


def test_solver_clears_memory_on_rejection_and_rho_change(monkeypatch):
    events = []

    class Recorder(solver._Anderson):
        def next_point(self, g, f, key, g_norm):
            changed = self.key is not None and key != self.key
            out = super().next_point(g, f, key, g_norm)
            if changed:
                events.append(("rho", self.size, out is f))
            return out

        def safeguard(self, g_norm):
            back = super().safeguard(g_norm)
            if back is not None:
                events.append(("rejection", self.size, True))
            return back

    monkeypatch.setattr(solver, "_Anderson", Recorder)
    monkeypatch.setattr(solver, "ANDERSON_MEMORY", 20)  # the memory the counts were set for
    rng = np.random.default_rng(52)
    family = majorant_program(channels_section(3, 3), 2)
    rejected = 0
    # at least four solves of the stream, and on until one changes rho
    for solves in range(1, 17):
        x = hvec(rand_herm(rng, 9))
        sol = solve(family.with_rhs(np.concatenate([x, -x])))
        assert sol.status == "optimal"
        rejected += sol.rejected
        if solves >= 4 and any(kind == "rho" for kind, _, _ in events):
            break
    kinds = [kind for kind, _, _ in events]
    assert "rho" in kinds and kinds.count("rejection") == rejected > 0
    # the memory is empty afterwards, and the next point is the plain image
    assert all(size == 0 and plain for _, size, plain in events)


def test_solve_is_bit_identical_across_runs():
    rng = np.random.default_rng(55)
    x = hvec(rand_herm(rng, 4))
    programs = (
        majorant_program(channels_section(2, 2), 2).with_rhs(np.concatenate([x, -x])),
        trace_norm_program(rand_herm(rng, 3)),
    )
    for program in programs:
        one, two = solve(program), solve(program)
        for field in ("status", "primal_value", "dual_value", "primal_residual",
                      "dual_residual", "gap", "iterations", "best_iteration", "rejected"):
            assert getattr(one, field) == getattr(two, field)
        for a, b in zip(one.primal_point + one.dual_slack + (one.dual_vector,),
                        two.primal_point + two.dual_slack + (two.dual_vector,)):
            assert np.array_equal(a, b)


def test_returned_psd_blocks_stay_in_the_cone():
    # Returned points are plain ADMM images, never extrapolated ones: the PSD
    # blocks of the primal point and of the dual slack are exactly in the cone.
    rng = np.random.default_rng(56)
    for sec in (channels_section(2, 2), comb_section((2, 2, 2, 2))):
        family = majorant_program(sec, 2)
        for _ in range(2):
            x = hvec(rand_herm(rng, sec.ambient_dim))
            x /= np.linalg.norm(x)
            sol = solve(family.with_rhs(np.concatenate([x, -x])))
            assert sol.status == "optimal"
            assert 0 < sol.best_iteration <= sol.iterations
            for point in (sol.primal_point[:2], sol.dual_slack[:2]):
                for block in point:
                    assert np.linalg.eigvalsh(block)[0] >= -1e-12


def recorded_programs(monkeypatch, call):
    """The programs a library call hands to the solver, in order."""
    seen, real = [], solver.solve

    def record(program, *args, **kwargs):
        seen.append(program)
        return real(program, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(solver, "solve", record)
        call()
    return seen


def test_screened_stop_matches_a_full_check_every_iteration(monkeypatch):
    # The screen adds full checks between the cadence ones and changes
    # nothing else: a solve stops where a run with a full check on every
    # iteration stops, with the same iterates.
    rng = np.random.default_rng(59)
    ch = channels_section(2, 2)
    x = hvec(rand_herm(rng, 4))
    family = tuple(kraus_channel(rand_kraus_channel(rng, 2, 2, 2)).matrix for _ in range(3))
    experiment = Experiment(ch, family, np.array([0.2, 0.3, 0.5]))
    (payoff,) = recorded_programs(
        monkeypatch, lambda: max_payoff(experiment, classical_problem(np.eye(3)))
    )
    sigma = rand_psd(rng, 4, (2, 2))
    *_, entropy = recorded_programs(monkeypatch, lambda: hmin(sigma))
    programs = (
        majorant_program(ch, 2).with_rhs(np.concatenate([x, -x])),
        payoff,
        entropy,
        trace_norm_program(rand_herm(rng, 3)),
    )
    assert solver._psd_runs(payoff.blocks) == [(0, 48, 4)]
    for program in programs:
        shipped = solve(program)
        with monkeypatch.context() as m:
            m.setattr(solver, "CHECK_EVERY", 1)
            every = solve(program)
        assert shipped.status == every.status == "optimal"
        assert shipped.iterations == every.iterations
        assert shipped.best_iteration == shipped.iterations
        for a, b in zip(shipped.primal_point + (shipped.dual_vector,),
                        every.primal_point + (every.dual_vector,)):
            assert np.array_equal(a, b)


def test_direct_kernels_match_the_public_linalg_bitwise():
    # The ADMM step calls the LAPACK gufuncs behind np.linalg.eigh and
    # np.linalg.solve without their wrappers.  They are private numpy API: a
    # numpy whose kernels stop returning the public functions' bits fails here.
    rng = np.random.default_rng(61)
    for copies in (1, 2, 3):
        for d in range(1, 10):
            g = rng.normal(size=(copies, d, d)) + 1j * rng.normal(size=(copies, d, d))
            mats = (g + g.conj().swapaxes(-1, -2)) / 2
            w, u = solver._eigh(mats, signature="D->dD")
            w_ref, u_ref = np.linalg.eigh(mats)
            assert w.dtype == w_ref.dtype and u.dtype == u_ref.dtype
            assert np.array_equal(w, w_ref) and np.array_equal(u, u_ref)
            assert np.array_equal(solver._positive_part(mats)[0], w_ref)
    for k in range(1, 21):
        a = rng.normal(size=(k, k))
        spd = a @ a.T + 1e-3 * np.eye(k)
        rhs = rng.normal(size=k)
        got = solver._solve1(spd, rhs, signature="dd->d")
        assert got.dtype == np.float64
        assert np.array_equal(got, np.linalg.solve(spd, rhs))


def test_failed_kernel_raises_numerical_error(monkeypatch):
    # A failed LAPACK kernel returns NaN and raises the floating-point invalid
    # flag, as the real kernels do on a NaN matrix (d >= 3) or a singular
    # system.
    real_eigh, real_solve = solver._eigh, solver._solve1

    def nan_eigh(a, signature):
        return real_eigh(a * np.nan, signature=signature)

    def singular_solve(a, b, signature):
        return real_solve(0.0 * a, b, signature=signature)

    program = trace_norm_program(rand_herm(np.random.default_rng(62), 3))
    with monkeypatch.context() as m:
        m.setattr(solver, "_eigh", nan_eigh)
        with pytest.raises(NumericalError, match="conic solver"):
            solve(program)
        with pytest.raises(NumericalError):
            project_psd(herm(np.diag([1.0, -1.0, 0.5])))
    with monkeypatch.context() as m:
        m.setattr(solver, "_solve1", singular_solve)
        with pytest.raises(NumericalError, match="conic solver"):
            solve(program)
    # the error state is the caller's again, and the kernels work as before
    assert np.geterr()["invalid"] == "warn" and np.geterrcall() is None
    assert solve(program).status == "optimal"


def test_free_objective_outside_range_stops_before_the_loop():
    # The program of the test above: c_F = (1, 0) misses A_F^T y_F = (1/2, 1/2)
    # by |(1/2, -1/2)| = 1/sqrt(2), reported over 1 + |c| = 2.
    d = 2
    a = np.concatenate([hvec(identity(d)), [1.0, 1.0]]).reshape(1, -1)
    c = np.concatenate([np.zeros(d * d), [1.0, 0.0]])
    prog = ConeProgram((Block(d, PSD), Block(2, FREE)), c, a, np.array([1.0]), "unbounded")
    sol = solve(prog)
    assert sol.status == "infeasible" and sol.iterations == 0
    assert sol.dual_residual == pytest.approx(0.5 / math.sqrt(2.0), rel=1e-12)
    assert sol.primal_residual == math.inf


def test_residual_balancing_raises_rho_when_the_primal_residual_lags(monkeypatch):
    # Three random rows through a rank-one PSD point: at iterations 25, 50
    # and 75 the primal residual exceeds three times the dual one, so the
    # penalty doubles at each of them, and the run then
    # reaches the optimum.  The acceleration memory is keyed by the penalty,
    # which shows the changes.
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 4))
    b = a @ hvec(outer(rng.normal(size=2)))
    prog = ConeProgram((Block(2, PSD),), rng.normal(size=4), a, b)
    keys = []
    next_point = solver._Anderson.next_point

    def spy(self, g, f, key, g_norm):
        keys.append(key)
        return next_point(self, g, f, key, g_norm)

    monkeypatch.setattr(solver._Anderson, "next_point", spy)
    sol = solve(prog, tol=1e-10, max_iter=300)
    assert sol.status == "optimal"
    assert keys == [1.0] * 24 + [2.0] * 25 + [4.0] * 25 + [8.0] * (len(keys) - 74)


def test_penalty_starts_at_sqrt2_for_two_or_more_psd_blocks(monkeypatch):
    # rho starts at sqrt(2) for a base norm (2 PSD blocks) and for a
    # 4-outcome classical payoff (4 blocks).  The first key the acceleration
    # memory sees is the starting penalty, since balancing acts on a full
    # check, at iteration 25 at the earliest.
    keys = []
    next_point = solver._Anderson.next_point

    def spy(self, g, f, key, g_norm):
        keys.append(key)
        return next_point(self, g, f, key, g_norm)

    monkeypatch.setattr(solver._Anderson, "next_point", spy)
    rng = np.random.default_rng(61)
    ch = channels_section(2, 2)
    x = hvec(rand_herm(rng, 4))
    assert solve(majorant_program(ch, 2).with_rhs(np.concatenate([x, -x]))).status == "optimal"
    assert keys[0] == math.sqrt(2.0)
    keys.clear()
    family = tuple(kraus_channel(rand_kraus_channel(rng, 2, 2, 2)).matrix for _ in range(4))
    experiment = Experiment(ch, family, np.array([0.1, 0.2, 0.3, 0.4]))
    pay = max_payoff(experiment, classical_problem(np.eye(4)))
    assert pay.norm.status == "optimal" and keys[0] == math.sqrt(2.0)


def test_early_balancing_halves_rho_when_the_dual_residual_leads(monkeypatch):
    # Before iteration 200 every 25th iteration balances the residuals at a
    # 3x ratio.  On a comb(2,2,2,2) base norm the dual residual leads at
    # iteration 25, so the penalty halves there; on a channels(2,2) base
    # norm of a channel difference the residuals stay within 3x, so it
    # keeps its start through the check at iteration 25.
    keys = []
    next_point = solver._Anderson.next_point

    def spy(self, g, f, key, g_norm):
        keys.append(key)
        return next_point(self, g, f, key, g_norm)

    monkeypatch.setattr(solver._Anderson, "next_point", spy)
    rng = np.random.default_rng(63)
    x = hvec(rand_herm(rng, 16))
    sol = solve(majorant_program(comb_section((2, 2, 2, 2)), 2).with_rhs(np.concatenate([x, -x])))
    assert sol.status == "optimal" and sol.iterations > 25
    assert keys[:24] == [math.sqrt(2.0)] * 24 and keys[24] == math.sqrt(2.0) / 2.0
    keys.clear()
    rng = np.random.default_rng(61)
    j0, j1 = (kraus_channel(rand_kraus_channel(rng, 2, 2, 2)).matrix for _ in range(2))
    x = hvec(j0 - j1)
    sol = solve(majorant_program(channels_section(2, 2), 2).with_rhs(np.concatenate([x, -x])))
    assert sol.status == "optimal" and sol.iterations > 25
    assert keys == [math.sqrt(2.0)] * len(keys)


def test_free_only_program_solves():
    # No PSD block (k = 0): the row reduction alone fixes the point,
    # min z_1 + z_2 over z_1 + z_2 = 1, on the first iteration.
    prog = ConeProgram((Block(2, FREE),), np.array([1.0, 1.0]), np.array([[1.0, 1.0]]),
                       np.array([1.0]))
    sol = solve(prog)
    assert sol.status == "optimal" and sol.iterations == 1
    assert sol.primal_value == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(sol.primal_point[0], [0.5, 0.5])
