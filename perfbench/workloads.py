"""The benchmark's workloads: a fixed cycle of library calls per workload.

Each workload is a *pool* of instances drawn from the constant ``POOL_SEED``
(one stream per class of calls, so changing one class's count leaves the
other instances alone) and then rotated into a random local-unitary frame drawn from the run's
``--seed``.  Every quantity computed here (diamond and comb norms, trace
norms, payoffs, Bayes errors, conditional min-entropies) is invariant under
local unitaries, and the solver's iteration is equivariant under them, so a
seed changes every matrix gnorm sees while keeping the work per call, the
iteration counts and the values fixed.  That is what makes run-to-run spread
small although iteration counts have a heavy tail.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

POOL_SEED = 0
TOL = 1e-7
ORACLE_SAMPLES = 40
LARGE_COUNTS = {"comb2323": 1, "comb2222": 3, "ch4": 3}
# Seconds per pass at this commit (2 cores, OpenBLAS 0.3.31); a run makes
# round(--seconds / NOMINAL_PASS_S) passes, so its work is fixed and the
# ranks of its median and tail calls do not move from run to run.
NOMINAL_PASS_S = {"norms-small": 0.7, "norms-large": 7.0, "decisions": 0.8}
SWEEP_PRIORS = 9  # bayes_error priors 0.1, ..., 0.9 over one channel pair
PERTURBATION = 0.1  # weight moved from the optimal measurement to a blind guess


@dataclass
class Item:
    """One library call of the cycle.

    ``call(max_iter)`` runs it (``max_iter=None`` means the library default;
    ``max_iter=1`` is the cheap warm-up that assembles and factors the
    program).  ``value`` reduces an output to the scalar compared across
    repeats and hashed into the fingerprint; ``check`` validates an output.
    """

    name: str
    call: Callable
    value: Callable
    check: Callable
    warm: bool = True


# -- random instances ----------------------------------------------------------


def haar_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def local_frame(rng, dims):
    u = np.eye(1)
    for d in dims:
        u = np.kron(u, haar_unitary(rng, d))
    return u


def rotate(gnorm, x, u):
    return gnorm.herm(u @ x.entries @ u.conj().T, x.subsystem_dims)


def rand_herm(gnorm, rng, d, dims=()):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return gnorm.herm((g + g.conj().T) / 2, dims)


def rand_density(gnorm, rng, d, dims=()):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    p = g @ g.conj().T
    return gnorm.herm(p / np.trace(p).real, dims)


def rand_channel(gnorm, rng, d_in, d_out):
    """Choi matrix (dims (d_out, d_in)) of a random Stinespring isometry with
    a random number of Kraus operators."""
    n_kraus = int(rng.integers(1, d_in * d_out + 1))
    g = rng.normal(size=(d_out * n_kraus, d_in)) + 1j * rng.normal(size=(d_out * n_kraus, d_in))
    q, _ = np.linalg.qr(g)
    return gnorm.kraus_channel([q[i * d_out : (i + 1) * d_out, :] for i in range(n_kraus)]).matrix


def channel_difference(gnorm, rng, d):
    lam = float(rng.uniform(0.2, 0.8))
    return lam * rand_channel(gnorm, rng, d, d) - (1.0 - lam) * rand_channel(gnorm, rng, d, d)


def frobenius(x):
    return float(np.linalg.norm(x.entries))


# -- oracle references ---------------------------------------------------------


class Oracles:
    """Sampling brackets from ``gnorm.oracles``; sample sets are drawn once
    per section, on first use (in the check phase)."""

    def __init__(self, gnorm, seed):
        self.gnorm = gnorm
        self.seed = seed
        self._samples = {}

    def bracket(self, section, x):
        o = self.gnorm.oracles
        got = self._samples.get(id(section))
        if got is None:
            dual = self.gnorm.sections.dual_section(section)
            got = (
                o.sample_section(section, ORACLE_SAMPLES, seed=self.seed),
                o.sample_section(dual, ORACLE_SAMPLES, seed=self.seed + 1),
            )
            self._samples[id(section)] = got
        primal, dual = got
        return o.norm_lower_bound(section, x, dual), o.norm_upper_bound(section, x, primal)


# -- items -----------------------------------------------------------------------


def _kwargs(max_iter):
    return {} if max_iter is None else {"max_iter": max_iter}


def _value(res):
    return res.value


def bracketed_norm_item(name, fn, section, x, oracles):
    """A conic norm checked against the oracle bracket on ``section``."""
    scale = frobenius(x)

    def check(res):
        lower, upper = oracles.bracket(section, x)
        return checks.norm_with_bracket(res, TOL, scale, lower, upper)

    return Item(name, lambda max_iter=None: fn(x, **_kwargs(max_iter)), _value, check)


def pool(k):
    """Instance stream of the k-th class of calls in a workload."""
    return np.random.default_rng([POOL_SEED, k])


def norms_small(gnorm, sections, frames, oracles):
    """diamond_norm on channels(2,2) and channels(3,3), and the forced-conic
    states(4) norm (the trace norm) of random hermitian matrices."""
    n = gnorm.norms
    classes = []
    for k, (d, key) in enumerate(((2, "ch2"), (3, "ch3"))):
        group = []
        rng = pool(k)
        for j in range(4):
            x = rotate(gnorm, channel_difference(gnorm, rng, d), local_frame(frames, (d, d)))
            group.append(bracketed_norm_item(
                f"diamond ch({d},{d}) #{j}",
                lambda x, **kw: n.diamond_norm(x, tol=TOL, **kw),
                sections[key], x, oracles,
            ))
        classes.append(group)
    st4 = sections["st4"]
    group = []
    rng = pool(2)
    for j in range(5):
        x = rotate(gnorm, rand_herm(gnorm, rng, 4), haar_unitary(frames, 4))
        reference = gnorm.trace_norm(x)
        scale = frobenius(x)
        group.append(Item(
            f"states(4) conic #{j}",
            lambda max_iter=None, x=x: n.base_norm(st4, x, tol=TOL, prefer_closed=False,
                                                   **_kwargs(max_iter)),
            _value,
            lambda res, ref=reference, s=scale: checks.norm_with_reference(res, TOL, s, ref),
        ))
    classes.append(group)
    return interleave(classes)


def norms_large(gnorm, sections, frames, oracles):
    """ncomb_norm on comb(2,2,2,2) and comb(2,3,2,3) (d = 36) of random
    hermitian matrices, and diamond_norm on channels(4,4)."""
    n = gnorm.norms
    classes = []
    for k, (dims, key) in enumerate((((2, 3, 2, 3), "comb2323"), ((2, 2, 2, 2), "comb2222"))):
        count = LARGE_COUNTS[key]
        group = []
        rng = pool(k)
        d = int(np.prod(dims))
        for j in range(count):
            x = rotate(gnorm, rand_herm(gnorm, rng, d), local_frame(frames, tuple(reversed(dims))))
            group.append(bracketed_norm_item(
                f"ncomb comb{dims} #{j}",
                lambda x, dims=dims, **kw: n.ncomb_norm(dims, x, tol=TOL, **kw),
                sections[key], x, oracles,
            ))
        classes.append(group)
    group = []
    rng = pool(2)
    for j in range(LARGE_COUNTS["ch4"]):
        x = rotate(gnorm, channel_difference(gnorm, rng, 4), local_frame(frames, (4, 4)))
        group.append(bracketed_norm_item(
            f"diamond ch(4,4) #{j}",
            lambda x, **kw: n.diamond_norm(x, tol=TOL, **kw),
            sections["ch4"], x, oracles,
        ))
    classes.append(group)
    return interleave(classes)


def decisions(gnorm, sections, frames, oracles, workdir):
    """max_payoff, certification (through the CLI and directly), a 9-prior
    Bayes-error sweep and hmin, all on channels(2,2)."""
    d = gnorm.decisions
    ch2 = sections["ch2"]
    frame = local_frame(frames, (2, 2))
    rng = pool(0)
    family = tuple(rotate(gnorm, rand_channel(gnorm, rng, 2, 2), frame) for _ in range(3))
    experiment = d.Experiment(ch2, family, np.full(3, 1.0 / 3.0))
    problem = d.classical_problem(np.eye(3))

    # Set-up: emit an optimal measurement, write the CLI inputs, perturb it.
    optimum = d.max_payoff(experiment, problem, tol=TOL)
    effects = optimum.povm.effects
    exp_path = os.path.join(workdir, "experiment.json")
    cand_path = os.path.join(workdir, "candidate.json")
    with open(exp_path, "w") as fh:
        json.dump(d.experiment_to_json(experiment, problem), fh)
    with open(cand_path, "w") as fh:
        json.dump({"kind": "povm", "effects": [gnorm.matrix_to_json(m) for m in effects]}, fh)
    total = optimum.povm.total()
    blind = total / len(effects)
    perturbed = d.GeneralizedPOVM(
        ch2,
        tuple((1.0 - PERTURBATION) * m + PERTURBATION * blind for m in effects),
        validation_tol=optimum.povm.validation_tol,
    )
    # A blind guess pays 1/3; mixing it in loses PERTURBATION of the excess.
    min_deficit = 0.5 * PERTURBATION * (optimum.value - 1.0 / 3.0)

    def check_payoff(res):
        achieved = sum(
            gnorm.trace_pair(m, b) / 3.0 for m, b in zip(res.povm.effects, family)
        )
        return checks.first_failure(
            checks.solved(res.norm, TOL, 1.0),
            checks.close(achieved, res.value, TOL, 1.0, "payoff of the emitted measurement"),
            checks.in_range(res.value, 1.0 / 3.0, 1.0, 1e-6, "success probability"),
        )

    items = [
        Item("max_payoff", lambda max_iter=None: d.max_payoff(
            experiment, problem, tol=TOL, **_kwargs(max_iter)), _value, check_payoff),
        Item("cli certify optimal", lambda max_iter=None: _cli(
            gnorm, ["certify", cand_path, exp_path, "--tol", "1e-6"]),
            _cli_payoff, lambda out: checks.cli_certify(out, optimum.value, TOL),
            warm=False),
        Item("certify perturbed", lambda max_iter=None: d.certify_optimal(
            perturbed, experiment, problem, solve_tol=TOL, **_kwargs(max_iter)),
            lambda cert: cert.payoff_at_optimum,
            lambda cert: checks.rejected(cert, min_deficit)),
    ]

    b0, b1 = family[0], family[1]
    for k in range(1, SWEEP_PRIORS + 1):
        lam = k / (SWEEP_PRIORS + 1)
        x = lam * b0 - (1.0 - lam) * b1

        def check_bayes(out, lam=lam, x=x):
            error, _, res = out
            lower, upper = oracles.bracket(ch2, x)
            return checks.first_failure(
                checks.norm_with_bracket(res, TOL, frobenius(x), lower, upper),
                checks.in_range(error, 0.0, min(lam, 1.0 - lam), 1e-6, "error"),
            )

        items.append(Item(
            f"bayes_error lambda={lam:.1f}",
            lambda max_iter=None, lam=lam: d.bayes_error(
                ch2, b0, b1, lam, tol=TOL, **_kwargs(max_iter)),
            lambda out: out[0], check_bayes,
        ))

    states = [rotate(gnorm, gnorm.herm(gnorm.max_entangled_state(2).entries, (2, 2)), frame)]
    rng = pool(1)
    states += [rotate(gnorm, rand_density(gnorm, rng, 4, (2, 2)), frame) for _ in range(2)]
    for j, sigma in enumerate(states):
        if j == 0:
            check = lambda h: checks.close(h, -1.0, TOL, 1.0, "hmin of a Bell state")
        else:
            check = lambda h, s=sigma: checks.in_range(
                h, gnorm.oracles.grid_hmin(s), 1.0, 1e-6, "hmin against its grid bound")
        items.append(Item(
            f"hmin #{j}",
            lambda max_iter=None, s=sigma: gnorm.norms.hmin(s, tol=TOL, **_kwargs(max_iter)),
            lambda h: h, check,
        ))
    return items


def _cli_payoff(out):
    return json.loads(out[1])["values"]["candidate_payoff"]


def _cli(gnorm, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = gnorm.cli.main(argv)
    return code, out.getvalue()


def interleave(classes):
    """Round-robin over the classes so each pass mixes them evenly."""
    out = []
    for j in range(max(len(g) for g in classes)):
        out.extend(g[j] for g in classes if j < len(g))
    return out


def build(gnorm, workload, sections, seed, workdir):
    """The items of one pass, in order."""
    frames = np.random.default_rng(seed)
    oracles = Oracles(gnorm, seed)
    if workload == "norms-small":
        return norms_small(gnorm, sections, frames, oracles)
    if workload == "norms-large":
        return norms_large(gnorm, sections, frames, oracles)
    return decisions(gnorm, sections, frames, oracles, workdir)
