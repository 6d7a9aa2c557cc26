"""Output checks for benchmark calls.  Each returns None when the output is
right and a one-line reason otherwise.  They run outside the timed phase.

"Tolerance scale" below is the solver's own stopping rule carried back to
the caller's units: a solve at relative tolerance ``tol`` of a program whose
data was divided by ``scale`` ends with |primal - dual| <= tol * (scale +
|primal| + |dual|).  Values are compared with ``SLACK`` times that scale.
"""

import json

SLACK = 10.0


def tol_scale(tol, scale, *values):
    return tol * (scale + sum(abs(v) for v in values))


def solved(res, tol, scale):
    """``res`` is a NormResult from a conic solve at ``tol`` on data of norm
    ``scale``: status optimal, gap inside the tolerance scale."""
    if res.status != "optimal":
        return f"status {res.status!r}"
    bound = tol_scale(tol, scale, res.primal_value, res.dual_value)
    if not res.gap <= bound:
        return f"gap {res.gap:.3e} above tolerance scale {bound:.3e}"
    return None


def close(value, reference, tol, scale, what):
    slack = SLACK * tol_scale(tol, scale, reference)
    if not abs(value - reference) <= slack:
        return f"{what}: {value!r} differs from {reference!r} by more than {slack:.3e}"
    return None


def sandwich(value, lower, upper, tol, scale):
    """Sampling bounds from gnorm.oracles: lower <= value <= upper."""
    slack = SLACK * tol_scale(tol, scale, value)
    if not (lower - slack <= value <= upper + slack):
        return f"value {value!r} outside oracle bracket [{lower!r}, {upper!r}]"
    return None


def first_failure(*reasons):
    return next((r for r in reasons if r is not None), None)


def norm_with_bracket(res, tol, scale, lower, upper):
    return first_failure(
        solved(res, tol, scale), sandwich(res.value, lower, upper, tol, scale)
    )


def norm_with_reference(res, tol, scale, reference):
    return first_failure(
        solved(res, tol, scale), close(res.value, reference, tol, scale, "value")
    )


def cli_certify(outcome, expect_payoff, tol):
    """``outcome`` is (exit code, stdout) of ``gnorm certify`` on an optimal
    candidate."""
    code, out = outcome
    if code != 0:
        return f"gnorm certify exited with {code}"
    values = json.loads(out)["values"]
    if values["feasible"] is not True:
        return "emitted optimizer was not certified optimal"
    return close(values["candidate_payoff"], expect_payoff, tol, 1.0, "candidate payoff")


def rejected(cert, min_deficit):
    if cert.feasible:
        return "perturbed measurement was certified optimal"
    deficit = cert.payoff_at_optimum - cert.candidate_payoff
    if not deficit >= min_deficit:
        return f"payoff deficit {deficit:.3e} below {min_deficit:.3e}"
    return None


def in_range(value, lo, hi, slack, what):
    if not lo - slack <= value <= hi + slack:  # also catches NaN
        return f"{what} {value!r} outside [{lo!r}, {hi!r}]"
    return None


def consistent(value, first, tol):
    """A repeated call on the same input gives the same value."""
    return close(value, first, tol, 1.0, "repeat")
