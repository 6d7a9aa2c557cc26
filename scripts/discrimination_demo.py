#!/usr/bin/env python3
"""End-to-end tour: discriminate states, channels and two-slot networks.

Run from the repository root:

    python scripts/discrimination_demo.py [--tol 1e-8]
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from gnorm import (
    Experiment,
    base_norm,
    certify_optimal,
    channels_section,
    classical_problem,
    comb_section,
    diamond_norm,
    helstrom,
    herm,
    hmin,
    kraus_channel,
    max_entangled_projection,
    max_entangled_state,
    max_entangled_tester_exists,
    max_payoff,
    multi_hypothesis_error,
    ncomb_norm,
    outer,
    states_section,
    tensor,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tol", type=float, default=1e-8)
    args = parser.parse_args()
    tol = args.tol

    print("== state discrimination ==")
    ket0 = outer([1.0, 0.0])
    plus = outer([1.0 / math.sqrt(2), 1.0 / math.sqrt(2)])
    err, povm = helstrom(ket0, plus, 0.5)
    print(f"|0> vs |+> at even prior: minimal error {err:.9f} "
          f"(analytic {(1 - 1/math.sqrt(2))/2:.9f})")
    s2 = states_section(2)
    e = Experiment(s2, (ket0, plus), np.array([0.5, 0.5]))
    cert = certify_optimal(povm, e, classical_problem(np.eye(2)), tol=1e-6)
    print(f"projective split certified optimal: {cert.feasible} "
          f"(payoff {cert.candidate_payoff:.9f})")

    trine = [outer([math.cos(math.pi * k / 3), math.sin(math.pi * k / 3)]) for k in range(3)]
    err3, _, _ = multi_hypothesis_error(s2, trine, np.full(3, 1 / 3), tol=tol)
    print(f"three symmetric pure states, uniform prior: error {err3:.9f} (target 1/3)")

    print("\n== channel discrimination ==")
    psi = herm(max_entangled_projection(2).entries, (2, 2))
    x_z = kraus_channel([np.diag([1.0, -1.0]).astype(complex)]).matrix
    res = diamond_norm(psi - x_z, tol=tol)
    print(f"identity vs Z-conjugation: channel-section norm {res.value:.9f} "
          f"(gap {res.gap:.1e}) -> error {max(0.0, (1 - res.value/2)/2):.6f} at weights 1/2")
    exists, residual = max_entangled_tester_exists(psi, x_z, 0.5)
    print(f"optimal tester with maximally entangled input exists: {exists} "
          f"(residual {residual:.1e})")

    g = 0.4
    k0 = np.array([[1, 0], [0, math.sqrt(1 - g)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(g)], [0, 0]], dtype=complex)
    x_ad = kraus_channel([k0, k1]).matrix
    res = diamond_norm(0.5 * psi - 0.5 * x_ad, tol=tol)
    exists, residual = max_entangled_tester_exists(psi, x_ad, 0.5)
    print(f"identity vs amplitude damping ({g}): weighted norm {res.value:.9f}; "
          f"maximally entangled tester optimal: {exists} (residual {residual:.2e})")

    print("\n== networks (two sequential slots) ==")
    net_id = tensor(psi, psi)
    net_zz = tensor(x_z, x_z)
    res = ncomb_norm((2, 2, 2, 2), net_id - net_zz, tol=1e-7)
    print(f"(id, id) vs (Z, Z) networks: norm {res.value:.9f} (gap {res.gap:.1e})")
    member = base_norm(comb_section((2, 2, 2, 2)), net_id, tol=1e-7)
    print(f"network Choi of a valid strategy has norm {member.value:.9f}")

    print("\n== conditional min-entropy ==")
    phi = herm(max_entangled_state(2).entries, (2, 2))
    print(f"maximally entangled: {hmin(phi, tol=tol):+.6f} (target -1)")
    print(f"maximally mixed:     {hmin(herm(np.eye(4)/4, (2, 2)), tol=tol):+.6f} (target +1)")

    print("\n== payoff maximization over a channel family ==")
    ch = channels_section(2, 2)
    e = Experiment(ch, (psi, x_z), np.array([0.5, 0.5]))
    pay = max_payoff(e, classical_problem(np.eye(2)), tol=tol)
    print(f"guessing which unitary acted, via the optimal tester: payoff {pay.value:.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
