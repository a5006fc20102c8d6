#!/usr/bin/env python3
"""Riemannian gradient descent on the sphere and its tangent-space lift.

Minimizing the Rayleigh quotient of diag(1, 2, 3) on the unit sphere:
minima at +-e1, strict saddles at +-e2, maxima at +-e3.  At the saddle
e2 we conjugate the dynamics into the tangent plane with the sphere's
exponential/logarithm, on the chart of radius pi/2 (half the injectivity
radius; an iterate beyond it raises OutsideChart).  The Riemannian
Hessian is the Hessian of the pullback f(exp_e2(v)) at v = 0, with
spectrum {1-2, 3-2} = {-1, +1}, and the lifted linearization is
I - alpha * Hess: one contracting and one expanding direction, the
signature of a strict saddle.
"""

import numpy as np

from saddlescope import monte_carlo_avoidance, run_trajectory
from saddlescope.optimizers import lift_to_tangent, pullback_hessian, rgd_system
from saddlescope.phcert import constant_schedule
from saddlescope.testfns import get

entry = get("rayleigh_sphere")
alpha = 0.2
system = rgd_system(entry.objective, constant_schedule(alpha))

base = np.array([0.0, 1.0, 0.0])
print("Riemannian Hessian at the saddle e2 (tangent coordinates):")
M = pullback_hessian(entry.objective, base)(np.zeros(2))
print(M)

lifted = lift_to_tangent(entry.objective, base, system)
h = 1e-6
J = np.stack(
    [
        (lifted.map_at(0).evaluate(h * e) - lifted.map_at(0).evaluate(-h * e)) / (2 * h)
        for e in np.eye(2)
    ],
    axis=1,
)
print("\nlifted Jacobian at the origin (finite differences):")
print(J)
print("eigenvalues:", np.sort(np.linalg.eigvals(J).real))
print(f"expected 1 -+ alpha = {1 - alpha}, {1 + alpha}\n")

x0 = np.array([0.3, 0.5, 0.81])
x0 /= np.linalg.norm(x0)
rec = run_trajectory(system, x0, max_steps=5000, stop_tol=1e-14)
print(f"a generic trajectory from {np.round(x0, 3)}:")
print(f"  limit {np.round(rec.limit_estimate, 6)} after {rec.steps_taken} steps")
print(f"  unit norm preserved to {abs(np.linalg.norm(rec.limit_estimate) - 1):.1e}")

report = monte_carlo_avoidance(
    "rayleigh_sphere", "rgd", constant_schedule(0.5), trials=300, seed=5,
    max_steps=20_000,
)
print("\n300 uniform sphere initializations, constant steps 0.5:")
for cls, cnt in sorted(report.counts.items()):
    if cnt:
        print(f"  {cls:28s} {cnt}")
print("the saddles +-e2 (and maxima +-e3) are never the limit.")
