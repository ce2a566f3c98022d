#!/usr/bin/env python3
"""Show the perturbation sandwich around the plain and nonlocal solutions.

Runs acceptance criterion 6's solves (``frontlab.checks.sandwich``): the
outward- and inward-perturbed local problems at eps = 0.05, gamma1 = 0.4
bracket both the unperturbed local run and the modified nonlocal run.
Prints the boundary envelopes along the way and the two verdicts.
"""

import numpy as np

from frontlab import checks, problem


def main():
    vconf = problem.validate(problem.symmetric_stefan(T=1.0))
    local_rep, nl_rep, slack, (lower, mid, nl, upper) = checks.sandwich(vconf)

    ts = np.linspace(0.0, 1.0, 6)
    print("t      h_lower   h_nonlocal  h_plain   h_upper")
    for t in ts:
        print(
            f"{t:<6.2f} {float(lower.h_of(t)):<9.4f} {float(nl.h_of(t)):<11.4f} "
            f"{float(mid.h_of(t)):<9.4f} {float(upper.h_of(t)):.4f}"
        )

    print(f"\nlocal sandwich ok: {local_rep.ok} (worst violation {local_rep.max_violation:.2e})")
    print(f"nonlocal sandwich ok: {nl_rep.ok} (slack {slack:.3f})")


if __name__ == "__main__":
    main()
