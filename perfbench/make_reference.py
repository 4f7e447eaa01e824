"""Regenerate perfbench/reference.json, the seed-independent reference data.

    python3 perfbench/make_reference.py

- ``roots``: the dispersion root of each solve case, from its unperturbed
  guess, stored with all 17 significant digits;
- ``field_anchor``: edge limits and phi at the fixed anchor x-set on the
  anchor case's root.

It also checks what the workloads rely on: every guess within the seeded
+-5 % band reaches its case's root, and every pocket guess band stays at
its nu_K.  Rerun it only when a change is meant to move these values, and
say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import workloads as wl

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import edgeplasmon as ep  # noqa: E402


def main() -> int:
    roots = {}
    for case in wl.SOLVE_CASES:
        guess = wl.GUESSES[case]
        sol = ep.solve(wl.solve_problem(ep, case, guess), guess)
        if not sol.converged:
            raise SystemExit(f"{case}: {sol.message}")
        roots[case] = sol.q
        print(f"{case:10} {sol.q!r}  |F| {abs(sol.residual):.2e}  evals {sol.iterations}")

    for case in wl.SOLVE_CASES:
        worst, evals = 0.0, []
        for u in np.linspace(-wl.GUESS_SPREAD, wl.GUESS_SPREAD, 11):
            guess = wl.GUESSES[case] * (1.0 + u)
            sol = ep.solve(wl.solve_problem(ep, case, guess), guess)
            if not sol.converged or abs(sol.residual) >= wl.RESIDUAL_TOL:
                raise SystemExit(f"{case} from {guess}: {sol.message}")
            worst = max(worst, abs(sol.q - roots[case]) / abs(roots[case]))
            evals.append(sol.iterations)
        print(f"{case:10} guesses within +-5 %: max rel. deviation {worst:.1e}, "
              f"{min(evals)}-{max(evals)} residual evaluations")

    for case, centre, half, sign in wl.POCKETS:
        for factor in np.linspace(centre * (1 - half), centre * (1 + half), 21):
            prob = wl.solve_problem(ep, case, sign * factor * roots[case])
            if ep.winding_index(prob) != wl.POCKET_NU[sign]:
                raise SystemExit(f"pocket {case} {sign:+d} leaves nu = "
                                 f"{wl.POCKET_NU[sign]} at factor {factor}")
    print("pocket bands hold their index")

    case = wl.FIELD_ANCHOR_CASE
    prob = ep.Problem.single_sheet(wl.sheet(ep, case), roots[case])
    kernel = ep.build_log_kernel(prob)
    limits = ep.edge_limits(prob, kernel)
    profile = ep.phi_profile(prob, kernel, np.asarray(wl.FIELD_ANCHOR_X))

    def pair(z):
        return [complex(z).real, complex(z).imag]

    ref = {
        "roots": {k: pair(v) for k, v in roots.items()},
        "field_anchor": {
            "case": case,
            "x": list(wl.FIELD_ANCHOR_X),
            "phi_plus": pair(limits.phi_plus),
            "phi_minus": pair(limits.phi_minus),
            "phi": [pair(v) for v in profile.phi],
        },
    }
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    errors = wl.reference_errors(wl.load_reference(HERE / "reference.json"))
    for msg in errors:
        print(msg)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
