"""The four benchmark workloads: inputs from a seed, one call per item,
correctness checks, and a bitwise fingerprint of every output.

Every workload is a closed loop with one client: the next item is sent
only when the previous one returned.  Items are generated from the seed
alone; the program only ever sees the generated inputs.

A workload object provides

- ``items``: the seeded batch, built once; a run repeats it;
- ``prepare()``: untimed warm-up and the seed-independent checks;
  returns a list of failure messages;
- ``run(item)``: the timed call into the package; it may raise;
- ``check(item, output)``: ``None`` or a failure message;
- ``finish(records)``: checks across the items of one pass;
- ``fingerprint(output)``: a hashable, bit-exact image of the output;
- ``layer_counts(records)``: per-layer counts that only the workload sees;
- ``trace_items``: how many leading items a traced pass runs (all if None);
- ``rescaled``: whether timed runs rescale item times by the host-speed gauge.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

# --- reference configurations (tensors as in the package's tests) --------

B_XX, B_YY = 0.001 + 0.1j, 0.002 + 0.2j          # sheet B, nondimensional
ROTATION_PI = {"B": 0.0, "C": 0.4, "D": 0.166}   # C and D rotate sheet B
GUESSES = {"A": 12.172 + 0.0j, "B": 13.928 + 0.140j, "C": 21.657 + 0.217j,
           "D": 16.438 + 0.164j, "interface": 24.0 + 0.0j, "two_sheet": 12.0 + 0.0j}
SOLVE_CASES = tuple(GUESSES)
TWO_SHEET_LEFT = 0.0005 + 0.05j                  # isotropic left sheet
GUESS_SPREAD = 0.05                              # seeded guess factor within +-5 %

# nu_K != 0 pockets: (case, factor of its root, half-width, sign of Re q).
# At -q the index flips sign, so both signs are classified NO_SOLUTION.
POCKETS = (("C", 0.87, 0.02, 1), ("C", 0.87, 0.02, -1),
           ("D", 0.765, 0.05, 1), ("D", 0.765, 0.05, -1))
POCKET_NU = {1: -1, -1: 1}

# ROADMAP item 4: a passive tensor on which the residual's quadrature stalls
# (QuadratureError at 4100 segments).  It stays in every dispersion run.
DEFECT_SIGMA = ((8.272235546181581e-05 + 0.22738122556957482j,
                 -6.165810675334501e-06 - 0.07540526128244206j),
                (-6.165810675334501e-06 + 0.04150899273059509j,
                 1.6118453392545493e-06 + 0.004430523848386819j))
DEFECT_Q = -11.33996405995937 - 0.11339964059959369j

ROOT_A_30 = 12.17198532366108768                 # 30-digit value of the tests

FIELD_ANCHOR_CASE = "C"
FIELD_ANCHOR_X = (-0.4, -0.07, 0.1, 0.35)
FIELD_X_RANGE = (0.05, 0.5)

SWEEP_PHI_PI = (0.0, 0.95)
SWEEP_FACTORS = (0.3, 2.0)
CLI_JOBS = 2
CLI_GRID = 8            # seeded phis and factors per invocation, before anchors

# tolerances of the correctness checks
ROOT_RTOL = 1e-8
RESIDUAL_TOL = 1e-10
ROOT_A_TOL = 5e-9
EDGE_TOL = 1e-3         # criterion 10: |phi(0+) - phi(0-)| and |A|
FIELD_ANCHOR_TOL = 1e-6  # |phi - frozen phi|; the profile targets 1e-4


def sheet(ep, name):
    if name == "A":
        return ep.ConductivityTensor.diagonal(0.2j, 0.2j, nondimensional=True)
    base = ep.ConductivityTensor.diagonal(B_XX, B_YY, nondimensional=True)
    phi = ROTATION_PI[name]
    return ep.rotate(base, phi * math.pi) if phi else base


def solve_problem(ep, case, q):
    """Problem of a dispersion case at wavenumber q."""
    if case == "interface":
        return ep.Problem.interface(sheet(ep, "A"), q, 2.0, 2.0)
    if case == "two_sheet":
        left = ep.ConductivityTensor.diagonal(TWO_SHEET_LEFT, TWO_SHEET_LEFT,
                                              nondimensional=True)
        return ep.Problem.two_sheet(left, sheet(ep, "A"), q)
    if case == "defect":
        (xx, xy), (yx, yy) = DEFECT_SIGMA
        sigma = ep.ConductivityTensor(xx=xx, xy=xy, yx=yx, yy=yy, nondimensional=True)
        return ep.Problem.single_sheet(sigma, q)
    return ep.Problem.single_sheet(sheet(ep, case), q)


def as_complex(pair):
    return complex(pair[0], pair[1])


def _hex(z) -> tuple:
    z = complex(z)
    return (z.real.hex(), z.imag.hex())


def _hex_array(values) -> tuple:
    return tuple(_hex(v) for v in np.asarray(values).ravel())


def load_reference(path):
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    ref["roots"] = {k: as_complex(v) for k, v in ref["roots"].items()}
    return ref


def reference_errors(ref) -> list[str]:
    root_a = ref["roots"]["A"]
    if abs(root_a - ROOT_A_30) >= ROOT_A_TOL:
        return [f"frozen root A {root_a!r} disagrees with {ROOT_A_30} by more than {ROOT_A_TOL}"]
    return []


class Workload:
    trace_items = None
    rescaled = True

    def __init__(self, ep, ref, seed: int, tmpdir: str):
        self.ep = ep
        self.ref = ref
        self.tmpdir = tmpdir
        self.items = self.make_batch(np.random.default_rng(seed))

    def prepare(self) -> list[str]:
        return []

    def finish(self, records) -> list[str]:
        return []

    def layer_counts(self, records) -> dict:
        return {}


# --- dispersion ---------------------------------------------------------------


class Dispersion(Workload):
    """Seeded solve() batch: each round holds the six cases once and one
    pocket guess, in seeded order; the defect item sits in the first round.

    Each case's guess factors are stratified over the +-5 % band (one per
    1/rounds of it), and the pockets are taken in turn, so the work in a
    batch hardly depends on the seed."""

    rounds = 15

    def make_batch(self, rng):
        roots = self.ref["roots"]
        strata = {case: 2.0 * (rng.permutation(self.rounds) + rng.uniform(size=self.rounds))
                  / self.rounds - 1.0 for case in SOLVE_CASES + ("pocket",)}
        pockets = rng.permutation(self.rounds) % len(POCKETS)
        batch = []
        for index in range(self.rounds):
            round_ = []
            for case in SOLVE_CASES:
                factor = 1.0 + GUESS_SPREAD * strata[case][index]
                round_.append(("case", case, GUESSES[case] * factor))
            case, centre, half, sign = POCKETS[pockets[index]]
            factor = centre * (1.0 + half * strata["pocket"][index])
            round_.append(("pocket", case, sign * factor * roots[case]))
            round_ = [round_[i] for i in rng.permutation(len(round_))]
            if index == 0:
                round_.insert(int(rng.integers(len(round_) + 1)),
                              ("defect", "defect", DEFECT_Q))
            batch += round_
        return batch

    def prepare(self):
        errors = reference_errors(self.ref)
        sol = self.run(("case", "A", GUESSES["A"]))
        msg = self.check(("case", "A", GUESSES["A"]), sol)
        return errors + ([f"warm-up solve: {msg}"] if msg else [])

    def run(self, item):
        _, case, guess = item
        return self.ep.solve(solve_problem(self.ep, case, guess), guess)

    def check(self, item, sol):
        kind, case, guess = item
        if kind == "case":
            root = self.ref["roots"][case]
            if not sol.converged:
                return f"{case} from {guess}: not converged ({sol.message})"
            if abs(sol.residual) >= RESIDUAL_TOL:
                return f"{case} from {guess}: |residual| {abs(sol.residual):.3e}"
            if abs(sol.q - root) >= ROOT_RTOL * abs(root):
                return f"{case} from {guess}: root {sol.q!r} != frozen {root!r}"
            return None
        if kind == "pocket":
            want = POCKET_NU[1 if guess.real > 0 else -1]
            if (sol.classification is not self.ep.Classification.NO_SOLUTION
                    or sol.nu_k_at_solution != want or not sol.message):
                return (f"pocket {case} at {guess}: {sol.classification.value}, "
                        f"nu {sol.nu_k_at_solution}, message {sol.message!r}")
            return None
        # the defect input: any classified result with its reason is correct
        if sol.converged and abs(sol.residual) < RESIDUAL_TOL:
            return None
        if not sol.converged and sol.message:
            return None
        return f"defect input: {sol.classification.value} without a valid reason"

    def fingerprint(self, sol):
        census = sol.census.counts() if sol.census else None
        return (_hex(sol.q), _hex(sol.residual), sol.iterations,
                sol.nu_k_at_solution, sol.classification.value, sol.message, census)


# --- field --------------------------------------------------------------------


class Field(Workload):
    """edge_limits then phi_profile on one kernel per item (the README quick
    start).  Item 0 is the fixed anchor; item 1 is a seeded reference root
    with seeded x-values, two on each side of the edge."""

    trace_items = 1
    # 10 s items are too long for the host-speed gauge to follow (hostspeed.py)
    rescaled = False

    def make_batch(self, rng):
        case = "ABCD"[rng.integers(4)]
        mags = rng.uniform(*FIELD_X_RANGE, size=4)
        xs = (-mags[0], -mags[1], mags[2], mags[3])
        return [(FIELD_ANCHOR_CASE, FIELD_ANCHOR_X), (case, tuple(float(x) for x in xs))]

    def run(self, item):
        ep = self.ep
        case, xs = item
        prob = ep.Problem.single_sheet(sheet(ep, case), self.ref["roots"][case])
        kernel = ep.build_log_kernel(prob)
        limits = ep.edge_limits(prob, kernel)
        profile = ep.phi_profile(prob, kernel, np.asarray(xs))
        return limits, profile

    def check(self, item, output):
        case, xs = item
        limits, profile = output
        gap = abs(limits.phi_plus - limits.phi_minus)
        if gap >= EDGE_TOL or abs(limits.divergence_coefficient) >= EDGE_TOL:
            return f"field {case}: edge gap {gap:.3e}, |A| {abs(limits.divergence_coefficient):.3e}"
        if np.any(profile.accuracy_flag):
            return f"field {case}: accuracy flag set at x = {np.asarray(xs)[profile.accuracy_flag]}"
        if tuple(xs) == FIELD_ANCHOR_X and case == FIELD_ANCHOR_CASE:
            anchor = self.ref["field_anchor"]
            want = np.array([as_complex(v) for v in anchor["phi"]])
            dev = float(np.abs(profile.phi - want).max())
            dev = max(dev, abs(limits.phi_plus - as_complex(anchor["phi_plus"])),
                      abs(limits.phi_minus - as_complex(anchor["phi_minus"])))
            if dev >= FIELD_ANCHOR_TOL:
                return f"field anchor: deviation {dev:.3e} from the frozen values"
        return None

    def fingerprint(self, output):
        limits, profile = output
        return (_hex(limits.phi_plus), _hex(limits.phi_minus),
                _hex(limits.divergence_coefficient), limits.phi_plus_error.hex(),
                _hex_array(profile.phi), _hex_array(profile.error_estimate),
                tuple(bool(f) for f in profile.accuracy_flag))


# --- index sweep --------------------------------------------------------------


def _index_anchor_errors(ep, roots) -> list[str]:
    """Criteria 4 and 5: nu = -1 with census (0,3,1,0) at 0.75 q_D on sheet D,
    nu = -1 with census (0,2,1,1) at 0.85 q_C on sheet C, nu = +1 at -0.85 q_C."""
    errors = []
    for case, factor, nu_want, census_want in (("D", 0.75, -1, (0, 3, 1, 0)),
                                               ("C", 0.85, -1, (0, 2, 1, 1)),
                                               ("C", -0.85, 1, None)):
        prob = ep.Problem.single_sheet(sheet(ep, case), factor * roots[case])
        nu = ep.winding_index(prob)
        census = ep.bulk_zeros(prob).counts()
        if nu != nu_want or (census_want and census != census_want):
            errors.append(f"anchor {case} at {factor} q: nu {nu}, census {census}")
    return errors


def _index_errors(label, nu, nu_minus, agrees, marginal) -> list[str]:
    errors = []
    if nu_minus is not None and nu_minus != -nu:
        errors.append(f"{label}: nu(-q) = {nu_minus} != -nu(q) = {-nu}")
    if agrees is not True and not (agrees is None and marginal):
        errors.append(f"{label}: conjecture disagrees and census is not marginal")
    return errors


class IndexSweep(Workload):
    """conjecture_check then dual_winding_index per point on sheet B rotated
    by phi, at +-factor * q_D; items come in (+q, -q) pairs."""

    pairs = 500

    def make_batch(self, rng):
        batch = []
        for pair in range(self.pairs):
            phi_pi = rng.uniform(*SWEEP_PHI_PI)
            factor = rng.uniform(*SWEEP_FACTORS)
            batch += [(pair, phi_pi, factor), (pair, phi_pi, -factor)]
        return batch

    def prepare(self):
        return _index_anchor_errors(self.ep, self.ref["roots"])

    def run(self, item):
        ep = self.ep
        _, phi_pi, factor = item
        sigma = ep.rotate(sheet(ep, "B"), phi_pi * math.pi)
        prob = ep.Problem.single_sheet(sigma, factor * self.ref["roots"]["D"])
        return ep.conjecture_check(prob), ep.dual_winding_index(prob)

    def check(self, item, output):
        res, _ = output
        errors = _index_errors(f"point {item}", res.nu_k, None, res.agrees,
                               res.report.n_marginal)
        return errors[0] if errors else None

    def finish(self, records):
        by_pair = {}
        for item, output, error in records:
            if output is not None:
                by_pair.setdefault(item[0], []).append(output[0].nu_k)
        errors = []
        for pair, nus in by_pair.items():
            if len(nus) == 2:
                errors += _index_errors(f"pair {pair}", nus[0], nus[1], True, 0)
        return errors

    def fingerprint(self, output):
        res, nu_star = output
        return (res.nu_k, res.rhs, res.agrees, res.report.counts(),
                res.report.n_marginal, nu_star,
                tuple(_hex(z.location) for z in res.report.zeros))


# --- CLI sweep ----------------------------------------------------------------


class CliSweep(Workload):
    """CLI ``sweep`` in-process through ``edgeplasmon.cli.main`` with a
    process pool; one item is one invocation on a seeded grid that also
    holds the criterion 4 and 5 anchor points."""

    invocations = 10

    def __init__(self, ep, ref, seed, tmpdir):
        import edgeplasmon.cli as cli
        self.cli = cli
        roots = ref["roots"]
        self.anchor_c = 0.85 * (roots["C"] / roots["D"]).real
        self.serial_rows = None
        super().__init__(ep, ref, seed, tmpdir)

    def make_batch(self, rng):
        batch = []
        for index in range(self.invocations):
            phis = sorted(set(rng.uniform(*SWEEP_PHI_PI, size=CLI_GRID)) | {0.166, 0.4})
            mags = sorted(set(rng.uniform(*SWEEP_FACTORS, size=CLI_GRID)) | {0.75, self.anchor_c})
            cfg = {
                "sheet": {"tensor": {"xx": [B_XX.real, B_XX.imag],
                                     "yy": [B_YY.real, B_YY.imag],
                                     "nondimensional": True}},
                "sweep": {"phis_pi": [float(p) for p in phis],
                          "q_factors": [float(f) for f in mags] + [-float(f) for f in mags],
                          "q_base": [self.ref["roots"]["D"].real,
                                     self.ref["roots"]["D"].imag]},
            }
            path = os.path.join(self.tmpdir, f"sweep-{index}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            batch.append((index, path))
        return batch

    def _invoke(self, path, jobs):
        out = path[:-5] + f"-out{jobs}.csv"
        code = self.cli.main(["sweep", "--config", path, "--jobs", str(jobs), "--out", out])
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        return code, text

    def prepare(self):
        # the serial reference run of the first grid doubles as the warm-up
        code, text = self._invoke(self.items[0][1], 1)
        self.serial_rows = _strip_wall(text)
        return [] if code == 0 else [f"serial sweep exited {code}"]

    def run(self, item):
        return self._invoke(item[1], CLI_JOBS)

    def check(self, item, output):
        code, text = output
        if code != 0:
            return f"sweep {item[0]}: exit code {code}"
        rows = list(csv.DictReader(io.StringIO(text)))
        if any(r["nu_k"] == "" for r in rows):
            return f"sweep {item[0]}: a row carries an error"
        nu = {(float(r["phi_pi"]), float(r["q_factor"])): int(r["nu_k"]) for r in rows}
        census = {(float(r["phi_pi"]), float(r["q_factor"])):
                  tuple(int(r[k]) for k in ("n_plus", "n_minus", "nstar_plus", "nstar_minus"))
                  for r in rows}
        errors = []
        for r in rows:
            key = (float(r["phi_pi"]), float(r["q_factor"]))
            agrees = {"true": True, "false": False, "": None}[r["conjecture_agrees"]]
            errors += _index_errors(f"sweep {item[0]} row {key}", nu[key],
                                    nu.get((key[0], -key[1])), agrees,
                                    int(r["n_marginal"]))
        for key, nu_want, census_want in (((0.166, 0.75), -1, (0, 3, 1, 0)),
                                          ((0.166, -0.75), 1, None),
                                          ((0.4, self.anchor_c), -1, (0, 2, 1, 1)),
                                          ((0.4, -self.anchor_c), 1, None)):
            if nu.get(key) != nu_want or (census_want and census[key] != census_want):
                errors.append(f"sweep {item[0]}: anchor {key} nu {nu.get(key)}")
        if item[0] == 0 and _strip_wall(text) != self.serial_rows:
            errors.append("sweep 0: --jobs 2 rows differ from the --jobs 1 rows")
        return errors[0] if errors else None

    def fingerprint(self, output):
        code, text = output
        return code, _strip_wall(text)

    def layer_counts(self, records):
        texts = [output[1] for _, output, _ in records if output is not None]
        return {"cli.rows": sum(t.count("\n") - 1 for t in texts),
                "cli.bytes_out": sum(len(t.encode()) for t in texts)}


def _strip_wall(text):
    rows = list(csv.reader(io.StringIO(text)))
    drop = rows[0].index("wall_ms")
    return tuple(tuple(v for i, v in enumerate(r) if i != drop) for r in rows)


WORKLOADS = {"dispersion": Dispersion, "field": Field,
             "index_sweep": IndexSweep, "cli_sweep": CliSweep}
