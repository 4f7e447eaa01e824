"""Zeros of the symbol: quadratic roots xi^+- with their splitting
coefficients C^+-, the bulk-SPP zero census on both Riemann sheets, and the winding index.

The index nu_K is the winding number of P(xi) along the real axis.  The
census counts zeros of P on the first sheet (N^+/N^- by half-plane) and on
the second sheet (N*^+/N*^-).  P P* = 1 + num^2/(4(xi^2 + q^2)) has the
census quartic as numerator and its poles +-iq one in each half-plane, so
nu_K + nu* = (N^+ - N^-)/2 + (N*^+ - N*^-)/2, nu* the index of P*, wherever
no zero is marginal: the census conjecture (nu_K alone) is nu* = 0.
``ConjectureResult.nu_star`` reads nu* from that identity, so an index row
needs one phase pass, on P; the phase pass on P* (``dual_winding_index``)
serves only rows with a marginal zero.

The census zeros also tell where the winding can change, so they seed
the phase pass: 256 nodes uniform in theta, xi = scale tan(theta/2),
plus nodes at each zero's real part and its distance from the axis on
either side.

Both passes run on blocks of problems, one row each (``_Block``).  A
block solves the census quartics of every row once, in one stacked
``np.linalg.eigvals`` (``_Block.census_roots``, with per row the error
of a census that failed); the census attributes those roots in one pass
(``_census``), and the phase pass (``unwrapped_phase_grid``), given the
block and a sheet, refines the grids of all its rows together, seeded at
those roots.  The pass takes one list with an entry per row: the rows'
errors go in (by default the census failures), and a row with an error
takes no part in the pass; each other row's winding number or error
comes out.  Each row keeps its own arithmetic, so a row gives the same
result in any block, and a row that fails becomes that row's error
without stopping the others.
``conjecture_block`` is the block form of ``conjecture_check``;
``bulk_zeros``, ``conjecture_check``, ``winding_index``,
``dual_winding_index`` and ``build_log_kernel``'s census and its check of
P on the census seeds alone (``_axis_check``) are blocks of one row.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import sys

import numpy as np

from .branches import BranchPointError, Sheet, sheet_root, sign_q, unwrapped_angle
from .conductivity import ConductivityTensor
from .kernel import (SIGMA_XX_ZERO, DegenerateQuadraticError, Problem, Variant, _compose,
                     symbol_terms)

__all__ = [
    "AssignmentRule",
    "CensusOverflowError",
    "ConjectureResult",
    "DegenerateQuadraticError",
    "DoubleRootError",
    "HalfPlane",
    "QuadraticRoots",
    "RealAxisZeroError",
    "SpectrumReport",
    "ZeroRecord",
    "bulk_zeros",
    "conjecture_block",
    "conjecture_check",
    "dual_winding_index",
    "problem_scale",
    "quadratic_roots",
    "unwrapped_phase_grid",
    "winding_index",
]

# |Im xi| below this (relative to |xi|) means the root pair sits on the real
# axis and the half-plane assignment falls back to the sign of Re.
IM_TIE_BAND = 1e-9

REAL_AXIS_MIN_MODULUS = 1e-8

# a phase grid refined past this many nodes means a zero next to the axis
PHASE_GRID_MAX_NODES = 400_000
DIVERGED = "phase refinement diverged; symbol too close to a real-axis zero"

# the phase grid is refined until arg P steps by at most this between nodes
PHASE_STEP_MAX = 0.5 * math.pi

MARGINAL_BAND = 1e-8
CLASSIFY_RESIDUAL = 1e-6


class DoubleRootError(ValueError):
    """Discriminant root D = 0: xi^+ = xi^- and the splitting is singular."""


class RealAxisZeroError(ValueError):
    """The symbol vanishes on the integration contour; index undefined."""


class CensusOverflowError(ValueError):
    """A census quartic is not finite (|q| beyond about 1e77): its roots,
    the census and the phase pass they seed are undefined."""


class AssignmentRule(enum.Enum):
    """How the xi^+/xi^- labels were decided.

    BY_IM: xi^+ is the upper-half-plane root.  This is the generic rule:
    Q_+ is evaluated at xi^+ and is analytic in the upper half-plane, and
    the x > 0 residue calculus closes around xi^+ there.  (The sign of
    Re xi alone does not label the roots: both can share a Re sign.)
    BY_RE is the fallback when both roots sit on the real axis within the
    tie band.
    """

    BY_IM = "by-im"
    BY_RE = "by-re"


@dataclasses.dataclass(frozen=True)
class QuadraticRoots:
    """Roots of sigma_xx xi^2 + (sigma_xy+sigma_yx) q xi + sigma_yy q^2 and
    their splitting coefficients.

    ``disc`` is the discriminant root D actually used by the assignment;
    C^+- = (1/2){1 +- sg(q) (s_xy - s_yx)/D} are built from this same
    value, so each C^+- stays paired with its xi^+-.  C^- is 1 - C^+, so
    the pair sums to one exactly in floating point.
    """

    xi_plus: complex
    xi_minus: complex
    disc: complex
    rule: AssignmentRule
    c_plus: complex
    c_minus: complex


def _root_pair(sigma: ConductivityTensor, q: complex):
    """(xi_a, xi_b, D, tie): xi_a,b = -q[(s_xy+s_yx) +- sg(q) D]/(2 s_xx)
    with D the principal root of the discriminant, not yet labelled;
    ``tie`` when both sit within IM_TIE_BAND of the real axis.  Raises
    DegenerateQuadraticError when sigma_xx = 0 and DoubleRootError when
    D = 0 or when a tied pair shares its real part, so that neither sign
    separates the roots."""
    q = complex(q)
    sg = sign_q(q)
    sxx = complex(sigma.xx)
    if sxx == 0:
        raise DegenerateQuadraticError(SIGMA_XX_ZERO)
    s_plus = complex(sigma.off_sum)
    disc = np.sqrt(complex(s_plus * s_plus - 4.0 * sxx * complex(sigma.yy)))
    disc = complex(disc)
    if disc == 0:
        raise DoubleRootError("coincident roots xi^+ = xi^-; splitting singular")
    xa = -q * (s_plus + sg * disc) / (2.0 * sxx)
    xb = -q * (s_plus - sg * disc) / (2.0 * sxx)
    scale = max(abs(xa), abs(xb))
    tie = abs(xa.imag) <= IM_TIE_BAND * scale and abs(xb.imag) <= IM_TIE_BAND * scale
    if tie and not (xa.real < xb.real or xa.real > xb.real):
        raise DoubleRootError("roots not separable by Re or Im sign")
    return xa, xb, disc, tie


def quadratic_roots(sigma: ConductivityTensor, q: complex) -> QuadraticRoots:
    """xi^+- with a deterministic half-plane assignment, and C^+-.

    xi^+- = -q[(s_xy+s_yx) +- sg(q) D]/(2 s_xx),
    D = sqrt((s_xy+s_yx)^2 - 4 s_xx s_yy).

    The branch of D is fixed by requiring Im xi^+ > 0 > Im xi^-; only when
    both roots are within IM_TIE_BAND of the real axis does the sign of Re
    decide instead.  A branch flip of D swaps the labels and is recorded
    through ``disc``, from which C^+- are computed: the pair of -D is the
    pair of D swapped, since sg(q)(-D) = -(sg(q) D) exactly.
    """
    xp, xm, disc, tie = _root_pair(sigma, q)
    rule = AssignmentRule.BY_RE if tie else AssignmentRule.BY_IM
    if (xp.real < xm.real) if tie else (xp.imag < xm.imag):
        xp, xm, disc = xm, xp, -disc
    c_plus = 0.5 * (1.0 + sign_q(q) * complex(sigma.off_diff) / disc)
    return QuadraticRoots(xi_plus=xp, xi_minus=xm, disc=disc, rule=rule,
                          c_plus=c_plus, c_minus=1.0 - c_plus)


# ---------------------------------------------------------------------------
# Blocks of problems
# ---------------------------------------------------------------------------


def _one(result):
    """The result of a block's one row, raised when it is the row's error."""
    if isinstance(result, Exception):
        raise result
    return result


class _Block:
    """The scalars of a block of problems (its rows), all with as many
    signed sheets: per row its ``symbol_terms`` (Python products), and for
    several rows the same values as arrays, so that one numpy pass
    evaluates every row at its own points exactly as a pass over that row
    alone would; and ``census_roots``, the roots of its census quartics,
    solved once for the census and the phase pass, with per row the error
    of a census that failed."""

    def __init__(self, problems):
        self.problems = list(problems)
        self.terms = [symbol_terms(p) for p in self.problems]
        self.signs = tuple([t[0] for t in self.terms[0][1]]) if self.terms else ()
        if len(self.terms) > 1 and len({len(sheets) for _, sheets in self.terms}) > 1:
            raise ValueError("a block takes problems with the same number of signed sheets")
        self.census_roots = self._census_roots()

    def __len__(self):
        return len(self.problems)

    def _census_roots(self):
        """(roots, failed): per row the roots of the census quartic of each
        signed sheet in turn, nan for a sheet with sigma_xx = 0 (no
        census), from one stacked ``np.linalg.eigvals``; and per row None,
        or the error of a census quartic whose companion matrix is not
        finite.  ``eigvals`` refuses a whole stack for one such matrix,
        which is then solved matrix by matrix."""
        n = len(self.signs)
        coeffs, at = [], []
        # numpy scalars of a tensor warn where the quartic overflows: the
        # check below fails that row, as for a quartic of Python products
        with np.errstate(over="ignore", invalid="ignore"):
            for row, (problem, (_, sheets)) in enumerate(zip(self.problems, self.terms)):
                for j, (_, a, b, c) in enumerate(sheets):
                    if a != 0:
                        coeffs.append(_census_quartic(a, b, c, complex(problem.q)))
                        at.append(row * n + j)
        coeffs = np.array(coeffs, dtype=complex).reshape(-1, 5)
        # the companion matrix of np.roots: ones below the diagonal (flat
        # entries 4, 9, 14), the normalized coefficients in the first row
        companion = np.zeros((len(at), 16), dtype=complex)
        companion[:, 4::5] = 1.0
        # a normalized coefficient that would overflow is left nan, so its
        # quartic fails below: checked before the divide, on the larger of
        # |Re| and |Im| (the modulus of a finite complex can overflow)
        size = np.maximum(np.abs(coeffs.real), np.abs(coeffs.imag))
        ok = size[:, 1:] * (4.0 / sys.float_info.max) < size[:, :1]
        companion[:, :4] = np.nan
        np.divide(-coeffs[:, 1:], coeffs[:, :1], where=ok, out=companion[:, :4])
        companion = companion.reshape(-1, 4, 4)
        failed = [None] * len(self)
        try:
            roots = np.linalg.eigvals(companion)
        except np.linalg.LinAlgError:
            roots = np.full((len(at), 4), np.nan, dtype=complex)
            for k, matrix in enumerate(companion):
                try:
                    roots[k] = np.linalg.eigvals(matrix)
                except np.linalg.LinAlgError:
                    row = at[k] // n
                    failed[row] = CensusOverflowError(
                        f"census quartic not finite at q = {self.problems[row].q:.6g}")
        if len(at) < len(self) * n:
            roots, found = np.full((len(self) * n, 4), np.nan, dtype=complex), roots
            roots[at] = found
        return roots.reshape(len(self), 4 * n), failed

    @functools.cached_property
    def _arrays(self):
        """q^2 per row, and per signed sheet its (a, b, c) per row."""
        q2 = np.array([q2 for q2, _ in self.terms], dtype=complex)
        return q2, [np.array([[sheets[j][k] for _, sheets in self.terms] for k in (1, 2, 3)],
                             dtype=complex) for j in range(len(self.signs))]

    def gather(self, rows):
        """The ``_compose`` terms at points of the given rows.  A block of
        one row has its scalars at every point."""
        if len(self.terms) == 1:
            return self.terms[0]
        q2, abc = self._arrays
        return q2.take(rows), tuple((sign, *coeffs.take(rows, axis=1))
                                    for sign, coeffs in zip(self.signs, abc))

    def symbol(self, sheet: Sheet):
        """The ``pfun`` of ``unwrapped_phase_grid``: P (P* on the second
        sheet) of row rows[k] at the real xi[k]."""
        def pfun(xi, rows):
            xi = xi.astype(complex)
            terms = self.gather(rows)
            return _compose(terms, xi, sheet_root(xi, terms[0], sheet))[0]
        return pfun


# a block's points are evaluated in runs of whole rows of about this many
# points, so that the temporaries of a large block stay small
EVAL_RUN = 4096


def _rowwise(fn, x, rows, out):
    """fn(x, rows) at points of many rows, sorted by row.  An error that
    marks its points (``at``: a branch point of the root, or a zero of P^L,
    that is a pole of P^R/P^L on the contour) becomes the error of the rows
    it hit in ``out``; their points take the value 1 and the other rows are
    evaluated again."""
    if x.size > EVAL_RUN:
        cuts = [0, *np.searchsorted(rows, rows[EVAL_RUN::EVAL_RUN]).tolist(), x.size]
        vals = np.empty(x.shape, dtype=complex)
        for a, b in zip(cuts, cuts[1:]):
            if b > a:
                vals[a:b] = _rowwise(fn, x[a:b], rows[a:b], out)
        return vals
    try:
        return fn(x, rows)
    except (BranchPointError, ZeroDivisionError) as exc:
        if not hasattr(exc, "at"):
            raise
        err = (RealAxisZeroError(f"{exc}; index undefined (pole on contour)")
               if isinstance(exc, ZeroDivisionError) else exc)
        for r in set(rows[exc.at].tolist()):
            out[r] = err
        keep = np.array([r is None for r in out]).take(rows)
        vals = np.ones(x.shape, dtype=complex)
        vals[keep] = _rowwise(fn, x[keep], rows[keep], out)
        return vals


def _insert(at, *pairs):
    """np.insert(array, at, new) for each (array, new) pair, at sorted."""
    slots = at + np.arange(at.size)
    old = np.empty(pairs[0][0].size + at.size, dtype=bool)
    old.fill(True)
    old[slots] = False
    out = []
    for array, new in pairs:
        merged = np.empty(old.size, dtype=array.dtype)
        merged[old] = array
        merged[slots] = new
        out.append(merged)
    return out


# ---------------------------------------------------------------------------
# Winding index
# ---------------------------------------------------------------------------


def problem_scale(problem: Problem) -> float:
    """Characteristic wavenumber scale: max of |q|, |xi^+-|, |k_sp|, 1.
    The roots xi^+- need no labels here; a sheet whose pair is degenerate
    (``DoubleRootError``) adds none."""
    scale = max(abs(problem.q), 1.0)
    for _, prob in problem.signed_sheets():
        sig = prob.sigma_eff
        try:
            xa, xb, _, _ = _root_pair(sig, prob.q)
            scale = max(scale, abs(xa), abs(xb))
        except (DegenerateQuadraticError, DoubleRootError):
            pass
        if sig.xx != 0:
            scale = max(scale, abs(2j / sig.xx))
    return scale


# the phase grid spans |xi| <= PHASE_GRID_END times the problem scale and
# starts from PHASE_GRID_START nodes uniform in theta, xi = scale tan(theta/2)
PHASE_GRID_END = 100.0
PHASE_GRID_START = 256

# start nodes at Re xi_z + |Im xi_z| times these, around each census zero
ZERO_SEED_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


@functools.cache
def _unit_phase_grid() -> np.ndarray:
    """Starting nodes of ``unwrapped_phase_grid`` per unit scale: the
    PHASE_GRID_START nodes tan(theta_j/2), theta_j = pi (2j + 1 - N)/N, inside
    +-PHASE_GRID_END, then +-PHASE_GRID_END as the end nodes (254 + 2).
    Uniform in theta, they are dense where |xi| is near the scale and
    sparse in the tails, where P varies on the scale of |xi| itself.  Built
    on first use, so importing the package does no numerical work."""
    n = PHASE_GRID_START
    inner = np.tan(0.5 * math.pi * (2.0 * np.arange(n) + 1.0 - n) / n)
    inner = inner[np.abs(inner) < PHASE_GRID_END]
    grid = np.concatenate([[-PHASE_GRID_END], inner, [PHASE_GRID_END]])
    grid.flags.writeable = False
    return grid


def _start_nodes(scales: np.ndarray, zeros: np.ndarray):
    """(nodes, rows): each row's scale times the unit grid, plus Re z +
    |Im z| ZERO_SEED_OFFSETS around each of its zeros with |Re z| below the
    end, sorted within the row, a node that repeats taken once (a sort,
    not np.unique, which imports numpy.ma on first use)."""
    grid = scales[:, None] * _unit_phase_grid()
    end = grid[:, -1:]
    seeds = (zeros.real[..., None] + np.abs(zeros.imag)[..., None] * ZERO_SEED_OFFSETS
             ).reshape(len(grid), 5 * zeros.shape[1])
    inside = np.abs(seeds) < end
    # the middle offset is 0: its seed is Re z itself
    inside &= inside[:, 2::5].repeat(5, axis=1)
    # a seed left out becomes a copy of the end node, which the dedupe drops
    start = np.concatenate([grid, np.where(inside, seeds, end)], axis=1)
    del grid, end
    start.sort(axis=1)
    keep = np.empty(start.shape, dtype=bool)
    keep[:, 0] = True
    np.not_equal(start[:, 1:], start[:, :-1], out=keep[:, 1:])
    return start[keep], keep.nonzero()[0]


def _winding(turns: float):
    """The winding number of a phase change of ``turns`` turns, or the
    error when it is not within 0.2 of a whole number of turns (tail not
    converged, or a zero near the axis) or is nan."""
    try:
        nu = round(turns)
    except ValueError as exc:   # a phase change that is nan
        return exc
    return nu if abs(turns - nu) <= 0.2 else RealAxisZeroError(
        f"phase change {turns:.3f} turns is not close to an integer; "
        "tail not converged or symbol near a real-axis zero")


def unwrapped_phase_grid(problems, sheet: Sheet, *, out=None):
    """arg P (P* on the second sheet), continuously unwrapped on |xi| <=
    100 times each problem's scale, and its winding number, for a block of
    problems at once: a ``_Block``, or a list of problems, one row each.

    The rows are flat arrays of (row, xi) nodes, sorted by row and then by
    xi, that ``block.symbol(sheet)`` evaluates.  A row's start nodes are
    its ``problem_scale`` times the unit grid, plus Re z + |Im z|
    {0, +-1, +-2} around each of its census zeros z (``census_roots``)
    with |Re z| below the end, so that a feature as narrow as a zero's
    distance from the axis has nodes on it.  Each row is refined until its
    adjacent phase steps are below PHASE_STEP_MAX and its log-modulus
    steps below 0.7, which both makes the unwrap exact and lets callers pin
    log branches by interpolation.  One pass unwraps every row at once
    (``branches.unwrapped_angle``, its turns counted afresh at each row),
    then takes every row that finished or failed out of the arrays in one
    step, and evaluates and inserts in order only the midpoints of the rows
    that go on.  A row fails with a RealAxisZeroError when its modulus falls
    below REAL_AXIS_MIN_MODULUS, when it is refined past
    PHASE_GRID_MAX_NODES or a step has no float to split it at (a pole that
    no node hits), or when P meets a pole or a branch point at one of its
    nodes (``_rowwise``); the other rows go on.

    ``out`` holds per row the error that already stops it, or None; by
    default the block's census failures.  A row with an error takes no
    part in the pass.  Returns (nodes, unwrapped_phase, out, scales): the
    final nodes and their phase for a block of one row that finished,
    empty for any other block; ``out`` filled in, per row its winding
    number (``_winding``) or its error; and per row its scale.
    """
    block = problems if isinstance(problems, _Block) else _Block(problems)
    roots, failed = block.census_roots
    scales = [problem_scale(p) for p in block.problems]
    pfun = block.symbol(sheet)
    out = list(failed) if out is None else out
    live = np.flatnonzero([e is None for e in out])
    xs, rows = _start_nodes(np.array(scales)[live], roots[live])
    rows = live.take(rows)
    vals = _rowwise(pfun, xs, rows, out)
    nodes = phase = np.zeros(0)
    while rows.size:
        mod = np.abs(vals)
        if mod.min() < REAL_AXIS_MIN_MODULUS:
            # these rows fail (a row keeps the first error it meets) and
            # leave at the end of the pass: their log must stay finite
            tiny = mod < REAL_AXIS_MIN_MODULUS
            for r in set(rows[tiny].tolist()):
                if out[r] is None:
                    out[r] = RealAxisZeroError(
                        f"symbol modulus {mod[rows == r].min():.3e} on the real axis; "
                        "index/splitting undefined (zero on contour)")
            mod[tiny] = 1.0
        # the last node of each row but the last: no step crosses it
        bounds = ((rows[1:] != rows[:-1]).nonzero()[0].tolist()
                  if rows[0] != rows[-1] else [])
        # a block holds many nodes: the steps reuse one buffer, in place.
        # Refine through sharp modulus dips, where the phase turns fastest,
        np.log(mod, out=mod)
        step = np.subtract(mod[1:], mod[:-1])
        del mod
        bad = np.abs(step, out=step) > 0.7
        # and where the unwrapped phase, its turns counted from each row,
        # steps by more than PHASE_STEP_MAX
        ang = unwrapped_angle(vals, bounds)
        np.subtract(ang[1:], ang[:-1], out=step)
        bad |= np.abs(step, out=step) > PHASE_STEP_MAX
        del step
        firsts = [0] + [b + 1 for b in bounds]
        if bounds:
            bad[bounds] = False
        refine = (np.logical_or.reduceat(bad, firsts).tolist() if bounds and bad.any()
                  else [bool(bad.any())] * len(firsts))
        # one exit step: the rows that failed or finished leave the arrays
        # together, each finished row with its winding number
        stay = []
        for r, first, last, more in zip(rows.take(firsts).tolist(), firsts,
                                        bounds + [rows.size - 1], refine):
            if out[r] is None and more and last - first >= PHASE_GRID_MAX_NODES:
                out[r] = RealAxisZeroError(DIVERGED)
            if out[r] is None and not more:
                out[r] = _winding(float((ang[last] - ang[first]) / (2.0 * math.pi)))
            stay.append(out[r] is None)
        if not any(stay):
            # a block of one row keeps the nodes and phase of its winding
            if len(scales) == 1 and isinstance(out[0], int):
                nodes, phase = xs, ang
            break
        if not all(stay):
            keep = np.repeat(stay, np.diff(firsts + [rows.size]))
            xs, vals, rows = xs[keep], vals[keep], rows[keep]
            bad = bad[keep[:-1]][:xs.size - 1]
        del ang
        # only the midpoints are new: evaluate them and insert them in order
        at = bad.nonzero()[0] + 1
        lo, hi = xs[at - 1], xs[at]
        mids = 0.5 * (lo + hi)
        new_rows = rows.take(at)
        new_vals = _rowwise(pfun, mids, new_rows, out)
        # a step with no float inside repeats for ever: its row fails
        for r in set(new_rows[(mids == lo) | (mids == hi)].tolist()):
            if out[r] is None:
                out[r] = RealAxisZeroError(DIVERGED)
        xs, vals, rows = _insert(at, (xs, mids), (vals, new_vals), (rows, new_rows))
    return nodes, phase, out, scales


def _axis_check(block: _Block, scale: float) -> None:
    """P of a block of one row on its census seeds alone, Re z + |Im z|
    ZERO_SEED_OFFSETS inside the phase pass's end, where a zero of P or of
    P^L next to the axis puts them.  It fails as the pass fails a row
    there: on a pole or a branch point at a node (``_rowwise``), or where
    |P| or |P^L| is below REAL_AXIS_MIN_MODULUS (a pole that no node
    hits, onto which the pass bisects)."""
    roots = block.census_roots[0][0]
    end = PHASE_GRID_END * scale
    xs = np.append((roots.real[:, None] + np.abs(roots.imag)[:, None] * ZERO_SEED_OFFSETS).ravel(), end)
    xs = xs[np.abs(xs) <= end]
    out = [None]
    vals = _rowwise(block.symbol(Sheet.FIRST), xs, np.zeros(xs.size, dtype=int), out)
    _one(out[0])
    q2, sheets = block.terms[0]
    xi = xs.astype(complex)
    checks = [(vals, "symbol", "index/splitting undefined (zero on contour)")]
    # the divisor sheet's factor alone: its zero is a pole of P
    checks += [(_compose((q2, (sheet,)), xi, sheet_root(xi, q2))[0], "P^L",
                "index undefined (pole on contour)") for sheet in sheets[1:]]
    for vals, name, why in checks:
        low = np.abs(vals).min()
        if low < REAL_AXIS_MIN_MODULUS:
            raise RealAxisZeroError(f"{name} modulus {low:.3e} on the real axis; {why}")


def winding_index(problem: Problem) -> int:
    """Krein index: winding number of P(xi) (the ratio P^R/P^L for two sheets)."""
    return _one(unwrapped_phase_grid([problem], Sheet.FIRST)[2][0])


def dual_winding_index(problem: Problem) -> int:
    """Winding of the second-sheet (dual) symbol P*."""
    return _one(unwrapped_phase_grid([problem], Sheet.SECOND)[2][0])


# ---------------------------------------------------------------------------
# Bulk-SPP zero census
# ---------------------------------------------------------------------------


class HalfPlane(enum.Enum):
    UPPER = "upper"
    LOWER = "lower"


@dataclasses.dataclass(frozen=True)
class ZeroRecord:
    location: complex
    sheet: Sheet
    half_plane: HalfPlane
    marginal: bool
    residual: float


@dataclasses.dataclass(frozen=True)
class SpectrumReport:
    zeros: tuple[ZeroRecord, ...]
    n_plus: int
    n_minus: int
    n_star_plus: int
    n_star_minus: int
    n_marginal: int

    @property
    def conjecture_rhs(self) -> float:
        return (0.5 * (self.n_plus - self.n_minus)
                + 0.5 * (self.n_star_plus - self.n_star_minus))

    def counts(self) -> tuple[int, int, int, int]:
        return (self.n_plus, self.n_minus, self.n_star_plus, self.n_star_minus)

    def upper_first_sheet(self) -> tuple[ZeroRecord, ...]:
        return tuple(z for z in self.zeros
                     if z.sheet is Sheet.FIRST and z.half_plane is HalfPlane.UPPER
                     and not z.marginal)


def _census_quartic(a, b, c, q) -> tuple:
    """Coefficients, highest first, of (a xi^2 + b xi + c)^2 + 4 xi^2 +
    4 q^2 (``symbol_terms``, a != 0) as Python products: the companion
    matrices that ``np.roots`` builds, without its coefficient trimming,
    are made from these (``_Block._census_roots``)."""
    return (a * a, 2.0 * a * b, b * b + 2.0 * a * c + 4.0, 2.0 * b * c,
            c * c + 4.0 * q * q)


def _census(block: _Block):
    """Per row the tuple of ``bulk_zeros`` reports of its signed sheets, or
    the error of its first sheet that failed: the block's
    ``census_roots``, every root of the block attributed in one pass.  The
    one rule on a sheet: a = 0 with a zero numerator is a factor 1 of P
    with an empty report, with any other numerator an error, so the logs
    of a row that passes are those of its sheets with a != 0."""
    n = len(block.signs)
    roots, failed = block.census_roots
    reports: list = []      # per signed sheet, row after row
    census = []             # the sheets with a census
    for sheet, (_, a, b, c) in enumerate(t for _, sheets in block.terms for t in sheets):
        if a != 0:
            # a row whose census failed reports it on each sheet with a census
            if failed[sheet // n] is None:
                census.append(sheet)
            reports.append(failed[sheet // n])
        elif b != 0 or c != 0:
            reports.append(DegenerateQuadraticError(SIGMA_XX_ZERO))
        else:
            reports.append(SpectrumReport(zeros=(), n_plus=0, n_minus=0, n_star_plus=0,
                                          n_star_minus=0, n_marginal=0))
    if census:
        flat = roots.reshape(-1, 4).take(census, axis=0).ravel()
        points = np.array(census, dtype=int).repeat(4)
        rows = points // n
        iq = np.array([1j * complex(prob.q) for prob in block.problems]).take(rows)
        band = MARGINAL_BAND * np.maximum(np.abs(flat), 1.0)
        marginal = ((np.abs(flat.imag) < band) | (np.abs(flat - iq) < band)
                    | (np.abs(flat + iq) < band))
        # |P| = |1 + t| and |P*| = |1 - t| at each root, t = (i/2) num/w (P*
        # takes -w); a marginal root may sit on +-iq, where the root is not
        # defined, so it is taken at 1 (1 + q^2 != 0 when Re q != 0) and
        # keeps a nan residual
        xi = np.where(marginal, 1.0, flat)
        # each root is tested on its own sheet alone: that sheet's (a, b, c)
        q2, signed = block.gather(rows)
        w = sheet_root(xi, q2, Sheet.FIRST)
        a, b, c = signed[0][1:] if n == 1 else [np.choose(points % n, [t[k] for t in signed])
                                                for k in (1, 2, 3)]
        t = 0.5j * (a * xi * xi + b * xi + c) / w
        res = np.abs([1.0 + t, 1.0 - t])
        res[:, marginal] = math.nan
        second = res[1] < res[0]
        residual = np.minimum(res[0], res[1])
        # a sound quartic root always satisfies one sheet; treat numerical
        # failures as marginal rather than miscounting
        flagged = ~(residual <= CLASSIFY_RESIDUAL)
        upper = flagged | (flat.imag > 0)
        records = []
        # per census (N+, N-, N*+, N*-, n_marginal): the report's fields in order
        counts = [[0] * 5 for _ in census]
        for i, (r, s2, up, f, e) in enumerate(zip(flat.tolist(), second.tolist(), upper.tolist(),
                                                 flagged.tolist(), residual.tolist())):
            records.append(ZeroRecord(r, Sheet.SECOND if s2 else Sheet.FIRST,
                                      HalfPlane.UPPER if up else HalfPlane.LOWER, f, e))
            counts[i // 4][4 if f else 2 * s2 + (not up)] += 1
        for k, row in enumerate(census):
            reports[row] = SpectrumReport(tuple(records[4 * k:4 * k + 4]), *counts[k])
    by_row = [tuple(reports[r * n:(r + 1) * n]) for r in range(len(block))]
    return [next((rep for rep in reps if isinstance(rep, Exception)), reps) for reps in by_row]


def bulk_zeros(problem: Problem) -> SpectrumReport:
    """Census of the zeros of P (first sheet) and P* (second sheet).

    Clearing the square root from P = 0 gives the quartic
    N_eff(xi)^2 + 4 (xi^2 + q^2) = 0 whose roots are exactly the zeros of
    P * P*; each root is attributed to the sheet whose symbol it satisfies
    better, P or its dual P* (the root w taken as -w).  Roots within
    MARGINAL_BAND of the real axis or of the branch points +-iq are
    flagged marginal and excluded from the counts.  This is the one-row
    case of the block census (``_census``).
    """
    if problem.variant is Variant.TWO_SHEET:
        raise ValueError("two-sheet census applies per side; use problem.signed_sheets()")
    return _one(_census(_Block([problem]))[0])[0]


@dataclasses.dataclass(frozen=True)
class ConjectureResult:
    nu_k: int
    rhs: float
    agrees: bool | None  # None when marginal zeros make the census indeterminate
    report: SpectrumReport
    n_marginal: int      # marginal zeros of all sheets; nonzero makes agrees None

    @property
    def nu_star(self) -> int | None:
        """Index of the dual symbol P* from nu_K + nu* = rhs; None when a
        marginal zero leaves the census short (``dual_winding_index`` then).
        With all four roots of each quartic counted, rhs is an integer."""
        return None if self.n_marginal else int(self.rhs) - self.nu_k


def conjecture_block(problems) -> list:
    """``conjecture_check`` for every problem of a block, computed together:
    one stacked census (``_census``), then one phase pass on P
    (``unwrapped_phase_grid``) on the same block, seeded by the same
    census roots, which the rows whose census failed enter with that
    error.  Per problem its ConjectureResult, or its error."""
    block = _Block(problems)
    results = _census(block)
    windings = unwrapped_phase_grid(block, Sheet.FIRST, out=[
        rep if isinstance(rep, Exception) else None for rep in results])[2]
    for r, nu in enumerate(windings):
        if isinstance(nu, Exception):
            results[r] = nu
            continue
        reports = results[r]
        rhs = sum(sign * rep.conjecture_rhs for sign, rep in zip(block.signs, reports))
        marginal = sum(rep.n_marginal for rep in reports)
        results[r] = ConjectureResult(nu_k=nu, rhs=rhs,
                                      agrees=None if marginal else rhs == nu,
                                      report=reports[0], n_marginal=marginal)
    return results


def conjecture_check(problem: Problem) -> ConjectureResult:
    """Compare the winding index against the half-integer census combination.

    The combination is the signed sum over the sheets (right minus left for
    two sheets); ``report`` is the census of the first signed sheet, and
    ``n_marginal`` counts the marginal zeros of every sheet.  The census
    comes first: its zeros seed the phase pass.  This is the one-row case
    of ``conjecture_block``.
    """
    return _one(conjecture_block([problem])[0])
