"""Forward simulation of the controlled delayed state; its variational
(first-order sensitivity) process is a step accumulator.

The state follows
    dX = b dt + sigma dB + compensated jumps,
with the lag Y(t) = X(t - delta) and the moving average
A(t) = int_{t-delta}^t e^{-rho (t-r)} X(r) dr carried along each path.

Euler discretization with left-point coefficients.  The segment X_t is
kept in a delay ring of m+2 rows of lanes, so Y_k = X_{k-m} holds
bitwise: X_k and Y_k are two of its rows, and each step sums X_{k+1} in
place into the row between them, which held X_{k-m-1}, so it copies no
state.  X, Y and their successors are views of ring rows, valid only
during the step that hands them out.  A is advanced by an exact one-step
trapezoid recursion (see ``update_moving_average``), making A_k equal to
the composite trapezoid rule over the current segment up to roundoff.
A run carries A only when something may read it: a record, a drift,
diffusion or jump amplitude whose a-partial is not the structural zero
(``CoefficientSet.reads``), a control declared ``reads_average``, or an
accumulator whose ``reads_average`` says so.  Otherwise its recursion is
skipped, and the control, the coefficients and the accumulators get as
a and a1 a stand-in that raises TypeError when read as an array, so a
callback declared A-free that reads it fails at its first step.

Randomness is counter-based (Philox).  Paths are organized in blocks of
``BLOCK_SIZE`` lanes; block j of seed s uses the generator key
s * 2^64 + j and always draws full-width variates before slicing.  At each
step a block draws its normals, then its Poisson counts mark by mark.

Without jumps a block's stream holds normals only, so one draw of shape
(c, ``BLOCK_SIZE``) is bitwise c consecutive per-step draws.  The engine
then draws ``NOISE_CHUNK`` steps of normals at a time into a block-major
chunk of shape (blocks, ``NOISE_CHUNK``, ``BLOCK_SIZE``): each block fills
its rows in place with one call, and each step gathers its row of every
block and scales it to the increments dB in one pass.  While the group
steps one chunk, a producer thread (one per block group) draws the next
into a second buffer; the draws release the GIL, and the producer takes
it back blocks + 1 times per chunk (once to start, once after each
block's draw).  The two buffers, 2 * ``NOISE_CHUNK`` * ``BLOCK_SIZE`` * 8
bytes per block, are all the noise memory a run holds.  Jump streams
interleave Poisson counts with the normals and keep drawing inline, step
by step: a full block draws its normals in place, then the counts of
every mark come from one ``rng.random`` call (``_poisson_counts``), on
which the engine replays numpy's multiplication method for rates below
10 (a lane takes one uniform, plus one per jump) and draws the uniforms
the jumps shift past that call as its scan reaches them, so the counts
and the generator's state are bitwise those of ``rng.poisson`` called
mark by mark.  A rate of 10 or more, or more than ``_REPLAY_MAX_JUMPS`` expected
jumps per block-step, where the replay's scan costs more than numpy's
loop, falls back to those calls.

The engine steps a contiguous group of up to ``GROUP_BLOCKS`` blocks as
one lane array: each block draws from its own generator and the draws are
joined in block order, while the control, the coefficients, the delay ring,
the moving average and the accumulators run once per step over all of the
group's lanes.  Every lane-wise operation gives the same value whatever the
array width, and each lane's initial moving average is the one a full
block computes, so path i is bitwise reproducible regardless of how many
paths are requested, how blocks are grouped, or how groups are scheduled
across workers.  The cap bounds the memory of the delay ring, (m+2) values per
lane, for long delays.

A recorded run allocates each recorded quantity once for all its paths,
time-major: X, Y, A and u as (n+1, N) arrays, dB as (n, N), the jump
counts as (n, N, n_marks).  Each block group writes its lanes' slice of
one row per step, and the result hands the arrays out as (N, ...) views,
with one PathRecord per path viewing the same memory.

The step loop reads each step's (dB, counts) from one source chosen
before it starts: the chunked normals, the inline jump draws, or the
rows a saved run kept.  A run can save its engine state before chosen
steps (the delay ring and its position, A if the run carries it and a
copy of each accumulator's state, the variational process's too), and
a later run resumes from such a state in the same step loop with the
kept rows as its source, so it draws no noise: a recorded run keeps
them in its record, an unrecorded one keeps only dB and the jump counts
from its first save step on.  Under common random numbers a control
that agrees with the saved run's before the save step, such as a bump
whose window starts there, gives every path bitwise as a full run does.

``simulate_noiseless``, the reference path of a noise-free problem, is a
separate integrator, not a mode of the engine's step loop: it is Heun's
predictor-corrector, keeps the whole path instead of a ring, and its
lanes run on past non-finite values instead of raising, so a shared loop
would branch on which caller it serves.  At sigma = 0 the engine gives
the first-order (Euler) path.  Its scalar and lane forms share one body;
the shape of the states selects between them, and the scalar form is the
faster one for a single control.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial
from typing import Callable, Optional

import numpy as np

from .errors import BadWindow, GridMismatch, NonFiniteState
from .model import ProblemSpec, TimeGrid, _write_csv

BLOCK_SIZE = 1024
GROUP_BLOCKS = 8  # blocks stepped together in one loop; bounds ring memory
NOISE_CHUNK = 16  # steps of normals drawn at once without jumps; >= 2
# numpy's Poisson sampler uses its multiplication method below this rate
_POISSON_MULT_MAX = 10.0
# expected jumps per block-step above which ``_poisson_counts`` calls
# rng.poisson: the replay's scan costs more per jump than numpy's loop
_REPLAY_MAX_JUMPS = 2.0
RECORD_KEYS = ("X", "Y", "A", "u", "dB", "counts")
_WINDOW_TOL = 1e-12


# ---------------------------------------------------------------------------
# Controls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlSpec:
    """Admissible control: the rule u = rule(k, t, x, y, a) at grid step
    k, times ``scale``, plus rectangular bump perturbations
    alpha * 1_[s, s+h].  ``constant_control``, ``table_control`` and
    ``feedback_control`` build the rule.

    Values are clipped to the control interval at evaluation time.
    ``reads_average`` declares whether the rule may read the moving
    average a: in a run that carries no A, a rule declared False gets a
    stand-in that raises TypeError when read as an array.  Constant and
    table controls never read it.
    """

    rule: Callable  # u(k, t, x, y, a)
    bumps: tuple = ()  # tuple of (alpha, s, h)
    scale: float = 1.0
    reads_average: bool = True

    def raw(self, k: int, t: float, x, y, a):
        u = self.rule(k, t, x, y, a)
        if self.scale != 1.0:
            u = self.scale * u
        for alpha, s, h in self.bumps:
            if s - _WINDOW_TOL <= t <= s + h + _WINDOW_TOL:
                u = u + alpha
        return u

    def evaluate(self, spec: ProblemSpec, k: int, t: float, x, y, a):
        """The control values clipped to the control interval."""
        u = self.raw(k, t, x, y, a)
        if np.ndim(u) == 0:
            u = np.full(np.shape(x), float(u))
        lo, hi = spec.control_lo, spec.control_hi
        # fmin and fmax skip NaN lanes, which never clip, so a NaN lane
        # cannot hide an out-of-bound lane beside it
        if (np.fmin.reduce(u, axis=None, initial=np.inf) < lo
                or np.fmax.reduce(u, axis=None, initial=-np.inf) > hi):
            u = u.clip(lo, hi)
        return u


def constant_control(value: float) -> ControlSpec:
    value = float(value)
    return ControlSpec(
        lambda k, t, x, y, a: np.full_like(np.asarray(x, float), value),
        reads_average=False)


def feedback_control(fn: Callable, reads_average: bool = True) -> ControlSpec:
    """The feedback rule u = fn(t, x, y, a)."""
    return ControlSpec(
        lambda k, t, x, y, a: np.asarray(fn(t, x, y, a), float),
        reads_average=reads_average)


def table_control(values) -> ControlSpec:
    """The open-loop control u_k = values[k] on the grid; a step past the
    table's end raises GridMismatch."""
    table = np.asarray(values, float)

    def rule(k, t, x, y, a):
        if k >= len(table):
            raise GridMismatch(f"control table has {len(table)} values, "
                               f"step {k} needs {k + 1}")
        return np.full_like(np.asarray(x, float), table[k])

    return ControlSpec(rule, reads_average=False)


def scale_control(base: ControlSpec, factor: float) -> ControlSpec:
    return replace(base, scale=base.scale * float(factor))


def bump_control(base: ControlSpec, alpha: float, s: float, h: float,
                 horizon: Optional[float] = None) -> ControlSpec:
    """Add the perturbation alpha * 1_[s, s+h] to a control.

    The window must sit inside [0, horizon] when a horizon is given.
    Clipping to the control interval still happens at evaluation, so a
    bump that pushes past a bound is flattened there.
    """
    if h < 0 or s < -_WINDOW_TOL or (
            horizon is not None and s + h > horizon + _WINDOW_TOL):
        raise BadWindow(f"bump window [{s}, {s + h}] not contained in [0, {horizon}]")
    if alpha == 0.0:
        return base
    return replace(base, bumps=base.bumps + ((float(alpha), float(s), float(h)),))


def bump_start_step(grid: TimeGrid, s: float) -> int:
    """The first step a bump window starting at ``s`` acts on: the least k
    with k * dt >= s - tol, t = k * dt formed as the engine forms it and
    tested as ``ControlSpec.raw`` tests it; n when no step reaches s."""
    k = min(grid.n, max(0, int((s - _WINDOW_TOL) / grid.dt) - 1))
    while k < grid.n and k * grid.dt < s - _WINDOW_TOL:
        k += 1
    return k


# ---------------------------------------------------------------------------
# Moving average
# ---------------------------------------------------------------------------

def segment_average(segment, dt: float, rho: float):
    """Composite trapezoid value of int_{t-delta}^{t} e^{-rho (t-r)} X(r) dr
    given the segment X_{k-m}, ..., X_k (oldest first, last axis)."""
    seg = np.asarray(segment, float)
    m = seg.shape[-1] - 1
    w = np.exp(-rho * dt * np.arange(m, -1, -1.0))
    w[0] *= 0.5
    w[-1] *= 0.5
    return dt * (seg @ w)


def _average_weights(dt: float, m: int, rho: float) -> tuple:
    """Weights (decay, drop, edge, prev, new) of the one-step update of A
    over a window of m steps of size dt."""
    delta = m * dt
    ed = np.exp(-rho * dt)
    return (ed, 0.5 * dt * np.exp(-rho * (delta + dt)),
            0.5 * dt * np.exp(-rho * delta), 0.5 * dt * ed, 0.5 * dt)


def _average_step(w: tuple, A, drop, edge, prev, new):
    """A_{k+1} from A_k: ``drop`` = X_{k-m} leaves the window, ``edge`` =
    X_{k+1-m} becomes its oldest point, ``prev`` = X_k and ``new`` =
    X_{k+1}."""
    ed, c_drop, c_edge, c_prev, c_new = w
    # the sums run left to right in place on the first product: bitwise
    # the one expression, without its four temporaries (a scalar A
    # rebinds instead)
    out = ed * A
    out -= c_drop * drop
    out -= c_edge * edge
    out += c_prev * prev
    out += c_new * new
    return out


def update_moving_average(A, segment, dt: float, rho: float):
    """One-step update of the moving average.

    ``segment`` holds the m+2 values X_{k-m}, ..., X_{k+1} (oldest first,
    last axis): the old segment plus the newly computed point.  Returns
    A_{k+1} by exact exponential decay of A_k with trapezoid end
    corrections, which keeps A identical (to roundoff) with re-integrating
    the segment from scratch.  The engine runs this same recursion.
    """
    seg = np.asarray(segment, float)
    w = _average_weights(dt, seg.shape[-1] - 2, rho)
    return _average_step(w, np.asarray(A, float), seg[..., 0], seg[..., 1],
                         seg[..., -2], seg[..., -1])


# ---------------------------------------------------------------------------
# Records and accumulators
# ---------------------------------------------------------------------------

@dataclass
class PathRecord:
    """One simulated path sampled on the grid.

    State arrays have length n+1; increment arrays length n.  ``counts``
    holds per-step Poisson jump counts, one column per mark value.  A
    path of an ensemble views its lane of the ensemble's time-major
    arrays (``EnsembleResult.arrays``), so its arrays are strided and
    writing to them writes the ensemble's.
    """

    t: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    A: np.ndarray
    u: np.ndarray
    dB: np.ndarray
    counts: Optional[np.ndarray] = None

    def to_csv(self, path: str):
        _write_csv(path, ("t", "X", "Y", "A", "u"), np.column_stack(
            (self.t, self.X, self.Y, self.A, self.u)))


class StepAccumulator:
    """Per-step reduction over a block of paths.

    The engine calls ``begin`` once per block group, ``step`` for
    k = 0..n-1 with a context holding the pre-step state (x, y, a, u at
    t_k), the step's coefficients (b and sigma exactly as the callbacks
    returned them, and ``theta_marks``, theta of each mark as a
    (marks, lanes) array, None without jumps), the increments (dB, jump
    counts), the post-step state (x1, y1, a1) and ``path0``, the
    ensemble index of the group's first lane.
    ``finish`` receives the final grid point and returns an array (or
    tuple of arrays), per path unless the accumulator says otherwise; the
    engine concatenates them across groups in block order, so the
    reduction is independent of scheduling.  ``step`` and ``finish`` run
    with floating-point warnings off (``np.errstate(all="ignore")``), so a
    lane leaving a callback's domain is the accumulator's to handle.

    x, y, x1 and y1 are views of rows of the engine's delay ring (m+2
    rows), valid only during the call: a later step writes a new state
    into them.  Accumulators, like the coefficient and control callbacks,
    must not write to their array arguments, and an accumulator that keeps
    a value past the step must copy it.

    ``reads_average(spec)`` declares whether the accumulator reads a or
    a1 (True unless a subclass says otherwise).  In a run that does not
    carry the moving average, because neither the coefficients, the
    control, an accumulator nor a record reads it, a and a1 are a
    stand-in that raises TypeError when read as an array.
    """

    def reads_average(self, spec: ProblemSpec) -> bool:
        return True

    def begin(self, n_lanes: int, spec: ProblemSpec, grid: TimeGrid):
        raise NotImplementedError

    def step(self, state, k: int, ctx: dict):
        raise NotImplementedError

    def finish(self, state, ctx: dict):
        raise NotImplementedError

    def copy_state(self, state):
        """A copy of ``state`` that stepping leaves the original unchanged,
        kept in a saved engine state and handed to each run resumed from
        it.  The default copies the array values of a dict state."""
        return {key: v.copy() if isinstance(v, np.ndarray) else v
                for key, v in state.items()}


def stack_records(records, keys) -> dict:
    """The named PathRecord fields of a list of records stacked into
    arrays with a leading path axis; a field the records leave None maps
    to None.  Each is laid out as ``EnsembleResult.arrays`` lays it out,
    the transposed view of a time-major array, so a node's values over
    the paths are contiguous.  This copies: a fresh ensemble's ``arrays``
    already hold the same values without one."""
    return {key: None if getattr(records[0], key) is None
            else np.stack([getattr(rec, key) for rec in records],
                          axis=1).swapaxes(0, 1)
            for key in keys}


@dataclass(frozen=True, eq=False)
class EngineState:
    """An ensemble's engine state before step ``step``.

    ``groups`` holds one dict per block group: the delay ring and its
    position (X and Y are ring entries), A (None in a run that does not
    carry it), a copy of each accumulator's state, under ``rec`` the
    group's lane slices of the ensemble's
    time-major record arrays (None for an unrecorded run), and under
    ``kept`` the lane slices of the rows of dB and the jump counts a run
    resumed from this state reads, the first of them for step ``kept0``
    (views, not copies).  The other fields name
    the run a resume must match."""

    step: int
    spec: ProblemSpec
    grid: TimeGrid
    n_paths: int
    seed: int
    per_group: int  # blocks per group
    accumulators: tuple  # accumulator classes
    groups: tuple


@dataclass
class EnsembleResult:
    """What ``simulate_ensemble`` returns.

    A recorded run's ``arrays`` maps X, Y, A and u to (N, n+1) arrays, dB
    to (N, n) and counts to (N, n, n_marks); each is the transposed view
    of one time-major array the engine wrote, and counts map to None
    without jumps.  ``records`` is the same memory as one PathRecord
    per path, built when first read.  Unrecorded runs leave both None.
    """

    arrays: Optional[dict]
    extras: list  # one entry per accumulator: concatenated per-path arrays
    n_paths: int
    states: dict = field(default_factory=dict)  # step -> EngineState
    grid: Optional[TimeGrid] = None

    @cached_property
    def records(self) -> Optional[list]:
        if self.arrays is None:
            return None
        t = self.grid.times
        return [_path_record(t, self.arrays, i) for i in range(self.n_paths)]


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + block))


def lane_values(v, shape: tuple):
    """A callback's value as a float array of the lanes' shape, broadcast
    only when the callback did not return one."""
    v = np.asarray(v, float)
    return v if v.shape == shape else np.broadcast_to(v, shape)


def _normal_chunk(rngs, out):
    """Fill ``out``, one (steps, ``BLOCK_SIZE``) array per block, with the
    normals of the next steps, and return it.

    Each block draws its rows in place in one full-width call, bitwise
    the same normals as that many consecutive per-step draws of its
    stream."""
    for rng, rows in zip(rngs, out):
        rng.standard_normal(out=rows)
    return out


def _poisson_counts(rng, rates, width: int):
    """The Poisson counts of one block-step, a (width, marks) array:
    bitwise ``rng.poisson(lam, width)`` mark by mark, and ``rng`` is left
    in the state those calls leave it in.

    numpy draws a count with 0 < lam < 10 by its multiplication method:
    it multiplies uniforms (``next_double``, as ``rng.random`` draws them)
    until the product is <= exp(-lam), one uniform per jump plus one, and
    draws nothing at lam = 0.  This replays that on one ``rng.random``
    call covering one uniform per lane of every mark with a positive
    rate: a lane without a jump takes exactly its own uniform, a jumping
    lane also takes the ones after it, which shifts every later lane, and
    the uniforms this shift pushes past the first call are drawn when the
    scan reaches them, never more than the counts use.  With a rate of
    10 or more, or more expected jumps per block-step than
    ``_REPLAY_MAX_JUMPS``, it calls ``rng.poisson`` instead."""
    counts = np.zeros((width, len(rates)), dtype=np.int64)
    live = _replay_marks(tuple(rates), width)
    if live is None:
        for j, lam in enumerate(rates):
            counts[:, j] = rng.poisson(lam, width)
        return counts
    if not live:
        return counts
    u = rng.random(len(live) * width)
    # a lane jumps iff its first uniform exceeds exp(-lam): none above the
    # least threshold means no lane of any mark jumps
    if not np.maximum.reduce(u) > min(enl for _, enl in live):
        return counts
    pos = 0  # the next uniform
    for j, enl in live:
        lane = 0
        while lane < width:
            short = pos + width - lane - len(u)
            if short > 0:
                u = np.concatenate((u, rng.random(short)))
            seg = u[pos:pos + width - lane]
            i = int((seg > enl).argmax())
            if not seg[i] > enl:  # no more jumps on this mark
                pos += width - lane
                break
            lane += i
            pos += i
            prod, c = float(u[pos]), 0
            while prod > enl:
                c += 1
                pos += 1
                if pos == len(u):  # at least this mark's lanes remain
                    u = np.concatenate((u, rng.random(width - lane)))
                prod *= float(u[pos])
            counts[lane, j] = c
            pos += 1
            lane += 1
    return counts


@lru_cache(maxsize=16)
def _replay_marks(rates: tuple, width: int):
    """(mark, exp(-rate)) of each mark with a positive rate, in order, for
    ``_poisson_counts`` to replay; None where it calls rng.poisson."""
    if (max(rates, default=0.0) >= _POISSON_MULT_MAX
            or width * sum(rates) > _REPLAY_MAX_JUMPS):
        return None
    return tuple((j, math.exp(-lam)) for j, lam in enumerate(rates) if lam > 0)


def _jump_term(counts, th):
    """sum over marks j of counts[:, j] * th[j], bitwise
    ``np.einsum("ij,ji->i", counts, th)``: its sum starts at +0.0 and adds
    the marks in order."""
    out = np.zeros(len(counts))
    for j, th_j in enumerate(th):
        out += counts[:, j] * th_j
    return out


def _chunked_normals(rngs, n_lanes: int, n: int, sqdt: float):
    """(dB, None) of steps 0, ..., n-1 without jumps, drawn in chunks of
    ``NOISE_CHUNK`` steps into two block-major buffers: the first chunk
    here, each later one on the producer thread, into the buffer no step
    reads any more, while the chunk before it is stepped.  The thread
    starts at the first submit, and closing the generator joins it."""
    bufs = np.empty((min(2, -(-n // NOISE_CHUNK)), len(rngs),
                     min(NOISE_CHUNK, n), BLOCK_SIZE))
    with ThreadPoolExecutor(max_workers=1) as producer:
        for k in range(0, n, NOISE_CHUNK):
            chunk = ahead.result() if k else _normal_chunk(rngs, bufs[0])
            k_next = k + NOISE_CHUNK
            if k_next < n:
                ahead = producer.submit(
                    _normal_chunk, rngs,
                    bufs[k_next // NOISE_CHUNK % 2][:, :n - k_next])
            for rows in chunk.swapaxes(0, 1):
                yield np.multiply(sqdt, rows).reshape(-1)[:n_lanes], None


def _jump_increments(rngs, n_lanes: int, rates: tuple, sqdt: float):
    """(dB, counts) of each step with jumps, drawn inline and without end:
    per block, full-width normals, then the Poisson counts of every mark;
    full-width draws keep each stream independent of the lane count."""
    z = np.empty(n_lanes)
    lanes = [slice(lo, min(lo + BLOCK_SIZE, n_lanes))
             for lo in range(0, n_lanes, BLOCK_SIZE)]
    while True:
        counts = np.empty((n_lanes, len(rates)), dtype=np.int64)
        for rng, sl in zip(rngs, lanes):
            w = sl.stop - sl.start
            if w == BLOCK_SIZE:
                rng.standard_normal(out=z[sl])
            else:
                z[sl] = rng.standard_normal(BLOCK_SIZE)[:w]
            counts[sl] = _poisson_counts(rng, rates, BLOCK_SIZE)[:w]
        yield sqdt * z, counts


def _kept_rows(kept: dict, start: int):
    """(dB, counts) of the rows a saved run kept, from row ``start`` on,
    read in place; counts are None without jumps."""
    dB, counts = kept["dB"], kept["counts"]
    for i in range(start, len(dB)):
        yield dB[i], None if counts is None else counts[i]


def _all_finite(values) -> bool:
    """Whether every lane is finite: one sum, which is finite only then,
    and the lane scan only when it is not (finite lanes can overflow it)."""
    return (math.isfinite(np.add.reduce(values))
            or bool(np.isfinite(values).all()))


def _nonfinite(what: str, values, k: int, t: float, first: int):
    """NonFiniteState naming the first bad lane of a block group by its
    block and its lane inside that block."""
    bad = int(np.argmin(np.isfinite(values)))
    block, lane = first + bad // BLOCK_SIZE, bad % BLOCK_SIZE
    return NonFiniteState(
        f"{what} at step {k + 1} (t={t:.6g}, block {block}, lane {lane})",
        step=k + 1, block=block, lane=lane)


class _NoAverage:
    """The moving average of a run that does not carry it, as the run
    hands it to its callbacks and accumulators for a and a1."""

    __slots__ = ()

    def __array__(self, dtype=None, copy=None):
        raise TypeError("a callback declared A-free read the moving "
                        "average a; declare it as reading A")


_NO_AVERAGE = _NoAverage()


def _carries_average(spec, control, accumulators, record: bool) -> bool:
    """Whether a run carries the moving average A: a record keeps it, and
    otherwise it is carried when the drift, the diffusion, the jump
    amplitude (with jumps), the control or an accumulator may read it."""
    names = ("b", "sigma") + (("theta",) if spec.has_jumps else ())
    return (record or control.reads_average
            or any(spec.coeffs.reads(name, "a") for name in names)
            or any(acc.reads_average(spec) for acc in accumulators))


def _run_blocks(spec: ProblemSpec, grid: TimeGrid, control: ControlSpec,
                seed: int, first: int, n_lanes: int,
                accumulators, rec: Optional[dict], save_at=frozenset(),
                resume: Optional[dict] = None, kept: Optional[dict] = None):
    """Simulate blocks first, first+1, ... as one array of ``n_lanes``
    lanes, every block full but the last.

    Each block draws from its own generator exactly what it would draw
    alone, and the draws are joined in block order; everything else runs
    once per step over all lanes.  ``rec``, when given, maps each
    recorded quantity to the group's lane slice of its time-major array
    (``_record_arrays``), which the run fills one row per step.  Returns
    (extras, saved): ``saved`` maps each step of ``save_at`` to the
    group's state before that step.  An unrecorded run that saves writes
    dB and the jump counts of each step from the first save step on into
    ``kept``, the group's lane slices of ``_increment_arrays``.  With
    ``resume``, such a saved state, the run starts at its step and its
    source of increments is the rows kept by the saved run.  A run that
    does not carry A (``_carries_average``) skips its recursion and hands
    out ``_NO_AVERAGE`` in its place.
    """
    dt, m, n = grid.dt, grid.m, grid.n
    rho = spec.rho
    nb = n_lanes
    carry = _carries_average(spec, control, accumulators, rec is not None)
    n_blocks = -(-nb // BLOCK_SIZE)
    jump = spec.jump
    has_jumps = spec.has_jumps
    mark_values = jump.marks.values if has_jumps else ()
    mark_probs = jump.marks.probs if has_jumps else None
    path0 = first * BLOCK_SIZE
    sqdt = np.sqrt(dt)

    if resume is None:
        k0 = 0
        hist = spec.validate_segment(grid)  # m+1 values on [-delta, 0]
        # A_0 as a full block computes it, lane by lane, so a lane's start
        # does not depend on how many lanes its block holds
        A = (np.tile(segment_average(np.tile(hist, (BLOCK_SIZE, 1)), dt, rho),
                     n_blocks)[:nb] if carry else _NO_AVERAGE)
        # ring[pos] holds X_k and ring[pos + 2] Y_k = X_{k-m} (rows mod
        # m+2); X_{k+1} goes to the row between them, which no step reads
        ring = np.empty((m + 2, nb))
        ring[:m + 1] = hist[:, None]
        pos = m
        states = [acc.begin(nb, spec, grid) for acc in accumulators]
        rngs = [_block_rng(seed, first + j) for j in range(n_blocks)]
        if has_jumps:
            rates = tuple(jump.intensity * pz * dt for pz in mark_probs)
            source = _jump_increments(rngs, nb, rates, sqdt)
        else:
            source = _chunked_normals(rngs, nb, n, sqdt)
    else:
        k0, pos = resume["k"], resume["pos"]
        if carry and resume["A"] is None:
            raise ValueError("this run reads A; the saved state has none")
        ring = resume["ring"].copy()
        A = resume["A"].copy() if carry else _NO_AVERAGE
        states = [acc.copy_state(st)
                  for acc, st in zip(accumulators, resume["acc"])]
        source = _kept_rows(resume["kept"], k0 - resume["kept0"])
    X, Y = ring[pos], ring[(pos + 2) % (m + 2)]

    w_avg = _average_weights(dt, m, rho)

    record = rec is not None
    if record:
        rec_X, rec_Y, rec_A, rec_u = (rec[key] for key in ("X", "Y", "A", "u"))
        rec_X[0], rec_Y[0], rec_A[0] = X, Y, A
        if resume is not None:
            # the saved run's record up to the resume step
            for key, v in rec.items():
                if v is not None:
                    v[:k0 + 1] = resume["rec"][key][:k0 + 1]
        kept = rec  # a recorded run keeps every step's increments
    kept0 = min(save_at) if kept is not None and not record else 0
    if kept is not None:
        kept_dB, kept_counts = kept["dB"], kept["counts"]

    saved = {}
    # one errstate for every callback and accumulator the run calls: a
    # lane's non-finite value is the engine's to report (NonFiniteState)
    # or the accumulator's to handle, never a warning.  The source is
    # closed on every exit, which joins a producer thread
    with np.errstate(all="ignore"), closing(source):
        for k, (dB, counts) in zip(range(k0, n), source):
            if k in save_at:
                saved[k] = _snapshot(k, pos, ring, A, rec, kept, kept0,
                                     accumulators, states)
            t = k * dt
            u = control.evaluate(spec, k, t, X, Y, A)
            if record:
                rec_u[k] = u

            b_raw = spec.coeffs.b(t, X, Y, A, u)
            s_raw = spec.coeffs.sigma(t, X, Y, A, u)
            bval = lane_values(b_raw, X.shape)
            sval = lane_values(s_raw, X.shape)

            # X_{k+1} = X + drift + sigma dB (+ jumps), summed in its ring
            # row: drift + X is X + drift bitwise
            pos = (pos + 1) % (m + 2)
            X_new = np.multiply(bval, dt, out=ring[pos])
            th = None
            if has_jumps:
                th = np.empty((len(mark_values), nb))
                for j, zv in enumerate(mark_values):
                    th[j] = spec.coeffs.theta(t, X, Y, A, u, zv)
                # compensator: subtract intensity * E[theta] dt from the drift
                X_new -= jump.intensity * (mark_probs @ th) * dt
            X_new += X
            X_new += sval * dB
            if has_jumps:
                X_new += _jump_term(counts, th)
            if not _all_finite(X_new):
                raise _nonfinite("state became non-finite", X_new, k, t + dt,
                                 first)

            Y_new = ring[(pos + 2) % (m + 2)]  # X_{k+1-m}
            A_new = (_average_step(w_avg, A, Y, Y_new, X, X_new) if carry
                     else A)

            ctx = {"k": k, "t": t, "t1": t + dt, "x": X, "y": Y, "a": A, "u": u,
                   "b": b_raw, "sigma": s_raw, "theta_marks": th,
                   "dB": dB, "counts": counts,
                   "x1": X_new, "y1": Y_new, "a1": A_new, "path0": path0}
            for acc, st in zip(accumulators, states):
                acc.step(st, k, ctx)

            X, Y, A = X_new, Y_new, A_new
            if record:
                rec_X[k + 1] = X
                rec_Y[k + 1] = Y
                rec_A[k + 1] = A
            if kept is not None and k >= kept0:
                kept_dB[k - kept0] = dB
                if kept_counts is not None:
                    kept_counts[k - kept0] = counts

        if n in save_at:
            saved[n] = _snapshot(n, pos, ring, A, rec, kept, kept0,
                                 accumulators, states)
        t_final = n * dt
        u_final = control.evaluate(spec, n, t_final, X, Y, A)
        ctx_final = {"k": n, "t": t_final, "x": X, "y": Y, "a": A,
                     "u": u_final, "path0": path0}
        extras = [acc.finish(st, ctx_final)
                  for acc, st in zip(accumulators, states)]
    if record:
        rec_u[n] = u_final
    return extras, saved


def _snapshot(k, pos, ring, A, rec, kept, kept0, accumulators,
              states) -> dict:
    """A block group's state before step k, copied where stepping on
    would change it."""
    return {"k": k, "pos": pos, "ring": ring.copy(),
            "A": None if A is _NO_AVERAGE else A.copy(), "rec": rec,
            "kept": kept, "kept0": kept0,
            "acc": [acc.copy_state(st) for acc, st in zip(accumulators, states)]}


def _record_arrays(spec: ProblemSpec, grid: TimeGrid, n_lanes: int) -> dict:
    """One time-major array per recorded quantity of ``n_lanes`` paths
    (None for counts without jumps)."""
    n = grid.n
    arrays = {key: np.empty((n + 1, n_lanes)) for key in ("X", "Y", "A", "u")}
    arrays.update(_increment_arrays(spec, n, n_lanes))
    return arrays


def _increment_arrays(spec: ProblemSpec, steps: int, n_lanes: int) -> dict:
    """Time-major dB and jump counts (None without jumps) of ``steps``
    steps of ``n_lanes`` paths."""
    return {"dB": np.empty((steps, n_lanes)),
            "counts": (np.empty((steps, n_lanes, spec.jump.n_marks),
                                dtype=np.int64)
                       if spec.has_jumps else None)}


def _path_major(arrays: dict) -> dict:
    """The (N, ...) views of time-major record arrays."""
    return {key: None if v is None else v.swapaxes(0, 1)
            for key, v in arrays.items()}


def _path_record(t, arrays: dict, i: int) -> PathRecord:
    """The PathRecord viewing path i of path-major record arrays."""
    counts = arrays["counts"]
    return PathRecord(t=t, X=arrays["X"][i], Y=arrays["Y"][i],
                      A=arrays["A"][i], u=arrays["u"][i], dB=arrays["dB"][i],
                      counts=None if counts is None else counts[i])


def _merge_extras(per_group: list, accumulators) -> list:
    merged = []
    for i, _acc in enumerate(accumulators):
        parts = [grp[i] for grp in per_group]
        if len(parts) == 1:
            merged.append(parts[0])  # one group's output, already whole
        elif parts and isinstance(parts[0], tuple):
            merged.append(tuple(np.concatenate([p[j] for p in parts])
                                for j in range(len(parts[0]))))
        else:
            merged.append(np.concatenate(parts) if parts else np.array([]))
    return merged


def simulate_ensemble(spec: ProblemSpec, grid: TimeGrid, control: ControlSpec,
                      n_paths: int, seed: int, *, accumulators=(),
                      record: bool = False, threads: int = 1, save_at=(),
                      resume: Optional[EngineState] = None) -> EnsembleResult:
    """Simulate ``n_paths`` (at least one) paths in counter-seeded blocks.

    ``accumulators`` is a sequence of StepAccumulator instances, shared by
    all groups; each group keeps its own state from begin().
    Blocks are stepped in contiguous groups of up to ``GROUP_BLOCKS``;
    ``threads`` counts the workers that step groups, and without jumps
    each group also has one noise producer thread drawing normals
    ``NOISE_CHUNK`` steps ahead.  Results are bitwise independent of
    ``threads`` and of the grouping.

    With ``record`` each recorded quantity is one time-major array for
    all paths, which every group fills in place; the result's ``arrays``
    are (N, ...) views of them and its ``records`` view them path by
    path, so neither copies.

    Save and resume: a run saves its engine state before each step k of
    ``save_at`` (0 <= k <= n; k = n is the final point) into
    ``states[k]`` of the result.  A run given ``resume=`` such a state
    starts at its step in the same step loop, with the same spec, grid,
    ``n_paths``, seed, block grouping and accumulator classes, and a
    control that agrees with the saved run's before that step.  A resume
    checks the accumulators' classes only, so their parameters (such as
    a VariationalAccumulator's beta) must agree with the saved run's
    before the save step, as the control must.  Its source of dB and the
    jump counts is the rows kept by the saved run, so it repeats no
    earlier step, draws no noise and starts no producer thread, and
    every result, the record included, is bitwise that of the full run,
    as far as each accumulator's ``copy_state`` carries what it
    accumulated before the save step.  A recorded run keeps
    these rows in its record; an unrecorded one keeps only them, from
    its first save step on, about 8 (n - min(save_at)) bytes per path
    without jumps.  A recorded run resumes only from a recorded one,
    whose record it copies up to the resume step.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")
    n_blocks = (n_paths + BLOCK_SIZE - 1) // BLOCK_SIZE
    # contiguous groups of at most GROUP_BLOCKS blocks, enough of them to
    # give every worker one
    per_group = min(GROUP_BLOCKS, max(1, -(-n_blocks // max(1, threads))))
    firsts = range(0, n_blocks, per_group)
    kinds = tuple(type(acc) for acc in accumulators)
    save_at = frozenset(int(k) for k in save_at)
    if not all(0 <= k <= grid.n for k in save_at):
        raise ValueError(f"saving needs steps in [0, {grid.n}]")
    if resume is not None and (
            save_at or resume.spec is not spec or resume.grid != grid
            or (resume.n_paths, resume.seed, resume.per_group,
                resume.accumulators) != (n_paths, seed, per_group, kinds)):
        raise ValueError("a run resumes only the spec, grid, n_paths, seed, "
                         "block grouping and accumulators it was saved "
                         "from, without save_at")
    if record and resume is not None and any(
            grp["rec"] is None for grp in resume.groups):
        raise ValueError("a recorded run resumes only from a recorded one: "
                         "an unrecorded save keeps no record to copy")

    arrays = kept = None
    if record:
        arrays = _record_arrays(spec, grid, n_paths)
    elif save_at:
        kept = _increment_arrays(spec, grid.n - min(save_at), n_paths)

    def lane_slices(time_major, lo, lanes):
        return None if time_major is None else {
            key: None if v is None else v[:, lo:lo + lanes]
            for key, v in time_major.items()}

    def work(i, first):
        lo = first * BLOCK_SIZE
        lanes = min(per_group * BLOCK_SIZE, n_paths - lo)
        return _run_blocks(spec, grid, control, seed, first, lanes,
                           accumulators, lane_slices(arrays, lo, lanes),
                           save_at,
                           None if resume is None else resume.groups[i],
                           lane_slices(kept, lo, lanes))

    if threads > 1 and len(firsts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, range(len(firsts)), firsts))
    else:
        results = [work(i, f) for i, f in enumerate(firsts)]

    extras = _merge_extras([grp[0] for grp in results], accumulators)
    states = {k: EngineState(k, spec, grid, n_paths, seed, per_group, kinds,
                             tuple(grp[1][k] for grp in results))
              for k in sorted(save_at)}
    return EnsembleResult(
        arrays=None if arrays is None else _path_major(arrays),
        extras=extras, n_paths=n_paths, states=states, grid=grid)


def simulate_path(spec: ProblemSpec, grid: TimeGrid, control: ControlSpec,
                  noise) -> PathRecord:
    """Simulate the single path identified by noise = (seed, path_index).

    The containing block is simulated in full so the returned record is
    bitwise identical to the same path inside any larger ensemble.
    """
    seed, path_index = noise
    block, lane = divmod(int(path_index), BLOCK_SIZE)
    arrays = _record_arrays(spec, grid, lane + 1)
    _run_blocks(spec, grid, control, seed, block, lane + 1, (), arrays)
    return _path_record(grid.times, _path_major(arrays), lane)


def simulate_noiseless(spec: ProblemSpec, grid: TimeGrid,
                       control: ControlSpec,
                       lanes: Optional[int] = None) -> PathRecord:
    """Integrate the noise-free reduction dX = b dt (sigma and jumps off).

    The drift is integrated by Heun's predictor-corrector rule, second
    order in dt; the predictor's moving average and the step's own use
    the engine's recursion.  The path is kept whole as the initial
    segment followed by X_1, ..., X_n, so Y_k = X_{k-m} is read from it
    and the returned X and Y are views of it.  Intended for problems
    whose reference dynamics are deterministic (sigma = 0, no jumps),
    where it replaces a full Monte Carlo block at a fraction of the cost.

    With ``lanes`` = L the control is evaluated on arrays of L states (a
    rule vectorised over a lane axis, such as one multiplier per lane)
    and every record array gains a leading lane axis.  Lane i is bitwise
    the scalar run of the rule it sees, except that a lane whose state
    goes non-finite runs on with
    non-finite values instead of raising NonFiniteState (floating-point
    warnings are off in this mode).
    """
    if spec.has_jumps:
        raise ValueError("noiseless simulation requires no jump component")
    if lanes is not None:
        with np.errstate(all="ignore"):
            return _noiseless(spec, grid, control, (int(lanes),))
    return _noiseless(spec, grid, control, ())


def _noiseless(spec: ProblemSpec, grid: TimeGrid, control: ControlSpec,
               shape: tuple) -> PathRecord:
    """simulate_noiseless on states of the given shape: () is one scalar
    path, (L,) a lane array."""
    dt, m, n = grid.dt, grid.m, grid.n
    w_avg = _average_weights(dt, m, spec.rho)
    hist = spec.validate_segment(grid)
    path = np.empty((m + 1 + n,) + shape)  # Y_k = path[k], X_k = path[k + m]
    path[: m + 1] = hist.reshape((m + 1,) + (1,) * len(shape))
    As = np.empty((n + 1,) + shape)
    us = np.empty((n + 1,) + shape)
    As[0] = segment_average(hist, dt, spec.rho)
    value = partial(lane_values, shape=shape) if shape else float
    b = spec.coeffs.b
    for k in range(n):
        t = k * dt
        X, Y, A = path[k + m], path[k], As[k]
        Y1 = path[k + 1]  # X_{k+1-m}
        u = value(control.evaluate(spec, k, t, X, Y, A))
        us[k] = u
        g0 = value(b(t, X, Y, A, u))
        X_star = X + dt * g0
        A_star = _average_step(w_avg, A, Y, Y1, X, X_star)
        u1 = value(control.evaluate(spec, k + 1, t + dt, X_star, Y1, A_star))
        g1 = value(b(t + dt, X_star, Y1, A_star, u1))
        X_new = X + 0.5 * dt * (g0 + g1)
        if not shape and not np.isfinite(X_new):
            raise NonFiniteState(
                f"state became non-finite at step {k + 1}", step=k + 1)
        path[k + 1 + m] = X_new
        As[k + 1] = _average_step(w_avg, A, Y, Y1, X, X_new)
    us[n] = value(control.evaluate(spec, n, n * dt, path[n + m], path[n],
                                   As[n]))
    return PathRecord(t=grid.times, X=path[m:].T, Y=path[: n + 1].T, A=As.T,
                      u=us.T, dB=np.zeros(shape + (n,)))




# ---------------------------------------------------------------------------
# Variational process
# ---------------------------------------------------------------------------

class VariationalAccumulator(StepAccumulator):
    """The variational process xi of the perturbation ``beta``: the state
    equation linearized along u + s beta on the engine's grid and noise,
        dxi = (b_x xi + b_y xi(t - delta) + b_a Lam + b_u beta) dt
              + (the same in sigma) dB + (the same in theta) dN~,
    from xi = 0 on the initial segment, Lam its moving average by A's
    recursion.  ``finish`` returns xi at the n+1 grid nodes, (N, n+1); a
    non-finite lane raises NonFiniteState with its step, block and lane."""

    def __init__(self, beta: ControlSpec):
        self.beta = beta

    def begin(self, n_lanes, spec, grid):
        st = self._variation(n_lanes, spec, grid)
        st["path"] = np.zeros((grid.n + 1, n_lanes))
        return st

    def step(self, st, k, ctx):
        self._advance(st, k, ctx, self._beta(k, ctx))
        st["path"][k + 1] = st["xi"]

    def finish(self, st, ctx):
        return st["path"].T

    @staticmethod
    def _variation(n_lanes, spec, grid) -> dict:
        """xi, its lag and Lam at t = 0; the partials of b, sigma, theta."""
        names = ("b", "sigma") + (("theta",) if spec.has_jumps else ())
        return {"spec": spec, "dt": grid.dt,
                "w_avg": _average_weights(grid.dt, grid.m, spec.rho),
                "partials": {name: tuple(spec.coeffs.partial(name, v)
                                         for v in "xyau") for name in names},
                "xi": np.zeros(n_lanes), "lag": np.zeros(n_lanes),
                "Lam": np.zeros(n_lanes),
                "ring": np.zeros((grid.m + 2, n_lanes))}

    def _beta(self, k, ctx):
        x = ctx["x"]
        return lane_values(self.beta.raw(k, ctx["t"], x, ctx["y"], ctx["a"]),
                           x.shape)

    @staticmethod
    def _advance(st, k, ctx, beta):
        """Step xi, its lag and Lam from t_k to t_{k+1}."""
        spec, dt, P = st["spec"], st["dt"], st["partials"]
        t, x, y, a, u = (ctx[key] for key in ("t", "x", "y", "a", "u"))
        xi, lag, Lam = st["xi"], st["lag"], st["Lam"]

        def lin(name, *mark):
            px, py, pa, pu = P[name]
            return (px(t, x, y, a, u, *mark) * xi
                    + py(t, x, y, a, u, *mark) * lag
                    + pa(t, x, y, a, u, *mark) * Lam
                    + pu(t, x, y, a, u, *mark) * beta)

        dxi = lin("b") * dt + lin("sigma") * ctx["dB"]
        if "theta" in P:
            jump = spec.jump
            dth = np.stack([lin("theta", zv) for zv in jump.marks.values],
                           axis=0)
            dxi += (_jump_term(ctx["counts"], dth)
                    - jump.intensity * (jump.marks.probs @ dth) * dt)
        # a ring of m+2 rows as the engine's: xi_j sits in row j mod (m+2),
        # so xi_{k+1} is summed into a row neither lag nor lag_new is in
        ring = st["ring"]
        xi_new = np.add(xi, dxi, out=ring[(k + 1) % len(ring)])
        if not _all_finite(xi_new):
            raise _nonfinite("variational process non-finite", xi_new, k,
                             ctx["t1"], ctx["path0"] // BLOCK_SIZE)
        lag_new = ring[(k + 3) % len(ring)]  # xi_{k+1-m}
        st["Lam"] = _average_step(st["w_avg"], Lam, lag, lag_new, xi, xi_new)
        st["xi"], st["lag"] = xi_new, lag_new


def simulate_variational(spec: ProblemSpec, grid: TimeGrid,
                         control: ControlSpec, beta: ControlSpec,
                         noise) -> np.ndarray:
    """The variational process xi along one path (same noise contract as
    simulate_path); xi vanishes on the initial segment by construction."""
    seed, path_index = noise
    block, lane = divmod(int(path_index), BLOCK_SIZE)
    (xi,), _ = _run_blocks(spec, grid, control, seed, block, lane + 1,
                           (VariationalAccumulator(beta),), None)
    return xi[lane]
