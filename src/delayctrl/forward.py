"""Forward simulation of the controlled delayed state and its variational
(first-order sensitivity) process.

The state follows
    dX = b dt + sigma dB + compensated jumps,
with the lag Y(t) = X(t - delta) and the moving average
A(t) = int_{t-delta}^t e^{-rho (t-r)} X(r) dr carried along each path.

Euler discretization with left-point coefficients.  The segment X_t is a
ring buffer of m+1 grid values, so Y_k = X_{k-m} holds bitwise.  A is
advanced by an exact one-step trapezoid recursion (see
``update_moving_average``), making A_k equal to the composite trapezoid
rule over the current segment up to roundoff.

Randomness is counter-based (Philox).  Paths are organized in blocks of
``BLOCK_SIZE`` lanes; block j of seed s uses the generator key
s * 2^64 + j and always draws full-width variates before slicing.  At each
step a block draws its normals, then its Poisson counts mark by mark.

The engine steps a contiguous group of up to ``GROUP_BLOCKS`` blocks as
one lane array: each block draws from its own generator and the draws are
joined in block order, while the control, the coefficients, the delay ring,
the moving average and the accumulators run once per step over all of the
group's lanes.  Every lane-wise operation gives the same value whatever the
array width, and each lane's initial moving average is the one a full
block computes, so path i is bitwise reproducible regardless of how many
paths are requested, how blocks are grouped, or how groups are scheduled
across workers.  The cap bounds the memory of the delay ring, (m+1) values per
lane, for long delays.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import BadWindow, NonFiniteState
from .model import ProblemSpec, TimeGrid

BLOCK_SIZE = 1024
GROUP_BLOCKS = 8  # blocks stepped together in one loop; bounds ring memory
_WINDOW_TOL = 1e-12


# ---------------------------------------------------------------------------
# Controls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlSpec:
    """Admissible control: feedback rule, open-loop table, or constant,
    optionally plus rectangular bump perturbations alpha * 1_[s, s+h].

    Values are clipped to the control interval at evaluation time.
    """

    kind: str  # "feedback" | "table" | "constant"
    feedback: Optional[Callable] = None  # u(t, x, y, a)
    table: Optional[np.ndarray] = None  # u_k on the grid, length n+1
    value: float = 0.0
    bumps: tuple = ()  # tuple of (alpha, s, h)
    scale: float = 1.0

    def raw(self, k: int, t: float, x, y, a):
        if self.kind == "feedback":
            u = self.scale * np.asarray(self.feedback(t, x, y, a), float)
        elif self.kind == "table":
            u = np.full_like(np.asarray(x, float), self.scale * self.table[k])
        elif self.kind == "constant":
            u = np.full_like(np.asarray(x, float), self.scale * self.value)
        else:
            raise ValueError(f"unknown control kind {self.kind!r}")
        for alpha, s, h in self.bumps:
            if s - _WINDOW_TOL <= t <= s + h + _WINDOW_TOL:
                u = u + alpha
        return u

    def evaluate(self, spec: ProblemSpec, k: int, t: float, x, y, a,
                 starts=None):
        """Clipped control values plus a flag set when clipping occurred.

        With ``starts``, the first lane of each block of ``x``, the flag is
        a boolean array holding one entry per block.
        """
        u = self.raw(k, t, x, y, a)
        if np.ndim(u) == 0:
            u = np.full(np.shape(x), float(u))
        lo, hi = spec.control_lo, spec.control_hi
        outside = (u < lo) | (u > hi)
        if outside.any():
            u = np.clip(u, lo, hi)
        if starts is None:
            return u, bool(outside.any())
        return u, np.logical_or.reduceat(outside, starts)


def constant_control(value: float) -> ControlSpec:
    return ControlSpec(kind="constant", value=float(value))


def feedback_control(fn: Callable) -> ControlSpec:
    return ControlSpec(kind="feedback", feedback=fn)


def table_control(values) -> ControlSpec:
    return ControlSpec(kind="table", table=np.asarray(values, float))


def scale_control(base: ControlSpec, factor: float) -> ControlSpec:
    return replace(base, scale=base.scale * float(factor))


def bump_control(base: ControlSpec, alpha: float, s: float, h: float,
                 horizon: Optional[float] = None) -> ControlSpec:
    """Add the perturbation alpha * 1_[s, s+h] to a control.

    The window must sit inside [0, horizon] when a horizon is given.
    Clipping to the control interval still happens at evaluation, so a
    bump that pushes past a bound is flattened there; callers that care
    inspect the clipped flag on the simulation result.
    """
    if h < 0 or s < -_WINDOW_TOL or (
            horizon is not None and s + h > horizon + _WINDOW_TOL):
        raise BadWindow(f"bump window [{s}, {s + h}] not contained in [0, {horizon}]")
    if alpha == 0.0:
        return base
    return replace(base, bumps=base.bumps + ((float(alpha), float(s), float(h)),))


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


def update_moving_average(A, segment, dt: float, rho: float):
    """One-step update of the moving average.

    ``segment`` holds the m+2 values X_{k-m}, ..., X_{k+1} (oldest first,
    last axis): the old segment plus the newly computed point.  Returns
    A_{k+1} by exact exponential decay of A_k with trapezoid end
    corrections, which keeps A identical (to roundoff) with re-integrating
    the segment from scratch.
    """
    seg = np.asarray(segment, float)
    m = seg.shape[-1] - 2
    delta = m * dt
    ed = np.exp(-rho * dt)
    return (ed * np.asarray(A, float)
            - 0.5 * dt * np.exp(-rho * (delta + dt)) * seg[..., 0]
            - 0.5 * dt * np.exp(-rho * delta) * seg[..., 1]
            + 0.5 * dt * ed * seg[..., -2]
            + 0.5 * dt * seg[..., -1])


# ---------------------------------------------------------------------------
# Records and accumulators
# ---------------------------------------------------------------------------

@dataclass
class PathRecord:
    """One simulated path sampled on the grid.

    State arrays have length n+1; increment arrays length n.  ``counts``
    holds per-step Poisson jump counts, one column per mark value.
    """

    t: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    A: np.ndarray
    u: np.ndarray
    dB: np.ndarray
    counts: Optional[np.ndarray] = None
    xi: Optional[np.ndarray] = None
    clipped: bool = False

    def to_csv(self, path: str):
        with open(path, "w") as fh:
            fh.write("t,X,Y,A,u\n")
            for k in range(len(self.t)):
                fh.write(",".join(
                    format(v, ".17g")
                    for v in (self.t[k], self.X[k], self.Y[k], self.A[k], self.u[k])
                ) + "\n")


class StepAccumulator:
    """Per-step reduction over a block of paths.

    The engine calls ``begin`` once per block, ``step`` for k = 0..n-1
    with a context holding the pre-step state (x, y, a, u at t_k), the
    increments (dB, jump counts), and the post-step state (x1, y1, a1).
    ``finish`` receives the final grid point and returns a per-path array
    (or tuple of arrays); the engine concatenates across blocks in block
    order, so the reduction is independent of scheduling.
    """

    def begin(self, n_lanes: int, spec: ProblemSpec, grid: TimeGrid):
        raise NotImplementedError

    def step(self, state, k: int, ctx: dict):
        raise NotImplementedError

    def finish(self, state, ctx: dict):
        raise NotImplementedError


@dataclass
class EnsembleResult:
    records: Optional[list]  # PathRecords when recording was requested
    extras: list  # one entry per accumulator: concatenated per-path arrays
    clipped: bool
    n_paths: int


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + block))


def _prepare_variation(spec: ProblemSpec, beta: ControlSpec) -> dict:
    """Collect the coefficient partials needed by the linearized dynamics."""
    names = ["b", "sigma"] + (["theta"] if spec.coeffs.theta is not None else [])
    partials = {
        name: {v: spec.coeffs.partial(name, v) for v in ("x", "y", "a", "u")}
        for name in names
    }
    return {"beta": beta, "partials": partials}


def _nonfinite(what: str, values, k: int, t: float, first: int):
    """NonFiniteState naming the first bad lane of a block group by its
    block and its lane inside that block."""
    bad = int(np.argmin(np.isfinite(values)))
    block, lane = first + bad // BLOCK_SIZE, bad % BLOCK_SIZE
    return NonFiniteState(
        f"{what} at step {k + 1} (t={t:.6g}, block {block}, lane {lane})",
        step=k + 1, block=block, lane=lane)


def _run_blocks(spec: ProblemSpec, grid: TimeGrid, control: ControlSpec,
                seed: int, first: int, n_lanes: int,
                accumulators, record: bool, variation: Optional[dict] = None):
    """Simulate blocks first, first+1, ... as one array of ``n_lanes``
    lanes, every block full but the last.

    Each block draws from its own generator exactly what it would draw
    alone, and the draws are joined in block order; everything else runs
    once per step over all lanes.  Returns (rec, extras, clipped): ``rec``
    maps each recorded quantity to its (n_lanes, ...) array (None without
    ``record``), ``clipped`` holds one flag per block.
    """
    dt, m, n = grid.dt, grid.m, grid.n
    rho = spec.rho
    nb = n_lanes
    starts = np.arange(0, nb, BLOCK_SIZE)
    lanes = [slice(s, min(s + BLOCK_SIZE, nb)) for s in starts]
    rngs = [_block_rng(seed, first + j) for j in range(len(starts))]
    jump = spec.jump
    has_jumps = (jump is not None and spec.coeffs.theta is not None
                 and jump.intensity > 0)
    if has_jumps and not hasattr(jump.marks, "values"):
        raise NotImplementedError("path simulation requires discrete marks")
    mark_values = jump.marks.values if has_jumps else ()
    mark_probs = jump.marks.probs if has_jumps else None
    rates = [jump.intensity * pz * dt for pz in mark_probs] if has_jumps else []

    hist = spec.validate_segment(grid)  # m+1 values on [-delta, 0]
    # A_0 as a full block computes it, lane by lane, so a lane's start does
    # not depend on how many lanes its block holds
    A = np.tile(segment_average(np.tile(hist, (BLOCK_SIZE, 1)), dt, rho),
                len(starts))[:nb]
    # ring[pos] is the newest entry; the oldest sits at (pos+1) mod (m+1)
    ring = np.repeat(hist[:, None], nb, axis=1)
    pos = m
    X = ring[pos].copy()
    Y = ring[(pos + 1) % (m + 1)].copy()

    ed = np.exp(-rho * dt)
    c_drop = 0.5 * dt * np.exp(-rho * (grid.delta + dt))
    c_edge = 0.5 * dt * np.exp(-rho * grid.delta)
    c_prev = 0.5 * dt * ed
    c_new = 0.5 * dt

    var = variation
    if var is not None:
        xi = np.zeros(nb)
        xi_lag = np.zeros(nb)
        xi_ring = np.zeros((m + 1, nb))
        Lam = np.zeros(nb)  # moving average of xi, same kernel as A

    if record:
        rec_X = np.empty((nb, n + 1)); rec_X[:, 0] = X
        rec_Y = np.empty((nb, n + 1)); rec_Y[:, 0] = Y
        rec_A = np.empty((nb, n + 1)); rec_A[:, 0] = A
        rec_u = np.empty((nb, n + 1))
        rec_dB = np.empty((nb, n))
        rec_counts = (np.empty((nb, n, jump.n_marks), dtype=np.int64)
                      if has_jumps else None)
        rec_xi = np.empty((nb, n + 1)) if var is not None else None
        if rec_xi is not None:
            rec_xi[:, 0] = 0.0

    states = [acc.begin(nb, spec, grid) for acc in accumulators]
    clipped = np.zeros(len(starts), dtype=bool)
    sqdt = np.sqrt(dt)
    z = np.empty(nb)

    for k in range(n):
        t = k * dt
        u, clip_k = control.evaluate(spec, k, t, X, Y, A, starts=starts)
        clipped |= clip_k
        if record:
            rec_u[:, k] = u

        with np.errstate(all="ignore"):
            bval = np.broadcast_to(np.asarray(
                spec.coeffs.b(t, X, Y, A, u), float), X.shape)
            sval = np.broadcast_to(np.asarray(
                spec.coeffs.sigma(t, X, Y, A, u), float), X.shape)

        # per block: full-width normals, then Poisson counts per mark;
        # full-width draws keep each stream independent of the lane count
        counts = (np.empty((nb, len(mark_values)), dtype=np.int64)
                  if has_jumps else None)
        for rng, sl in zip(rngs, lanes):
            w = sl.stop - sl.start
            z[sl] = rng.standard_normal(BLOCK_SIZE)[:w]
            for j, lam in enumerate(rates):
                counts[sl, j] = rng.poisson(lam, BLOCK_SIZE)[:w]
        dB = sqdt * z

        drift = bval * dt
        th = None
        jump_term = 0.0
        if has_jumps:
            with np.errstate(all="ignore"):
                th = np.stack([
                    np.broadcast_to(np.asarray(
                        spec.coeffs.theta(t, X, Y, A, u, zv), float), X.shape)
                    for zv in mark_values
                ], axis=0)  # (n_marks, nb)
            # compensator: subtract intensity * E[theta] dt from the drift
            drift -= jump.intensity * (mark_probs @ th) * dt
            jump_term = np.einsum("ij,ji->i", counts, th)

        X_new = X + drift + sval * dB + jump_term
        if not np.all(np.isfinite(X_new)):
            raise _nonfinite("state became non-finite", X_new, k, t + dt,
                             first)

        if var is not None:
            P = var["partials"]
            beta_vals = np.broadcast_to(np.asarray(
                var["beta"].raw(k, t, X, Y, A), float), X.shape)

            def lin(name):
                with np.errstate(all="ignore"):
                    return (P[name]["x"](t, X, Y, A, u) * xi
                            + P[name]["y"](t, X, Y, A, u) * xi_lag
                            + P[name]["a"](t, X, Y, A, u) * Lam
                            + P[name]["u"](t, X, Y, A, u) * beta_vals)

            dxi = lin("b") * dt + lin("sigma") * dB
            if has_jumps:
                with np.errstate(all="ignore"):
                    dth = np.stack([
                        (P["theta"]["x"](t, X, Y, A, u, zv) * xi
                         + P["theta"]["y"](t, X, Y, A, u, zv) * xi_lag
                         + P["theta"]["a"](t, X, Y, A, u, zv) * Lam
                         + P["theta"]["u"](t, X, Y, A, u, zv) * beta_vals)
                        for zv in mark_values
                    ], axis=0)
                dxi += (np.einsum("ij,ji->i", counts, dth)
                        - jump.intensity * (mark_probs @ dth) * dt)
            xi_new = xi + dxi
            if not np.all(np.isfinite(xi_new)):
                raise _nonfinite("variational process non-finite", xi_new,
                                 k, t + dt, first)

        pos = (pos + 1) % (m + 1)
        Y_drop = Y  # X_{k-m}, leaving the averaging window
        ring[pos] = X_new
        Y_new = ring[(pos + 1) % (m + 1)].copy()  # X_{k+1-m}
        A_new = (ed * A - c_drop * Y_drop - c_edge * Y_new
                 + c_prev * X + c_new * X_new)

        ctx = {"k": k, "t": t, "t1": t + dt, "x": X, "y": Y, "a": A, "u": u,
               "dB": dB, "counts": counts, "theta_marks": th,
               "x1": X_new, "y1": Y_new, "a1": A_new}

        if var is not None:
            xi_lag_drop = xi_lag
            xi_ring[pos] = xi_new
            xi_lag_new = xi_ring[(pos + 1) % (m + 1)].copy()
            Lam_new = (ed * Lam - c_drop * xi_lag_drop - c_edge * xi_lag_new
                       + c_prev * xi + c_new * xi_new)
            ctx.update({"xi": xi, "xi_lag": xi_lag, "Lam": Lam,
                        "beta": beta_vals, "xi1": xi_new})

        for acc, st in zip(accumulators, states):
            acc.step(st, k, ctx)

        X, Y, A = X_new, Y_new, A_new
        if var is not None:
            xi, xi_lag, Lam = xi_new, xi_lag_new, Lam_new
            if record:
                rec_xi[:, k + 1] = xi
        if record:
            rec_X[:, k + 1] = X
            rec_Y[:, k + 1] = Y
            rec_A[:, k + 1] = A
            rec_dB[:, k] = dB
            if rec_counts is not None:
                rec_counts[:, k, :] = counts

    t_final = n * dt
    u_final, clip_f = control.evaluate(spec, n, t_final, X, Y, A,
                                       starts=starts)
    clipped |= clip_f
    ctx_final = {"k": n, "t": t_final, "x": X, "y": Y, "a": A, "u": u_final}
    if var is not None:
        ctx_final.update({"xi": xi, "xi_lag": xi_lag, "Lam": Lam})
    extras = [acc.finish(st, ctx_final) for acc, st in zip(accumulators, states)]

    rec = None
    if record:
        rec_u[:, n] = u_final
        rec = {"X": rec_X, "Y": rec_Y, "A": rec_A, "u": rec_u, "dB": rec_dB,
               "counts": rec_counts, "xi": rec_xi}
    return rec, extras, clipped


def _path_records(grid: TimeGrid, rec: dict, clipped, lanes) -> list:
    """PathRecords viewing the given lanes of one block group's arrays."""
    t, counts, xi = grid.times, rec["counts"], rec["xi"]
    return [PathRecord(t=t, X=rec["X"][i], Y=rec["Y"][i],
                       A=rec["A"][i], u=rec["u"][i], dB=rec["dB"][i],
                       counts=None if counts is None else counts[i],
                       xi=None if xi is None else xi[i],
                       clipped=bool(clipped[i // BLOCK_SIZE]))
            for i in lanes]


def _merge_extras(per_group: list, accumulators) -> list:
    merged = []
    for i, _acc in enumerate(accumulators):
        parts = [grp[i] for grp in per_group]
        if parts and isinstance(parts[0], tuple):
            merged.append(tuple(np.concatenate([p[j] for p in parts])
                                for j in range(len(parts[0]))))
        else:
            merged.append(np.concatenate(parts) if parts else np.array([]))
    return merged


def simulate_ensemble(spec: ProblemSpec, grid: TimeGrid, control: ControlSpec,
                      n_paths: int, seed: int, *, accumulators=(),
                      record: bool = False, beta: Optional[ControlSpec] = None,
                      threads: int = 1) -> EnsembleResult:
    """Simulate ``n_paths`` paths in counter-seeded blocks.

    ``accumulators`` is a sequence of StepAccumulator instances, shared by
    all groups; each group keeps its own state from begin().  ``beta``
    switches on the variational process driven by that perturbation.
    Blocks are stepped in contiguous groups of up to ``GROUP_BLOCKS``;
    results are bitwise independent of ``threads`` and of the grouping.
    """
    variation = _prepare_variation(spec, beta) if beta is not None else None
    n_blocks = (n_paths + BLOCK_SIZE - 1) // BLOCK_SIZE
    # contiguous groups of at most GROUP_BLOCKS blocks, enough of them to
    # give every worker one
    per_group = min(GROUP_BLOCKS, max(1, -(-n_blocks // max(1, threads))))
    firsts = range(0, n_blocks, per_group)

    def work(first):
        lanes = min(per_group * BLOCK_SIZE, n_paths - first * BLOCK_SIZE)
        return _run_blocks(spec, grid, control, seed, first, lanes,
                           accumulators, record, variation)

    if threads > 1 and len(firsts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, firsts))
    else:
        results = [work(f) for f in firsts]

    records = None
    if record:
        records = [r for rec, _, clipped in results
                   for r in _path_records(grid, rec, clipped,
                                          range(len(rec["X"])))]
    extras = _merge_extras([grp[1] for grp in results], accumulators)
    clipped = any(grp[2].any() for grp in results)
    return EnsembleResult(records=records, extras=extras, clipped=clipped,
                          n_paths=n_paths)


def simulate_path(spec: ProblemSpec, grid: TimeGrid, control: ControlSpec,
                  noise) -> PathRecord:
    """Simulate the single path identified by noise = (seed, path_index).

    The containing block is simulated in full so the returned record is
    bitwise identical to the same path inside any larger ensemble.
    """
    seed, path_index = noise
    block, lane = divmod(int(path_index), BLOCK_SIZE)
    rec, _, clipped = _run_blocks(spec, grid, control, seed, block,
                                  lane + 1, (), True, None)
    return _path_records(grid, rec, clipped, [lane])[0]


def simulate_noiseless(spec: ProblemSpec, grid: TimeGrid,
                       control: ControlSpec, heun: bool = True) -> PathRecord:
    """Integrate the noise-free reduction dX = b dt (sigma and jumps off).

    With ``heun`` the drift is integrated by the predictor-corrector rule,
    second order in dt; the delay and moving-average bookkeeping is
    identical to the stochastic engine.  Intended for problems whose
    reference dynamics are deterministic (sigma = 0, no jumps), where it
    replaces a full Monte Carlo block at a fraction of the cost.
    """
    if (spec.jump is not None and spec.jump.intensity > 0
            and spec.coeffs.theta is not None):
        raise ValueError("noiseless simulation requires no jump component")
    dt, m, n = grid.dt, grid.m, grid.n
    rho = spec.rho
    hist = spec.validate_segment(grid)
    ring = hist.copy()
    pos = m
    X = float(ring[pos])
    Y = float(ring[(pos + 1) % (m + 1)])
    A = float(segment_average(ring, dt, rho))

    ed = np.exp(-rho * dt)
    c_drop = 0.5 * dt * np.exp(-rho * (grid.delta + dt))
    c_edge = 0.5 * dt * np.exp(-rho * grid.delta)
    c_prev = 0.5 * dt * ed
    c_new = 0.5 * dt

    Xs = np.empty(n + 1); Ys = np.empty(n + 1); As = np.empty(n + 1)
    us = np.empty(n + 1)
    Xs[0], Ys[0], As[0] = X, Y, A
    clipped = False
    b = spec.coeffs.b
    for k in range(n):
        t = k * dt
        u, clip_k = control.evaluate(spec, k, t, X, Y, A)
        clipped = clipped or clip_k
        u = float(u)
        us[k] = u
        g0 = float(b(t, X, Y, A, u))
        pos_next = (pos + 1) % (m + 1)
        Y_drop = Y
        Y1 = float(ring[(pos_next + 1) % (m + 1)])  # X_{k+1-m}, unchanged
        if heun:
            X_star = X + dt * g0
            A_star = (ed * A - c_drop * Y_drop - c_edge * Y1
                      + c_prev * X + c_new * X_star)
            u1, clip_1 = control.evaluate(spec, k + 1, t + dt, X_star, Y1, A_star)
            clipped = clipped or clip_1
            g1 = float(b(t + dt, X_star, Y1, A_star, float(u1)))
            X_new = X + 0.5 * dt * (g0 + g1)
        else:
            X_new = X + dt * g0
        if not np.isfinite(X_new):
            raise NonFiniteState(
                f"state became non-finite at step {k + 1}", step=k + 1)
        pos = pos_next
        ring[pos] = X_new
        A = (ed * A - c_drop * Y_drop - c_edge * Y1
             + c_prev * X + c_new * X_new)
        X, Y = X_new, Y1
        Xs[k + 1], Ys[k + 1], As[k + 1] = X, Y, A
    u_final, clip_f = control.evaluate(spec, n, n * dt, X, Y, A)
    us[n] = float(u_final)
    clipped = clipped or clip_f
    return PathRecord(t=grid.times, X=Xs, Y=Ys, A=As, u=us,
                      dB=np.zeros(n), clipped=clipped)


def simulate_variational(spec: ProblemSpec, grid: TimeGrid,
                         control: ControlSpec, beta: ControlSpec,
                         noise) -> np.ndarray:
    """The variational process xi along one path (same noise contract as
    simulate_path); xi vanishes on the initial segment by construction."""
    seed, path_index = noise
    block, lane = divmod(int(path_index), BLOCK_SIZE)
    variation = _prepare_variation(spec, beta)
    rec, _, _ = _run_blocks(spec, grid, control, seed, block, lane + 1, (),
                            True, variation)
    return rec["xi"][lane]
