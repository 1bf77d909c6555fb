"""Picard-iteration solver for time-advanced backward SDEs.

The unknown triple (p, q, r) satisfies, on [0, T] with p(T) = 0,

    dp(t) = E[ F(t, p(t), p(t+delta), p_t, q(t), q(t+delta), q_t,
                  r(t), r(t+delta), r_t) | F_t ] dt + q dB + r dN~,

where p_t denotes the forward segment {p(s), s in [t, t+delta]} (and
likewise for q, r).  Note the driver sits on the PLUS side of dp.  The
infinite horizon is truncated at T with p = q = r = 0 beyond T, every
iterate.

The driver is evaluated on a whole iterate at once: ``fn(p, q, r)``
receives the padded arrays (n+1+m nodes, so node k+m is t_k + delta and
nodes k..k+m are the forward segment) and returns F at the n+1 grid
nodes.  A sweep reads its driver arguments from the previous iterate
only, so each sweep calls fn once, in both modes.

The solver follows the two-step successive-substitution scheme: an inner
loop fixes the (q, r) arguments (initialized at zero) and an outer loop
fixes the p arguments (initialized at zero).  Contraction is monitored in
the weighted norm int_0^T e^{lambda t} |.|^2 dt; the weight is
auto-selected from the driver's Lipschitz constant via the rule
lambda = C / eps with eps = 1/(12 (2 + e^{-lambda delta})), solved
self-consistently, times a 1.1 margin.

Two evaluation modes, regression when an ``McContext`` ensemble is
given and deterministic otherwise:
  deterministic - all processes are deterministic functions of time;
      conditional expectation is the identity, q = r = 0, and the
      backward sweep is trapezoid quadrature of the driver.
  regression - processes live on a Monte Carlo ensemble; E[.|F_t] is
      least-squares polynomial regression on monomials of (X, Y, A)
      (Longstaff-Schwartz), q and r are extracted by regressing the
      martingale increments p_{k+1} dB_k / dt and
      p_{k+1} (dN_k - intensity dt) / (intensity dt).

A regression solve forks one worker process (``_QrWorker``) once its
ensemble exists.  In every sweep the solving process sends the worker
node k's p_{k+1} row, one N-float row through a pipe, and projects p_k
while the worker projects q_k and each mark's r_k; at the sweep's end
it reads the sweep's n q rows (and n x marks r rows) back through a
second pipe.  Nothing else crosses: the worker reads the ensemble from
its fork-time copy, whose pages it shares with the solving process
while neither writes them.  Each projection makes the same lstsq call
on the same bytes in either process, so the solve is bitwise the one
that projects all three in-process, as it does without ``os.fork``,
while another thread is alive, or unless the OpenBLAS bundled with numpy
reports a one-thread pool (``_blas_threads``): each process has its own
pool, and two pools of several threads on the same cores made the solve
dozens of times slower than in-process (the OpenBLAS FAQ advises one
BLAS thread where a program runs its own parallel work).

What a regression solve holds, besides its ensemble (N paths, L = n+1+m
padded nodes):
  - one slice's design, N x 10 floats at basis degree 2, built anew at
    each node's visit and read by its p projection (and, in-process,
    by its q and r projections);
  - the driver's coefficient partials (``adjoint``), one N x L array for
    each partial that differs across paths and one time row for each
    that does not (two of nine are per path for Ex 3.4);
  - about six N x L working arrays: the iterate's p and q, the inner
    sweep's q, the new sweep's F and its node-major p and q, which it
    hands back path-major one at a time (one more array while it
    copies), and the driver's temporaries while it runs: F and one
    product of dH/dx, plus dH/dy and the padded dH/da with its segment
    integral when their partials are not all zero (on Ex 3.4 they are,
    and the driver builds neither).  Without jumps r is never written,
    and one zero r serves the whole solve.
On Ex 3.4 (sigma0 0.05, 2048 paths, dt 0.05, T 5: n = 100, m = 20) that
is 0.16 MB of design, 4.0 MB of partials and about 2 MB per
working array; by tracemalloc the solve from ``EnsembleResult.arrays``
peaks at 22.0 MB, and at 1024 paths, dt 0.01 at 54.3 MB, 2.65 times its
20.5 MB recorded ensemble (X, Y, A, u, dB).  The worker's private memory
is its own q rows (n x N floats), r rows with jumps, one p row and one
slice's design, plus the pages of the fork-time copy it writes to.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import threading
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import BadWeight, NoConvergence, NonFiniteDriver
from .model import TimeGrid, _write_csv

_INNER_MAX_ITER = 8  # inner (q, r) sweeps per outer regression iteration
_CONTRACTING_RATIO = 0.75  # measured ratio that still counts as contracting


@dataclass(frozen=True)
class AdvancedDriver:
    """Driver F plus its declared Lipschitz constant.

    ``fn(p, q, r)`` takes an iterate padded past the horizon: p and q of
    shape (..., n+1+m), r of shape (..., n+1+m, n_marks), with a leading
    path axis in regression mode.  It returns F at the n+1 grid nodes,
    shape (..., n+1); F at node k may read nodes k (t), k+m (t + delta)
    and k..k+m (the forward segment [t, t + delta]).
    """

    fn: Callable
    lipschitz: float
    n_marks: int = 0


@dataclass
class AdjointTriple:
    """Grid-sampled solution; arrays are padded with m extra zero nodes
    past the horizon so advanced reads never index out of range.

    In deterministic mode p and q have shape (n+1+m,) and r has shape
    (n+1+m, n_marks).  In regression mode a leading path axis is added.
    """

    grid: TimeGrid
    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    ensemble: bool = False

    def p_on_grid(self) -> np.ndarray:
        """p at the n+1 grid nodes (ensemble-averaged in regression mode)."""
        p = self.p.mean(axis=0) if self.ensemble else self.p
        return p[: self.grid.n + 1]

    def q_on_grid(self) -> np.ndarray:
        q = self.q.mean(axis=0) if self.ensemble else self.q
        return q[: self.grid.n + 1]

    def r_on_grid(self) -> np.ndarray:
        r = self.r.mean(axis=0) if self.ensemble else self.r
        return r[: self.grid.n + 1]

    def to_csv(self, path: str):
        r = self.r_on_grid()
        cols = ["t", "p", "q"] + [f"r_{j}" for j in range(r.shape[1])]
        _write_csv(path, cols, np.column_stack(
            (self.grid.times, self.p_on_grid(), self.q_on_grid(), r)))


@dataclass
class PicardReport:
    """Iteration history of picard_solve.  ``distances`` (and their p and
    (q, r) parts) are the *squared* normalised weighted norms of
    successive differences, so convergence at ``tol`` means a root mean
    square change of about sqrt(tol): picard_tol 1e-12 is about 1e-6."""

    distances: list = field(default_factory=list)  # successive weighted dists
    p_distances: list = field(default_factory=list)
    qr_distances: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    weight_lambda: float = 0.0
    mode: str = "deterministic"
    # where a regression solve's projections ran (``picard_solve``): a
    # record of the run, not of the iteration, so as_dict leaves it out
    execution: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = asdict(self)
        del out["execution"]
        return out


# ---------------------------------------------------------------------------
# Weight selection
# ---------------------------------------------------------------------------

def epsilon_rule(weight_lambda: float, delta: float) -> float:
    return 1.0 / (12.0 * (2.0 + np.exp(-weight_lambda * delta)))


def auto_weight(lipschitz: float, delta: float, margin: float = 1.1) -> float:
    """Self-consistent solution of lambda = C / eps(lambda), scaled by the
    safety margin.  eps(lambda) = 1/(12 (2 + e^{-lambda delta}))."""
    C = max(float(lipschitz), 1e-12)
    lam = 24.0 * C
    for _ in range(200):
        lam_next = C * 12.0 * (2.0 + np.exp(-lam * delta))
        if abs(lam_next - lam) < 1e-14 * max(1.0, lam):
            lam = lam_next
            break
        lam = lam_next
    return margin * lam


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def _trapz_weights(n: int, dt: float) -> np.ndarray:
    w = np.full(n + 1, dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _norm_weights(grid: TimeGrid, lam: float) -> np.ndarray:
    """Trapezoid weights of int_0^T e^{lambda t} . dt, normalized by
    int_0^T e^{lambda t} dt."""
    trapz = _trapz_weights(grid.n, grid.dt)
    with np.errstate(over="ignore"):
        w = trapz * np.exp(lam * grid.times)
        total = np.sum(w)
    if not np.isfinite(total):
        # e^{lambda T} overflows: the normalization cancels a common
        # factor, so take e^{-lambda T} into the exponent
        w = trapz * np.exp(lam * grid.times - lam * grid.horizon)
        total = np.sum(w)
    return w / total


def _node_squares(grid: TimeGrid, dp, dq=None, dr=None,
                  ensemble: bool = False):
    """Squares of dp, dq and dr (summed over marks) at the n+1 grid
    nodes, path-averaged for ensemble inputs; None where d is None."""
    n = grid.n
    dp = np.asarray(dp, float)
    if ensemble:
        p2 = np.mean(dp[:, : n + 1] ** 2, axis=0)
    else:
        p2 = dp[: n + 1] ** 2
    q2 = r2 = None
    if dq is not None:
        dq = np.asarray(dq, float)
        q2 = np.mean(dq[:, : n + 1] ** 2, axis=0) if ensemble else dq[: n + 1] ** 2
    if dr is not None:
        dr = np.asarray(dr, float)
        if ensemble:
            r2 = np.mean(np.sum(dr[:, : n + 1, :] ** 2, axis=-1), axis=0)
        else:
            r2 = np.sum(dr[: n + 1, :] ** 2, axis=-1)
    return p2, q2, r2


def _weighted_parts(w: np.ndarray, p2, q2=None, r2=None):
    """(total, p-part, qr-part) of node squares under weights ``w``."""
    d_p = float(w @ p2)
    d_qr = 0.0
    if q2 is not None:
        d_qr += float(w @ q2)
    if r2 is not None:
        d_qr += float(w @ r2)
    return d_p + d_qr, d_p, d_qr


def weighted_distance(grid: TimeGrid, lam: float, dp, dq=None, dr=None,
                      ensemble: bool = False):
    """(total, p-part, qr-part) of the normalized weighted square norm
    int_0^T e^{lambda t} |.|^2 dt / int_0^T e^{lambda t} dt, trapezoid in
    time; ensemble inputs are averaged over the path axis.  The
    normalization leaves contraction ratios untouched while keeping
    magnitudes comparable to sup-norms even for large lambda * T."""
    return _weighted_parts(_norm_weights(grid, lam),
                           *_node_squares(grid, dp, dq, dr, ensemble))


# ---------------------------------------------------------------------------
# Driver values, read by both sweeps
# ---------------------------------------------------------------------------

def _driver_values(driver: AdvancedDriver, grid: TimeGrid, nodes: int,
                   p, q, r) -> np.ndarray:
    """F = driver.fn(p, q, r), checked finite at the first ``nodes`` grid
    nodes (those a sweep reads): otherwise raises NonFiniteDriver at the
    first such path, and its first such node."""
    F = np.asarray(driver.fn(p, q, r), float)
    bad = ~np.isfinite(F[..., :nodes])
    if bad.any():
        path = int(np.argmax(bad.any(axis=-1))) if bad.ndim > 1 else None
        node = int(np.argmax(bad if path is None else bad[path]))
        where = "" if path is None else f" on path {path}"
        raise NonFiniteDriver(
            f"adjoint driver is not finite{where} at grid node {node} "
            f"(t = {node * grid.dt:g}); the Picard iteration cannot converge",
            path=path, node=node)
    return F


# ---------------------------------------------------------------------------
# Deterministic backward sweep
# ---------------------------------------------------------------------------

def _det_sweep(driver: AdvancedDriver, grid: TimeGrid, p_prev, q_prev, r_prev):
    """One Picard update in deterministic mode: trapezoid quadrature of
    dp = F dt backward from p(T) = 0 (so p(t) = -int_t^T F ds)."""
    n, m, dt = grid.n, grid.m, grid.dt
    F = _driver_values(driver, grid, n + 1, p_prev, q_prev, r_prev)
    steps = 0.5 * dt * (F[:-1] + F[1:])
    p_new = np.zeros(n + 1 + m)
    p_new[: n] = -np.cumsum(steps[::-1])[::-1]
    q_new = np.zeros(n + 1 + m)
    r_new = np.zeros((n + 1 + m, max(driver.n_marks, 1)))
    return p_new, q_new, r_new


# ---------------------------------------------------------------------------
# Regression machinery
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _basis_factors(degree: int) -> tuple:
    """For each monomial x^i y^j a^k of total degree 1 to ``degree``, in
    the design's column order (after the constant), its factors with a
    nonzero exponent as (variable index, exponent) pairs."""
    return tuple(tuple((v, e) for v, e in enumerate((i, j, d - i - j)) if e)
                 for d in range(1, degree + 1)
                 for i in range(d + 1) for j in range(d + 1 - i))


def monomial_basis(x, y, a, degree: int) -> np.ndarray:
    """Design matrix of the monomials of (x, y, a) up to total ``degree``,
    one row per path, in C order.

    The column of x^i y^j a^k is the product of x ** i, y ** j and
    a ** k, left to right, with each factor of exponent 0 left out: it is
    exactly 1.0, so the bits are those of the full product.  The columns
    are computed as contiguous rows and transposed into place once."""
    xya = (x, y, a)
    terms = _basis_factors(degree)
    rows = np.empty((1 + len(terms), len(x)))
    rows[0] = 1.0
    for row, term in zip(rows[1:], terms):
        factors = [xya[v] if e == 1 else xya[v] ** e for v, e in term]
        if len(factors) == 1:
            row[...] = factors[0]
        else:
            np.multiply(factors[0], factors[1], out=row)
        for factor in factors[2:]:
            row *= factor
    return np.ascontiguousarray(rows.T)


class McContext:
    """Forward-path ensemble supplying conditioning variables for the
    least-squares conditional expectations.  With jump ``counts`` and a
    positive ``intensity``, ``mark_probs`` gives each count column's mark
    probability.

    The arrays are kept as given: a sweep reads the columns of X, Y, A,
    dB and the counts at one node, which are contiguous when the arrays
    are the transposed views of time-major ones (``EnsembleResult.arrays``
    and ``stack_records``).  It keeps one slice's design at a time, the
    one its last projection read, so a context serves one projecting
    thread; a solve's q/r worker projects on its own forked copy."""

    def __init__(self, X, Y, A, dB, counts=None, intensity=0.0,
                 mark_probs=None, basis_degree: int = 2):
        self.X = np.asarray(X, float)
        self.Y = np.asarray(Y, float)
        self.A = np.asarray(A, float)
        self.dB = np.asarray(dB, float)
        self.counts = None if counts is None else np.asarray(counts)
        self.intensity = float(intensity)
        self.mark_probs = (None if mark_probs is None
                           else np.asarray(mark_probs, float))
        self.basis_degree = int(basis_degree)
        self._M = None  # the design of slice _slice
        self._slice = None

    @property
    def n_paths(self) -> int:
        return self.X.shape[0]

    def design(self, k: int) -> np.ndarray:
        """Monomials of (X_k, Y_k, A_k) up to total basis_degree, as a
        new array."""
        return monomial_basis(self.X[:, k], self.Y[:, k], self.A[:, k],
                              self.basis_degree)

    def project(self, k: int, values: np.ndarray) -> np.ndarray:
        """Least-squares E[values | X_k, Y_k, A_k], evaluated per path.
        Slice k's design is built anew unless the last projection read
        the same slice."""
        return self._fit(k, values)

    def _fit(self, k: int, values: np.ndarray) -> np.ndarray:
        # project's arithmetic; the q/r worker calls it directly, so what
        # wraps ``project`` (a tracer, a timer) sees only the calling
        # process's projections.  One lstsq per right-hand side: stacking
        # a node's q and p into one call moves q by about 5e-10 relative,
        # past the 1e-12 the benchmark digest allows.  lstsq holds the
        # GIL, so a second thread gains nothing; a second process does
        if self._slice != k:
            self._M = self.design(k)
            self._slice = k
        return _least_squares(self._M, values)


def _least_squares(M: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The least-squares fit of ``values`` on the columns of ``M``,
    evaluated at M's rows."""
    coef, *_ = np.linalg.lstsq(M, values, rcond=None)
    return M @ coef


def _mark_rates(driver: AdvancedDriver, grid: TimeGrid, ctx: McContext):
    """lambda_j dt of each mark whose centred counts a sweep projects,
    or None when the ensemble has no jumps."""
    if ctx.counts is None or ctx.intensity <= 0:
        return None
    marks = min(max(driver.n_marks, 1), ctx.counts.shape[2])
    return [ctx.intensity * ctx.mark_probs[j] * grid.dt for j in range(marks)]


def _project_qr(fit, ctx: McContext, k: int, p_next, q, r, rates, dt):
    """Node k's q row and, for each mark rate, its r row, from p_{k+1}:
    ``fit(k, values)`` is the least-squares projection on slice k."""
    q[k] = fit(k, p_next * ctx.dB[:, k]) / dt
    for j, lam_j in enumerate(rates or ()):
        # int64 counts minus a float: the float64 difference
        centered = ctx.counts[:, k, j] - lam_j
        r[k, j] = fit(k, p_next * centered) / max(lam_j, 1e-300)


# ---------------------------------------------------------------------------
# The q/r worker: a forked process that projects each node's q and r while
# the solving process projects its p
# ---------------------------------------------------------------------------

def _write_all(fd: int, data):
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _read_into(fd: int, buf) -> bool:
    """Fill ``buf`` from ``fd``; False at end of file."""
    view = memoryview(buf).cast("B")
    while view:
        got = os.readv(fd, [view])
        if got == 0:
            return False
        view = view[got:]
    return True


def _serve_qr(ctx: McContext, grid: TimeGrid, marks: int, rates,
              rows: int, back: int):
    """The worker's loop: per sweep, read the n rows p_{n}, ..., p_1 in
    the sweep's order, project node k's q and r from p_{k+1}, then write
    the n q rows (and the n x marks r rows) back.  Returns at end of
    file: the solve is over, or the solving process is gone."""
    n = grid.n
    p_next = np.empty(ctx.n_paths)
    q = np.zeros((n, ctx.n_paths))
    r = None if rates is None else np.zeros((n, marks, ctx.n_paths))
    while True:
        for k in range(n - 1, -1, -1):
            if not _read_into(rows, p_next):
                return
            _project_qr(ctx._fit, ctx, k, p_next, q, r, rates, grid.dt)
        _write_all(back, b"R")
        _write_all(back, q)
        if r is not None:
            _write_all(back, r)


class _QrWorker:
    """A process forked from the solving one, with its copy of the
    context, that projects each node's q and r.  Only rows cross: the
    solving process writes p_{k+1} to one pipe as it reaches node k, and
    reads the sweep's q and r rows from the other at the sweep's end.
    An exception in the worker comes back pickled and is raised by the
    solving process; ``close`` ends the worker (end of file on its pipe)
    and reaps it."""

    def __init__(self, ctx: McContext, grid: TimeGrid, marks: int, rates):
        rows_r, rows_w = os.pipe()
        back_r, back_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # the worker: it leaves only through os._exit
            code = 1
            try:
                os.close(rows_w)
                os.close(back_r)
                try:
                    _serve_qr(ctx, grid, marks, rates, rows_r, back_w)
                    code = 0
                except BaseException as exc:  # the solving process raises it
                    _write_all(back_w, b"E" + pickle.dumps(exc))
            finally:
                os._exit(code)
        os.close(rows_r)
        os.close(back_w)
        self._rows, self._back = rows_w, back_r
        self.wait_s = 0.0  # waited at sweep ends for the worker's rows

    def send(self, row: np.ndarray):
        try:
            _write_all(self._rows, row)
        except BrokenPipeError:  # the worker has left
            raise self._failure(os.read(self._back, 1)) from None

    def collect(self, q: np.ndarray, r: Optional[np.ndarray]):
        """Read the sweep's q rows into ``q`` and its r rows into ``r``."""
        t0 = time.perf_counter()
        status = os.read(self._back, 1)
        self.wait_s += time.perf_counter() - t0
        if status != b"R":
            raise self._failure(status)
        for out in (q, r):
            if out is not None and not _read_into(self._back, out):
                raise self._failure(b"")

    def _failure(self, status: bytes) -> BaseException:
        if status == b"E":
            chunks = []
            while chunk := os.read(self._back, 1 << 16):
                chunks.append(chunk)
            return pickle.loads(b"".join(chunks))
        return RuntimeError(f"the q/r projection worker (pid {self.pid}) "
                            f"ended without sending its rows")

    def close(self):
        os.close(self._rows)
        os.close(self._back)
        os.waitpid(self.pid, 0)


def _blas_threads() -> Optional[int]:
    """Threads of the OpenBLAS pool bundled with numpy, asked from the
    library, or None when it cannot be asked."""
    root = Path(np.__file__).resolve().parent.parent
    for lib in sorted(root.glob("numpy.libs/*openblas*.so*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, sym):
                fn = getattr(dll, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _qr_worker(driver: AdvancedDriver, grid: TimeGrid, ctx: McContext):
    """The solve's q/r worker, or None to project q and r in-process:
    without ``os.fork``, while another thread is alive (the fork copies
    only this thread, and a lock another one holds stays held in the
    worker), or unless the BLAS pool is known to have one thread (the
    worker's pool and this one's would share the cores)."""
    if (not hasattr(os, "fork") or threading.active_count() > 1
            or _blas_threads() != 1):
        return None
    return _QrWorker(ctx, grid, max(driver.n_marks, 1),
                     _mark_rates(driver, grid, ctx))


def _execution_record(driver: AdvancedDriver, grid: TimeGrid,
                      ctx: McContext, worker: Optional[_QrWorker],
                      sweeps: int) -> dict:
    """Where the projections of ``sweeps`` whole sweeps ran: each node
    projects p in this process and q and r (one per mark with jumps) in
    the worker, or here without one."""
    p_calls = sweeps * grid.n
    qr_calls = p_calls * (1 + len(_mark_rates(driver, grid, ctx) or ()))
    return {"worker": worker is not None, "sweeps": sweeps,
            "projections": {"main": p_calls + (0 if worker else qr_calls),
                            "worker": qr_calls if worker else 0},
            "worker_wait_s": worker.wait_s if worker else 0.0}


def _reg_sweep(driver: AdvancedDriver, grid: TimeGrid, ctx: McContext,
               p_prev, q_prev, r_prev, worker: Optional[_QrWorker] = None):
    """One backward regression sweep whose driver reads the iterate
    (p_prev, q_prev, r_prev).  Without jumps r is never written: the sweep
    hands r_prev back, which in ``picard_solve`` is the solve's one zero
    r.

    The sweep keeps p, q and r node-major, one contiguous row per node
    (and mark), and hands them back path-major, one at a time; all
    projections of node k in one process read the one design that its
    ``ctx`` builds at the node's visit.  With a ``worker`` the q and r
    rows are projected there, from the p_{k+1} row the sweep sends it
    before projecting p_k, and read back when the sweep ends."""
    n, m, dt = grid.n, grid.m, grid.dt
    N = ctx.n_paths
    rates = _mark_rates(driver, grid, ctx)

    F = _driver_values(driver, grid, n, p_prev, q_prev, r_prev)
    p = np.zeros((n + 1 + m, N))
    q = np.zeros((n + 1 + m, N))
    r = (None if rates is None
         else np.zeros((n + 1 + m, max(driver.n_marks, 1), N)))
    for k in range(n - 1, -1, -1):
        p_next = p[k + 1]
        if worker is None:
            _project_qr(ctx.project, ctx, k, p_next, q, r, rates, dt)
        else:
            worker.send(p_next)
        p[k] = ctx.project(k, p_next - dt * F[:, k])
    del F
    if worker is not None:
        worker.collect(q[:n], None if r is None else r[:n])
    p = np.ascontiguousarray(p.T)
    q = np.ascontiguousarray(q.T)
    r = r_prev if r is None else np.ascontiguousarray(r.transpose(2, 0, 1))
    return p, q, r


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

def picard_solve(driver: AdvancedDriver, grid: TimeGrid,
                 mc_context: Optional[McContext] = None,
                 weight_lambda: Optional[float] = None,
                 tol: float = 1e-12, max_iter: int = 60,
                 p_init: Optional[np.ndarray] = None):
    """Solve the time-advanced backward equation by successive
    substitution; returns (AdjointTriple, PicardReport).  The solve is in
    regression mode on the ``mc_context`` ensemble when one is given, in
    deterministic mode otherwise.

    A regression solve projects each node's q and r in a forked worker
    process while this one projects p, bitwise the same as projecting
    all three here.  It stays in-process when ``os.fork`` is missing,
    another thread is alive (``threading.active_count() > 1``) or the
    bundled OpenBLAS does not report a one-thread pool.  The
    worker is reaped before the solve returns or raises, and an
    exception raised in it is raised here with its type.
    ``report.execution`` records where the projections ran (not part of
    ``report.as_dict()``).

    ``tol`` bounds the *squared* normalised weighted distance between
    successive iterates (``weighted_distance``), weighted and unweighted,
    so the iteration stops once their root mean square change is about
    sqrt(tol): the default 1e-12 is about 1e-6, not 1e-12.

    Raises NoConvergence when max_iter is exhausted, its subclass
    NonFiniteDriver at the first sweep whose driver is NaN/inf where the
    sweep reads it (with the first such path and grid node), and
    BadWeight when the measured contraction ratio stays >= 1 for 3
    consecutive iterations (the weight is too small for the driver's
    Lipschitz constant).  All three carry the partial report.  A
    ``max_iter`` below 1 is a ValueError before the first sweep.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    ensemble = mc_context is not None
    lam = (auto_weight(driver.lipschitz, grid.delta)
           if weight_lambda is None else float(weight_lambda))
    report = PicardReport(weight_lambda=lam,
                          mode="regression" if ensemble else "deterministic")
    n, m = grid.n, grid.m
    nm = max(driver.n_marks, 1)

    if ensemble:
        N = mc_context.n_paths
        shape_p = (N, n + 1 + m)
        shape_r = (N, n + 1 + m, nm)
    else:
        shape_p = (n + 1 + m,)
        shape_r = (n + 1 + m, nm)
    p = np.zeros(shape_p)
    if p_init is not None:
        p_init = np.asarray(p_init, float)
        p[..., : min(p_init.shape[-1], n + 1)] = p_init[..., : n + 1]
        p[..., n:] = 0.0  # truncation convention: zero beyond the horizon
    # never written: the (q, r) every inner iteration starts from, and
    # without jumps the r of every regression iterate
    zero_q, zero_r = np.zeros(shape_p), np.zeros(shape_r)
    q, r = zero_q, zero_r
    w_lam, w_flat = _norm_weights(grid, lam), _norm_weights(grid, 0.0)

    # with a worker, each node's q and r are projected in a forked
    # process while this one projects p
    worker = _qr_worker(driver, grid, mc_context) if ensemble else None
    sweeps = 0
    try:
        bad_streak = 0
        for it in range(1, max_iter + 1):
            try:
                if ensemble:
                    # inner Step-1 iteration on the (q, r) arguments
                    q_new, r_new = zero_q, zero_r
                    for _inner in range(_INNER_MAX_ITER):
                        inner_q, inner_r = q_new, r_new
                        # not read again: free it before the sweep
                        p_new = None
                        p_new, q_new, r_new = _reg_sweep(
                            driver, grid, mc_context, p, inner_q, inner_r,
                            worker)
                        sweeps += 1
                        d_in, _, _ = _weighted_parts(w_lam, *_node_squares(
                            grid, q_new - inner_q,
                            dr=None if r_new is inner_r else r_new - inner_r,
                            ensemble=True))
                        if d_in <= tol:
                            break
                    del inner_q, inner_r
                else:
                    p_new, q_new, r_new = _det_sweep(driver, grid, p, q, r)
            except NonFiniteDriver as exc:
                exc.report = report
                raise

            # one set of node squares for both norms; an r that was not
            # rewritten differs by zero and adds exactly 0.0 to the qr part
            squares = _node_squares(grid, p_new - p, q_new - q,
                                    None if r_new is r else r_new - r,
                                    ensemble=ensemble)
            d, d_p, d_qr = _weighted_parts(w_lam, *squares)
            # unweighted companion: guards against premature stops when the
            # e^{lambda t} mass concentrates at the horizon
            d_flat, _, _ = _weighted_parts(w_flat, *squares)
            del squares
            report.distances.append(d)
            report.p_distances.append(d_p)
            report.qr_distances.append(d_qr)
            if len(report.distances) >= 2 and report.distances[-2] > 0:
                report.ratios.append(d / report.distances[-2])
            report.iterations = it
            p, q, r = p_new, q_new, r_new

            if report.ratios and report.ratios[-1] >= 1.0:
                bad_streak += 1
                if bad_streak >= 3:
                    raise BadWeight(
                        f"weighted-norm ratio >= 1 for 3 consecutive "
                        f"iterations (weight lambda={lam:.6g} too small for "
                        f"Lipschitz constant {driver.lipschitz:.6g})",
                        report=report)
            else:
                bad_streak = 0
            if max(d, d_flat) <= tol:
                report.converged = True
                break

        if not report.converged:
            raise NoConvergence(
                f"Picard iteration did not reach tol={tol:g} within "
                f"{max_iter} iterations (last distance "
                f"{report.distances[-1]:g})", report=report)
    finally:
        if worker is not None:
            worker.close()
        if ensemble:
            report.execution = _execution_record(
                driver, grid, mc_context, worker, sweeps)
    triple = AdjointTriple(grid=grid, p=p, q=q, r=r, ensemble=ensemble)
    return triple, report


def contraction_diagnostics(report: PicardReport, driver: AdvancedDriver,
                            delta: float) -> dict:
    """Compare the measured geometric ratio against the theoretical
    sufficient weight; diagnostic only, never raises."""
    lam_star = auto_weight(driver.lipschitz, delta, margin=1.0)
    eps = epsilon_rule(lam_star, delta)
    tail = report.ratios[1:] if len(report.ratios) > 1 else report.ratios
    measured = float(max(tail)) if tail else 0.0
    return {
        "weight_used": report.weight_lambda,
        "weight_sufficient": lam_star,
        "epsilon": eps,
        "measured_ratio": measured,
        "contracting": measured <= _CONTRACTING_RATIO,
        "iterations": report.iterations,
    }


def uniqueness_probe(driver: AdvancedDriver, grid: TimeGrid,
                     mc_context: Optional[McContext] = None,
                     p_init_a=None, p_init_b=None, tol: float = 1e-12,
                     **kwargs) -> float:
    """Weighted distance between converged solutions started from two
    different initializations; Lipschitz drivers must agree to 10*tol."""
    ta, _ = picard_solve(driver, grid, mc_context, tol=tol,
                         p_init=p_init_a, **kwargs)
    tb, _ = picard_solve(driver, grid, mc_context, tol=tol,
                         p_init=p_init_b, **kwargs)
    d, _, _ = weighted_distance(grid, 0.0, ta.p - tb.p, ta.q - tb.q,
                                ta.r - tb.r, ensemble=ta.ensemble)
    return float(np.sqrt(d))
