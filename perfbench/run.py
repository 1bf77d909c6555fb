"""delayctrl benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is crn_compare, jump_ito, regression_adjoint, cli_session, or ``all``,
which runs the four one after another, each in its own process.  Run from
the repository root; the harness imports delayctrl from ``src/``.

A run sets up the workload (untimed), then repeats passes of its ops until
``--seconds`` would be exceeded, checking every op's output.  Each op is timed
alone and followed by a short calibration kernel; reported times are scaled
to a reference machine speed by the kernel's time around the op.  With
``--trace 0`` the last line of stdout is a JSON object whose metrics are the
end-to-end ones; with ``--trace 1`` passes alternate between untraced and
traced, and the metrics are the per-layer ones.  Lines before it report the
environment, each op's outcome and every metric with its unit.  Results are
also written to ``perfbench/out/``.
"""

import os
import sys

# One BLAS/OpenMP thread, set before numpy loads; child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import uuid
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NAMES = ("crn_compare", "jump_ito", "regression_adjoint", "cli_session")
SETUP_REPEATS = 5
# Reported times are scaled to a reference machine speed: the calibration
# kernel below takes CAL_REF seconds at that speed.  On a shared virtual
# machine the speed drifts by tens of percent over minutes, and the kernel
# and the workloads slow down together.
CAL_STEPS = 500
CAL_REF = 0.03
CAL_EVERY = 0.6  # seconds of op between calibrations
MIN_PASSES = 3  # untraced passes per run, whatever --seconds says
DIGESTS = BENCH / "digests.json"

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "path_steps_per_s": "1/s",
             "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (times set-up)")
    p.add_argument("--write-digests", action="store_true",
                   help="store this run's first-pass output digests as the "
                        "reference (default seed only)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads():
    """Threads of the OpenBLAS bundled with numpy, asked from the library."""
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args, run_id):
    import numpy
    import scipy
    import delayctrl
    return {
        "run_id": run_id, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_commit": git_commit(), "delayctrl": delayctrl.__version__,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "engine_threads": 1, "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

def calibration_seconds(steps: int = CAL_STEPS) -> float:
    """Time of a fixed kernel shaped like one engine block: Philox normals,
    elementwise numpy on 1024 lanes, a ring-buffer column write and a
    per-step dict, in a Python loop.  It calls nothing from delayctrl, so
    only the machine's speed moves it."""
    import numpy as np
    rng = np.random.Generator(np.random.Philox(key=12345))
    x, a, acc = np.ones(1024), np.zeros(1024), np.zeros(1024)
    ring = np.ones((1024, 11))
    t0 = time.perf_counter()
    for k in range(steps):
        z = rng.standard_normal(1024)
        u = np.clip(0.1 * np.exp(0.01 * (k % 100)) / x, 0.0, 50.0)
        x_new = x + (0.05 * x - u * x) * 0.01 + 0.02 * x * z
        pos = k % 11
        ring[:, pos] = x_new
        y = ring[:, (pos + 1) % 11].copy()
        a = 0.99 * a + 0.005 * (x + x_new) - 0.001 * y
        f = np.sqrt(np.abs(u * x)) / 0.5
        acc += np.where(np.isfinite(f), f, 0.0)
        ctx = {"k": k, "x": x, "y": y, "a": a, "u": u}
        x = np.abs(ctx["x"] + 0.001 * (x_new - x)) + 1e-3
    return time.perf_counter() - t0


class OpClock:
    """Times one op at a time, scaled to the reference speed stretch by
    stretch: a stretch ends at ``end`` or, once CAL_EVERY seconds have
    passed, at a ``checkpoint`` (called after each simulation call and each
    regression projection in an untraced pass), and its time is scaled by
    the calibration kernel timed at its two ends.  Calibration time is not
    counted."""

    def __init__(self):
        self.cal = calibration_seconds()
        self.begin()

    def begin(self):
        self.raw = self.scaled = 0.0
        self.mark = time.perf_counter()

    def _close(self, samples: int):
        stretch = time.perf_counter() - self.mark
        cal = statistics.median(calibration_seconds() for _ in range(samples))
        self.raw += stretch
        self.scaled += stretch * CAL_REF / (0.5 * (self.cal + cal))
        self.cal = cal
        self.mark = time.perf_counter()

    def checkpoint(self):
        if time.perf_counter() - self.mark >= CAL_EVERY:
            self._close(1)

    def end(self):
        # a stretch with no checkpoint gets more samples at its end
        self._close(1 + int((time.perf_counter() - self.mark) / CAL_EVERY))
        return self.raw, self.scaled


# ---------------------------------------------------------------------------
# Set-up time, measured in fresh processes
# ---------------------------------------------------------------------------

def setup_seconds(args):
    """Median wall time from spawning a process to its 'ready' line, over
    SETUP_REPEATS processes that import and set up the workload; returns
    (raw median, median at the reference machine speed)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    raw, scaled = [], []
    cal_before = calibration_seconds()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            rc = proc.wait(timeout=120)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up process failed (exit {rc})")
        cal_after = calibration_seconds()
        raw.append(elapsed)
        scaled.append(elapsed * CAL_REF / (0.5 * (cal_before + cal_after)))
        cal_before = cal_after
    return statistics.median(raw), statistics.median(scaled)


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def digest_mismatch(got: dict, ref: dict):
    """First key whose digest differs; float lists agree to 1e-12 relative."""
    import numpy as np
    for key in sorted(set(got) | set(ref)):
        a, b = got.get(key), ref.get(key)
        if isinstance(a, list) and isinstance(b, list):
            a, b = np.asarray(a, float), np.asarray(b, float)
            scale = float(np.max(np.abs(b))) if b.size else 0.0
            if a.shape != b.shape or not np.all(np.abs(a - b) <= 1e-12 * scale):
                return key
        elif a != b:
            return key
    return None


def load_reference(workload):
    if not DIGESTS.is_file():
        return None
    data = json.loads(DIGESTS.read_text())
    return data["workloads"].get(workload)


def store_reference(workload, seed, outcomes):
    data = (json.loads(DIGESTS.read_text()) if DIGESTS.is_file()
            else {"seed": seed, "workloads": {}})
    data["workloads"][workload] = {name: o.digests for name, o in outcomes}
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------

def call_op(fn):
    from workloads import Outcome
    try:
        return fn()
    except Exception as exc:  # the bench records the failure and goes on
        return Outcome(False, f"raised {type(exc).__name__}: {exc}")


def cpu_seconds():
    t = os.times()
    return t.user + t.system


def run_workload(args) -> int:
    if not (SRC / "delayctrl" / "__init__.py").is_file():
        print(f"error: no delayctrl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run_id = uuid.uuid4().hex[:12]
    t_import = time.perf_counter()
    import delayctrl
    import workloads
    import_s = time.perf_counter() - t_import
    if Path(delayctrl.__file__).resolve().parent != SRC / "delayctrl":
        print(f"error: delayctrl imported from {delayctrl.__file__}", file=sys.stderr)
        return 2

    workdir = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed, str(workdir))
            print("ready", flush=True)
            return 0
        return measure(args, run_id, import_s, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, run_id, import_s, workdir):
    import instrument
    import workloads
    if args.write_digests and args.seed != workloads.DEFAULT_SEED:
        raise SystemExit("--write-digests needs the default seed")
    env = environment(args, run_id)
    print(f"delayctrl bench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    spans = instrument.Spans(run_id) if args.trace else None
    counter = instrument.Instrument("count")
    tracer = instrument.Instrument("trace", spans) if args.trace else None
    setup = workloads.WORKLOADS[args.workload]

    t_build = time.perf_counter()
    if tracer is not None:
        with tracer:
            root = spans.open("bench.setup")
            ops = setup(args.seed, workdir)
            spans.close(root)
        tracer.counts.clear()
    else:
        ops = setup(args.seed, workdir)
    build_s = time.perf_counter() - t_build
    setup_cpu_s = cpu_seconds()
    setup_raw = setup_scaled = None
    if not args.trace:
        setup_raw, setup_scaled = setup_seconds(args)

    passes = []
    pass_roots = []  # per traced pass: the indices of its op spans
    noise_keys = None
    calibration_seconds(CAL_STEPS)  # warm-up
    clock = OpClock()
    counter.checkpoint = clock.checkpoint
    t_begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        ins = tracer if traced else counter
        if traced and noise_keys is None:
            tracer.noise_keys = []
        steps_before = ins.counts["forward.path_steps"]
        p = {"traced": traced, "wall": 0.0, "op_scaled": [], "outcomes": []}
        roots = []
        cpu0, t_pass = cpu_seconds(), time.perf_counter()
        with ins:
            for name, fn in ops:
                clock.begin()
                if traced:
                    roots.append(spans.open(f"bench.{name}"))
                out = call_op(fn)
                if traced:
                    spans.close(roots[-1])
                    tracer.counts.update(out.counts)
                raw, scaled = clock.end()
                p["wall"] += raw
                p["op_scaled"].append(scaled)
                p["outcomes"].append((name, out))
        p["cpu_per_wall"] = (cpu_seconds() - cpu0) / (time.perf_counter() - t_pass)
        p["path_steps"] = ins.counts["forward.path_steps"] - steps_before
        if traced:
            pass_roots.append(roots)
            if noise_keys is None:
                noise_keys, tracer.noise_keys = tracer.noise_keys, None
        passes.append(p)
        print(f"pass {len(passes)} ({'traced' if traced else 'untraced'}): "
              f"{p['wall']:.4f} s, {sum(p['op_scaled']):.4f} s at the reference speed",
              flush=True)
        enough = len(passes) >= (2 if tracer is not None else MIN_PASSES)
        elapsed = time.perf_counter() - t_begin
        per_pass = elapsed / len(passes)
        if enough and elapsed + per_pass > args.seconds:
            break

    # output checks: reference digests at the default seed, and every pass
    # must reproduce the first
    first = passes[0]["outcomes"]
    if args.write_digests:
        store_reference(args.workload, args.seed, first)
    reference = (load_reference(args.workload)
                 if args.seed == workloads.DEFAULT_SEED else None)
    for i, p in enumerate(passes):
        for (name, out), (_, out0) in zip(p["outcomes"], first):
            if i == 0 and reference is not None:
                key = digest_mismatch(out.digests, reference.get(name, {}))
                where = "reference"
            else:
                key = digest_mismatch(out.digests, out0.digests)
                where = "first pass"
            if key is not None:
                out.ok = False
                out.detail += f"; digest {key} differs from the {where}"

    attempted = sum(len(p["outcomes"]) for p in passes)
    failed = sum(not o.ok for p in passes for _, o in p["outcomes"])
    defects = {name: o.defect for name, o in first if o.defect}
    for name, out in first:
        status = "ok" if out.ok else "FAILED"
        print(f"op {name:<20} {status:<6} {out.detail}")
    for p_i, p in enumerate(passes[1:], 2):
        for name, out in p["outcomes"]:
            if not out.ok:
                print(f"op {name:<20} FAILED in pass {p_i}: {out.detail}")

    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        metrics, units = traced_metrics(spans, tracer, pass_roots, passes,
                                        noise_keys, import_s, build_s,
                                        setup_cpu_s)
    else:
        metrics = {
            "setup_s": setup_scaled,
            "wall_s": pass_seconds(plain),
            "path_steps_per_s": statistics.median(
                p["path_steps"] for p in plain) / pass_seconds(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = E2E_UNITS
        print(f"unscaled: setup {setup_raw:.6g} s, pass median "
              f"{statistics.median(p['wall'] for p in plain):.6g} s")

    for key, value in metrics.items():
        print(f"metric {key:<30} {value:.6g} {units[key]}")
    print(f"metric {'failed_op_frac':<30} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops)")
    print(f"defect_ops {len(defects)}" + "".join(
        f"; {name}: {text}" for name, text in defects.items()))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    outdir = BENCH / "out"
    outdir.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    record = dict(result, env=env, defects=defects,
                  failed_op_frac=failed / attempted,
                  setup_raw_s=setup_raw,
                  passes=[{"traced": p["traced"], "wall_s": p["wall"],
                           "op_scaled_s": p["op_scaled"],
                           "ops": {n: {"ok": bool(o.ok), "detail": o.detail}
                                   for n, o in p["outcomes"]}}
                          for p in passes])
    (outdir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        spans.save(str(outdir / f"spans_{args.workload}_seed{args.seed}.npz"))
    print(json.dumps(result))
    return 0


def pass_seconds(passes) -> float:
    """Time of one pass at the reference speed: the sum over ops of each
    op's median scaled time, so one op timed across a speed change moves
    only its own term."""
    return sum(statistics.median(ops) for ops in zip(*(p["op_scaled"] for p in passes)))


def traced_metrics(spans, tracer, pass_roots, passes, noise_keys, import_s,
                   build_s, setup_cpu_s):
    import instrument
    m = instrument.layer_metrics(spans, tracer.counts, pass_roots)
    layers = sum(m[f"{layer}.self_s"]
                 for layer in instrument.LAYERS + ("other",))
    if abs(layers - m["trace.wall_s"]) > 1e-6 * m["trace.wall_s"]:
        raise RuntimeError(f"layer self times sum to {layers}, traced wall "
                           f"is {m['trace.wall_s']}")
    traced = pass_seconds([p for p in passes if p["traced"]])
    untraced = pass_seconds([p for p in passes if not p["traced"]])
    m.update({
        "forward.noise_probe_s": instrument.replay_noise(noise_keys),
        "model.build_s": build_s,
        "setup.import_s": import_s,
        "process.cpu_s": setup_cpu_s,
        "process.pass_cpu_per_wall": statistics.median(
            p["cpu_per_wall"] for p in passes if not p["traced"]),
        "trace.overhead_frac": traced / untraced - 1.0,
    })
    units = {key: unit_of(key) for key in m}
    return m, units


def unit_of(key: str) -> str:
    if key.endswith(("_s", ".s")):
        return "s"
    if key.endswith("_us_per_step") or key.endswith("_us_per_call"):
        return "us"
    if key.endswith("ns_per_path_step"):
        return "ns"
    if key.endswith("_bytes"):
        return "B"
    if key.endswith(("_frac", "_fill", "_per_wall")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# All workloads
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
