#!/usr/bin/env python3
"""gradstyle benchmark: artistic, photoreal and train workloads through the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload artistic --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

Each workload runs in one process, as a closed loop with one caller: an
operation is one in-process `gradstyle.cli.main([...])` call on generated
files, and the next starts when it returns. `--trace 0` reports the
end-to-end metrics. `--trace 1` runs every input twice, untraced and traced
(alternating which goes first), and reports the per-layer metrics of
tracer.py. Every operation's outputs are checked; a failed check, a non-zero
exit or an exception counts the operation as failed. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. BLAS runs at its default thread count, which the run records.
"""

import time

T_START = time.perf_counter()          # setup_s counts from here

import argparse                        # noqa: E402
import json                            # noqa: E402
import os                              # noqa: E402
import resource                        # noqa: E402
import shutil                          # noqa: E402
import statistics                      # noqa: E402
import subprocess                      # noqa: E402
import sys                             # noqa: E402

import tracer                          # noqa: E402
import workloads                       # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.npz")
DEFAULT_SEED = 0                       # the seed golden outputs exist for
SETUP_SAMPLES = 3                      # this process plus two fresh ones
NAMES = ("artistic", "photoreal", "train")

END_TO_END = {"mpx_per_s": "MP/s", "op_s_p50": "s", "peak_rss_mb": "MB",
               "ok_frac": "frac", "setup_s": "s"}
# printed, but not in the JSON result: the p90 of 5-20 operations moved by
# up to 24% between runs of the same code on a 2-vCPU VM
REPORTED = {**END_TO_END, "op_s_tail": "s"}


def import_program():
    """Import gradstyle from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "gradstyle", "cli.py")):
        sys.exit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, SRC)
    import gradstyle.cli
    if not os.path.abspath(gradstyle.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported {gradstyle.cli.__file__}, not {SRC}")
    return gradstyle.cli


def environment() -> dict:
    import platform

    import numpy
    import scipy
    info = {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu": _first_line("/proc/cpuinfo", "model name"),
            "l3": _first_line("/sys/devices/system/cpu/cpu0/cache/index3/size"),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_env"] = {k: os.environ[k] for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ}
    info["blas_threads"], info["blas_threads_from"] = _blas_threads()
    return info


def _first_line(path, prefix=""):
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip()
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the environment."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn(), f"{os.path.basename(path)}:{sym}"
    env = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return (int(env), "environment") if env else (None, "unknown")


def load_golden(seed):
    if seed != DEFAULT_SEED:
        return None
    import numpy as np
    with np.load(GOLDEN) as data:
        return {k: data[k] for k in data.files}


def call(cli, argv):
    """(exit code or failure reason, wall s, cpu s) of one CLI call."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        rc = cli.main(argv)
    except (Exception, SystemExit) as err:   # a raising operation failed
        rc = f"raised {type(err).__name__}: {err}"
    return rc, time.perf_counter() - t0, time.process_time() - c0


class Run:
    """One workload in one process: set-up, warm-up, timed closed loop."""

    def __init__(self, cli, name, seed, work, golden):
        self.cli, self.name = cli, name
        self.wl = workloads.WORKLOADS[name](name, work, seed, golden)
        self.wl.build()
        self.attempted = self.failed = 0
        self.op("warmup", counted=False)
        self.setup_s = time.perf_counter() - T_START

    def op(self, key, trace=None, counted=True):
        """Run and check one operation, traced if a Tracer is given;
        returns (ok, wall s, cpu s)."""
        argv = self.wl.argv(key)
        if trace is not None:
            trace.install()
        try:
            rc, wall, cpu = call(self.cli, argv)
        finally:
            if trace is not None:
                trace.uninstall()
        reason = rc if isinstance(rc, str) else self.wl.check(key, rc)
        if reason is not None:
            print(f"perfbench: {self.name} input {key}: {reason}",
                  file=sys.stderr)
        if counted:
            self.attempted += 1
            self.failed += reason is not None
        return reason is None, wall, cpu

    def timed(self, seconds):
        lat, k = [], 0
        start = time.perf_counter()
        while k == 0 or time.perf_counter() - start < seconds:
            ok, wall, _ = self.op(self.wl.key(k))
            if ok:
                lat.append(wall)
            k += 1
        elapsed = time.perf_counter() - start
        print(f"{self.name:9s} latencies_s {json.dumps(lat)}")
        ok_ops = len(lat)
        lat = lat or [elapsed / k]
        # p90, not the highest percentile with 10 samples beyond it: a run
        # completes 5-20 operations, too few for any such percentile above
        # the median
        tail = statistics.quantiles(lat, n=10, method="inclusive")[-1] \
            if len(lat) > 1 else lat[0]
        notes = {"op_s_p50": f"median of n={ok_ops}",
                 "op_s_tail": f"p90 of n={ok_ops}; not in the JSON result",
                 "ok_frac": f"{ok_ops} of {k} ok; failed_frac "
                            f"{self.failed / self.attempted}"}
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        return {"mpx_per_s": ok_ops * self.wl.mpx() / elapsed,
                "op_s_p50": statistics.median(lat), "op_s_tail": tail,
                "peak_rss_mb": rss, "ok_frac": ok_ops / k}, notes

    def traced(self, seconds, spans_path):
        trace = tracer.Tracer()
        ratios, wall_sum, cpu_sum, k = [], 0.0, 0.0, 0
        start = time.perf_counter()
        while k == 0 or time.perf_counter() - start < seconds:
            key = self.wl.key(k)
            walls = {}
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                trace.op = k
                _, wall, cpu = self.op(key, trace if traced else None)
                walls[traced] = wall
                if not traced:
                    wall_sum, cpu_sum = wall_sum + wall, cpu_sum + cpu
            trace.ops += 1
            ratios.append(walls[True] / walls[False])
            k += 1
        trace.dump(spans_path)
        metrics = trace.metrics()
        metrics["proc.cpu_util"] = cpu_sum / wall_sum
        metrics["proc.trace_overhead_frac"] = statistics.median(ratios) - 1.0
        notes = {"proc.trace_overhead_frac": f"median of {k} pairs",
                 "trace.exceptions": json.dumps(dict(trace.exceptions))}
        return metrics, notes


def setup_samples(name, seed):
    """set-up seconds of fresh processes running --setup-only."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def run_one(args):
    cli = import_program()
    work = os.path.join(HERE, "work",
                        f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(work)
    try:
        run = Run(cli, args.workload, args.seed, work, load_golden(args.seed))
        if args.setup_only:
            print(json.dumps({"setup_s": run.setup_s}))
            return 0
        print("env " + json.dumps(environment()))
        if args.trace:
            out_dir = os.path.join(HERE, "out")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(
                out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics, notes = run.traced(args.seconds, spans)
            units = gated = tracer.PER_LAYER
            print(f"spans written to {os.path.relpath(spans, ROOT)}")
        else:
            metrics, notes = run.timed(args.seconds)
            samples = [run.setup_s] + setup_samples(args.workload, args.seed)
            metrics["setup_s"] = statistics.median(samples)
            notes["setup_s"] = f"median of {len(samples)} processes"
            units, gated = REPORTED, END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("checks: " + ("invariants and golden outputs" if run.wl.golden else
                        f"invariants only (golden outputs exist for seed "
                        f"{DEFAULT_SEED})"))
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload:9s} {name:44s} {metrics[name]!r} {unit}{note}")
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n], "unit": u}
                    for n, u in units.items() if n in gated}}))
    return 0


def run_all(args):
    """Each workload in its own process; one result object per workload."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def record_golden():
    """Rewrite golden.npz from the outputs of the current program, seed 0."""
    import numpy as np

    cli = import_program()
    out = {}
    for name in NAMES:
        work = os.path.join(HERE, "work", f"golden-{name}-pid{os.getpid()}")
        os.makedirs(work)
        try:
            run = Run(cli, name, DEFAULT_SEED, work, golden=None)
            for key in run.wl.golden_keys:
                ok, _, _ = run.op(key)
                if not ok:
                    raise RuntimeError(f"{name} input {key} failed")
                out[f"{name}.{key}"] = run.wl.result(key)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    np.savez_compressed(GOLDEN, **out)
    print(f"wrote {len(out)} golden outputs to {os.path.relpath(GOLDEN, ROOT)}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    ap.add_argument("--record-golden", action="store_true",
                    help="rewrite golden.npz from the current program")
    args = ap.parse_args(argv)
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        ap.error("--workload is required")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
