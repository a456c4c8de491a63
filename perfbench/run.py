"""bcscan benchmark: one workload, measured from outside the program.

    python3 perfbench/run.py --workload catalogue --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Every iteration is a fresh interpreter (worker.py) started one at a
time, with ``OMP_NUM_THREADS=1`` and ``OPENBLAS_NUM_THREADS=1`` and the
scan pinned to one worker, so each pays its own cold caches.  A
discarded warm-up compiles the ``.pyc`` files, then iterations run for
about ``--seconds`` (at least one).  Untraced runs sample set-up several
times before the first iteration and after each one.
Every output is checked against ``perfbench/reference.json``.

``--trace 0`` reports the end-to-end metrics (medians over iterations);
``--trace 1`` alternates plain and traced iterations and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  The
last line of standard output is the JSON result; the lines before it
give quartiles and sample counts, the environment, and any failures.
Details go to ``perfbench/out/``.  Exit status 2: nothing measured.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("catalogue", "dual-route", "bigfield")

# set-up-only children before the first iteration and after each plain
# one: about twenty per run, spread over it so that drift within the run
# averages out of their median
SETUP_SAMPLES = 4
# one run, set-up samples included, must end well inside three minutes
CHILD_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _layer_metrics() -> dict[str, str]:
    per = {
        "herbrand.classify_index": ("calls",),
        "herbrand.classify_prime": ("self_s",),
        "poly.residue_field": ("calls", "calls_per_prime"),
        "carlitz.bc_numbers": ("calls", "calls_per_prime"),
        "series.TruncSeries.__mul__": ("calls", "self_s"),
        "series.TruncSeries.inverse": ("calls", "total_s"),
        "lseries.pic_eigenspace_length": ("calls", "self_s"),
        "lseries.character_context": ("calls", "self_s", "escalations"),
        "witt.WittRing.teichmuller": ("total_s",),
        "localfield.local_model": ("total_s",),
        "localfield.LocalModel.galois_rows": ("total_s",),
        "localfield.LocalModel.dlog_matrix": ("total_s",),
        "localfield.bc_local_sweep": ("calls", "self_s", "calls_per_prime"),
        "fields.ResidueField": ("calls", "total_s"),
        "poly.monic_irreducibles": ("total_s",),
        "emit.emit": ("total_s",),
    }
    units = {"calls": "count", "escalations": "count", "calls_per_prime": "calls/prime"}
    out = {
        f"{layer}.{stat}": units.get(stat, "s")
        for layer, stats in per.items()
        for stat in stats
    }
    out[OVERHEAD] = "s"
    return out


OVERHEAD = "trace.overhead_s"  # traced minus plain wall_s, medians of one run
PER_LAYER = _layer_metrics()


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("BCSCAN_THREADS", None)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def spawn(args: list[str], env: dict[str, str], timeout: float) -> dict:
    """Run one worker to completion; its result plus set-up time and peak RSS."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    res = json.loads(out.decode().splitlines()[-1])
    res["setup_s"] = res["ready"] - t_spawn
    res["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # kilobytes on Linux
    return res


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def summary(values: list[float], count: bool = False) -> dict:
    """Median and quartiles with the sample count; a count's median is
    one of its samples, so it stays a whole number."""
    med = statistics.median_low(values) if count else statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def tag(args) -> str:
    """Names a run's files, so tiny self-test runs never overwrite full ones."""
    return f"{args.workload}-{args.size}-seed{args.seed}"


def measure(args, workdir: str) -> dict:
    env = child_env()
    started = time.monotonic()
    deadline = started + args.seconds

    def remaining() -> float:
        return CHILD_TIMEOUT_S - (time.monotonic() - started)

    base = ["--workload", args.workload, "--size", args.size]
    spawn(base + ["--setup-only"], env, remaining())  # warm-up, discarded
    setups = []

    def sample_setup() -> None:
        setups.extend(spawn(base + ["--setup-only"], env, remaining())["setup_s"]
                      for _ in range(SETUP_SAMPLES))

    if not args.trace:
        sample_setup()

    run_args = base + ["--seed", str(args.seed), "--workdir", workdir]
    spans = os.path.join(OUT, f"spans-{tag(args)}.jsonl.gz")
    plain, traced = [], []
    steps = {False: [], True: []}  # seconds per loop step, untraced and traced
    while True:
        tracing = bool(args.trace) and len(traced) < len(plain)
        extra = []
        if tracing:
            extra = ["--trace", "1"] + ([] if traced else ["--spans", spans])
        t_step = time.monotonic()
        (traced if tracing else plain).append(spawn(run_args + extra, env, remaining()))
        if not args.trace:
            sample_setup()
        steps[tracing].append(time.monotonic() - t_step)
        if args.trace and not traced:
            continue
        # start another step while at least half of it fits, taking the
        # median one of its kind so far as its length: runs then last about
        # --seconds on average, and one slow iteration costs no sample
        upcoming = steps[bool(args.trace) and len(traced) < len(plain)]
        if time.monotonic() + statistics.median(upcoming) / 2 > deadline:
            break
    return {"setups": setups + [r["setup_s"] for r in plain + traced],
            "plain": plain, "traced": traced}


def report(args, samples: dict) -> dict:
    plain, traced = samples["plain"], samples["traced"]
    runs = plain + traced
    if args.trace:
        units = PER_LAYER
        stats = {
            name: summary([r["layers"][name] for r in traced], PER_LAYER[name] == "count")
            for name in PER_LAYER if name != OVERHEAD
        }
        stats[OVERHEAD] = summary(
            [statistics.median(r["wall_s"] for r in traced)
             - statistics.median(r["wall_s"] for r in plain)])
    else:
        units = END_TO_END
        stats = {
            "wall_s": summary([r["wall_s"] for r in plain]),
            "cpu_s": summary([r["cpu_s"] for r in plain]),
            "setup_s": summary(samples["setups"]),
            "peak_rss_mb": summary([r["peak_rss_mb"] for r in plain]),
        }
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "stats": stats,
        "units": units,
        "failures": sorted({f for r in runs for f in r["failures"]})[:20],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the same code on small inputs, for the self-tests")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    # on SIGTERM unwind normally, so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "bcscan", "__init__.py")):
        print(f"perfbench: no bcscan sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env_info = environment()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        samples = measure(args, workdir)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rep = report(args, samples)

    print(f"env {json.dumps(env_info)}")
    for name, st in rep["stats"].items():
        print(f"{name:<48} median {st['median']:<12.6g} q1 {st['q1']:<12.6g} "
              f"q3 {st['q3']:<12.6g} n {st['n']:<3} {rep['units'][name]}")
    print(f"fail_ratio {rep['fail_ratio']} ({rep['failed']} of {rep['attempted']} primes)")
    for line in rep["failures"]:
        print(f"FAILED {line}")
    detail = {"args": vars(args), "env": env_info, **rep, "samples": samples}
    with open(os.path.join(OUT, f"result-{tag(args)}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({
        "correct": rep["correct"],
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {name: {"value": st["median"], "unit": rep["units"][name]}
                    for name, st in rep["stats"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
