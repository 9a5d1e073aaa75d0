"""The thetal benchmark: cold, checked passes of one workload.

    python3 perfbench/run.py --workload registry-20 --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, so nothing is installed or built.  Workloads and metrics are
declared in ``BENCHMARK.json`` and described in ``perfbench/README.md``.

A run starts passes of the workload one after another, each in a fresh
interpreter, for about ``--seconds``: it stops when the next pass would end
more than half a pass past them.  Before each pass and after the last, it
times interpreter start-up plus ``import thetal.identities`` three times
(``setup_s``).  Every pass checks its outputs.  A pass's times are scaled
to a host of reference speed (``perfbench/speed.py``); set-up times are
not, because start-up and the numpy import slow down on a busy host
otherwise than arithmetic does.  With ``--trace 0`` the run reports the
median of each end-to-end metric over its passes.  With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones (medians, unscaled), the tracing overhead, and whether
tracing changed any output.

The lines before the last are for people, and one ``record`` line holds the
whole result with the environment for ``perfbench/compare.py``.  The last
line is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from one_pass import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # before each pass, and after the last
DEADLINE_S = 170  # a run must exit within 180 s


def environment(env) -> dict:
    probe = ("import json, os, platform, mpmath, numpy; print(json.dumps({"
             "'python': platform.python_version(), 'mpmath': mpmath.__version__, "
             "'backend': mpmath.libmp.BACKEND, 'numpy': numpy.__version__, "
             "'nproc': len(os.sched_getaffinity(0))}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def time_setup(env) -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import thetal.identities"],
                   env=env, cwd=ROOT, check=True)
    return perf_counter() - start


def run_pass(workload, seed, trace, env, deadline):
    """Run one pass in its own process group; None if it crashed or hung."""
    cmd = [sys.executable, str(HERE / "one_pass.py"), workload, str(seed),
           "1" if trace else "0"]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pass and anything it started
        proc.communicate()
        print(f"pass of {workload} killed at the run deadline", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.strip():
        print(f"pass of {workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "thetal" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a source checkout with src/thetal and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    begin = perf_counter()
    deadline = begin + DEADLINE_S
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    # setup_s times an import from bytecode caches, as an installed package
    # has them, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env_info = environment(env)
    time_setup(env)  # untimed: writes bytecode caches in a fresh checkout
    setup_samples = 0 if args.trace else SETUP_SAMPLES

    # setup samples are spread over the run, so that host drift moves them
    # as it moves the passes
    setup, passes = [], []  # passes: (traced, result or None)
    step = 0.0  # the longest step so far
    measure_start = perf_counter()
    while True:
        step_start = perf_counter()
        setup += [time_setup(env) for _ in range(setup_samples)]
        # in a traced run, alternate which side of each pair goes first
        order = (False,) if not args.trace else \
            ((False, True) if len(passes) % 4 == 0 else (True, False))
        for side in order:
            passes.append((side, run_pass(args.workload, args.seed, side,
                                          env, deadline)))
        # stop unless the next step would end less than half a step past
        # --seconds, so that a run lasts about --seconds
        step = max(step, perf_counter() - step_start)
        if (perf_counter() - measure_start + step / 2 > args.seconds
                or perf_counter() + step > deadline):
            break
    setup += [time_setup(env) for _ in range(setup_samples)]

    done = [(t, r) for t, r in passes if r is not None]
    attempted = sum(r["attempted"] for _, r in done) + len(passes) - len(done)
    failed = sum(len(r["failed"]) for _, r in done) + len(passes) - len(done)
    fingerprints = {r["fingerprint"] for _, r in done}
    plain = [r for t, r in done if not t]
    traced = [r for t, r in done if t]
    if not plain or (args.trace and not traced):
        print("perfbench: no pass completed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead"] = (
            median(r["measured_run_s"] for r in traced)
            / median(r["measured_run_s"] for r in plain) - 1)
    else:
        metrics = {name: median(r[name] for r in plain)
                   for name in ("run_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = median(setup)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "differ from BENCHMARK.json")

    # tracing must not change a result, and neither may a repeat
    correct = failed == 0 and len(fingerprints) == 1
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env_info, "correct": correct,
        "outputs_identical": len(fingerprints) == 1,
        "failed_checks": sorted({c for _, r in done for c in r["failed"]}),
        "metrics": metrics, "setup_samples": setup,
        "passes": [dict(r, traced=t) if r else None for t, r in passes],
        "wall_s": perf_counter() - begin,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} ({len(traced)} traced)")
    print("env " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    for name in sorted(metrics):
        print(f"{name:36s} {metrics[name]:.6g} {units[name]}")
    print(f"{'failed_frac':36s} {failed / attempted:.6g} ({failed}/{attempted} checks)")
    print(f"{'outputs_identical':36s} {len(fingerprints) == 1}")
    if plain[0]["speed"]:
        print(f"{'unscaled run_s, cpu_s; host speed':36s} "
              f"{median(r['measured_run_s'] for r in plain):.6g} s, "
              f"{median(r['measured_cpu_s'] for r in plain):.6g} s; "
              f"{median(r['speed'] for r in plain):.4g}")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]}
                    for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
