"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/run.py ... >> base.txt      # on the parent commit
    python3 perfbench/run.py ... >> change.txt    # on the change
    python3 perfbench/compare.py base.txt change.txt

Each file holds the output of any number of runs; only their ``record``
lines are read.  Results measured with different mpmath backends are not
comparable (gmpy2 and pure Python differ several-fold), so the comparison
is refused when the backends differ.  For every end-to-end metric in
``BENCHMARK.json`` it prints each side's median and quartile spread and
flags a change that is worse than the metric's bound, or whose runs failed
a check.  It exits 1 when anything is flagged, 2 when it refuses to
compare.
"""

import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    records = [json.loads(line[len("record "):])
               for line in Path(path).read_text().splitlines()
               if line.startswith("record ")]
    return [r for r in records if r["trace"] == 0]


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    backends = {r["env"]["backend"] for r in base + change}
    if len(backends) != 1:
        print(f"refusing to compare: mpmath backends differ {sorted(backends)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = 0
    print(f"{'workload':18s} {'metric':12s} {'base':>10s} {'change':>10s} "
          f"{'delta':>8s} {'bound':>6s} {'spreads':>13s}  n")
    for w in [w["name"] for w in spec["workloads"]]:
        b = [r for r in base if r["workload"] == w]
        c = [r for r in change if r["workload"] == w]
        if not b or not c:
            continue
        wrong = sum(not r["correct"] for r in c)
        if wrong:
            print(f"{w:18s} {wrong} of {len(c)} change runs failed a check  WORSE")
            worse += 1
        for m in spec["end_to_end"]:
            bv = [r["metrics"][m["name"]] for r in b]
            cv = [r["metrics"][m["name"]] for r in c]
            delta = median(cv) / median(bv) - 1
            loss = delta if m["better"] == "lower" else -delta
            flag = "WORSE" if loss > m["bound"] else ""
            worse += bool(flag)
            print(f"{w:18s} {m['name']:12s} {median(bv):10.4g} {median(cv):10.4g} "
                  f"{delta:+8.3f} {m['bound']:6.2f} {spread(bv):6.3f}/{spread(cv):6.3f}"
                  f"  {len(bv)}/{len(cv)} {flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
