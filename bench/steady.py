"""Steadiness mode: run every workload N times, twice over, and report
each end-to-end metric's median, quartiles and spread against its bound.

    python3 bench/steady.py --runs 10

Run i of a set uses seed i + 1, as separate benchmark runs with another
seed each would; the workload order alternates from run to run so that
slow drift of the machine does not fall on one workload.  The spread is
(q3 - q1) / median with the quartiles of ``statistics.quantiles(values,
n=4)``; a metric is steady when its spread is below a third of its bound
(``setup_s`` is exempt from the spread test).  The runs are made in two
sets, and the second set's median must not be worse than the first's by
more than the bound, which shows that two sets of runs of the same code
agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT
import workloads

SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr.strip()}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: output check failed\n{out.stdout}")
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = config["end_to_end"]
    names = list(workloads.WORKLOADS)

    values = {(s, w, m["name"]): [] for s in range(SETS) for w in names for m in specs}
    for s in range(SETS):
        for i in range(args.runs):
            seed = i + 1
            order = names if (s * args.runs + i) % 2 == 0 else names[::-1]
            for w in order:
                result = run_once(w, seed, config["run_seconds"])
                for m in specs:
                    values[(s, w, m["name"])].append(result["metrics"][m["name"]]["value"])
                print(json.dumps({"set": s, "run": i, "seed": seed, "workload": w,
                                  "metrics": {k: v["value"] for k, v in result["metrics"].items()}}),
                      flush=True)

    ok = True
    for w in names:
        for m in specs:
            bound = m["bound"]
            medians = []
            for s in range(SETS):
                q1, med, q3, sp = spread(values[(s, w, m["name"])])
                medians.append(med)
                steady = m["name"] == "setup_s" or sp < bound / 3
                ok &= steady
                print(f"{w:<13} {m['name']:<13} set {s}: median {med:.5g} q1 {q1:.5g} q3 {q3:.5g} "
                      f"spread {sp:.4f} bound {bound} {'ok' if steady else 'NOT STEADY'}")
            worse = (medians[1] - medians[0]) / medians[0]
            if m["better"] == "higher":
                worse = -worse
            agree = worse <= bound
            ok &= agree
            print(f"{w:<13} {m['name']:<13} second median worse by {worse:+.4f} "
                  f"(bound {bound}) {'ok' if agree else 'DISAGREE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
