"""Write bench/digests.json: the report digests of every workload at the
default seed, which ``run.py`` checks each pass against.

    python3 bench/record_digests.py

Run it only when the report bytes are meant to change; it refuses to
record a curve that raises or whose verdict is not all-pass.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, spawn
import workloads


def main() -> int:
    seed = workloads.DEFAULT_SEED
    table = {"seed": seed, "workloads": {}}
    for name, workload in workloads.WORKLOADS.items():
        docs = workloads.generate(name, seed)
        result = spawn("plain", {"path": workload.path, "docs": docs})[1]
        if result["errors"] or not all(result["verdicts"]):
            print(f"{name}: not every curve passes; nothing recorded", file=sys.stderr)
            return 1
        table["workloads"][name] = result["digests"]
        print(f"{name}: {len(docs)} digests")
    (BENCH / "digests.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
