"""Write expected.json: exit codes and stdout digests of every job.

    python3 perfbench/record.py

Run it on the commit whose outputs are the reference.  Deterministic
jobs get one digest; Monte Carlo jobs get one digest per seed of SEEDS,
plus the exact target and the d list that every seed must reproduce.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = range(10)


def main() -> int:
    entries = {}
    for jobs in run.WORKLOADS.values():
        for job in jobs:
            seeds = SEEDS if job.check == "montecarlo" else [0]
            entry: dict = {}
            for seed in seeds:
                o = run.run_job(f"record:{job.name}:{seed}", job.argv(seed),
                                False, job.timeout_s)
                if o.errors:
                    print(f"{job.name} seed {seed}: {o.errors}", file=sys.stderr)
                    return 1
                entry["rc"] = o.rc
                if job.check != "montecarlo":
                    entry["sha256"] = o.digest
                    continue
                reports = [json.loads(line) for line in o.stdout.decode().splitlines()]
                targets = {r["exact_target"] for r in reports}
                if len(targets) != 1:
                    print(f"{job.name}: exact targets {targets}", file=sys.stderr)
                    return 1
                entry["exact_target"] = targets.pop()
                entry["d"] = [r["d"] for r in reports]
                entry.setdefault("sha256_by_seed", {})[str(seed)] = o.digest
            entries[job.name] = entry
            print(job.name, json.dumps(entry), flush=True)
    run.EXPECTED.write_text(json.dumps({"jobs": entries}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
