#!/usr/bin/env python3
"""Recompute bench/digests.json: the digest of every workload's serialised outputs per seed.

The pins hold the serialisers to byte-stable output, so recompute them only
when the workloads themselves change, from the repository root:

    python3 bench/pin_digests.py
"""

import json

import run
from workloads import WORKLOADS

SEEDS = range(32)


def main() -> None:
    pins: dict[str, dict[str, str]] = {}
    for workload in sorted(WORKLOADS):
        for seed in SEEDS:
            _, lib, requests = run.set_up(workload, seed)
            result = run.run_pass(lib, workload, requests, None, "pin")
            if result["problems"]:
                raise SystemExit(f"{workload} seed {seed}: {result['problems'][0]}")
            pins.setdefault(workload, {})[str(seed)] = result["digest"]
            print(workload, seed, result["digest"], flush=True)
    (run.BENCH / "digests.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
