"""Record the output digests that perfbench/run.py checks each pass against.

Run from the repository root, at a commit whose outputs are trusted:

    python3 perfbench/record_digests.py --seeds 0-11
    python3 perfbench/record_digests.py --seeds 0-11 --workload cgl-audit

For every workload and seed it runs one checked pass, refuses to record a
pass with a failed task, and merges the SHA-256 of the pass's canonical
JSON outputs into perfbench/digests.json.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, required=True, help="a seed or a range such as 0-11")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), action="append")
    args = ap.parse_args(argv)
    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    lib = run.load_library()
    for name in args.workload or sorted(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        for seed in args.seeds:
            inputs = wl.make_inputs(lib, seed)
            res = run.one_pass(lib, wl, inputs, check=True, probed=False)
            if res.errors:
                print(f"{name} seed {seed}: not recorded, failed tasks {res.errors}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = res.digest
            print(f"{name} seed {seed}: {res.digest}", flush=True)
            run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
