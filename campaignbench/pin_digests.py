#!/usr/bin/env python3
"""Regenerates campaignbench/digests.tsv, the pinned expected outputs.

    python3 campaignbench/pin_digests.py [--seeds 0-31] [--jobs 3]

For every workload and benchmark seed it runs each of the seed's campaigns
once through CampaignRunner and once through the independent
re-composition, and pins the Table 5 cells digest (and, for store-parallel,
the artifact-set digest) only when the two agree and the paper's Table 5
shape holds. Re-pin only after a change that is meant to alter campaign
results, and say so in the change.
"""
import argparse
import concurrent.futures
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def pin(workload, size, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--print-digest",
         "--workload", workload, "--seed", str(seed), "--size", size,
         "--digests", ""],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} {size} seed {seed}: {proc.stderr.strip()}")
    return proc.stdout.strip().splitlines()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0-31",
                    help="inclusive range A-B of benchmark seeds")
    ap.add_argument("--jobs", type=int, default=3,
                    help="benchmark processes at a time")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    workloads = [w["name"] for w in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    sys.path.insert(0, str(HERE))
    import run  # noqa: E402  (build once before fanning out)
    run.build()
    jobs = [(w, "full", s) for w in workloads for s in range(lo, hi + 1)]
    jobs += [(w, "tiny", 1) for w in workloads]  # the smoke test's runs
    lines = ["# workload size campaign_seed cells_digest artifacts_digest "
             "(written by pin_digests.py)"]
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        for out in pool.map(lambda j: pin(*j), jobs):
            print("\n".join(out), flush=True)
            lines += out
    (HERE / "digests.tsv").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
