#!/usr/bin/env python3
"""Compare two sets of perfbench results.

Each run of the benchmark saves a record with its host fingerprint to
`.perfbench-out/result-<workload>-<seed>-<trace>.json`. Copy the records
of the base and the head commit into two directories (or list the files)
and run:

    python3 perfbench/compare.py BASE_DIR_OR_FILES... --head HEAD_DIR_OR_FILES...

For every (workload, metric) the tool prints each side's median, the
head/base ratio and the base's own spread (quartile distance over
median). It refuses to compare records whose hosts differ: the CPU
model, core count, kernel and rustc version must all match, because the
same code measured on two hosts differs by more than most changes do.
"""

import json
import os
import statistics
import sys

HOST_KEYS = ("cpu", "nproc", "kernel", "rustc")


def load(paths):
    records = []
    for path in paths:
        names = (
            [os.path.join(path, n) for n in sorted(os.listdir(path)) if n.startswith("result-")]
            if os.path.isdir(path)
            else [path]
        )
        for name in names:
            with open(name, encoding="utf-8") as f:
                records.append(json.load(f))
    return records


def host_of(record):
    return tuple(record["host"].get(k) for k in HOST_KEYS)


def medians(records):
    by_key = {}
    for r in records:
        for name, metric in r["result"]["metrics"].items():
            key = (r["workload"], r["trace"], name)
            by_key.setdefault(key, []).append(metric["value"])
    return by_key


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("nan")


def main(argv):
    if "--head" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--head")
    base, head = load(argv[:split]), load(argv[split + 1 :])
    if not base or not head:
        print("compare: no result records on one side", file=sys.stderr)
        return 2
    hosts = {host_of(r) for r in base + head}
    if len(hosts) != 1:
        print("compare: refusing to compare results from different hosts:", file=sys.stderr)
        for h in sorted(hosts, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, h)), file=sys.stderr)
        return 3
    failed = [r for r in base + head if not r["result"]["correct"]]
    if failed:
        print(f"compare: {len(failed)} run(s) reported incorrect outputs", file=sys.stderr)
    b, h = medians(base), medians(head)
    print(f"{'workload':<9} {'metric':<34} {'base':>12} {'head':>12} {'head/base':>10} {'base spread':>12}")
    for key in sorted(b.keys() & h.keys()):
        workload, trace, name = key
        bm, hm = statistics.median(b[key]), statistics.median(h[key])
        ratio = hm / bm if bm else float("nan")
        label = name if not trace else f"{name} (traced)"
        print(f"{workload:<9} {label:<34} {bm:>12.5g} {hm:>12.5g} {ratio:>10.3f} {spread(b[key]):>12.3f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
