#!/usr/bin/env python3
"""Runs the benchmark binary repeatedly and applies the comparison rules.

Called by ab.sh and agree.sh, which build the binaries first:

  compare.py ab <parent-tree> <change-tree> [workload ...]
  compare.py agree <tree> <out.json> [workload ...]

Bounds, workloads and run length come from the BENCHMARK.json of the tree
this script sits in, so both sides of a comparison are judged by one file.
Every run is one workload in one process; runs never overlap.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}
PAIRS = 10
FIRST_SEED = 4357
UNSEEN_SEED = 90210
# Per-layer metrics that are counts made by the program: they must repeat
# exactly between two runs of one build on one seed.
EXACT = [
    "env.neighbors_per_agent",
    "core.static_skip_ratio",
    "core.force_calcs_per_iter",
    "core.added",
    "core.removed",
    "core.sorts",
]


def binary(tree):
    return os.path.join(tree, ".bench_build", "release", "perfbench")


def run(tree, workload, seed, trace=0):
    """One run; returns the result object of its last output line."""
    out = subprocess.run(
        [binary(tree), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    tagged = [l for l in lines if l.startswith("fingerprint ")]
    result["fingerprint"] = json.loads(tagged[0].split(" ", 1)[1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{out}")
    return result


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results]


def summary(xs):
    """Median, quartiles, and the inter-quartile distance as a share of the
    median — the spread the bounds are compared with."""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "n": len(xs)}


def worse_by(meta, base, other):
    """How much worse `other` is than `base`, as a share of `base`."""
    sign = 1 if meta["better"] == "lower" else -1
    return sign * (other - base) / base


def tool(*cmd):
    """Version or commit as the tool prints it; "unknown" without the tool."""
    try:
        return subprocess.run(cmd, cwd=HERE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def workloads(args):
    known = [w["name"] for w in BENCHMARK["workloads"]]
    for w in args:
        if w not in known:
            sys.exit(f"unknown workload {w}; known: {', '.join(known)}")
    return args or known


def ab(parent, change, selected):
    """>= 10 alternating pairs per workload. A gain needs the change to win
    at least nine tenths of the pairs (ties count for neither side) and the
    medians to differ by more than the parent's own inter-quartile distance.
    Otherwise: spread wider than the bound => unresolved, median worse than
    the bound => regressed, else unchanged."""
    for w in selected:
        sides = {"parent": [], "change": []}
        for pair in range(PAIRS):
            order = [("parent", parent), ("change", change)]
            if pair % 2:
                order.reverse()
            for side, tree in order:
                sides[side].append(run(tree, w, FIRST_SEED + pair))
            print(f"{w}: pair {pair + 1}/{PAIRS} done", file=sys.stderr)
        for name, meta in END_TO_END.items():
            p, c = values(sides["parent"], name), values(sides["change"], name)
            ps, cs = summary(p), summary(c)
            wins = sum(worse_by(meta, a, b) < 0 for a, b in zip(p, c))
            losses = sum(worse_by(meta, a, b) > 0 for a, b in zip(p, c))
            gap = worse_by(meta, ps["median"], cs["median"])
            clear = abs(cs["median"] - ps["median"]) > ps["q3"] - ps["q1"]
            if wins >= 0.9 * PAIRS and gap < 0 and clear:
                verdict = "improved"
            elif max(ps["spread"], cs["spread"]) > meta["bound"]:
                verdict = "unresolved"
            elif gap > meta["bound"]:
                verdict = "regressed"
            else:
                verdict = "unchanged"
            print(
                f"{w:14} {name:13} parent {ps['median']:.6g} [{ps['q1']:.6g}, {ps['q3']:.6g}]"
                f"  change {cs['median']:.6g} [{cs['q1']:.6g}, {cs['q3']:.6g}] {meta['unit']}"
                f"  change wins {wins}/{PAIRS} loses {losses}/{PAIRS}"
                f"  median {gap:+.2%} (bound {meta['bound']:.0%})  {verdict}"
            )


def agree(tree, out_path, selected):
    """Two full sets of runs of one build. Fails if any end-to-end median
    moves between the sets by more than its bound, or a spread reaches the
    bound, or an exact count differs between two runs on one seed."""
    ok = True
    record = {"benchmark": BENCHMARK, "workloads": {}}
    for w in selected:
        sets = [[run(tree, w, FIRST_SEED + i) for i in range(PAIRS)] for _ in range(2)]
        traced = {seed: [run(tree, w, seed, trace=1) for _ in range(2)]
                  for seed in (FIRST_SEED, UNSEEN_SEED)}
        entry = {"end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0}
        for r in sets[0] + sets[1]:
            entry["attempted"] += r["attempted"]
            entry["failed"] += r["failed"]
        for name, meta in END_TO_END.items():
            first, second = (summary(values(s, name)) for s in sets)
            drift = worse_by(meta, first["median"], second["median"])
            # setup_s is held to its median only; its spread is reported.
            steady = name == "setup_s" or max(first["spread"], second["spread"]) <= meta["bound"]
            good = steady and abs(drift) <= meta["bound"]
            ok &= good
            entry["end_to_end"][name] = {"unit": meta["unit"], "bound": meta["bound"],
                                         "first": first, "second": second, "drift": drift}
            print(
                f"{w:14} {name:13} {first['median']:.6g} / {second['median']:.6g} {meta['unit']}"
                f"  drift {drift:+.2%}  spread {first['spread']:.2%} / {second['spread']:.2%}"
                f"  bound {meta['bound']:.0%}  {'ok' if good else 'FAIL'}"
            )
        for seed, (a, b) in traced.items():
            for name in EXACT:
                va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
                if va != vb:
                    ok = False
                    print(f"{w:14} {name} differs on seed {seed}: {va} vs {vb}  FAIL")
        for name, meta in PER_LAYER.items():
            entry["per_layer"][name] = {
                "unit": meta["unit"],
                "seed_%d" % FIRST_SEED: values(traced[FIRST_SEED], name),
                "seed_%d" % UNSEEN_SEED: values(traced[UNSEEN_SEED], name),
            }
        fingerprint = sets[0][0]["fingerprint"]
        entry["scene"] = {k: fingerprint[k] for k in ("model", "agents", "shards", "window")}
        record["host"] = {
            **{k: fingerprint[k] for k in ("nproc", "threads", "domains", "oversubscribed")},
            "commit": tool("git", "rev-parse", "HEAD"),
            "rustc": tool("rustc", "--version"),
            "seeds": [FIRST_SEED, FIRST_SEED + PAIRS - 1],
            "traced_seeds": [FIRST_SEED, UNSEEN_SEED],
        }
        record["workloads"][w] = entry
    with open(out_path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {out_path}")
    sys.exit(0 if ok else 1)


def main():
    args = sys.argv[1:]
    if len(args) >= 3 and args[0] == "ab":
        ab(os.path.abspath(args[1]), os.path.abspath(args[2]), workloads(args[3:]))
    elif len(args) >= 3 and args[0] == "agree":
        agree(os.path.abspath(args[1]), os.path.abspath(args[2]), workloads(args[3:]))
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
