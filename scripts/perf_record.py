#!/usr/bin/env python3
"""Turn paired benchmark runs into a results/perf/PR-<n>.json record.

Usage:
  scripts/perf_record.py --pr N --title TEXT --parent-commit SHA \\
      [--seen SEED]... [--claim WORKLOAD:METRIC] [--note TEXT]... \\
      RAW [-o results/perf/PR-N.json]
  scripts/perf_record.py --check FILE...

RAW holds one line per run, in the order the runs were made:

  <workload> <parent|change> <seed> <last stdout line of benchmark/run.sh>

that is, the JSON result of `benchmark/run.sh --workload W --seed SEED
--seconds T --trace 0` with T the run_seconds of BENCHMARK.json, prefixed
with what the runner knew. Per workload,
the k-th parent line and the k-th change line form pair k; whichever came
first in the file ran first. A pair is won by the side whose value is
better (lower for every end-to-end metric today); quartiles are inclusive
(statistics.quantiles, n=4). The verdicts follow benchmark/README.md
"Claiming a gain":

  gain          the change wins >= 9/10 of the pairs and the medians differ
                by more than the parent's inter-quartile distance
  regression    the change's median is worse than the parent's by more
                than the metric's bound in BENCHMARK.json
  unresolved    neither, and the parent's spread (IQR / median) exceeds
                the bound
  no regression (within bound; not a claimed gain)   otherwise

--check tests the shape of finished records: the five workloads and the
five end-to-end metrics of BENCHMARK.json, a host block, the parent
commit, and the raw runs. Standard library only.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
NO_REGRESSION = "no regression (within bound; not a claimed gain)"


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    return [w["name"] for w in b["workloads"]], b["end_to_end"], b["run_seconds"]


def read_runs(path):
    """The raw lines as run records, grouped by workload in file order."""
    runs = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                workload, side, seed, result = line.split(None, 3)
                result = json.loads(result)
                seed = int(seed)
            except ValueError as e:
                sys.exit(f"{path}:{lineno}: not '<workload> <side> <seed> <json>': {e}")
            if side not in SIDES:
                sys.exit(f"{path}:{lineno}: side must be parent or change, not {side}")
            if not result.get("correct"):
                sys.exit(f"{path}:{lineno}: the run did not pass its oracles")
            runs.setdefault(workload, []).append((side, seed, result))
    return runs


def pair_up(workload, lines, metrics):
    """Number each side's runs and check the two sides alternate in pairs."""
    counts = {s: 0 for s in SIDES}
    out = []
    for side, seed, result in lines:
        pair = counts[side]
        counts[side] += 1
        other = "change" if side == "parent" else "parent"
        row = {
            "pair": pair,
            "seed": seed,
            "side": side,
            "ran_first": counts[other] <= pair,
            "attempted": result["attempted"],
            "failed": result["failed"],
        }
        for m in metrics:
            row[m["name"]] = result["metrics"][m["name"]]["value"]
        out.append(row)
    if counts["parent"] != counts["change"]:
        sys.exit(f"{workload}: {counts['parent']} parent runs but {counts['change']} change runs")
    by_pair = {}
    for r in out:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r
    for p, sides in by_pair.items():
        if sides["parent"]["seed"] != sides["change"]["seed"]:
            sys.exit(f"{workload}: pair {p} ran two seeds")
    return out, [by_pair[p] for p in sorted(by_pair)]


def quartiles(xs):
    return statistics.quantiles(xs, n=4, method="inclusive")


def rounded(q):
    return {"q1": round(q[0], 3), "median": round(q[1], 3), "q3": round(q[2], 3)}


def metric_record(m, pairs, claimed):
    name, bound = m["name"], m["bound"]
    lower = m["better"] == "lower"
    parent = [p["parent"][name] for p in pairs]
    change = [p["change"][name] for p in pairs]
    (p1, pmed, p3), (c1, cmed, c3) = quartiles(parent), quartiles(change)
    wins = {"change": 0, "parent": 0, "ties": 0}
    for a, b in zip(parent, change):
        if a == b:
            wins["ties"] += 1
        elif (b < a) == lower:
            wins["change"] += 1
        else:
            wins["parent"] += 1
    ratio = cmed / pmed
    iqr = p3 - p1
    better = cmed < pmed if lower else cmed > pmed
    worse_by = ratio - 1 if lower else 1 - ratio
    if wins["change"] >= 0.9 * len(pairs) and better and abs(cmed - pmed) > iqr:
        verdict = "gain"
    elif worse_by > bound:
        verdict = "regression"
    elif iqr / pmed > bound:
        verdict = "unresolved"
    else:
        verdict = NO_REGRESSION
    return {
        "unit": m["unit"],
        "bound": bound,
        "parent": rounded((p1, pmed, p3)),
        "change": rounded((c1, cmed, c3)),
        "change_over_parent_median": round(ratio, 3),
        "pairs": {
            "n": len(pairs),
            "change_wins": wins["change"],
            "parent_wins": wins["parent"],
            "ties": wins["ties"],
        },
        "parent_iqr_over_median": round(iqr / pmed, 3),
        "verdict": verdict,
        "claimed": claimed,
    }


def failure_shares(rows, seeds):
    out = {}
    for side in SIDES:
        for seed in seeds:
            out[f"{side}_seed{seed}"] = [
                [r["failed"], r["attempted"]] for r in rows if r["side"] == side and r["seed"] == seed
            ]
    out["identical_in_every_pair"] = all(
        out[f"parent_seed{s}"] == out[f"change_seed{s}"] for s in seeds
    )
    return out


def host():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = ""
    with open(os.path.join(ROOT, "Cargo.toml")) as f:
        block = re.search(r"^\[profile\.release\]\n((?:[^\[].*\n?)*)", f.read(), re.M)
    profile = ", ".join(
        l.strip() for l in (block.group(1).splitlines() if block else []) if l.strip() and not l.startswith("#")
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "rustc": rustc,
        "kernel": f"{platform.system()} {platform.release()}",
        "profile.release": profile,
    }


def record(args):
    workloads, metrics, seconds = benchmark()
    runs = read_runs(args.raw)
    missing = [w for w in workloads if w not in runs]
    if missing:
        sys.exit(f"{args.raw}: no runs of {', '.join(missing)}")
    claim = None
    if args.claim:
        w, _, m = args.claim.partition(":")
        if w not in workloads or m not in [x["name"] for x in metrics]:
            sys.exit(f"--claim {args.claim}: not a workload:end-to-end-metric")
        claim = {"workload": w, "metric": m}
    out_workloads = {}
    by_pair_seeds = None
    for w in workloads:
        rows, pairs = pair_up(w, runs[w], metrics)
        seeds = [p["parent"]["seed"] for p in pairs]
        by_pair_seeds = by_pair_seeds or seeds
        out_workloads[w] = {
            "failed_over_attempted": failure_shares(rows, list(dict.fromkeys(seeds))),
            "metrics": {
                m["name"]: metric_record(m, pairs, claim == {"workload": w, "metric": m["name"]})
                for m in metrics
            },
            "runs": rows,
        }
    seen = [s for s in args.seen if s in by_pair_seeds]
    method = (
        'benchmark/README.md "Claiming a gain": per workload '
        f"{len(by_pair_seeds)} parent/change pairs of `benchmark/run.sh --workload W --seed S "
        f"--trace 0 --seconds {seconds}`, the side that runs first alternating, both "
        "binaries built from identical benchmark/ sources against the two trees. Quartiles are "
        "inclusive (statistics.quantiles, n=4). A pair is won by the side with the better value. "
        "Written by scripts/perf_record.py."
    )
    doc = {
        "pr": args.pr,
        "title": args.title,
        "parent_commit": args.parent_commit,
        "method": method,
        "host": dict(host(), note=args.host_note) if args.host_note else host(),
        "seeds": {
            "by_pair": by_pair_seeds,
            "used_while_writing": seen,
            "unseen_while_writing": [s for s in dict.fromkeys(by_pair_seeds) if s not in seen],
        },
        "claim": claim,
        "notes": args.note,
        "workloads": out_workloads,
    }
    problems = shape_problems(doc)
    if problems:
        sys.exit("\n".join(problems))
    text = json.dumps(doc, indent=1, ensure_ascii=False) + "\n"
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def shape_problems(doc):
    """Everything a record must carry, as a list of what is missing."""
    workloads, metrics, _ = benchmark()
    p = []
    if not re.fullmatch(r"[0-9a-f]{40}", str(doc.get("parent_commit", ""))):
        p.append("parent_commit is not a full commit id")
    h = doc.get("host")
    if not isinstance(h, dict) or not all(h.get(k) for k in ("nproc", "cpu", "rustc")):
        p.append("host block without nproc, cpu and rustc")
    got = doc.get("workloads", {})
    if sorted(got) != sorted(workloads):
        p.append(f"workloads {sorted(got)} are not {sorted(workloads)}")
    for w in workloads:
        wr = got.get(w, {})
        runs = wr.get("runs") or []
        if not runs:
            p.append(f"{w}: no raw runs")
        for m in metrics:
            mr = wr.get("metrics", {}).get(m["name"])
            if not mr or not all(k in mr for k in ("parent", "change", "pairs", "verdict")):
                p.append(f"{w}: {m['name']} without quartiles, pairs and verdict")
            elif mr["pairs"]["n"] * 2 != len(runs):
                p.append(f"{w}: {m['name']} counts {mr['pairs']['n']} pairs over {len(runs)} runs")
            if any(m["name"] not in r for r in runs):
                p.append(f"{w}: a raw run without {m['name']}")
        if any(r.get("side") not in SIDES for r in runs):
            p.append(f"{w}: a raw run that is neither parent nor change")
    return p


def check(paths):
    bad = 0
    for path in paths:
        with open(path) as f:
            problems = shape_problems(json.load(f))
        for problem in problems:
            print(f"{path}: {problem}", file=sys.stderr)
        bad += bool(problems)
    if bad:
        sys.exit(1)
    print(f"perf_record: {len(paths)} record(s) well-formed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--check", nargs="+", metavar="FILE", help="test the shape of records")
    ap.add_argument("raw", nargs="?", help="the runs, one line each (see the module docs)")
    ap.add_argument("--pr", type=int)
    ap.add_argument("--title")
    ap.add_argument("--parent-commit")
    ap.add_argument("--seen", type=int, action="append", default=[],
                    help="a seed looked at while writing the change (repeatable)")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC")
    ap.add_argument("--note", action="append", default=[])
    ap.add_argument("--host-note")
    ap.add_argument("-o", "--output")
    args = ap.parse_args()
    if args.check:
        check(args.check)
    elif args.raw and args.pr is not None and args.title and args.parent_commit:
        record(args)
    else:
        ap.error("give --check FILE..., or RAW with --pr, --title and --parent-commit")


if __name__ == "__main__":
    main()
