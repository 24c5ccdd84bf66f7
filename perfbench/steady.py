#!/usr/bin/env python3
"""Steadiness check for perfbench.

Runs the benchmark command from BENCHMARK.json on each workload with
several seeds and reports, per metric, the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median.
Every bounded metric, setup_s included, is checked against a third of
its bound. The figures printed only on the readable report (the wall-
and CPU-time companions of the gated metrics) get the same statistics,
unchecked. Run from the repository root:

    python3 perfbench/steady.py --seeds 10 [--workloads campaign,daemon]
        [--trace 0|1] [--first-seed 1] [--out SET.json] [--against OLD.json]

--out writes the set's record (machine, per-metric medians, quartiles
and values, per-run wall times) as JSON. --against compares this set's
medians with an earlier record's and flags every bounded metric that
is worse by more than its bound. The exit code is 1 when a run fails
or a check is flagged.

    python3 perfbench/steady.py compose SET_A.json SET_B.json TRACE.json

prints the baseline document (perfbench/baseline.json) made of two
end-to-end sets and one traced set.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUNS_FILE = ".bench_build/steady_runs.jsonl"


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compose":
        return compose(*sys.argv[2:])
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    ap.add_argument("--against", default="")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    key = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in bench[key]}
    old = json.load(open(args.against)) if args.against else None

    record = {"command": bench["command"], "run_seconds": bench["run_seconds"], "trace": args.trace,
              "seeds": list(range(args.first_seed, args.first_seed + args.seeds)), "workloads": {}}
    ok = True
    os.makedirs(os.path.dirname(RUNS_FILE), exist_ok=True)
    for w in names:
        values, extra, walls = {m: [] for m in declared}, {}, []
        for seed in record["seeds"]:
            if os.path.exists(RUNS_FILE):
                os.remove(RUNS_FILE)
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed), "--seconds",
                                      str(bench["run_seconds"]), "--trace", str(args.trace),
                                      "--out", RUNS_FILE]
            t0 = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(round(time.time() - t0, 2))
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
            res = json.loads(last)
            if p.returncode != 0 or not res.get("correct"):
                ok = False
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
                continue
            for m in declared:
                values[m].append(res["metrics"][m]["value"])
            full = json.loads(open(RUNS_FILE).read().splitlines()[-1])
            record.setdefault("machine", full["machine"])
            for m, v in full["extra"].items():
                extra.setdefault(m, []).append(v["value"])
        print(f"{w}: run wall seconds {walls}")
        rows, extra_rows = {}, {}
        for m, vs in values.items():
            if len(vs) < 2:
                continue
            rows[m] = stats(vs)
            bound = declared[m].get("bound")
            flags = []
            if bound is not None and rows[m]["spread"] >= bound / 3:
                flags.append("spread >= bound/3")
            if bound is not None and old and m in old["workloads"].get(w, {}).get("metrics", {}):
                prev = old["workloads"][w]["metrics"][m]["median"]
                worse = (rows[m]["median"] - prev) / prev
                if declared[m]["better"] == "higher":
                    worse = -worse
                rows[m]["worse_than_against"] = worse
                if worse > bound:
                    flags.append(f"median {worse:+.3f} worse than --against")
            ok = ok and not flags
            show(m, rows[m], bound, flags)
        for m, vs in sorted(extra.items()):
            if len(vs) >= 2 and statistics.median(vs):
                extra_rows[m] = stats(vs)
                show(m + " (report only)", extra_rows[m], None, [])
        record["workloads"][w] = {"metrics": rows, "extra": extra_rows, "run_wall_s": walls}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")
    return 0 if ok else 1


def stats(vs):
    med = statistics.median(vs)
    q1, _, q3 = statistics.quantiles(vs, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": vs}


def show(name, r, bound, flags):
    print(f"  {name:40s} median {r['median']:12.4f}  q1 {r['q1']:12.4f}  q3 {r['q3']:12.4f}"
          f"  spread {r['spread']:6.3f}" + (f"  bound {bound}" if bound is not None else "")
          + "".join(f"  <-- {f}" for f in flags))


def compose(set_a, set_b, trace):
    """Prints the baseline document: two end-to-end sets and the medians
    of a traced set, restricted to the workloads each layer metric
    covers."""
    bench = json.load(open("BENCHMARK.json"))
    dictionary = json.load(open("perfbench/metrics.json"))

    def rounded(rows):
        return {m: {k: round(v[k], 6) for k in ("median", "q1", "q3", "spread")}
                | {"values": [round(x, 6) for x in v["values"]]} for m, v in rows.items()}

    doc = {
        "about": "Steadiness record of the perfbench baseline: two sets, each running every workload once "
                 "per seed (ten seeds, run_seconds from BENCHMARK.json) via `python3 perfbench/steady.py "
                 "--seeds 10 --first-seed N [--against SET_A]`, measured one after the other on the machine "
                 "below. spread = (q3 - q1) / median with statistics.quantiles(values, n=4); 'extra' holds "
                 "the figures printed only on the readable report, unbounded. The per-layer ledger is the "
                 "median of a traced set. Fields of BENCH_campaign.json / BENCH_difftest.json each metric "
                 "supersedes in meaning are listed under 'supersedes' in perfbench/metrics.json; those "
                 "files are unchanged.",
        "machine": None,
        "run_seconds": bench["run_seconds"],
        "bounds": {m["name"]: m["bound"] for m in bench["end_to_end"]},
        "end_to_end_sets": [],
    }
    for path in (set_a, set_b):
        rec = json.load(open(path))
        doc["machine"] = doc["machine"] or rec.get("machine")
        doc["end_to_end_sets"].append({"seeds": rec["seeds"], "workloads": {
            w: {"run_wall_s": d["run_wall_s"], "metrics": rounded(d["metrics"]), "extra": rounded(d["extra"])}
            for w, d in rec["workloads"].items()}})
    t = json.load(open(trace))
    doc["per_layer_seeds"] = t["seeds"]
    doc["per_layer"] = {w: {m: round(v["median"], 6) for m, v in d["metrics"].items()
                            if w in dictionary["per_layer"][m]["workloads"]}
                        for w, d in t["workloads"].items()}
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
