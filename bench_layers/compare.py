#!/usr/bin/env python3
"""Show or compare result sets written by bench_layers/run_bench.sh.

    python3 bench_layers/compare.py DIR...              show one or more sets
    python3 bench_layers/compare.py A_DIR... -- B_DIR...  compare set A with set B

A set is one directory holding <workload>.json (untraced run) and
<workload>.layers.json (traced run) for each workload.

Show prints every metric with its unit (the median over the given sets),
the trace overhead, and every correctness check; it exits 1 when any check
failed or a file is missing.

Compare prints, for each workload and end-to-end metric, each side's
median and quartiles, the fraction of index-aligned pairs (A_i, B_i) that B
won, and a verdict against the bounds in BENCHMARK.json:

  improved    at least MIN_PAIRS pairs, B wins >= 90 % of them, and the
              medians differ by more than A's interquartile range
  unresolved  either side's interquartile range exceeds the bound
  regressed   B's median is worse than A's by more than the bound
  unchanged   otherwise

It then lists the per-layer medians of both sides, largest relative move
first, to show where a change landed. The verdicts are advisory.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_set(path, workloads):
    """{workload: {"run": detail-or-None, "layers": detail-or-None}}"""
    out = {}
    for w in workloads:
        entry = {}
        for key, suffix in (("run", ".json"), ("layers", ".layers.json")):
            p = os.path.join(path, w + suffix)
            entry[key] = json.load(open(p)) if os.path.exists(p) else None
        out[w] = entry
    return out


def values(sets, workload, kind, metric):
    vals = []
    for s in sets:
        d = s[workload][kind]
        if d is not None and metric in d["metrics"] and d["metrics"][metric]["value"] is not None:
            vals.append(d["metrics"][metric]["value"])
    return vals


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def trace_overhead(s, workload):
    run, layers = s[workload]["run"], s[workload]["layers"]
    if run is None or layers is None:
        return None
    return layers["metrics"]["op.whole_ms"]["value"] / run["metrics"]["op_ms_p50"]["value"] - 1.0


def fmt(v):
    return "-" if v is None else f"{v:.6g}"


def show(dirs, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    sets = [load_set(d, workloads) for d in dirs]
    ok = True
    for w in workloads:
        print(f"== {w}")
        for kind, metrics in (("run", spec["end_to_end"]), ("layers", spec["per_layer"])):
            for m in metrics:
                vals = values(sets, w, kind, m["name"])
                if not vals:
                    print(f"  {m['name']:<28} missing")
                    ok = False
                    continue
                print(f"  {m['name']:<28} {fmt(statistics.median(vals)):>14} {m['unit']}")
        overheads = [o for o in (trace_overhead(s, w) for s in sets) if o is not None]
        if overheads:
            print(f"  {'trace.overhead_pct':<28} {fmt(100 * statistics.median(overheads)):>14} %")
        for s, d in zip(sets, dirs):
            for kind in ("run", "layers"):
                r = s[w][kind]
                if r is None:
                    print(f"  MISSING {kind} result in {d}")
                    ok = False
                    continue
                for c in r["checks"]:
                    state = "ok" if c["ok"] else "FAIL"
                    if not c["ok"]:
                        ok = False
                    print(f"  check {kind:<6} {c['name']:<30} {state:<4} "
                          f"{fmt(c['value'])} (limit {fmt(c['limit'])})")
                if not r["correct"] or r["ops_failed"] != 0:
                    print(f"  FAIL {kind}: correct={r['correct']} ops_failed={r['ops_failed']}")
                    ok = False
    return 0 if ok else 1


def verdict(a, b, bound, higher_better):
    """(verdict, share of pairs B won)"""
    sign = 1.0 if higher_better else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    share = wins / len(pairs) if pairs else 0.0
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    gain = sign * (mb - ma)
    if len(pairs) >= MIN_PAIRS and share >= WIN_SHARE and gain > qa3 - qa1:
        return "improved", share
    if (qa3 - qa1) > bound * abs(ma) or (qb3 - qb1) > bound * abs(mb):
        return "unresolved", share
    if -gain > bound * abs(ma):
        return "regressed", share
    return "unchanged", share


def compare(a_dirs, b_dirs, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    a_sets = [load_set(d, workloads) for d in a_dirs]
    b_sets = [load_set(d, workloads) for d in b_dirs]
    print(f"A: {len(a_dirs)} set(s)  B: {len(b_dirs)} set(s)")
    print(f"{'workload':<16} {'metric':<12} {'A q1/med/q3':>32} {'B q1/med/q3':>32} "
          f"{'B won':>6} {'bound':>6}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            a = values(a_sets, w, "run", m["name"])
            b = values(b_sets, w, "run", m["name"])
            if not a or not b:
                print(f"{w:<16} {m['name']:<12} missing")
                continue
            v, share = verdict(a, b, m["bound"], m["better"] == "higher")
            qa = "/".join(fmt(x) for x in quartiles(a))
            qb = "/".join(fmt(x) for x in quartiles(b))
            print(f"{w:<16} {m['name']:<12} {qa:>32} {qb:>32} {share:>6.2f} "
                  f"{m['bound']:>6.2f}  {v}")
    print("\nper-layer medians (largest relative move first)")
    for w in workloads:
        rows = []
        for m in spec["per_layer"]:
            a = values(a_sets, w, "layers", m["name"])
            b = values(b_sets, w, "layers", m["name"])
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            rel = (mb - ma) / abs(ma) if ma != 0 else 0.0
            rows.append((abs(rel), m["name"], m["unit"], ma, mb, rel))
        print(f"== {w}")
        for _, name, unit, ma, mb, rel in sorted(rows, reverse=True):
            print(f"  {name:<28} {fmt(ma):>14} -> {fmt(mb):>14} {unit:<6} {100 * rel:+8.1f} %")
    return 0


def main(argv):
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    spec = load_spec()
    if "--" in argv:
        i = argv.index("--")
        a_dirs, b_dirs = argv[:i], argv[i + 1:]
        if not a_dirs or not b_dirs:
            print("compare.py: need directories on both sides of --", file=sys.stderr)
            return 2
        return compare(a_dirs, b_dirs, spec)
    return show(argv, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
