"""Compare two sets of benchmark runs against the bounds of BENCHMARK.json.

    python3 foldbench/compare.py A.jsonl B.jsonl

Reads files written by foldbench/series.py.  For each workload and each
end-to-end metric it prints both medians, the quartiles, each set's
spread (distance between the quartiles as a share of the median) and the
change from A's median to B's, as a share of A's median, with whether
the change is within the bound in either direction: two sets of the same
commit agree only if neither is much slower or faster than the other.
It also prints the share of failed operations of each set.  Exit status
1 when a bound is exceeded (a change, or a spread other than that of
setup_s, whose bound limits only the change of its median) or the failed
shares differ.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"] == 0:
                runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def summary(results, metric):
    values = [r["metrics"][metric]["value"] for r in results]
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def failed_share(results):
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    return failed, attempted


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    sets = [load(p) for p in argv[1:]]
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        if any(workload not in s for s in sets):
            continue
        groups = [s[workload] for s in sets]
        print("%s (%s runs)" % (workload, " / ".join(str(len(g)) for g in groups)))
        print("  %-12s %5s %-29s %-29s %8s" % (
            "metric", "bound", "A median [q1, q3] spread",
            "B median [q1, q3] spread", "change"))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols = []
            for g in groups:
                med, q1, q3, spread = summary(g, name)
                cols.append("%.4g [%.4g, %.4g] %.1f%%" % (med, q1, q3, 100 * spread))
                if name != "setup_s" and spread > bound:
                    ok = False
            a, b = summary(groups[0], name)[0], summary(groups[1], name)[0]
            within = abs(b - a) / a <= bound
            ok = ok and within
            print("  %-12s %5.2f %-29s %-29s %+.1f%% %s" % (
                name, bound, cols[0], cols[1], 100 * (b - a) / a,
                "ok" if within else "OUT"))
        shares = [failed_share(g) for g in groups]
        print("  failed: %s" % " / ".join("%d of %d" % s for s in shares))
        if shares[0][0] * shares[1][1] != shares[1][0] * shares[0][1]:
            ok = False
    print("within bounds" if ok else "OUT OF BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv))
