#!/usr/bin/env python3
"""Interleaved A/B of the end-to-end benchmark (`bench_e2e`), parent against change.

The box this repository is measured on drifts between sessions and within
one, so a single run per side decides nothing. This script runs the
protocol every performance claim uses:

* exports the parent (`--base`) with `git archive` and builds it and the
  change (this working tree), each into its own target directory;
* for k = first .. first + 9 runs `e2e repeat 1 --seed k` (or one workload
  with `--workload`) for each side, at e2e's own run length, the parent
  first for odd k and the change first for even k; `--aa` adds a second
  parent leg per k, so the same run doubles as an A/A check of the
  decision rules;
* merges each side's runs with the harness's summary rules (nearest-rank
  median, exclusive quartiles) into `<out>.json` and `<out>_parent.json`
  (and `<out>_aa.json`), in the harness's own result format;
* prints `e2e diff`, then per workload and end-to-end metric: the pairs the
  change won, a two-sided sign-test p-value, the median gap against the
  parent's quartile distance, the claim rule (at least 9 of 10 pairs and a
  median gap wider than that distance), and a bimodality flag where a
  side's runs fall in two clusters, whose median then says little;
* with `--aa`, counts each rule's false positives on the A/A pair, taking
  `e2e diff`'s own verdicts for its rule.

Usage:
  tools/ab.py run --base <rev> [--first-seed 1] [--workload NAME] [--aa]
                  [--out BENCH_<n>] [--work DIR]
  tools/ab.py selftest

Standard library only. Run it from the repository root; a full ten-pair run
of 20 s workloads takes about 45 minutes (about 70 with `--aa`). Run nothing
else on the box meanwhile.
"""

import argparse
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Interleaved pairs per run: the claim rule asks for at least 9 of 10.
PAIRS = 10

# ---------------------------------------------------------------------------
# The harness's summary rules (bench_e2e/src/stats.rs, suite.rs `Summary`).


def nearest_rank(sorted_values, q):
    """The smallest sample with at least `q` of the samples at or below it."""
    n = len(sorted_values)
    rank = math.ceil(min(max(q, 0.0), 1.0) * n)
    return sorted_values[min(max(rank, 1), n) - 1]


def quartiles_exclusive(sorted_values):
    """Quartiles as `statistics.quantiles(n=4)` (exclusive), computed with the
    harness's own arithmetic so a merge reproduces its figures to the bit."""
    n = len(sorted_values)
    out = []
    for i in (1, 2, 3):
        pos = i * (n + 1)
        j = min(max(pos // 4, 1), n - 1)
        delta = pos / 4.0 - j
        out.append(sorted_values[j - 1] + (sorted_values[j] - sorted_values[j - 1]) * delta)
    return out


def summary(values):
    """Median, extremes, spread and relative IQR, as the harness writes them."""
    v = sorted(values)
    median = nearest_rank(v, 0.5)
    lo, hi = v[0], v[-1]

    def over_median(d):
        return d / abs(median) if median != 0.0 else 0.0

    iqr = 0.0
    if len(v) >= 2:
        q = quartiles_exclusive(v)
        iqr = over_median(q[2] - q[0])
    return {
        "median": median,
        "min": lo,
        "max": hi,
        "spread": over_median(hi - lo),
        "iqr": iqr,
    }


# ---------------------------------------------------------------------------
# Result files.


def rows_of(doc):
    """(workload, metric, unit, [values]) rows of a suite result file, or of
    the one-line result the driver form (`--workload`) prints."""
    if "workloads" in doc:
        for workload, metrics in doc["workloads"].items():
            for name, m in metrics.items():
                yield workload, name, m["unit"], list(m["values"])
    else:
        for name, m in doc["metrics"].items():
            yield doc["workload"], name, m["unit"], [m["value"]]


def merge(docs):
    """One result file from per-seed ones, values in the order given."""
    rows = {}
    for doc in docs:
        for workload, name, unit, values in rows_of(doc):
            rows.setdefault((workload, name), (unit, []))[1].extend(values)
    workloads = {}
    for (workload, name), (unit, values) in rows.items():
        metric = {"unit": unit, **summary(values), "values": values}
        workloads.setdefault(workload, {})[name] = metric
    first = docs[0]
    return {
        "nproc": first.get("nproc", os.cpu_count()),
        "seed": first.get("seed", 0),
        "seconds": first.get("seconds"),
        "traced": False,
        "runs": len(docs),
        "attempted": sum(d.get("attempted", 0) for d in docs),
        "failed": sum(d.get("failed", 0) for d in docs),
        "correct": all(d.get("correct", False) for d in docs),
        "workloads": workloads,
        "claim": None,
    }


def write(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load(path):
    with open(path) as f:
        return json.load(f)


def end_to_end():
    """(name, lower_is_better) of each gated metric in BENCHMARK.json."""
    doc = load(ROOT / "BENCHMARK.json")
    return [(m["name"], m["better"] == "lower") for m in doc["end_to_end"]]


# ---------------------------------------------------------------------------
# Decision rules over paired runs.


def sign_test(wins, losses):
    """Two-sided exact sign test: the chance of a split at least this uneven
    between `wins` and `losses` if either side were as likely to win."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = max(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k, n + 1)) / 2.0**n
    return min(1.0, 2.0 * tail)


# A side's runs are flagged bimodal when they split into two clusters of at
# least BIMODAL_MIN runs each, across a gap between consecutive sorted runs
# wider than BIMODAL_GAP times the median gap and BIMODAL_SHARE of the median.
# On the committed BENCH_30..42 files (22 ten-run sides each) this flags
# net_pox_closed's verdicts/s and p50 on 10 and 11 sides, every other
# throughput, latency or setup metric on at most 2, and peak RSS on none.
BIMODAL_MIN = 3
BIMODAL_GAP = 3.0
BIMODAL_SHARE = 0.15


def bimodal_gap(values):
    """The widest gap between consecutive sorted runs that leaves at least
    BIMODAL_MIN runs on each side, and the median of all the gaps; None
    when there are too few runs."""
    v = sorted(values)
    gaps = [b - a for a, b in zip(v, v[1:])]
    inner = gaps[BIMODAL_MIN - 1:len(v) - BIMODAL_MIN]
    if not inner:
        return None
    return max(inner), sorted(gaps)[(len(gaps) - 1) // 2]


def is_bimodal(values):
    found = bimodal_gap(values)
    if found is None:
        return False
    widest, typical = found
    median = summary(values)["median"]
    return widest > BIMODAL_GAP * typical and widest > BIMODAL_SHARE * abs(median)


def compare(base_values, head_values, lower_is_better):
    """Per-pair wins of the change and the claim rule, for one metric."""
    pairs = list(zip(base_values, head_values))
    sign = -1.0 if lower_is_better else 1.0
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    sa, sb = summary(base_values), summary(head_values)
    q = quartiles_exclusive(sorted(base_values)) if len(base_values) >= 2 else [0.0, 0.0, 0.0]
    quartile_distance = q[2] - q[0]
    gap = sign * (sb["median"] - sa["median"])
    better = len(pairs) > 0 and wins >= math.ceil(0.9 * len(pairs)) and gap > quartile_distance
    worse = len(pairs) > 0 and losses >= math.ceil(0.9 * len(pairs)) and -gap > quartile_distance
    return {
        "pairs": len(pairs),
        "wins": wins,
        "losses": losses,
        "p": sign_test(wins, losses),
        "base_median": sa["median"],
        "head_median": sb["median"],
        "gap": gap,
        "quartile_distance": quartile_distance,
        "claim": "better" if better else "worse" if worse else "-",
        "bimodal": [side for side, v in (("parent", base_values), ("change", head_values))
                    if is_bimodal(v)],
    }


def report(base, head, aa=False, out=sys.stdout):
    """Prints the per-metric table; returns how often the sign test and the
    claim rule fire, and over how many metrics (false positives when both
    files measure the same tree)."""
    label = "A/A" if aa else "A/B"
    print(f"{label}: {base.get('runs')} pairs; failed operations parent {base.get('failed')} "
          f"of {base.get('attempted')}, change {head.get('failed')} of {head.get('attempted')}",
          file=out)
    second = "parent'" if aa else "change"
    print(f"{'workload':<16} {'metric':<24} {'parent':>12} {second:>12} {'change%':>8} "
          f"{'wins':>6} {'sign p':>7} {'gap/IQR':>8} {'claim':>6}  bimodal", file=out)
    hits = {"sign test p<0.05": 0, "claim rule": 0}
    metrics = 0
    for workload, metrics_of in base["workloads"].items():
        for name, lower in end_to_end():
            if name not in metrics_of or name not in head["workloads"].get(workload, {}):
                continue
            a, b = metrics_of[name], head["workloads"][workload][name]
            c = compare(a["values"], b["values"], lower)
            metrics += 1
            hits["sign test p<0.05"] += c["p"] < 0.05
            hits["claim rule"] += c["claim"] != "-"
            change = (c["head_median"] - c["base_median"]) / c["base_median"] * 100 \
                if c["base_median"] else 0.0
            bimodal = ",".join(second if side == "change" else side for side in c["bimodal"])
            if c["quartile_distance"]:
                ratio = c["gap"] / c["quartile_distance"]
            else:
                ratio = math.copysign(math.inf, c["gap"]) if c["gap"] else 0.0
            print(f"{workload:<16} {name:<24} {c['base_median']:>12.4f} {c['head_median']:>12.4f} "
                  f"{change:>+7.2f}% {c['wins']:>3}/{c['pairs']:<2} {c['p']:>7.3f} {ratio:>+8.2f} "
                  f"{c['claim']:>6}  {bimodal or '-'}", file=out)
    print("wins: pairs where the change is better; gap/IQR: median gap in the better "
          "direction over the parent's quartile distance; claim: >= 9/10 pairs and gap/IQR > 1",
          file=out)
    return hits, metrics


# ---------------------------------------------------------------------------
# Running.


def order(k, aa):
    """The legs of pair k: the parent first for odd k, the change first for
    even k; the A/A leg takes each position in turn."""
    legs = ["parent", "change"] if k % 2 == 1 else ["change", "parent"]
    if aa:
        legs.insert((k - 1) % 3, "aa")
    return legs


def sh(cmd, **kw):
    print("+", " ".join(str(c) for c in cmd), file=sys.stderr, flush=True)
    return subprocess.run(cmd, check=True, **kw)


def export(rev, dest):
    """The committed files of `rev`, as `git archive` gives them, at `dest`."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    tar = sh(["git", "-C", ROOT, "archive", "--format=tar", rev], stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest)
    return dest


def build(src, target):
    """Builds `src`'s harness into `target` and returns the binary."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    sh(["cargo", "build", "--release", "--quiet", "--offline",
        "--manifest-path", str(Path(src) / "bench_e2e" / "Cargo.toml")], env=env)
    return Path(target) / "release" / "e2e"


def run_leg(binary, target, k, workload, dest):
    """One leg: the suite once (or one workload) with seed k, saved to `dest`."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    if workload:
        cmd = [binary, "--workload", workload, "--seed", k, "--trace", 0]
        out = sh([str(c) for c in cmd], env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        doc = json.loads(out.stdout.strip().splitlines()[-1])
        doc.update(workload=workload, seed=k, nproc=os.cpu_count())
        write(dest, doc)
    else:
        cmd = [binary, "repeat", 1, "--seed", k, "--out", dest]
        sh([str(c) for c in cmd], env=env, cwd=ROOT, stdout=subprocess.DEVNULL)


def cmd_run(args):
    work = Path(args.work).resolve()
    work.mkdir(parents=True, exist_ok=True)
    targets = {"parent": work / "parent-target", "change": work / "change-target"}
    bins = {"parent": build(export(args.base, work / "parent-src"), targets["parent"]),
            "change": build(ROOT, targets["change"])}
    # The A/A leg runs the parent's binary again.
    targets["aa"], bins["aa"] = targets["parent"], bins["parent"]
    runs = {side: [] for side in bins}
    for k in range(args.first_seed, args.first_seed + PAIRS):
        for side in order(k, args.aa):
            dest = work / f"{side}-{k}.json"
            run_leg(bins[side], targets[side], k, args.workload, dest)
            runs[side].append(load(dest))
    merged = {side: merge(docs) for side, docs in runs.items() if docs}
    paths = {"parent": f"{args.out}_parent.json", "change": f"{args.out}.json",
             "aa": f"{args.out}_aa.json"}
    for side, doc in merged.items():
        write(ROOT / paths[side], doc)
        print(f"ab: wrote {paths[side]}", file=sys.stderr)
    e2e_diff(bins["change"], paths["parent"], paths["change"])
    report(merged["parent"], merged["change"])
    if "aa" in merged:
        print()
        verdicts = e2e_diff(bins["change"], paths["parent"], paths["aa"])
        hits, metrics = report(merged["parent"], merged["aa"], aa=True)
        if verdicts is not None:
            hits = {"e2e diff": verdicts["better"] + verdicts["worse"], **hits}
        counts = ", ".join(f"{rule} {n}" for rule, n in hits.items())
        print(f"A/A false positives over {metrics} metrics: {counts}")


def e2e_diff(binary, a, b):
    """Prints `e2e diff a b` and returns its verdict counts; None unless both
    files hold every workload, which `e2e diff` needs."""
    if not all(w in load(ROOT / a)["workloads"] for w in ("inproc_full", "net_full_paced")):
        return None
    out = subprocess.run([str(binary), "diff", a, b], cwd=ROOT, stdout=subprocess.PIPE,
                         text=True, check=False)
    print(out.stdout, end="")
    return diff_verdicts(out.stdout)


def diff_verdicts(text):
    """The verdict counts of `e2e diff`'s closing summary line."""
    found = re.search(r"(\d+) better, (\d+) within, (\d+) worse, (\d+) unresolved", text)
    if found is None:
        raise SystemExit("ab: e2e diff printed no summary line")
    return dict(zip(("better", "within", "worse", "unresolved"), map(int, found.groups())))


# ---------------------------------------------------------------------------
# Self-test of the merge and the rules on synthetic data.


def selftest():
    # The harness's order statistics (bench_e2e/src/stats.rs tests).
    ramp = [float(v) for v in range(1, 11)]
    assert nearest_rank(ramp, 0.5) == 5.0 and nearest_rank(ramp, 0.51) == 6.0
    assert quartiles_exclusive(ramp) == [2.75, 5.5, 8.25]
    assert quartiles_exclusive([1.0, 2.0]) == [0.75, 1.5, 2.25]
    import statistics
    for values in ([3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0], ramp, [0.1 * v for v in range(1, 14)]):
        s = sorted(values)
        want = statistics.quantiles(s, n=4, method="exclusive")
        assert all(abs(x - y) < 1e-12 for x, y in zip(quartiles_exclusive(s), want))
    s = summary([10.0, 12.0, 11.0])
    assert (s["median"], s["min"], s["max"]) == (11.0, 10.0, 12.0)
    assert abs(s["spread"] - 2.0 / 11.0) < 1e-12
    assert summary([0.0, 0.0])["spread"] == 0.0
    assert summary([4.0, 1.0, 3.0, 2.0])["median"] == 2.0, "nearest rank: the lower middle"

    # Merging per-seed suite files gives the summary of the pooled values, in
    # seed order, and sums the operation counts.
    def suite(k, v):
        return {"nproc": 2, "seed": k, "seconds": 20, "traced": False, "runs": 1,
                "attempted": 100, "failed": k % 2, "correct": True,
                "workloads": {"durable_pox": {
                    "peak_rss_mb": {"unit": "MiB", **summary([v]), "values": [v]},
                    "setup_s": {"unit": "s", **summary([v / 100]), "values": [v / 100]}}},
                "claim": None}
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
    merged = merge([suite(k + 1, v) for k, v in enumerate(values)])
    m = merged["workloads"]["durable_pox"]["peak_rss_mb"]
    assert m["values"] == values
    assert (m["median"], m["min"], m["max"]) == (5.0, 1.0, 10.0)
    assert m["iqr"] == (8.25 - 2.75) / 5.0 and m["spread"] == 9.0 / 5.0
    assert (merged["runs"], merged["attempted"], merged["failed"], merged["seed"]) == (10, 1000, 5, 1)
    assert list(merged["workloads"]["durable_pox"]) == ["peak_rss_mb", "setup_s"]
    assert merged["claim"] is None and merged["correct"]
    # The driver form's one-line result merges the same way.
    line = {"workload": "net_pox_closed", "correct": True, "attempted": 7, "failed": 0,
            "metrics": {"verdict_latency_p50_ms": {"unit": "ms", "value": 2.5}}}
    one = merge([line, line])["workloads"]["net_pox_closed"]["verdict_latency_p50_ms"]
    assert one["values"] == [2.5, 2.5] and one["median"] == 2.5 and one["iqr"] == 0.0

    # The sign test: 9 of 10 is p = 22/1024, 10 of 10 is 2/1024, 5 of 10 is 1.
    assert abs(sign_test(9, 1) - 22 / 1024) < 1e-15
    assert abs(sign_test(10, 0) - 2 / 1024) < 1e-15 and sign_test(5, 5) == 1.0
    assert sign_test(0, 0) == 1.0

    # The claim rule: 9 of 10 pairs and a median gap wider than the parent's
    # quartile distance, in the direction the metric improves.
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    lower = [v - 5.0 for v in base]
    c = compare(base, lower, lower_is_better=True)
    assert (c["wins"], c["claim"]) == (10, "better") and c["p"] < 0.01
    assert compare(base, lower, lower_is_better=False)["claim"] == "worse"
    # Nine wins but a gap inside the parent's quartiles claims nothing.
    close = [v - 0.3 for v in base]
    close[0] += 1.0
    c = compare(base, close, lower_is_better=True)
    assert c["wins"] == 9 and c["claim"] == "-", c
    # The same values in both files are all ties.
    c = compare(base, base, lower_is_better=True)
    assert (c["wins"], c["losses"], c["p"], c["claim"]) == (0, 0, 1.0, "-")

    # Bimodality: two tight clusters far apart are flagged; one cluster, a
    # ramp, and two clusters a fraction of a percent apart are not.
    two = [2.0, 2.1, 1.9, 2.05, 4.6, 4.8, 4.7, 2.02, 4.9, 4.75]
    assert is_bimodal(two)
    assert not is_bimodal([100.0 + 0.1 * ((7 * i) % 10) for i in range(10)])
    assert not is_bimodal([float(v) for v in range(10, 20)])
    assert not is_bimodal([155.0, 155.1, 155.0, 159.0, 159.1, 155.2, 159.0, 155.1, 159.2, 159.1])
    assert bimodal_gap([1.0, 2.0, 3.0, 4.0, 5.0]) is None, "too few runs for two clusters"
    assert not is_bimodal([1.0] * 10)

    # `e2e diff`'s verdicts are read from its summary line.
    line = "ok_share: A 1 B 1; 6 better, 8 within, 0 worse, 2 unresolved\n"
    assert diff_verdicts("table\n" + line) == {"better": 6, "within": 8, "worse": 0,
                                                "unresolved": 2}

    # The schedule: the parent and the change swap places every k, and the
    # A/A leg visits each position.
    assert order(1, False) == ["parent", "change"] and order(2, False) == ["change", "parent"]
    assert [order(k, True).index("aa") for k in (1, 2, 3)] == [0, 1, 2]
    firsts = {order(k, True)[0] for k in range(1, 7)}
    assert firsts == {"parent", "change", "aa"}

    # An A/A of identical files: neither the sign test nor the claim rule fires.
    with open(os.devnull, "w") as null:
        hits, n = report(merged, merged, aa=True, out=null)
    assert n == 2 and sum(hits.values()) == 0, hits
    print("ab selftest: ok")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="build both sides and run the interleaved pairs")
    r.add_argument("--base", required=True, help="the parent revision")
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--workload", help="run one workload per leg instead of the suite")
    r.add_argument("--aa", action="store_true", help="add a second parent leg per pair")
    r.add_argument("--out", default="BENCH_ab", help="result file prefix")
    r.add_argument("--work", default=str(ROOT / "target" / "ab"), help="builds and per-run files")
    sub.add_parser("selftest", help="check the merge and the rules on synthetic data")
    args = p.parse_args()
    if args.cmd == "run":
        cmd_run(args)
    else:
        selftest()


if __name__ == "__main__":
    main()
