"""The relmeta benchmark.

Usage, from the repository root:
  python3 perfbench/run.py --workload conservativity|equations|lawcheck
                           --seed N --seconds S --trace 0|1

Each workload runs as a closed loop: one client, one process and thread,
items back to back over a fixed corpus made from the seed before timing.
Whole passes over the corpus are repeated while the next one fits in
--seconds (at least three), with the set-up probes between them.  Every
item run is scaled to a nominal host speed by the reference runs that
bracket it (hostspeed.py), and an item's latency is the median of its
scaled runs.  Verdicts are checked against known answers outside the
timed region.  The last line of stdout is one JSON object:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
metrics of one traced pass (and the tracing overhead against one untraced
pass on the lines before it).  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("conservativity", "equations", "lawcheck")
HELD_OUT_SEED = 7919          # reserved for confirming a claimed gain
SETUP_PROBES = 11
MIN_PASSES = 3
ITEM_BUDGET_S = 60.0          # an item slower than this counts as failed
OUT_DIR = ROOT / ".bench_build" / "perfbench"
PER_LAYER = [
    "models.semantic_eq.calls", "models.semantic_eq.self_s",
    "models.env_space.envs",
    "typecheck.check.calls", "typecheck.check.self_s",
    "equations.redexes.calls", "equations.redexes.self_s",
    "equations.normalize.calls", "equations.normalize.self_s",
    "equations.normalize.steps",
    "equations.axiom_moves.calls", "equations.axiom_moves.self_s",
    "equations.axiom_moves.moves",
    "equations.check_eq.calls", "equations.check_eq.self_s",
    "equations.check_eq.unknown",
    "syntax.parse.calls", "syntax.parse.self_s",
    "translate.gmm_to_lnl.self_s", "translate.arrow_to_armm.self_s",
    "lawcheck.graded.calls", "lawcheck.graded.self_s",
    "lawcheck.ungraded.calls", "lawcheck.ungraded.self_s",
    "lawcheck.laws_checked", "lawcheck.laws_skipped",
    "signatures.load.self_s",
]


def say(*parts):
    print(*parts, flush=True)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# -- measurement --------------------------------------------------------------

def run_pass(wl, ctx, items, tracer=None):
    """One pass over the corpus: per-item seconds, per-item host-speed
    scale factors, outcomes, errors.  A reference run before the first
    item and after each item brackets every item, outside its timing."""
    secs, scales, outs, errs = [], [], [], []
    before = hostspeed.time_reference()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        t0 = perf_counter()
        try:
            out, err = wl.run(ctx, item), None
        except Exception as e:  # an item that raises is a failed item
            out, err = None, f"{type(e).__name__}: {e}"
        dt = perf_counter() - t0
        if err is None and dt > ITEM_BUDGET_S:
            err = f"over budget ({dt:.1f}s > {ITEM_BUDGET_S}s)"
        after = hostspeed.time_reference()
        secs.append(dt)
        scales.append(hostspeed.scale(before, after))
        outs.append(out)
        errs.append(err)
        before = after
    return secs, scales, outs, errs


def digest(wl, outs, errs) -> str:
    h = hashlib.sha256()
    for i, (out, err) in enumerate(zip(outs, errs)):
        rec = f"ERROR {err}" if err else wl.record(out)
        h.update(f"{i}\t{rec}\n".encode())
    return h.hexdigest()


def run_passes(wl, ctx, items, seconds, workload):
    """Whole passes over the corpus while the next one is expected to fit
    in `seconds` (at least MIN_PASSES), with the set-up probes spread
    between them, one after each pass, so that the probes and the passes
    sample the host over the whole run.  Only the first pass's outcomes
    are kept (for validation); every pass contributes its timings, errors
    and digest."""
    secs, scales, errs, digests, probes = [], [], [], [], []
    first = None
    t0 = perf_counter()
    while True:
        s, k, outs, e = run_pass(wl, ctx, items)
        digests.append(digest(wl, outs, e))
        if first is None:
            first = outs
        del outs
        gc.collect()   # every pass starts from the same heap
        secs.append(s)
        scales.append(k)
        errs.append(e)
        if len(probes) < SETUP_PROBES:
            probes.append(setup_probe(workload))
        spent = perf_counter() - t0
        per_pass = spent / len(secs)
        if len(secs) >= MIN_PASSES and spent + per_pass > seconds:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(workload))
    return secs, scales, errs, digests, first, probes


def setup_probe(workload) -> tuple[float, float]:
    """Set-up time of one fresh interpreter and its host-speed scale
    factor, measured in that interpreter."""
    res = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        fail(f"set-up probe failed:\n{res.stderr}")
    secs, factor = res.stdout.strip().splitlines()[-1].split()
    return float(secs), float(factor)


def tail(lat):
    """Latency at the highest percentile with >= 10 items beyond it."""
    n = len(lat)
    s = sorted(lat)
    rank = max(0, n - 11)       # s[rank] has n - 1 - rank >= 10 items above
    return s[rank], 100.0 * (rank + 1) / n


# -- bookkeeping --------------------------------------------------------------

def tree_hash(top: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(top.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(top)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        p = ROOT / ".git" / ref[5:]
        return p.read_text().strip() if p.is_file() else f"unresolved {ref}"
    return ref


def check_stored_digest(workload, seed, dig, key) -> str:
    """Compare with the digest an earlier run of the same sources and seed
    stored in this checkout; store it if there is none."""
    d = OUT_DIR / "digests"
    d.mkdir(parents=True, exist_ok=True)
    p = d / f"{workload}-{seed}-{key}.txt"
    if p.is_file():
        old = p.read_text().strip()
        return "same as the stored run" if old == dig else \
            f"DIFFERS from the stored run ({old})"
    p.write_text(dig + "\n")
    return "stored (no earlier run of these sources and seed)"


# -- main ---------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "relmeta" / "__init__.py").is_file():
        fail(f"no relmeta sources under {ROOT / 'src'}; run from the root"
             f" of a relmeta checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracing

    wl = importlib.import_module(f"wl_{args.workload}")
    ctx = wl.setup()
    t0 = perf_counter()
    rng = random.Random(args.seed)
    items = wl.corpus(ctx, rng)
    gen_s = perf_counter() - t0
    src_hash = tree_hash(ROOT / "src" / "relmeta")
    bench_hash = tree_hash(HERE)
    kinds = {}
    for it in items:
        kinds[it.kind] = kinds.get(it.kind, 0) + 1

    say(f"perfbench workload={args.workload} seed={args.seed}"
        f" held_out_seed={HELD_OUT_SEED} seconds={args.seconds:g}"
        f" trace={args.trace}")
    say(f"python={platform.python_version()} cpus={os.cpu_count()}"
        f" commit={git_commit()} source_sha256={src_hash[:16]}"
        f" benchmark_sha256={bench_hash[:16]}")
    say(f"corpus: {len(items)} items, generated in {gen_s:.3f} s; per kind: "
        + ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())))

    tr = None
    if args.trace:
        secs0, scales0, outs0, errs0 = run_pass(wl, ctx, items)
        tr = tracing.Tracer()
        tr.install()
        try:
            tr.item = "setup"
            wl.setup()
            secs1, scales1, outs1, errs1 = run_pass(wl, ctx, items, tr)
        finally:
            tr.uninstall()
        secs, scales = [secs0, secs1], [scales0, scales1]
        errs = [errs0, errs1]
        digests = [digest(wl, outs0, errs0), digest(wl, outs1, errs1)]
    else:
        secs, scales, errs, digests, outs0, probes = run_passes(
            wl, ctx, items, args.seconds, args.workload)
    wrappers = tracing.installed_wrappers()

    # validation, outside the timed region: first pass, every item
    reasons = [err or wl.validate(ctx, item, out)
               for item, out, err in zip(items, outs0, errs[0])]
    attempted = len(items) * len(secs)
    failed = sum(1 for pass_errs in errs
                 for err, why in zip(pass_errs, reasons) if err or why)
    for i, why in enumerate(reasons):
        if why:
            say(f"FAILED item {i} [{items[i].kind}]: {why}")
    stored = "not stored (traced run)" if args.trace else \
        check_stored_digest(args.workload, args.seed, digests[0],
                            f"{src_hash[:16]}-{bench_hash[:16]}")
    same = len(set(digests)) == 1 and not stored.startswith("DIFFERS")
    say(f"digest {digests[0]} over {len(secs)} passes:"
        f" {'identical' if len(set(digests)) == 1 else 'NOT identical'};"
        f" {stored}")
    if wrappers:
        say(f"tracer wrappers left installed: {', '.join(wrappers)}")
    correct = failed == 0 and same and not wrappers

    if args.trace:
        base, traced = (sum(x * k for x, k in zip(secs[i], scales[i]))
                        for i in (0, 1))
        say(f"tracing overhead: untraced pass {base:.3f} s, traced pass"
            f" {traced:.3f} s (scaled to the nominal host speed), overhead"
            f" {100 * (traced / base - 1):+.1f}% ({len(tr.spans)} spans;"
            f" unscaled {sum(secs[0]):.3f} s and {sum(secs[1]):.3f} s)")
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv.gz"
        tr.write(span_file)
        say(f"spans written to {span_file.relative_to(ROOT)}")
        calls, self_s = tr.layer_totals()
        metrics = {}
        for name in PER_LAYER:
            layer, _, what = name.rpartition(".")
            if what == "calls":
                metrics[name] = {"value": calls.get(layer, 0),
                                 "unit": "count"}
            elif what == "self_s":
                metrics[name] = {"value": self_s.get(layer, 0.0),
                                 "unit": "s"}
            else:
                metrics[name] = {"value": tr.counts.get(name, 0),
                                 "unit": "count"}
    else:
        # an item's latency is the median of its runs, each scaled to the
        # nominal host speed by the reference runs that bracket it
        lat = [statistics.median(x * k for x, k in zip(xs, ks))
               for xs, ks in zip(zip(*secs), zip(*scales))]
        raw = [statistics.median(xs) for xs in zip(*secs)]
        setup_s = statistics.median(x * k for x, k in probes)
        tail_s, pct = tail(lat)
        sts = [s for out, err in zip(outs0, errs[0]) if not err
               for s in wl.statuses(out)]
        decided = sum(s in ("PROVEN", "REFUTED", "PASS", "FAIL") for s in sts)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": len(items) / sum(lat), "unit": "1/s"},
            "latency_p50_ms": {"value": 1000 * statistics.median(lat),
                               "unit": "ms"},
            "latency_tail_ms": {"value": 1000 * tail_s, "unit": "ms"},
            "decided_share": {"value": decided / max(1, len(sts)),
                              "unit": "share"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024, "unit": "MB"},
        }
        ks = sorted(k for row in scales for k in row)
        say(f"host speed: item runs scaled by {ks[len(ks) // 20]:.3f} (p5),"
            f" {ks[len(ks) // 2]:.3f} (p50), {ks[-1 - len(ks) // 20]:.3f}"
            f" (p95); nominal reference run"
            f" {1e6 * hostspeed.REF_NOMINAL_S:.0f} us")
        say(f"unscaled: setup_s"
            f" {statistics.median(x for x, _ in probes):.6f} s, items_per_s"
            f" {len(items) / sum(raw):.4f} 1/s, latency_p50_ms"
            f" {1000 * statistics.median(raw):.4f} ms, latency_tail_ms"
            f" {1000 * tail(raw)[0]:.4f} ms")
        say("setup probes (s, scale): " + " ".join(
            f"{x:.4f},{k:.3f}" for x, k in probes))
        say("pass seconds: " + " ".join(f"{sum(s):.3f}" for s in secs))
        say(f"latency_tail_ms is p{pct:.1f} of {len(lat)} per-item latencies")
        per_kind = {}
        for it, x in zip(items, lat):
            per_kind[it.kind] = per_kind.get(it.kind, 0.0) + x
        say("seconds per pass by kind: " + ", ".join(
            f"{k}={v:.3f}" for k, v in sorted(per_kind.items())))
        say("verdicts: " + ", ".join(
            f"{s}={sts.count(s)}" for s in sorted(set(sts))))
        say(f"error_rate {failed / attempted:.6f} ({failed}/{attempted})")
    for name, m in metrics.items():
        say(f"metric {name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
