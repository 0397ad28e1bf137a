#!/usr/bin/env python3
"""Assemble and gate the benchmark trajectory files (BENCH_*.json).

The vendored criterion harness appends one JSON line per benchmark to the
file named by FDB_BENCH_JSON, and the counting-allocator suite
(tests/alloc_steady_state.rs) appends one line per scenario to the file
named by FDB_ALLOC_JSON. This tool turns those streams into a committed
trajectory file, and gates CI on it:

  # run the benches, collecting machine-readable results
  FDB_BENCH_JSON=target/bench.jsonl cargo bench -p fdb-bench --no-default-features

  # run the counting-allocator suite, collecting steady-state alloc counts
  FDB_ALLOC_JSON=target/alloc.jsonl cargo test --release --test alloc_steady_state

  # assemble the paired speedups + alloc counts into a trajectory file
  python3 tools/bench_check.py emit --jsonl target/bench.jsonl \
      --alloc-jsonl target/alloc.jsonl \
      --out BENCH_pr9.json --label pr9 [--enforce-floors]

  # CI smoke gate: recompute speedups and fail on >20% regression
  python3 tools/bench_check.py check --jsonl target/bench.jsonl \
      --baseline BENCH_pr9.json --tolerance 0.20

  # CI alloc gate: fail if any steady-state scenario allocates at all
  python3 tools/bench_check.py check --alloc-jsonl target/alloc.jsonl \
      --baseline BENCH_pr9.json

  # run the city-scale gate, collecting the 10k-tag event trajectory
  FDB_CITY_JSON=target/city.jsonl cargo test --release --test city_scale \
      -- --include-ignored
  python3 tools/bench_check.py check --city-jsonl target/city.jsonl \
      --baseline BENCH_pr10.json

Only *ratios* (candidate vs baseline within one process on one machine) and
*allocation counts* (exact, machine-independent) are compared across runs,
never absolute times, so the gate is machine-portable. Python 3 standard
library only.
"""

import argparse
import json
import statistics
import sys

# Optimised/scalar pairs the trajectory tracks. `floor` is the minimum
# speedup the optimised implementation must show over its in-process scalar
# baseline (None = report-only). The floor comes from the PR-6 acceptance
# criteria: >=2x on end-to-end rx decode.
PAIRS = {
    "rx_chain_64B_frame": {
        "baseline": "rx_chain/sic_resample_decode_64B_per_sample",
        "candidate": "rx_chain/sic_resample_decode_64B_block",
        "floor": 2.0,
    },
    # Dispatch-only slice of the pair above (shared finish-chip/DLL work
    # dominates, so the ratio is structurally capped well under the chain
    # pair's floor): report-only.
    "rx_decode_64B_frame": {
        "baseline": "phy_loopback/rx_decode_64B_frame",
        "candidate": "phy_loopback/rx_decode_64B_frame_slices",
        "floor": None,
    },
    "run_frame_64B_cw": {
        "baseline": "fd_link/run_frame_64B_cw_reference",
        "candidate": "fd_link/run_frame_64B_cw",
        "floor": None,
    },
    "run_frame_64B_tv_wideband": {
        "baseline": "fd_link/run_frame_64B_tv_wideband_reference",
        "candidate": "fd_link/run_frame_64B_tv_wideband",
        "floor": None,
    },
}

# Steady-state allocation scenarios the trajectory tracks, from
# tests/alloc_steady_state.rs. `floor` is the maximum allocations the
# scenario may perform after its one-frame warmup — the PR-9 acceptance
# criterion pins every one of them at zero.
ALLOC_SCENARIOS = {
    "alloc/clean_link_reference": 0,
    "alloc/clean_link_block": 0,
    "alloc/clean_link_dispatch": 0,
    "alloc/faulted_link_reference": 0,
    "alloc/faulted_link_block": 0,
    # Out-of-range link: the block engine's batched acquisition pass.
    "alloc/hunting_link_block": 0,
    "alloc/mac_session": 0,
    # PR-10: second run of a reused CityEngine (tests/city_scale.rs).
    "alloc/city_steady": 0,
}

# City-scale scenarios the trajectory tracks, from tests/city_scale.rs
# (FDB_CITY_JSON stream). The processed-event count is fully deterministic
# and machine-independent, so `check` gates it *exactly* against the
# committed trajectory; wall_s / events_per_s are machine-local and
# report-only (the Rust test itself enforces the 60 s CI budget).
CITY_SCENARIOS = {"city/10k_1h"}

# Relative floors applied when emitting with --prior: the fresh speedup
# must be at least `floor` times the prior trajectory's committed speedup.
# PR-9's scratch-arena redesign must not cost the block rx chain its PR-6
# gain; the floor sits 5% under parity because the ratio compares two
# separate quick-mode invocations, whose run-to-run noise is a few percent
# (a real regression of the pair itself trips the 20% `check` gate too).
REL_FLOORS = {"rx_chain_64B_frame": 0.95}

SCHEMA = "fdb-bench-trajectory-v2"
# v1 files (BENCH_pr6.json) predate the `allocs` section; `check` still
# accepts them as baselines.
OLD_SCHEMAS = {"fdb-bench-trajectory-v1"}


def load_jsonl(path):
    """Parse the criterion result stream into {bench name: mean seconds}.

    A stream appended by several bench runs yields each bench's median
    mean, which steadies the ratios on a noisy host.
    """
    means = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{lineno}: bad JSON line: {e}")
            name, mean = rec.get("name"), rec.get("mean_s")
            if not isinstance(name, str) or not isinstance(mean, (int, float)):
                sys.exit(f"{path}:{lineno}: missing name/mean_s: {line}")
            if mean <= 0:
                sys.exit(f"{path}:{lineno}: non-positive mean_s for {name}")
            means.setdefault(name, []).append(float(mean))
    if not means:
        sys.exit(f"{path}: no benchmark records found")
    return {name: statistics.median(runs) for name, runs in means.items()}


def load_alloc_jsonl(path):
    """Parse the alloc result stream into {scenario: (allocs, frames)}."""
    counts = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{lineno}: bad JSON line: {e}")
            name, allocs = rec.get("name"), rec.get("steady_allocs")
            frames = rec.get("frames")
            if not isinstance(name, str) or not isinstance(allocs, int):
                sys.exit(f"{path}:{lineno}: missing name/steady_allocs: {line}")
            # Keep the last record when a scenario ran more than once.
            counts[name] = (allocs, frames if isinstance(frames, int) else 0)
    if not counts:
        sys.exit(f"{path}: no allocation records found")
    return counts


def load_city_jsonl(path):
    """Parse the city-scale result stream into {scenario: record}."""
    recs = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{lineno}: bad JSON line: {e}")
            name, events = rec.get("name"), rec.get("events_processed")
            if not isinstance(name, str) or not isinstance(events, int):
                sys.exit(f"{path}:{lineno}: missing name/events_processed: {line}")
            recs[name] = {
                "events_processed": events,
                "wall_s": float(rec.get("wall_s", 0.0)),
                "events_per_s": float(rec.get("events_per_s", 0.0)),
            }
    if not recs:
        sys.exit(f"{path}: no city-scale records found")
    missing = sorted(CITY_SCENARIOS - recs.keys())
    if missing:
        sys.exit("missing city-scale results: " + ", ".join(missing))
    return recs


def build_allocs(counts):
    """Resolve every tracked alloc scenario against the measured counts."""
    out, missing = {}, []
    for name, floor in ALLOC_SCENARIOS.items():
        if name not in counts:
            missing.append(name)
            continue
        allocs, frames = counts[name]
        out[name] = {
            "steady_allocs": allocs,
            "frames": frames,
            "floor": floor,
        }
    if missing:
        sys.exit("missing allocation results: " + ", ".join(sorted(missing)))
    return out


def build_pairs(means):
    """Resolve every tracked pair against the measured means."""
    out, missing = {}, []
    for key, spec in PAIRS.items():
        base, cand = spec["baseline"], spec["candidate"]
        if base not in means or cand not in means:
            missing.extend(n for n in (base, cand) if n not in means)
            continue
        out[key] = {
            "baseline": base,
            "candidate": cand,
            "baseline_mean_s": means[base],
            "candidate_mean_s": means[cand],
            "speedup": means[base] / means[cand],
            "floor": spec["floor"],
        }
    if missing:
        sys.exit("missing benchmark results: " + ", ".join(sorted(set(missing))))
    return out


def cmd_emit(args):
    means = load_jsonl(args.jsonl)
    pairs = build_pairs(means)
    doc = {
        "schema": SCHEMA,
        "label": args.label,
        "pairs": pairs,
        "raw_mean_s": dict(sorted(means.items())),
    }
    failures = []
    for key, p in pairs.items():
        print(f"{key:<32} {p['speedup']:6.2f}x  "
              f"({p['baseline_mean_s']:.3e}s -> {p['candidate_mean_s']:.3e}s)")
        if args.enforce_floors and p["floor"] and p["speedup"] < p["floor"]:
            failures.append(
                f"{key}: speedup {p['speedup']:.2f}x below floor {p['floor']:.1f}x")
    if args.prior:
        with open(args.prior, encoding="utf-8") as fh:
            prior_doc = json.load(fh)
        prior_pairs = prior_doc.get("pairs", {})
        rel = {}
        for key, floor in REL_FLOORS.items():
            if key not in pairs or key not in prior_pairs:
                sys.exit(f"relative floor {key}: pair missing from "
                         f"{'fresh run' if key not in pairs else args.prior}")
            prior_speedup = prior_pairs[key]["speedup"]
            ratio = pairs[key]["speedup"] / prior_speedup
            rel[key] = {
                "prior_speedup": prior_speedup,
                "ratio": ratio,
                "floor": floor,
            }
            print(f"{key:<32} {ratio:6.2f}x of {prior_doc.get('label', '?')}'s "
                  f"{prior_speedup:.2f}x (floor {floor:.1f}x)")
            if args.enforce_floors and ratio < floor:
                failures.append(
                    f"{key}: fresh speedup is only {ratio:.2f}x of the "
                    f"{prior_doc.get('label', '?')} trajectory "
                    f"(floor {floor:.1f}x)")
        doc["prior"] = {"label": prior_doc.get("label"), "rel": rel}
    allocs = {}
    if args.alloc_jsonl:
        allocs = build_allocs(load_alloc_jsonl(args.alloc_jsonl))
        doc["allocs"] = allocs
        for name, a in allocs.items():
            print(f"{name:<32} {a['steady_allocs']:6d} allocs over "
                  f"{a['frames']} steady-state frames (floor {a['floor']})")
            if args.enforce_floors and a["steady_allocs"] > a["floor"]:
                failures.append(
                    f"{name}: {a['steady_allocs']} steady-state allocations "
                    f"exceed floor {a['floor']}")
    city = {}
    if args.city_jsonl:
        city = load_city_jsonl(args.city_jsonl)
        doc["city"] = city
        for name, c in city.items():
            print(f"{name:<32} {c['events_processed']:10d} events in "
                  f"{c['wall_s']:.3f} s ({c['events_per_s']:.0f} events/s)")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"wrote {args.out} ({len(pairs)} pairs, {len(means)} benches, "
          f"{len(allocs)} alloc scenarios, {len(city)} city scenarios)")
    if failures:
        sys.exit("floor violations:\n  " + "\n  ".join(failures))


def cmd_check(args):
    if not args.jsonl and not args.alloc_jsonl and not args.city_jsonl:
        sys.exit("check: pass --jsonl, --alloc-jsonl, and/or --city-jsonl")
    with open(args.baseline, encoding="utf-8") as fh:
        base_doc = json.load(fh)
    if base_doc.get("schema") != SCHEMA and base_doc.get("schema") not in OLD_SCHEMAS:
        sys.exit(f"{args.baseline}: unexpected schema {base_doc.get('schema')!r}")
    failures = []
    checked = []
    if args.jsonl:
        fresh = build_pairs(load_jsonl(args.jsonl))
        for key, committed in base_doc.get("pairs", {}).items():
            if key not in fresh:
                failures.append(f"{key}: pair missing from fresh run")
                continue
            want = committed["speedup"] * (1.0 - args.tolerance)
            got = fresh[key]["speedup"]
            status = "ok" if got >= want else "REGRESSED"
            print(f"{key:<32} committed {committed['speedup']:6.2f}x  "
                  f"fresh {got:6.2f}x  (gate >= {want:.2f}x)  {status}")
            if got < want:
                failures.append(
                    f"{key}: fresh speedup {got:.2f}x is more than "
                    f"{args.tolerance:.0%} below committed {committed['speedup']:.2f}x")
        checked.append(f"{len(base_doc.get('pairs', {}))} pairs within "
                       f"{args.tolerance:.0%}")
    if args.alloc_jsonl:
        committed_allocs = base_doc.get("allocs")
        if not committed_allocs:
            sys.exit(f"{args.baseline}: no `allocs` section to gate against "
                     "(baseline predates the allocation trajectory?)")
        counts = load_alloc_jsonl(args.alloc_jsonl)
        for name, committed in committed_allocs.items():
            if name not in counts:
                failures.append(f"{name}: scenario missing from fresh run")
                continue
            got, _frames = counts[name]
            floor = committed["floor"]
            status = "ok" if got <= floor else "REGRESSED"
            print(f"{name:<32} committed {committed['steady_allocs']:6d}  "
                  f"fresh {got:6d}  (gate <= {floor})  {status}")
            if got > floor:
                failures.append(
                    f"{name}: {got} steady-state allocations exceed "
                    f"the committed floor of {floor}")
        checked.append(f"{len(committed_allocs)} alloc scenarios at floor")
    if args.city_jsonl:
        committed_city = base_doc.get("city")
        if not committed_city:
            sys.exit(f"{args.baseline}: no `city` section to gate against "
                     "(baseline predates the city-scale trajectory?)")
        fresh_city = load_city_jsonl(args.city_jsonl)
        for name, committed in committed_city.items():
            if name not in fresh_city:
                failures.append(f"{name}: scenario missing from fresh run")
                continue
            c = fresh_city[name]
            want = committed["events_processed"]
            got = c["events_processed"]
            status = "ok" if got == want else "DIVERGED"
            print(f"{name:<32} committed {want:10d} events  fresh {got:10d}  "
                  f"({c['wall_s']:.3f} s, {c['events_per_s']:.0f} events/s)  "
                  f"{status}")
            if got != want:
                failures.append(
                    f"{name}: fresh run processed {got} events but the "
                    f"committed trajectory pins {want} — the city engine's "
                    "deterministic schedule changed (rerun emit if intended)")
        checked.append(f"{len(committed_city)} city scenarios event-exact")
    if failures:
        sys.exit("bench regression gate failed:\n  " + "\n  ".join(failures))
    print(f"bench gate ok ({'; '.join(checked)} vs {args.baseline})")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    em = sub.add_parser("emit", help="assemble a BENCH_*.json trajectory file")
    em.add_argument("--jsonl", required=True, help="criterion FDB_BENCH_JSON output")
    em.add_argument("--alloc-jsonl",
                    help="counting-allocator FDB_ALLOC_JSON output "
                         "(tests/alloc_steady_state.rs)")
    em.add_argument("--city-jsonl",
                    help="city-scale FDB_CITY_JSON output "
                         "(tests/city_scale.rs, --include-ignored)")
    em.add_argument("--prior",
                    help="earlier committed BENCH_*.json; enforces the "
                         "relative speedup floors (REL_FLOORS) against it")
    em.add_argument("--out", required=True, help="trajectory file to write")
    em.add_argument("--label", default="dev", help="trajectory label (e.g. pr9)")
    em.add_argument("--enforce-floors", action="store_true",
                    help="fail if any pair or alloc scenario misses its "
                         "acceptance floor")
    em.set_defaults(fn=cmd_emit)

    ck = sub.add_parser("check", help="gate a fresh run against a committed file")
    ck.add_argument("--jsonl", help="criterion FDB_BENCH_JSON output")
    ck.add_argument("--alloc-jsonl",
                    help="counting-allocator FDB_ALLOC_JSON output; gates "
                         "fresh counts against the committed alloc floors")
    ck.add_argument("--city-jsonl",
                    help="city-scale FDB_CITY_JSON output; gates the "
                         "deterministic event count exactly against the "
                         "committed trajectory")
    ck.add_argument("--baseline", required=True, help="committed BENCH_*.json")
    ck.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed fractional speedup regression (default 0.20)")
    ck.set_defaults(fn=cmd_check)

    args = ap.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
