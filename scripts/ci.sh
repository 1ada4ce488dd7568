#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merge.
#
#   scripts/ci.sh            # build + test + lint
#
# Keep this in sync with ROADMAP.md's "tier-1" definition.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> registry dependencies: serde and crossbeam only"
# `--no-deps` reads the manifests without resolving the graph, so this
# runs offline. Everything else is in-repo. No source file uses serde or
# crossbeam: their manifest entries stay only because perfbench's
# committed `--locked` lockfile names them, and they go with that
# lockfile. Until then the root Cargo.toml's `[patch.crates-io]` points
# both at perfbench's std-only stand-ins and the committed Cargo.lock
# pins them, so every cargo step below runs offline as written.
cargo metadata --offline --no-deps --format-version 1 | python3 -c '
import json, sys
extra = sorted({(p["name"], d["name"]) for p in json.load(sys.stdin)["packages"]
                for d in p["dependencies"]
                if d["source"] and d["name"] not in ("serde", "crossbeam")})
for pkg, dep in extra:
    print(f"{pkg} depends on registry crate {dep}", file=sys.stderr)
sys.exit(1 if extra else 0)
'

echo "==> no source file names crossbeam"
# Every channel is std::sync::mpsc and every worker's data plane is the
# in-repo SPSC ring; this keeps it that way until the manifest entries go.
if grep -rln --include='*.rs' crossbeam crates src tests examples; then
    echo "the files above name crossbeam; use std::sync::mpsc or crate::ring" >&2
    exit 1
fi

echo "==> no source file names serde"
# Snapshots use the in-repo `Persist` byte format; no type derives a serde
# trait, and this keeps it that way until the manifest entries go.
if grep -rln --include='*.rs' serde crates src tests examples; then
    echo "the files above name serde; persist state through sketches::persist" >&2
    exit 1
fi

echo "==> perfbench: unit tests + smoke runs"
# perfbench is a workspace of its own (committed lockfile, std-only
# stand-ins), so these checks run offline. Each smoke run checks every
# answer over the wire; its last line must report `"correct": true`.
(cd perfbench && cargo test --offline --workspace)
for workload in ingest-skewed mixed-serving; do
    last="$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 5 --trace 0 --smoke | tail -n 1)"
    case "$last" in
        *'"correct": true'*) echo "perfbench $workload smoke: correct" ;;
        *) echo "perfbench $workload smoke failed: $last" >&2; exit 1 ;;
    esac
done
# One traced run keeps the per-layer ledger (which layer's CPU-ns each
# key costs) building and checking its answers.
last="$(python3 perfbench/run.py --workload ingest-skewed --seed 1 --seconds 5 --trace 1 --smoke | tail -n 1)"
case "$last" in
    *'"correct": true'*) echo "perfbench ingest-skewed traced smoke: correct" ;;
    *) echo "perfbench ingest-skewed traced smoke failed: $last" >&2; exit 1 ;;
esac

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
# The step above tests only the root package; the member crates' own
# unit tests (the WAL's, the runtime's fault tests) run here.
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
# Public docs must not link private items or name missing ones; a
# broken intra-doc link fails here rather than rotting in the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> §6.2 pipelines: Figure 12/13 shape checks + streaming example"
# The pipelines run nowhere else outside `cargo test`. `repro` exits 1 on
# any "— FAIL" shape note (Figure 12's speedup note applies on >= 2
# cores); the example asserts one-sidedness against ground truth.
cargo run -q -p asketch-bench --release --bin repro -- fig12 fig13
cargo run -q --release --example pipeline_streaming

# Fresh harness runs go to a scratch directory and are gated from there;
# the committed BENCH_*.json artifacts are read, never overwritten. Every
# gate bar lives in the harness bins, picked from the `cores` an artifact
# records where it depends on the host.
ART="$(mktemp -d)"
trap 'rm -rf "$ART"' EXIT

echo "==> throughput bench smoke (batched vs scalar gate) + regression vs the committed run"
# Every harness gate times its sides in interleaved rounds (A B, then B A)
# from state built outside the timing, and reads the median per-round
# ratio. The kernel gates read thread CPU time: batched/scalar >= 1.5x,
# and `--regress` fails any matched row (same stream config and
# skew/filter/backend/batch as the committed full run) whose
# cpu_ns_per_update rose more than 15%, on any core count.
cargo run -q -p asketch-bench --release --bin throughput -- --smoke --out "$ART/throughput.json"
cargo run -q -p asketch-bench --release --bin throughput -- --validate "$ART/throughput.json"
cargo run -q -p asketch-bench --release --bin throughput -- \
    --regress BENCH_throughput.json "$ART/throughput.json"

echo "==> committed artifacts: every BENCH_*.json validates"
# Pure JSON-contents checks of the committed full runs, no re-measurement:
# each artifact passes the same gate as a fresh run, with the bars its
# recorded `cores` picks (an artifact written without `cores` fails).
cargo run -q -p asketch-bench --release --bin throughput -- --validate BENCH_throughput.json
cargo run -q -p asketch-bench --release --bin throughput -- --validate-layout BENCH_layout.json
cargo run -q -p asketch-bench --release --bin throughput -- --validate-concurrent BENCH_concurrent.json
cargo run -q -p asketch-bench --release --bin throughput -- --validate-recovery BENCH_recovery.json
cargo run -q -p asketch-bench --release --bin crash_recovery -- --validate-faults BENCH_faults.json
cargo run -q -p asketch-bench --release --bin crash_recovery -- --validate-chaos BENCH_chaos.json

echo "==> concurrent runtime smoke (wait-free read + shard-scaling gate)"
# reader_blocked == 0 on every row is unconditional; the 4-shard vs
# 1-shard scaling bar (wall time) is 2.0x on >= 4 cores and 1.2x below.
cargo run -q -p asketch-bench --release --bin throughput -- \
    --concurrent --smoke --out "$ART/concurrent.json"
cargo run -q -p asketch-bench --release --bin throughput -- --validate-concurrent "$ART/concurrent.json"

echo "==> durability: recovery bench gate"
# WAL-on ingest overhead at fsync=interval (wall time) within 15% (25% on
# one core) of the no-durability baseline; replay at least half of live
# ingest.
cargo run -q -p asketch-bench --release --bin throughput -- \
    --recovery --smoke --out "$ART/recovery.json"
cargo run -q -p asketch-bench --release --bin throughput -- --validate-recovery "$ART/recovery.json"

echo "==> durability: crash-injection recovery smoke (SIGKILL loop)"
# Every trial SIGKILLs a durable ingest child at a random point and
# asserts deduped recovery equals the independently recomputed durable
# prefix exactly (raw recovery may only over-count). Full bar is 25
# trials (the committed acceptance run); CI smokes a short loop so the
# gate stays fast while still crossing every fsync policy.
cargo run -q -p asketch-bench --release --bin crash_recovery -- \
    --trials 6 --keys 200000 --dir "$ART/crash"

echo "==> durability: storage-chaos sweep (injected faults + bit-rot scrub)"
# In-process fault injection from a seeded fault plan: every fault kind
# (EIO, ENOSPC, short write, fsync failure, torn rename) as both a
# transient blip (must be retried away) and a persistent fault (must
# engage disk-sick degraded mode with the right typed class), across all
# three fsync policies, plus live bit-rot trials the integrity scrubber
# must detect and quarantine at 100%. The seed fixes which operations
# fail, not when the snapshotter, WAL syncer and shard workers run, so
# each row's keys/acked/durable/injected/retries counts vary from run to
# run at the same seed; the gate checks invariants, not counts.
cargo run -q -p asketch-bench --release --bin crash_recovery -- \
    --faults --seed 1592598550 --dir "$ART/faults" --out "$ART/faults.json"
cargo run -q -p asketch-bench --release --bin crash_recovery -- --validate-faults "$ART/faults.json"

echo "==> serving survivability: network-chaos sweep (exactly-once over reconnects)"
# Seeded TCP fault injection (reset, stall, partial-write, partition)
# between a resilient session client and a durable serve child that is
# SIGKILL-restarted mid-stream behind the proxy. Every trial must end
# with the live estimates AND the offline dedup recovery exactly equal
# to the acked oracle — zero lost acks, zero duplicates. Full bar is 8
# seeds per fault (32 trials, the committed acceptance run); CI smokes a
# reduced grid. The proxy, client, and both server
# generations need to overlap in time: on one CPU the stall/partition
# windows stretch under time-slicing, so run the minimum grid there
# loudly rather than flake.
CORES="$(nproc 2>/dev/null || echo 1)"
if [ "$CORES" -ge 2 ]; then
    NET_SEEDS=4
else
    NET_SEEDS=2
    echo "WARNING: only $CORES CPU(s); reducing net-chaos smoke to 2 seeds per fault" \
         "(full bar is 8 seeds per fault = 32 trials, the committed BENCH_chaos.json run)"
fi
cargo run -q -p asketch-bench --release --bin crash_recovery -- \
    --net-chaos --net-seeds "$NET_SEEDS" --seed 1592598550 --dir "$ART/net" --out "$ART/chaos.json"
cargo run -q -p asketch-bench --release --bin crash_recovery -- --validate-chaos "$ART/chaos.json"

echo "==> ThreadSanitizer pass (concurrent runtime, nightly-only)"
# TSan needs nightly + rust-src (-Zbuild-std). Skip gracefully when the
# toolchain can't do it. The seqlock and ring loom models behind
# `--cfg loom` do not run anywhere: no manifest names loom, so that cfg
# does not build.
if rustup run nightly rustc --version >/dev/null 2>&1 \
   && rustup component list --toolchain nightly 2>/dev/null \
      | grep -q 'rust-src (installed)'; then
    RUSTFLAGS="-Zsanitizer=thread" \
    RUSTDOCFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -Zbuild-std --target "$(rustc -vV | sed -n 's/^host: //p')" \
        -p asketch-parallel --release -- seqlock concurrent
else
    echo "SKIP: nightly toolchain with rust-src not available; ThreadSanitizer pass not run"
fi

echo "==> ci.sh: all green"
