#!/usr/bin/env sh
# The repo's verification gate: formatting, lints, release build, tests.
# Run from the repository root. Fully offline — the workspace has no
# external dependencies.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> cargo test (hot-path feature matrix)"
# The three hot-path levers (DESIGN.md §15) must each pass the tier-1
# suite alone and all together. Per-lever runs cover the crate that owns
# the lever plus the cross-crate golden-checksum pin (bit-identity of
# results with the lever on); the combined run covers the whole
# workspace with everything on at once.
cargo test -p grain-runtime --features task-slab --offline -q
cargo test -p grain-runtime --features coarse-clock --offline -q
# Not a lever but the fourth A/B twin of the runtime: the pre-lock-free
# queue must keep passing the suite it is the reference for.
cargo test -p grain-runtime --features mutex-queue --offline -q
cargo test -p grain-net --features parcel-reuse --offline -q
cargo test -p grain-taskbench --features grain-runtime/task-slab \
    --offline -q --test executors pinned_golden
cargo test --workspace --offline -q \
    --features grain-runtime/task-slab,grain-runtime/coarse-clock,grain-net/parcel-reuse

echo "==> cargo test (fault-inject)"
# The deterministic fault-injection hooks are compiled out by default;
# exercise the injected-panic/delay/spurious-wake paths and the seeded
# replay tests with the feature on.
cargo test -p grain-runtime --features fault-inject --offline -q

echo "==> perf/check.sh"
# The benchmark is a package of its own that the workspace commands
# above never build: its fmt, clippy, build, tests, the smoke suite
# (every workload, every operation verified) and BENCHMARK.json against
# the tables it is generated from.
perf/check.sh

echo "==> chaos soak (bounded)"
# Replay one seeded multi-tenant storm (2x oversubmission, a panicking
# tenant) with the resilience layer off and on, and assert the ledger
# conservation / budget-restoration / breaker-recovery invariants. The
# virtual horizon is scaled down to real time, so this stays bounded
# (tens of seconds) while covering 30 virtual seconds of load.
cargo run --release -p grain-bench --bin soak --offline -- \
    --virtual-seconds 30 --seed 7

echo "==> queue bench smoke"
# Bounded run of the scheduler-queue microbenchmark: asserts
# pop-after-push FIFO sanity internally (non-zero exit on violation) and
# records the lockfree-vs-mutex throughput table plus the fine-grain
# stencil sweep for before/after comparison.
mkdir -p results
cargo run --release -p grain-bench --bin queue_bench --offline -- --quick \
    | tee results/queue_bench.txt
grep -q '^OK$' results/queue_bench.txt || {
    echo "queue_bench did not complete" >&2
    exit 1
}
# The same bounded run with the hot-path levers on, appending the
# "after" half of the before/after pair (EXPERIMENTS.md, hot-path
# section) to results/BENCH_queue.json.
cargo run --release -p grain-bench --features hotpath --bin queue_bench \
    --offline -- --quick > results/queue_bench_hotpath.txt
grep -q '^OK$' results/queue_bench_hotpath.txt || {
    echo "queue_bench (hotpath) did not complete" >&2
    exit 1
}

echo "==> dist smoke"
# The distribution layer end to end: a 2-locality in-process stencil
# must be bit-identical to the single-runtime run (asserted inside the
# test), then a bounded dist_bench sweep re-checks correctness against
# the oracle and the sent==received parcel balance per configuration.
cargo test --offline -q --test distributed
cargo run --release -p grain-bench --bin dist_bench --offline -- --quick \
    | tee results/dist_bench.txt
grep -q '^OK$' results/dist_bench.txt || {
    echo "dist_bench did not complete" >&2
    exit 1
}
# "After" half of the hot-path pair for the parcel path.
cargo run --release -p grain-bench --features hotpath --bin dist_bench \
    --offline -- --quick > results/dist_bench_hotpath.txt
grep -q '^OK$' results/dist_bench_hotpath.txt || {
    echo "dist_bench (hotpath) did not complete" >&2
    exit 1
}

echo "==> netstorm replay determinism"
# The chaos headline: a 3-locality taskbench storm over the simulated
# network fabric (drop/dup/reorder + a partition/heal cycle + a
# kill-under-partition), with exactly-once settlement counted and the
# parcel ledger conserved — asserted inside the binary. The binary
# already replays itself once in-process; running it twice as separate
# processes and diffing proves the report is deterministic across
# process boundaries too (no address, timing, or thread-id leakage).
cargo run --release -p grain-bench --bin netstorm --offline -- --quick \
    | tee results/netstorm.txt
grep -q '^OK$' results/netstorm.txt || {
    echo "netstorm did not complete" >&2
    exit 1
}
cargo run --release -p grain-bench --bin netstorm --offline -- --quick \
    > results/netstorm_replay.txt
cmp -s results/netstorm.txt results/netstorm_replay.txt || {
    echo "netstorm reports diverged across processes" >&2
    diff results/netstorm.txt results/netstorm_replay.txt >&2 || true
    exit 1
}

echo "==> taskbench smoke"
# The dependency-graph workload surface end to end: five graph families
# generated from one seed, swept over grain and payload on the local
# executor with Eqs. 1-6 emitted per cell, then one random DAG checked
# for checksum equality across all three executors (runtime / service /
# 2 loopback localities; asserted internally, non-zero exit on
# divergence) and the run appended to results/BENCH_taskbench.json.
cargo run --release -p grain-bench --bin taskbench --offline -- --quick \
    | tee results/taskbench.txt
grep -q '^OK$' results/taskbench.txt || {
    echo "taskbench did not complete" >&2
    exit 1
}
# "After" half of the hot-path pair for the task spawn/dispatch path.
cargo run --release -p grain-bench --features hotpath --bin taskbench \
    --offline -- --quick > results/taskbench_hotpath.txt
grep -q '^OK$' results/taskbench_hotpath.txt || {
    echo "taskbench (hotpath) did not complete" >&2
    exit 1
}

echo "==> BENCH trajectory stamps"
# Every bench above appended features-stamped snapshots; assert each
# trajectory actually gained a commit-stamped before (baseline) and
# after (all levers) entry from this tree, so a stale results/ dir or a
# silently-skipped append can't masquerade as a recorded pair.
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
for b in queue dist taskbench; do
    for feats in 'baseline' 'task-slab+coarse-clock+parcel-reuse'; do
        grep -q "\"commit\":\"$commit\".*\"features\":\"$feats\"" \
            "results/BENCH_$b.json" || {
            echo "BENCH_$b.json has no $feats snapshot for $commit" >&2
            exit 1
        }
    done
done

echo "==> fleetstorm replay determinism"
# The fleet headline: a multi-tenant storm routed through the gateway
# across three worker localities while the harness kills, drains, and
# partitions them — exactly-once completion accounting asserted per
# batch (ledger conserved, fault windows exact), plus six targeted
# failover stages (orphan re-dispatch, duplicate fencing, drain
# hand-back, stale-epoch fence after partition/heal, quorum shedding,
# remote-reject origin). The binary replays itself once in-process;
# running it twice as separate processes and diffing proves the report
# is deterministic across process boundaries too.
cargo run --release -p grain-bench --bin fleetstorm --offline -- --quick \
    | tee results/fleetstorm.txt
grep -q '^OK$' results/fleetstorm.txt || {
    echo "fleetstorm did not complete" >&2
    exit 1
}
cargo run --release -p grain-bench --bin fleetstorm --offline -- --quick \
    > results/fleetstorm_replay.txt
cmp -s results/fleetstorm.txt results/fleetstorm_replay.txt || {
    echo "fleetstorm reports diverged across processes" >&2
    diff results/fleetstorm.txt results/fleetstorm_replay.txt >&2 || true
    exit 1
}

echo "==> autotune convergence replay determinism"
# Online granularity control (DESIGN.md §16): three tenants starting at
# pathological grains converge under the deterministic cost-model storm
# (≤8 jobs, t_o within 10% of the grid-searched optimum — asserted
# inside the binary, non-zero exit + FAIL lines on violation). Stdout
# carries only modeled, host-independent numbers; running the binary
# twice and byte-comparing proves no wall-clock measurement leaks into
# a controller decision. The measured autotune-on/off phase goes to
# stderr and appends results/BENCH_autotune.json.
cargo run --release -p grain-bench --bin autotune --offline -- --quick \
    2>results/autotune.log | tee results/autotune.txt
grep -q '^OK$' results/autotune.txt || {
    echo "autotune did not complete" >&2
    exit 1
}
cargo run --release -p grain-bench --bin autotune --offline -- --quick \
    2>>results/autotune.log > results/autotune_replay.txt
cmp -s results/autotune.txt results/autotune_replay.txt || {
    echo "autotune convergence reports diverged across processes" >&2
    diff results/autotune.txt results/autotune_replay.txt >&2 || true
    exit 1
}
grep -q "\"commit\":\"$commit\"" results/BENCH_autotune.json || {
    echo "BENCH_autotune.json has no snapshot for $commit" >&2
    exit 1
}

echo "==> unwrap-free hot paths"
# The worker dispatch loop, the scheduler search, the lock-free queue,
# the service dispatcher, and the overload path (admission + pressure)
# must not use unwrap(): a poisoned-lock or bad-option unwrap there
# takes down a worker or wedges every tenant.
# Enforced by clippy at deny level; assert the attributes stay in place.
# The parcelport and wire codec join the list: an unwrap there lets one
# hostile or truncated frame take down a network thread (and with it
# every future routed over that link). So do the taskbench generator and
# executors: a panic inside a node task or the edge board poisons a
# whole measured sweep (and, distributed, wedges remote edge waiters).
# The chaos layer joins too: the locality's dispatch/dedup/monitor
# paths, the transport seam, and the simulated fabric's pump thread all
# run on threads whose panic silently kills delivery for a whole world.
# And the whole fleet crate: the gateway pump and the worker's
# submit/push handlers run on threads whose panic strands every leased
# job — exactly the hang the plane exists to prevent.
# The task-body slab joins: it holds every pooled task frame, so an
# unwrap there corrupts spawns across all workers at once.
# The autotune crate and the strategy engines join: the policy hook and
# counter closures run inside the service's settle path and the stats
# sampler — a panic there turns a mis-tuned grain into a dead dispatcher.
for f in crates/runtime/src/worker.rs crates/runtime/src/queue.rs \
    crates/runtime/src/slab.rs \
    crates/runtime/src/scheduler.rs crates/service/src/service.rs \
    crates/service/src/admission.rs crates/service/src/pressure.rs \
    crates/net/src/parcelport.rs crates/net/src/codec.rs \
    crates/net/src/locality.rs crates/net/src/transport.rs \
    crates/sim/src/fabric.rs crates/sim/src/netplan.rs \
    crates/taskbench/src/graph.rs crates/taskbench/src/exec_local.rs \
    crates/taskbench/src/exec_service.rs crates/taskbench/src/exec_net.rs \
    crates/fleet/src/wire.rs crates/fleet/src/stats.rs \
    crates/fleet/src/breaker.rs crates/fleet/src/worker.rs \
    crates/fleet/src/gateway.rs \
    crates/adaptive/src/strategy.rs crates/autotune/src/lib.rs \
    crates/autotune/src/autotune.rs crates/autotune/src/controller.rs \
    crates/autotune/src/model.rs crates/autotune/src/shape.rs; do
    grep -q 'deny(clippy::unwrap_used)' "$f" || {
        echo "missing #![deny(clippy::unwrap_used)] in $f" >&2
        exit 1
    }
done

echo "==> OK"
