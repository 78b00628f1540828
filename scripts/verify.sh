#!/usr/bin/env sh
# The repo's verification gate: formatting, lints, release build, tests,
# the benchmark's own gate, and the seeded replay storms. Run from
# anywhere; fully offline — the workspace has no external dependencies.
# Stage outputs go to target/verify/ (ignored): the gate leaves the
# working tree as it found it, and its last stage checks that.
set -eu

cd "$(dirname "$0")/.."
tree_before=$(git status --porcelain)
out=target/verify
mkdir -p "$out"

# run_ok <bin> [args]: run one grain-bench binary (they assert their
# invariants inline and exit non-zero on a violation), stdout to
# target/verify/<bin>.txt and stderr to <bin>.log.
run_ok() {
    bin=$1
    shift
    cargo run --release --offline -q -p grain-bench --bin "$bin" -- "$@" \
        >"$out/$bin.txt" 2>"$out/$bin.log" || {
        echo "$bin failed:" >&2
        tail -n 20 "$out/$bin.txt" "$out/$bin.log" >&2
        exit 1
    }
}

# replay_twice <bin> [args]: the binary replays its seeded storm once
# in-process already; running it as two separate processes and diffing
# stdout proves the report is deterministic across process boundaries
# too (no address, timing, or thread-id leakage).
replay_twice() {
    run_ok "$@"
    grep -q '^OK$' "$out/$1.txt" || {
        echo "$1 did not complete" >&2
        exit 1
    }
    mv "$out/$1.txt" "$out/$1.first.txt"
    run_ok "$@"
    diff "$out/$1.first.txt" "$out/$1.txt" >&2 || {
        echo "$1 reports diverged across processes" >&2
        exit 1
    }
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> cargo test (fault-inject)"
# The deterministic fault-injection hooks are compiled out by default;
# exercise the injected-panic/delay/spurious-wake paths and the seeded
# replay tests with the feature on.
cargo test -p grain-runtime --features fault-inject --offline -q

echo "==> feature allow-list"
# Every cargo feature is a second build to test and measure. One
# exists, declared in the runtime and passed through by the root; a new
# one is a decision to make on perf/ pairs, not a flag to add.
declared=$(for m in Cargo.toml crates/*/Cargo.toml; do
    awk -v m="$m" '/^\[/ { f = ($0 == "[features]") }
        f && /^[a-z0-9_-]+ *=/ { print m ": " $1 }' "$m"
done)
[ "$declared" = "Cargo.toml: fault-inject
crates/runtime/Cargo.toml: fault-inject" ] || {
    printf 'unexpected [features] declarations:\n%s\n' "$declared" >&2
    exit 1
}
used=$(grep -rho 'feature = "[^"]*"' crates src tests | sort -u | tr '\n' ' ')
[ "$used" = 'feature = "fault-inject" ' ] || {
    echo "unexpected cfg features in the sources: $used" >&2
    exit 1
}

echo "==> options allow-list"
# Every settable config value is a configuration nobody tests unless
# somebody sets it: a field needs two values in use outside its own unit
# tests. These are the `pub` fields of the 13 `*Config` structs, 56 in
# all; a new knob is a decision argued here with its two callers, not a
# field added — one value in use is a `const` in the module that reads it.
options=$(cat crates/*/src/*.rs | awk '
    /^pub struct [A-Za-z]*Config \{/ { s = $3; n = 0 }
    s != "" && /^    pub [a-z_0-9]+:/ { n++ }
    s != "" && /^\}/ { print s ": " n; s = "" }' | sort)
[ "$options" = "AdmissionConfig: 4
AutotuneConfig: 3
BreakerConfig: 6
FleetBreakerConfig: 2
FleetConfig: 11
FleetWorkerConfig: 3
NetConfig: 2
PressureConfig: 1
RuntimeConfig: 9
ServiceConfig: 6
SimConfig: 2
TunerConfig: 5
WatchdogConfig: 2" ] || {
    printf 'unexpected *Config fields (struct: pub fields):\n%s\n' "$options" >&2
    exit 1
}

echo "==> unsafe allow-list"
# One file of the product holds `unsafe`: the lock-free queue. Anything
# else — a pointer cast to save an allocation, say — has to be argued
# for here first.
unsafe_files=$(grep -rl '\bunsafe\b' crates/*/src src || true)
[ "$unsafe_files" = "crates/runtime/src/queue.rs" ] || {
    printf 'unsafe outside crates/runtime/src/queue.rs:\n%s\n' "$unsafe_files" >&2
    exit 1
}

echo "==> perf/check.sh"
# The benchmark is a package of its own that the workspace commands
# above never build: its fmt, clippy, build, tests, the smoke suite
# (every workload, every operation verified) and BENCHMARK.json against
# the tables it is generated from.
perf/check.sh

echo "==> chaos soak (bounded)"
# One seeded multi-tenant storm (2x oversubmission, a panicking tenant)
# with the resilience layer off and on: ledger conservation, budget
# restoration and breaker recovery asserted inside. 30 virtual seconds
# scaled down to tens of real ones.
run_ok soak --virtual-seconds 30 --seed 7

echo "==> netstorm replay determinism"
# A 3-locality taskbench storm over the simulated network fabric
# (drop/dup/reorder, a partition/heal cycle, a kill under partition):
# exactly-once settlement counted and the parcel ledger conserved.
replay_twice netstorm --quick

echo "==> fleetstorm replay determinism"
# A multi-tenant storm routed through the gateway across three workers
# while the harness kills, drains and partitions them: exactly-once
# completion accounting per batch, plus six targeted failover stages.
replay_twice fleetstorm --quick

echo "==> autotune convergence replay determinism"
# Three tenants starting at pathological grains converge under the
# deterministic cost-model storm (<= 8 jobs, t_o within 10% of the
# grid-searched optimum). Every number is modeled, so the diff also
# proves no wall-clock measurement leaks into a controller decision
# (the measured on/off table is service_bench's, not this binary's).
replay_twice autotune --quick

echo "==> unwrap-free hot paths"
# No unwrap() where a poisoned lock or a bad Option would take down a
# thread that others wait on: the worker loop, scheduler search and
# queue; the service dispatcher and overload path; the parcelport, codec
# and locality threads (one hostile frame must not kill a link); the
# simulated fabric's pump; the taskbench generator and executors (a
# panic poisons a whole sweep); the whole fleet crate (a dead pump
# strands every leased job); the autotune policy hook and the grain
# tuner + signal it drives (GrainController::observe), which run inside
# the service's settle path. Enforced by
# clippy at deny level; assert the attributes stay in place.
for f in crates/runtime/src/worker.rs crates/runtime/src/queue.rs \
    crates/runtime/src/scheduler.rs crates/service/src/service.rs \
    crates/service/src/admission.rs crates/service/src/pressure.rs \
    crates/net/src/parcelport.rs crates/net/src/codec.rs \
    crates/net/src/locality.rs crates/net/src/transport.rs \
    crates/sim/src/fabric.rs crates/sim/src/netplan.rs \
    crates/taskbench/src/graph.rs crates/taskbench/src/exec_local.rs \
    crates/taskbench/src/exec_service.rs crates/taskbench/src/exec_net.rs \
    crates/fleet/src/wire.rs crates/fleet/src/stats.rs \
    crates/fleet/src/breaker.rs crates/fleet/src/worker.rs \
    crates/fleet/src/gateway.rs crates/fleet/src/pump.rs \
    crates/adaptive/src/tuner.rs crates/autotune/src/lib.rs \
    crates/autotune/src/autotune.rs crates/autotune/src/controller.rs \
    crates/autotune/src/model.rs crates/autotune/src/shape.rs; do
    grep -q 'deny(clippy::unwrap_used)' "$f" || {
        echo "missing #![deny(clippy::unwrap_used)] in $f" >&2
        exit 1
    }
done

echo "==> working tree untouched"
[ "$(git status --porcelain)" = "$tree_before" ] || {
    echo "the gate changed the working tree:" >&2
    git status --porcelain >&2
    exit 1
}

echo "==> OK"
