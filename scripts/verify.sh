#!/usr/bin/env sh
# The repo's verification gate: formatting, lints, release build, tests,
# the benchmark's own gate, and every deterministic transcript diffed
# against results/. Run from
# anywhere; fully offline — the workspace has no external dependencies.
# Stage outputs go to target/verify/ (ignored): the gate leaves the
# working tree as it found it, and its last stage checks that.
set -eu

cd "$(dirname "$0")/.."
tree_before=$(git status --porcelain)
out=target/verify
mkdir -p "$out"

# stage <title>: close the running stage with its wall time and open the
# next one. The last call, at `==> OK`, carries the total.
started=$(date +%s)
stage_started=$started
stage_title=
stage() {
    now=$(date +%s)
    [ -z "$stage_title" ] || echo "    $stage_title: $((now - stage_started)) s"
    stage_title=$1
    stage_started=$now
    echo "==> $1"
}

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

stage "cargo fmt --check"
cargo fmt --all -- --check

stage "cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

stage "cargo build --release"
cargo build --workspace --release --offline

stage "cargo test"
cargo test --offline -q

stage "cargo test, one test at a time: counters, service, adaptive, autotune"
# Tests of these crates read counters and clocks that a parallel
# neighbour can stretch or starve, so a test that holds only beside
# others, or only alone, is a test of the host. Run once more serially
# (ROADMAP item 5(d)'s first step; ~10 s warm). A test that fails here
# is mended in the test or the code, never by leaving this stage.
cargo test --offline -q -p grain-counters -p grain-service -p grain-adaptive \
    -p grain-autotune -- --test-threads=1

stage "no cargo features"
# Every cargo feature is a second build to test and measure, and the
# workspace has none: one build is what the tests, the figures and the
# benchmark all see. A new one is a decision to make on perf/ pairs,
# not a flag to add.
if grep -n '^\[features\]' Cargo.toml crates/*/Cargo.toml >&2 ||
    grep -rn 'feature = "' crates src tests examples >&2; then
    echo "a cargo feature is declared or tested (above)" >&2
    exit 1
fi

stage "options allow-list"
# Every settable config value is a configuration nobody tests unless
# somebody sets it: a field needs two values in use outside its own unit
# tests. These are the `pub` fields of the 11 `*Config` structs, 39 in
# all; a new knob is a decision argued here with its two callers, not a
# field added — one value in use is a `const` in the module that reads it.
options=$(cat crates/*/src/*.rs | awk '
    /^pub struct [A-Za-z]*Config \{/ { s = $3; n = 0 }
    s != "" && /^    pub [a-z_0-9]+:/ { n++ }
    s != "" && /^\}/ { print s ": " n; s = "" }' | sort)
[ "$options" = "AdmissionConfig: 2
AutotuneConfig: 3
BreakerConfig: 4
FleetConfig: 10
FleetWorkerConfig: 2
NetConfig: 2
RuntimeConfig: 5
ServiceConfig: 4
SimConfig: 1
TunerConfig: 4
WatchdogConfig: 2" ] || {
    printf 'unexpected *Config fields (struct: pub fields):\n%s\n' "$options" >&2
    exit 1
}

stage "every pub item has a caller"
# A capability needs a caller: every `pub fn/const/static/mod` of a
# product crate (outside `bin/` and above its `#[cfg(test)]` module,
# which clippy's items_after_test_module keeps last) must be
# named in code — not in a comment, a string or a char literal, not in
# a `pub use` — of some other tracked .rs file under crates/ src/
# examples/ tests/ perf/. Integration tests and examples count as
# callers; a file's own unit tests do not. An item only its own file
# uses is private; one only its own tests use goes, with them. The
# names are matched as words, so the stage can miss an item that shares
# its name with another; it cannot flag one that has a caller. A kept
# exception is listed here with its reason, one `file name` per line;
# the list is empty.
uncalled=$(git ls-files -- 'crates/*.rs' 'src/*.rs' 'examples/*.rs' 'tests/*.rs' 'perf/*.rs' |
    LC_ALL=C xargs awk '
    # code(s): line s with its string and char literals and its comments
    # blanked. A string or block comment left open at the end of s stays
    # open into the next line: `upto` is its closing delimiter, and
    # `esc` says whether a backslash escapes inside it (not in a raw
    # string or a comment).
    function code(s,   out, t, i) {
        out = ""
        while (s != "") {
            if (upto != "") {
                if (esc) {
                    if (!match(s, /^([^"\\]|\\.)*"/)) return out
                    i = RLENGTH
                } else {
                    if (!(i = index(s, upto))) return out
                    i += length(upto) - 1
                }
                s = substr(s, i + 1)
                upto = ""
                out = out " "
            } else if (!match(s, /b?r#*"|"|\047|\/\/|\/\*/)) {
                return out s
            } else {
                out = out substr(s, 1, RSTART - 1) " "
                t = substr(s, RSTART, RLENGTH)
                s = substr(s, RSTART + RLENGTH)
                if (t == "//") return out
                if (t == "/*") { upto = "*/"; esc = 0 }
                else if (t == "\"") { upto = t; esc = 1 }
                else if (t ~ /"$/) { sub(/^b?r/, "", t); upto = "\"" substr(t, 1, length(t) - 1); esc = 0 }
                # a char literal goes; a lifetime or label keeps its name
                else if (match(s, /^(\\.[^\047]*|[^\\\047 ][^\\\047 ]?[^\\\047 ]?[^\\\047 ]?)\047/))
                    s = substr(s, RLENGTH + 1)
            }
        }
        return out
    }
    FNR == 1 { decl = FILENAME ~ /^crates\/[^\/]+\/src\// && FILENAME !~ /\/bin\//; upto = "" }
    /^#\[cfg\(test\)\]/ { decl = 0 }
    { line = code($0) }
    decl && match(line, /^ *pub (const |unsafe |async )*(fn|const|static|mod) [A-Za-z_0-9]+/) {
        n = split(substr(line, RSTART, RLENGTH), w, " ")
        defs[FILENAME " " w[n]] = 1
    }
    line ~ /^ *pub use / { next }
    {
        while (match(line, /[A-Za-z_][A-Za-z_0-9]*/)) {
            t = substr(line, RSTART, RLENGTH)
            line = substr(line, RSTART + RLENGTH)
            if (!(t in seen)) seen[t] = FILENAME
            else if (seen[t] != FILENAME) seen[t] = "*"
        }
    }
    END { for (d in defs) { split(d, p, " "); if (seen[p[2]] != "*") print d } }' | sort)
[ "$uncalled" = "" ] || {
    printf 'pub items no other file calls (make them private or delete them):\n%s\n' "$uncalled" >&2
    exit 1
}

stage "every dependency edge is used"
# A `grain-*` line in a crate manifest is an edge of the crate graph, and
# an edge nothing uses is a coupling nobody argued for: the crate must
# name `grain_*` in its src/ or tests/. The exceptions, one
# `crate dependency` per line, are the four unused edges perf/Cargo.lock
# records: deleting one rewrites that lock, which only a change to the
# benchmark may do (ROADMAP item 1(g)). An edge that comes into use
# leaves the list.
unused_edges="adaptive grain-sim
service grain-metrics
service grain-topology
stencil grain-net"
edges=$(for m in crates/*/Cargo.toml; do
    c=$(basename "$(dirname "$m")")
    for dep in $(sed -n 's/^\(grain-[a-z]*\)\.workspace = true$/\1/p' "$m"); do
        grep -rqw "$(echo "$dep" | tr - _)" "crates/$c/src" "crates/$c/tests" 2>/dev/null ||
            echo "$c $dep"
    done
done)
[ "$edges" = "$unused_edges" ] || {
    printf 'unused dependency edges (crate dependency), expected the four perf/Cargo.lock records:\n%s\n' "$edges" >&2
    exit 1
}

stage "unsafe allow-list"
# One file of the product holds `unsafe`: the lock-free queue. Anything
# else — a pointer cast to save an allocation, say — has to be argued
# for here first.
unsafe_files=$(grep -rl '\bunsafe\b' crates/*/src src || true)
[ "$unsafe_files" = "crates/runtime/src/queue.rs" ] || {
    printf 'unsafe outside crates/runtime/src/queue.rs:\n%s\n' "$unsafe_files" >&2
    exit 1
}

stage "unbounded waits"
# Every thread that blocks on an event blocks in
# grain_counters::sync::Condvar::wait_until, whose deadline may be
# `None`: a wait that can last for ever. Each such call says why on the
# line above it, in a comment that starts `// Unbounded: `, and the
# functions holding those calls are listed here, one `file function`
# per line: a new one fails the gate until it is argued and listed. A
# call of any `wait*` function outside tests that passes a literal
# `None` with no such comment fails it too (listed with "no reason").
unbounded=$(git ls-files -- 'crates/*/src/*.rs' | LC_ALL=C xargs awk '
    FNR == 1 { test = 0; reason = 0; call = "" }
    /^#\[cfg\(test\)\]/ { test = 1 }
    test { next }
    match($0, /^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/) {
        n = split(substr($0, RSTART, RLENGTH), w, " ")
        fn = w[n]
    }
    /^ *\/\/ Unbounded: / { reason = 1; print FILENAME " " fn; next }
    /^ *\/\// { next }
    call == "" && match($0, /(^|[^a-z_])wait[a-z_]*\(/) && !/fn wait/ {
        call = " "
        depth = 0
        $0 = substr($0, RSTART)
    }
    call != "" {
        call = call $0
        depth += gsub(/\(/, "(") - gsub(/\)/, ")")
        if (depth > 0) next
        gsub(/[ \t]/, "", call)
        if (call ~ /wait[a-z_]*\((.*,)?None[,)]/ && !reason) print FILENAME " " fn " (no reason)"
        call = ""
        reason = 0
    }' | sort)
[ "$unbounded" = "crates/counters/src/sync.rs wait
crates/fleet/src/gateway.rs wait
crates/net/src/parcelport.rs take_all
crates/runtime/src/future.rs wait
crates/runtime/src/group.rs wait
crates/runtime/src/runtime.rs park_if
crates/runtime/src/runtime.rs try_wait_idle
crates/service/src/job.rs wait
crates/service/src/service.rs wait_idle
crates/sim/src/fabric.rs pump" ] || {
    printf 'unbounded waits (file function), expected the ten listed in scripts/verify.sh:\n%s\n' "$unbounded" >&2
    exit 1
}

stage "every grain-bench binary runs here"
# One benchmark: perf/ times the product, and a grain-bench binary is a
# figure or a replay storm that some stage below runs — each
# crates/bench/src/bin/<name>.rs is the first argument of a run_ok line
# of this script. A timing harness nothing runs, a
# cargo bench target included, is a second answer nobody checks.
for f in crates/bench/src/bin/*.rs; do
    bin=$(basename "$f" .rs)
    grep -Eq "^run_ok $bin( |\$)" scripts/verify.sh || {
        echo "$f is run by no stage of scripts/verify.sh" >&2
        exit 1
    }
done
for d in benches crates/*/benches; do
    [ ! -e "$d" ] || {
        echo "$d: the workspace has no cargo bench target; measure in perf/" >&2
        exit 1
    }
done
if grep -n '^\[\[bench\]\]' Cargo.toml crates/*/Cargo.toml >&2; then
    echo "a [[bench]] target is declared (above); measure in perf/" >&2
    exit 1
fi

stage "perf/check.sh"
# The benchmark is a package of its own that the workspace commands
# above never build: its fmt, clippy, build, tests, the smoke suite
# (every workload, every operation verified) and BENCHMARK.json against
# the tables it is generated from.
perf/check.sh

stage "transcripts against results/"
# Every deterministic transcript the gate reproduces, 20 files, is a pure
# function of the source, and one diff -r holds all of them to the
# tracked copies in results/:
# - the paper's 18 tables and figures (the simulator's sweeps, the
#   seeded search order and its probe counts, the asserted stencil DAG):
#   a change to the search, the simulator, its RNG stream or how probes
#   are counted shows up here. 453–548 s of wall time on one core of a
#   2-vCPU Xeon VM; one engine per platform computes each sweep cell once
#   for all 18 entries. The last line of figs.log, printed here, is the
#   time this run took.
# - netstorm: a 3-locality taskbench storm over the simulated network
#   fabric (duplication and reordering, then loss with deadlines):
#   checksums against the single-runtime reference, exactly-once
#   settlement counted, the parcel ledger conserved.
# - fleetstorm: a multi-tenant storm routed through the gateway across
#   three workers while the harness kills, drains and partitions them:
#   exactly-once completion accounting per batch.
# Each storm already runs twice in-process and exits 1 if the two
# reports differ; the diff also pins them across processes and commits.
rm -rf "$out/results"
run_ok figs --all "$out/results"
tail -n 1 "$out/figs.log"
run_ok netstorm --quick
run_ok fleetstorm --quick
cp "$out/netstorm.txt" "$out/fleetstorm.txt" "$out/results/"
diff -r "$out/results" results

stage "unwrap, sleep and wait lints on every crate"
# No unwrap() outside tests, where a poisoned lock or a bad Option would
# take down a thread others wait on, no std::thread::sleep in product
# code, where a wait ends on its event and not on a tick, and no std
# condvar wait or thread park but the one in grain_counters::sync:
# clippy denies them workspace-wide (`[workspace.lints.clippy]` in
# Cargo.toml; crates/clippy.toml allows unwrap in tests and lists the
# methods, and a site that keeps one says why in its allow), for the
# crates that opt in.
# Every crate under crates/ must. The clippy stage above enforces them.
grep -q '^unwrap_used = "deny"$' Cargo.toml || {
    echo "Cargo.toml no longer denies clippy::unwrap_used" >&2
    exit 1
}
grep -q '^disallowed_methods = "deny"$' Cargo.toml || {
    echo "Cargo.toml no longer denies clippy::disallowed_methods" >&2
    exit 1
}
# The std waits and parks are called in grain_counters::sync alone.
for m in std::thread::sleep std::sync::Condvar::wait std::sync::Condvar::wait_timeout \
    std::sync::Condvar::wait_while std::sync::Condvar::wait_timeout_while \
    std::thread::park std::thread::park_timeout; do
    grep -q "path = \"$m\"" crates/clippy.toml || {
        echo "crates/clippy.toml no longer disallows $m" >&2
        exit 1
    }
done
for m in crates/*/Cargo.toml; do
    grep -A1 '^\[lints\]$' "$m" | grep -q '^workspace = true$' || {
        echo "$m does not opt into the workspace lints" >&2
        exit 1
    }
done

stage "working tree untouched"
[ "$(git status --porcelain)" = "$tree_before" ] || {
    echo "the gate changed the working tree:" >&2
    git status --porcelain >&2
    exit 1
}

stage "OK ($(($(date +%s) - started)) s in all)"
