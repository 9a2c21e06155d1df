#!/usr/bin/env bash
# The CI gate: formatting, lints, and the full test suite.
#
#   scripts/check.sh
#
# Run from anywhere; it cds to the repo root first.
set -euo pipefail
cd "$(dirname "$0")/.."

# Runs `cargo test -q <args>` and fails unless at least one test passed:
# `cargo test <filter>` exits 0 when the filter matches nothing, so a
# renamed test would otherwise drop out of its gate silently. The
# passed counts are summed over every test binary the run touched.
run_named() {
    local out passed
    if ! out=$(cargo test -q "$@" 2>&1); then
        echo "$out"
        return 1
    fi
    echo "$out"
    passed=$(echo "$out" | awk '/^test result:/ {
        for (i = 2; i <= NF; i++) if ($i ~ /^passed/) n += $(i - 1)
    } END { print n + 0 }')
    if [ "$passed" -eq 0 ]; then
        echo "no test matched: cargo test $*" >&2
        return 1
    fi
}

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test (workspace) =="
cargo test -q --workspace

echo "== ingest determinism gate =="
cargo test -q -p crowdweb-ingest
cargo test -q --test ingest_determinism

echo "== observability gate =="
cargo test -q -p crowdweb-obs -p crowdweb-server
grep -q '/api/metrics' README.md || {
    echo "README.md must document the /api/metrics endpoint" >&2
    exit 1
}

echo "== server gate =="
cargo test -q -p crowdweb-server
# The evented-loop guarantee must hold explicitly: slow-drip clients
# cannot block a fast one.
run_named -p crowdweb-server slow_drip
# Keep-alive semantics, pipelining included, end to end over TCP.
cargo test -q -p crowdweb-server --test keep_alive
run_named -p crowdweb-server --test keep_alive two_pipelined
# The one request parser: prefix-stable over arbitrary bytes, and final
# on any unterminated head past the size bounds.
run_named -p crowdweb-server --lib prop_parse_
grep -q '/api/healthz' README.md || {
    echo "README.md must document the /api/healthz endpoint" >&2
    exit 1
}
for tunable in keep_alive_requests keep_alive_idle; do
    grep -qF "$tunable" README.md || {
        echo "README.md must document the $tunable tunable" >&2
        exit 1
    }
done

echo "== connection scaling spot check (10k keep-alive sockets) =="
# The bench splits client and server across two processes, so ~10k fds
# per process suffice for the 10k-connection gate. Skip gracefully
# where the fd limit cannot reach that.
if ulimit -n 16384 2>/dev/null || [ "$(ulimit -n)" -ge 16384 ]; then
    CROWDWEB_SCALE_ONLY=1 cargo bench -q -p crowdweb-bench --bench connection_scaling
    awk -F'\t' '
        /^10000\t/ {
            found = 1
            if ($3 >= 1000) { print "10k-conn p50 dispatch " $3 "us >= 1ms" > "/dev/stderr"; exit 1 }
            if ($7 < 10000) { print "server held only " $7 " connections" > "/dev/stderr"; exit 1 }
        }
        END { if (!found) { print "no 10000-connection row in connection_scaling.tsv" > "/dev/stderr"; exit 1 } }
    ' crates/bench/out/connection_scaling.tsv
else
    echo "skipped: cannot raise ulimit -n to 16384 (current: $(ulimit -n))"
fi

echo "== tenancy gate =="
# Two cities must ingest concurrently without cross-contaminating each
# other's snapshots, per-city WAL roots must recover independently, and
# a formerly-GridTooLarge resolution must serve
# /api/v1/cities/{id}/crowd/map end to end over TCP with retained
# epochs byte-identical across parallelism and shard policies.
cargo test -q --test tenancy
# The sparse cell store must stay provably equivalent to the dense one.
run_named -p crowdweb-geo cells
grep -qF '/api/v1/cities/{city}' README.md || {
    echo "README.md must document the /api/v1/cities/{city}/... tenant routes" >&2
    exit 1
}
grep -qF 'default city' README.md || {
    echo "README.md must document the default-city alias policy" >&2
    exit 1
}

echo "== epoch history gate =="
# Time travel must stay byte-identical to cold rebuilds, end to end.
cargo test -q --test epoch_history
run_named --test server_e2e time_travel
# The history metrics must stay pinned by the exposition test.
for metric in crowdweb_ingest_history_retained_epochs \
    crowdweb_ingest_history_resident_bytes \
    crowdweb_ingest_history_reconstruction_seconds; do
    grep -qF "$metric" crates/server/src/api.rs || {
        echo "the /api/metrics exposition test must assert $metric" >&2
        exit 1
    }
done

echo "== API v1 doc-drift gate =="
# Every /api/v1 route label the router registers must appear verbatim
# in the README endpoint tables (parameter spellings like :user
# included); the test reads the labels from the built route table.
run_named -p crowdweb-server --lib readme_documents_every_registered_v1_route

echo "== loadgen gate =="
# Trace synthesis must be deterministic, every shipped scenario must
# parse and synthesize, and the smoke scenario must replay cleanly
# against a freshly booted server (nonzero throughput, zero unexpected
# non-2xx, valid TSV).
cargo test -q -p crowdweb-loadgen
cargo test -q -p crowdweb-loadgen --test smoke_gate
# The response decoder must decode split reads exactly like one read.
run_named -p crowdweb-loadgen --lib prop_decoder_split_reads_match_whole_stream
grep -qF 'crowdweb-loadgen run' README.md || {
    echo "README.md must document the crowdweb-loadgen run quick-start" >&2
    exit 1
}

echo "== benchmark gate =="
# perfbench (BENCHMARK.json) links crates/* by path: a program change
# that breaks the benchmark's build or its own tests fails here.
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "All checks passed."
