#!/usr/bin/env bash
# Tier-1 gate: static analysis, release build, full test suite, structural
# verification, and a statistics smoke test.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== lint (xtask static analysis) =="
cargo run -q -p xtask -- lint

# Clippy is a bonus gate: run it when the component is installed (the
# offline build image may not ship it).
if cargo clippy --version >/dev/null 2>&1; then
    echo "== clippy =="
    cargo clippy --workspace --quiet -- -D warnings
else
    echo "== clippy: not installed, skipping =="
fi

echo "== build (release) =="
cargo build --release

# The root package is a workspace member: this runs its suites too.
echo "== tests (workspace) =="
cargo test --workspace -q

echo "== buffer manager stress =="
cargo test --release -q --test buffer_stress

echo "== commit path stress (group commit) =="
cargo test --release -q --test commit_stress

echo "== crash-recovery battery (WAL + checkpointer + instant recovery) =="
cargo test --release -q --test recovery
cargo test --release -q --test properties

echo "== scale: 6 000 files, past the old one-blob catalog's ceiling =="
cargo test --release -q --test scale endurance_six_thousand_files -- --ignored

echo "== scale: files until the relation map is full; a crash there recovers =="
cargo test --release -q --test scale creating_files_until_the_relation_map_is_full -- --ignored

echo "== version chains: a probe costs the same after 1, 10 and 100 overwrites =="
cargo test --release -q --test version_chains

echo "== log forces: an insert forces nothing, a commit forces once =="
cargo test --release -q --test log_forces

echo "== lazytime: a read's close writes nothing; access times go back in one commit =="
cargo test --release -q --test lazytime

echo "== differential query oracle (planned executor vs reference interpreter) =="
cargo test --release -q --test properties planned_

echo "== golden plan corpus (pinned EXPLAIN for the planner query set) =="
cargo test --release -q --test explain

echo "== wire protocol fuzz battery =="
cargo test --release -q --test wire

echo "== multi-session server stress =="
cargo test --release -q --test server_stress

# The benchmark is a crate of its own (benchmark/, outside the workspace)
# built against WireClient, wire and PoolConfig: build it, run its unit
# tests and its smoke mode (every workload once, metric names and units
# against BENCHMARK.json, all verification) so a change that breaks it
# fails here rather than at the acceptance run.
echo "== benchmark crate: unit tests + smoke =="
cargo test --release --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- smoke

# Bounded-time torture smoke: covers at least one crash-during-commit and
# one crash-during-checkpoint schedule, a crash with write-behind requests
# still queued in the I/O scheduler, a torn destage on the catalog device
# behind a burst of DDL, and both link-drop transports; the full 9-kind
# battery runs under "cargo test -q" above.
echo "== torture battery smoke (crash mid-commit / mid-checkpoint / in-flight / catalog fault) =="
cargo test --release -q --test torture battery_crash_mid_commit
cargo test --release -q --test torture battery_crash_mid_checkpoint
cargo test --release -q --test torture battery_crash_in_flight
cargo test --release -q --test torture battery_catalog_device_fault
cargo test --release -q --test torture battery_link_drop

echo "== smoke: p_slice shares chunk rows without copying =="
cargo test --release -q -p inversion --lib slice

echo "== smoke: pg_check clean after crash recovery =="
cargo run --release -q --example pg_check_smoke

# The query shell's \stats walks the virtual-relation registry: every
# relation a formatted InversionFs registers must get its "-- <name>" header
# (pg_check excepted: a full verifier run, not a counter) and no query built
# from a registered schema may fail.
echo "== smoke: query_shell \\stats lists every registered relation =="
stats_out=$(printf '%s\n' '\stats' '\q' | cargo run -q --example query_shell -- -)
for rel in pg_stat_buffer pg_stat_lock pg_stat_xact pg_stat_wal pg_stat_relation \
    pg_stat_planner pg_stat_device pg_stat_io pg_stat_net inv_stat; do
    grep -q -- "-- $rel\$" <<<"$stats_out" || {
        echo "\\stats printed no '-- $rel' section" >&2
        exit 1
    }
done
if grep -q '^error:' <<<"$stats_out"; then
    echo "\\stats: a generated query failed" >&2
    grep '^error:' <<<"$stats_out" >&2
    exit 1
fi

echo "== smoke: fig3_create --json =="
cargo run --release -q -p bench --bin fig3_create -- --json
test -s BENCH_fig3_create.json || {
    echo "BENCH_fig3_create.json missing or empty" >&2
    exit 1
}
grep -q '"minidb_stats_delta"' BENCH_fig3_create.json || {
    echo "BENCH_fig3_create.json lacks stats delta" >&2
    exit 1
}

echo "== smoke: fig4_random_byte --json (planner picks the naming index) =="
cargo run --release -q -p bench --bin fig4_random_byte -- --json
test -s BENCH_fig4_random_byte.json || {
    echo "BENCH_fig4_random_byte.json missing or empty" >&2
    exit 1
}
grep -q '"planner"' BENCH_fig4_random_byte.json || {
    echo "BENCH_fig4_random_byte.json lacks planner section" >&2
    exit 1
}
grep -q '"index_scan_chosen":true' BENCH_fig4_random_byte.json || {
    echo "planner regressed: naming.file lookup no longer uses naming_file_idx" >&2
    exit 1
}

mkdir -p results
mv BENCH_fig3_create.json BENCH_fig4_random_byte.json results/
echo "CI OK"
