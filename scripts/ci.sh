#!/usr/bin/env bash
# Tier-1 gate: static analysis, release build, full test suite, structural
# verification, and a statistics smoke test.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Every `cargo test` step runs under a time limit (seconds; build included):
# every cached page is behind one buffer pool latch, and a deadlock must fail
# the gate, not hang it.
TEST_TIMEOUT_S=1200
run_tests() {
    local status=0
    timeout "$TEST_TIMEOUT_S" cargo test "$@" || status=$?
    if ((status == 124)); then
        echo "timed out after $TEST_TIMEOUT_S s: cargo test $*" >&2
    fi
    return "$status"
}

echo "== lint (xtask static analysis) =="
cargo run -q -p xtask -- lint

# Printed for the line trajectory in ROADMAP.md; not a gate.
echo "== non-test Rust lines under crates/ =="
scripts/loc.sh

# Clippy is a bonus gate: run it when the component is installed (the
# offline build image may not ship it).
if cargo clippy --version >/dev/null 2>&1; then
    echo "== clippy =="
    cargo clippy --workspace --all-targets --quiet -- -D warnings
else
    echo "== clippy: not installed, skipping =="
fi

# Every intra-doc link resolves and names a public item.
echo "== rustdoc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== build (release) =="
cargo build --release

# The root package is a workspace member: this runs its suites too.
echo "== tests (workspace) =="
run_tests --workspace -q

echo "== buffer manager stress =="
run_tests --release -q --test buffer_stress

echo "== commit path stress (group commit) =="
run_tests --release -q --test commit_stress

echo "== crash-recovery battery (WAL + checkpointer + instant recovery) =="
run_tests --release -q --test recovery
run_tests --release -q --test properties

echo "== scale: 6 000 files, past the old one-blob catalog's ceiling =="
run_tests --release -q --test scale endurance_six_thousand_files -- --ignored

echo "== scale: files until the relation map is full; a crash there recovers =="
run_tests --release -q --test scale creating_files_until_the_relation_map_is_full -- --ignored

echo "== version chains: a probe costs the same after 1, 10 and 100 overwrites =="
run_tests --release -q --test version_chains

echo "== log forces: an insert forces nothing, a commit forces once =="
run_tests --release -q --test log_forces

echo "== lazytime: a read's close writes nothing; access times go back in one commit =="
run_tests --release -q --test lazytime

echo "== differential query oracle (planned executor vs reference interpreter) =="
run_tests --release -q --test properties planned_

echo "== golden plan corpus (pinned EXPLAIN for the planner query set) =="
run_tests --release -q --test explain

echo "== wire protocol fuzz battery =="
run_tests --release -q --test wire

echo "== multi-session server stress =="
run_tests --release -q --test server_stress

echo "== isolation: a read under its lock sees the present =="
run_tests --release -q --test concurrency

echo "== DDL: an abort takes every catalog change back =="
run_tests --release -q --test ddl

# The benchmark is a crate of its own (benchmark/, outside the workspace)
# built against WireClient, wire and PoolConfig: build it, run its unit
# tests and its smoke mode (every workload once, metric names and units
# against BENCHMARK.json, all verification) so a change that breaks it
# fails here rather than at the acceptance run.
echo "== benchmark crate: unit tests + smoke =="
run_tests --release --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- smoke

# BENCHMARK.json's own command (`run --workload W`) for every workload: a
# full run with its verification, which exits non-zero on any finding, at a
# seed other than the default one.
echo "== benchmark: the pipeline's command at a seed the code was not written against =="
for workload in hot_small seq_read txn_write create_churn two_client_mix; do
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
        run --workload "$workload" --seed 7 --seconds 2
done

# Bounded-time torture smoke: covers at least one crash-during-commit and
# one crash-during-checkpoint schedule, a crash with eviction write-backs
# unsynced in the data device's write cache, a torn destage on the catalog
# device behind a burst of DDL, and both link-drop transports; the full
# 9-kind battery runs under "cargo test -q" above.
echo "== torture battery smoke (crash mid-commit / mid-checkpoint / in-flight / catalog fault) =="
run_tests --release -q --test torture battery_crash_mid_commit
run_tests --release -q --test torture battery_crash_mid_checkpoint
run_tests --release -q --test torture battery_crash_in_flight
run_tests --release -q --test torture battery_catalog_device_fault
run_tests --release -q --test torture battery_link_drop

echo "== smoke: p_slice shares chunk rows without copying =="
run_tests --release -q -p inversion --lib slice

# The server's runnable documentation: two sessions over in-memory
# transports, fd isolation, a disconnect abort and pg_stat_net.
echo "== smoke: remote_sessions example =="
cargo run --release -q --example remote_sessions

# Vacuums files that have history, then reads the past through the archive;
# it asserts the old bytes come back and both verifiers are clean.
echo "== smoke: time_machine example (vacuum, then history from the archive) =="
cargo run --release -q --example time_machine

# Migrates a cold file to the jukebox by rule, then asserts the present, a
# read as of before the migration, and that both verifiers are clean.
echo "== smoke: tertiary_migration example (rule-driven migration, present and past) =="
cargo run --release -q --example tertiary_migration

echo "== smoke: quickstart example =="
cargo run --release -q --example quickstart

# The paper's snow query runs through the executor with in-manager functions
# in its qualification; the example asserts all three queries' rows.
echo "== smoke: satellite_archive example (snow query rows) =="
cargo run --release -q --example satellite_archive

echo "== smoke: source_control example =="
cargo run --release -q --example source_control

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

# One statement a line — joins, aggregates, DML, a read of the past, a
# virtual relation, the Table 2 functions, EXPLAIN and every name error —
# over the shell's demo file system. It runs on the simulated clock, so its
# output repeats byte for byte.
echo "== query shell: tests/query-shell.pq prints results/query_shell.txt exactly =="
cargo run --release -q --example query_shell -- - <tests/query-shell.pq |
    diff -u results/query_shell.txt - || {
    echo "query_shell printed other output than results/query_shell.txt" >&2
    exit 1
}

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

# The paper: "Inversion is between 30 and 80 percent as fast as the native
# ULTRIX file system over NFS". Each of fig5's three read shares must stay
# in that band (virtual time; the read rows repeat run to run).
echo "== fig5_reads: every read share within the paper's 30-80 % of NFS =="
fig5_shares=$(cargo run --release -q -p bench --bin fig5_reads \
    | grep 'Inversion throughput vs NFS' \
    | grep -oE '(single|sequential|random): [0-9]+%' || true)
test "$(grep -c . <<<"$fig5_shares")" -eq 3 || {
    echo "fig5_reads did not print its three read shares" >&2
    exit 1
}
while read -r kind pct; do
    kind=${kind%:} pct=${pct%\%}
    if ((pct < 30 || pct > 80)); then
        echo "fig5_reads: $kind read is $pct % of NFS, outside the paper's 30-80 %" >&2
        exit 1
    fi
done <<<"$fig5_shares"

# Every figure runs on one simulated clock that only the calling thread
# advances, so its stdout repeats byte for byte: any change in a figure row
# is a change in the code, and shows here until results/ is regenerated.
echo "== figures: stdout matches results/<bin>.txt exactly =="
for bin in fig3_create fig4_random_byte fig5_reads fig6_writes table1_naming \
    table2_types table3_full ston93_local ablations; do
    cargo run --release -q -p bench --bin "$bin" 2>/dev/null | diff -u "results/$bin.txt" - || {
        echo "$bin printed other figures than results/$bin.txt" >&2
        exit 1
    }
done

mkdir -p results
mv BENCH_fig3_create.json BENCH_fig4_random_byte.json results/
echo "CI OK"
