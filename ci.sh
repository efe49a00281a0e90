#!/usr/bin/env bash
# Offline CI gate: formatting, lints, build, and the tier-1 test suite.
# Everything runs without network access; the workspace has no external
# dependencies.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== workspace tests =="
cargo test -q --workspace

echo "== escalation ladder: sliding-window properties + quarantine matrix =="
cargo test -q -p osiris-core --test escalation_props
cargo test -q -p osiris-servers --test escalation_matrix

echo "== trace + metrics + timeseries determinism: two identical runs, byte-identical exports =="
trace_tmp="$(mktemp -d)"
trap 'rm -rf "$trace_tmp"' EXIT
OSIRIS_TRACE_OUT="$trace_tmp/a.json" OSIRIS_METRICS_OUT="$trace_tmp/a_metrics" \
    OSIRIS_AXIOM_OUT="$trace_tmp/a_axiom.bin" \
    OSIRIS_TIMESERIES_OUT="$trace_tmp/a_timeseries.json" \
    cargo run --release --example quickstart >/dev/null
OSIRIS_TRACE_OUT="$trace_tmp/b.json" OSIRIS_METRICS_OUT="$trace_tmp/b_metrics" \
    OSIRIS_AXIOM_OUT="$trace_tmp/b_axiom.bin" \
    OSIRIS_TIMESERIES_OUT="$trace_tmp/b_timeseries.json" \
    cargo run --release --example quickstart >/dev/null
diff "$trace_tmp/a.json" "$trace_tmp/b.json"
diff "$trace_tmp/a_metrics.prom" "$trace_tmp/b_metrics.prom"
diff "$trace_tmp/a_metrics.json" "$trace_tmp/b_metrics.json"
diff "$trace_tmp/a_timeseries.json" "$trace_tmp/b_timeseries.json"
cmp "$trace_tmp/a_axiom.bin" "$trace_tmp/b_axiom.bin"

echo "== span + timeseries determinism: suite-level byte-identical exports =="
cargo test -q -p osiris-servers --test span_determinism

echo "== promlint: Prometheus exposition well-formedness =="
cargo run --release -p osiris-metrics --bin promlint -- \
    "$trace_tmp/a_metrics.prom" "$trace_tmp/b_metrics.prom"

echo "== escalation + clone-pool + axiom metrics: families present in the standard exposition =="
for fam in osiris_quarantine_total osiris_quarantine_refusals_total \
    osiris_escalation_restarts_window osiris_escalation_backoff_arms_total \
    osiris_escalation_budget_exhausted_total \
    osiris_cas_chunks osiris_cas_bytes osiris_cas_dedup_hits_total \
    osiris_restart_chunks_total osiris_comp_clone_dedup_bytes \
    osiris_axiom_events_total osiris_axiom_bytes \
    osiris_axiom_chain_verifications_total osiris_axiom_replay_divergence_total \
    osiris_span_started_total osiris_span_completed_total \
    osiris_span_latency_cycles osiris_span_hops_total \
    osiris_watchdog_armed_total osiris_watchdog_deadline_expired_total \
    osiris_watchdog_probes_total osiris_watchdog_verdicts_total \
    osiris_watchdog_replies_rejected_total \
    osiris_watchdog_detection_latency_cycles \
    osiris_retry_decisions_total osiris_retry_exhausted_total; do
    grep -q "^$fam" "$trace_tmp/a_metrics.prom" || {
        echo "missing metric family in exposition: $fam" >&2
        exit 1
    }
done

echo "== campaign smoke: degraded/quarantined outcome classes reach the report =="
OSIRIS_CAMPAIGN_OUT="$trace_tmp/campaign_smoke.json" \
    cargo run --release -p osiris-bench --bin campaign_smoke >/dev/null

echo "== content-addressed store: dedup, refcount and bit-flip properties =="
cargo test -q -p osiris-checkpoint --test cas_proptests

echo "== double-fault smoke: faults during recovery survive via the fallback chain =="
cargo test -q -p osiris-checkpoint --test integrity_proptests
cargo test -q -p osiris-servers --test recovery_fallback
OSIRIS_CAMPAIGN_OUT="$trace_tmp/double_fault.json" \
    cargo run --release -p osiris-bench --bin double_fault >/dev/null
grep -q '"during-recovery"' "$trace_tmp/double_fault.json" || {
    echo "double-fault report missing the during-recovery model" >&2
    exit 1
}

echo "== axiom chain integrity: property tests + whole-system replay suite =="
cargo test -q -p osiris-axiom --test chain_props
cargo test -q -p osiris-servers --test axiom_replay

echo "== axiom_replay: replaying the recorded axiom reproduces the run byte-for-byte =="
OSIRIS_REPLAY_TRACE_OUT="$trace_tmp/replay.json" \
    OSIRIS_REPLAY_METRICS_OUT="$trace_tmp/replay_metrics" \
    OSIRIS_REPLAY_TIMESERIES_OUT="$trace_tmp/replay_timeseries.json" \
    cargo run --release -p osiris-bench --bin axiom_replay -- "$trace_tmp/a_axiom.bin"
diff "$trace_tmp/a.json" "$trace_tmp/replay.json"
diff "$trace_tmp/a_metrics.prom" "$trace_tmp/replay_metrics.prom"
diff "$trace_tmp/a_metrics.json" "$trace_tmp/replay_metrics.json"
diff "$trace_tmp/a_timeseries.json" "$trace_tmp/replay_timeseries.json"
cargo run --release -p osiris-bench --bin axiom_bisect -- \
    "$trace_tmp/a_axiom.bin" "$trace_tmp/b_axiom.bin" >/dev/null

echo "== bench_trace --check: tracer overhead bounds =="
cargo run --release -p osiris-bench --bin bench_trace -- --check

echo "== bench_metrics --check: registry overhead bounds =="
cargo run --release -p osiris-bench --bin bench_metrics -- --check

echo "== bench_restart --check: O(dirty) restart + clone-pool dedup =="
cargo run --release -p osiris-bench --bin bench_restart -- --check

echo "== bench_axiom --check: disabled-recorder overhead + zero-alloc retention =="
cargo run --release -p osiris-bench --bin bench_axiom -- --check

echo "== bench_spans --check: disabled span-recorder overhead + zero-alloc recording =="
cargo run --release -p osiris-bench --bin bench_spans -- --check

echo "== watchdog recovery: fail-silent detection, retry/backoff and reply-integrity suite =="
cargo test -q -p osiris-servers --test watchdog_recovery

echo "== hang_recovery example: wedge -> watchdog verdict -> rollback -> transparent retry =="
cargo run --release --example hang_recovery >/dev/null

echo "== bench_timeouts --check: hang-detection latency bound + zero-alloc armed deadlines =="
cargo run --release -p osiris-bench --bin bench_timeouts -- --check

echo "== forge fork equivalence + determinism: snapshot-fork campaign suites =="
cargo test -q -p osiris-faults --test forge_fork
cargo test -q -p osiris-faults --test forge_campaign
cargo test -q -p osiris-faults --test forge_sweep
cargo test -q -p osiris-faults --test fail_silent_forge

echo "== campaign_coverage: FailStop + DoubleFault x DuringRecovery + fail-silent Hang/ReplyDrop coverage gates =="
OSIRIS_FORGE_OUT="$trace_tmp/campaign_coverage" \
    cargo run --release -p osiris-bench --bin campaign_coverage >/dev/null
cargo run --release -p osiris-metrics --bin promlint -- "$trace_tmp/campaign_coverage.prom"
for fam in osiris_forge_forks_total osiris_forge_readopts_total \
    osiris_forge_fork_dirty_bytes_total osiris_forge_snapshots_total \
    osiris_forge_cells_covered osiris_forge_frontier_flips_total; do
    grep -q "^$fam" "$trace_tmp/campaign_coverage.prom" || {
        echo "missing forge metric family in exposition: $fam" >&2
        exit 1
    }
done

echo "== bench_campaign --check: forged-injection speedup + adoption alloc discipline =="
cargo run --release -p osiris-bench --bin bench_campaign -- --check

echo "== perfbench pins: unixbench cycles, 536 Table II outcomes, forge digest =="
for workload in unixbench campaign_boot campaign_forge; do
    result="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
    grep -q '"failed": 0' <<<"$result" || {
        echo "perfbench $workload missed its pins: $result" >&2
        exit 1
    }
done

echo "ci.sh: all gates passed"
