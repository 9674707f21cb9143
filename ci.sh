#!/usr/bin/env bash
# Tier-1 verification, split into named, timed stages.
#
#   ./ci.sh                 run every stage
#   ./ci.sh <stage> [...]   run a subset (in the given order)
#   ./ci.sh --list          print the stage names
#
# Stages:
#   build        cargo build --release
#   test         debug workspace test suite (tier-1 superset)
#   golden       determinism fingerprints in --release (debug is covered
#                by `test`; a debug/release divergence must fail CI)
#   par-smoke    the sharded parallel engine in --release: shards=4 (and
#                2, 8) campaign fingerprints must equal the committed
#                sequential goldens bit-for-bit
#   lint         check --benches --examples, clippy -D warnings, fmt
#   detlint      workspace determinism lint (see DETERMINISM.md): must be
#                clean, and its JSON report must validate
#   bench-smoke  engine bench in --quick mode: schema-validated JSON,
#                the regression floor (speedup_vs_pr2 must stay within
#                0.7x of the committed BENCH_engine.json), the
#                out-of-core bound (spilled observer-log peak < 1.5x
#                budget, per preset and on the planet smoke leg), and
#                the v6 churn leg (throughput under a 10%-churn script)
#   dynamics-smoke  scripted network dynamics: partition and eclipse
#                campaigns must be fingerprint-identical at 2/4/8 shards
#                vs sequential, and `repro dynamics --json` must emit a
#                schema-valid ethmeter-reorg/v1 document that is
#                byte-identical between the sequential and 4-shard runs
#   repro-smoke  `repro table3`, the selfish-threshold grid, and the
#                spilled decentralization scalars on tiny presets:
#                non-empty, schema-valid output
#   consensus-smoke  the pluggable fork choice: trait-conformance and
#                engine-law tests (unit + integration, the latter pins
#                the explicit-heaviest goldens in --release), plus
#                `repro forkchoice --json` on a pinned tiny scenario —
#                schema-valid ethmeter-forkchoice/v1 with distinct
#                heads across engines
#   ethbench-smoke  the benchmark of record (BENCHMARK.json): the ethbench
#                package's own tests in --release, then one short traced
#                pass over every workload, which must report
#                `correct: true` with no failed campaign
#
# Each stage is timed; a summary table is printed at the end (and on
# failure, which names the failed stage instead of dumping trace noise).
set -euo pipefail
cd "$(dirname "$0")"

STAGES=(build test golden par-smoke lint detlint bench-smoke dynamics-smoke repro-smoke consensus-smoke ethbench-smoke)

stage_build() {
    cargo build --release
}

stage_test() {
    # Tier-1 is `cargo test -q` (the facade package); --workspace is a
    # superset, so running it alone avoids compiling the facade suites
    # twice.
    cargo test --workspace -q
}

stage_golden() {
    # Golden determinism fingerprints must hold in BOTH profiles: a
    # float/ordering divergence between debug and --release would
    # silently split "tested behavior" from "benchmarked behavior". The
    # debug run is covered by the workspace suite; re-run in release.
    cargo test --release --test golden -q
}

stage_par_smoke() {
    # The sharded engine's determinism contract: at 2/4/8 shards the
    # campaign fingerprint must be bit-identical to the committed
    # sequential goldens. Release profile, like the goldens themselves —
    # a debug-only equivalence would not cover benchmarked behavior.
    cargo test --release --test golden -q \
        sharded_campaigns_match_the_sequential_goldens
}

stage_lint() {
    cargo check --workspace --benches --examples
    cargo clippy --workspace --all-targets -- -D warnings
    cargo fmt --all --check
}

stage_detlint() {
    # The determinism policy (DETERMINISM.md) is a hard gate: the text
    # run prints any diagnostics for the log, then the JSON report is
    # schema-validated and must carry zero diagnostics and a written
    # reason on every allowed site.
    cargo run -q -p ethmeter-detlint -- check
    local report
    report="$(mktemp)"
    cargo run -q -p ethmeter-detlint -- check --format json > "$report"
    test "$(jq -r .schema "$report")" = "ethmeter-detlint/v1"
    jq -e '.files_scanned > 50' "$report" > /dev/null
    jq -e '.diagnostics | length == 0' "$report" > /dev/null
    jq -e '[.allowed[] | (.reason | length > 0)] | all' "$report" > /dev/null \
    || { echo "detlint: allowed site without a written reason" >&2
         jq '.allowed' "$report" >&2
         rm -f "$report"
         return 1; }
    rm -f "$report"
}

stage_bench_smoke() {
    # The engine suite must complete in --quick mode and emit well-formed
    # JSON. The quick run overwrites BENCH_engine.json, so save the
    # tree's report (whether committed or freshly regenerated) and
    # restore it afterwards — CI must never leave smoke-mode numbers
    # behind.
    local saved_report=""
    if [ -f BENCH_engine.json ]; then
        saved_report="$(mktemp)"
        cp BENCH_engine.json "$saved_report"
        # Restore on EVERY exit path — a failed schema check below must
        # not leave smoke-mode numbers (or a stray tempfile) behind.
        # (Stages run in their own bash process, so EXIT fires per stage.)
        trap "mv '$saved_report' BENCH_engine.json" EXIT
    fi
    cargo bench -p ethmeter-bench --bench engine -- --quick
    test "$(jq -r .schema BENCH_engine.json)" = "ethmeter-bench-engine/v6"
    jq -e '.presets | length == 3' BENCH_engine.json > /dev/null
    # v6 addition: the churn leg — throughput measured under a 10%-churn
    # script next to the static baseline, with a real ratio between them.
    jq -e '.churn | .preset == "tiny" and .churned_nodes >= 1
                    and .static_events > 0 and .churn_events > 0
                    and (.static_events_per_sec > 0)
                    and (.churn_relative_throughput > 0)' \
        BENCH_engine.json > /dev/null
    # v5 additions: the out-of-core measurement survey — every preset
    # must carry both backends' observer-log peaks and a spilled peak
    # bounded by ~1.5x its budget, and the planet smoke leg must have
    # actually spilled segments while staying within the same bound.
    jq -e '.presets | all(has("measure_peak_bytes") and has("spill_budget_bytes")
                          and has("spill_measure_peak_bytes") and has("spill_segments")
                          and (.spill_over_budget < 1.5))' \
        BENCH_engine.json > /dev/null
    jq -e '.spill_smoke | .preset == "planet" and .nodes >= 10000
                          and .spill_segments > 0 and (.spill_over_budget < 1.5)
                          and .measure_peak_bytes > .budget_bytes' \
        BENCH_engine.json > /dev/null
    # v4 additions: the sharded parallel-engine leg — every preset must
    # carry a measured par_speedup (sequential wall / 4-shard wall; > 1
    # only when host_cores backs it), and the report must say how many
    # cores and shards produced it.
    jq -e '.host_cores >= 1 and .par_shards >= 2' BENCH_engine.json > /dev/null
    jq -e '.presets | all(has("par_wall_seconds") and (.par_speedup > 0))' \
        BENCH_engine.json > /dev/null
    # v2 additions: per-preset counting-allocator metrics, PR-over-PR
    # baselines, and the multi-seed sweep-throughput survey.
    jq -e '.presets | all(has("allocs_per_event") and has("steady_allocs_per_event")
                          and has("alloc_peak_bytes") and has("speedup_vs_pr2"))' \
        BENCH_engine.json > /dev/null
    jq -e '.baseline | has("pr2_small_events_per_sec")' BENCH_engine.json > /dev/null
    jq -e '.sweep | has("reused_events_per_sec") and has("fresh_events_per_sec")
                    and has("reuse_speedup") and has("seeds") and has("threads_used")' \
        BENCH_engine.json > /dev/null
    # v3 addition: the grid-scale memory survey — streaming metric
    # collectors must keep a multi-run grid's peak heap near one
    # campaign's footprint, while the retain-everything collector grows
    # with the run count.
    jq -e '.grid | has("runs") and has("single_run_peak_bytes")
                   and has("streaming_peak_bytes") and has("retain_runs_peak_bytes")
                   and has("streaming_over_single") and has("retain_over_single")' \
        BENCH_engine.json > /dev/null
    jq -e '.grid.runs >= 64' BENCH_engine.json > /dev/null
    jq -e '.grid.streaming_over_single < .grid.retain_over_single' BENCH_engine.json > /dev/null
    # Regression floor: the freshly measured speedup_vs_pr2 of every
    # preset must stay within 0.7x of the committed report's value (the
    # committed numbers are re-captured alongside intentional perf
    # changes; see README "Benchmarks"). 0.7 and not tighter because the
    # comparison is structurally asymmetric: the committed report is
    # captured in *full* mode on an idle host, while this smoke stage
    # runs in --quick mode (short, startup-dominated runs) on a shared
    # single-core container, where identical code measures 10-30% lower
    # depending on neighbor load. A real regression in the simulation
    # core (an accidental quadratic path, debug checks in release)
    # still trips the gate.
    if [ -n "$saved_report" ]; then
        jq -e --slurpfile base "$saved_report" '
            [ .presets[] as $p
              | [ $base[0].presets[] | select(.name == $p.name) ][0] as $b
              | if $b == null then true
                else $p.speedup_vs_pr2 >= 0.7 * $b.speedup_vs_pr2 end
            ] | all' BENCH_engine.json > /dev/null \
        || { echo "bench floor violated: speedup_vs_pr2 dropped below 0.7x the committed baseline" >&2
             jq '[.presets[] | {name, speedup_vs_pr2}]' BENCH_engine.json >&2
             jq '[.presets[] | {name, committed: .speedup_vs_pr2}]' "$saved_report" >&2
             return 1; }
    fi
}

stage_dynamics_smoke() {
    # Scripted network dynamics must not break the sharded determinism
    # contract: the partition and eclipse integration tests pin the
    # 2/4/8-shard fingerprints against the sequential reference.
    # (one positional filter; it matches both the partition and the
    # eclipse test)
    cargo test --release --test dynamics -q \
        script_fingerprint_is_shard_invariant
    # The reorg-depth CLI: a schema-valid ethmeter-reorg/v1 document with
    # the full k ∈ 1..=12 tail, byte-identical between the sequential and
    # the 4-shard run of the same eclipse campaign.
    cargo build --release -p ethmeter-bench --bin repro
    local seq_json par_json
    seq_json="$(mktemp)"
    par_json="$(mktemp)"
    ./target/release/repro dynamics --preset tiny --seed 7 --json \
        > "$seq_json" 2> /dev/null
    ./target/release/repro dynamics --preset tiny --seed 7 --shards 4 --json \
        > "$par_json" 2> /dev/null
    jq -e '
        .schema == "ethmeter-reorg/v1"
        and .canonical_blocks > 0
        and (.rows | length == 12)
        and ([.rows[].k] == [range(1; 13)])
        and ([.rows[] | .p_revert >= 0 and .p_revert <= 1] | all)
        and ([.rows[].reverted] == ([.rows[].reverted] | sort | reverse))' \
        "$seq_json" > /dev/null \
    || { echo "reorg JSON failed schema validation:" >&2
         cat "$seq_json" >&2
         rm -f "$seq_json" "$par_json"
         return 1; }
    cmp -s "$seq_json" "$par_json" \
    || { echo "dynamics: 4-shard reorg document differs from sequential" >&2
         diff "$seq_json" "$par_json" >&2 || true
         rm -f "$seq_json" "$par_json"
         return 1; }
    rm -f "$seq_json" "$par_json"
}

stage_repro_smoke() {
    # The reproduction CLI must produce real output on a tiny preset:
    # a non-empty Table III and a schema-valid selfish-threshold surface
    # whose gain grid matches the declared axes.
    cargo build --release -p ethmeter-bench --bin repro
    local table3
    table3="$(./target/release/repro table3 --preset tiny --seed 7 2> /dev/null)"
    [ -n "$table3" ] || { echo "repro table3 produced no output" >&2; return 1; }
    grep -q "Table III" <<< "$table3" || { echo "repro table3 output malformed" >&2; return 1; }
    local selfish_json
    selfish_json="$(mktemp)"
    ./target/release/repro selfish --preset tiny --seed 7 --json > "$selfish_json" 2> /dev/null
    jq -e '
        (.alphas | length) as $a | (.gammas | length) as $g |
        .schema == "ethmeter-selfish-threshold/v1"
        and $a >= 2 and $g >= 2
        and (.gain | length == $g)
        and ([.gain[] | length == $a] | all)
        and ([.gain[][] | (. > 0 and . < 10)] | all)
        and (.thresholds | length == $g)' \
        "$selfish_json" > /dev/null \
    || { echo "selfish-threshold JSON failed schema validation:" >&2
         cat "$selfish_json" >&2
         rm -f "$selfish_json"
         return 1; }
    rm -f "$selfish_json"
    # The decentralization scalars, computed out-of-core: a spilled
    # tiny campaign must emit a schema-valid report with every axis in
    # range (Gini in [0,1), HHI in (0,1], Nakamoto >= 1).
    local dec_json spill_dir
    dec_json="$(mktemp)"
    spill_dir="$(mktemp -d)"
    ./target/release/repro decentralization --preset tiny --seed 7 --json \
        --spill-dir "$spill_dir" --budget 65536 > "$dec_json" 2> /dev/null
    jq -e '
        .schema == "ethmeter-decentralization/v1" and .blocks > 0
        and ([.hash_power, .block_production, .first_observation, .revenue]
             | all(.n >= 1 and .nakamoto >= 1
                   and .gini >= 0 and .gini < 1
                   and .hhi > 0 and .hhi <= 1))' \
        "$dec_json" > /dev/null \
    || { echo "decentralization JSON failed schema validation:" >&2
         cat "$dec_json" >&2
         rm -rf "$dec_json" "$spill_dir"
         return 1; }
    rm -rf "$dec_json" "$spill_dir"
}

stage_consensus_smoke() {
    # The consensus trait's laws: engine conformance at the unit level,
    # then the integration suite — explicit-heaviest campaigns must land
    # on the pinned goldens (sequential and 2/4/8 shards) and the
    # hash-ordered engines must be arrival-order independent. Release
    # profile: the debug run is covered by the workspace suite.
    cargo test -q -p ethmeter-chain consensus
    cargo test -q -p ethmeter-chain forkchoice
    cargo test --release --test consensus -q
    # The fork-choice comparison CLI on a pinned scenario: heaviest,
    # longest, and uncle-weighted GHOST must each report a head, and at
    # least two engines must disagree (tiny seed 11 splits all three).
    cargo build --release -p ethmeter-bench --bin repro
    local fc_json
    fc_json="$(mktemp)"
    ./target/release/repro forkchoice --preset tiny --seed 11 --json \
        > "$fc_json" 2> /dev/null
    jq -e '
        .schema == "ethmeter-forkchoice/v1"
        and .preset == "tiny" and .seed == 11
        and (.engines | length == 3)
        and ([.engines[].name] == ["heaviest", "longest", "uncle-ghost"])
        and ([.engines[] | .head_number > 0
              and (.head | startswith("0x"))
              and (.safe | startswith("0x"))
              and (.finalized | startswith("0x"))] | all)
        and .distinct_heads == true' \
        "$fc_json" > /dev/null \
    || { echo "forkchoice JSON failed schema validation:" >&2
         cat "$fc_json" >&2
         rm -f "$fc_json"
         return 1; }
    rm -f "$fc_json"
}

stage_ethbench_smoke() {
    # ethbench is a package of its own (own workspace and lockfile), so
    # the workspace stages above never build or test it. The traced run
    # checks every campaign against the correctness gate and the traced
    # contract against the untraced one; `correct` and `failed` sum that
    # up. The JSON object is the last line of stdout.
    cargo test --release --manifest-path ethbench/Cargo.toml
    local report
    report="$(mktemp)"
    cargo run --release --quiet --manifest-path ethbench/Cargo.toml -- \
        --workload all --seed 1 --seconds 2 --trace 1 2> /dev/null \
        | tail -n 1 > "$report"
    jq -e '.correct == true and .failed == 0' "$report" > /dev/null \
    || { echo "ethbench smoke run failed:" >&2
         cat "$report" >&2
         rm -f "$report"
         return 1; }
    rm -f "$report"
}

# --- driver -----------------------------------------------------------------

stage_known() {
    local s
    for s in "${STAGES[@]}"; do
        [ "$s" = "$1" ] && return 0
    done
    return 1
}

run_stages() {
    local results=() failed=""
    local stage rc t0 t1
    for stage in "$@"; do
        echo "==> stage: $stage"
        t0=$SECONDS
        rc=0
        # Run the stage in a child bash with its own errexit: calling the
        # function directly as `stage_x || rc=$?` would put its whole body
        # in an AND-OR context where bash *ignores* `set -e` (even inside
        # a subshell), silently swallowing every failure but the last
        # command's. A separate process is the only airtight form.
        export -f "stage_${stage//-/_}"
        bash -ec "set -uo pipefail; stage_${stage//-/_}" || rc=$?
        t1=$SECONDS
        if [ "$rc" -eq 0 ]; then
            results+=("$(printf '%-12s  %-4s  %4ss' "$stage" ok "$((t1 - t0))")")
        else
            results+=("$(printf '%-12s  %-4s  %4ss' "$stage" FAIL "$((t1 - t0))")")
            failed="$stage"
            break
        fi
    done
    echo
    echo "stage         status  time"
    echo "---------------------------"
    local line
    for line in "${results[@]}"; do
        echo "$line"
    done
    if [ -n "$failed" ]; then
        echo
        echo "ci.sh: stage '$failed' failed" >&2
        return 1
    fi
}

main() {
    if [ "${1:-}" = "--list" ]; then
        printf '%s\n' "${STAGES[@]}"
        return 0
    fi
    local requested=("$@")
    if [ "${#requested[@]}" -eq 0 ]; then
        requested=("${STAGES[@]}")
    fi
    local s
    for s in "${requested[@]}"; do
        if ! stage_known "$s"; then
            echo "ci.sh: unknown stage '$s' (try: ${STAGES[*]})" >&2
            return 2
        fi
    done
    run_stages "${requested[@]}"
}

main "$@"
