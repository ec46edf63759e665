#!/usr/bin/env bash
# CI gate: formatting, build, tests, and a smoke campaign that exercises
# the parallel execution path (work-stealing pool + determinism check)
# on every run. Keep it fast — the smoke grid is ~2 seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

# tests/golden.rs rewrites every fixture instead of checking it while
# CHUNKPOINT_BLESS_GOLDEN is set (even to an empty value), so a shell
# left exporting it after a bless would pass whatever the bytes.
if [ -n "${CHUNKPOINT_BLESS_GOLDEN+set}" ]; then
    echo "CHUNKPOINT_BLESS_GOLDEN is set: the golden tests would re-bless, not check; unset it"
    exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

# The golden fixtures again, in the release build perfbench and serve
# ship: debug builds take debug_assert! branches (the engine re-runs
# every speech denominator) that release builds skip.
echo "== golden fixtures, release build =="
cargo test --release --offline -q --test golden --test properties

# Compiler warnings fail the gate, so a deletion cannot leave behind an
# unused field, a helper with no caller or a stale test import.
echo "== cargo check (warnings are errors) =="
RUSTFLAGS="-D warnings" cargo check --offline --workspace --all-targets

# Broken or private intra-doc links fail the gate, so docs cannot keep
# pointing at items that were renamed or deleted.
echo "== cargo doc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace \
    --exclude rand --exclude proptest

# perfbench is a workspace of its own, so the tests above never build it:
# without this, a break in a public API it calls would pass the gate.
# --locked: a change that would rewrite perfbench/Cargo.lock (a crate
# dependency edit) fails here instead of silently editing the benchmark.
echo "== perfbench self-tests =="
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

# A bench smoke must never rewrite the committed per-layer numbers:
# hash every BENCH_*.json before the first smoke, check after the last.
BENCH_SUMS="$(sha256sum BENCH_*.json)"

echo "== smoke campaign (parallel path + determinism) =="
cargo run --release -p chunkpoint_bench --bin bench_campaign -- --smoke --seeds 2 --threads 2

echo "== ECC bench smoke (codec and SRAM words/second, one round) =="
cargo run --release -p chunkpoint_bench --bin bench_ecc -- --smoke

echo "== exec smoke (one executor API: local + remote parity on a 1-second grid) =="
cargo run --release --example exec_parity

echo "== scenario smoke (named timeline scenario through a real serve backend) =="
SCN_DIR="$(mktemp -d)"
trap 'rm -rf "$SCN_DIR"' EXIT
# The example submits a 3-scenario timeline axis (burst, quiet shift
# with expect blocks, scrub schedule) to a real serve over TCP, asserts
# every expect verdict, and writes both reports for the byte check.
cargo run --release --example scenario_campaign "$SCN_DIR"
cmp "$SCN_DIR/local.json" "$SCN_DIR/remote.json" \
    || { echo "scenario remote report diverged from the local oracle"; exit 1; }
echo "scenario smoke OK (expect verdicts typed, local and remote bytes identical)"
# Later stages install their own EXIT traps, so clean up eagerly here.
rm -rf "$SCN_DIR"

echo "== service smoke (submit, waiting status, cached resubmit, clean shutdown) =="
SERVE_DIR="$(mktemp -d)"
# Failure paths exit mid-test: take the background server down with us
# (no-op after the success path's wait) before removing its data dir.
trap 'kill "${SERVE_PID:-0}" 2>/dev/null || true; rm -rf "$SERVE_DIR"' EXIT
target/release/serve --addr 127.0.0.1:0 --data-dir "$SERVE_DIR/data" \
    --port-file "$SERVE_DIR/port" --jobs 1 &
SERVE_PID=$!
for _ in $(seq 1 200); do [ -s "$SERVE_DIR/port" ] && break; sleep 0.05; done
[ -s "$SERVE_DIR/port" ] || { echo "serve never wrote its port"; exit 1; }
BASE="http://127.0.0.1:$(cat "$SERVE_DIR/port")"
# Scrape /metrics before the submit/cache-hit sequence; the counters
# must advance by exactly the work done below.
METRICS_BEFORE="$(curl -sf "$BASE/metrics")"
# Value of the sample line whose series name (with labels) is $2 —
# comment lines skipped so unlabelled names don't match their own HELP.
mval() { printf '%s\n' "$1" | grep -v '^#' | grep -F "$2 " | head -1 | awk '{print $2}'; }
SPEC='{"version":1,"campaign_seed":7,"benchmarks":["ADPCM encode"],
  "schemes":[{"label":"Default","spec":{"kind":"fixed","scheme":{"kind":"default"}}}],
  "error_rates":[0.000001],"replicates":2,"normalize":false,"golden_check":false}'
SUBMIT="$(curl -sf -X POST --data "$SPEC" "$BASE/campaigns")"
ID="$(printf '%s' "$SUBMIT" | sed -n 's/.*"id":"\([0-9a-f]\{16\}\)".*/\1/p')"
[ -n "$ID" ] || { echo "submit failed: $SUBMIT"; exit 1; }
# One status request that waits for the job to finish (the service
# caps the wait at 5 s; the job takes milliseconds).
STATUS="$(curl -sf "$BASE/campaigns/$ID?wait_ms=10000")"
case "$STATUS" in *'"status":"done"'*) ;; *) echo "job not done after a waiting status: $STATUS"; exit 1 ;; esac
curl -sf "$BASE/campaigns/$ID/result" | grep -q '"campaign_seed":7' \
    || { echo "result endpoint returned no report"; exit 1; }
# The cached resubmit must answer instantly (content-addressed hit).
T0="$(date +%s%N)"
RESUBMIT="$(curl -sf -X POST --data "$SPEC" "$BASE/campaigns")"
T1="$(date +%s%N)"
case "$RESUBMIT" in
    *'"cached":true'*) ;;
    *) echo "resubmit was not a cache hit: $RESUBMIT"; exit 1 ;;
esac
ELAPSED_MS=$(( (T1 - T0) / 1000000 ))
[ "$ELAPSED_MS" -lt 1000 ] || { echo "cache hit took ${ELAPSED_MS}ms"; exit 1; }
# Metrics smoke: the same counters, after. Two submits (one fresh, one
# cached), one status request, one new job, one cache hit — and the
# latency histogram's _count must track the request counter on the
# submit endpoint.
METRICS_AFTER="$(curl -sf "$BASE/metrics")"
SUB0="$(mval "$METRICS_BEFORE" 'serve_requests_total{endpoint="submit"}')"
SUB1="$(mval "$METRICS_AFTER" 'serve_requests_total{endpoint="submit"}')"
[ "$((SUB1 - SUB0))" -eq 2 ] \
    || { echo "submit request counter moved $SUB0 -> $SUB1, wanted +2"; exit 1; }
STATUS0="$(mval "$METRICS_BEFORE" 'serve_requests_total{endpoint="status"}')"
STATUS1="$(mval "$METRICS_AFTER" 'serve_requests_total{endpoint="status"}')"
[ "$((STATUS1 - STATUS0))" -eq 1 ] \
    || { echo "status request counter moved $STATUS0 -> $STATUS1, wanted +1"; exit 1; }
JOBS0="$(mval "$METRICS_BEFORE" 'serve_jobs_submitted_total')"
JOBS1="$(mval "$METRICS_AFTER" 'serve_jobs_submitted_total')"
[ "$((JOBS1 - JOBS0))" -eq 1 ] \
    || { echo "job counter moved $JOBS0 -> $JOBS1, wanted +1"; exit 1; }
CACHED1="$(mval "$METRICS_AFTER" 'serve_jobs_cached_total')"
[ "$CACHED1" -ge 1 ] || { echo "cached-job counter never advanced"; exit 1; }
HITS1="$(mval "$METRICS_AFTER" 'serve_result_cache_hits_total')"
[ "$HITS1" -ge 1 ] || { echo "result-cache-hit counter never advanced"; exit 1; }
SUBCOUNT1="$(mval "$METRICS_AFTER" 'serve_request_seconds_count{endpoint="submit"}')"
[ "$SUBCOUNT1" = "$SUB1" ] \
    || { echo "submit latency count $SUBCOUNT1 != request counter $SUB1"; exit 1; }
curl -sf -X POST "$BASE/shutdown" >/dev/null
wait "$SERVE_PID"
echo "service smoke OK (job $ID, cached resubmit in ${ELAPSED_MS}ms, metrics counters advanced)"

echo "== serve bench smoke (healthz, cache hit and submission request rates) =="
cargo run --release -p chunkpoint_bench --bin bench_serve -- --smoke

echo "== shard smoke (two serves + coordinator on a 1-second grid) =="
SHARD_DIR="$(mktemp -d)"
trap 'kill "${SERVE_PID:-0}" "${SHARD_A_PID:-0}" "${SHARD_B_PID:-0}" 2>/dev/null || true; rm -rf "$SERVE_DIR" "$SHARD_DIR"' EXIT
target/release/serve --addr 127.0.0.1:0 --data-dir "$SHARD_DIR/a" \
    --port-file "$SHARD_DIR/port_a" --jobs 1 --threads 1 &
SHARD_A_PID=$!
target/release/serve --addr 127.0.0.1:0 --data-dir "$SHARD_DIR/b" \
    --port-file "$SHARD_DIR/port_b" --jobs 1 --threads 1 &
SHARD_B_PID=$!
for _ in $(seq 1 200); do [ -s "$SHARD_DIR/port_a" ] && [ -s "$SHARD_DIR/port_b" ] && break; sleep 0.05; done
[ -s "$SHARD_DIR/port_a" ] && [ -s "$SHARD_DIR/port_b" ] \
    || { echo "shard-smoke serves never wrote their ports"; exit 1; }
# 2 benchmarks x 1 scheme x 2 replicates = 4 scenarios, ~1 s of work.
cat > "$SHARD_DIR/spec.json" <<'SPEC'
{"version":1,"campaign_seed":11,"benchmarks":["ADPCM encode","ADPCM decode"],
 "schemes":[{"label":"Default","spec":{"kind":"fixed","scheme":{"kind":"default"}}}],
 "error_rates":[0.000001],"replicates":2,"normalize":false,"golden_check":false}
SPEC
target/release/shard \
    --backends "127.0.0.1:$(cat "$SHARD_DIR/port_a"),127.0.0.1:$(cat "$SHARD_DIR/port_b")" \
    --spec "$SHARD_DIR/spec.json" --json "$SHARD_DIR/report.json" --poll-ms 10
grep -q '"campaign_seed":11' "$SHARD_DIR/report.json" \
    || { echo "merged shard report did not parse"; exit 1; }
grep -q '"scenarios":4' "$SHARD_DIR/report.json" \
    || { echo "merged shard report has the wrong scenario count"; exit 1; }
curl -sf -X POST "http://127.0.0.1:$(cat "$SHARD_DIR/port_a")/shutdown" >/dev/null
curl -sf -X POST "http://127.0.0.1:$(cat "$SHARD_DIR/port_b")/shutdown" >/dev/null
wait "$SHARD_A_PID" "$SHARD_B_PID"
echo "shard smoke OK (merged report covers 4 scenarios)"

echo "== chaos smoke (faulted proxy vs clean backend, byte-identical report) =="
CHAOS_DIR="$(mktemp -d)"
trap 'kill "${SERVE_PID:-0}" "${SHARD_A_PID:-0}" "${SHARD_B_PID:-0}" \
         "${CHAOS_A_PID:-0}" "${CHAOS_B_PID:-0}" "${CHAOS_PROXY_PID:-0}" 2>/dev/null || true; \
      rm -rf "$SERVE_DIR" "$SHARD_DIR" "$CHAOS_DIR"' EXIT
target/release/serve --addr 127.0.0.1:0 --data-dir "$CHAOS_DIR/faulted" \
    --port-file "$CHAOS_DIR/port_a" --jobs 1 --threads 1 &
CHAOS_A_PID=$!
target/release/serve --addr 127.0.0.1:0 --data-dir "$CHAOS_DIR/clean" \
    --port-file "$CHAOS_DIR/port_b" --jobs 1 --threads 1 &
CHAOS_B_PID=$!
for _ in $(seq 1 200); do [ -s "$CHAOS_DIR/port_a" ] && [ -s "$CHAOS_DIR/port_b" ] && break; sleep 0.05; done
[ -s "$CHAOS_DIR/port_a" ] && [ -s "$CHAOS_DIR/port_b" ] \
    || { echo "chaos-smoke serves never wrote their ports"; exit 1; }
# A seeded truncate+stall fault plan in front of backend A: the fault
# sequence is a pure function of (seed, connection index), so this smoke
# either always passes or always fails — no flaky middle ground.
target/release/chaos --upstream "127.0.0.1:$(cat "$CHAOS_DIR/port_a")" \
    --seed 3 --rate 0.3 --kinds truncate-head,truncate-body,stall,inject-500 \
    --stall-ms 20 --port-file "$CHAOS_DIR/port_chaos" &
CHAOS_PROXY_PID=$!
for _ in $(seq 1 200); do [ -s "$CHAOS_DIR/port_chaos" ] && break; sleep 0.05; done
[ -s "$CHAOS_DIR/port_chaos" ] || { echo "chaos proxy never wrote its port"; exit 1; }
cat > "$CHAOS_DIR/spec.json" <<'SPEC'
{"version":1,"campaign_seed":13,"benchmarks":["ADPCM encode","ADPCM decode"],
 "schemes":[{"label":"Default","spec":{"kind":"fixed","scheme":{"kind":"default"}}}],
 "error_rates":[0.000001],"replicates":2,"normalize":false,"golden_check":false}
SPEC
# Through the faulted proxy with a raised strike budget, then directly
# against the clean backend; the reports must be byte-identical.
timeout 120 target/release/shard \
    --backends "127.0.0.1:$(cat "$CHAOS_DIR/port_chaos")" \
    --spec "$CHAOS_DIR/spec.json" --json "$CHAOS_DIR/faulted.json" \
    --poll-ms 10 --strikes 12 \
    || { echo "faulted run did not survive the chaos proxy"; exit 1; }
timeout 120 target/release/shard \
    --backends "127.0.0.1:$(cat "$CHAOS_DIR/port_b")" \
    --spec "$CHAOS_DIR/spec.json" --json "$CHAOS_DIR/clean.json" --poll-ms 10
cmp "$CHAOS_DIR/faulted.json" "$CHAOS_DIR/clean.json" \
    || { echo "faulted report diverged from the clean report"; exit 1; }
kill "$CHAOS_PROXY_PID" 2>/dev/null || true
curl -sf -X POST "http://127.0.0.1:$(cat "$CHAOS_DIR/port_a")/shutdown" >/dev/null
curl -sf -X POST "http://127.0.0.1:$(cat "$CHAOS_DIR/port_b")/shutdown" >/dev/null
wait "$CHAOS_A_PID" "$CHAOS_B_PID"
echo "chaos smoke OK (faulted and clean reports byte-identical)"

echo "== incremental smoke (result cache + spec-diffed re-run, byte-identical) =="
CACHE_DIR="$(mktemp -d)"
trap 'kill "${SERVE_PID:-0}" "${SHARD_A_PID:-0}" "${SHARD_B_PID:-0}" \
         "${CHAOS_A_PID:-0}" "${CHAOS_B_PID:-0}" "${CHAOS_PROXY_PID:-0}" \
         "${CACHE_A_PID:-0}" "${CACHE_B_PID:-0}" 2>/dev/null || true; \
      rm -rf "$SERVE_DIR" "$SHARD_DIR" "$CHAOS_DIR" "$CACHE_DIR"' EXIT
target/release/serve --addr 127.0.0.1:0 --data-dir "$CACHE_DIR/a" \
    --port-file "$CACHE_DIR/port_a" --jobs 1 --threads 1 &
CACHE_A_PID=$!
target/release/serve --addr 127.0.0.1:0 --data-dir "$CACHE_DIR/b" \
    --port-file "$CACHE_DIR/port_b" --jobs 1 --threads 1 &
CACHE_B_PID=$!
for _ in $(seq 1 200); do [ -s "$CACHE_DIR/port_a" ] && [ -s "$CACHE_DIR/port_b" ] && break; sleep 0.05; done
[ -s "$CACHE_DIR/port_a" ] && [ -s "$CACHE_DIR/port_b" ] \
    || { echo "cache-smoke serves never wrote their ports"; exit 1; }
CACHE_BACKENDS="127.0.0.1:$(cat "$CACHE_DIR/port_a"),127.0.0.1:$(cat "$CACHE_DIR/port_b")"
# The baseline grid, run once with the cache sealing every shard.
cat > "$CACHE_DIR/spec_v1.json" <<'SPEC'
{"version":1,"campaign_seed":17,"benchmarks":["ADPCM encode","ADPCM decode"],
 "schemes":[{"label":"Default","spec":{"kind":"fixed","scheme":{"kind":"default"}}}],
 "error_rates":[0.000001,0.00001],"replicates":2,"normalize":false,"golden_check":false}
SPEC
# One axis value edited: 1e-5 -> 2e-5. Half the grid is unchanged.
sed 's/0\.00001\]/0.00002]/' "$CACHE_DIR/spec_v1.json" > "$CACHE_DIR/spec_v2.json"
grep -q '0.00002' "$CACHE_DIR/spec_v2.json" || { echo "axis edit did not apply"; exit 1; }
timeout 120 target/release/shard --backends "$CACHE_BACKENDS" \
    --spec "$CACHE_DIR/spec_v1.json" --cache-dir "$CACHE_DIR/cache" \
    --json "$CACHE_DIR/v1.json" --poll-ms 10 --quiet
# Clean oracle for the edited spec: a run without any cache.
timeout 120 target/release/shard --backends "$CACHE_BACKENDS" \
    --spec "$CACHE_DIR/spec_v2.json" --json "$CACHE_DIR/v2_clean.json" \
    --poll-ms 10 --quiet
# Incremental: diff against the baseline, splice the unchanged half,
# execute only the edited cells — and expose the cache counters.
timeout 120 target/release/shard --backends "$CACHE_BACKENDS" \
    --spec "$CACHE_DIR/spec_v2.json" --baseline "$CACHE_DIR/spec_v1.json" \
    --cache-dir "$CACHE_DIR/cache" --json "$CACHE_DIR/v2_incremental.json" \
    --metrics-out "$CACHE_DIR/metrics.txt" --poll-ms 10 --quiet
cmp "$CACHE_DIR/v2_incremental.json" "$CACHE_DIR/v2_clean.json" \
    || { echo "incremental report diverged from the clean run"; exit 1; }
CACHE_METRICS="$(cat "$CACHE_DIR/metrics.txt")"
CACHE_HITS="$(mval "$CACHE_METRICS" 'shard_cache_hits_total')"
[ "${CACHE_HITS:-0}" -ge 1 ] \
    || { echo "shard_cache_hits_total never advanced: ${CACHE_HITS:-absent}"; exit 1; }
SPLICED="$(mval "$CACHE_METRICS" 'shard_cache_rows_spliced_total')"
[ "${SPLICED:-0}" -ge 1 ] \
    || { echo "shard_cache_rows_spliced_total never advanced"; exit 1; }
# A verbatim warm re-run of the edited spec is a pure splice and still
# byte-identical.
timeout 120 target/release/shard --backends "$CACHE_BACKENDS" \
    --spec "$CACHE_DIR/spec_v2.json" --cache-dir "$CACHE_DIR/cache" \
    --json "$CACHE_DIR/v2_warm.json" --poll-ms 10 --quiet
cmp "$CACHE_DIR/v2_warm.json" "$CACHE_DIR/v2_clean.json" \
    || { echo "warm-splice report diverged"; exit 1; }
curl -sf -X POST "http://127.0.0.1:$(cat "$CACHE_DIR/port_a")/shutdown" >/dev/null
curl -sf -X POST "http://127.0.0.1:$(cat "$CACHE_DIR/port_b")/shutdown" >/dev/null
wait "$CACHE_A_PID" "$CACHE_B_PID"
echo "incremental smoke OK (${CACHE_HITS} cache hits, ${SPLICED} rows spliced, bytes identical)"

echo "== denominator smoke (normalized campaign, warm vs cold serve, byte-identical) =="
GOLD_DIR="$(mktemp -d)"
trap 'kill "${SERVE_PID:-0}" "${SHARD_A_PID:-0}" "${SHARD_B_PID:-0}" \
         "${CHAOS_A_PID:-0}" "${CHAOS_B_PID:-0}" "${CHAOS_PROXY_PID:-0}" \
         "${CACHE_A_PID:-0}" "${CACHE_B_PID:-0}" \
         "${GOLD_A_PID:-0}" "${GOLD_B_PID:-0}" 2>/dev/null || true; \
      rm -rf "$SERVE_DIR" "$SHARD_DIR" "$CHAOS_DIR" "$CACHE_DIR" "$GOLD_DIR"' EXIT
target/release/serve --addr 127.0.0.1:0 --data-dir "$GOLD_DIR/a" \
    --port-file "$GOLD_DIR/port_a" --jobs 1 --threads 1 &
GOLD_A_PID=$!
target/release/serve --addr 127.0.0.1:0 --data-dir "$GOLD_DIR/b" \
    --port-file "$GOLD_DIR/port_b" --jobs 1 --threads 1 &
GOLD_B_PID=$!
for _ in $(seq 1 200); do [ -s "$GOLD_DIR/port_a" ] && [ -s "$GOLD_DIR/port_b" ] && break; sleep 0.05; done
[ -s "$GOLD_DIR/port_a" ] && [ -s "$GOLD_DIR/port_b" ] \
    || { echo "denominator-smoke serves never wrote their ports"; exit 1; }
# serve keeps golden references and benchmark inputs across jobs.
# Backend A first runs a warm-up at another scale, so a memo keyed too
# loosely would hand the target campaign the warm-up's references or
# inputs there (one benchmark per input kind: codes, a JPEG stream, PCM);
# backend B runs the target cold. JPEG at lambda = 1e-3 also pins its
# same-seed Default denominator across the process boundary.
GOLD_SCHEMES='"schemes":[{"label":"HW-based","spec":{"kind":"fixed","scheme":{"kind":"hw-ecc","t":8}}},
 {"label":"Proposed","spec":{"kind":"fixed","scheme":{"kind":"hybrid","chunk_words":16,"l1_prime_t":8}}}]'
cat > "$GOLD_DIR/warmup.json" <<SPEC
{"version":1,"campaign_seed":19,
 "base":{"scale":0.25,"error_rate":0.000001,"seed":0,"area_overhead":0.05,"cycle_overhead":0.1},
 "benchmarks":["ADPCM decode","JPG decode","G722 encode"],$GOLD_SCHEMES,
 "error_rates":[0.000001],"replicates":1,"normalize":true,"golden_check":false}
SPEC
cat > "$GOLD_DIR/target.json" <<SPEC
{"version":1,"campaign_seed":19,
 "base":{"scale":2.0,"error_rate":0.000001,"seed":0,"area_overhead":0.05,"cycle_overhead":0.1},
 "benchmarks":["ADPCM decode","JPG decode","G722 encode"],$GOLD_SCHEMES,
 "error_rates":[0.000001,0.001],"replicates":2,"normalize":true,"golden_check":true}
SPEC
GOLD_A="127.0.0.1:$(cat "$GOLD_DIR/port_a")"
GOLD_B="127.0.0.1:$(cat "$GOLD_DIR/port_b")"
timeout 120 target/release/shard --backends "$GOLD_A" --spec "$GOLD_DIR/warmup.json" \
    --json "$GOLD_DIR/warmup_report.json" --poll-ms 10 --quiet
timeout 120 target/release/shard --backends "$GOLD_A" --spec "$GOLD_DIR/target.json" \
    --json "$GOLD_DIR/warm.json" --poll-ms 10 --quiet
timeout 120 target/release/shard --backends "$GOLD_B" --spec "$GOLD_DIR/target.json" \
    --json "$GOLD_DIR/cold.json" --poll-ms 10 --quiet
grep -q '"energy_ratio":[0-9]' "$GOLD_DIR/cold.json" && grep -q '"correct":true' "$GOLD_DIR/cold.json" \
    || { echo "target report carries no ratios or golden verdicts"; exit 1; }
cmp "$GOLD_DIR/warm.json" "$GOLD_DIR/cold.json" \
    || { echo "warm backend's normalized report diverged from the cold backend's"; exit 1; }
curl -sf -X POST "http://$GOLD_A/shutdown" >/dev/null
curl -sf -X POST "http://$GOLD_B/shutdown" >/dev/null
wait "$GOLD_A_PID" "$GOLD_B_PID"
echo "denominator smoke OK (warm and cold normalized reports byte-identical)"

echo "== cache bench smoke (cold seal vs warm splice vs incremental) =="
cargo run --release -p chunkpoint_bench --bin bench_cache -- --smoke

echo "== scenario bench smoke (timeline axis vs plain grid) =="
cargo run --release -p chunkpoint_bench --bin bench_scenario -- --smoke

echo "== chaos bench smoke (submission throughput at 0/10/30% fault rates) =="
cargo run --release -p chunkpoint_bench --bin bench_chaos -- --smoke

echo "== adaptive smoke (early-stopping controller over two serve shards) =="
cargo run --release --example adaptive_campaign

echo "== adaptive bench smoke (fixed grid vs adaptive replicates-to-CI) =="
cargo run --release -p chunkpoint_bench --bin bench_adaptive -- --smoke

echo "== committed BENCH files untouched by the bench smokes =="
[ "$(sha256sum BENCH_*.json)" = "$BENCH_SUMS" ] || {
    echo "a bench smoke rewrote a committed BENCH file:"
    printf '%s\n' "$BENCH_SUMS" | sha256sum -c - || true
    exit 1
}

echo "CI OK"
