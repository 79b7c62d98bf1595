#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, formatting.
# Run from the repo root: ./scripts/check.sh
#
# Every gate runs through run_gate so a failure names the gate that
# tripped (and its exit code) instead of dying silently mid-script; the
# expected-vs-actual detail is in the gate's own output just above.
set -uo pipefail
cd "$(dirname "$0")/.."

run_gate() {
  local name="$1"
  shift
  echo "==> ${name}"
  # NB: not `if ! "$@"` / fall-through-if — both leave $? = 0 on failure.
  "$@" && return 0
  local code=$?
  echo "" >&2
  echo "FAILED gate: ${name}" >&2
  echo "  command : $*" >&2
  echo "  expected: exit 0, actual: exit ${code} (expected-vs-actual detail in the output above)" >&2
  exit "${code}"
}

run_gate "cargo build --release" \
  cargo build --release --offline --workspace

run_gate "cargo test" \
  cargo test --offline --workspace --quiet

run_gate "determinism gate (worker counts 1/2/4/8)" \
  cargo test --offline -p pdn-bench --test pool_determinism --quiet

run_gate "shard determinism gate (shard counts 1/2/4/8, inline + threaded)" \
  cargo test --offline -p pdn-bench --test shard_determinism --quiet

# perfbench is a package of its own that builds the crates by path, so the
# workspace build above cannot see an API it still uses going away.
run_gate "perfbench tests (the benchmark package still builds against the crates)" \
  cargo test --release --offline --manifest-path perfbench/Cargo.toml

run_gate "crypto differential tests (HMAC vs baseline)" \
  cargo test --offline -p pdn-crypto --quiet diff_tests
run_gate "wire differential tests (binary codec vs the pdn_bench::json_baseline oracle)" \
  cargo test --offline -p pdn-bench --test wire_differential --quiet
run_gate "crypto gate (fast-path speedup/alloc asserts)" \
  cargo run --release --offline -p pdn-bench --bin crypto_bench -- --quick

run_gate "wire gate (binary vs JSON codec speedup + zero-alloc asserts)" \
  cargo run --release --offline -p pdn-bench --bin wire_bench -- --quick

run_gate "sim workload gate (serial workload within 10% of committed BENCH_sim.json)" \
  cargo run --release --offline -p pdn-bench --bin sim_bench -- --quick

run_gate "swarm scale gate (10k-peer tables identical at shards 1/2/4/8, peers/GB floor, ev/s within 10% of committed BENCH_swarm.json)" \
  cargo run --release --offline -p pdn-bench --bin swarm_scale_bench -- --quick

run_gate "service SLO gate (p999 JTFS under budget, knee within 10% of committed BENCH_service.json, goodput plateau at 2x, federation K=4 knee >= 3x K=1 with shard-mode identity, per-join CPU speedup)" \
  cargo run --release --offline -p pdn-bench --bin service_bench -- --quick

run_gate "cargo bench --no-run (benches stay compiling)" \
  cargo bench --offline --workspace --no-run

echo "==> hot-path hash lint (no std::collections::HashMap on swarm-state hot paths)"
# The swarm-state engine (PR 5) moved the signaling server, SDK scheduler,
# and simnet router onto FxHash/slab/bitmap structures; the DTLS record
# layer and data channel keep the same stance (the channel's reassembly
# state lives in ordered maps), as do the service plane's bounded inboxes
# and open-loop harness; the federated tracker plane (PR 10) keeps the
# same stance in the region-shard router. SipHash maps must not creep
# back into those files; test code, including the state-differential
# oracle (crates/provider/tests/support/state_baseline.rs), is exempt by
# not being listed here.
hot_paths=(
  crates/provider/src/sdk.rs
  crates/provider/src/signaling.rs
  crates/provider/src/swarm.rs
  crates/provider/src/service/inbox.rs
  crates/provider/src/service/harness.rs
  crates/provider/src/service/federation.rs
  crates/simnet/src/net.rs
  crates/simnet/src/shard.rs
  crates/webrtc/src/dtls.rs
  crates/webrtc/src/channel.rs
)
if grep -n "std::collections::HashMap" "${hot_paths[@]}"; then
  echo "" >&2
  echo "FAILED gate: hot-path hash lint" >&2
  echo "  expected: no std::collections::HashMap in the files above, actual: the matches listed" >&2
  echo "  (use FxHashMap/slab/bitmap structures)" >&2
  exit 1
fi

run_gate "cargo clippy -D warnings" \
  cargo clippy --offline --workspace --all-targets -- -D warnings

run_gate "cargo fmt --check" \
  cargo fmt --all -- --check

echo "All checks passed."
