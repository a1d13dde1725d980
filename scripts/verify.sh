#!/usr/bin/env sh
# Tier-1 verification: release build + full test suite (see ROADMAP.md).
#
# With no argument, the tier-1 gate runs unchanged: build everything,
# run everything. CI splits the same suite into lanes so the slow
# byte-granular crash matrix and the multi-writer stress runs don't
# serialise behind the fast unit tests:
#
#   verify.sh          build + the whole suite (the tier-1 gate)
#   verify.sh unit     everything except *_truncation / *_stress tests,
#                      after the request-scope guard: a request's options
#                      travel as one `OpCtx` value (DESIGN.md §7.9), so
#                      `thread_local!` may not appear in non-test code of
#                      crates/relstore/src or crates/mcs/src (the part of
#                      a file above its first `#[cfg(test)]`)
#   verify.sh crash    WAL crash-recovery matrix (*_truncation tests;
#                      the create case cuts a 17-attribute create, whose
#                      group holds two multi-row attribute INSERTs), the
#                      catalog durability tests, which pin what one
#                      create logs (three statements, under 1,300 B for
#                      ten attributes), replay a log of the older
#                      one-INSERT-per-attribute shape to the same catalog,
#                      and reopen a failed create and a checkpoint after
#                      a delete without shifting a later file's id, and
#                      the golden durability corpus (wal_golden: a v2 log,
#                      an RSSNAP01 snapshot and a v1 log written by the
#                      engine before every write was a commit group open
#                      to their pinned tables)
#   verify.sh stress   concurrent-commit stress runs (*_stress tests)
#   verify.sh async-durability
#                      the async epoch/ack contract: mixed-durability
#                      crash matrix, wait_for_epoch liveness, epoch
#                      monotonicity property test, SOAP round-trip, and
#                      the per-catalog epoch echo of a scoped write
#   verify.sh twin     the one twin harness (DESIGN.md §7.8): a seeded
#                      stream of calls drawn from the op table against
#                      the reference catalog and every configuration —
#                      4 shards, durable MVCC, caches, the planner, and
#                      SOAP and binary access paths — in five suites
#                      (shard_twin, mvcc_twin, cache_consistency,
#                      planner_twin, wire_twin)
#   verify.sh cache    the read-cache consistency contract (DESIGN.md
#                      §7.3): table-version unit tests, case-insensitive
#                      table lookup (a version probe borrows a lowercase
#                      name and copies any other), cache unit tests, the
#                      touched-tables invalidation test, and the SOAP
#                      bypass/stats round-trip
#   verify.sh shard    the sharded-catalog contract (DESIGN.md §7.4):
#                      the router's unit tests (routing, mirrors,
#                      cross-shard ops, reopening with another shard
#                      count), the two-phase membership crash matrix,
#                      the parallel loader equivalence test, the create
#                      path on 1 shard, 4 shards and durable MVCC (a
#                      create returns exactly what getFile reads back;
#                      0/1/16/17/33 attributes; a duplicate attribute
#                      fails its batch before any write, ahead of every
#                      AlreadyExists — DESIGN.md §7), the wire
#                      round-trips, including every committing write's
#                      (epoch, shard) echo, and a scope's cache and
#                      planner bypasses reaching every shard
#   verify.sh mvcc     the snapshot-read contract (DESIGN.md §7.5):
#                      relstore version-chain/snapshot/vacuum unit
#                      tests, the snapshot-isolation test, and the
#                      MVCC WAL-truncation crash matrix
#   verify.sh planner  the cost-based-planner contract (DESIGN.md
#                      §7.6): relstore planner unit tests (index dives,
#                      a dive stopped at DIVE_CAP priced at the cap),
#                      the index unit tests (tail-ordered keys
#                      read back at full width, span walks and their
#                      estimates, shared key strings, exact size hints
#                      of whole postings, wrong-width keys
#                      panic), the seeded index model tests against a
#                      plain BTreeMap (index_matches_reference_model:
#                      inline keys, one-or-many postings, tail-ordered
#                      postings and span walks with duplicate tails and
#                      MVCC-style dangling entries;
#                      tail_posting_runs_split_and_merge;
#                      plain_posting_runs_split_and_merge;
#                      tail_ordered_index_under_mvcc;
#                      wrong_width_keys_fail_loudly), the no-NULL-keys
#                      rule (DESIGN.md §6.1: the planner's
#                      index-eligibility unit test, the
#                      nullable-indexed-column SQL test on both
#                      engines, the typed value-index catalog test),
#                      the rebuild of a store's two-column typed
#                      indexes on open
#                      (old_two_column_typed_indexes_are_rebuilt_once_on_open),
#                      the LIKE matcher tests, plan construction,
#                      the run-time walk-or-probe choices (eq3 on
#                      perfbench's nested moduli walks both later steps,
#                      a one-candidate seed probes without a dive, the
#                      LIKE shape walks wl_seq), and sorted intersection,
#                      union and difference unit tests, the general boolean query unit tests
#                      (an ill-typed leaf fails as the conjunctive query
#                      fails, whatever the data and its position), the
#                      catalog against its reference model (files,
#                      attributes, conjunctive and random boolean
#                      queries, both profiles), the
#                      plan-shape regressions (folded ranges, dives
#                      bounded to the seed's id span and the candidate
#                      counts at which each step walks, dives stopped at
#                      their bound, no dives after a one-candidate seed,
#                      perfbench's LIKE shape in
#                      like_shape_walks_only_the_collections_span, edge
#                      cases), the planner twin (answers against the
#                      posting-scan oracle on 1 shard, MVCC and 4 shards,
#                      with folded ranges, stopped dives and span dives
#                      in every seed), the resolve-pass tests on both
#                      engines, the explainQuery SOAP round-trip, and two
#                      release runs on a 50 000-file perfbench-shaped
#                      catalog: the calibration that prints the probe,
#                      warm-probe, group and span-entry costs, and the
#                      per-class driver that prints the p50/p90/p99 of
#                      each discover-cold class (eq3 to eq10, range, LIKE
#                      below and above lo = 100), read cache bypassed
#   verify.sh wire     both wire contracts (DESIGN.md §7.7, §7.7.1):
#                      frame codec unit tests (an oversize frame
#                      is refused by the writer and an oversize answer
#                      becomes a server fault), the golden wire
#                      corpus (every op's exact bytes on both wires),
#                      the golden record corpus and the round-trip
#                      properties of every record type on both wires,
#                      the frame-decoder fuzz/robustness harness run 50
#                      times (green must mean deterministic), the
#                      8×200 pipelining stress test, the SOAP
#                      decoders' rejection of any boolean text but
#                      true/false, the SOAP codec's allocation ceiling
#                      (soap_alloc), and the whole of xmlkit and
#                      soapstack: the XML serialize→parse properties
#                      (entities, CDATA, the depth cap), the HTTP
#                      framing properties and the header cap, the
#                      server robustness suite (a too-deep envelope, an
#                      endless header line) and the connection-reuse
#                      regressions shared with the keep-alive client
#   verify.sh bench    the committed perf trajectory (ROADMAP item 1):
#                      builds perfbench from its own lock file, then
#                      fails on any BENCH_<n>.json where a workload's
#                      change_over_parent_median is past its bound in the
#                      wrong direction for its `better`, or where the
#                      change's failed/attempted share is above the
#                      parent's; each failure names the file, workload and
#                      metric. Needs jq. Not part of the no-argument run.
#
# Every lane step below is checked to run at least one test: a step
# whose binaries pass no test in total fails, so a filter that no longer
# names any test cannot pass silently.
#
# Every seeded test runs its default seeds, or the one in MCS_SEED.
set -eu
cd "$(dirname "$0")/.."

# Print every `thread_local!` in non-test, non-comment code of the crates
# that carry a request; fail if there is one.
thread_locals() {
  find crates/relstore/src crates/mcs/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { t = 0 }
    /^#\[cfg\(test\)\]/ { t = 1 }
    !t && !/^[[:space:]]*\/\// && /thread_local!/ { print FILENAME ":" FNR ": " $0; n++ }
    END { exit n > 0 }'
}

# Run `cargo test -q "$@"`; fail if it fails, or if its binaries pass
# no test in total.
run() {
  out=$(cargo test -q "$@" 2>&1) || { printf '%s\n' "$out" >&2; return 1; }
  printf '%s\n' "$out"
  passed=$(printf '%s\n' "$out" | awk '/^test result:/ { n += $4 } END { print n + 0 }')
  if [ "$passed" -eq 0 ]; then
    echo "verify.sh: \`cargo test -q $*\` ran no test: its filter names none." >&2
    return 1
  fi
}

lane="${1:-all}"
case "$lane" in
  all)
    cargo build --release
    cargo test -q
    ;;
  unit)
    if ! thread_locals; then
      echo "unit lane failed: request-scoped state in a thread-local (above);" >&2
      echo "carry it in relstore::OpCtx instead (DESIGN.md §7.9)." >&2
      exit 1
    fi
    cargo build --release
    cargo test -q -- --skip _truncation --skip _stress
    ;;
  crash)
    start=$(date +%s)
    run _truncation
    run -p mcs --test durability
    run -p relstore --test wal_golden
    echo "crash lane: $(($(date +%s) - start))s elapsed"
    ;;
  stress)
    start=$(date +%s)
    run _stress
    echo "stress lane: $(($(date +%s) - start))s elapsed"
    ;;
  async-durability)
    start=$(date +%s)
    if ! run -p relstore --test epoch_monotonicity --test async_epoch_liveness; then
      echo "async-durability lane failed." >&2
      echo "To replay a monotonicity failure, rerun with the seed printed above:" >&2
      echo "  MCS_SEED=<seed> cargo test -p relstore --test epoch_monotonicity -- --nocapture" >&2
      exit 1
    fi
    run -p relstore epoch
    run -p mcs --test crash_atomicity mixed_durability_epoch_contract
    run -p mcs --test request_scope scoped_write_echoes_its_own_catalogs_epoch
    run -p mcs-net --test async_durability
    echo "async-durability lane: $(($(date +%s) - start))s elapsed"
    ;;
  twin)
    start=$(date +%s)
    if ! run -p mcs-net --test shard_twin --test mvcc_twin --test cache_consistency --test planner_twin --test wire_twin; then
      echo "twin lane failed." >&2
      echo "To replay a divergence, rerun the failing suite with the seed printed above:" >&2
      echo "  MCS_SEED=<seed> cargo test -p mcs-net --test <suite> -- --nocapture" >&2
      exit 1
    fi
    echo "twin lane: $(($(date +%s) - start))s elapsed"
    ;;
  cache)
    start=$(date +%s)
    run -p relstore --lib table_version
    run -p relstore --lib table_lookup_is_case_insensitive
    run -p mcs --lib cache
    run -p mcs --test catalog_tests writes_invalidate_only_touched_tables
    run -p mcs-net --test cache_over_net
    run -p soapstack --test keep_alive
    echo "cache lane: $(($(date +%s) - start))s elapsed"
    ;;
  shard)
    start=$(date +%s)
    run -p mcs --lib shard::
    run -p mcs --test shard_crash
    run -p mcs --test request_scope bypass_scopes_reach_every_shard
    run -p workload sharded
    run -p mcs --test create_path
    run -p mcs-net --test sharded_over_net
    echo "shard lane: $(($(date +%s) - start))s elapsed"
    ;;
  mvcc)
    start=$(date +%s)
    run -p relstore --lib mvcc
    run -p relstore --lib snapshot
    run -p relstore --lib vacuum
    run -p mcs --test mvcc_truncation
    echo "mvcc lane: $(($(date +%s) - start))s elapsed"
    ;;
  planner)
    start=$(date +%s)
    run -p relstore --lib planner
    run -p relstore --lib index
    run -p relstore --test index_model
    run -p relstore --test sql_integration nullable_indexed_column
    run -p mcs --test durability old_two_column_typed_indexes
    run -p mcs --test catalog_tests typed_value_indexes
    run -p relstore --lib like
    run -p mcs --lib plan
    run -p mcs --lib general_query
    run -p mcs --test proptests catalog_matches_model
    run -p mcs --test plan_shape
    run -p mcs-net --test planner_twin
    run -p mcs --test catalog_tests resolve_pass
    run -p mcs-net --test roundtrip explain
    run --release -p mcs --lib calibrate -- --ignored --nocapture
    run --release -p mcs --lib discover_cold_classes -- --ignored --nocapture
    echo "planner lane: $(($(date +%s) - start))s elapsed"
    ;;
  wire)
    start=$(date +%s)
    run -p mcs-net --lib binproto
    run -p mcs-net --test wire_golden
    run -p mcs-net --test record_golden
    run -p mcs-net --test wire_proptests
    run -p mcs-net --test roundtrip soap_bool
    cargo test -q -p mcs-net --test bin_fuzz --no-run
    i=1
    while [ "$i" -le 50 ]; do
      if ! out=$(cargo test -q -p mcs-net --test bin_fuzz 2>&1); then
        echo "$out" >&2
        echo "wire lane failed: bin_fuzz run $i of 50 failed." >&2
        exit 1
      fi
      i=$((i + 1))
    done
    run -p mcs-net --test bin_pipeline_stress
    run -p mcs-net --test soap_alloc
    run -p xmlkit
    run -p soapstack
    echo "wire lane: $(($(date +%s) - start))s elapsed"
    ;;
  bench)
    cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
    bad=$(jq -r '
      def share: if .[1] > 0 then .[0] / .[1] else 0 end;
      .workloads | to_entries[] | .key as $w | .value as $v
      | ($v.metrics | to_entries[] | .key as $m | .value
         | select((.better == "higher" and .change_over_parent_median < 1 - .bound)
               or (.better == "lower" and .change_over_parent_median > 1 + .bound))
         | "\(input_filename): \($w) \($m): change/parent median \(.change_over_parent_median) is past its bound \(.bound) (\(.better) is better)"),
        ($v.failed_over_attempted
         | select((.change | share) > (.parent | share))
         | "\(input_filename): \($w) failed/attempted: change \(.change[0])/\(.change[1]) above parent \(.parent[0])/\(.parent[1])")
    ' BENCH_*.json)
    if [ -n "$bad" ]; then
      echo "$bad" >&2
      echo "bench lane failed: a committed BENCH_<n>.json regressed past its bound." >&2
      exit 1
    fi
    echo "bench lane: $(ls BENCH_*.json | wc -l) trajectory files within their bounds"
    ;;
  *)
    echo "usage: verify.sh [unit|crash|stress|async-durability|twin|cache|shard|mvcc|planner|wire|bench]" >&2
    exit 2
    ;;
esac
