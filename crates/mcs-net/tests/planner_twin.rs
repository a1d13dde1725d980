//! The cost-based planner, on 1 shard, under MVCC and on 4 shards, answers like the posting-scan
//! reference. Each seed must also plan at least one folded range and one dive stopped at its
//! bound, counted from `explain_query` lines.
//! The harness and its reference are in `twin/mod.rs` (DESIGN.md §7.8).

mod twin;

#[test]
fn planner_equals_posting_scan_oracle() {
    twin::run("planner_twin");
}
