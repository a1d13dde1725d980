//! A catalog hash-partitioned over 4 shards answers like the single-shard reference.
//! The harness and its reference are in `twin/mod.rs` (DESIGN.md §7.8).

mod twin;

#[test]
fn sharded_catalog_equals_single_shard_twin() {
    twin::run("shard_twin");
}
