//! A durable MVCC catalog, vacuumed mid-run, answers like the barrier-engine reference.
//! The harness and its reference are in `twin/mod.rs` (DESIGN.md §7.8).

mod twin;

#[test]
fn mvcc_catalog_equals_barrier_twin() {
    twin::run("mvcc_twin");
}
