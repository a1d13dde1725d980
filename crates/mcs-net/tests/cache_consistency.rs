//! Cached catalogs (the default cache, and a tiny one under both index profiles) answer like the
//! uncached reference.
//! The harness and its reference are in `twin/mod.rs` (DESIGN.md §7.8).

mod twin;

#[test]
fn cached_catalog_equals_uncached_twin() {
    twin::run("cache_consistency");
}
