//! SOAP and the binary wire answer exactly like the in-process path of the same configuration (4
//! shards, durable MVCC, default cache), and like the reference.
//! The harness and its reference are in `twin/mod.rs` (DESIGN.md §7.8).

mod twin;

#[test]
fn binary_protocol_equals_soap() {
    twin::run("wire_twin");
}
