//! # mcs — the Metadata Catalog Service
//!
//! A from-scratch Rust reproduction of the system described in
//! *"A Metadata Catalog Service for Data Intensive Applications"*
//! (Singh, Bharathi, Chervenak, Deelman, Kesselman, Manohar, Patil,
//! Pearlman — SC'03).
//!
//! The catalog stores *logical* (descriptive) metadata — never physical
//! locations, which belong to a Replica Location Service — and supports:
//!
//! * the paper's data model: logical files (with versions), logical
//!   collections (an acyclic tree, each file in at most one collection),
//!   and logical views (free acyclic aggregations that never affect
//!   authorization);
//! * the predefined domain-independent schema plus user-defined attribute
//!   definitions (string/int/float/date/time/datetime) for
//!   application-specific ontologies;
//! * attribute-based discovery queries, annotations, audit trails,
//!   creation/transformation history, container and master-copy
//!   attributes, external catalog pointers, and registered writers;
//! * GSI-style DN authentication with ACLs whose effective permissions
//!   union up the collection hierarchy.
//!
//! ```
//! use mcs::{Mcs, Credential, FileSpec, AttrType, AttrPredicate};
//!
//! let admin = Credential::new("/O=Grid/CN=admin");
//! let catalog = Mcs::new(&admin).unwrap();
//! catalog.define_attribute(&admin, "frequency_band", AttrType::Str, "LIGO band").unwrap();
//! catalog.create_file(&admin,
//!     &FileSpec::named("run_H1_0042.gwf").attr("frequency_band", "H1")).unwrap();
//! let hits = catalog.query_by_attributes(&admin,
//!     &[AttrPredicate::eq("frequency_band", "H1")]).unwrap();
//! assert_eq!(hits, vec![("run_H1_0042.gwf".to_string(), 1)]);
//! ```

#![warn(missing_docs)]

pub mod annotations;
pub mod attrs;
pub mod audit;
pub mod authz;
pub mod cache;
pub mod cas;
pub mod catalog;
pub mod clock;
pub mod error;
pub mod general_query;
pub mod history;
pub mod model;
pub mod plan;
pub mod query;
pub mod replication;
pub mod schema;
pub mod shard;
pub mod users;
pub mod views;
pub mod xmlshred;

mod external;

pub use cas::{CasAssertion, CommunityAuthorizationService};
pub use cache::{CacheConfig, CacheStats};
pub use catalog::{FileUpdate, Mcs, StoreConfig};
pub use clock::{Clock, ManualClock, SystemClock};
pub use error::{McsError, Result};
pub use model::{
    Annotation, AttrOp, AttrPredicate, AttrType, Attribute, AttributeDefinition, AuditRecord,
    Collection, Credential, ExternalCatalog, FileSpec, HistoryRecord, LogicalFile, ObjectRef,
    ObjectType, Permission, UserRecord, View, ViewMember, ANYONE,
};
pub use general_query::{QueryExpr, StaticPredicate};
pub use query::CollectionContents;
pub use replication::{ReplicatedMcs, WriteOp};
pub use shard::{shard_of_name, Outcome, ShardedCatalog};
pub use relstore::{Durability, OpCtx, SyncPolicy};
pub use schema::IndexProfile;
pub use views::ViewContents;
