//! # relstore — an embedded relational storage engine
//!
//! `relstore` is the database substrate of this reproduction of
//! *"A Metadata Catalog Service for Data Intensive Applications"* (SC'03).
//! The original MCS stored its catalog in MySQL 4.1; `relstore` plays that
//! role: typed columns, B-tree indexes, an access-path planner, a SQL
//! subset (CREATE TABLE/INDEX, INSERT, SELECT with inner joins, UPDATE,
//! DELETE, ORDER BY/LIMIT, aggregates), prepared statements, and sessions
//! with undo-based transactions.
//!
//! Concurrency follows the MyISAM model the MCS actually ran on:
//! table-level reader-writer locks, per-statement isolation.
//!
//! ```
//! use relstore::{Database, Value};
//! use std::sync::Arc;
//!
//! let db = Arc::new(Database::new());
//! db.execute_script(
//!     "CREATE TABLE logical_files (
//!          id INTEGER PRIMARY KEY AUTO_INCREMENT,
//!          name VARCHAR(255) NOT NULL,
//!          valid BOOLEAN DEFAULT TRUE);
//!      CREATE UNIQUE INDEX lf_name ON logical_files (name);",
//! ).unwrap();
//! db.execute("INSERT INTO logical_files (name) VALUES (?)",
//!            &[Value::from("run_H1_0042.gwf")]).unwrap();
//! let rs = db.query("SELECT id FROM logical_files WHERE name = ?",
//!                   &[Value::from("run_H1_0042.gwf")]).unwrap();
//! assert_eq!(rs.rows.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod db;
pub mod epoch;
pub mod error;
pub mod executor;
pub mod group_commit;
pub mod index;
pub mod lock;
pub mod mvcc;
pub mod planner;
pub mod predicate;
pub mod row;
pub mod schema;
pub mod sql;
pub mod table;
pub mod txn;
pub mod value;
pub mod wal;

pub use db::{snapshot_row, Database, Durability, OpCtx, Prepared, Session, Stats};
pub use error::{Error, Result};
pub use executor::{ExecResult, ResultSet};
pub use index::{Index, IndexDef, IndexKey};
pub use lock::Access;
pub use mvcc::{MvccState, SnapshotPin};
pub use predicate::{CmpOp, Expr};
pub use row::{Row, RowId, StoredRow};
pub use schema::{ColumnDef, TableSchema};
pub use table::Table;
pub use value::{Date, DateTime, Time, Value, ValueType};
pub use wal::{SyncPolicy, WalStats};
