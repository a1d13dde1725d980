//! The MCS relational schema (paper §5, detailed in the GriPhyN technical
//! report the paper cites) and its bootstrap DDL.

use std::sync::Arc;

use relstore::Database;

use crate::error::Result;

/// Index profile for the user-attribute table.
///
/// The 2003 deployment indexed names and ids but **not** attribute values —
/// which is exactly why complex queries degrade with database size
/// (Figures 7, 10, 11). The `ValueIndexed` profile adds per-type
/// value indexes, the fix §9 gestures at; the ablation bench
/// `ablate_value_index` measures the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexProfile {
    /// Indexes as deployed in the paper (names, ids, (name,id) pairs).
    #[default]
    Paper2003,
    /// Additionally index attribute values per type.
    ValueIndexed,
}

/// DDL for every catalog table.
pub const DDL: &str = "
CREATE TABLE logical_files (
    id INTEGER PRIMARY KEY AUTO_INCREMENT,
    name VARCHAR(255) NOT NULL,
    version INTEGER NOT NULL DEFAULT 1,
    data_type VARCHAR(64),
    valid BOOLEAN NOT NULL DEFAULT TRUE,
    collection_id INTEGER,
    container_id VARCHAR(128),
    container_service VARCHAR(255),
    creator VARCHAR(255) NOT NULL,
    created DATETIME NOT NULL,
    last_modifier VARCHAR(255),
    last_modified DATETIME,
    master_copy VARCHAR(255),
    audit_enabled BOOLEAN NOT NULL DEFAULT FALSE
);
CREATE UNIQUE INDEX lf_name_version ON logical_files (name, version);
CREATE INDEX lf_collection ON logical_files (collection_id);

CREATE TABLE logical_collections (
    id INTEGER PRIMARY KEY AUTO_INCREMENT,
    name VARCHAR(255) NOT NULL UNIQUE,
    description TEXT,
    parent_id INTEGER,
    creator VARCHAR(255) NOT NULL,
    created DATETIME NOT NULL,
    last_modifier VARCHAR(255),
    last_modified DATETIME,
    audit_enabled BOOLEAN NOT NULL DEFAULT FALSE
);
CREATE INDEX lc_parent ON logical_collections (parent_id);

CREATE TABLE logical_views (
    id INTEGER PRIMARY KEY AUTO_INCREMENT,
    name VARCHAR(255) NOT NULL UNIQUE,
    description TEXT,
    creator VARCHAR(255) NOT NULL,
    created DATETIME NOT NULL,
    last_modifier VARCHAR(255),
    last_modified DATETIME,
    audit_enabled BOOLEAN NOT NULL DEFAULT FALSE
);

CREATE TABLE view_members (
    id INTEGER PRIMARY KEY AUTO_INCREMENT,
    view_id INTEGER NOT NULL,
    member_type INTEGER NOT NULL,
    member_id INTEGER NOT NULL
);
CREATE UNIQUE INDEX vm_unique ON view_members (view_id, member_type, member_id);
CREATE INDEX vm_member ON view_members (member_type, member_id);

CREATE TABLE attribute_definitions (
    id INTEGER PRIMARY KEY AUTO_INCREMENT,
    name VARCHAR(64) NOT NULL UNIQUE,
    attr_type INTEGER NOT NULL,
    description TEXT,
    creator VARCHAR(255) NOT NULL,
    created DATETIME NOT NULL
);

CREATE TABLE user_attributes (
    id INTEGER PRIMARY KEY AUTO_INCREMENT,
    object_type INTEGER NOT NULL,
    object_id INTEGER NOT NULL,
    name VARCHAR(64) NOT NULL,
    attr_type INTEGER NOT NULL,
    str_value TEXT,
    int_value INTEGER,
    float_value DOUBLE,
    date_value DATE,
    time_value TIME,
    datetime_value DATETIME
);
CREATE UNIQUE INDEX ua_object ON user_attributes (object_type, object_id, name);
CREATE INDEX ua_name ON user_attributes (name);

CREATE TABLE annotations (
    id INTEGER PRIMARY KEY AUTO_INCREMENT,
    object_type INTEGER NOT NULL,
    object_id INTEGER NOT NULL,
    annotation TEXT NOT NULL,
    creator VARCHAR(255) NOT NULL,
    created DATETIME NOT NULL
);
CREATE INDEX ann_object ON annotations (object_type, object_id);

CREATE TABLE audit_log (
    id INTEGER PRIMARY KEY AUTO_INCREMENT,
    object_type INTEGER NOT NULL,
    object_id INTEGER NOT NULL,
    action VARCHAR(32) NOT NULL,
    actor VARCHAR(255) NOT NULL,
    at DATETIME NOT NULL,
    details TEXT
);
CREATE INDEX audit_object ON audit_log (object_type, object_id);

CREATE TABLE transformation_history (
    id INTEGER PRIMARY KEY AUTO_INCREMENT,
    file_id INTEGER NOT NULL,
    description TEXT NOT NULL,
    actor VARCHAR(255) NOT NULL,
    at DATETIME NOT NULL
);
CREATE INDEX hist_file ON transformation_history (file_id);

CREATE TABLE acl_entries (
    id INTEGER PRIMARY KEY AUTO_INCREMENT,
    object_type INTEGER NOT NULL,
    object_id INTEGER NOT NULL,
    principal VARCHAR(255) NOT NULL,
    permission INTEGER NOT NULL
);
CREATE UNIQUE INDEX acl_unique ON acl_entries (object_type, object_id, principal, permission);

CREATE TABLE mcs_users (
    id INTEGER PRIMARY KEY AUTO_INCREMENT,
    dn VARCHAR(255) NOT NULL UNIQUE,
    description TEXT,
    institution VARCHAR(255),
    email VARCHAR(255),
    phone VARCHAR(64)
);

CREATE TABLE external_catalogs (
    id INTEGER PRIMARY KEY AUTO_INCREMENT,
    name VARCHAR(255) NOT NULL UNIQUE,
    catalog_type VARCHAR(64) NOT NULL,
    host VARCHAR(255) NOT NULL,
    ip VARCHAR(64),
    description TEXT
);
";

/// Extra typed value indexes for [`IndexProfile::ValueIndexed`], one per
/// attribute type: `(name, <type>_value, object_type, object_id)`. The
/// last column is INTEGER, so relstore keeps each `(name, value,
/// object_type)` group's rows ordered by object id (`relstore::index`),
/// and the planner bounds a walk to its candidates' id span.
pub const VALUE_INDEX_DDL: &str = "
CREATE INDEX ua_name_str ON user_attributes (name, str_value, object_type, object_id);
CREATE INDEX ua_name_int ON user_attributes (name, int_value, object_type, object_id);
CREATE INDEX ua_name_float ON user_attributes (name, float_value, object_type, object_id);
CREATE INDEX ua_name_date ON user_attributes (name, date_value, object_type, object_id);
CREATE INDEX ua_name_time ON user_attributes (name, time_value, object_type, object_id);
CREATE INDEX ua_name_datetime ON user_attributes (name, datetime_value, object_type, object_id);
";

/// The typed value indexes [`VALUE_INDEX_DDL`] creates.
pub(crate) const VALUE_INDEXES: [&str; 6] = [
    "ua_name_str",
    "ua_name_int",
    "ua_name_float",
    "ua_name_date",
    "ua_name_time",
    "ua_name_datetime",
];

/// Create all catalog tables and indexes in `db`.
pub fn bootstrap(db: &Arc<Database>, profile: IndexProfile) -> Result<()> {
    db.execute_script(DDL)?;
    if profile == IndexProfile::ValueIndexed {
        db.execute_script(VALUE_INDEX_DDL)?;
    }
    Ok(())
}

/// Bring a store's typed value indexes to [`VALUE_INDEX_DDL`]: stores
/// made before the indexes ended in `(object_type, object_id)` declared
/// them as `(name, value)`. Each such index is dropped and created anew,
/// as logged DDL, so a durable store does this once. Returns how many
/// were rebuilt; a store without typed indexes, or with current ones, is
/// left alone.
pub(crate) fn upgrade_value_indexes(db: &Arc<Database>) -> Result<usize> {
    let stale: Vec<&str> = {
        let handle = db.table("user_attributes")?;
        let t = handle.read();
        VALUE_INDEXES
            .into_iter()
            .filter(|name| t.index(name).is_some_and(|ix| ix.def.columns.len() == 2))
            .collect()
    };
    for name in &stale {
        db.execute(&format!("DROP INDEX {name} ON user_attributes"), &[])?;
        let create = VALUE_INDEX_DDL
            .lines()
            .find(|line| line.starts_with(&format!("CREATE INDEX {name} ON")))
            .expect("every typed index has its DDL line");
        db.execute(create.trim_end_matches(';'), &[])?;
    }
    Ok(stale.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_creates_all_tables() {
        let db = Arc::new(Database::new());
        bootstrap(&db, IndexProfile::Paper2003).unwrap();
        let names = db.table_names();
        for t in [
            "logical_files",
            "logical_collections",
            "logical_views",
            "view_members",
            "attribute_definitions",
            "user_attributes",
            "annotations",
            "audit_log",
            "transformation_history",
            "acl_entries",
            "mcs_users",
            "external_catalogs",
        ] {
            assert!(names.iter().any(|n| n == t), "missing table {t}");
        }
    }

    #[test]
    fn bootstrap_value_indexed_adds_indexes() {
        let db = Arc::new(Database::new());
        bootstrap(&db, IndexProfile::ValueIndexed).unwrap();
        let t = db.table("user_attributes").unwrap();
        let t = t.read();
        assert!(t.index("ua_name_str").is_some());
        assert!(t.index("ua_name_datetime").is_some());
    }

    #[test]
    fn bootstrap_twice_fails_cleanly() {
        let db = Arc::new(Database::new());
        bootstrap(&db, IndexProfile::Paper2003).unwrap();
        assert!(bootstrap(&db, IndexProfile::Paper2003).is_err());
    }
}
