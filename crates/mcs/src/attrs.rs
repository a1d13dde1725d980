//! User-defined attributes: definitions (the extensible schema of paper
//! §5) and attribute values on files, collections and views.
//!
//! Values are stored EAV-style in the `user_attributes` table with one
//! typed column per attribute type, matching the MCS/MySQL design. Under
//! [`crate::schema::IndexProfile::Paper2003`] only the attribute *name*
//! is indexed — value predicates scan the name's posting list, which is
//! what makes complex queries scale with database size (Figures 7/10/11).

use std::collections::BTreeMap;
use std::sync::Arc;

use relstore::{RowId, Value};

use crate::catalog::{delete_keyed, text, Mcs};
use crate::error::{McsError, Result};
use crate::model::*;

/// The attribute definitions as of one write version of the
/// `attribute_definitions` table. Every catalog keeps one
/// ([`Mcs::attr_defs`]) and reads it again only when the table's version
/// has moved, the validation the read cache uses (DESIGN.md §7.3), so a
/// create or a query type-checks its attributes without a statement.
#[derive(Debug, Default)]
pub(crate) struct AttrDefs {
    /// The table version the map was read at; 0, which no existing table
    /// has, before the first read.
    version: u64,
    by_name: BTreeMap<String, AttributeDefinition>,
}

impl AttrDefs {
    /// The defined type of attribute `name`; an undefined name is a
    /// [`McsError::BadAttribute`].
    pub(crate) fn type_of(&self, name: &str) -> Result<AttrType> {
        self.by_name
            .get(name)
            .map(|d| d.attr_type)
            .ok_or_else(|| McsError::BadAttribute(format!("`{name}` is not defined")))
    }
}

impl AttrType {
    /// Column position of this type's value column in a full
    /// `user_attributes` row (schema order).
    pub(crate) fn full_row_column(self) -> usize {
        match self {
            AttrType::Str => 5,
            AttrType::Int => 6,
            AttrType::Float => 7,
            AttrType::Date => 8,
            AttrType::Time => 9,
            AttrType::DateTime => 10,
        }
    }
}

impl Mcs {
    /// Register a user-defined attribute (name + type). Re-registering
    /// with the same type is idempotent; with a different type it is an
    /// error. Requires service Write.
    pub fn define_attribute(
        &self,
        cred: &Credential,
        name: &str,
        attr_type: AttrType,
        description: &str,
    ) -> Result<AttributeDefinition> {
        validate_name(name)?;
        self.require_service_perm(cred, Permission::Write)?;
        if let Some(existing) = self.attribute_definition(name)? {
            if existing.attr_type != attr_type {
                return Err(McsError::BadAttribute(format!(
                    "`{name}` already defined as {:?}",
                    existing.attr_type
                )));
            }
            return Ok(existing);
        }
        self.exec_sql(
            "INSERT INTO attribute_definitions (name, attr_type, description, creator, created) \
             VALUES (?, ?, ?, ?, ?)",
            &[
                name.into(),
                attr_type.code().into(),
                description.into(),
                cred.dn.as_str().into(),
                self.now(),
            ],
        )?;
        Ok(AttributeDefinition {
            name: name.to_owned(),
            attr_type,
            description: description.to_owned(),
        })
    }

    /// The attribute definitions as the table holds them now: this
    /// catalog's map, read again from the table when the table's write
    /// version has moved since the map was read. The version is taken
    /// before the read, so a define that commits during it leaves the
    /// map stale, never wrong.
    pub(crate) fn attr_defs(&self) -> Result<Arc<AttrDefs>> {
        let version = self.db.table_version("attribute_definitions");
        let held = Arc::clone(&self.defs.read());
        if held.version == version {
            return Ok(held);
        }
        let by_name = self.db.read_table(None, "attribute_definitions", |t, at| {
            (0..t.slot_count() as u64)
                .filter_map(|i| relstore::snapshot_row(t, RowId(i), at))
                .map(|r| {
                    // layout: id, name, attr_type, description, creator, created
                    let d = AttributeDefinition {
                        name: r[1].as_str()?.to_owned(),
                        attr_type: AttrType::from_code(r[2].as_int()?)
                            .ok_or_else(|| McsError::Internal("bad attr_type code".into()))?,
                        description: text(&r[3]),
                    };
                    Ok((d.name.clone(), d))
                })
                .collect::<Result<BTreeMap<_, _>>>()
        })??;
        let fresh = Arc::new(AttrDefs { version, by_name });
        let mut slot = self.defs.write();
        if slot.version < version {
            *slot = Arc::clone(&fresh);
        }
        Ok(fresh)
    }

    /// Look up an attribute definition.
    pub fn attribute_definition(&self, name: &str) -> Result<Option<AttributeDefinition>> {
        Ok(self.attr_defs()?.by_name.get(name).cloned())
    }

    /// All attribute definitions, sorted by name.
    pub fn attribute_definitions(&self) -> Result<Vec<AttributeDefinition>> {
        Ok(self.attr_defs()?.by_name.values().cloned().collect())
    }

    /// The defined type of attribute `name`; an undefined name is a
    /// [`McsError::BadAttribute`].
    pub(crate) fn defined_type(&self, name: &str) -> Result<AttrType> {
        self.attr_defs()?.type_of(name)
    }

    /// Resolve an [`ObjectRef`] to its type/id/audit flag/name.
    pub(crate) fn resolve_ref(&self, r: &ObjectRef) -> Result<(ObjectType, i64, bool, String)> {
        Ok(match r {
            ObjectRef::File(n) => {
                let f = self.resolve_file(n)?;
                (ObjectType::File, f.id, f.audit_enabled, f.name)
            }
            ObjectRef::FileVersion(n, v) => {
                let f = self.resolve_file_version(n, *v)?;
                (ObjectType::File, f.id, f.audit_enabled, f.name)
            }
            ObjectRef::Collection(n) => {
                let c = self.resolve_collection(n)?;
                (ObjectType::Collection, c.id, c.audit_enabled, c.name)
            }
            ObjectRef::View(n) => {
                let v = self.resolve_view(n)?;
                (ObjectType::View, v.id, v.audit_enabled, v.name)
            }
            ObjectRef::Service => (ObjectType::Service, 0, false, "service".to_owned()),
        })
    }

    /// Set (upsert) a user-defined attribute on an object (paper API:
    /// "Modifying the attributes of a logical object"). Requires Write.
    pub fn set_attribute(
        &self,
        cred: &Credential,
        object: &ObjectRef,
        attr: &Attribute,
    ) -> Result<()> {
        let (ot, id, audit, name) = self.resolve_ref(object)?;
        if ot == ObjectType::Service {
            return Err(McsError::BadAttribute("cannot attach attributes to the service".into()));
        }
        self.require_ref_perm(cred, object, Permission::Write)?;
        let vals = attr_row(attr.name.as_str().into(), self.defined_type(&attr.name)?, attr)?;
        // Upsert = delete + insert: atomic, so a crash can't lose the old
        // value without having written the new one.
        self.txn(
            &[("audit_log", relstore::Access::Write), ("user_attributes", relstore::Access::Write)],
            |s| {
                let key = [ot.code().into(), id.into(), attr.name.as_str().into()];
                delete_keyed(s, "user_attributes", "ua_object", &key)?;
                s.insert("user_attributes", object_attr_row(ot, id, vals))?;
                if audit {
                    self.audit_action_in(
                        s,
                        ot,
                        id,
                        "set_attribute",
                        cred,
                        &format!("{name}:{}", attr.name),
                    )?;
                }
                Ok(())
            },
        )
    }

    /// Remove a user-defined attribute from an object. Requires Write.
    /// Returns true if the attribute was present.
    pub fn remove_attribute(
        &self,
        cred: &Credential,
        object: &ObjectRef,
        attr_name: &str,
    ) -> Result<bool> {
        let (ot, id, audit, name) = self.resolve_ref(object)?;
        self.require_ref_perm(cred, object, Permission::Write)?;
        self.txn(
            &[("audit_log", relstore::Access::Write), ("user_attributes", relstore::Access::Write)],
            |s| {
                let key = [ot.code().into(), id.into(), attr_name.into()];
                let removed = delete_keyed(s, "user_attributes", "ua_object", &key)? > 0;
                if audit && removed {
                    self.audit_action_in(
                        s,
                        ot,
                        id,
                        "remove_attribute",
                        cred,
                        &format!("{name}:{attr_name}"),
                    )?;
                }
                Ok(removed)
            },
        )
    }

    /// Fetch all user-defined attributes of an object, sorted by name
    /// (paper API: "Querying the user defined attributes of a logical
    /// object"). Requires Read.
    pub fn get_attributes(&self, cred: &Credential, object: &ObjectRef) -> Result<Vec<Attribute>> {
        let (ot, id, audit, name) = self.resolve_ref(object)?;
        self.require_ref_perm(cred, object, Permission::Read)?;
        if audit {
            self.audit_action(ot, id, "query_attributes", cred, &name)?;
        }
        let rs =
            self.exec(&self.stmts.sel_attrs_obj, &[ot.code().into(), id.into()])?;
        let rows = rs.rows.expect("select");
        rows.rows
            .iter()
            .map(|r| {
                // layout: name, attr_type, str, int, float, date, time,
                // datetime: full-row columns 3..=10
                let ty = AttrType::from_code(r[1].as_int()?)
                    .ok_or_else(|| McsError::Internal("bad attr_type code".into()))?;
                let value = r[ty.full_row_column() - 3].clone();
                Ok(Attribute { name: r[0].as_str()?.to_owned(), value })
            })
            .collect()
    }

    /// Fetch one attribute of an object, if present.
    pub fn get_attribute(
        &self,
        cred: &Credential,
        object: &ObjectRef,
        attr_name: &str,
    ) -> Result<Option<Attribute>> {
        Ok(self
            .get_attributes(cred, object)?
            .into_iter()
            .find(|a| a.name == attr_name))
    }
}

/// A full `user_attributes` row of object `(ot, id)` from the columns
/// [`attr_row`] builds, its id left to AUTO_INCREMENT.
pub(crate) fn object_attr_row(ot: ObjectType, id: i64, cols: [Value; 8]) -> Vec<Value> {
    let mut row = Vec::with_capacity(11);
    row.extend([Value::Null, ot.code().into(), id.into()]);
    row.extend(cols);
    row
}

/// Type-check `attr` against its defined type `def` and build its
/// `user_attributes` columns after the object's: `[name, attr_type,
/// str, int, float, date, time, datetime]`, with `name` as the name
/// column (callers that insert many rows of one name share one value).
pub(crate) fn attr_row(name: Value, def: AttrType, attr: &Attribute) -> Result<[Value; 8]> {
    let given = AttrType::of_value(&attr.value)
        .ok_or_else(|| McsError::BadAttribute(format!("`{}`: unsupported value", attr.name)))?;
    // Int widens to Float, like the storage layer.
    let (ty, value) = match (given, def) {
        (AttrType::Int, AttrType::Float) => {
            (AttrType::Float, Value::Float(attr.value.as_int()? as f64))
        }
        (g, d) if g == d => (d, attr.value.clone()),
        (g, d) => {
            return Err(McsError::BadAttribute(format!("`{}` is {d:?}, got {g:?}", attr.name)))
        }
    };
    let mut row: [Value; 8] = [
        name,
        ty.code().into(),
        Value::Null,
        Value::Null,
        Value::Null,
        Value::Null,
        Value::Null,
        Value::Null,
    ];
    // full-row columns 5..=10 (str..datetime) sit at 2..=7 here
    row[ty.full_row_column() - 3] = value;
    Ok(row)
}
