//! Audit metadata (paper §5): creation information plus a log of accesses
//! to audited objects, recording the user identity and the action.

use relstore::Value;

use crate::catalog::{datetime, text, Mcs};
use crate::error::{McsError, Result};
use crate::model::*;

impl Mcs {
    /// Append an audit record. Called internally whenever an audited
    /// object is touched by a read path; write paths use
    /// [`Mcs::audit_action_in`] so the audit row commits atomically with
    /// the operation it records.
    pub(crate) fn audit_action(
        &self,
        ot: ObjectType,
        id: i64,
        action: &str,
        cred: &Credential,
        details: &str,
    ) -> Result<()> {
        self.txn(&[("audit_log", relstore::Access::Write)], |s| {
            self.audit_action_in(s, ot, id, action, cred, details)
        })
    }

    /// Append an audit record inside an open catalog transaction (the
    /// `audit_log` table must be claimed for write).
    pub(crate) fn audit_action_in(
        &self,
        s: &mut relstore::Session,
        ot: ObjectType,
        id: i64,
        action: &str,
        cred: &Credential,
        details: &str,
    ) -> Result<()> {
        let row = vec![
            Value::Null,
            ot.code().into(),
            id.into(),
            action.into(),
            cred.dn.as_str().into(),
            self.now(),
            details.into(),
        ];
        s.insert("audit_log", row)?;
        Ok(())
    }

    /// Fetch the audit trail of an object, oldest first. Requires Read.
    pub fn get_audit_trail(
        &self,
        cred: &Credential,
        object: &ObjectRef,
    ) -> Result<Vec<AuditRecord>> {
        let (ot, id, _, _) = self.resolve_ref(object)?;
        self.require_ref_perm(cred, object, Permission::Read)?;
        let rs = self.exec_sql(
            "SELECT action, actor, at, details FROM audit_log \
             WHERE object_type = ? AND object_id = ? ORDER BY id",
            &[ot.code().into(), id.into()],
        )?;
        rs.rows
            .expect("select")
            .rows
            .iter()
            .map(|r| {
                Ok(AuditRecord {
                    object_type: ot,
                    object_id: id,
                    action: r[0].as_str()?.to_owned(),
                    actor: r[1].as_str()?.to_owned(),
                    at: datetime(&r[2])?,
                    details: text(&r[3]),
                })
            })
            .collect()
    }

    /// Enable or disable per-access auditing on an object. Requires Admin.
    pub fn set_audit(&self, cred: &Credential, object: &ObjectRef, enabled: bool) -> Result<()> {
        let (ot, id, _, _) = self.resolve_ref(object)?;
        self.require_ref_perm(cred, object, Permission::Admin)?;
        let table = match ot {
            ObjectType::File => "logical_files",
            ObjectType::Collection => "logical_collections",
            ObjectType::View => "logical_views",
            ObjectType::Service => {
                return Err(McsError::Internal("service has no audit flag".into()))
            }
        };
        self.exec_sql(
            &format!("UPDATE {table} SET audit_enabled = ? WHERE id = ?"),
            &[enabled.into(), id.into()],
        )?;
        Ok(())
    }
}
