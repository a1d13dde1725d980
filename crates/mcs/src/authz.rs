//! Authentication & authorization (paper §3/§5).
//!
//! Principals are GSI-style distinguished names plus community groups
//! (the Community Authorization Service integration point). Permissions
//! attach to the service, to collections, to views, and to individual
//! files; the *effective* set on a file is the union of its own ACEs and
//! those of its collection and every ancestor collection — exactly the
//! paper's rule. Logical views never affect authorization.

use relstore::Value;

use crate::catalog::{delete_keyed, Mcs};
use crate::error::{McsError, Result};
use crate::model::*;

impl Mcs {
    pub(crate) fn insert_ace(
        &self,
        ot: ObjectType,
        id: i64,
        principal: &str,
        perm: Permission,
    ) -> Result<()> {
        self.txn(&[("acl_entries", relstore::Access::Write)], |s| {
            self.insert_ace_in(s, ot, id, principal, perm)
        })
    }

    /// Like [`Mcs::insert_ace`], but inside an open catalog transaction
    /// (the `acl_entries` table must be claimed for write).
    pub(crate) fn insert_ace_in(
        &self,
        s: &mut relstore::Session,
        ot: ObjectType,
        id: i64,
        principal: &str,
        perm: Permission,
    ) -> Result<()> {
        let row = [ot.code().into(), id.into(), principal.into(), perm.code().into()];
        match s.insert("acl_entries", [Value::Null].into_iter().chain(row).collect()) {
            // granting twice is idempotent
            Ok(_) | Err(relstore::Error::UniqueViolation { .. }) => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Grant `perm` on `object` to `principal` (a DN, a group name, or
    /// [`ANYONE`]). Requires Admin on the object (or service Admin).
    pub fn grant(
        &self,
        cred: &Credential,
        object: &ObjectRef,
        principal: &str,
        perm: Permission,
    ) -> Result<()> {
        let (ot, id, _, _) = self.resolve_ref(object)?;
        self.require_admin(cred, object)?;
        self.insert_ace(ot, id, principal, perm)
    }

    /// Revoke a previously granted permission. Requires Admin.
    pub fn revoke(
        &self,
        cred: &Credential,
        object: &ObjectRef,
        principal: &str,
        perm: Permission,
    ) -> Result<()> {
        let (ot, id, _, _) = self.resolve_ref(object)?;
        self.require_admin(cred, object)?;
        let key = [ot.code().into(), id.into(), principal.into(), perm.code().into()];
        self.txn(&[("acl_entries", relstore::Access::Write)], |s| {
            delete_keyed(s, "acl_entries", "acl_unique", &key).map(drop)
        })
    }

    /// List the ACL of an object. Requires Admin on it.
    pub fn acl(&self, cred: &Credential, object: &ObjectRef) -> Result<Vec<(String, Permission)>> {
        let (ot, id, _, _) = self.resolve_ref(object)?;
        self.require_admin(cred, object)?;
        self.acl_entries(ot, id)
    }

    /// Served from the read cache when one is enabled (stamped on the
    /// `acl_entries` write version, so grants and revokes invalidate it
    /// like any other write).
    fn acl_entries(&self, ot: ObjectType, id: i64) -> Result<Vec<(String, Permission)>> {
        use crate::cache::{CacheKey, CacheValue};
        let entry = |v| match v {
            CacheValue::Acl(aces) => Some(aces),
            _ => None,
        };
        let key = || CacheKey::Acl(ot.code(), id);
        self.cached(key, CacheValue::Acl, entry, || self.acl_entries_uncached(ot, id))
    }

    fn acl_entries_uncached(&self, ot: ObjectType, id: i64) -> Result<Vec<(String, Permission)>> {
        let rs =
            self.exec(&self.stmts.sel_acl_obj, &[ot.code().into(), id.into()])?;
        let rows = rs.rows.expect("select");
        rows.rows
            .iter()
            .map(|r| {
                Ok((
                    r[0].as_str()?.to_owned(),
                    Permission::from_code(r[1].as_int()?)
                        .ok_or_else(|| McsError::Internal("bad permission code".into()))?,
                ))
            })
            .collect()
    }

    /// Direct ACE check on one object: does any of the credential's
    /// principals hold `perm` (or Admin, which implies every permission on
    /// that object)?
    fn ace_grants(&self, cred: &Credential, ot: ObjectType, id: i64, perm: Permission) -> Result<bool> {
        let entries = self.acl_entries(ot, id)?;
        // ACE lists and principal chains are both short; scanning beats
        // building a set on this per-call hot path.
        Ok(entries.iter().any(|(who, p)| {
            (*p == perm || *p == Permission::Admin)
                && (who == ANYONE || cred.principals().any(|pr| pr == who.as_str()))
        }))
    }

    /// Is this credential a service administrator (superuser)?
    pub fn is_service_admin(&self, cred: &Credential) -> Result<bool> {
        self.ace_grants(cred, ObjectType::Service, 0, Permission::Admin)
    }

    /// Require `perm` at service level.
    pub(crate) fn require_service_perm(&self, cred: &Credential, perm: Permission) -> Result<()> {
        if self.ace_grants(cred, ObjectType::Service, 0, perm)? {
            return Ok(());
        }
        Err(McsError::PermissionDenied {
            principal: cred.dn.clone(),
            needed: perm,
            object: ObjectRef::Service,
        })
    }

    /// Require `perm` on a collection: service admin, or an ACE on the
    /// collection or any ancestor.
    pub(crate) fn require_collection_perm(
        &self,
        cred: &Credential,
        coll: &Collection,
        perm: Permission,
    ) -> Result<()> {
        // A service-level grant covers the entire contents of the service
        // (paper §3: authorization granularity "ranging from providing
        // access to the entire contents of the service to restricting
        // access on individual mappings").
        if self.ace_grants(cred, ObjectType::Service, 0, perm)? {
            return Ok(());
        }
        let mut current = Some(coll.clone());
        let mut hops = 0;
        while let Some(c) = current {
            if self.ace_grants(cred, ObjectType::Collection, c.id, perm)? {
                return Ok(());
            }
            hops += 1;
            if hops > 1000 {
                return Err(McsError::CycleDetected(format!(
                    "collection ancestry of `{}` exceeds 1000 levels",
                    coll.name
                )));
            }
            current = match c.parent_id {
                Some(pid) => Some(self.resolve_collection_by_id(pid)?),
                None => None,
            };
        }
        Err(McsError::PermissionDenied {
            principal: cred.dn.clone(),
            needed: perm,
            object: ObjectRef::Collection(coll.name.clone()),
        })
    }

    /// Require `perm` on a file: service admin, an ACE on the file, or an
    /// ACE anywhere up its collection chain (the union rule).
    pub(crate) fn require_file_perm(
        &self,
        cred: &Credential,
        file: &LogicalFile,
        perm: Permission,
    ) -> Result<()> {
        if self.ace_grants(cred, ObjectType::Service, 0, perm)? {
            return Ok(());
        }
        if self.ace_grants(cred, ObjectType::File, file.id, perm)? {
            return Ok(());
        }
        if let Some(cid) = file.collection_id {
            let c = self.resolve_collection_by_id(cid)?;
            match self.require_collection_perm(cred, &c, perm) {
                Ok(()) => return Ok(()),
                Err(McsError::PermissionDenied { .. }) => {}
                Err(other) => return Err(other),
            }
        }
        Err(McsError::PermissionDenied {
            principal: cred.dn.clone(),
            needed: perm,
            object: ObjectRef::FileVersion(file.name.clone(), file.version),
        })
    }

    /// Require `perm` on a view (views carry their own ACLs but never
    /// affect their members' authorization).
    pub(crate) fn require_view_perm(
        &self,
        cred: &Credential,
        view: &View,
        perm: Permission,
    ) -> Result<()> {
        if self.ace_grants(cred, ObjectType::Service, 0, perm)? {
            return Ok(());
        }
        if self.ace_grants(cred, ObjectType::View, view.id, perm)? {
            return Ok(());
        }
        Err(McsError::PermissionDenied {
            principal: cred.dn.clone(),
            needed: perm,
            object: ObjectRef::View(view.name.clone()),
        })
    }

    /// Require `perm` on whatever `object` refers to.
    pub(crate) fn require_ref_perm(
        &self,
        cred: &Credential,
        object: &ObjectRef,
        perm: Permission,
    ) -> Result<()> {
        match object {
            ObjectRef::File(n) => {
                let f = self.resolve_file(n)?;
                self.require_file_perm(cred, &f, perm)
            }
            ObjectRef::FileVersion(n, v) => {
                let f = self.resolve_file_version(n, *v)?;
                self.require_file_perm(cred, &f, perm)
            }
            ObjectRef::Collection(n) => {
                let c = self.resolve_collection(n)?;
                self.require_collection_perm(cred, &c, perm)
            }
            ObjectRef::View(n) => {
                let v = self.resolve_view(n)?;
                self.require_view_perm(cred, &v, perm)
            }
            ObjectRef::Service => self.require_service_perm(cred, perm),
        }
    }

    /// Require Admin on an object (service admins always pass).
    fn require_admin(&self, cred: &Credential, object: &ObjectRef) -> Result<()> {
        if self.is_service_admin(cred)? {
            return Ok(());
        }
        let (ot, id, _, _) = self.resolve_ref(object)?;
        if self.ace_grants(cred, ot, id, Permission::Admin)? {
            return Ok(());
        }
        Err(McsError::PermissionDenied {
            principal: cred.dn.clone(),
            needed: Permission::Admin,
            object: object.clone(),
        })
    }

    /// Convenience for test/bench setups: open the service to everyone
    /// (read + write + delete). Requires service Admin.
    pub fn allow_anyone(&self, cred: &Credential) -> Result<()> {
        self.require_service_perm(cred, Permission::Admin)?;
        self.txn(&[("acl_entries", relstore::Access::Write)], |s| {
            for p in [Permission::Read, Permission::Write, Permission::Delete] {
                self.insert_ace_in(s, ObjectType::Service, 0, ANYONE, p)?;
            }
            Ok(())
        })
    }
}
