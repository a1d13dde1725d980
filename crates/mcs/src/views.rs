//! Logical views: free-form, acyclic aggregations of files, collections
//! and other views (paper §5 — "loosely analogous to creating a symbolic
//! link"). Views never affect authorization of their members.

use relstore::Value;

use crate::catalog::{first_row, datetime, delete_keyed, delete_object_rows, opt_datetime, opt_text, text, Mcs};
use crate::error::{McsError, Result};
use crate::model::*;

/// Contents of a view, resolved to names.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ViewContents {
    /// Member logical files (name, version).
    pub files: Vec<(String, i64)>,
    /// Member collections, by name.
    pub collections: Vec<String>,
    /// Member views, by name.
    pub views: Vec<String>,
}

impl Mcs {
    pub(crate) fn resolve_view(&self, name: &str) -> Result<View> {
        let rs = self.exec_sql("SELECT * FROM logical_views WHERE name = ?", &[name.into()])?;
        first_row(rs, Self::view_from_row)?
            .ok_or_else(|| McsError::NotFound(ObjectRef::View(name.to_owned())))
    }

    pub(crate) fn resolve_view_by_id(&self, id: i64) -> Result<View> {
        let rs = self.exec_sql("SELECT * FROM logical_views WHERE id = ?", &[id.into()])?;
        first_row(rs, Self::view_from_row)?
            .ok_or_else(|| McsError::NotFound(ObjectRef::View(format!("#{id}"))))
    }

    fn view_from_row(row: &[Value]) -> Result<View> {
        Ok(View {
            id: row[0].as_int()?,
            name: row[1].as_str()?.to_owned(),
            description: text(&row[2]),
            creator: row[3].as_str()?.to_owned(),
            created: datetime(&row[4])?,
            last_modifier: opt_text(&row[5]),
            last_modified: opt_datetime(&row[6]),
            audit_enabled: row[7].as_bool()?,
        })
    }

    /// Create a logical view (paper API: "Creating a ... view").
    /// Requires service Write; the creator receives Write/Delete/Admin on
    /// the new view.
    pub fn create_view(&self, cred: &Credential, name: &str, description: &str) -> Result<View> {
        validate_name(name)?;
        self.require_service_perm(cred, Permission::Write)?;
        // The view row and the creator's ACEs commit together: a crash
        // cannot leave a view nobody can administer.
        let id = self.txn(
            &[("acl_entries", relstore::Access::Write), ("logical_views", relstore::Access::Write)],
            |s| {
                let res = s.execute(
                    "INSERT INTO logical_views (name, description, creator, created) \
                     VALUES (?, ?, ?, ?)",
                    &[name.into(), description.into(), cred.dn.as_str().into(), self.now()],
                );
                let res = match res {
                    Err(relstore::Error::UniqueViolation { .. }) => {
                        return Err(McsError::AlreadyExists(name.to_owned()))
                    }
                    other => other?,
                };
                let id =
                    res.last_insert_id.ok_or_else(|| McsError::Internal("no insert id".into()))?;
                for p in
                    [Permission::Read, Permission::Write, Permission::Delete, Permission::Admin]
                {
                    self.insert_ace_in(s, ObjectType::View, id, &cred.dn, p)?;
                }
                Ok(id)
            },
        )?;
        self.resolve_view_by_id(id)
    }

    /// Delete a view (its membership records, not its members).
    pub fn delete_view(&self, cred: &Credential, name: &str) -> Result<()> {
        let v = self.resolve_view(name)?;
        self.require_view_perm(cred, &v, Permission::Delete)?;
        self.txn(
            &[
                ("acl_entries", relstore::Access::Write),
                ("annotations", relstore::Access::Write),
                ("audit_log", relstore::Access::Write),
                ("logical_views", relstore::Access::Write),
                ("user_attributes", relstore::Access::Write),
                ("view_members", relstore::Access::Write),
            ],
            |s| {
                if v.audit_enabled {
                    self.audit_action_in(s, ObjectType::View, v.id, "delete", cred, &v.name)?;
                }
                delete_keyed(s, "logical_views", "pk_logical_views", &[v.id.into()])?;
                delete_keyed(s, "view_members", "vm_unique", &[v.id.into()])?;
                // and its memberships in other views
                delete_object_rows(s, ObjectType::View, v.id)
            },
        )
    }

    /// Fetch a view's record.
    pub fn get_view(&self, cred: &Credential, name: &str) -> Result<View> {
        let v = self.resolve_view(name)?;
        self.require_view_perm(cred, &v, Permission::Read)?;
        Ok(v)
    }

    /// Add a member to a view (paper API: "Adding logical objects to a
    /// view"). Rejects duplicate membership and any addition that would
    /// make view containment cyclic. Requires Write on the view and Read
    /// on the member.
    pub fn add_to_view(&self, cred: &Credential, view: &str, member: &ObjectRef) -> Result<()> {
        let v = self.resolve_view(view)?;
        self.require_view_perm(cred, &v, Permission::Write)?;
        self.require_ref_perm(cred, member, Permission::Read)?;
        let (mt, mid, _, mname) = self.resolve_ref(member)?;
        if mt == ObjectType::Service {
            return Err(McsError::Internal("the service cannot be a view member".into()));
        }
        // The cycle check runs inside the transaction (view_members is
        // claimed for write, and reads on claimed tables are re-entrant),
        // so a concurrent membership edit cannot race it into a cycle.
        self.txn(
            &[("audit_log", relstore::Access::Write), ("view_members", relstore::Access::Write)],
            |s| {
                if mt == ObjectType::View {
                    // would `v` become reachable from `member`? (DFS over
                    // view containment)
                    if mid == v.id || self.view_reaches(mid, v.id)? {
                        return Err(McsError::CycleDetected(format!(
                            "adding view `{mname}` to `{view}` would create a cycle"
                        )));
                    }
                }
                match s.execute(
                    "INSERT INTO view_members (view_id, member_type, member_id) \
                     VALUES (?, ?, ?)",
                    &[v.id.into(), mt.code().into(), mid.into()],
                ) {
                    Ok(_) => {}
                    Err(relstore::Error::UniqueViolation { .. }) => {
                        return Err(McsError::AlreadyExists(format!("{mname} in view {view}")))
                    }
                    Err(e) => return Err(e.into()),
                }
                if v.audit_enabled {
                    self.audit_action_in(s, ObjectType::View, v.id, "add_member", cred, &mname)?;
                }
                Ok(())
            },
        )
    }

    /// Remove a member from a view. Returns true if it was a member.
    pub fn remove_from_view(
        &self,
        cred: &Credential,
        view: &str,
        member: &ObjectRef,
    ) -> Result<bool> {
        let v = self.resolve_view(view)?;
        self.require_view_perm(cred, &v, Permission::Write)?;
        let (mt, mid, _, _) = self.resolve_ref(member)?;
        let key = [v.id.into(), mt.code().into(), mid.into()];
        self.txn(&[("view_members", relstore::Access::Write)], |s| {
            Ok(delete_keyed(s, "view_members", "vm_unique", &key)? > 0)
        })
    }

    /// Raw member list of a view.
    pub(crate) fn view_members(&self, view_id: i64) -> Result<Vec<ViewMember>> {
        let rs = self.exec_sql(
            "SELECT member_type, member_id FROM view_members WHERE view_id = ?",
            &[view_id.into()],
        )?;
        let rows = rs.rows.expect("select");
        rows.rows
            .iter()
            .map(|r| {
                Ok(ViewMember {
                    member_type: ObjectType::from_code(r[0].as_int()?)
                        .ok_or_else(|| McsError::Internal("bad member_type".into()))?,
                    member_id: r[1].as_int()?,
                })
            })
            .collect()
    }

    /// Is `target` reachable from `start` through view containment?
    fn view_reaches(&self, start: i64, target: i64) -> Result<bool> {
        let mut stack = vec![start];
        let mut seen = std::collections::HashSet::new();
        while let Some(v) = stack.pop() {
            if v == target {
                return Ok(true);
            }
            if !seen.insert(v) {
                continue;
            }
            for m in self.view_members(v)? {
                if m.member_type == ObjectType::View {
                    stack.push(m.member_id);
                }
            }
        }
        Ok(false)
    }

    /// List a view's contents resolved to names (paper API: "Querying the
    /// contents of a logical view"). Requires Read on the view.
    pub fn list_view(&self, cred: &Credential, name: &str) -> Result<ViewContents> {
        let v = self.resolve_view(name)?;
        self.require_view_perm(cred, &v, Permission::Read)?;
        if v.audit_enabled {
            self.audit_action(ObjectType::View, v.id, "list", cred, &v.name)?;
        }
        let mut out = ViewContents::default();
        for m in self.view_members(v.id)? {
            match m.member_type {
                ObjectType::File => {
                    let f = self.resolve_file_by_id(m.member_id)?;
                    out.files.push((f.name, f.version));
                }
                ObjectType::Collection => {
                    out.collections.push(self.resolve_collection_by_id(m.member_id)?.name);
                }
                ObjectType::View => {
                    out.views.push(self.resolve_view_by_id(m.member_id)?.name);
                }
                ObjectType::Service => {}
            }
        }
        out.files.sort();
        out.collections.sort();
        out.views.sort();
        Ok(out)
    }
}
