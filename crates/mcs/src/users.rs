//! Registered metadata writers (paper §5 "User metadata": distinguished
//! name, description, institution, contact information).

use relstore::Value;

use crate::catalog::Mcs;
use crate::error::{McsError, Result};
use crate::model::*;

impl Mcs {
    /// Register (or update) a metadata writer. Requires service Write.
    pub fn register_user(&self, cred: &Credential, user: &UserRecord) -> Result<()> {
        self.require_service_perm(cred, Permission::Write)?;
        let exists = self
            .db
            .query("SELECT id FROM mcs_users WHERE dn = ?", &[user.dn.as_str().into()])?
            .rows
            .first()
            .map(|r| r[0].clone());
        match exists {
            Some(id) => {
                self.exec_sql(
                    "UPDATE mcs_users SET description = ?, institution = ?, email = ?, \
                     phone = ? WHERE id = ?",
                    &[
                        user.description.as_str().into(),
                        user.institution.as_str().into(),
                        user.email.as_str().into(),
                        user.phone.as_str().into(),
                        id,
                    ],
                )?;
            }
            None => {
                self.exec_sql(
                    "INSERT INTO mcs_users (dn, description, institution, email, phone) \
                     VALUES (?, ?, ?, ?, ?)",
                    &[
                        user.dn.as_str().into(),
                        user.description.as_str().into(),
                        user.institution.as_str().into(),
                        user.email.as_str().into(),
                        user.phone.as_str().into(),
                    ],
                )?;
            }
        }
        Ok(())
    }

    /// Look up a writer by DN.
    pub fn get_user(&self, cred: &Credential, dn: &str) -> Result<UserRecord> {
        self.require_service_perm(cred, Permission::Read)?;
        let rs = self.query_sql(
            "SELECT dn, description, institution, email, phone FROM mcs_users WHERE dn = ?",
            &[dn.into()],
        )?;
        rs.rows
            .first()
            .map(user_from_row)
            .transpose()?
            .ok_or_else(|| McsError::NotFound(ObjectRef::File(format!("user {dn}"))))
    }

    /// All registered writers, by DN.
    pub fn list_users(&self, cred: &Credential) -> Result<Vec<UserRecord>> {
        self.require_service_perm(cred, Permission::Read)?;
        let rs = self.query_sql(
            "SELECT dn, description, institution, email, phone FROM mcs_users ORDER BY dn",
            &[],
        )?;
        rs.rows.iter().map(user_from_row).collect()
    }
}

fn user_from_row(r: &Vec<Value>) -> Result<UserRecord> {
    let s = |v: &Value| -> String {
        match v {
            Value::Str(s) => s.to_string(),
            _ => String::new(),
        }
    };
    Ok(UserRecord {
        dn: r[0].as_str()?.to_owned(),
        description: s(&r[1]),
        institution: s(&r[2]),
        email: s(&r[3]),
        phone: s(&r[4]),
    })
}
