//! Registered metadata writers (paper §5 "User metadata": distinguished
//! name, description, institution, contact information).

use relstore::{Access, Value};

use crate::catalog::{text, Mcs};
use crate::error::{McsError, Result};
use crate::model::*;

impl Mcs {
    /// Register (or update) a metadata writer. Requires service Write.
    pub fn register_user(&self, cred: &Credential, user: &UserRecord) -> Result<()> {
        self.require_service_perm(cred, Permission::Write)?;
        let cols = [
            ("description", user.description.as_str().into()),
            ("institution", user.institution.as_str().into()),
            ("email", user.email.as_str().into()),
            ("phone", user.phone.as_str().into()),
        ];
        self.txn(&[("mcs_users", Access::Write)], |s| {
            match s.lookup("mcs_users", "uq_mcs_users_dn", &[user.dn.as_str().into()])?.first() {
                Some(&id) => s.update("mcs_users", id, &cols)?,
                None => {
                    let head = [Value::Null, user.dn.as_str().into()];
                    s.insert("mcs_users", head.into_iter().chain(cols.map(|(_, v)| v)).collect())?;
                }
            }
            Ok(())
        })
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
    Ok(UserRecord {
        dn: r[0].as_str()?.to_owned(),
        description: text(&r[1]),
        institution: text(&r[2]),
        email: text(&r[3]),
        phone: text(&r[4]),
    })
}
