//! Creation & transformation history — the paper's provenance record: a
//! textual description of how a data item was created and subsequently
//! transformed, usable to decide whether to recreate a lost data set.

use relstore::Value;

use crate::catalog::{datetime, Mcs};
use crate::error::Result;
use crate::model::*;

impl Mcs {
    /// Append a transformation record to a file's history. Requires Write.
    pub fn add_history(&self, cred: &Credential, file: &str, description: &str) -> Result<()> {
        let f = self.resolve_file(file)?;
        self.require_file_perm(cred, &f, Permission::Write)?;
        self.txn(
            &[
                ("audit_log", relstore::Access::Write),
                ("transformation_history", relstore::Access::Write),
            ],
            |s| {
                let row = [f.id.into(), description.into(), cred.dn.as_str().into(), self.now()];
                s.insert("transformation_history", [Value::Null].into_iter().chain(row).collect())?;
                if f.audit_enabled {
                    self.audit_action_in(s, ObjectType::File, f.id, "add_history", cred, &f.name)?;
                }
                Ok(())
            },
        )
    }

    /// Fetch a file's transformation history, oldest first. Requires Read.
    pub fn get_history(&self, cred: &Credential, file: &str) -> Result<Vec<HistoryRecord>> {
        let f = self.resolve_file(file)?;
        self.require_file_perm(cred, &f, Permission::Read)?;
        let rs = self.exec_sql(
            "SELECT description, actor, at FROM transformation_history \
             WHERE file_id = ? ORDER BY id",
            &[f.id.into()],
        )?;
        rs.rows
            .expect("select")
            .rows
            .iter()
            .map(|r| {
                Ok(HistoryRecord {
                    file_id: f.id,
                    description: r[0].as_str()?.to_owned(),
                    actor: r[1].as_str()?.to_owned(),
                    at: datetime(&r[2])?,
                })
            })
            .collect()
    }
}
