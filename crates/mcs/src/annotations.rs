//! Annotations: free-text observations community members attach to
//! published data (paper §2 "Publication" and §5 "Annotation attributes").

use relstore::Value;

use crate::catalog::{datetime, Mcs};
use crate::error::{McsError, Result};
use crate::model::*;

impl Mcs {
    /// Attach an annotation to an object (paper API: "Annotating a
    /// logical object"). Requires Read on the object — annotating is how
    /// the community layers its own observations on published data it can
    /// see, without needing write access to the publisher's metadata.
    pub fn annotate(&self, cred: &Credential, object: &ObjectRef, text: &str) -> Result<()> {
        let (ot, id, audit, name) = self.resolve_ref(object)?;
        if ot == ObjectType::Service {
            return Err(McsError::Internal("cannot annotate the service".into()));
        }
        self.require_ref_perm(cred, object, Permission::Read)?;
        self.txn(
            &[("annotations", relstore::Access::Write), ("audit_log", relstore::Access::Write)],
            |s| {
                let row = vec![
                    Value::Null,
                    ot.code().into(),
                    id.into(),
                    text.into(),
                    cred.dn.as_str().into(),
                    self.now(),
                ];
                s.insert("annotations", row)?;
                if audit {
                    self.audit_action_in(s, ot, id, "annotate", cred, &name)?;
                }
                Ok(())
            },
        )
    }

    /// Fetch an object's annotations, oldest first. Requires Read.
    pub fn get_annotations(
        &self,
        cred: &Credential,
        object: &ObjectRef,
    ) -> Result<Vec<Annotation>> {
        let (ot, id, _, _) = self.resolve_ref(object)?;
        self.require_ref_perm(cred, object, Permission::Read)?;
        let rs = self.exec_sql(
            "SELECT annotation, creator, created FROM annotations \
             WHERE object_type = ? AND object_id = ? ORDER BY id",
            &[ot.code().into(), id.into()],
        )?;
        rs.rows
            .expect("select")
            .rows
            .iter()
            .map(|r| {
                Ok(Annotation {
                    object_type: ot,
                    object_id: id,
                    text: r[0].as_str()?.to_owned(),
                    creator: r[1].as_str()?.to_owned(),
                    created: datetime(&r[2])?,
                })
            })
            .collect()
    }
}
