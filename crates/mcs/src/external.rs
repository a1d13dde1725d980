//! External catalog pointers (paper §5): metadata may be spread across
//! multiple heterogeneous catalogs; the MCS records how to reach them.

use crate::catalog::{text, Mcs};
use crate::error::{McsError, Result};
use crate::model::*;

impl Mcs {
    /// Register an external catalog. Requires service Write.
    pub fn register_external_catalog(
        &self,
        cred: &Credential,
        cat: &ExternalCatalog,
    ) -> Result<()> {
        validate_name(&cat.name)?;
        self.require_service_perm(cred, Permission::Write)?;
        match self.exec_sql(
            "INSERT INTO external_catalogs (name, catalog_type, host, ip, description) \
             VALUES (?, ?, ?, ?, ?)",
            &[
                cat.name.as_str().into(),
                cat.catalog_type.as_str().into(),
                cat.host.as_str().into(),
                cat.ip.as_str().into(),
                cat.description.as_str().into(),
            ],
        ) {
            Ok(_) => Ok(()),
            Err(McsError::Db(relstore::Error::UniqueViolation { .. })) => {
                Err(McsError::AlreadyExists(cat.name.clone()))
            }
            Err(e) => Err(e),
        }
    }

    /// All registered external catalogs, by name. Requires service Read.
    pub fn list_external_catalogs(&self, cred: &Credential) -> Result<Vec<ExternalCatalog>> {
        self.require_service_perm(cred, Permission::Read)?;
        let rs = self.query_sql(
            "SELECT name, catalog_type, host, ip, description FROM external_catalogs \
             ORDER BY name",
            &[],
        )?;
        rs.rows
            .iter()
            .map(|r| {
                Ok(ExternalCatalog {
                    name: r[0].as_str()?.to_owned(),
                    catalog_type: r[1].as_str()?.to_owned(),
                    host: r[2].as_str()?.to_owned(),
                    ip: text(&r[3]),
                    description: text(&r[4]),
                })
            })
            .collect()
    }
}
