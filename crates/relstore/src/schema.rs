//! Table schemas: column definitions, constraints, and name lookup.

use crate::error::{Error, Result};
use crate::index::MAX_INDEX_WIDTH;
use crate::value::{Value, ValueType};

/// Definition of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name (case-preserved; lookups are case-insensitive like MySQL).
    pub name: String,
    /// Scalar type.
    pub ty: ValueType,
    /// If false, NULL is rejected.
    pub nullable: bool,
    /// For VARCHAR(n): maximum length in bytes.
    pub max_len: Option<usize>,
    /// Default value used when an INSERT omits the column.
    pub default: Option<Value>,
    /// AUTO_INCREMENT: on insert of NULL/omitted, assign the next counter
    /// value. Only meaningful for INTEGER columns.
    pub auto_increment: bool,
}

impl ColumnDef {
    /// A non-null column with no default.
    pub fn required(name: &str, ty: ValueType) -> ColumnDef {
        ColumnDef {
            name: name.to_owned(),
            ty,
            nullable: false,
            max_len: None,
            default: None,
            auto_increment: false,
        }
    }

    /// A nullable column with no default.
    pub fn nullable(name: &str, ty: ValueType) -> ColumnDef {
        ColumnDef { nullable: true, ..ColumnDef::required(name, ty) }
    }

    /// An INTEGER AUTO_INCREMENT column (the id column idiom).
    pub fn auto_id(name: &str) -> ColumnDef {
        ColumnDef { auto_increment: true, ..ColumnDef::required(name, ValueType::Int) }
    }

    /// Validate and coerce a value destined for this column.
    pub fn check(&self, v: Value) -> Result<Value> {
        if v.is_null() {
            if self.nullable || self.auto_increment {
                return Ok(Value::Null);
            }
            return Err(Error::NullViolation(self.name.clone()));
        }
        if !v.fits(self.ty) {
            return Err(Error::TypeMismatch {
                column: self.name.clone(),
                expected: self.ty,
                got: v.value_type().expect("non-null"),
            });
        }
        if let (Some(max), Value::Str(s)) = (self.max_len, &v) {
            if s.len() > max {
                return Err(Error::StringTooLong {
                    column: self.name.clone(),
                    max,
                    got: s.len(),
                });
            }
        }
        Ok(v.coerce(self.ty))
    }
}

/// Schema of a table: ordered columns plus the primary key.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
    /// Indices (into `columns`) of the primary-key columns; empty means no
    /// declared primary key (a hidden row id still identifies rows).
    pub primary_key: Vec<usize>,
}

impl TableSchema {
    /// Build a schema, checking column-name uniqueness.
    pub fn new(name: &str, columns: Vec<ColumnDef>, primary_key_cols: &[&str]) -> Result<TableSchema> {
        let mut schema =
            TableSchema { name: name.to_owned(), columns, primary_key: Vec::new() };
        for i in 0..schema.columns.len() {
            for j in (i + 1)..schema.columns.len() {
                if schema.columns[i].name.eq_ignore_ascii_case(&schema.columns[j].name) {
                    return Err(Error::ExecError(format!(
                        "duplicate column `{}` in table `{name}`",
                        schema.columns[i].name
                    )));
                }
            }
        }
        if primary_key_cols.len() > MAX_INDEX_WIDTH {
            return Err(Error::ExecError(format!(
                "primary key of `{name}` has {} columns; an index takes at most {MAX_INDEX_WIDTH}",
                primary_key_cols.len()
            )));
        }
        for pk in primary_key_cols {
            let idx = schema.column_index(pk)?;
            schema.primary_key.push(idx);
        }
        Ok(schema)
    }

    /// Index of a column by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| Error::NoSuchColumn(format!("{}.{}", self.name, name)))
    }

    /// Column definition by name.
    pub fn column(&self, name: &str) -> Result<&ColumnDef> {
        Ok(&self.columns[self.column_index(name)?])
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::auto_id("id"),
                ColumnDef::required("name", ValueType::Str),
                ColumnDef::nullable("score", ValueType::Float),
            ],
            &["id"],
        )
        .unwrap()
    }

    #[test]
    fn lookup_case_insensitive() {
        let s = schema();
        assert_eq!(s.column_index("NAME").unwrap(), 1);
        assert_eq!(s.column_index("Id").unwrap(), 0);
        assert!(s.column_index("missing").is_err());
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = TableSchema::new(
            "t",
            vec![ColumnDef::auto_id("id"), ColumnDef::required("ID", ValueType::Str)],
            &[],
        );
        assert!(err.is_err());
    }

    #[test]
    fn unknown_pk_rejected() {
        let err = TableSchema::new("t", vec![ColumnDef::auto_id("id")], &["nope"]);
        assert!(err.is_err());
    }

    #[test]
    fn check_null_and_types() {
        let s = schema();
        let name = s.column("name").unwrap();
        assert!(name.check(Value::Null).is_err());
        assert!(name.check(Value::Int(3)).is_err());
        assert_eq!(name.check(Value::from("x")).unwrap(), Value::from("x"));
        let score = s.column("score").unwrap();
        assert_eq!(score.check(Value::Null).unwrap(), Value::Null);
        // int widens to float
        assert_eq!(score.check(Value::Int(2)).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn check_varchar_limit() {
        let col = ColumnDef {
            max_len: Some(3),
            ..ColumnDef::required("s", ValueType::Str)
        };
        assert!(col.check(Value::from("abc")).is_ok());
        assert!(matches!(
            col.check(Value::from("abcd")),
            Err(Error::StringTooLong { .. })
        ));
    }
}
