//! Statement AST produced by the SQL parser.

use crate::predicate::Expr;
use crate::value::ValueType;

/// A column declaration inside CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSpec {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: ValueType,
    /// VARCHAR length limit, if declared.
    pub max_len: Option<usize>,
    /// NOT NULL given.
    pub not_null: bool,
    /// Inline PRIMARY KEY given.
    pub primary_key: bool,
    /// Inline UNIQUE given.
    pub unique: bool,
    /// AUTO_INCREMENT given.
    pub auto_increment: bool,
    /// DEFAULT literal, if given.
    pub default: Option<crate::value::Value>,
}

/// One item in a SELECT projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// A column reference (optionally aliased).
    Column {
        /// Table qualifier.
        table: Option<String>,
        /// Column name.
        column: String,
        /// `AS alias`.
        alias: Option<String>,
    },
    /// `COUNT(*)`, `COUNT(col)`, `MIN(col)`, `MAX(col)`.
    Aggregate {
        /// Which aggregate.
        func: AggFunc,
        /// Aggregated column; `None` means `*` (COUNT only).
        column: Option<(Option<String>, String)>,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// COUNT
    Count,
    /// MIN
    Min,
    /// MAX
    Max,
}

/// A table reference in FROM, with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name.
    pub table: String,
    /// Alias (`FROM t a` or `FROM t AS a`).
    pub alias: Option<String>,
}

/// One `JOIN t ON expr` clause (inner joins only).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// Joined table.
    pub table: TableRef,
    /// ON condition.
    pub on: Expr,
}

/// An ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Table qualifier.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
    /// True for DESC.
    pub desc: bool,
}

/// SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// First FROM table.
    pub from: TableRef,
    /// INNER JOINs, in order.
    pub joins: Vec<JoinClause>,
    /// WHERE clause.
    pub where_clause: Option<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT row count.
    pub limit: Option<usize>,
    /// OFFSET row count.
    pub offset: Option<usize>,
}

/// Any SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// CREATE TABLE.
    CreateTable {
        /// Table name.
        name: String,
        /// Column declarations.
        columns: Vec<ColumnSpec>,
        /// Table-level PRIMARY KEY (col, ...), if given.
        primary_key: Vec<String>,
        /// IF NOT EXISTS given.
        if_not_exists: bool,
    },
    /// CREATE [UNIQUE] INDEX name ON table (cols).
    CreateIndex {
        /// Index name.
        name: String,
        /// Target table.
        table: String,
        /// Indexed columns.
        columns: Vec<String>,
        /// UNIQUE given.
        unique: bool,
    },
    /// DROP TABLE name.
    DropTable {
        /// Table name.
        name: String,
        /// IF EXISTS given.
        if_exists: bool,
    },
    /// DROP INDEX name ON table.
    DropIndex {
        /// Index name.
        name: String,
        /// Table name.
        table: String,
    },
    /// INSERT INTO t (cols) VALUES (...), (...).
    Insert {
        /// Target table.
        table: String,
        /// Column list; empty means "all columns in schema order".
        columns: Vec<String>,
        /// Row value expressions (literals / params only).
        rows: Vec<Vec<Expr>>,
    },
    /// SELECT.
    Select(Select),
    /// UPDATE t SET col = expr, ... [WHERE].
    Update {
        /// Target table.
        table: String,
        /// (column, value expression) pairs.
        sets: Vec<(String, Expr)>,
        /// WHERE clause.
        where_clause: Option<Expr>,
    },
    /// DELETE FROM t [WHERE].
    Delete {
        /// Target table.
        table: String,
        /// WHERE clause.
        where_clause: Option<Expr>,
    },
}
