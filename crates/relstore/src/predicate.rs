//! Expression AST, name binding, and evaluation.
//!
//! Expressions arrive from the SQL parser (or are built programmatically),
//! referring to columns by name. Before execution they are *bound* against
//! the schemas in scope, producing a [`BoundExpr`] whose column references
//! are slot offsets into the executor's row buffer — the hot evaluation
//! path does no string lookups.

use std::fmt;

use crate::error::{Error, Result};
use crate::schema::TableSchema;
use crate::value::Value;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// Unbound expression, as produced by the parser.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference, optionally table-qualified (`t.c`).
    Column {
        /// Table qualifier, if written.
        table: Option<String>,
        /// Column name.
        column: String,
    },
    /// Literal value.
    Literal(Value),
    /// `?` placeholder, by position (0-based).
    Param(usize),
    /// Binary comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical AND.
    And(Box<Expr>, Box<Expr>),
    /// Logical OR.
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// `a LIKE pattern` (`%` any run, `_` any single char).
    Like(Box<Expr>, Box<Expr>),
    /// `a IS NULL` (`negated` for IS NOT NULL).
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `a IN (v1, v2, ...)`.
    InList(Box<Expr>, Vec<Expr>),
}

impl Expr {
    /// Convenience: `col = literal`.
    pub fn col_eq(column: &str, v: impl Into<Value>) -> Expr {
        Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Column { table: None, column: column.to_owned() }),
            Box::new(Expr::Literal(v.into())),
        )
    }

    /// Convenience: unqualified column reference.
    pub fn col(column: &str) -> Expr {
        Expr::Column { table: None, column: column.to_owned() }
    }

    /// Convenience: literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Convenience: conjunction of a list (empty list means TRUE, i.e. `None`).
    pub fn and_all(mut exprs: Vec<Expr>) -> Option<Expr> {
        let mut acc = exprs.pop()?;
        while let Some(e) = exprs.pop() {
            acc = Expr::And(Box::new(e), Box::new(acc));
        }
        Some(acc)
    }

    /// Count `?` placeholders in this expression.
    pub fn param_count(&self) -> usize {
        fn walk(e: &Expr, max: &mut usize) {
            match e {
                Expr::Param(i) => *max = (*max).max(i + 1),
                Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) | Expr::Like(a, b) => {
                    walk(a, max);
                    walk(b, max);
                }
                Expr::Not(a) | Expr::IsNull { expr: a, .. } => walk(a, max),
                Expr::InList(a, list) => {
                    walk(a, max);
                    for e in list {
                        walk(e, max);
                    }
                }
                Expr::Column { .. } | Expr::Literal(_) => {}
            }
        }
        let mut n = 0;
        walk(self, &mut n);
        n
    }
}

/// One table in scope during binding: its alias/name and where its columns
/// start in the executor's concatenated row buffer.
#[derive(Debug, Clone)]
pub struct ScopeEntry<'a> {
    /// Name the query uses for this table (alias, or the table name).
    pub alias: String,
    /// Schema of the underlying table.
    pub schema: &'a TableSchema,
    /// Offset of this table's first column in the row buffer.
    pub base: usize,
}

/// Name-resolution scope: tables visible to the expression.
#[derive(Debug, Clone, Default)]
pub struct Scope<'a> {
    /// Tables in FROM order.
    pub entries: Vec<ScopeEntry<'a>>,
}

impl<'a> Scope<'a> {
    /// Scope over a single table whose columns start at slot 0.
    pub fn single(schema: &'a TableSchema) -> Scope<'a> {
        Scope {
            entries: vec![ScopeEntry { alias: schema.name.clone(), schema, base: 0 }],
        }
    }

    /// Resolve a possibly-qualified column name to a row-buffer slot.
    pub fn resolve(&self, table: Option<&str>, column: &str) -> Result<usize> {
        let mut found: Option<usize> = None;
        for e in &self.entries {
            if let Some(t) = table {
                if !e.alias.eq_ignore_ascii_case(t) {
                    continue;
                }
            }
            if let Ok(i) = e.schema.column_index(column) {
                if found.is_some() {
                    return Err(Error::EvalError(format!("ambiguous column `{column}`")));
                }
                found = Some(e.base + i);
            }
        }
        found.ok_or_else(|| {
            Error::NoSuchColumn(match table {
                Some(t) => format!("{t}.{column}"),
                None => column.to_owned(),
            })
        })
    }

    /// Total width of the row buffer.
    pub fn width(&self) -> usize {
        self.entries.iter().map(|e| e.schema.arity()).sum()
    }
}

/// Bound (executable) expression. Column references are row-buffer slots;
/// parameters have been substituted.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Row-buffer slot.
    Slot(usize),
    /// Literal value.
    Literal(Value),
    /// Comparison.
    Cmp(CmpOp, Box<BoundExpr>, Box<BoundExpr>),
    /// AND.
    And(Box<BoundExpr>, Box<BoundExpr>),
    /// OR.
    Or(Box<BoundExpr>, Box<BoundExpr>),
    /// NOT.
    Not(Box<BoundExpr>),
    /// LIKE.
    Like(Box<BoundExpr>, Box<BoundExpr>),
    /// IS [NOT] NULL.
    IsNull {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// True for IS NOT NULL.
        negated: bool,
    },
    /// IN list.
    InList(Box<BoundExpr>, Vec<BoundExpr>),
}

/// Bind `expr` against `scope`, substituting `params` for placeholders.
pub fn bind(expr: &Expr, scope: &Scope<'_>, params: &[Value]) -> Result<BoundExpr> {
    Ok(match expr {
        Expr::Column { table, column } => {
            BoundExpr::Slot(scope.resolve(table.as_deref(), column)?)
        }
        Expr::Literal(v) => BoundExpr::Literal(v.clone()),
        Expr::Param(i) => BoundExpr::Literal(
            params
                .get(*i)
                .cloned()
                .ok_or(Error::ParamCount { expected: i + 1, got: params.len() })?,
        ),
        Expr::Cmp(op, a, b) => BoundExpr::Cmp(
            *op,
            Box::new(bind(a, scope, params)?),
            Box::new(bind(b, scope, params)?),
        ),
        Expr::And(a, b) => {
            BoundExpr::And(Box::new(bind(a, scope, params)?), Box::new(bind(b, scope, params)?))
        }
        Expr::Or(a, b) => {
            BoundExpr::Or(Box::new(bind(a, scope, params)?), Box::new(bind(b, scope, params)?))
        }
        Expr::Not(a) => BoundExpr::Not(Box::new(bind(a, scope, params)?)),
        Expr::Like(a, b) => {
            BoundExpr::Like(Box::new(bind(a, scope, params)?), Box::new(bind(b, scope, params)?))
        }
        Expr::IsNull { expr, negated } => BoundExpr::IsNull {
            expr: Box::new(bind(expr, scope, params)?),
            negated: *negated,
        },
        Expr::InList(a, list) => BoundExpr::InList(
            Box::new(bind(a, scope, params)?),
            list.iter().map(|e| bind(e, scope, params)).collect::<Result<_>>()?,
        ),
    })
}

impl BoundExpr {
    /// Evaluate to a value against a row buffer.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        Ok(match self {
            BoundExpr::Slot(i) => row[*i].clone(),
            BoundExpr::Literal(v) => v.clone(),
            BoundExpr::Cmp(op, a, b) => {
                let (va, vb) = (a.eval(row)?, b.eval(row)?);
                match va.sql_cmp(&vb) {
                    None => {
                        if va.is_null() || vb.is_null() {
                            Value::Null // three-valued logic: unknown
                        } else {
                            return Err(Error::EvalError(format!(
                                "cannot compare {va} {op} {vb}"
                            )));
                        }
                    }
                    Some(ord) => Value::Bool(match op {
                        CmpOp::Eq => ord.is_eq(),
                        CmpOp::Ne => ord.is_ne(),
                        CmpOp::Lt => ord.is_lt(),
                        CmpOp::Le => ord.is_le(),
                        CmpOp::Gt => ord.is_gt(),
                        CmpOp::Ge => ord.is_ge(),
                    }),
                }
            }
            BoundExpr::And(a, b) => {
                // Kleene AND: false dominates NULL.
                let va = a.eval(row)?;
                if va == Value::Bool(false) {
                    return Ok(Value::Bool(false));
                }
                let vb = b.eval(row)?;
                match (va, vb) {
                    (_, Value::Bool(false)) => Value::Bool(false),
                    (Value::Null, _) | (_, Value::Null) => Value::Null,
                    (Value::Bool(x), Value::Bool(y)) => Value::Bool(x && y),
                    (x, y) => return Err(Error::EvalError(format!("AND on {x}, {y}"))),
                }
            }
            BoundExpr::Or(a, b) => {
                let va = a.eval(row)?;
                if va == Value::Bool(true) {
                    return Ok(Value::Bool(true));
                }
                let vb = b.eval(row)?;
                match (va, vb) {
                    (_, Value::Bool(true)) => Value::Bool(true),
                    (Value::Null, _) | (_, Value::Null) => Value::Null,
                    (Value::Bool(x), Value::Bool(y)) => Value::Bool(x || y),
                    (x, y) => return Err(Error::EvalError(format!("OR on {x}, {y}"))),
                }
            }
            BoundExpr::Not(a) => match a.eval(row)? {
                Value::Null => Value::Null,
                Value::Bool(b) => Value::Bool(!b),
                x => return Err(Error::EvalError(format!("NOT on {x}"))),
            },
            BoundExpr::Like(a, b) => {
                let (va, vb) = (a.eval(row)?, b.eval(row)?);
                if va.is_null() || vb.is_null() {
                    Value::Null
                } else {
                    Value::Bool(like_match(va.as_str()?, vb.as_str()?))
                }
            }
            BoundExpr::IsNull { expr, negated } => {
                let v = expr.eval(row)?;
                Value::Bool(v.is_null() != *negated)
            }
            BoundExpr::InList(a, list) => {
                let va = a.eval(row)?;
                if va.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for e in list {
                    let v = e.eval(row)?;
                    if v.is_null() {
                        saw_null = true;
                    } else if va.sql_cmp(&v) == Some(std::cmp::Ordering::Equal) {
                        return Ok(Value::Bool(true));
                    }
                }
                if saw_null {
                    Value::Null
                } else {
                    Value::Bool(false)
                }
            }
        })
    }

    /// Evaluate as a WHERE predicate: NULL (unknown) collapses to false.
    pub fn matches(&self, row: &[Value]) -> Result<bool> {
        match self.eval(row)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(Error::EvalError(format!("WHERE clause evaluated to {other}"))),
        }
    }

    /// Split a conjunction into its conjuncts (planner helper).
    pub fn conjuncts(&self) -> Vec<&BoundExpr> {
        let mut out = Vec::new();
        fn walk<'e>(e: &'e BoundExpr, out: &mut Vec<&'e BoundExpr>) {
            if let BoundExpr::And(a, b) = e {
                walk(a, out);
                walk(b, out);
            } else {
                out.push(e);
            }
        }
        walk(self, &mut out);
        out
    }
}

/// SQL LIKE matching: `%` = any run (including empty), `_` = one char.
/// Case-sensitive (MySQL's default collation was case-insensitive; the MCS
/// treats logical names as case-sensitive identifiers, which we follow).
pub fn like_match(s: &str, pattern: &str) -> bool {
    // Iterative two-pointer algorithm with backtracking on the last `%`,
    // over byte offsets: each step decodes one char where it stands, so
    // nothing is allocated and `_` still consumes exactly one char.
    let char_at = |text: &str, at: usize| text[at..].chars().next();
    let (mut si, mut pi) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pi after %, si at that time)
    while let Some(c) = char_at(s, si) {
        // `%` must be tested before literal equality: the subject string
        // may itself contain `%` characters.
        match char_at(pattern, pi) {
            Some('%') => {
                star = Some((pi + 1, si));
                pi += 1;
            }
            Some(pc) if pc == '_' || pc == c => {
                si += c.len_utf8();
                pi += pc.len_utf8();
            }
            _ => match star {
                Some((sp, ss)) => {
                    pi = sp;
                    si = ss + char_at(s, ss).map_or(1, char::len_utf8);
                    star = Some((sp, si));
                }
                None => return false,
            },
        }
    }
    pattern[pi..].bytes().all(|b| b == b'%')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::value::ValueType;

    fn scope_schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::required("a", ValueType::Int),
                ColumnDef::nullable("b", ValueType::Str),
            ],
            &[],
        )
        .unwrap()
    }

    fn eval(expr: &Expr, row: &[Value]) -> Value {
        let schema = scope_schema();
        let scope = Scope::single(&schema);
        bind(expr, &scope, &[]).unwrap().eval(row).unwrap()
    }

    #[test]
    fn comparisons() {
        let row = vec![Value::Int(5), Value::from("x")];
        assert_eq!(eval(&Expr::col_eq("a", 5i64), &row), Value::Bool(true));
        assert_eq!(eval(&Expr::col_eq("a", 6i64), &row), Value::Bool(false));
        let gt = Expr::Cmp(CmpOp::Gt, Box::new(Expr::col("a")), Box::new(Expr::lit(4i64)));
        assert_eq!(eval(&gt, &row), Value::Bool(true));
    }

    #[test]
    fn null_three_valued_logic() {
        let row = vec![Value::Int(5), Value::Null];
        // b = 'x' is unknown -> matches() false
        let e = Expr::col_eq("b", "x");
        let schema = scope_schema();
        let scope = Scope::single(&schema);
        let be = bind(&e, &scope, &[]).unwrap();
        assert_eq!(be.eval(&row).unwrap(), Value::Null);
        assert!(!be.matches(&row).unwrap());
        // NOT (b = 'x') is also unknown, not true
        let ne = Expr::Not(Box::new(e));
        let bne = bind(&ne, &scope, &[]).unwrap();
        assert!(!bne.matches(&row).unwrap());
        // b IS NULL is true
        let isn = Expr::IsNull { expr: Box::new(Expr::col("b")), negated: false };
        assert!(bind(&isn, &scope, &[]).unwrap().matches(&row).unwrap());
    }

    #[test]
    fn and_or_short_circuit_with_null() {
        let row = vec![Value::Int(5), Value::Null];
        // FALSE AND unknown = FALSE
        let e = Expr::And(Box::new(Expr::col_eq("a", 1i64)), Box::new(Expr::col_eq("b", "x")));
        assert_eq!(eval(&e, &row), Value::Bool(false));
        // TRUE OR unknown = TRUE
        let e = Expr::Or(Box::new(Expr::col_eq("a", 5i64)), Box::new(Expr::col_eq("b", "x")));
        assert_eq!(eval(&e, &row), Value::Bool(true));
        // TRUE AND unknown = unknown
        let e = Expr::And(Box::new(Expr::col_eq("a", 5i64)), Box::new(Expr::col_eq("b", "x")));
        assert_eq!(eval(&e, &row), Value::Null);
    }

    #[test]
    fn params_substitute() {
        let schema = scope_schema();
        let scope = Scope::single(&schema);
        let e = Expr::Cmp(CmpOp::Eq, Box::new(Expr::col("a")), Box::new(Expr::Param(0)));
        assert_eq!(e.param_count(), 1);
        let be = bind(&e, &scope, &[Value::Int(5)]).unwrap();
        assert!(be.matches(&[Value::Int(5), Value::Null]).unwrap());
        assert!(matches!(
            bind(&e, &scope, &[]),
            Err(Error::ParamCount { expected: 1, got: 0 })
        ));
    }

    #[test]
    fn in_list_semantics() {
        let row = vec![Value::Int(5), Value::Null];
        let e = Expr::InList(Box::new(Expr::col("a")), vec![Expr::lit(1i64), Expr::lit(5i64)]);
        assert_eq!(eval(&e, &row), Value::Bool(true));
        let e = Expr::InList(
            Box::new(Expr::col("a")),
            vec![Expr::lit(1i64), Expr::Literal(Value::Null)],
        );
        assert_eq!(eval(&e, &row), Value::Null); // unknown, not false
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("run_H1_0042.gwf", "run_H1_%"));
        assert!(like_match("abc", "a_c"));
        assert!(like_match("abc", "%"));
        assert!(like_match("", "%"));
        assert!(!like_match("abc", "a_"));
        assert!(like_match("a%b", "a%b"));
        assert!(like_match("xx.abc.yy", "%.abc.%"));
        assert!(!like_match("xabc", "%.abc.%"));
        assert!(like_match("aaa", "%a"));
        assert!(!like_match("", "_"));
    }

    #[test]
    fn like_patterns_walk_chars_not_bytes() {
        // `_` consumes one char, however many bytes it takes.
        assert!(like_match("héllo", "h_llo"));
        assert!(!like_match("héllo", "h__llo"));
        assert!(like_match("日本語", "___"));
        assert!(!like_match("日本語", "__"));
        assert!(like_match("日本語", "日%"));
        assert!(like_match("日本語", "%語"));
        assert!(like_match("ça_ŝ%ø", "ç%ø"));
        assert!(like_match("emoji 🛰 run", "emoji _ %"));
        assert!(!like_match("🛰", ""));
        // a `%` inside the subject is an ordinary char of the subject
        assert!(like_match("x%é%y", "x_é_y"));
        assert!(!like_match("x%é%y", "x_é_"));
        assert!(like_match("ab%ü", "%%ü"));
        assert!(like_match("50%ü", "50%"));
        assert!(!like_match("5%ü", "5%ü_"));
    }

    /// Against a recursive definition of LIKE over char slices, on seeded
    /// random subjects and patterns mixing multi-byte chars and wildcards.
    #[test]
    fn like_match_agrees_with_recursive_definition() {
        fn reference(s: &[char], p: &[char]) -> bool {
            match p.split_first() {
                None => s.is_empty(),
                Some(('%', rest)) => (0..=s.len()).any(|k| reference(&s[k..], rest)),
                Some((&c, rest)) => {
                    s.first().is_some_and(|&sc| c == '_' || c == sc) && reference(&s[1..], rest)
                }
            }
        }
        const ALPHABET: [char; 6] = ['a', 'é', '日', '🛰', '%', '_'];
        for seed in testkit::seeds(&[1, 2, 3]) {
            let mut rng = testkit::Rng::new(seed);
            for _ in 0..2_000 {
                let mut draw = |max| -> String {
                    (0..rng.below(max)).map(|_| *rng.pick(&ALPHABET)).collect()
                };
                let (s, p) = (draw(7), draw(6));
                let expect = reference(
                    &s.chars().collect::<Vec<_>>(),
                    &p.chars().collect::<Vec<_>>(),
                );
                assert_eq!(like_match(&s, &p), expect, "seed {seed}: {s:?} LIKE {p:?}");
            }
        }
    }

    #[test]
    fn ambiguous_and_missing_columns() {
        let s1 = scope_schema();
        let mut s2 = scope_schema();
        s2.name = "u".into();
        let scope = Scope {
            entries: vec![
                ScopeEntry { alias: "t".into(), schema: &s1, base: 0 },
                ScopeEntry { alias: "u".into(), schema: &s2, base: 2 },
            ],
        };
        assert!(scope.resolve(None, "a").is_err()); // ambiguous
        assert_eq!(scope.resolve(Some("u"), "a").unwrap(), 2);
        assert!(scope.resolve(None, "zzz").is_err());
        assert_eq!(scope.width(), 4);
    }

    #[test]
    fn conjunct_splitting() {
        let schema = scope_schema();
        let scope = Scope::single(&schema);
        let e = Expr::And(
            Box::new(Expr::col_eq("a", 1i64)),
            Box::new(Expr::And(Box::new(Expr::col_eq("a", 2i64)), Box::new(Expr::col_eq("a", 3i64)))),
        );
        let be = bind(&e, &scope, &[]).unwrap();
        assert_eq!(be.conjuncts().len(), 3);
    }
}
