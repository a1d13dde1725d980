//! Deterministic fuzz/property tests for the SQL front end.
//!
//! `testkit`'s seeded generator drives an AST generator over the full
//! supported grammar; each generated statement is rendered back to SQL
//! text and re-parsed, and the roundtripped AST must equal the original. A second battery
//! feeds malformed input to the parser and requires a clean `Err` —
//! never a panic — since SOAP clients hand the service arbitrary query
//! strings (paper §4: the service validates requests, it does not trust
//! them).

use relstore::sql::ast::{
    AggFunc, ColumnSpec, JoinClause, OrderKey, Select, SelectItem, Statement, TableRef,
};
use relstore::sql::parse;
use relstore::value::{Date, DateTime, Time};
use relstore::{CmpOp, Expr, Value, ValueType};
use testkit::{check, Rng};

// ---------- AST generation ----------

/// Words the lexer or parser treats specially somewhere in the grammar —
/// generated identifiers must avoid all of them.
const KEYWORDS: &[&str] = &[
    "select", "from", "where", "and", "or", "not", "like", "in", "is", "null", "true", "false",
    "between", "order", "by", "limit", "offset", "join", "inner", "on", "as", "insert", "into",
    "values", "update", "set", "delete", "create", "table", "index", "drop", "unique", "primary",
    "key", "default", "date", "time", "timestamp", "datetime", "count", "min", "max", "int",
    "integer", "bigint", "smallint", "double", "float", "real", "varchar", "char", "text",
    "boolean", "bool", "begin", "commit", "rollback", "if", "exists", "asc", "desc", "group",
    "auto_increment", "autoincrement",
];

fn ident(r: &mut Rng) -> String {
    loop {
        let len = 1 + r.below(8) as usize;
        let mut s = String::new();
        for i in 0..len {
            let c = if i == 0 {
                b'a' + r.below(26) as u8
            } else {
                match r.below(37) {
                    0..=25 => b'a' + r.below(26) as u8,
                    26..=35 => b'0' + r.below(10) as u8,
                    _ => b'_',
                }
            };
            s.push(c as char);
        }
        if !KEYWORDS.contains(&s.as_str()) {
            return s;
        }
    }
}

fn string_lit(r: &mut Rng) -> String {
    let len = r.below(12) as usize;
    let mut s = String::new();
    for _ in 0..len {
        s.push(match r.below(40) {
            0..=25 => (b'a' + r.below(26) as u8) as char,
            26..=33 => (b'0' + r.below(10) as u8) as char,
            34 | 35 => ' ',
            36 => '_',
            37 => '%',
            38 => '\'', // exercises the '' escape
            _ => '-',
        });
    }
    s
}

/// A literal value the renderer can print and the lexer will read back.
fn literal(r: &mut Rng, temporal: bool) -> Value {
    match r.below(if temporal { 8 } else { 5 }) {
        0 => Value::Int(r.below(10_000) as i64),
        // quarters are exact in binary, so text -> f64 -> text is lossless
        1 => Value::Float(r.below(4_000) as f64 / 4.0),
        2 => Value::from(string_lit(r)),
        3 => Value::Bool(r.chance(50)),
        4 => Value::Null,
        5 => Value::Date(Date::parse(&date_text(r)).unwrap()),
        6 => Value::Time(Time::parse(&time_text(r)).unwrap()),
        _ => {
            let s = format!("{} {}", date_text(r), time_text(r));
            Value::DateTime(DateTime::parse(&s).unwrap())
        }
    }
}

fn date_text(r: &mut Rng) -> String {
    format!("{:04}-{:02}-{:02}", 1990 + r.below(40), 1 + r.below(12), 1 + r.below(28))
}

fn time_text(r: &mut Rng) -> String {
    format!("{:02}:{:02}:{:02}", r.below(24), r.below(60), r.below(60))
}

/// Generated `Param` indices are placeholders; `renumber` assigns the
/// textual order the parser will reproduce.
fn expr(r: &mut Rng, depth: u32) -> Expr {
    let leaf = depth == 0;
    match r.below(if leaf { 3 } else { 10 }) {
        0 => Expr::Column {
            table: if r.chance(30) { Some(ident(r)) } else { None },
            column: ident(r),
        },
        1 => Expr::Literal(literal(r, true)),
        2 => Expr::Param(0),
        3 => {
            let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]
                [r.below(6) as usize];
            Expr::Cmp(op, Box::new(expr(r, depth - 1)), Box::new(expr(r, depth - 1)))
        }
        4 => Expr::And(Box::new(expr(r, depth - 1)), Box::new(expr(r, depth - 1))),
        5 => Expr::Or(Box::new(expr(r, depth - 1)), Box::new(expr(r, depth - 1))),
        6 => Expr::Not(Box::new(expr(r, depth - 1))),
        7 => Expr::Like(Box::new(expr(r, depth - 1)), Box::new(expr(r, depth - 1))),
        8 => Expr::IsNull { expr: Box::new(expr(r, depth - 1)), negated: r.chance(50) },
        _ => {
            let n = 1 + r.below(3);
            let list = (0..n).map(|_| expr(r, depth - 1)).collect();
            Expr::InList(Box::new(expr(r, depth - 1)), list)
        }
    }
}

fn column_spec(r: &mut Rng) -> ColumnSpec {
    let (ty, max_len) = match r.below(8) {
        0 | 1 => (ValueType::Int, None),
        2 => (ValueType::Float, None),
        3 | 4 => (ValueType::Str, Some(1 + r.below(300) as usize)),
        5 => (ValueType::Str, None), // TEXT
        6 => (ValueType::Bool, None),
        _ => (
            [ValueType::Date, ValueType::Time, ValueType::DateTime][r.below(3) as usize],
            None,
        ),
    };
    ColumnSpec {
        name: ident(r),
        ty,
        max_len,
        not_null: r.chance(30),
        primary_key: r.chance(10),
        unique: r.chance(15),
        auto_increment: ty == ValueType::Int && r.chance(15),
        // DEFAULT accepts plain literals only (no DATE '...' forms)
        default: if r.chance(25) { Some(literal(r, false)) } else { None },
    }
}

fn table_ref(r: &mut Rng) -> TableRef {
    TableRef { table: ident(r), alias: if r.chance(35) { Some(ident(r)) } else { None } }
}

fn select_item(r: &mut Rng) -> SelectItem {
    if r.chance(25) {
        let func = [AggFunc::Count, AggFunc::Min, AggFunc::Max][r.below(3) as usize];
        let column = if func == AggFunc::Count && r.chance(50) {
            None // COUNT(*)
        } else {
            Some((if r.chance(25) { Some(ident(r)) } else { None }, ident(r)))
        };
        SelectItem::Aggregate { func, column, alias: if r.chance(40) { Some(ident(r)) } else { None } }
    } else {
        SelectItem::Column {
            table: if r.chance(30) { Some(ident(r)) } else { None },
            column: ident(r),
            alias: if r.chance(25) { Some(ident(r)) } else { None },
        }
    }
}

fn statement(r: &mut Rng) -> Statement {
    match r.below(8) {
        0 => Statement::CreateTable {
            name: ident(r),
            columns: (0..1 + r.below(5)).map(|_| column_spec(r)).collect(),
            primary_key: if r.chance(25) {
                (0..1 + r.below(2)).map(|_| ident(r)).collect()
            } else {
                Vec::new()
            },
            if_not_exists: r.chance(30),
        },
        1 => Statement::CreateIndex {
            name: ident(r),
            table: ident(r),
            columns: (0..1 + r.below(3)).map(|_| ident(r)).collect(),
            unique: r.chance(40),
        },
        2 => Statement::DropTable { name: ident(r), if_exists: r.chance(40) },
        3 => Statement::DropIndex { name: ident(r), table: ident(r) },
        4 => {
            let width = 1 + r.below(4) as usize;
            Statement::Insert {
                table: ident(r),
                columns: if r.chance(70) {
                    (0..width).map(|_| ident(r)).collect()
                } else {
                    Vec::new()
                },
                rows: (0..1 + r.below(3))
                    .map(|_| {
                        (0..width)
                            .map(|_| {
                                if r.chance(25) {
                                    Expr::Param(0)
                                } else {
                                    Expr::Literal(literal(r, true))
                                }
                            })
                            .collect()
                    })
                    .collect(),
            }
        }
        5 => Statement::Select(Select {
            items: (0..1 + r.below(3)).map(|_| select_item(r)).collect(),
            from: table_ref(r),
            joins: (0..r.below(3))
                .map(|_| JoinClause { table: table_ref(r), on: expr(r, 2) })
                .collect(),
            where_clause: if r.chance(70) { Some(expr(r, 3)) } else { None },
            order_by: (0..r.below(3))
                .map(|_| OrderKey {
                    table: if r.chance(25) { Some(ident(r)) } else { None },
                    column: ident(r),
                    desc: r.chance(50),
                })
                .collect(),
            limit: if r.chance(40) { Some(r.below(1000) as usize) } else { None },
            offset: if r.chance(25) { Some(r.below(1000) as usize) } else { None },
        }),
        6 => Statement::Update {
            table: ident(r),
            sets: (0..1 + r.below(3)).map(|_| (ident(r), expr(r, 2))).collect(),
            where_clause: if r.chance(70) { Some(expr(r, 3)) } else { None },
        },
        _ => Statement::Delete {
            table: ident(r),
            where_clause: if r.chance(70) { Some(expr(r, 3)) } else { None },
        },
    }
}

// ---------- parameter renumbering (textual order, as the parser sees) ----------

fn renumber_expr(e: &mut Expr, next: &mut usize) {
    match e {
        Expr::Param(i) => {
            *i = *next;
            *next += 1;
        }
        Expr::Cmp(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) | Expr::Like(l, r) => {
            renumber_expr(l, next);
            renumber_expr(r, next);
        }
        Expr::Not(x) => renumber_expr(x, next),
        Expr::IsNull { expr, .. } => renumber_expr(expr, next),
        Expr::InList(head, list) => {
            renumber_expr(head, next);
            for x in list {
                renumber_expr(x, next);
            }
        }
        Expr::Column { .. } | Expr::Literal(_) => {}
    }
}

fn renumber(s: &mut Statement) {
    let mut n = 0usize;
    match s {
        Statement::Insert { rows, .. } => {
            for row in rows {
                for e in row {
                    renumber_expr(e, &mut n);
                }
            }
        }
        Statement::Select(sel) => {
            for j in &mut sel.joins {
                renumber_expr(&mut j.on, &mut n);
            }
            if let Some(w) = &mut sel.where_clause {
                renumber_expr(w, &mut n);
            }
        }
        Statement::Update { sets, where_clause, .. } => {
            for (_, e) in sets {
                renumber_expr(e, &mut n);
            }
            if let Some(w) = where_clause {
                renumber_expr(w, &mut n);
            }
        }
        Statement::Delete { where_clause, .. } => {
            if let Some(w) = where_clause {
                renumber_expr(w, &mut n);
            }
        }
        _ => {}
    }
}

// ---------- rendering (AST -> SQL text) ----------

/// Sub-expressions are parenthesized unconditionally: `operand()` accepts
/// a parenthesized full expression anywhere, so this renders every AST
/// shape unambiguously (precedence never re-associates the tree).
fn render_expr(e: &Expr) -> String {
    match e {
        Expr::Column { table: Some(t), column } => format!("{t}.{column}"),
        Expr::Column { table: None, column } => column.clone(),
        Expr::Literal(v) => render_value(v),
        Expr::Param(_) => "?".into(),
        Expr::Cmp(op, l, r) => format!("({}) {} ({})", render_expr(l), op, render_expr(r)),
        Expr::And(l, r) => format!("({}) AND ({})", render_expr(l), render_expr(r)),
        Expr::Or(l, r) => format!("({}) OR ({})", render_expr(l), render_expr(r)),
        Expr::Not(x) => format!("NOT ({})", render_expr(x)),
        Expr::Like(l, r) => format!("({}) LIKE ({})", render_expr(l), render_expr(r)),
        Expr::IsNull { expr, negated: false } => format!("({}) IS NULL", render_expr(expr)),
        Expr::IsNull { expr, negated: true } => format!("({}) IS NOT NULL", render_expr(expr)),
        Expr::InList(head, list) => {
            let items: Vec<String> =
                list.iter().map(|x| format!("({})", render_expr(x))).collect();
            format!("({}) IN ({})", render_expr(head), items.join(", "))
        }
    }
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Int(n) => n.to_string(),
        Value::Float(x) => format!("{x:?}"),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Bool(true) => "TRUE".into(),
        Value::Bool(false) => "FALSE".into(),
        Value::Null => "NULL".into(),
        Value::Date(d) => format!("DATE '{d}'"),
        Value::Time(t) => format!("TIME '{t}'"),
        Value::DateTime(dt) => format!("TIMESTAMP '{dt}'"),
    }
}

fn render_type(c: &ColumnSpec) -> String {
    match c.ty {
        ValueType::Int => "INTEGER".into(),
        ValueType::Float => "DOUBLE".into(),
        ValueType::Str => match c.max_len {
            Some(n) => format!("VARCHAR({n})"),
            None => "TEXT".into(),
        },
        ValueType::Bool => "BOOLEAN".into(),
        ValueType::Date => "DATE".into(),
        ValueType::Time => "TIME".into(),
        ValueType::DateTime => "DATETIME".into(),
    }
}

fn render_column_spec(c: &ColumnSpec) -> String {
    let mut s = format!("{} {}", c.name, render_type(c));
    if c.not_null {
        s.push_str(" NOT NULL");
    }
    if c.primary_key {
        s.push_str(" PRIMARY KEY");
    }
    if c.unique {
        s.push_str(" UNIQUE");
    }
    if c.auto_increment {
        s.push_str(" AUTO_INCREMENT");
    }
    if let Some(d) = &c.default {
        s.push_str(&format!(" DEFAULT {}", render_value(d)));
    }
    s
}

fn render_table_ref(t: &TableRef) -> String {
    match &t.alias {
        Some(a) => format!("{} AS {}", t.table, a),
        None => t.table.clone(),
    }
}

fn render_select_item(i: &SelectItem) -> String {
    match i {
        SelectItem::Wildcard => "*".into(),
        SelectItem::Column { table, column, alias } => {
            let mut s = match table {
                Some(t) => format!("{t}.{column}"),
                None => column.clone(),
            };
            if let Some(a) = alias {
                s.push_str(&format!(" AS {a}"));
            }
            s
        }
        SelectItem::Aggregate { func, column, alias } => {
            let f = match func {
                AggFunc::Count => "COUNT",
                AggFunc::Min => "MIN",
                AggFunc::Max => "MAX",
            };
            let arg = match column {
                None => "*".into(),
                Some((Some(t), c)) => format!("{t}.{c}"),
                Some((None, c)) => c.clone(),
            };
            let mut s = format!("{f}({arg})");
            if let Some(a) = alias {
                s.push_str(&format!(" AS {a}"));
            }
            s
        }
    }
}

fn render(s: &Statement) -> String {
    match s {
        Statement::CreateTable { name, columns, primary_key, if_not_exists } => {
            let mut parts: Vec<String> = columns.iter().map(render_column_spec).collect();
            if !primary_key.is_empty() {
                parts.push(format!("PRIMARY KEY ({})", primary_key.join(", ")));
            }
            format!(
                "CREATE TABLE {}{} ({})",
                if *if_not_exists { "IF NOT EXISTS " } else { "" },
                name,
                parts.join(", ")
            )
        }
        Statement::CreateIndex { name, table, columns, unique } => format!(
            "CREATE {}INDEX {} ON {} ({})",
            if *unique { "UNIQUE " } else { "" },
            name,
            table,
            columns.join(", ")
        ),
        Statement::DropTable { name, if_exists } => {
            format!("DROP TABLE {}{}", if *if_exists { "IF EXISTS " } else { "" }, name)
        }
        Statement::DropIndex { name, table } => format!("DROP INDEX {name} ON {table}"),
        Statement::Insert { table, columns, rows } => {
            let cols = if columns.is_empty() {
                String::new()
            } else {
                format!(" ({})", columns.join(", "))
            };
            let vals: Vec<String> = rows
                .iter()
                .map(|row| {
                    let exprs: Vec<String> = row.iter().map(render_expr).collect();
                    format!("({})", exprs.join(", "))
                })
                .collect();
            format!("INSERT INTO {table}{cols} VALUES {}", vals.join(", "))
        }
        Statement::Select(sel) => {
            let items: Vec<String> = sel.items.iter().map(render_select_item).collect();
            let mut s = format!("SELECT {} FROM {}", items.join(", "), render_table_ref(&sel.from));
            for j in &sel.joins {
                s.push_str(&format!(
                    " JOIN {} ON {}",
                    render_table_ref(&j.table),
                    render_expr(&j.on)
                ));
            }
            if let Some(w) = &sel.where_clause {
                s.push_str(&format!(" WHERE {}", render_expr(w)));
            }
            if !sel.order_by.is_empty() {
                let keys: Vec<String> = sel
                    .order_by
                    .iter()
                    .map(|k| {
                        let col = match &k.table {
                            Some(t) => format!("{t}.{}", k.column),
                            None => k.column.clone(),
                        };
                        if k.desc {
                            format!("{col} DESC")
                        } else {
                            col
                        }
                    })
                    .collect();
                s.push_str(&format!(" ORDER BY {}", keys.join(", ")));
            }
            if let Some(n) = sel.limit {
                s.push_str(&format!(" LIMIT {n}"));
            }
            if let Some(n) = sel.offset {
                s.push_str(&format!(" OFFSET {n}"));
            }
            s
        }
        Statement::Update { table, sets, where_clause } => {
            let assigns: Vec<String> =
                sets.iter().map(|(c, e)| format!("{c} = {}", render_expr(e))).collect();
            let mut s = format!("UPDATE {table} SET {}", assigns.join(", "));
            if let Some(w) = where_clause {
                s.push_str(&format!(" WHERE {}", render_expr(w)));
            }
            s
        }
        Statement::Delete { table, where_clause } => {
            let mut s = format!("DELETE FROM {table}");
            if let Some(w) = where_clause {
                s.push_str(&format!(" WHERE {}", render_expr(w)));
            }
            s
        }
    }
}

// ---------- the property: AST -> SQL -> AST is the identity ----------

#[test]
fn generated_statements_roundtrip_through_the_parser() {
    // Each seed draws 500 statements; a failure names the seed, and the
    // statement's index within it.
    check("-p relstore --test sql_proptests", 4, |rng| {
        for case in 0..500 {
            let mut want = statement(rng);
            renumber(&mut want);
            let sql = render(&want);
            let got = parse(&sql).unwrap_or_else(|e| {
                panic!("case {case}: render produced unparsable SQL\n  sql: {sql}\n  err: {e}")
            });
            assert_eq!(got, want, "case {case}: roundtrip changed the AST\n  sql: {sql}");
        }
    });
}

// ---------- malformed input must error, never panic ----------

#[test]
fn malformed_input_returns_errors_not_panics() {
    let cases: &[&str] = &[
        "",
        "   \t\n  ",
        "SELECT",
        "SELECT FROM",
        "SELECT * FROM",
        "SELECT *, FROM t",
        "SELECT COUNT( FROM t",
        "SELECT MIN(*) FROM t",
        "SELECT * FROM t WHERE",
        "SELECT * FROM t WHERE a =",
        "SELECT * FROM t WHERE a NOT 5",
        "SELECT * FROM t WHERE a BETWEEN 1",
        "SELECT * FROM t WHERE a IN",
        "SELECT * FROM t WHERE a IN ()",
        "SELECT * FROM t WHERE (a = 1",
        "SELECT * FROM t WHERE a = 1)",
        "SELECT * FROM t JOIN",
        "SELECT * FROM t JOIN u",
        "SELECT * FROM t ORDER",
        "SELECT * FROM t ORDER BY",
        "SELECT * FROM t LIMIT",
        "SELECT * FROM t LIMIT abc",
        "CREATE",
        "CREATE TABLE",
        "CREATE TABLE t",
        "CREATE TABLE t (",
        "CREATE TABLE t ()",
        "CREATE TABLE t (c)",
        "CREATE TABLE t (c FROBNITZ)",
        "CREATE TABLE t (c VARCHAR())",
        "CREATE TABLE t (c VARCHAR(0))",
        "CREATE TABLE t (c INTEGER DEFAULT)",
        "CREATE TABLE t (PRIMARY KEY)",
        "CREATE INDEX i",
        "CREATE INDEX i ON t",
        "CREATE INDEX i ON t ()",
        "CREATE UNIQUE",
        "DROP",
        "DROP TABLE",
        "DROP INDEX i",
        "INSERT",
        "INSERT INTO",
        "INSERT INTO t",
        "INSERT INTO t VALUES",
        "INSERT INTO t VALUES (",
        "INSERT INTO t VALUES ()",
        "INSERT INTO t (a,) VALUES (1)",
        "UPDATE",
        "UPDATE t",
        "UPDATE t SET",
        "UPDATE t SET a",
        "UPDATE t SET a = ",
        "DELETE",
        "DELETE t",
        "DELETE FROM",
        "'unterminated string",
        "SELECT * FROM t WHERE s = 'oops",
        "SELECT * FROM t WHERE d = DATE 'not-a-date'",
        "SELECT * FROM t WHERE d = DATE '2003-13-45'",
        "SELECT * FROM t WHERE ts = TIMESTAMP '2003-01-01'",
        "@#$%^&",
        "SELECT * FROM t; DROP TABLE t", // no multi-statement smuggling
        "\u{0000}SELECT * FROM t",
        "SELECT * FROM t WHERE a = 🚀",
    ];
    for sql in cases {
        let r = parse(sql);
        let err = r.expect_err(&format!("parser accepted malformed input: {sql:?}"));
        assert!(!err.to_string().is_empty(), "empty error message for {sql:?}");
    }
    // Nesting beyond the parser's depth limit must be an error, not a
    // stack overflow — found by this harness, fixed with MAX_EXPR_DEPTH.
    let deep = format!("SELECT * FROM t WHERE {}a = 1{}", "(".repeat(5_000), ")".repeat(5_000));
    parse(&deep).expect_err("depth limit must reject pathological nesting");
    let unbalanced = format!("SELECT * FROM t WHERE {}a = 1", "(".repeat(5_000));
    parse(&unbalanced).expect_err("unbalanced parens must error");
    let not_bomb = format!("SELECT * FROM t WHERE {}a = 1", "NOT ".repeat(5_000));
    parse(&not_bomb).expect_err("depth limit must reject pathological NOT chains");
    // ...while reasonable nesting still parses
    let ok = format!("SELECT * FROM t WHERE {}a = 1{}", "(".repeat(30), ")".repeat(30));
    parse(&ok).expect("moderate nesting must still parse");
}
