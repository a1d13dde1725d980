//! Recursive-descent SQL parser.

use crate::error::{Error, Result};
use crate::predicate::{CmpOp, Expr};
use crate::sql::ast::*;
use crate::sql::lexer::{lex, Punct, Token, TokenKind};
use crate::value::{Date, DateTime, Time, Value, ValueType};

/// Parse one SQL statement (a trailing `;` is allowed).
pub fn parse(sql: &str) -> Result<Statement> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0, params: 0, depth: 0 };
    let stmt = p.statement()?;
    p.eat_punct(Punct::Semi);
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing tokens after statement"));
    }
    Ok(stmt)
}

/// Maximum expression nesting. The parser recurses per `(`/`NOT`, so
/// untrusted input (SOAP clients hand the service raw query strings)
/// could otherwise overflow the stack instead of returning an error.
const MAX_EXPR_DEPTH: usize = 64;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    params: usize,
    depth: usize,
}

impl Parser {
    fn err(&self, msg: impl Into<String>) -> Error {
        Error::ParseError { at: self.pos, msg: msg.into() }
    }

    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            return Err(self.err(format!("expression nested deeper than {MAX_EXPR_DEPTH}")));
        }
        Ok(())
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn next(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// If the next token is the keyword `kw` (case-insensitive), consume it.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(TokenKind::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`")))
        }
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek() == Some(&TokenKind::Punct(p)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{p:?}`")))
        }
    }

    /// Is the next token the keyword `kw` (without consuming)?
    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(TokenKind::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(TokenKind::Ident(s)) => Ok(s),
            Some(TokenKind::QuotedIdent(s)) => Ok(s),
            _ => Err(self.err("expected identifier")),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_kw("CREATE") {
            if self.eat_kw("TABLE") {
                return self.create_table();
            }
            let unique = self.eat_kw("UNIQUE");
            self.expect_kw("INDEX")?;
            return self.create_index(unique);
        }
        if self.eat_kw("DROP") {
            if self.eat_kw("TABLE") {
                let if_exists = self.if_exists()?;
                let name = self.ident()?;
                return Ok(Statement::DropTable { name, if_exists });
            }
            self.expect_kw("INDEX")?;
            let name = self.ident()?;
            self.expect_kw("ON")?;
            let table = self.ident()?;
            return Ok(Statement::DropIndex { name, table });
        }
        if self.eat_kw("INSERT") {
            return self.insert();
        }
        if self.eat_kw("SELECT") {
            return Ok(Statement::Select(self.select()?));
        }
        if self.eat_kw("UPDATE") {
            return self.update();
        }
        if self.eat_kw("DELETE") {
            return self.delete();
        }
        Err(self.err("expected a statement keyword"))
    }

    fn if_exists(&mut self) -> Result<bool> {
        if self.eat_kw("IF") {
            self.expect_kw("EXISTS")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn create_table(&mut self) -> Result<Statement> {
        let if_not_exists = if self.eat_kw("IF") {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        self.expect_punct(Punct::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key = Vec::new();
        loop {
            if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                self.expect_punct(Punct::LParen)?;
                loop {
                    primary_key.push(self.ident()?);
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.expect_punct(Punct::RParen)?;
            } else {
                columns.push(self.column_spec()?);
            }
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::RParen)?;
        Ok(Statement::CreateTable { name, columns, primary_key, if_not_exists })
    }

    fn column_spec(&mut self) -> Result<ColumnSpec> {
        let name = self.ident()?;
        let ty_name = self.ident()?;
        let (ty, mut max_len) = match ty_name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => (ValueType::Int, None),
            "DOUBLE" | "FLOAT" | "REAL" => (ValueType::Float, None),
            "VARCHAR" | "CHAR" => (ValueType::Str, Some(255)),
            "TEXT" => (ValueType::Str, None),
            "BOOLEAN" | "BOOL" => (ValueType::Bool, None),
            "DATE" => (ValueType::Date, None),
            "TIME" => (ValueType::Time, None),
            "DATETIME" | "TIMESTAMP" => (ValueType::DateTime, None),
            other => return Err(self.err(format!("unknown type `{other}`"))),
        };
        if self.eat_punct(Punct::LParen) {
            match self.next() {
                Some(TokenKind::Int(n)) if n > 0 => max_len = Some(n as usize),
                _ => return Err(self.err("expected length after `(`")),
            }
            self.expect_punct(Punct::RParen)?;
        }
        let mut spec = ColumnSpec {
            name,
            ty,
            max_len: if ty == ValueType::Str { max_len } else { None },
            not_null: false,
            primary_key: false,
            unique: false,
            auto_increment: false,
            default: None,
        };
        loop {
            if self.eat_kw("NOT") {
                self.expect_kw("NULL")?;
                spec.not_null = true;
            } else if self.eat_kw("NULL") {
                // explicit NULL permission: default anyway
            } else if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                spec.primary_key = true;
            } else if self.eat_kw("UNIQUE") {
                spec.unique = true;
            } else if self.eat_kw("AUTO_INCREMENT") || self.eat_kw("AUTOINCREMENT") {
                spec.auto_increment = true;
            } else if self.eat_kw("DEFAULT") {
                spec.default = Some(self.literal_value()?);
            } else {
                break;
            }
        }
        Ok(spec)
    }

    fn create_index(&mut self, unique: bool) -> Result<Statement> {
        let name = self.ident()?;
        self.expect_kw("ON")?;
        let table = self.ident()?;
        self.expect_punct(Punct::LParen)?;
        let mut columns = Vec::new();
        loop {
            columns.push(self.ident()?);
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::RParen)?;
        Ok(Statement::CreateIndex { name, table, columns, unique })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.eat_punct(Punct::LParen) {
            loop {
                columns.push(self.ident()?);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RParen)?;
        }
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_punct(Punct::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RParen)?;
            rows.push(row);
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, columns, rows })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let table = self.ident()?;
        let mut alias = None;
        if self.eat_kw("AS") {
            alias = Some(self.ident()?);
        } else if let Some(TokenKind::Ident(s)) = self.peek() {
            // bare alias, unless it's a clause keyword
            const CLAUSES: &[&str] = &[
                "WHERE", "ORDER", "LIMIT", "OFFSET", "JOIN", "INNER", "ON", "GROUP", "SET",
            ];
            if !CLAUSES.iter().any(|k| s.eq_ignore_ascii_case(k)) {
                alias = Some(self.ident()?);
            }
        }
        Ok(TableRef { table, alias })
    }

    fn select(&mut self) -> Result<Select> {
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_kw("FROM")?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            if self.eat_kw("INNER") {
                self.expect_kw("JOIN")?;
            } else if !self.eat_kw("JOIN") {
                break;
            }
            let table = self.table_ref()?;
            self.expect_kw("ON")?;
            let on = self.expr()?;
            joins.push(JoinClause { table, on });
        }
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let (table, column) = self.column_name()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderKey { table, column, desc });
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        let mut offset = None;
        if self.eat_kw("LIMIT") {
            limit = Some(self.usize_lit()?);
            if self.eat_punct(Punct::Comma) {
                // MySQL `LIMIT offset, count`
                offset = limit;
                limit = Some(self.usize_lit()?);
            }
        }
        if self.eat_kw("OFFSET") {
            offset = Some(self.usize_lit()?);
        }
        Ok(Select { items, from, joins, where_clause, order_by, limit, offset })
    }

    fn usize_lit(&mut self) -> Result<usize> {
        match self.next() {
            Some(TokenKind::Int(n)) if n >= 0 => Ok(n as usize),
            _ => Err(self.err("expected a non-negative integer")),
        }
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat_punct(Punct::Star) {
            return Ok(SelectItem::Wildcard);
        }
        for (kw, func) in
            [("COUNT", AggFunc::Count), ("MIN", AggFunc::Min), ("MAX", AggFunc::Max)]
        {
            if self.peek_kw(kw)
                && self.tokens.get(self.pos + 1).map(|t| &t.kind)
                    == Some(&TokenKind::Punct(Punct::LParen))
            {
                self.pos += 2; // keyword + (
                let column = if self.eat_punct(Punct::Star) {
                    if func != AggFunc::Count {
                        return Err(self.err("only COUNT accepts `*`"));
                    }
                    None
                } else {
                    Some(self.column_name()?)
                };
                self.expect_punct(Punct::RParen)?;
                let alias = if self.eat_kw("AS") { Some(self.ident()?) } else { None };
                return Ok(SelectItem::Aggregate { func, column, alias });
            }
        }
        let (table, column) = self.column_name()?;
        let alias = if self.eat_kw("AS") { Some(self.ident()?) } else { None };
        Ok(SelectItem::Column { table, column, alias })
    }

    fn column_name(&mut self) -> Result<(Option<String>, String)> {
        let first = self.ident()?;
        if self.eat_punct(Punct::Dot) {
            Ok((Some(first), self.ident()?))
        } else {
            Ok((None, first))
        }
    }

    fn update(&mut self) -> Result<Statement> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_punct(Punct::Eq)?;
            sets.push((col, self.expr()?));
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        Ok(Statement::Update { table, sets, where_clause })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        Ok(Statement::Delete { table, where_clause })
    }

    // ----- expressions -----

    /// Entry: OR-level.
    pub(crate) fn expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            self.enter()?;
            let e = self.not_expr();
            self.depth -= 1;
            Ok(Expr::Not(Box::new(e?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.operand()?;
        // postfix predicates
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        let negated = self.eat_kw("NOT");
        if self.eat_kw("LIKE") {
            let pat = self.operand()?;
            let like = Expr::Like(Box::new(left), Box::new(pat));
            return Ok(if negated { Expr::Not(Box::new(like)) } else { like });
        }
        if self.eat_kw("IN") {
            self.expect_punct(Punct::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.operand()?);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RParen)?;
            let inl = Expr::InList(Box::new(left), list);
            return Ok(if negated { Expr::Not(Box::new(inl)) } else { inl });
        }
        if self.eat_kw("BETWEEN") {
            let lo = self.operand()?;
            self.expect_kw("AND")?;
            let hi = self.operand()?;
            let range = Expr::And(
                Box::new(Expr::Cmp(CmpOp::Ge, Box::new(left.clone()), Box::new(lo))),
                Box::new(Expr::Cmp(CmpOp::Le, Box::new(left), Box::new(hi))),
            );
            return Ok(if negated { Expr::Not(Box::new(range)) } else { range });
        }
        if negated {
            return Err(self.err("expected LIKE, IN or BETWEEN after NOT"));
        }
        let op = match self.peek() {
            Some(TokenKind::Punct(Punct::Eq)) => Some(CmpOp::Eq),
            Some(TokenKind::Punct(Punct::Ne)) => Some(CmpOp::Ne),
            Some(TokenKind::Punct(Punct::Lt)) => Some(CmpOp::Lt),
            Some(TokenKind::Punct(Punct::Le)) => Some(CmpOp::Le),
            Some(TokenKind::Punct(Punct::Gt)) => Some(CmpOp::Gt),
            Some(TokenKind::Punct(Punct::Ge)) => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.operand()?;
            return Ok(Expr::Cmp(op, Box::new(left), Box::new(right)));
        }
        Ok(left)
    }

    fn operand(&mut self) -> Result<Expr> {
        if self.eat_punct(Punct::LParen) {
            self.enter()?;
            let e = self.expr();
            self.depth -= 1;
            let e = e?;
            self.expect_punct(Punct::RParen)?;
            return Ok(e);
        }
        match self.peek() {
            Some(TokenKind::Param) => {
                self.pos += 1;
                let i = self.params;
                self.params += 1;
                Ok(Expr::Param(i))
            }
            Some(TokenKind::Int(_) | TokenKind::Float(_) | TokenKind::Str(_)) => {
                Ok(Expr::Literal(self.literal_value()?))
            }
            Some(TokenKind::Ident(s)) => {
                let up = s.to_ascii_uppercase();
                match up.as_str() {
                    "NULL" => {
                        self.pos += 1;
                        Ok(Expr::Literal(Value::Null))
                    }
                    "TRUE" => {
                        self.pos += 1;
                        Ok(Expr::Literal(Value::Bool(true)))
                    }
                    "FALSE" => {
                        self.pos += 1;
                        Ok(Expr::Literal(Value::Bool(false)))
                    }
                    "DATE" | "TIME" | "TIMESTAMP" | "DATETIME"
                        if matches!(
                            self.tokens.get(self.pos + 1).map(|t| &t.kind),
                            Some(TokenKind::Str(_))
                        ) =>
                    {
                        self.pos += 1;
                        let s = match self.next() {
                            Some(TokenKind::Str(s)) => s,
                            _ => unreachable!("peeked"),
                        };
                        let v = match up.as_str() {
                            "DATE" => Value::Date(Date::parse(&s)?),
                            "TIME" => Value::Time(Time::parse(&s)?),
                            _ => Value::DateTime(DateTime::parse(&s)?),
                        };
                        Ok(Expr::Literal(v))
                    }
                    _ => {
                        let (table, column) = self.column_name()?;
                        Ok(Expr::Column { table, column })
                    }
                }
            }
            Some(TokenKind::QuotedIdent(_)) => {
                let (table, column) = self.column_name()?;
                Ok(Expr::Column { table, column })
            }
            _ => Err(self.err("expected an operand")),
        }
    }

    fn literal_value(&mut self) -> Result<Value> {
        match self.next() {
            Some(TokenKind::Int(n)) => Ok(Value::Int(n)),
            Some(TokenKind::Float(x)) => Ok(Value::Float(x)),
            Some(TokenKind::Str(s)) => Ok(Value::from(s)),
            Some(TokenKind::Ident(s)) if s.eq_ignore_ascii_case("NULL") => Ok(Value::Null),
            Some(TokenKind::Ident(s)) if s.eq_ignore_ascii_case("TRUE") => Ok(Value::Bool(true)),
            Some(TokenKind::Ident(s)) if s.eq_ignore_ascii_case("FALSE") => Ok(Value::Bool(false)),
            _ => Err(self.err("expected a literal")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_create_table() {
        let s = parse(
            "CREATE TABLE IF NOT EXISTS logical_files (
                id INTEGER PRIMARY KEY AUTO_INCREMENT,
                name VARCHAR(255) NOT NULL UNIQUE,
                valid BOOLEAN DEFAULT TRUE,
                created DATETIME,
                size DOUBLE
            )",
        )
        .unwrap();
        match s {
            Statement::CreateTable { name, columns, primary_key, if_not_exists } => {
                assert_eq!(name, "logical_files");
                assert!(if_not_exists);
                assert!(primary_key.is_empty());
                assert_eq!(columns.len(), 5);
                assert!(columns[0].primary_key && columns[0].auto_increment);
                assert_eq!(columns[1].max_len, Some(255));
                assert!(columns[1].not_null && columns[1].unique);
                assert_eq!(columns[2].default, Some(Value::Bool(true)));
                assert_eq!(columns[3].ty, ValueType::DateTime);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_table_level_pk() {
        let s = parse("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))").unwrap();
        match s {
            Statement::CreateTable { primary_key, .. } => {
                assert_eq!(primary_key, vec!["a", "b"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_create_index() {
        let s = parse("CREATE UNIQUE INDEX by_name ON files (name, version)").unwrap();
        assert_eq!(
            s,
            Statement::CreateIndex {
                name: "by_name".into(),
                table: "files".into(),
                columns: vec!["name".into(), "version".into()],
                unique: true,
            }
        );
    }

    #[test]
    fn parse_insert_multi_row_params() {
        let s = parse("INSERT INTO t (a, b) VALUES (?, 'x'), (2, ?)").unwrap();
        match s {
            Statement::Insert { table, columns, rows } => {
                assert_eq!(table, "t");
                assert_eq!(columns, vec!["a", "b"]);
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][0], Expr::Param(0));
                assert_eq!(rows[1][1], Expr::Param(1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_select_with_everything() {
        let s = parse(
            "SELECT f.name, COUNT(*) AS n FROM files f \
             JOIN attrs a ON f.id = a.file_id \
             WHERE a.name = 'channel' AND (a.value > 3.5 OR f.valid = TRUE) \
             ORDER BY f.name DESC LIMIT 10 OFFSET 5",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.items.len(), 2);
                assert_eq!(sel.from.alias.as_deref(), Some("f"));
                assert_eq!(sel.joins.len(), 1);
                assert!(sel.where_clause.is_some());
                assert_eq!(sel.order_by.len(), 1);
                assert!(sel.order_by[0].desc);
                assert_eq!(sel.limit, Some(10));
                assert_eq!(sel.offset, Some(5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_predicates() {
        let s = parse("SELECT * FROM t WHERE a LIKE 'x%' AND b IS NOT NULL AND c IN (1, 2) AND d BETWEEN 1 AND 5 AND e NOT LIKE 'y%'").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        let w = sel.where_clause.unwrap();
        // nested AND tree: 4 plain predicates plus BETWEEN desugared
        // into (d >= 1 AND d <= 5) = 6 leaves total
        fn count_leaves(e: &Expr) -> usize {
            match e {
                Expr::And(a, b) => count_leaves(a) + count_leaves(b),
                _ => 1,
            }
        }
        assert_eq!(count_leaves(&w), 6);
    }

    #[test]
    fn parse_typed_literals() {
        let s = parse("SELECT * FROM t WHERE d = DATE '2003-11-15' AND ts < TIMESTAMP '2003-11-15 08:00:00'").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        let w = sel.where_clause.unwrap();
        let Expr::And(a, b) = w else { panic!() };
        assert!(matches!(*a, Expr::Cmp(CmpOp::Eq, _, ref r) if matches!(**r, Expr::Literal(Value::Date(_)))));
        assert!(matches!(*b, Expr::Cmp(CmpOp::Lt, _, ref r) if matches!(**r, Expr::Literal(Value::DateTime(_)))));
    }

    #[test]
    fn parse_update_delete_txn() {
        assert!(matches!(
            parse("UPDATE t SET a = 1, b = ? WHERE c = 2").unwrap(),
            Statement::Update { ref sets, .. } if sets.len() == 2
        ));
        assert!(matches!(
            parse("DELETE FROM t WHERE a = 1").unwrap(),
            Statement::Delete { .. }
        ));
        // transactions are `Database::transaction`, not statements
        for sql in ["BEGIN", "START TRANSACTION", "COMMIT", "ROLLBACK"] {
            assert!(parse(sql).is_err(), "{sql}");
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse("SELEC * FROM t").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT * FROM t extra tokens here").is_err());
        assert!(parse("CREATE TABLE t (a BLOB)").is_err());
        assert!(parse("SELECT MIN(*) FROM t").is_err());
    }

    #[test]
    fn mysql_limit_offset_comma_form() {
        let Statement::Select(sel) = parse("SELECT * FROM t LIMIT 5, 10").unwrap() else {
            panic!()
        };
        assert_eq!(sel.offset, Some(5));
        assert_eq!(sel.limit, Some(10));
    }
}
