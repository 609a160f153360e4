//! Recursive-descent parser for the kernel DSL.

use super::lexer::{Token, TokenKind};
use crate::affine::AffineExpr;
use crate::decl::{ArrayDecl, ArrayKind, ScalarDecl};
use crate::error::{IrError, Result};
use crate::expr::{ArrayAccess, BinOp, Expr, UnOp};
use crate::kernel::Kernel;
use crate::name::Name;
use crate::span::{Span, SpanMap};
use crate::stmt::{LValue, Loop, Stmt};
use crate::types::ScalarType;

/// Control-flow keywords of C-family languages the DSL deliberately does
/// not support; naming them yields a targeted diagnostic (DF004) instead
/// of a generic syntax error.
const UNSUPPORTED_CONTROL_FLOW: &[&str] = &[
    "while", "do", "break", "continue", "switch", "goto", "return",
];

/// Maximum statement/expression nesting the parser accepts. Recursive
/// descent means nesting costs native stack; a pathological input
/// (`((((…))))`, `-----x`, or a thousand nested `for`s) must come back as
/// a parse diagnostic, not a stack overflow.
const MAX_NESTING: usize = 64;

pub(crate) struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    spans: SpanMap,
    depth: usize,
}

impl Parser {
    pub(crate) fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            spans: SpanMap::default(),
            depth: 0,
        }
    }

    /// Enter one nesting level (statement or expression recursion),
    /// rejecting inputs deeper than [`MAX_NESTING`].
    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            Err(self.error(format!("nesting deeper than {MAX_NESTING} levels")))
        } else {
            Ok(())
        }
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    /// The span side-table accumulated while parsing.
    pub(crate) fn take_spans(self) -> SpanMap {
        self.spans
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn here(&self) -> (usize, usize) {
        let t = &self.tokens[self.pos];
        (t.line, t.col)
    }

    /// Span of the current token.
    fn span_here(&self) -> Span {
        self.tokens[self.pos].span()
    }

    /// Span of the most recently consumed token.
    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span()
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        k
    }

    fn error(&self, msg: impl Into<String>) -> IrError {
        let (line, col) = self.here();
        IrError::Parse {
            line,
            col,
            msg: msg.into(),
        }
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<()> {
        if *self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(self.error(format!("expected {what}, found {other:?}"))),
        }
    }

    /// [`Self::expect_ident`] for a name inside the statement tree,
    /// copied once from the token.
    fn expect_name(&mut self, what: &str) -> Result<Name> {
        match self.peek() {
            TokenKind::Ident(name) => {
                let name = Name::from(name.as_str());
                self.bump();
                Ok(name)
            }
            other => {
                let msg = format!("expected {what}, found {other:?}");
                Err(self.error(msg))
            }
        }
    }

    fn expect_int(&mut self, what: &str) -> Result<i64> {
        // Allow a leading minus on integer positions (loop bounds).
        let neg = if *self.peek() == TokenKind::Minus {
            self.bump();
            true
        } else {
            false
        };
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(if neg { -v } else { v })
            }
            other => Err(self.error(format!("expected {what}, found {other:?}"))),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let TokenKind::Ident(name) = self.peek() {
            if name == kw {
                self.bump();
                return true;
            }
        }
        false
    }

    pub(crate) fn parse_kernel(&mut self) -> Result<Kernel> {
        if !self.eat_keyword("kernel") {
            return Err(self.error("expected `kernel`"));
        }
        let name_span = self.span_here();
        let name = self.expect_ident("kernel name")?;
        self.spans.record_kernel_name(name_span);
        self.expect(TokenKind::LBrace, "`{`")?;

        let mut arrays = Vec::new();
        let mut scalars = Vec::new();
        loop {
            let kind = if self.eat_keyword("in") {
                Some(ArrayKind::In)
            } else if self.eat_keyword("out") {
                Some(ArrayKind::Out)
            } else if self.eat_keyword("inout") {
                Some(ArrayKind::InOut)
            } else {
                None
            };
            if let Some(kind) = kind {
                arrays.push(self.parse_array_decl(kind)?);
            } else if self.eat_keyword("var") {
                scalars.push(self.parse_scalar_decl()?);
            } else {
                break;
            }
        }

        let mut body = Vec::new();
        while *self.peek() != TokenKind::RBrace {
            body.push(self.parse_stmt()?);
        }
        self.expect(TokenKind::RBrace, "`}`")?;
        if *self.peek() != TokenKind::Eof {
            return Err(self.error("unexpected trailing input after kernel"));
        }
        Kernel::new(name, arrays, scalars, body)
    }

    fn parse_array_decl(&mut self, kind: ArrayKind) -> Result<ArrayDecl> {
        let name_span = self.span_here();
        let name = self.expect_ident("array name")?;
        self.spans.record_decl(&name, name_span);
        self.expect(TokenKind::Colon, "`:`")?;
        let ty = self.parse_type()?;
        let mut dims = Vec::new();
        while *self.peek() == TokenKind::LBracket {
            self.bump();
            let d = self.expect_int("array extent")?;
            if d <= 0 {
                return Err(self.error("array extent must be positive"));
            }
            dims.push(d as usize);
            self.expect(TokenKind::RBracket, "`]`")?;
        }
        if dims.is_empty() {
            return Err(self.error("array declaration needs at least one dimension"));
        }
        let mut decl = ArrayDecl::new(name, ty, dims, kind);
        if self.eat_keyword("range") {
            let lo = self.expect_int("range lower bound")?;
            self.expect(TokenKind::DotDot, "`..`")?;
            let hi = self.expect_int("range upper bound")?;
            if lo > hi || decl.ty.wrap(lo) != lo || decl.ty.wrap(hi) != hi {
                return Err(self.error(format!("range {lo}..{hi} invalid for type {}", decl.ty)));
            }
            decl.range = Some((lo, hi));
        }
        self.expect(TokenKind::Semi, "`;`")?;
        Ok(decl)
    }

    fn parse_scalar_decl(&mut self) -> Result<ScalarDecl> {
        let name_span = self.span_here();
        let name = self.expect_ident("scalar name")?;
        self.spans.record_decl(&name, name_span);
        self.expect(TokenKind::Colon, "`:`")?;
        let ty = self.parse_type()?;
        self.expect(TokenKind::Semi, "`;`")?;
        Ok(ScalarDecl::new(name, ty))
    }

    fn parse_type(&mut self) -> Result<ScalarType> {
        let name = self.expect_ident("type name")?;
        name.parse()
            .map_err(|_| self.error(format!("unknown type `{name}`")))
    }

    fn parse_stmt(&mut self) -> Result<Stmt> {
        self.enter()?;
        let stmt = self.parse_stmt_inner();
        self.leave();
        stmt
    }

    fn parse_stmt_inner(&mut self) -> Result<Stmt> {
        match self.peek().clone() {
            TokenKind::Ident(kw) if kw == "for" => self.parse_for(),
            TokenKind::Ident(kw) if kw == "if" => self.parse_if(),
            TokenKind::Ident(kw) if kw == "rotate" => self.parse_rotate(),
            TokenKind::Ident(kw) if UNSUPPORTED_CONTROL_FLOW.contains(&kw.as_str()) => Err(self
                .error(format!(
                    "unsupported control flow `{kw}`; only `for` loops, structured \
                     `if` and assignments are allowed"
                ))),
            TokenKind::Ident(_) => self.parse_assign(),
            other => Err(self.error(format!("expected statement, found {other:?}"))),
        }
    }

    /// Parse a loop bound, which must be a constant integer; a symbolic
    /// bound gets a dedicated message that lint maps to DF003.
    fn parse_loop_bound(&mut self, what: &str) -> Result<i64> {
        if let TokenKind::Ident(name) = self.peek() {
            let name = name.clone();
            return Err(self.error(format!(
                "{what} must be a compile-time constant, found `{name}`"
            )));
        }
        self.expect_int(what)
    }

    fn parse_for(&mut self) -> Result<Stmt> {
        let for_span = self.span_here();
        if !self.eat_keyword("for") {
            return Err(self.error("expected `for`"));
        }
        let var = self.expect_name("loop variable")?;
        if !self.eat_keyword("in") {
            return Err(self.error("expected `in`"));
        }
        let lower = self.parse_loop_bound("loop lower bound")?;
        self.expect(TokenKind::DotDot, "`..`")?;
        let upper = self.parse_loop_bound("loop upper bound")?;
        let step = if self.eat_keyword("step") {
            self.expect_int("loop step")?
        } else {
            1
        };
        self.spans.record_loop(&var, for_span.to(self.prev_span()));
        self.expect(TokenKind::LBrace, "`{`")?;
        let mut body = Vec::new();
        while *self.peek() != TokenKind::RBrace {
            body.push(self.parse_stmt()?);
        }
        self.expect(TokenKind::RBrace, "`}`")?;
        Ok(Stmt::For(Loop {
            var,
            lower,
            upper,
            step,
            body,
        }))
    }

    fn parse_if(&mut self) -> Result<Stmt> {
        if !self.eat_keyword("if") {
            return Err(self.error("expected `if`"));
        }
        self.expect(TokenKind::LParen, "`(`")?;
        let cond = self.parse_expr()?;
        self.expect(TokenKind::RParen, "`)`")?;
        self.expect(TokenKind::LBrace, "`{`")?;
        let mut then_body = Vec::new();
        while *self.peek() != TokenKind::RBrace {
            then_body.push(self.parse_stmt()?);
        }
        self.expect(TokenKind::RBrace, "`}`")?;
        let mut else_body = Vec::new();
        if self.eat_keyword("else") {
            self.expect(TokenKind::LBrace, "`{`")?;
            while *self.peek() != TokenKind::RBrace {
                else_body.push(self.parse_stmt()?);
            }
            self.expect(TokenKind::RBrace, "`}`")?;
        }
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
        })
    }

    fn parse_rotate(&mut self) -> Result<Stmt> {
        if !self.eat_keyword("rotate") {
            return Err(self.error("expected `rotate`"));
        }
        self.expect(TokenKind::LParen, "`(`")?;
        let mut regs = vec![self.expect_name("register name")?];
        while *self.peek() == TokenKind::Comma {
            self.bump();
            regs.push(self.expect_name("register name")?);
        }
        self.expect(TokenKind::RParen, "`)`")?;
        self.expect(TokenKind::Semi, "`;`")?;
        Ok(Stmt::Rotate(regs.into()))
    }

    fn parse_assign(&mut self) -> Result<Stmt> {
        let name_span = self.span_here();
        let name = self.expect_name("assignment target")?;
        let lhs = if *self.peek() == TokenKind::LBracket {
            LValue::Array(self.parse_subscripts(name, name_span)?)
        } else {
            LValue::Scalar(name)
        };
        self.expect(TokenKind::Assign, "`=`")?;
        let rhs = self.parse_expr()?;
        self.expect(TokenKind::Semi, "`;`")?;
        Ok(Stmt::assign(lhs, rhs))
    }

    fn parse_subscripts(&mut self, array: Name, name_span: Span) -> Result<ArrayAccess> {
        let mut indices = Vec::new();
        while *self.peek() == TokenKind::LBracket {
            self.bump();
            let sub_start = self.span_here();
            let e = self.parse_expr()?;
            let sub_span = sub_start.to(self.prev_span());
            let affine = expr_to_affine(&e).ok_or_else(|| IrError::NonAffine {
                expr: crate::pretty::print_expr(&e, 0),
                span: sub_span,
            })?;
            indices.push(affine);
            self.expect(TokenKind::RBracket, "`]`")?;
        }
        let access = ArrayAccess::new(array, indices);
        self.spans
            .record_access(&access, name_span.to(self.prev_span()));
        Ok(access)
    }

    /// Expression parsing: ternary over precedence-climbing binary ops.
    fn parse_expr(&mut self) -> Result<Expr> {
        self.enter()?;
        let expr = self.parse_expr_inner();
        self.leave();
        expr
    }

    fn parse_expr_inner(&mut self) -> Result<Expr> {
        let cond = self.parse_binary(0)?;
        if *self.peek() == TokenKind::Question {
            self.bump();
            let t = self.parse_expr()?;
            self.expect(TokenKind::Colon, "`:`")?;
            let f = self.parse_expr()?;
            Ok(Expr::Select(Box::new(cond), Box::new(t), Box::new(f)))
        } else {
            Ok(cond)
        }
    }

    fn parse_binary(&mut self, min_prec: u8) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            let (op, prec) = match self.peek() {
                TokenKind::Star => (BinOp::Mul, 10),
                TokenKind::Slash => (BinOp::Div, 10),
                TokenKind::Percent => (BinOp::Rem, 10),
                TokenKind::Plus => (BinOp::Add, 9),
                TokenKind::Minus => (BinOp::Sub, 9),
                TokenKind::Shl => (BinOp::Shl, 8),
                TokenKind::Shr => (BinOp::Shr, 8),
                TokenKind::Lt => (BinOp::Lt, 7),
                TokenKind::Le => (BinOp::Le, 7),
                TokenKind::Gt => (BinOp::Gt, 7),
                TokenKind::Ge => (BinOp::Ge, 7),
                TokenKind::EqEq => (BinOp::Eq, 6),
                TokenKind::Ne => (BinOp::Ne, 6),
                TokenKind::Amp => (BinOp::And, 5),
                TokenKind::Caret => (BinOp::Xor, 4),
                TokenKind::Pipe => (BinOp::Or, 3),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.parse_binary(prec + 1)?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        self.enter()?;
        let expr = match self.peek().clone() {
            TokenKind::Minus => {
                self.bump();
                self.parse_unary()
                    .map(|e| Expr::Unary(UnOp::Neg, Box::new(e)))
            }
            TokenKind::Tilde => {
                self.bump();
                self.parse_unary()
                    .map(|e| Expr::Unary(UnOp::Not, Box::new(e)))
            }
            _ => self.parse_primary(),
        };
        self.leave();
        expr
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.peek() {
            &TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect(TokenKind::RParen, "`)`")?;
                Ok(e)
            }
            TokenKind::Ident(name) if name == "abs" && *self.peek2() == TokenKind::LParen => {
                self.bump();
                self.bump();
                let e = self.parse_expr()?;
                self.expect(TokenKind::RParen, "`)`")?;
                Ok(Expr::Unary(UnOp::Abs, Box::new(e)))
            }
            TokenKind::Ident(name) => {
                let name = Name::from(name.as_str());
                let name_span = self.span_here();
                self.bump();
                if *self.peek() == TokenKind::LBracket {
                    Ok(Expr::Load(self.parse_subscripts(name, name_span)?))
                } else {
                    Ok(Expr::Scalar(name))
                }
            }
            other => {
                let msg = format!("expected expression, found {other:?}");
                Err(self.error(msg))
            }
        }
    }
}

/// Normalize a parsed arithmetic expression into affine form, treating
/// every scalar read as a variable. Returns `None` if the expression is
/// not affine (variable*variable, division, shifts, comparisons, loads...).
pub(crate) fn expr_to_affine(e: &Expr) -> Option<AffineExpr> {
    match e {
        Expr::Int(v) => Some(AffineExpr::constant(*v)),
        Expr::Scalar(n) => Some(AffineExpr::var(n.clone())),
        Expr::Unary(UnOp::Neg, inner) => expr_to_affine(inner).map(|a| -a),
        Expr::Binary(BinOp::Add, a, b) => Some(expr_to_affine(a)? + expr_to_affine(b)?),
        Expr::Binary(BinOp::Sub, a, b) => Some(expr_to_affine(a)? - expr_to_affine(b)?),
        Expr::Binary(BinOp::Mul, a, b) => {
            let ea = expr_to_affine(a)?;
            let eb = expr_to_affine(b)?;
            if ea.is_constant() {
                Some(eb * ea.constant_term())
            } else if eb.is_constant() {
                Some(ea * eb.constant_term())
            } else {
                None
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::lexer::lex;

    fn parse_expr_str(src: &str) -> Expr {
        let mut p = Parser::new(lex(src).unwrap());
        p.parse_expr().unwrap()
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_expr_str("a + b * c");
        match e {
            Expr::Binary(BinOp::Add, _, rhs) => {
                assert!(matches!(*rhs, Expr::Binary(BinOp::Mul, _, _)))
            }
            _ => panic!(),
        }
    }

    #[test]
    fn left_associativity() {
        let e = parse_expr_str("a - b - c");
        match e {
            Expr::Binary(BinOp::Sub, lhs, _) => {
                assert!(matches!(*lhs, Expr::Binary(BinOp::Sub, _, _)))
            }
            _ => panic!(),
        }
    }

    #[test]
    fn affine_normalization() {
        let e = parse_expr_str("2*i + j - 3");
        let a = expr_to_affine(&e).unwrap();
        assert_eq!(a.coeff("i"), 2);
        assert_eq!(a.coeff("j"), 1);
        assert_eq!(a.constant_term(), -3);

        // i*2 (constant on the right) also works.
        let a2 = expr_to_affine(&parse_expr_str("i*2 - (j - 1)")).unwrap();
        assert_eq!(a2.coeff("i"), 2);
        assert_eq!(a2.coeff("j"), -1);
        assert_eq!(a2.constant_term(), 1);

        assert!(expr_to_affine(&parse_expr_str("i * j")).is_none());
        assert!(expr_to_affine(&parse_expr_str("i / 2")).is_none());
    }

    #[test]
    fn unary_chains() {
        let e = parse_expr_str("--x");
        assert_eq!(
            e,
            Expr::Unary(
                UnOp::Neg,
                Box::new(Expr::Unary(UnOp::Neg, Box::new(Expr::scalar("x"))))
            )
        );
    }
}
