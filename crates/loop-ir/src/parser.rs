//! A textual frontend: a C-like mini-language for loop-nest programs.
//!
//! The paper lifts its symbolic representation from LLVM IR through Polly;
//! this crate instead accepts a small, explicit source language whose
//! constructs map one-to-one onto the IR. [`Program`]'s `Display` writes
//! it and [`crate::source::to_source`] is the parser's inverse, so programs
//! round-trip through text.
//!
//! ```text
//! program gemm {
//!   param NI = 1000; param NJ = 1100; param NK = 1200;
//!   scalar alpha = 1.5; scalar beta = 1.2;
//!   array A[NI][NK]; array B[NK][NJ]; array C[NI][NJ];
//!   for i in 0..NI {
//!     for j in 0..NJ {
//!       C[i][j] = C[i][j] * beta;
//!       for k in 0..NK {
//!         C[i][j] += alpha * A[i][k] * B[k][j];
//!       }
//!     }
//!   }
//! }
//! ```

use std::collections::BTreeMap;

use crate::array::{Array, ArrayRef};
use crate::error::{IrError, Result};
use crate::expr::{Expr, Var};
use crate::nest::{Computation, Loop, LoopSchedule, Node};
use crate::program::Program;
use crate::scalar::{BinOp, ScalarExpr, UnaryOp};

/// Parses a complete program from source text.
///
/// # Errors
/// Returns [`IrError::Parse`] with line/column information on syntax errors,
/// and validation errors from [`Program::validate`] for semantic problems:
/// the program is validated once, by [`ProgramBuilder::build`].
///
/// [`ProgramBuilder::build`]: crate::builder::ProgramBuilder::build
pub fn parse_program(source: &str) -> Result<Program> {
    let tokens = Lexer::new(source).tokenize()?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        next_comp: 0,
        depth: 0,
        names: BTreeMap::new(),
    };
    parser.program()
}

/// How deep parentheses, unary minus, calls, `for` blocks and the operators
/// of a left-deep chain (`1 + 1 + …`) may nest below a top-level statement,
/// all counted together. The parser recurses once per level, as does every
/// pass over the tree it builds; hostile input gets an error, not a stack
/// overflow. The NumPy frontend holds the trees its builder makes to the same
/// limit.
pub(crate) const MAX_NESTING: usize = 256;

/// Identifiers are slices of the source text.
#[derive(Clone, Copy, Debug, PartialEq)]
enum TokenKind<'a> {
    Ident(&'a str),
    Int(i64),
    Float(f64),
    Symbol(&'static str),
    Eof,
}

#[derive(Clone, Copy, Debug)]
struct Token<'a> {
    kind: TokenKind<'a>,
    line: usize,
    column: usize,
}

/// Walks the source by byte offset (`pos` is always a character boundary):
/// the language is ASCII, so a character is decoded only to skip Unicode
/// whitespace or to name a stray one in an error. Columns count characters.
struct Lexer<'a> {
    source: &'a str,
    pos: usize,
    line: usize,
    column: usize,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            source,
            pos: 0,
            line: 1,
            column: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> IrError {
        IrError::Parse {
            message: message.into(),
            line: self.line,
            column: self.column,
        }
    }

    fn peek(&self) -> Option<char> {
        match *self.source.as_bytes().get(self.pos)? {
            byte if byte.is_ascii() => Some(char::from(byte)),
            _ => self.source[self.pos..].chars().next(),
        }
    }

    /// True if `byte` follows the current, one-byte character.
    fn next_is(&self, byte: u8) -> bool {
        self.source.as_bytes().get(self.pos + 1) == Some(&byte)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(c)
    }

    fn tokenize(mut self) -> Result<Vec<Token<'a>>> {
        let mut tokens = Vec::new();
        loop {
            self.skip_whitespace_and_comments();
            let (line, column) = (self.line, self.column);
            let start = self.pos;
            let Some(c) = self.peek() else {
                tokens.push(Token {
                    kind: TokenKind::Eof,
                    line,
                    column,
                });
                return Ok(tokens);
            };
            let kind = if c.is_ascii_alphabetic() || c == '_' {
                while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '_') {
                    self.bump();
                }
                TokenKind::Ident(&self.source[start..self.pos])
            } else if c.is_ascii_digit() {
                let mut is_float = false;
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() {
                        self.bump();
                    } else if c == '.' && !is_float && !self.next_is(b'.') {
                        is_float = true;
                        self.bump();
                    } else if (c == 'e' || c == 'E') && is_float {
                        self.bump();
                        if matches!(self.peek(), Some('+') | Some('-')) {
                            self.bump();
                        }
                    } else {
                        break;
                    }
                }
                let text = &self.source[start..self.pos];
                if is_float {
                    TokenKind::Float(
                        text.parse()
                            .map_err(|_| self.error(format!("invalid float literal `{text}`")))?,
                    )
                } else {
                    TokenKind::Int(
                        text.parse()
                            .map_err(|_| self.error(format!("invalid integer literal `{text}`")))?,
                    )
                }
            } else {
                self.symbol(c)?
            };
            tokens.push(Token { kind, line, column });
        }
    }

    fn skip_whitespace_and_comments(&mut self) {
        loop {
            while matches!(self.peek(), Some(c) if c.is_whitespace()) {
                self.bump();
            }
            if self.peek() == Some('/') && self.next_is(b'/') {
                while matches!(self.peek(), Some(c) if c != '\n') {
                    self.bump();
                }
            } else {
                return;
            }
        }
    }

    /// The symbol starting at the current character `c`.
    fn symbol(&mut self, c: char) -> Result<TokenKind<'a>> {
        const TWO_CHAR: [&str; 9] = ["+=", "-=", "*=", "/=", "..", "<=", ">=", "==", "!="];
        let rest = &self.source.as_bytes()[self.pos..];
        if let Some(sym) = TWO_CHAR.iter().find(|sym| rest.starts_with(sym.as_bytes())) {
            self.bump();
            self.bump();
            return Ok(TokenKind::Symbol(sym));
        }
        let sym = match c {
            '{' => "{",
            '}' => "}",
            '[' => "[",
            ']' => "]",
            '(' => "(",
            ')' => ")",
            ';' => ";",
            ',' => ",",
            '=' => "=",
            '+' => "+",
            '-' => "-",
            '*' => "*",
            '/' => "/",
            '%' => "%",
            '<' => "<",
            '>' => ">",
            '?' => "?",
            ':' => ":",
            '#' => "#",
            _ => return Err(self.error(format!("unexpected character `{c}`"))),
        };
        self.bump();
        Ok(TokenKind::Symbol(sym))
    }
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    next_comp: u32,
    /// Open nesting levels, against [`MAX_NESTING`].
    depth: usize,
    /// One shared [`Var`] per distinct identifier of the parse.
    names: BTreeMap<&'a str, Var>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Token<'a> {
        self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn error(&self, message: impl Into<String>) -> IrError {
        let tok = self.peek();
        IrError::Parse {
            message: message.into(),
            line: tok.line,
            column: tok.column,
        }
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    /// Opens one more nesting level, refusing the level past [`MAX_NESTING`]
    /// at the token that would open it.
    fn open_level(&mut self) -> Result<()> {
        if self.depth == MAX_NESTING {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Parses one more nesting level with `parse`.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.open_level()?;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn eat_symbol(&mut self, sym: &str) -> Result<()> {
        match self.peek().kind {
            TokenKind::Symbol(s) if s == sym => {
                self.bump();
                Ok(())
            }
            other => Err(self.error(format!("expected `{sym}`, found {other:?}"))),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<()> {
        match self.peek().kind {
            TokenKind::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => Err(self.error(format!("expected `{kw}`, found {other:?}"))),
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek().kind, TokenKind::Ident(s) if s == kw)
    }

    fn peek_symbol(&self, sym: &str) -> bool {
        matches!(self.peek().kind, TokenKind::Symbol(s) if s == sym)
    }

    fn ident(&mut self) -> Result<&'a str> {
        match self.peek().kind {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    /// The shared variable named `name`.
    fn var(&mut self, name: &'a str) -> Var {
        self.names
            .entry(name)
            .or_insert_with(|| Var::new(name))
            .clone()
    }

    /// An identifier as a shared variable.
    fn ident_var(&mut self) -> Result<Var> {
        let name = self.ident()?;
        Ok(self.var(name))
    }

    fn int(&mut self) -> Result<i64> {
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.bump();
                Ok(v)
            }
            other => Err(self.error(format!("expected integer literal, found {other:?}"))),
        }
    }

    fn number(&mut self) -> Result<f64> {
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.bump();
                Ok(v as f64)
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(v)
            }
            TokenKind::Symbol("-") => {
                self.bump();
                Ok(-self.nested(Self::number)?)
            }
            other => Err(self.error(format!("expected number, found {other:?}"))),
        }
    }

    fn program(&mut self) -> Result<Program> {
        self.eat_keyword("program")?;
        let name = self.ident()?;
        self.eat_symbol("{")?;
        let mut builder = Program::builder(name);
        loop {
            if self.peek_symbol("}") {
                self.bump();
                break;
            }
            if self.peek_keyword("param") {
                self.bump();
                let name = self.ident_var()?;
                self.eat_symbol("=")?;
                let value = self.int()?;
                self.eat_symbol(";")?;
                builder = builder.param_var(name, value);
            } else if self.peek_keyword("scalar") {
                self.bump();
                let name = self.ident_var()?;
                self.eat_symbol("=")?;
                let value = self.number()?;
                self.eat_symbol(";")?;
                builder = builder.scalar_var(name, value);
            } else if self.peek_keyword("array") {
                self.bump();
                let name = self.ident_var()?;
                let dims = self.subscripts()?;
                self.eat_symbol(";")?;
                builder = builder.array_var(Array::new(name, dims));
            } else {
                let node = self.statement()?;
                builder = builder.node(node);
            }
        }
        match self.peek().kind {
            TokenKind::Eof => {}
            other => return Err(self.error(format!("expected end of input, found {other:?}"))),
        }
        // Duplicate declarations and semantic validation are reported by the
        // builder / validator with their own error variants.
        builder.build()
    }

    fn statement(&mut self) -> Result<Node> {
        let mut schedule = LoopSchedule::sequential();
        if self.peek_symbol("#") {
            self.bump();
            self.eat_keyword("pragma")?;
            while let TokenKind::Ident(word) = self.peek().kind {
                match word {
                    "parallel" => {
                        schedule.parallel = true;
                        self.bump();
                    }
                    "simd" => {
                        schedule.vectorize = true;
                        self.bump();
                    }
                    _ => break,
                }
            }
        }
        if self.peek_keyword("for") {
            self.for_loop(schedule)
        } else {
            self.assignment()
        }
    }

    fn for_loop(&mut self, schedule: LoopSchedule) -> Result<Node> {
        self.eat_keyword("for")?;
        let iter = self.ident_var()?;
        self.eat_keyword("in")?;
        let lower = self.expr()?;
        self.eat_symbol("..")?;
        let upper = self.expr()?;
        let step = if self.peek_keyword("step") {
            self.bump();
            self.int()?
        } else {
            1
        };
        self.eat_symbol("{")?;
        let mut body = Vec::new();
        while !self.peek_symbol("}") {
            body.push(self.nested(Self::statement)?);
        }
        self.eat_symbol("}")?;
        let mut l = Loop::new(iter, lower, upper, body);
        l.step = step;
        l.schedule = schedule;
        Ok(Node::Loop(l))
    }

    fn assignment(&mut self) -> Result<Node> {
        let target = self.array_ref()?;
        let reduction = if self.peek_symbol("+=") {
            self.bump();
            Some(BinOp::Add)
        } else if self.peek_symbol("-=") {
            self.bump();
            Some(BinOp::Sub)
        } else if self.peek_symbol("*=") {
            self.bump();
            Some(BinOp::Mul)
        } else if self.peek_symbol("/=") {
            self.bump();
            Some(BinOp::Div)
        } else {
            self.eat_symbol("=")?;
            None
        };
        let value = self.scalar_expr()?;
        self.eat_symbol(";")?;
        let name = format!("S{}", self.next_comp);
        self.next_comp += 1;
        let comp = match reduction {
            Some(op) => Computation::reduction(name, target, op, value),
            None => Computation::assign(name, target, value),
        };
        Ok(Node::Computation(comp))
    }

    fn array_ref(&mut self) -> Result<ArrayRef> {
        let name = self.ident_var()?;
        Ok(ArrayRef::new(name, self.subscripts()?))
    }

    /// `([expr])*`: the subscripts of a reference, the extents of a
    /// declaration.
    fn subscripts(&mut self) -> Result<Vec<Expr>> {
        let mut indices = Vec::new();
        while self.peek_symbol("[") {
            self.bump();
            indices.push(self.expr()?);
            self.eat_symbol("]")?;
        }
        Ok(indices)
    }

    /// Parses `operand (op operand)*` over the operators `ops` into a
    /// left-deep tree. Each operator puts everything before it one level
    /// deeper, so it counts against [`MAX_NESTING`] like a parenthesis until
    /// the chain ends.
    fn chain<T>(
        &mut self,
        ops: &[&'static str],
        operand: fn(&mut Self) -> Result<T>,
        combine: fn(&str, T, T) -> T,
    ) -> Result<T> {
        let outer = self.depth;
        let mut parse = || {
            let mut lhs = operand(self)?;
            while let Some(&op) = ops.iter().find(|op| self.peek_symbol(op)) {
                self.open_level()?;
                self.bump();
                lhs = combine(op, lhs, operand(self)?);
            }
            Ok(lhs)
        };
        let parsed = parse();
        self.depth = outer;
        parsed
    }

    // Integer (index) expressions: + - * / % with standard precedence.
    fn expr(&mut self) -> Result<Expr> {
        self.chain(&["+", "-"], Self::term, |op, a, b| match op {
            "+" => a + b,
            _ => a - b,
        })
    }

    fn term(&mut self) -> Result<Expr> {
        self.chain(&["*", "/", "%"], Self::factor, |op, a, b| match op {
            "*" => a * b,
            "/" => Expr::Div(Box::new(a), Box::new(b)),
            _ => Expr::Mod(Box::new(a), Box::new(b)),
        })
    }

    fn factor(&mut self) -> Result<Expr> {
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Const(v))
            }
            TokenKind::Ident(name) => {
                self.bump();
                Ok(Expr::Var(self.var(name)))
            }
            TokenKind::Symbol("-") => {
                self.bump();
                Ok(-self.nested(Self::factor)?)
            }
            TokenKind::Symbol("(") => {
                self.bump();
                let e = self.nested(Self::expr)?;
                self.eat_symbol(")")?;
                Ok(e)
            }
            other => Err(self.error(format!("expected index expression, found {other:?}"))),
        }
    }

    // Scalar expressions: + - * / with precedence, unary minus, calls.
    fn scalar_expr(&mut self) -> Result<ScalarExpr> {
        self.chain(&["+", "-"], Self::scalar_term, |op, a, b| match op {
            "+" => a + b,
            _ => a - b,
        })
    }

    fn scalar_term(&mut self) -> Result<ScalarExpr> {
        self.chain(&["*", "/"], Self::scalar_factor, |op, a, b| match op {
            "*" => a * b,
            _ => a / b,
        })
    }

    fn scalar_factor(&mut self) -> Result<ScalarExpr> {
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.bump();
                Ok(ScalarExpr::Const(v as f64))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(ScalarExpr::Const(v))
            }
            TokenKind::Symbol("-") => {
                self.bump();
                Ok(-self.nested(Self::scalar_factor)?)
            }
            TokenKind::Symbol("(") => {
                self.bump();
                let e = self.nested(Self::scalar_expr)?;
                self.eat_symbol(")")?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.peek_symbol("(") {
                    self.nested(|parser| parser.call(name))
                } else if self.peek_symbol("[") {
                    let name = self.var(name);
                    Ok(ScalarExpr::Load(ArrayRef::new(name, self.subscripts()?)))
                } else {
                    // A bare identifier in scalar position is a scalar
                    // parameter (alpha, beta, …); iterators must be wrapped
                    // in `index(...)`.
                    Ok(ScalarExpr::Param(self.var(name)))
                }
            }
            other => Err(self.error(format!("expected scalar expression, found {other:?}"))),
        }
    }

    fn call(&mut self, name: &str) -> Result<ScalarExpr> {
        self.eat_symbol("(")?;
        let mut args = Vec::new();
        if !self.peek_symbol(")") {
            loop {
                if name == "index" {
                    args.push(ScalarExpr::Index(self.expr()?));
                } else {
                    args.push(self.scalar_expr()?);
                }
                if self.peek_symbol(",") {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.eat_symbol(")")?;
        let arity_error = |expected: usize| {
            self.error(format!(
                "`{name}` expects {expected} argument(s), found {}",
                args.len()
            ))
        };
        let unary = |op: UnaryOp, mut args: Vec<ScalarExpr>| {
            ScalarExpr::Unary(op, Box::new(args.remove(0)))
        };
        match name {
            "sqrt" | "exp" | "log" | "abs" => {
                if args.len() != 1 {
                    return Err(arity_error(1));
                }
                let op = match name {
                    "sqrt" => UnaryOp::Sqrt,
                    "exp" => UnaryOp::Exp,
                    "log" => UnaryOp::Log,
                    _ => UnaryOp::Abs,
                };
                Ok(unary(op, args))
            }
            "min" | "max" | "pow" => {
                if args.len() != 2 {
                    return Err(arity_error(2));
                }
                let op = match name {
                    "min" => BinOp::Min,
                    "max" => BinOp::Max,
                    _ => BinOp::Pow,
                };
                let b = args.pop().unwrap();
                let a = args.pop().unwrap();
                Ok(ScalarExpr::Binary(op, Box::new(a), Box::new(b)))
            }
            "index" => {
                if args.len() != 1 {
                    return Err(arity_error(1));
                }
                Ok(args.remove(0))
            }
            other => Err(self.error(format!("unknown function `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Var;

    const GEMM: &str = r#"
        program gemm {
          param NI = 8; param NJ = 9; param NK = 10;
          scalar alpha = 1.5; scalar beta = 1.2;
          array A[NI][NK]; array B[NK][NJ]; array C[NI][NJ];
          for i in 0..NI {
            for j in 0..NJ {
              C[i][j] = C[i][j] * beta;
              for k in 0..NK {
                C[i][j] += alpha * A[i][k] * B[k][j];
              }
            }
          }
        }
    "#;

    #[test]
    fn parses_gemm() {
        let p = parse_program(GEMM).unwrap();
        assert_eq!(p.name, "gemm");
        assert_eq!(p.param("NI"), Some(8));
        assert_eq!(p.scalar_param("alpha"), Some(1.5));
        assert_eq!(p.computations().len(), 2);
        assert_eq!(p.max_depth(), 3);
        let update = p.computations()[1];
        assert_eq!(update.reduction, Some(BinOp::Add));
        assert_eq!(update.access_count(), 4, "three reads and the write");
    }

    #[test]
    fn parses_pragmas_and_steps() {
        let src = r#"
            program p {
              param N = 64;
              array A[N];
              #pragma parallel simd
              for i in 0..N step 4 {
                A[i] = 1.0;
              }
            }
        "#;
        let p = parse_program(src).unwrap();
        let l = p.loop_nests()[0];
        assert!(l.schedule.parallel);
        assert!(l.schedule.vectorize);
        assert_eq!(l.step, 4);
    }

    #[test]
    fn parses_functions_and_index() {
        let src = r#"
            program p {
              param N = 4;
              array A[N]; array B[N];
              for i in 0..N {
                B[i] = max(sqrt(A[i]), 0.0) + exp(A[i]) + index(i * 2);
              }
            }
        "#;
        let p = parse_program(src).unwrap();
        let c = p.computations()[0];
        assert_eq!(c.value.load_count(), 2);
        let mut index_vars = Vec::new();
        c.value
            .for_each_index_var(&mut |v| index_vars.push(v.clone()));
        assert!(index_vars.contains(&Var::new("i")));
    }

    #[test]
    fn parses_negative_index_offsets() {
        let src = r#"
            program p {
              param N = 8;
              array A[N]; array B[N];
              for i in 1..N - 1 {
                B[i] = A[i - 1] + A[i + 1];
              }
            }
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(
            p.computations()[0].access_count(),
            3,
            "two reads and the write"
        );
    }

    #[test]
    fn comments_are_skipped() {
        let src = "program p { // nothing here\n param N = 1; // trailing\n }";
        assert!(parse_program(src).is_ok());
    }

    #[test]
    fn syntax_error_reports_location() {
        let err = parse_program("program p { param N 3; }").unwrap_err();
        match err {
            IrError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        // A no-break space (two bytes, Unicode whitespace) before the error.
        let err = parse_program("program p {\u{a0}param N 3; }").unwrap_err();
        assert!(
            matches!(&err, IrError::Parse { message, line: 1, column: 21 }
                if message == "expected `=`, found Int(3)"),
            "{err:?}"
        );
        // Non-ASCII text is fine inside a comment and an error outside one.
        assert!(parse_program("program p { // naïve\n }").is_ok());
        let err = parse_program("program p { é }").unwrap_err();
        assert!(
            matches!(&err, IrError::Parse { message, line: 1, column: 13 }
                if message == "unexpected character `é`"),
            "{err:?}"
        );
    }

    fn parse_error_position(source: &str) -> (String, usize, usize) {
        match parse_program(source) {
            Err(IrError::Parse {
                message,
                line,
                column,
            }) => (message, line, column),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn expression_nesting_is_limited() {
        let wrap = |open: &str, levels: usize, close: &str| {
            format!(
                "program p {{ param N = 2; array A[N];\n for i in 0..N {{ A[{}i{}] = {}1.0{}; }} }}",
                open.repeat(levels),
                close.repeat(levels),
                open.repeat(levels),
                close.repeat(levels),
            )
        };
        assert!(parse_program(&wrap("(", 100, ")")).is_ok());
        assert!(parse_program(&wrap("-", 100, "")).is_ok());
        // One `for` level plus 256 parentheses: the index expression hits the
        // limit first, behind its last `(` (they start at 2:20).
        let (message, line, column) = parse_error_position(&wrap("(", 256, ")"));
        assert_eq!(message, "nesting deeper than 256 levels");
        assert_eq!((line, column), (2, 20 + 256));
        // Far past any stack: an error, not an abort.
        for (open, close) in [("(", ")"), ("-", ""), ("sqrt(", ")")] {
            let source = format!(
                "program p {{ param N = 2; array A[N]; for i in 0..N {{ A[i] = {}1.0{}; }} }}",
                open.repeat(200_000),
                close.repeat(200_000)
            );
            let (message, line, _) = parse_error_position(&source);
            assert_eq!(message, "nesting deeper than 256 levels");
            assert_eq!(line, 1);
        }
        let (message, ..) = parse_error_position(&format!(
            "program p {{ scalar a = {}1.0; }}",
            "-".repeat(200_000)
        ));
        assert_eq!(message, "nesting deeper than 256 levels");
    }

    #[test]
    fn left_deep_chains_count_as_nesting() {
        let chain = |subscript: &str, value: &str, terms: usize| {
            format!(
                "program p {{ param N = 2; array A[N];\n for i in 0..N {{ A[{}i] = {}; }} }}",
                subscript.repeat(terms - 1),
                vec![value; terms].join("+"),
            )
        };
        assert!(parse_program(&chain("0+", "1.0", 200)).is_ok());
        assert!(parse_program(&chain("1*", "2.0*1.0", 100)).is_ok());
        // Inside the `for` body the 256th `+` of the value is one level too
        // many; `1.0+` is four columns wide and the value starts at 2:25.
        let (message, line, column) = parse_error_position(&chain("", "1.0", 300));
        assert_eq!(message, "nesting deeper than 256 levels");
        assert_eq!((line, column), (2, 24 + 4 * 256));
        // A 200 000-term chain in either position: an error, not an abort.
        for source in [chain("1+", "1.0", 200_000), chain("", "1.0", 200_000)] {
            let (message, line, _) = parse_error_position(&source);
            assert_eq!(message, "nesting deeper than 256 levels");
            assert_eq!(line, 2);
        }
    }

    #[test]
    fn block_nesting_is_limited() {
        let nest = |levels: usize| {
            let mut source = String::from("program p { param N = 2; array A[N];\n");
            for level in 0..levels {
                source.push_str(&format!("for i{level} in 0..N {{\n"));
            }
            source.push_str("A[0] = 1.0;\n");
            source.push_str(&"}".repeat(levels + 1));
            source
        };
        assert!(parse_program(&nest(200)).is_ok());
        let (message, line, column) = parse_error_position(&nest(100_000));
        assert_eq!(message, "nesting deeper than 256 levels");
        // The top-level `for` on line 2 is level 0: the first one refused
        // sits 257 levels down, first token of its line.
        assert_eq!((line, column), (2 + 257, 1));
    }

    #[test]
    fn unknown_function_is_rejected() {
        let src = "program p { param N = 2; array A[N]; for i in 0..N { A[i] = foo(1.0); } }";
        assert!(matches!(parse_program(src), Err(IrError::Parse { .. })));
    }

    #[test]
    fn semantic_errors_surface_from_validation() {
        let src = "program p { param N = 2; for i in 0..N { A[i] = 1.0; } }";
        assert_eq!(parse_program(src), Err(IrError::UnknownArray("A".into())));
    }

    #[test]
    fn an_extent_naming_an_undeclared_parameter_is_refused() {
        let src = "program p { param N = 4; array A[M]; array B[N]; \
                   for i in 0..N { B[i] = A[i] + 1.0; } }";
        assert_eq!(
            parse_program(src),
            Err(IrError::UnknownVariable("M".into()))
        );
        // Extents are declarations: no loop iterator is in scope there.
        let src = "program p { param N = 4; array A[i]; for i in 0..N { A[i] = 1.0; } }";
        assert_eq!(
            parse_program(src),
            Err(IrError::UnknownVariable("i".into()))
        );
        let src = "program p { param N = 4; array A[N * 2 + 1]; for i in 0..N { A[i] = 1.0; } }";
        assert!(parse_program(src).is_ok());
    }

    #[test]
    fn each_distinct_name_is_one_shared_variable() {
        let p = parse_program(GEMM).unwrap();
        let update = p.computations()[1];
        let mut names = Vec::new();
        update.for_each_access(|a| names.push(&a.array_ref.array));
        // `C` is read and written; both name the declaration's variable.
        let declared = p.arrays.keys().find(|k| k.as_str() == "C").unwrap();
        let c: Vec<_> = names.iter().filter(|n| n.as_str() == "C").collect();
        assert_eq!(c.len(), 2);
        assert!(c
            .iter()
            .all(|n| std::ptr::eq(n.as_str(), declared.as_str())));
    }

    #[test]
    fn printer_output_reparses() {
        let p = parse_program(GEMM).unwrap();
        assert_eq!(parse_program(&p.to_string()).unwrap(), p);
    }

    #[test]
    fn reduction_operators() {
        let src = r#"
            program p {
              param N = 4;
              array A[N]; array B[N];
              for i in 0..N {
                A[i] += B[i];
                A[i] -= B[i];
                A[i] *= B[i];
                A[i] /= B[i];
              }
            }
        "#;
        let p = parse_program(src).unwrap();
        let ops: Vec<Option<BinOp>> = p.computations().iter().map(|c| c.reduction).collect();
        assert_eq!(
            ops,
            vec![
                Some(BinOp::Add),
                Some(BinOp::Sub),
                Some(BinOp::Mul),
                Some(BinOp::Div)
            ]
        );
    }
}
