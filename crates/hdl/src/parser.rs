//! Recursive-descent parser for the SCALD-style HDL.
//!
//! File structure:
//!
//! ```text
//! design NAME;
//! period 50.0;              -- ns
//! clock_unit 6.25;          -- ns
//! wire_delay 0.0 2.0;       -- default interconnection delay (ns)
//! precision_skew 1.0 1.0;   -- .P default skew magnitudes (ns)
//! clock_skew 5.0 5.0;       -- .C default skew magnitudes (ns)
//!
//! macro 'REG 10176' (SIZE=1) ('CK', I<0:SIZE-1>/P) -> (Q<0:SIZE-1>/P);
//!   reg delay=1.5:4.5 (CK, I) -> (Q);
//!   setup_hold setup=2.5 hold=1.5 (I, CK);
//! end;
//!
//! top;
//!   use 'REG 10176' SIZE=32 ('CLK .P2-3', 'W DATA .S0-6') -> ('R OUT');
//! end;
//!
//! case 'CONTROL SIGNAL' = 0;
//! case 'CONTROL SIGNAL' = 1;
//! ```
//!
//! Primitive keywords: `and or nand nor xor xnor not buf chg mux reg
//! reg_sr latch latch_sr delay const0 const1 setup_hold
//! setup_rise_hold_fall min_pulse_width`.

use crate::ast::*;
use crate::token::{lex, Spanned, Token};
use scald_wave::DelayRange;
use std::fmt;

/// A parse (or lex) error with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Explanation.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The primitive keywords recognized in statement position.
pub const PRIM_KEYWORDS: &[&str] = &[
    "and",
    "or",
    "nand",
    "nor",
    "xor",
    "xnor",
    "not",
    "buf",
    "chg",
    "mux",
    "reg",
    "reg_sr",
    "latch",
    "latch_sr",
    "delay",
    "const0",
    "const1",
    "setup_hold",
    "setup_rise_hold_fall",
    "min_pulse_width",
];

/// Parses HDL source text into a [`Design`].
///
/// # Errors
///
/// Returns the first lexical or syntactic error with its line number.
pub fn parse(src: &str) -> Result<Design, ParseError> {
    let tokens = lex(src).map_err(|e| ParseError {
        message: e.message,
        line: e.line,
    })?;
    Parser { tokens, pos: 0 }.design()
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn line(&self) -> u32 {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or(0, |s| s.line)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        self.pos += 1;
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: msg.into(),
            line: self.line(),
        })
    }

    fn expect(&mut self, want: &Token) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == want => {
                self.bump();
                Ok(())
            }
            other => {
                let found = other.map_or("end of file".to_owned(), ToString::to_string);
                self.err(format!("expected {want}, found {found}"))
            }
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Token::Ident(_)) => {
                if let Some(Token::Ident(s)) = self.bump() {
                    Ok(s)
                } else {
                    unreachable!()
                }
            }
            other => {
                let found = other.map_or("end of file".to_owned(), ToString::to_string);
                self.err(format!("expected identifier, found {found}"))
            }
        }
    }

    /// A name: quoted string or bare identifier.
    fn name(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Token::Quoted(_)) => {
                if let Some(Token::Quoted(s)) = self.bump() {
                    Ok(s)
                } else {
                    unreachable!()
                }
            }
            Some(Token::Ident(_)) => self.ident(),
            other => {
                let found = other.map_or("end of file".to_owned(), ToString::to_string);
                self.err(format!("expected a name, found {found}"))
            }
        }
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        let neg = if self.peek() == Some(&Token::Minus) {
            self.bump();
            true
        } else {
            false
        };
        match self.bump() {
            Some(Token::Number(n)) => Ok(if neg { -n } else { n }),
            other => {
                let found = other.map_or("end of file".to_owned(), |t| t.to_string());
                self.err(format!("expected a number, found {found}"))
            }
        }
    }

    fn design(&mut self) -> Result<Design, ParseError> {
        let mut design = Design {
            name: String::new(),
            period_ns: 0.0,
            clock_unit_ns: 0.0,
            wire_delay_ns: (0.0, 2.0),
            precision_skew_ns: (1.0, 1.0),
            clock_skew_ns: (5.0, 5.0),
            macros: Vec::new(),
            top: Vec::new(),
            cases: Vec::new(),
        };
        let mut saw_top = false;
        while let Some(tok) = self.peek() {
            match tok {
                Token::Ident(kw) => match kw.as_str() {
                    "design" => {
                        self.bump();
                        design.name = self.name()?;
                        // Multi-word bare design names: keep consuming idents.
                        while let Some(Token::Ident(_)) = self.peek() {
                            let part = self.ident()?;
                            design.name.push(' ');
                            design.name.push_str(&part);
                        }
                        self.expect(&Token::Semi)?;
                    }
                    "period" => {
                        self.bump();
                        design.period_ns = self.number()?;
                        self.expect(&Token::Semi)?;
                    }
                    "clock_unit" => {
                        self.bump();
                        design.clock_unit_ns = self.number()?;
                        self.expect(&Token::Semi)?;
                    }
                    "wire_delay" => {
                        self.bump();
                        // `wire_delay a b;` (default) — the per-signal form
                        // lives inside `top`.
                        let a = self.number()?;
                        let b = self.number()?;
                        if DelayRange::try_from_ns(a, b).is_none() {
                            return self.err(format!(
                                "wire delay {a} {b} is not a delay range (need 0 <= min <= max)"
                            ));
                        }
                        design.wire_delay_ns = (a, b);
                        self.expect(&Token::Semi)?;
                    }
                    "precision_skew" => {
                        self.bump();
                        let a = self.number()?.abs();
                        let b = self.number()?.abs();
                        design.precision_skew_ns = (a, b);
                        self.expect(&Token::Semi)?;
                    }
                    "clock_skew" => {
                        self.bump();
                        let a = self.number()?.abs();
                        let b = self.number()?.abs();
                        design.clock_skew_ns = (a, b);
                        self.expect(&Token::Semi)?;
                    }
                    "macro" => {
                        let m = self.macro_def()?;
                        design.macros.push(m);
                    }
                    "top" => {
                        self.bump();
                        self.expect(&Token::Semi)?;
                        design.top = self.stmt_block()?;
                        saw_top = true;
                    }
                    "case" => {
                        self.bump();
                        let mut assigns = Vec::new();
                        loop {
                            let name = self.name()?;
                            self.expect(&Token::Equals)?;
                            let v = self.number()?;
                            if v != 0.0 && v != 1.0 {
                                return self.err("case values must be 0 or 1");
                            }
                            assigns.push((name, v == 1.0));
                            if self.peek() == Some(&Token::Comma) {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                        self.expect(&Token::Semi)?;
                        design.cases.push(assigns);
                    }
                    other => {
                        return self.err(format!("unexpected {other:?} at file level"));
                    }
                },
                other => {
                    let other = other.clone();
                    return self.err(format!("unexpected {other} at file level"));
                }
            }
        }
        if design.period_ns <= 0.0 {
            return self.err("design must specify a positive `period`");
        }
        if design.clock_unit_ns <= 0.0 {
            return self.err("design must specify a positive `clock_unit`");
        }
        if !saw_top {
            return self.err("design has no `top;` block");
        }
        Ok(design)
    }

    fn macro_def(&mut self) -> Result<MacroDef, ParseError> {
        let line = self.line();
        self.expect(&Token::Ident("macro".to_owned()))?;
        let mut name = self.name()?;
        // Multi-word bare macro names (e.g. `macro REG 10176 (...)`).
        while let Some(Token::Ident(_)) = self.peek() {
            let part = self.ident()?;
            name.push(' ');
            name.push_str(&part);
        }
        // Optional parameter list: (SIZE=1, N=4) — detected by lookahead
        // for IDENT '=' inside the parens.
        let mut params = Vec::new();
        if self.peek() == Some(&Token::LParen) && self.looks_like_params() {
            self.bump();
            loop {
                let p = self.ident()?;
                let default = if self.peek() == Some(&Token::Equals) {
                    self.bump();
                    Some(self.number()? as i64)
                } else {
                    None
                };
                params.push((p, default));
                if self.peek() == Some(&Token::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
        }
        let inputs = self.port_list()?;
        self.expect(&Token::Arrow)?;
        let outputs = self.port_list()?;
        self.expect(&Token::Semi)?;
        let body = self.stmt_block()?;
        Ok(MacroDef {
            name,
            params,
            inputs,
            outputs,
            body,
            line,
        })
    }

    /// Lookahead: does the upcoming paren group contain `IDENT =`?
    fn looks_like_params(&self) -> bool {
        matches!(
            (
                self.tokens.get(self.pos + 1).map(|s| &s.token),
                self.tokens.get(self.pos + 2).map(|s| &s.token),
            ),
            (Some(Token::Ident(_)), Some(Token::Equals))
        )
    }

    fn port_list(&mut self) -> Result<Vec<Port>, ParseError> {
        self.expect(&Token::LParen)?;
        let mut ports = Vec::new();
        if self.peek() != Some(&Token::RParen) {
            loop {
                let conn = self.conn()?;
                ports.push(Port {
                    name: conn.name,
                    range: conn.range,
                });
                if self.peek() == Some(&Token::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&Token::RParen)?;
        Ok(ports)
    }

    fn stmt_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut stmts = Vec::new();
        loop {
            match self.peek() {
                Some(Token::Ident(kw)) if kw == "end" => {
                    self.bump();
                    self.expect(&Token::Semi)?;
                    return Ok(stmts);
                }
                Some(_) => stmts.push(self.stmt()?),
                None => return self.err("unexpected end of file; missing `end;`"),
            }
        }
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        let kw = match self.peek() {
            Some(Token::Ident(s)) => s.clone(),
            other => {
                let found = other.map_or("end of file".to_owned(), ToString::to_string);
                return self.err(format!("expected a statement, found {found}"));
            }
        };
        match kw.as_str() {
            "use" => {
                self.bump();
                let name = self.name()?;
                let attrs = self.attrs()?;
                let (inputs, outputs) = self.conn_groups()?;
                self.expect(&Token::Semi)?;
                Ok(Stmt::Use {
                    name,
                    attrs,
                    inputs,
                    outputs,
                    line,
                })
            }
            "signal" => {
                self.bump();
                let conn = self.conn()?;
                self.expect(&Token::Semi)?;
                Ok(Stmt::SignalDecl { conn, line })
            }
            "wire_delay" => {
                self.bump();
                let name = self.name()?;
                let min = self.number()?;
                let max = self.number()?;
                self.expect(&Token::Semi)?;
                Ok(Stmt::WireDelay {
                    name,
                    min,
                    max,
                    line,
                })
            }
            "wired_or" => {
                self.bump();
                let name = self.name()?;
                self.expect(&Token::Semi)?;
                Ok(Stmt::WiredOr { name, line })
            }
            k if PRIM_KEYWORDS.contains(&k) => {
                self.bump();
                let attrs = self.attrs()?;
                let (inputs, outputs) = self.conn_groups()?;
                self.expect(&Token::Semi)?;
                Ok(Stmt::Prim {
                    kind: kw,
                    attrs,
                    inputs,
                    outputs,
                    line,
                })
            }
            other => self.err(format!(
                "unknown statement {other:?} (expected a primitive keyword, `use`, \
                 `signal`, `wire_delay` or `end`)"
            )),
        }
    }

    fn attrs(&mut self) -> Result<Vec<(String, AttrVal)>, ParseError> {
        let mut attrs = Vec::new();
        while let Some(Token::Ident(_)) = self.peek() {
            // IDENT '=' value
            if !matches!(
                self.tokens.get(self.pos + 1).map(|s| &s.token),
                Some(Token::Equals)
            ) {
                break;
            }
            let key = self.ident()?;
            self.expect(&Token::Equals)?;
            let a = self.number()?;
            let val = if self.peek() == Some(&Token::Colon) {
                self.bump();
                let b = self.number()?;
                AttrVal::Range(a, b)
            } else {
                AttrVal::Num(a)
            };
            attrs.push((key, val));
        }
        Ok(attrs)
    }

    fn conn_groups(&mut self) -> Result<(Vec<ConnExpr>, Vec<ConnExpr>), ParseError> {
        let inputs = self.conn_list()?;
        let outputs = if self.peek() == Some(&Token::Arrow) {
            self.bump();
            self.conn_list()?
        } else {
            Vec::new()
        };
        Ok((inputs, outputs))
    }

    fn conn_list(&mut self) -> Result<Vec<ConnExpr>, ParseError> {
        self.expect(&Token::LParen)?;
        let mut conns = Vec::new();
        if self.peek() != Some(&Token::RParen) {
            loop {
                conns.push(self.conn()?);
                if self.peek() == Some(&Token::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&Token::RParen)?;
        Ok(conns)
    }

    /// `[-] name [<expr:expr>] [/P|/M] [&DIRS]`
    fn conn(&mut self) -> Result<ConnExpr, ParseError> {
        let invert = if self.peek() == Some(&Token::Minus) {
            self.bump();
            true
        } else {
            false
        };
        let name = self.name()?;
        let range = if self.peek() == Some(&Token::LAngle) {
            self.bump();
            let a = self.expr()?;
            self.expect(&Token::Colon)?;
            let b = self.expr()?;
            self.expect(&Token::RAngle)?;
            Some((a, b))
        } else {
            None
        };
        let scope = if self.peek() == Some(&Token::Slash) {
            self.bump();
            match self.ident()?.as_str() {
                "P" => Some(ScopeMark::Parameter),
                "M" => Some(ScopeMark::Local),
                other => return self.err(format!("expected /P or /M, found /{other}")),
            }
        } else {
            None
        };
        let directive = if let Some(Token::Directive(_)) = self.peek() {
            if let Some(Token::Directive(d)) = self.bump() {
                Some(d)
            } else {
                unreachable!()
            }
        } else {
            None
        };
        Ok(ConnExpr {
            invert,
            name,
            range,
            scope,
            directive,
        })
    }

    /// Additive/multiplicative expression over parameters and integers.
    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.term()?;
        loop {
            match self.peek() {
                Some(Token::Plus) => {
                    self.bump();
                    let rhs = self.term()?;
                    lhs = Expr::Add(Box::new(lhs), Box::new(rhs));
                }
                Some(Token::Minus) => {
                    self.bump();
                    let rhs = self.term()?;
                    lhs = Expr::Sub(Box::new(lhs), Box::new(rhs));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.factor()?;
        loop {
            match self.peek() {
                Some(Token::Star) => {
                    self.bump();
                    let rhs = self.factor()?;
                    lhs = Expr::Mul(Box::new(lhs), Box::new(rhs));
                }
                Some(Token::Slash) => {
                    // `/P` scope marks also start with a slash: only treat
                    // as division when followed by a factor-shaped token
                    // that is not P or M.
                    if let Some(Token::Ident(next)) =
                        self.tokens.get(self.pos + 1).map(|s| &s.token)
                    {
                        if next == "P" || next == "M" {
                            return Ok(lhs);
                        }
                    }
                    self.bump();
                    let rhs = self.factor()?;
                    lhs = Expr::Div(Box::new(lhs), Box::new(rhs));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn factor(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Some(Token::Number(n)) => {
                if n.fract() != 0.0 {
                    self.err("bit-range expressions must be integers")
                } else {
                    Ok(Expr::Num(n as i64))
                }
            }
            Some(Token::Ident(v)) => Ok(Expr::Var(v)),
            Some(Token::LParen) => {
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            other => {
                let found = other.map_or("end of file".to_owned(), |t| t.to_string());
                self.err(format!("expected a range expression, found {found}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r"
design MINI;
period 50.0;
clock_unit 6.25;

macro 'REG 10176' (SIZE=1) (CK, I<0:SIZE-1>/P) -> (Q<0:SIZE-1>/P);
  reg delay=1.5:4.5 (CK, I) -> (Q);
  setup_hold setup=2.5 hold=1.5 (I, CK);
end;

top;
  use 'REG 10176' SIZE=32 ('CLK .P2-3', 'W DATA .S0-6') -> ('R OUT');
end;
";

    #[test]
    fn parses_mini_design() {
        let d = parse(MINI).unwrap();
        assert_eq!(d.name, "MINI");
        assert_eq!(d.period_ns, 50.0);
        assert_eq!(d.clock_unit_ns, 6.25);
        assert_eq!(d.macros.len(), 1);
        let m = &d.macros[0];
        assert_eq!(m.name, "REG 10176");
        assert_eq!(m.params, vec![("SIZE".to_owned(), Some(1))]);
        assert_eq!(m.inputs.len(), 2);
        assert_eq!(m.outputs.len(), 1);
        assert_eq!(m.body.len(), 2);
        assert_eq!(d.top.len(), 1);
        match &d.top[0] {
            Stmt::Use {
                name,
                attrs,
                inputs,
                outputs,
                ..
            } => {
                assert_eq!(name, "REG 10176");
                assert_eq!(attrs[0], ("SIZE".to_owned(), AttrVal::Num(32.0)));
                assert_eq!(inputs[0].name, "CLK .P2-3");
                assert_eq!(outputs[0].name, "R OUT");
            }
            other => panic!("expected Use, got {other:?}"),
        }
    }

    #[test]
    fn parses_directives_and_inversion() {
        let src = r"
design D; period 50.0; clock_unit 6.25;
top;
  and delay=1.0:2.0 ('CK .P2-3 L' &HZ, -WRITE) -> (WE);
end;
";
        let d = parse(src).unwrap();
        match &d.top[0] {
            Stmt::Prim { kind, inputs, .. } => {
                assert_eq!(kind, "and");
                assert_eq!(inputs[0].directive.as_deref(), Some("HZ"));
                assert_eq!(inputs[0].name, "CK .P2-3 L");
                assert!(inputs[1].invert);
                assert_eq!(inputs[1].name, "WRITE");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_cases_and_wire_delays() {
        let src = r"
design D; period 50.0; clock_unit 6.25;
top;
  wire_delay 'ADR' 0.0 6.0;
  buf (A) -> (B);
end;
case 'CONTROL SIGNAL' = 0;
case 'CONTROL SIGNAL' = 1, OTHER = 0;
";
        let d = parse(src).unwrap();
        assert_eq!(d.cases.len(), 2);
        assert_eq!(d.cases[1].len(), 2);
        assert!(matches!(&d.top[0], Stmt::WireDelay { name, .. } if name == "ADR"));
    }

    #[test]
    fn parses_range_arithmetic() {
        let src = r"
design D; period 50.0; clock_unit 6.25;
macro M (N=4) (A<0:2*N-1>/P) -> (B<0:N/2>/P);
  buf (A) -> (B);
end;
top;
  use M N=8 (X) -> (Y);
end;
";
        let d = parse(src).unwrap();
        let m = &d.macros[0];
        let mut env = Env::new();
        env.insert("N".to_owned(), 8);
        assert_eq!(range_width(&m.inputs[0].range, &env).unwrap(), 16);
        assert_eq!(range_width(&m.outputs[0].range, &env).unwrap(), 5);
    }

    #[test]
    fn negative_attr_values() {
        // The thesis' register file uses a hold time of -1.0 ns.
        let src = r"
design D; period 50.0; clock_unit 6.25;
top;
  setup_hold setup=4.5 hold=-1.0 (I, -WE);
end;
";
        let d = parse(src).unwrap();
        match &d.top[0] {
            Stmt::Prim { attrs, .. } => {
                assert_eq!(attrs[1], ("hold".to_owned(), AttrVal::Num(-1.0)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rise_fall_attrs_parse() {
        let src = r"
design D; period 50.0; clock_unit 6.25;
top;
  not rise=1.0:2.0 fall=3.0:5.0 (A) -> (B);
end;
";
        let d = parse(src).unwrap();
        match &d.top[0] {
            Stmt::Prim { attrs, .. } => {
                assert_eq!(attrs[0], ("rise".to_owned(), AttrVal::Range(1.0, 2.0)));
                assert_eq!(attrs[1], ("fall".to_owned(), AttrVal::Range(3.0, 5.0)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = "design D; period 50.0;\nclock_unit 6.25;\nbogus;\n";
        let e = parse(src).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn missing_config_rejected() {
        assert!(parse("design D; top; end;").is_err());
        assert!(parse("design D; period 50.0; clock_unit 6.25;").is_err());
    }
}
