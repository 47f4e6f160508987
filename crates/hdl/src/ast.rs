//! Abstract syntax for the SCALD-style HDL.

/// An integer expression over macro parameters, as used in bit ranges:
/// `I<0:SIZE-1>` (§3.1).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Num(i64),
    /// Parameter reference (`SIZE`).
    Var(String),
    /// Sum.
    Add(Box<Expr>, Box<Expr>),
    /// Difference.
    Sub(Box<Expr>, Box<Expr>),
    /// Product.
    Mul(Box<Expr>, Box<Expr>),
    /// Integer quotient.
    Div(Box<Expr>, Box<Expr>),
}

/// Signal scope marker: `/P` parameter, `/M` macro-local (§3.1). Unmarked
/// signals are global.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeMark {
    /// `/P`: the signal is a parameter of the enclosing macro.
    Parameter,
    /// `/M`: the signal is local to the macro instance.
    Local,
}

/// A macro port: name, optional bit range and scope marker.
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    /// Base name.
    pub name: String,
    /// Bit range `<hi:lo>` (either order); `None` for scalars.
    pub range: Option<(Expr, Expr)>,
}

/// A signal reference in a statement: optional complement (`-`), the full
/// name text (which may include an assertion suffix), optional bit range,
/// scope mark and directive string.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnExpr {
    /// Leading `-`: use the complement (Fig 3-5's `- WE`).
    pub invert: bool,
    /// Full name text as written, possibly with an assertion suffix.
    pub name: String,
    /// Bit range, used for width consistency checks.
    pub range: Option<(Expr, Expr)>,
    /// `/P` or `/M` scope marker.
    pub scope: Option<ScopeMark>,
    /// `&`-directive string (§2.6).
    pub directive: Option<String>,
}

/// An attribute value: `delay=1.5:4.5` is a range, `setup=2.5` a number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrVal {
    /// Single number.
    Num(f64),
    /// `min:max` pair.
    Range(f64, f64),
}

/// One body statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A built-in primitive instantiation.
    Prim {
        /// Primitive keyword (`reg`, `or`, `setup_hold`, …).
        kind: String,
        /// Attributes (`delay=…`, `setup=…`).
        attrs: Vec<(String, AttrVal)>,
        /// Input connections.
        inputs: Vec<ConnExpr>,
        /// Output connections (empty for checkers).
        outputs: Vec<ConnExpr>,
        /// Source line.
        line: u32,
    },
    /// A macro instantiation: `use 'REG 10176' SIZE=32 (…) -> (…);`.
    Use {
        /// Macro name.
        name: String,
        /// Parameter assignments.
        attrs: Vec<(String, AttrVal)>,
        /// Actual input connections.
        inputs: Vec<ConnExpr>,
        /// Actual output connections.
        outputs: Vec<ConnExpr>,
        /// Source line.
        line: u32,
    },
    /// A width declaration: `signal TMP<0:31>/M;`.
    SignalDecl {
        /// The declared connection (name, range, scope).
        conn: ConnExpr,
        /// Source line.
        line: u32,
    },
    /// Marks a signal as a wired-OR bus: `wired_or 'READ BUS';` (the ECL
    /// memory-expansion idiom of Fig 3-1).
    WiredOr {
        /// Signal name.
        name: String,
        /// Source line.
        line: u32,
    },
    /// A per-signal wire delay override: `wire_delay 'ADR' 0.0 6.0;`
    /// (§2.5.3).
    WireDelay {
        /// Signal name.
        name: String,
        /// Minimum delay in ns.
        min: f64,
        /// Maximum delay in ns.
        max: f64,
        /// Source line.
        line: u32,
    },
}

/// A macro definition (§3.1, Fig 3-5).
#[derive(Debug, Clone, PartialEq)]
pub struct MacroDef {
    /// Macro name (may contain spaces, like `16W RAM 10145A`).
    pub name: String,
    /// Parameters with optional defaults (`SIZE=1`).
    pub params: Vec<(String, Option<i64>)>,
    /// Input ports.
    pub inputs: Vec<Port>,
    /// Output ports.
    pub outputs: Vec<Port>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source line of the definition.
    pub line: u32,
}

/// A parsed design file: configuration, macro library, top-level
/// statements and case-analysis specifications.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    /// Design name.
    pub name: String,
    /// Clock period in ns (§2.2).
    pub period_ns: f64,
    /// Clock unit in ns (§2.3).
    pub clock_unit_ns: f64,
    /// Default wire delay `(min, max)` in ns (§2.5.3).
    pub wire_delay_ns: (f64, f64),
    /// Default precision-clock skew magnitudes `(minus, plus)` in ns.
    pub precision_skew_ns: (f64, f64),
    /// Default non-precision-clock skew magnitudes in ns.
    pub clock_skew_ns: (f64, f64),
    /// Macro library, in definition order.
    pub macros: Vec<MacroDef>,
    /// Top-level statements.
    pub top: Vec<Stmt>,
    /// Case-analysis specifications (§2.7.1): each case is a list of
    /// `signal = 0/1` assignments.
    pub cases: Vec<Vec<(String, bool)>>,
}

impl Design {
    /// Looks up a macro by name.
    #[must_use]
    pub fn find_macro(&self, name: &str) -> Option<&MacroDef> {
        self.macros.iter().find(|m| m.name == name)
    }
}

/// Evaluation environment for [`Expr`]: macro parameter values.
pub type Env = std::collections::HashMap<String, i64>;

impl Expr {
    /// Evaluates the expression under the given parameter bindings.
    ///
    /// # Errors
    ///
    /// Returns the name of an unbound variable, a division-by-zero
    /// message, or an overflow message if an intermediate value leaves
    /// the `i64` range.
    pub fn eval(&self, env: &Env) -> Result<i64, String> {
        self.eval_with(&|v| env.get(v).copied())
    }

    /// [`eval`](Self::eval) with parameter values supplied by `lookup`.
    pub(crate) fn eval_with(&self, lookup: &dyn Fn(&str) -> Option<i64>) -> Result<i64, String> {
        let overflow = || "arithmetic overflow in range expression".to_owned();
        match self {
            Expr::Num(n) => Ok(*n),
            Expr::Var(v) => lookup(v).ok_or_else(|| format!("unbound parameter {v:?}")),
            Expr::Add(a, b) => a
                .eval_with(lookup)?
                .checked_add(b.eval_with(lookup)?)
                .ok_or_else(overflow),
            Expr::Sub(a, b) => a
                .eval_with(lookup)?
                .checked_sub(b.eval_with(lookup)?)
                .ok_or_else(overflow),
            Expr::Mul(a, b) => a
                .eval_with(lookup)?
                .checked_mul(b.eval_with(lookup)?)
                .ok_or_else(overflow),
            Expr::Div(a, b) => {
                let d = b.eval_with(lookup)?;
                if d == 0 {
                    Err("division by zero in range expression".to_owned())
                } else {
                    a.eval_with(lookup)?.checked_div(d).ok_or_else(overflow)
                }
            }
        }
    }
}

/// Width of an optional bit range under `env`: `|hi - lo| + 1`, or 1 for
/// scalars.
///
/// # Errors
///
/// Propagates [`Expr::eval`] errors, and rejects a range wider than
/// `u32::MAX` bits.
pub fn range_width(range: &Option<(Expr, Expr)>, env: &Env) -> Result<u32, String> {
    range_width_with(range, &|v| env.get(v).copied())
}

/// [`range_width`] with parameter values supplied by `lookup`.
pub(crate) fn range_width_with(
    range: &Option<(Expr, Expr)>,
    lookup: &dyn Fn(&str) -> Option<i64>,
) -> Result<u32, String> {
    match range {
        None => Ok(1),
        Some((a, b)) => {
            let a = a.eval_with(lookup)?;
            let b = b.eval_with(lookup)?;
            let width = (i128::from(a) - i128::from(b)).abs() + 1;
            u32::try_from(width).map_err(|_| {
                format!(
                    "bit range <{a}:{b}> is {width} bits wide; at most {} are supported",
                    u32::MAX
                )
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_eval() {
        let mut env = Env::new();
        env.insert("SIZE".to_owned(), 32);
        let e = Expr::Sub(
            Box::new(Expr::Var("SIZE".to_owned())),
            Box::new(Expr::Num(1)),
        );
        assert_eq!(e.eval(&env).unwrap(), 31);
        assert!(Expr::Var("NOPE".to_owned()).eval(&env).is_err());
        let div = Expr::Div(Box::new(Expr::Num(8)), Box::new(Expr::Num(0)));
        assert!(div.eval(&env).is_err());
        let big = Expr::Mul(Box::new(Expr::Num(i64::MAX)), Box::new(Expr::Num(2)));
        assert!(big.eval(&env).unwrap_err().contains("overflow"));
        let min_div = Expr::Div(Box::new(Expr::Num(i64::MIN)), Box::new(Expr::Num(-1)));
        assert!(min_div.eval(&env).unwrap_err().contains("overflow"));
    }

    #[test]
    fn range_widths() {
        let mut env = Env::new();
        env.insert("SIZE".to_owned(), 32);
        assert_eq!(range_width(&None, &env).unwrap(), 1);
        let r = Some((
            Expr::Num(0),
            Expr::Sub(
                Box::new(Expr::Var("SIZE".to_owned())),
                Box::new(Expr::Num(1)),
            ),
        ));
        assert_eq!(range_width(&r, &env).unwrap(), 32);
        // Descending ranges have the same width.
        let r = Some((Expr::Num(31), Expr::Num(0)));
        assert_eq!(range_width(&r, &env).unwrap(), 32);
        // The widest representable range, and one bit more.
        let r = Some((Expr::Num(0), Expr::Num(i64::from(u32::MAX) - 1)));
        assert_eq!(range_width(&r, &env).unwrap(), u32::MAX);
        let r = Some((Expr::Num(0), Expr::Num(i64::from(u32::MAX))));
        assert!(range_width(&r, &env)
            .unwrap_err()
            .contains("4294967296 bits"));
        let r = Some((Expr::Num(i64::MIN), Expr::Num(i64::MAX)));
        assert!(range_width(&r, &env).is_err());
    }
}
