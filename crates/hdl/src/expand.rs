//! The two-pass macro expander (§3.3.2, Table 3-1).
//!
//! Pass 1 walks the design hierarchy once, resolving names — binding
//! actual signals to macro ports, scoping `/M` locals to their instance
//! path, and unifying the bit widths of every reference to each signal
//! (the "synonym" resolution of the SCALD Macro Expander's first pass) —
//! and records every primitive on a flat tape. Pass 2 replays the tape
//! into a [`NetlistBuilder`], which emits the fully elaborated primitive
//! netlist for the Timing Verifier. The two passes are timed separately
//! so the Table 3-1 statistics can be regenerated.
//!
//! Nothing is read twice. A macro body is prepared on its first
//! instantiation: every reference's name text is split and its assertion
//! parsed, every primitive's attributes decoded, every port reference
//! tied to its port's position and every `use` to its macro. Each
//! instance then walks the prepared body. A resolved reference is a
//! `Copy` handle into a flat signal table indexed by `u32`, so binding a
//! port or recording a connection copies a few words instead of
//! formatting and re-parsing a name.

use scald_assertions::{split_signal_name, Assertion};
use scald_logic::Value;
use scald_netlist::{
    Config, Conn, EdgeDelays, Netlist, NetlistBuilder, NetlistError, PrimKind, Primitive, SignalId,
};
use scald_wave::{DelayRange, Skew, Time};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::ops::Range;
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::ast::{range_width_with, AttrVal, ConnExpr, Design, Expr, MacroDef, ScopeMark, Stmt};
use crate::parser::{parse, ParseError};

/// Maximum macro nesting depth before the expander assumes recursion.
const MAX_DEPTH: usize = 64;

/// Errors from parsing or expansion.
#[derive(Debug)]
pub enum HdlError {
    /// Lexical or syntactic error.
    Parse(ParseError),
    /// Semantic error during expansion.
    Expand {
        /// Explanation.
        message: String,
        /// Source line of the offending statement.
        line: u32,
    },
    /// The emitted netlist failed validation.
    Netlist(NetlistError),
}

impl fmt::Display for HdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HdlError::Parse(e) => write!(f, "parse error: {e}"),
            HdlError::Expand { message, line } => {
                write!(f, "expansion error at line {line}: {message}")
            }
            HdlError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl std::error::Error for HdlError {}

impl From<ParseError> for HdlError {
    fn from(e: ParseError) -> HdlError {
        HdlError::Parse(e)
    }
}

impl From<NetlistError> for HdlError {
    fn from(e: NetlistError) -> HdlError {
        HdlError::Netlist(e)
    }
}

/// Execution statistics for the expansion, mirroring the phases of
/// Table 3-1.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExpandStats {
    /// Macros defined in the library.
    pub macros_defined: usize,
    /// Macro instances expanded (all levels).
    pub instances_expanded: usize,
    /// Primitives emitted into the netlist.
    pub prims_emitted: usize,
    /// Distinct signals in the flattened design.
    pub signals: usize,
    /// Wall time of Pass 1 (name/width resolution).
    pub pass1: Duration,
    /// Wall time of Pass 2 (primitive emission).
    pub pass2: Duration,
}

/// A fully expanded design: the flat netlist plus the case-analysis
/// specifications and expansion statistics.
#[derive(Debug)]
pub struct Expansion {
    /// The validated flat netlist.
    pub netlist: Netlist,
    /// Case-analysis assignments from `case …;` statements (§2.7.1).
    pub cases: Vec<Vec<(String, bool)>>,
    /// Phase statistics (Table 3-1).
    pub stats: ExpandStats,
}

/// Parses and expands HDL source in one step.
///
/// # Errors
///
/// Returns the first parse, expansion or netlist-validation error.
pub fn compile(src: &str) -> Result<Expansion, HdlError> {
    let design = parse(src)?;
    expand(&design)
}

/// Expands a parsed [`Design`] into a flat netlist.
///
/// # Errors
///
/// Returns an [`HdlError::Expand`] for unknown macros/signals, width
/// conflicts, bad parameters or recursion; [`HdlError::Netlist`] if the
/// emitted netlist fails validation. Errors found while walking the
/// hierarchy come first, in walk order; netlist errors follow in
/// emission order.
pub fn expand(design: &Design) -> Result<Expansion, HdlError> {
    let config = Config {
        timing: scald_assertions::TimingContext {
            period: Time::from_ns(design.period_ns),
            clock_unit: Time::from_ns(design.clock_unit_ns),
            precision_skew: Skew::from_ns(design.precision_skew_ns.0, design.precision_skew_ns.1),
            nonprecision_skew: Skew::from_ns(design.clock_skew_ns.0, design.clock_skew_ns.1),
        },
        default_wire_delay: DelayRange::from_ns(design.wire_delay_ns.0, design.wire_delay_ns.1),
    };

    // Pass 1: resolve names, unify widths, record the primitive tape.
    let t1 = Instant::now();
    let mut walker = Walker::new(design);
    let top = walker.prepare_body(&design.top, &[]);
    let scope = Scope {
        env: 0..0,
        bindings: 0,
        marked: false,
    };
    walker.walk(&top, &scope, 0)?;
    let pass1_time = t1.elapsed();

    // Pass 2: replay the tape into the builder and validate.
    let t2 = Instant::now();
    let instances = walker.instances;
    let prims = walker.tape.len();
    let builder = walker.emit(config)?;
    // Pass 1's tables are freed before validation builds its indexes.
    let netlist = builder.finish()?;
    let pass2_time = t2.elapsed();

    let stats = ExpandStats {
        macros_defined: design.macros.len(),
        instances_expanded: instances,
        prims_emitted: prims,
        signals: netlist.signals().len(),
        pass1: pass1_time,
        pass2: pass2_time,
    };
    Ok(Expansion {
        netlist,
        cases: design.cases.clone(),
        stats,
    })
}

fn expand_error<T>(line: u32, message: impl Into<String>) -> Result<T, HdlError> {
    Err(HdlError::Expand {
        message: message.into(),
        line,
    })
}

/// A resolved signal reference: an index into the flat signal table, the
/// indexes of the assertion its name carries and of its directive, and
/// its complement.
#[derive(Debug, Clone, Copy)]
struct Handle {
    sig: u32,
    assertion: Option<u32>,
    directive: Option<u32>,
    invert: bool,
}

/// One signal reference of a body, prepared once per macro: the name
/// text split (or the message the split fails with), the macro port the
/// base names, and the fixed parts of the reference.
struct Ref<'a> {
    /// Base name and assertion-table index.
    name: Result<(&'a str, Option<u32>), String>,
    /// Position of the port whose name the base is (the last such port
    /// if port names repeat). A port binding wins over a `/M` mark.
    port: Option<usize>,
    invert: bool,
    local: bool,
    range: &'a Option<(Expr, Expr)>,
    /// Directive-table index.
    directive: Option<u32>,
}

/// A primitive statement's decoded attributes.
#[derive(Debug, Clone, Copy)]
struct PrimSpec {
    kind: PrimKind,
    delay: DelayRange,
    edges: Option<EdgeDelays>,
}

/// One statement of a prepared body. `at` is the statement's first entry
/// in [`Body::refs`]; a primitive or macro instance has its inputs there,
/// then its outputs.
enum Step<'a> {
    Signal {
        at: usize,
        line: u32,
    },
    WireDelay {
        at: usize,
        min: f64,
        max: f64,
        line: u32,
    },
    WiredOr {
        at: usize,
        line: u32,
    },
    Prim {
        at: usize,
        inputs: usize,
        outputs: usize,
        kind: &'a str,
        ordinal: usize,
        /// Index into [`Walker::specs`].
        spec: Result<u32, String>,
        line: u32,
    },
    Use {
        at: usize,
        mac: Option<usize>,
        call: Call<'a>,
    },
}

/// The fixed parts of a `use` statement.
struct Call<'a> {
    name: &'a str,
    attrs: &'a [(String, AttrVal)],
    inputs: usize,
    outputs: usize,
    ordinal: usize,
    line: u32,
}

/// A macro body, or the top block, prepared for walking.
struct Body<'a> {
    steps: Vec<Step<'a>>,
    refs: Vec<Ref<'a>>,
}

/// A macro prepared on its first instantiation.
struct Macro<'a> {
    def: &'a MacroDef,
    /// Port base names in binding order (inputs, then outputs), or the
    /// message a malformed port name is rejected with.
    ports: Vec<Result<&'a str, String>>,
    body: Body<'a>,
}

/// The scope a body is walked in: its parameter values (a range of
/// [`Walker::env`]), where its port bindings start in
/// [`Walker::bindings`], and whether a macro name on its instance path
/// holds an assertion mark.
struct Scope {
    env: Range<usize>,
    bindings: usize,
    marked: bool,
}

/// A primitive recorded by pass 1: its instance name, its spec (an index
/// into [`Walker::specs`]) and its handles in [`Walker::conns`] — the
/// inputs, then the output if its kind has one.
struct TapePrim {
    name: String,
    spec: u32,
    conns: Range<u32>,
}

/// The flat signal table: every flat base name (`OUT`, or `TOP/M#3/T`
/// for a `/M` local) with its `u32` index and unified width. A global's
/// name is borrowed from the source text; only a new local allocates.
#[derive(Default)]
struct Signals<'a> {
    ids: HashMap<Cow<'a, str>, u32>,
    /// Unified width per signal (`None` = not yet constrained).
    widths: Vec<Option<u32>>,
}

impl<'a> Signals<'a> {
    /// The index of `name`, adding the signal under the key `key` makes
    /// if it is new.
    fn intern(&mut self, name: &str, key: impl FnOnce() -> Cow<'a, str>) -> u32 {
        if let Some(&sig) = self.ids.get(name) {
            return sig;
        }
        let sig = self.widths.len() as u32;
        self.ids.insert(key(), sig);
        self.widths.push(None);
        sig
    }

    /// The name of signal `sig` (a scan: for error messages only).
    fn name(&self, sig: u32) -> &str {
        self.ids
            .iter()
            .find(|&(_, &id)| id == sig)
            .map_or("", |(name, _)| name)
    }

    /// The names and widths, by index.
    fn into_parts(self) -> (Vec<Cow<'a, str>>, Vec<Option<u32>>) {
        let mut names = vec![Cow::Borrowed(""); self.widths.len()];
        for (name, sig) in self.ids {
            names[sig as usize] = name;
        }
        (names, self.widths)
    }
}

/// Pass 1's state: the prepared macros, the tables handles index into,
/// the walk's scope stacks, and the tape pass 2 replays.
struct Walker<'a> {
    design: &'a Design,
    macro_index: HashMap<&'a str, usize>,
    macros: Vec<Option<Rc<Macro<'a>>>>,
    assertions: Vec<Assertion>,
    signals: Signals<'a>,
    /// Parameter values of every scope on the walk stack.
    env: Vec<(&'a str, i64)>,
    /// Port bindings of every scope on the walk stack.
    bindings: Vec<Handle>,
    /// Instance path of the scope being walked.
    path: String,
    /// Decoded primitive statements, one per statement prepared.
    specs: Vec<PrimSpec>,
    directives: Vec<&'a str>,
    tape: Vec<TapePrim>,
    conns: Vec<Handle>,
    /// `wire_delay` statements: signal, bounds in ns, source line.
    wire_delays: Vec<(u32, f64, f64, u32)>,
    wired_ors: Vec<u32>,
    instances: usize,
}

/// The range of a reference written without one.
static NO_RANGE: Option<(Expr, Expr)> = None;

/// `true` if `name` holds an assertion mark: ` .P`, ` .C` or ` .S`.
fn has_assertion_mark(name: &str) -> bool {
    [" .P", " .C", " .S"].iter().any(|m| name.contains(m))
}

/// The value of parameter `name` in a scope's frame of [`Walker::env`].
fn param(env: &[(&str, i64)], name: &str) -> Option<i64> {
    env.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
}

/// Sets parameter `key` in the frame `env[start..]`, replacing an
/// earlier value.
fn set_param<'a>(env: &mut Vec<(&'a str, i64)>, start: usize, key: &'a str, value: i64) {
    match env[start..].iter_mut().find(|(k, _)| *k == key) {
        Some(slot) => slot.1 = value,
        None => env.push((key, value)),
    }
}

impl<'a> Walker<'a> {
    fn new(design: &'a Design) -> Walker<'a> {
        let mut macro_index = HashMap::with_capacity(design.macros.len());
        for (i, m) in design.macros.iter().enumerate() {
            macro_index.entry(m.name.as_str()).or_insert(i);
        }
        Walker {
            design,
            macro_index,
            macros: vec![None; design.macros.len()],
            assertions: Vec::new(),
            signals: Signals::default(),
            env: Vec::new(),
            bindings: Vec::new(),
            path: String::from("TOP"),
            specs: Vec::new(),
            directives: Vec::new(),
            tape: Vec::new(),
            conns: Vec::new(),
            wire_delays: Vec::new(),
            wired_ors: Vec::new(),
            instances: 0,
        }
    }

    /// Macro `idx`, prepared on first use.
    fn prepared(&mut self, idx: usize) -> Rc<Macro<'a>> {
        if let Some(m) = &self.macros[idx] {
            return Rc::clone(m);
        }
        let design = self.design;
        let def = &design.macros[idx];
        let ports: Vec<Result<&'a str, String>> = def
            .inputs
            .iter()
            .chain(&def.outputs)
            .map(|port| match split_signal_name(&port.name) {
                Ok((base, None)) => Ok(base),
                Ok((_, Some(_))) => Err(format!(
                    "macro port {:?} cannot carry an assertion",
                    port.name
                )),
                Err(e) => Err(e.to_string()),
            })
            .collect();
        let body = self.prepare_body(&def.body, &ports);
        let m = Rc::new(Macro { def, ports, body });
        self.macros[idx] = Some(Rc::clone(&m));
        m
    }

    /// Prepares a statement block whose macro has the given ports.
    fn prepare_body(&mut self, stmts: &'a [Stmt], ports: &[Result<&'a str, String>]) -> Body<'a> {
        // Instance names are `{path}/{kind-or-macro}#{n}` where `n`
        // counts same-named statements *within this block only*. A
        // statement's generated name therefore depends only on the
        // statements above it in its own body — editing one macro body
        // never renames primitives expanded from another, which is what
        // lets incremental re-verification (`scald-incr`) match survivors
        // across a re-expansion.
        let mut ordinals: HashMap<&str, usize> = HashMap::new();
        let mut next_ordinal = |key: &'a str| {
            let n = ordinals.entry(key).or_insert(0);
            *n += 1;
            *n
        };
        let mut body = Body {
            steps: Vec::with_capacity(stmts.len()),
            refs: Vec::new(),
        };
        for stmt in stmts {
            let at = body.refs.len();
            let step = match stmt {
                Stmt::SignalDecl { conn, line } => {
                    body.refs.push(self.prepare_conn(conn, ports));
                    Step::Signal { at, line: *line }
                }
                Stmt::WireDelay {
                    name,
                    min,
                    max,
                    line,
                } => {
                    body.refs.push(self.prepare_name(name, ports));
                    Step::WireDelay {
                        at,
                        min: *min,
                        max: *max,
                        line: *line,
                    }
                }
                Stmt::WiredOr { name, line } => {
                    body.refs.push(self.prepare_name(name, ports));
                    Step::WiredOr { at, line: *line }
                }
                Stmt::Prim {
                    kind,
                    attrs,
                    inputs,
                    outputs,
                    line,
                } => {
                    for c in inputs.iter().chain(outputs) {
                        body.refs.push(self.prepare_conn(c, ports));
                    }
                    Step::Prim {
                        at,
                        inputs: inputs.len(),
                        outputs: outputs.len(),
                        kind,
                        ordinal: next_ordinal(kind),
                        spec: prim_spec(kind, attrs, inputs.len(), outputs.len()).map(|spec| {
                            self.specs.push(spec);
                            (self.specs.len() - 1) as u32
                        }),
                        line: *line,
                    }
                }
                Stmt::Use {
                    name,
                    attrs,
                    inputs,
                    outputs,
                    line,
                } => {
                    for c in inputs.iter().chain(outputs) {
                        body.refs.push(self.prepare_conn(c, ports));
                    }
                    Step::Use {
                        at,
                        mac: self.macro_index.get(name.as_str()).copied(),
                        call: Call {
                            name,
                            attrs,
                            inputs: inputs.len(),
                            outputs: outputs.len(),
                            ordinal: next_ordinal(name),
                            line: *line,
                        },
                    }
                }
            };
            body.steps.push(step);
        }
        body
    }

    fn prepare_conn(&mut self, conn: &'a ConnExpr, ports: &[Result<&'a str, String>]) -> Ref<'a> {
        let directive = conn.directive.as_deref().map(|d| {
            self.directives.push(d);
            (self.directives.len() - 1) as u32
        });
        Ref {
            invert: conn.invert,
            local: conn.scope == Some(ScopeMark::Local),
            range: &conn.range,
            directive,
            ..self.prepare_name(&conn.name, ports)
        }
    }

    /// A reference to `text` with no complement, range, scope mark or
    /// directive — the form `wire_delay` and `wired_or` names take.
    fn prepare_name(&mut self, text: &'a str, ports: &[Result<&'a str, String>]) -> Ref<'a> {
        let name = match split_signal_name(text) {
            Ok((base, assertion)) => Ok((
                base,
                assertion.map(|a| {
                    self.assertions.push(a);
                    (self.assertions.len() - 1) as u32
                }),
            )),
            Err(e) => Err(e.to_string()),
        };
        let port = match &name {
            Ok((base, _)) => ports.iter().rposition(|p| p.as_ref() == Ok(base)),
            Err(_) => None,
        };
        Ref {
            name,
            port,
            invert: false,
            local: false,
            range: &NO_RANGE,
            directive: None,
        }
    }

    fn walk(&mut self, body: &Body<'a>, scope: &Scope, depth: usize) -> Result<(), HdlError> {
        if depth > MAX_DEPTH {
            return expand_error(
                0,
                format!("macro nesting exceeds {MAX_DEPTH} levels; recursive macro?"),
            );
        }
        for step in &body.steps {
            match *step {
                Step::Signal { at, line } => {
                    self.resolve(&body.refs[at], scope, line)?;
                }
                Step::WireDelay { at, min, max, line } => {
                    let h = self.resolve(&body.refs[at], scope, line)?;
                    self.wire_delays.push((h.sig, min, max, line));
                }
                Step::WiredOr { at, line } => {
                    let h = self.resolve(&body.refs[at], scope, line)?;
                    self.wired_ors.push(h.sig);
                }
                Step::Prim {
                    at,
                    inputs,
                    outputs,
                    kind,
                    ordinal,
                    ref spec,
                    line,
                } => {
                    let spec = match spec {
                        Ok(spec) => *spec,
                        Err(message) => return expand_error(line, message.as_str()),
                    };
                    let mut name = String::with_capacity(self.path.len() + kind.len() + 8);
                    let _ = write!(name, "{}/{kind}#{ordinal}", self.path);
                    let first = self.conns.len() as u32;
                    for r in &body.refs[at..at + inputs] {
                        let h = self.resolve(r, scope, line)?;
                        self.conns.push(h);
                    }
                    if let Some(r) = body.refs[at + inputs..at + inputs + outputs].first() {
                        let h = self.resolve(r, scope, line)?;
                        if h.invert {
                            return expand_error(
                                line,
                                "outputs cannot be complemented; invert the input",
                            );
                        }
                        self.conns.push(h);
                    }
                    self.tape.push(TapePrim {
                        name,
                        spec,
                        conns: first..self.conns.len() as u32,
                    });
                }
                Step::Use { at, mac, ref call } => {
                    let Some(idx) = mac else {
                        return expand_error(call.line, format!("unknown macro {:?}", call.name));
                    };
                    self.instances += 1;
                    let mac = self.prepared(idx);
                    let actuals = &body.refs[at..at + call.inputs + call.outputs];
                    self.instantiate(&mac, call, actuals, scope, depth)?;
                }
            }
        }
        Ok(())
    }

    /// Binds one instance of `mac`, whose actuals resolve in `scope`, and
    /// walks its body.
    fn instantiate(
        &mut self,
        mac: &Macro<'a>,
        call: &Call<'a>,
        actuals: &[Ref<'a>],
        scope: &Scope,
        depth: usize,
    ) -> Result<(), HdlError> {
        let (def, name, line) = (mac.def, call.name, call.line);
        // Parameter environment: defaults, then call-site overrides.
        let env_start = self.env.len();
        for (p, default) in &def.params {
            if let Some(d) = default {
                set_param(&mut self.env, env_start, p, *d);
            }
        }
        for (key, val) in call.attrs {
            if !def.params.iter().any(|(p, _)| p == key) {
                return expand_error(line, format!("macro {name:?} has no parameter {key:?}"));
            }
            let AttrVal::Num(n) = val else {
                return expand_error(line, format!("parameter {key:?} must be a number"));
            };
            if n.fract() != 0.0 {
                return expand_error(line, format!("parameter {key:?} must be an integer"));
            }
            set_param(&mut self.env, env_start, key, *n as i64);
        }
        for (p, _) in &def.params {
            if param(&self.env[env_start..], p).is_none() {
                return expand_error(line, format!("macro {name:?} parameter {p:?} has no value"));
            }
        }

        if def.inputs.len() != call.inputs || def.outputs.len() != call.outputs {
            return expand_error(
                line,
                format!(
                    "macro {name:?} expects {} input(s) and {} output(s), \
                     found {} and {}",
                    def.inputs.len(),
                    def.outputs.len(),
                    call.inputs,
                    call.outputs
                ),
            );
        }

        // Bind formals to resolved actuals, unifying the actual's width
        // with the formal port's declared width. The callee's bindings
        // are indexed by port position.
        let bindings_start = self.bindings.len();
        for ((port, port_base), actual) in def
            .inputs
            .iter()
            .chain(&def.outputs)
            .zip(&mac.ports)
            .zip(actuals)
        {
            let bound = self.resolve(actual, scope, line)?;
            let env = &self.env[env_start..];
            let port_width = range_width_with(&port.range, &|v| param(env, v))
                .map_err(|message| HdlError::Expand { message, line })?;
            match self.signals.widths[bound.sig as usize] {
                None => self.signals.widths[bound.sig as usize] = Some(port_width),
                Some(w) if w == port_width => {}
                Some(w) => {
                    return expand_error(
                        line,
                        format!(
                            "signal {:?} (width {w}) connected to port \
                             {:?} of {name:?} (width {port_width})",
                            self.signals.name(bound.sig),
                            port.name
                        ),
                    )
                }
            }
            if let Err(message) = port_base {
                return expand_error(def.line, message.as_str());
            }
            self.bindings.push(bound);
        }

        let path_len = self.path.len();
        let _ = write!(self.path, "/{}#{}", def.name, call.ordinal);
        let callee = Scope {
            env: env_start..self.env.len(),
            bindings: bindings_start,
            marked: scope.marked || has_assertion_mark(&def.name),
        };
        self.walk(&mac.body, &callee, depth + 1)?;
        self.path.truncate(path_len);
        self.env.truncate(env_start);
        self.bindings.truncate(bindings_start);
        Ok(())
    }

    /// Resolves a reference in `scope` to a handle, unifying the width
    /// its range gives with every other reference to the signal.
    fn resolve(&mut self, r: &Ref<'a>, scope: &Scope, line: u32) -> Result<Handle, HdlError> {
        let (base, assertion) = match &r.name {
            Ok(name) => *name,
            Err(message) => return expand_error(line, message.as_str()),
        };
        let width = match r.range {
            Some(_) => {
                let env = &self.env[scope.env.clone()];
                Some(
                    range_width_with(r.range, &|v| param(env, v))
                        .map_err(|message| HdlError::Expand { message, line })?,
                )
            }
            None => None,
        };
        let handle = if let Some(port) = r.port {
            if assertion.is_some() {
                return expand_error(
                    line,
                    format!("macro port reference {base:?} cannot carry an assertion"),
                );
            }
            let actual = self.bindings[scope.bindings + port];
            Handle {
                sig: actual.sig,
                assertion: actual.assertion,
                invert: r.invert ^ actual.invert,
                directive: r.directive.or(actual.directive),
            }
        } else {
            let sig = if r.local {
                self.local_signal(base, assertion.is_some(), scope, line)?
            } else {
                self.signals.intern(base, || Cow::Borrowed(base))
            };
            Handle {
                sig,
                assertion,
                invert: r.invert,
                directive: r.directive,
            }
        };
        let entry = &mut self.signals.widths[handle.sig as usize];
        match (*entry, width) {
            (None, w) => *entry = w,
            (Some(_), None) => {}
            (Some(a), Some(b)) if a == b => {}
            (Some(a), Some(b)) => {
                return expand_error(
                    line,
                    format!(
                        "signal {:?} used with widths {a} and {b}",
                        self.signals.name(handle.sig)
                    ),
                )
            }
        }
        Ok(handle)
    }

    /// The signal-table index of the `/M` local `base`, flattened to
    /// `{path}/{base}`.
    fn local_signal(
        &mut self,
        base: &str,
        has_assertion: bool,
        scope: &Scope,
        line: u32,
    ) -> Result<u32, HdlError> {
        let path_len = self.path.len();
        self.path.push('/');
        self.path.push_str(base);
        // A macro name on the path that holds an assertion mark makes the
        // flat name read back as a name with a (malformed) assertion;
        // such a local is rejected with the assertion parser's message.
        if scope.marked && !has_assertion {
            if let Err(e) = split_signal_name(&self.path) {
                self.path.truncate(path_len);
                return expand_error(line, e.to_string());
            }
        }
        let flat = &self.path;
        let sig = self.signals.intern(flat, || Cow::Owned(flat.clone()));
        self.path.truncate(path_len);
        Ok(sig)
    }

    /// Pass 2: replays the tape into a builder and applies the per-signal
    /// wire-delay and wired-OR statements.
    fn emit(self, config: Config) -> Result<NetlistBuilder, HdlError> {
        let (names, widths) = self.signals.into_parts();
        let mut ids: Vec<Option<SignalId>> = vec![None; names.len()];
        let mut builder = NetlistBuilder::new(config);
        builder.reserve(names.len(), self.tape.len());
        let mut declare =
            |builder: &mut NetlistBuilder, h: &Handle| -> Result<SignalId, HdlError> {
                match ids[h.sig as usize] {
                    // Re-declaring without an assertion changes nothing.
                    Some(sid) if h.assertion.is_none() => Ok(sid),
                    _ => {
                        let sid = builder.signal_parsed(
                            &names[h.sig as usize],
                            h.assertion.map(|a| &self.assertions[a as usize]),
                            widths[h.sig as usize].unwrap_or(1),
                        )?;
                        ids[h.sig as usize] = Some(sid);
                        Ok(sid)
                    }
                }
            };
        for prim in self.tape {
            let PrimSpec { kind, delay, edges } = self.specs[prim.spec as usize];
            let handles = &self.conns[prim.conns.start as usize..prim.conns.end as usize];
            let (ins, out) = match handles.split_last() {
                Some((out, ins)) if kind.has_output() => (ins, Some(out)),
                _ => (handles, None),
            };
            let mut inputs = Vec::with_capacity(ins.len());
            for h in ins {
                let mut conn = Conn::new(declare(&mut builder, h)?);
                conn.invert = h.invert;
                conn.directive = h.directive.map(|d| self.directives[d as usize].to_owned());
                inputs.push(conn);
            }
            let output = match out {
                Some(h) => Some(declare(&mut builder, h)?),
                None => None,
            };
            match edges {
                // §4.2.2 extension: a `not`/`buf` with `rise=`/`fall=`
                // keeps its first input and takes the edges' envelope as
                // its delay.
                Some(ed) => {
                    inputs.truncate(1);
                    builder.push_prim(Primitive {
                        name: prim.name,
                        kind,
                        delay: ed.envelope(),
                        edge_delays: Some(ed),
                        inputs,
                        output,
                    });
                }
                None => builder.prim(prim.name, kind, delay, inputs, output),
            }
        }
        // Apply per-signal wire-delay overrides (§2.5.3) and wired-OR
        // marks; a signal no primitive touches is declared as a scalar.
        let by_name = |builder: &mut NetlistBuilder, sig: u32| -> Result<SignalId, HdlError> {
            let base = &names[sig as usize];
            Ok(match builder.find_signal(base) {
                Some(sid) => sid,
                None => builder.signal(base)?,
            })
        };
        for &(sig, min, max, line) in &self.wire_delays {
            let sid = by_name(&mut builder, sig)?;
            let Some(delay) = DelayRange::try_from_ns(min, max) else {
                return expand_error(
                    line,
                    format!("wire delay {min} {max} is not a delay range (need 0 <= min <= max)"),
                );
            };
            builder.set_wire_delay(sid, delay);
        }
        for &sig in &self.wired_ors {
            let sid = by_name(&mut builder, sig)?;
            builder.mark_wired_or(sid);
        }
        Ok(builder)
    }
}

/// Decodes a primitive statement's keyword and attributes, checking its
/// output count. Depends on the statement alone, so each statement is
/// decoded once however often its macro is instantiated.
fn prim_spec(
    kind: &str,
    attrs: &[(String, AttrVal)],
    inputs: usize,
    outputs: usize,
) -> Result<PrimSpec, String> {
    let attr =
        |name: &str| -> Option<AttrVal> { attrs.iter().find(|(k, _)| k == name).map(|(_, v)| *v) };
    let num_attr = |name: &str, default: f64| -> Result<f64, String> {
        match attr(name) {
            None => Ok(default),
            Some(AttrVal::Num(n)) => Ok(n),
            Some(AttrVal::Range(..)) => Err(format!("attribute {name:?} must be a single number")),
        }
    };
    let range_attr = |name: &str| -> Result<Option<DelayRange>, String> {
        let (a, b) = match attr(name) {
            None => return Ok(None),
            Some(AttrVal::Range(a, b)) => (a, b),
            Some(AttrVal::Num(n)) => (n, n),
        };
        match DelayRange::try_from_ns(a, b) {
            Some(range) => Ok(Some(range)),
            None => Err(format!(
                "attribute {name:?} is not a delay range: {a}:{b} (need 0 <= min <= max)"
            )),
        }
    };
    let delay = range_attr("delay")?.unwrap_or(DelayRange::ZERO);
    // §4.2.2 extension: `rise=`/`fall=` on buffers and inverters give
    // separate edge delays.
    let edges = match (range_attr("rise")?, range_attr("fall")?) {
        (None, None) => None,
        (rise, fall) => {
            if !matches!(kind, "not" | "buf") {
                return Err(format!(
                    "rise/fall delays are only supported on not/buf, not {kind:?}"
                ));
            }
            Some(EdgeDelays {
                rise: rise.unwrap_or(delay),
                fall: fall.unwrap_or(delay),
            })
        }
    };

    let prim_kind = match kind {
        "and" => PrimKind::And,
        "or" => PrimKind::Or,
        "nand" => PrimKind::Nand,
        "nor" => PrimKind::Nor,
        "xor" => PrimKind::Xor,
        "xnor" => PrimKind::Xnor,
        "not" => PrimKind::Not,
        "buf" => PrimKind::Buf,
        "chg" => PrimKind::Chg,
        "delay" => PrimKind::Delay,
        "const0" => PrimKind::Const(Value::Zero),
        "const1" => PrimKind::Const(Value::One),
        "mux" => PrimKind::Mux {
            data: u32::try_from(inputs.saturating_sub(1)).unwrap_or(0),
        },
        "reg" => PrimKind::Reg { set_reset: false },
        "reg_sr" => PrimKind::Reg { set_reset: true },
        "latch" => PrimKind::Latch { set_reset: false },
        "latch_sr" => PrimKind::Latch { set_reset: true },
        "setup_hold" => PrimKind::SetupHold {
            setup: Time::from_ns(num_attr("setup", 0.0)?),
            hold: Time::from_ns(num_attr("hold", 0.0)?),
        },
        "setup_rise_hold_fall" => PrimKind::SetupRiseHoldFall {
            setup: Time::from_ns(num_attr("setup", 0.0)?),
            hold: Time::from_ns(num_attr("hold", 0.0)?),
        },
        "min_pulse_width" => PrimKind::MinPulseWidth {
            high: Time::from_ns(num_attr("high", 0.0)?),
            low: Time::from_ns(num_attr("low", 0.0)?),
        },
        other => return Err(format!("unknown primitive {other:?}")),
    };

    if prim_kind.has_output() && outputs != 1 {
        return Err(format!("primitive {kind:?} must drive exactly one output"));
    }
    if !prim_kind.has_output() && outputs != 0 {
        return Err(format!("checker {kind:?} cannot drive an output"));
    }
    Ok(PrimSpec {
        kind: prim_kind,
        delay,
        edges,
    })
}
