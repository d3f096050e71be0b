//! Trust-boundary verification for [`AlphaProgram`]s: a typed
//! [`Diagnostic`] framework backing every deserialization path.
//!
//! The binary codec (`store::progio`) restores instruction fields
//! verbatim — *bitwise round trip is the contract* — so a hostile or
//! corrupt frame can carry an in-range op code with an out-of-range
//! register, a non-finite literal, or a relation op in `setup`. None of
//! those are caught by framing/CRC checks, and all of them reach
//! `compile`/`BatchInterpreter` as out-of-bounds slice math or
//! undefined scheduling. The verifier closes that hole with two layers:
//!
//! * **Errors** — structural violations against an [`AlphaConfig`]
//!   (register/index bounds, non-finite literals, relation ops in setup,
//!   per-function length limits). A program with errors must never be
//!   compiled or interpreted; every load boundary (archive, checkpoint,
//!   wire serving, text parse) rejects it with a typed error.
//! * **Warnings** — semantic degeneracies proven by [`crate::absint`]
//!   (constant / always-NaN / day-invariant prediction, no input use).
//!   These drive search-time rejection (paper Fig. 5b) but must *not*
//!   reject archived data: archives legitimately hold NaN-IC entries and
//!   checkpointed populations hold fitness-less members.
//!
//! Formats that carry no `AlphaConfig` (archives, checkpoints) use the
//! configuration-free [`check_envelope`]: registers below the 16-per-bank
//! liveness cap (`prune` packs each bank into 16 bits of a `u64`), finite
//! literals, no relation ops in setup, and a generous per-function length
//! cap. Boundaries that do know the config (serving, text parsing) run
//! the full [`ProgramVerifier`].

use std::fmt;

use crate::absint;
use crate::config::AlphaConfig;
use crate::instruction::Instruction;
use crate::op::Op;
use crate::program::{AlphaProgram, FunctionId};
use crate::prune;

/// Registers at or above this index cannot participate in liveness
/// tracking (`prune` packs each bank into 16 bits of a `u64`), so the
/// configuration-free envelope rejects them outright.
pub const ENVELOPE_MAX_REG: u8 = 16;

/// Configuration-free upper bound on instructions per function: far above
/// any real configuration (`max_update_ops` defaults to 45), low enough
/// to bound hostile payloads.
pub const ENVELOPE_MAX_OPS: usize = 256;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The program is structurally invalid and must not be executed.
    Error,
    /// The program is well-formed but semantically degenerate.
    Warning,
}

/// Machine-readable reason for a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagnosticCode {
    /// An input or output register index exceeds its bank size.
    RegisterOutOfRange,
    /// An element/axis index exceeds its domain (e.g. an `m_get` feature
    /// row at or beyond `dim`).
    IndexOutOfRange,
    /// A used literal slot holds NaN or ±inf.
    NonFiniteLiteral,
    /// A cross-sectional relation op appears in `setup()` (which runs
    /// before any cross-section exists).
    RelationInSetup,
    /// A function is shorter than `min_ops`.
    FunctionTooShort,
    /// A function exceeds its per-function instruction limit.
    FunctionTooLong,
    /// The prediction never reads the feature input `m0`.
    NoInput,
    /// The prediction is provably cross-sectionally constant.
    ConstantPrediction,
    /// The prediction is provably NaN on every stock and day.
    AlwaysNanPrediction,
    /// The prediction is provably identical on every day.
    DayInvariantPrediction,
}

/// One verification finding, with enough span information to point at
/// the offending instruction.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Machine-readable reason.
    pub code: DiagnosticCode,
    /// The function the finding is in, if instruction-specific.
    pub function: Option<FunctionId>,
    /// Instruction index within the function, if instruction-specific.
    pub instr: Option<usize>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    fn error(
        code: DiagnosticCode,
        function: FunctionId,
        instr: usize,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            code,
            function: Some(function),
            instr: Some(instr),
            message,
        }
    }

    fn warning(code: DiagnosticCode, message: String) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            code,
            function: None,
            instr: None,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.function, self.instr) {
            (Some(func), Some(i)) => write!(f, "{}() op {}: {}", func.name(), i, self.message),
            _ => write!(f, "{}", self.message),
        }
    }
}

/// Everything the verifier found, errors first.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// All findings, errors ordered before warnings.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// Whether the program is safe to compile and execute.
    pub fn is_valid(&self) -> bool {
        self.first_error().is_none()
    }

    /// The first error-severity finding, if any.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
    }

    /// Iterates the warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }
}

/// Static checker enforcing structural validity against one
/// [`AlphaConfig`] and reporting semantic degeneracy warnings.
#[derive(Debug, Clone)]
pub struct ProgramVerifier {
    cfg: AlphaConfig,
}

impl ProgramVerifier {
    /// Builds a verifier for programs meant to run under `cfg`.
    pub fn new(cfg: &AlphaConfig) -> ProgramVerifier {
        ProgramVerifier { cfg: *cfg }
    }

    /// Runs every check: structural errors plus (only when structurally
    /// valid — the analyses index registers by the config) semantic
    /// warnings from pruning and abstract interpretation.
    pub fn verify(&self, prog: &AlphaProgram) -> VerifyReport {
        let mut report = VerifyReport::default();
        self.structural(prog, &mut report);
        if report.is_valid() {
            self.semantic(prog, &mut report);
        }
        report
    }

    /// Structural validation only: the cheap, load-boundary layer.
    /// Returns the first error, if any.
    pub fn ensure_valid(&self, prog: &AlphaProgram) -> Result<(), Diagnostic> {
        let mut report = VerifyReport::default();
        self.structural(prog, &mut report);
        match report.diagnostics.into_iter().next() {
            Some(d) => Err(d),
            None => Ok(()),
        }
    }

    fn structural(&self, prog: &AlphaProgram, report: &mut VerifyReport) {
        let cfg = &self.cfg;
        for f in FunctionId::ALL {
            let instrs = prog.function(f);
            if instrs.len() < cfg.min_ops {
                report.diagnostics.push(Diagnostic {
                    severity: Severity::Error,
                    code: DiagnosticCode::FunctionTooShort,
                    function: Some(f),
                    instr: None,
                    message: format!("{}() has fewer than {} ops", f.name(), cfg.min_ops),
                });
            }
            let max = AlphaProgram::max_ops(cfg, f);
            if instrs.len() > max {
                report.diagnostics.push(Diagnostic {
                    severity: Severity::Error,
                    code: DiagnosticCode::FunctionTooLong,
                    function: Some(f),
                    instr: None,
                    message: format!("{}() exceeds {} ops", f.name(), max),
                });
            }
            for (i, instr) in instrs.iter().enumerate() {
                check_instruction(instr, f, i, cfg, report);
            }
        }
    }

    fn semantic(&self, prog: &AlphaProgram, report: &mut VerifyReport) {
        let pruned = prune::prune(prog);
        if !pruned.uses_input {
            report.diagnostics.push(Diagnostic::warning(
                DiagnosticCode::NoInput,
                "prediction never reads the feature input m0".to_string(),
            ));
        }
        let facts = absint::analyze(prog, &self.cfg).facts;
        if facts.always_nan {
            report.diagnostics.push(Diagnostic::warning(
                DiagnosticCode::AlwaysNanPrediction,
                "prediction is provably NaN on every stock and day".to_string(),
            ));
        } else if facts.uniform {
            report.diagnostics.push(Diagnostic::warning(
                DiagnosticCode::ConstantPrediction,
                "prediction is provably cross-sectionally constant".to_string(),
            ));
        }
        if facts.day_invariant && !facts.always_nan {
            report.diagnostics.push(Diagnostic::warning(
                DiagnosticCode::DayInvariantPrediction,
                "prediction is provably identical on every day".to_string(),
            ));
        }
    }
}

fn check_instruction(
    instr: &Instruction,
    f: FunctionId,
    i: usize,
    cfg: &AlphaConfig,
    report: &mut VerifyReport,
) {
    let op = instr.op;
    let kinds = op.input_kinds();
    let mut regs = Vec::with_capacity(3);
    if !kinds.is_empty() {
        regs.push(("in1", kinds[0], instr.in1));
    }
    if kinds.len() > 1 {
        regs.push(("in2", kinds[1], instr.in2));
    }
    if op != Op::NoOp {
        regs.push(("out", op.output_kind(), instr.out));
    }
    for (slot, kind, reg) in regs {
        if (reg as usize) >= cfg.bank_size(kind) {
            report.diagnostics.push(Diagnostic::error(
                DiagnosticCode::RegisterOutOfRange,
                f,
                i,
                format!(
                    "{}: {slot} register {}{reg} exceeds bank size {}",
                    op.name(),
                    kind.prefix(),
                    cfg.bank_size(kind)
                ),
            ));
        }
    }
    let ix_use = op.ix_use();
    for slot in 0..ix_use.count() {
        let domain = ix_use.domain(slot, cfg.dim);
        if (instr.ix[slot] as usize) >= domain {
            report.diagnostics.push(Diagnostic::error(
                DiagnosticCode::IndexOutOfRange,
                f,
                i,
                format!(
                    "{}: index {} = {} exceeds its domain {domain}",
                    op.name(),
                    slot,
                    instr.ix[slot]
                ),
            ));
        }
    }
    for slot in 0..op.lit_use().count() {
        if !instr.lit[slot].is_finite() {
            report.diagnostics.push(Diagnostic::error(
                DiagnosticCode::NonFiniteLiteral,
                f,
                i,
                format!("{}: literal {} is {}", op.name(), slot, instr.lit[slot]),
            ));
        }
    }
    if f == FunctionId::Setup && op.is_relation() {
        report.diagnostics.push(Diagnostic::error(
            DiagnosticCode::RelationInSetup,
            f,
            i,
            format!("{}: relation op not allowed in setup", op.name()),
        ));
    }
}

/// Configuration-free envelope check for formats that carry no
/// [`AlphaConfig`] (archives, checkpoints): rejects programs no
/// configuration could accept. See the module docs for the bounds.
pub fn check_envelope(prog: &AlphaProgram) -> Result<(), Diagnostic> {
    for f in FunctionId::ALL {
        let instrs = prog.function(f);
        if instrs.len() > ENVELOPE_MAX_OPS {
            return Err(Diagnostic {
                severity: Severity::Error,
                code: DiagnosticCode::FunctionTooLong,
                function: Some(f),
                instr: None,
                message: format!("{}() exceeds the {ENVELOPE_MAX_OPS}-op envelope", f.name()),
            });
        }
        for (i, instr) in instrs.iter().enumerate() {
            let op = instr.op;
            let kinds = op.input_kinds();
            let mut regs = Vec::with_capacity(3);
            if !kinds.is_empty() {
                regs.push(instr.in1);
            }
            if kinds.len() > 1 {
                regs.push(instr.in2);
            }
            if op != Op::NoOp {
                regs.push(instr.out);
            }
            if let Some(&reg) = regs.iter().find(|&&r| r >= ENVELOPE_MAX_REG) {
                return Err(Diagnostic::error(
                    DiagnosticCode::RegisterOutOfRange,
                    f,
                    i,
                    format!(
                        "{}: register {reg} exceeds the {ENVELOPE_MAX_REG}-per-bank cap",
                        op.name()
                    ),
                ));
            }
            for slot in 0..op.lit_use().count() {
                if !instr.lit[slot].is_finite() {
                    return Err(Diagnostic::error(
                        DiagnosticCode::NonFiniteLiteral,
                        f,
                        i,
                        format!("{}: literal {} is {}", op.name(), slot, instr.lit[slot]),
                    ));
                }
            }
            if f == FunctionId::Setup && op.is_relation() {
                return Err(Diagnostic::error(
                    DiagnosticCode::RelationInSetup,
                    f,
                    i,
                    format!("{}: relation op not allowed in setup", op.name()),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    fn cfg() -> AlphaConfig {
        AlphaConfig::default()
    }

    #[test]
    fn seed_programs_verify_clean() {
        let cfg = cfg();
        let verifier = ProgramVerifier::new(&cfg);
        for p in [
            init::domain_expert(&cfg),
            init::two_layer_nn(&cfg),
            init::industry_reversal(&cfg),
        ] {
            let report = verifier.verify(&p);
            assert!(report.is_valid(), "{:?}", report.first_error());
            assert_eq!(report.warnings().count(), 0, "{:?}", report.diagnostics);
        }
    }

    #[test]
    fn out_of_range_register_is_an_error() {
        let cfg = cfg();
        let mut p = init::domain_expert(&cfg);
        p.predict[0].in1 = 200;
        let d = ProgramVerifier::new(&cfg).ensure_valid(&p).unwrap_err();
        assert_eq!(d.code, DiagnosticCode::RegisterOutOfRange);
        assert_eq!(d.function, Some(FunctionId::Predict));
        assert_eq!(d.instr, Some(0));
        check_envelope(&p).unwrap_err();
    }

    #[test]
    fn out_of_range_feature_index_is_an_error() {
        let cfg = cfg();
        let mut p = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![Instruction::new(Op::MGet, 0, 0, 1, [0.0; 2], [0, 0])],
            update: vec![Instruction::nop()],
        };
        p.predict[0].ix = [cfg.dim as u8, 0];
        let d = ProgramVerifier::new(&cfg).ensure_valid(&p).unwrap_err();
        assert_eq!(d.code, DiagnosticCode::IndexOutOfRange);
        // The envelope has no dim, so it cannot catch this one.
        check_envelope(&p).unwrap();
    }

    #[test]
    fn non_finite_literal_is_an_error() {
        let cfg = cfg();
        let mut p = init::domain_expert(&cfg);
        p.setup.push(Instruction::new(
            Op::SConst,
            0,
            0,
            2,
            [f64::NAN, 0.0],
            [0; 2],
        ));
        let d = ProgramVerifier::new(&cfg).ensure_valid(&p).unwrap_err();
        assert_eq!(d.code, DiagnosticCode::NonFiniteLiteral);
        check_envelope(&p).unwrap_err();
    }

    #[test]
    fn relation_in_setup_is_an_error() {
        let cfg = cfg();
        let mut p = init::domain_expert(&cfg);
        p.setup
            .push(Instruction::new(Op::RelRank, 2, 0, 3, [0.0; 2], [0; 2]));
        let d = ProgramVerifier::new(&cfg).ensure_valid(&p).unwrap_err();
        assert_eq!(d.code, DiagnosticCode::RelationInSetup);
        check_envelope(&p).unwrap_err();
    }

    #[test]
    fn degenerate_programs_warn_but_stay_valid() {
        let cfg = cfg();
        let p = AlphaProgram {
            setup: vec![Instruction::new(Op::SConst, 0, 0, 2, [4.0, 0.0], [0; 2])],
            predict: vec![Instruction::new(Op::SMax, 2, 2, 1, [0.0; 2], [0; 2])],
            update: vec![Instruction::nop()],
        };
        let report = ProgramVerifier::new(&cfg).verify(&p);
        assert!(report.is_valid());
        let codes: Vec<_> = report.warnings().map(|d| d.code).collect();
        assert!(codes.contains(&DiagnosticCode::NoInput));
        assert!(codes.contains(&DiagnosticCode::ConstantPrediction));
        assert!(codes.contains(&DiagnosticCode::DayInvariantPrediction));
    }

    #[test]
    fn oversized_function_is_an_error() {
        let cfg = cfg();
        let mut p = init::domain_expert(&cfg);
        p.update = vec![Instruction::nop(); cfg.max_update_ops + 1];
        let d = ProgramVerifier::new(&cfg).ensure_valid(&p).unwrap_err();
        assert_eq!(d.code, DiagnosticCode::FunctionTooLong);
        // Under the generous envelope cap, though.
        check_envelope(&p).unwrap();
        p.update = vec![Instruction::nop(); ENVELOPE_MAX_OPS + 1];
        check_envelope(&p).unwrap_err();
    }
}
