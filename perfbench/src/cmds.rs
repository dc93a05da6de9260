//! The public calls each `lsr` subcommand makes, from the trace file on
//! disk to the finished result, mirroring `src/bin/lsr.rs` with its
//! defaults (no flags). Printing is left out.

use crate::inputs::{Input, Layout};
use lsr_audit::{audit_extract, AuditOptions, AuditReport};
use lsr_core::{try_extract, LogicalStructure};
use lsr_flow::AnalyzeOptions;
use lsr_lint::{
    analyze_races_with, analyze_races_with_index, analyze_structure, causal_mode, lint_trace,
    model_diagnostics, HbEngine, HbIndex, HbStats, LintOptions, RaceReport, Severity,
    DEFAULT_DIAG_LIMIT,
};
use lsr_obs::Recorder;
use lsr_trace::Trace;

/// One `lsr` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    Extract,
    Races,
    Audit,
    Lint,
    Analyze,
    Report,
    Model,
}

impl Cmd {
    /// The subcommands with an end-to-end rate, in round order. `lsr
    /// model` adds a few percent to an extraction, so it only runs in
    /// the traced run, where its own layer is measured.
    pub const TIMED: [Cmd; 6] =
        [Cmd::Extract, Cmd::Races, Cmd::Audit, Cmd::Lint, Cmd::Analyze, Cmd::Report];

    pub fn name(self) -> &'static str {
        match self {
            Cmd::Extract => "extract",
            Cmd::Races => "races",
            Cmd::Audit => "audit",
            Cmd::Lint => "lint",
            Cmd::Analyze => "analyze",
            Cmd::Report => "report",
            Cmd::Model => "model",
        }
    }

    /// The benchmark's root span for one call of this subcommand.
    pub fn span(self) -> &'static str {
        match self {
            Cmd::Extract => "cmd.extract",
            Cmd::Races => "cmd.races",
            Cmd::Audit => "cmd.audit",
            Cmd::Lint => "cmd.lint",
            Cmd::Analyze => "cmd.analyze",
            Cmd::Report => "cmd.report",
            Cmd::Model => "cmd.model",
        }
    }
}

/// What a call produced, kept for the output checks.
#[derive(Default)]
pub struct Output {
    pub trace: Option<Trace>,
    pub ls: Option<LogicalStructure>,
    pub races: Option<RaceReport>,
    pub audit: Option<AuditReport>,
    /// Causal HB store statistics (traced `races` only, where the index
    /// is built separately so its cost shows as its own span).
    pub hb: Option<HbStats>,
    pub report_bytes: usize,
}

fn extract(trace: &Trace, cfg: &lsr_core::Config) -> Result<LogicalStructure, String> {
    let _sp = cfg.recorder.span("try_extract");
    try_extract(trace, cfg).map_err(|e| format!("cannot extract structure: {e}"))
}

fn verify(trace: &Trace, ls: &LogicalStructure, rec: &Recorder) -> Result<(), String> {
    let _sp = rec.span("verify");
    ls.verify(trace).map_err(|e| format!("internal invariant violated: {e}"))
}

fn deny_errors(what: &str, diags: &[lsr_lint::Diagnostic]) -> Result<(), String> {
    match diags.iter().find(|d| d.severity >= Severity::Error) {
        Some(d) => Err(format!("{what} reported an error: {d}")),
        None => Ok(()),
    }
}

/// Runs `cmd` on one input. An `Err` is what would make `lsr` exit
/// non-zero with its default flags.
///
/// With an enabled recorder every public call sits in a span, and
/// `races` is split into its causal HB build and the scan behind it
/// (`analyze_races_with` is exactly those two steps, plus one trace
/// index the split path builds twice).
pub fn run(cmd: Cmd, input: &Input, rec: &Recorder) -> Result<Output, String> {
    let _root = rec.span(cmd.span());
    let cfg = input.config().with_recorder(rec.clone());
    let unchecked = cmd == Cmd::Lint && input.layout == Layout::Single;
    let trace = {
        let _sp = rec.span("ingest");
        input.read(unchecked, rec)?
    };
    let mut out = Output::default();
    match cmd {
        Cmd::Extract => {
            let ls = extract(&trace, &cfg)?;
            verify(&trace, &ls, rec)?;
            out.ls = Some(ls);
        }
        Cmd::Races => {
            let _sp = rec.span("races");
            let report = if rec.is_enabled() {
                let ix = trace.index();
                let causal = {
                    let _sp = rec.span("hb.build");
                    HbIndex::build_with_engine(&trace, &ix, causal_mode(&cfg), HbEngine::default())
                };
                out.hb = Some(causal.stats());
                let _sp = rec.span("races.scan");
                analyze_races_with_index(&trace, &cfg, DEFAULT_DIAG_LIMIT, &causal)
            } else {
                analyze_races_with(&trace, &cfg, DEFAULT_DIAG_LIMIT, HbEngine::default())
            };
            let report = report
                .map_err(|c| format!("causal happened-before cycle through {} task(s)", c.len()))?;
            out.races = Some(report);
        }
        Cmd::Audit => {
            let (ls, report) = {
                let _sp = rec.span("audit_extract");
                audit_extract(&trace, &cfg, AuditOptions::default())
                    .map_err(|e| format!("cannot extract structure: {e}"))?
            };
            if !report.is_certified() {
                return Err(format!("certificate rejected: {} error(s)", report.error_count()));
            }
            out.ls = Some(ls);
            out.audit = Some(report);
        }
        Cmd::Lint => {
            let report = {
                let _sp = rec.span("lint");
                lint_trace(&trace, &LintOptions::with_config(cfg.clone()))
            };
            deny_errors("lint", &report.diagnostics)?;
        }
        Cmd::Analyze => {
            let ls = extract(&trace, &cfg)?;
            let report = {
                let _sp = rec.span("analyze_structure");
                analyze_structure(&trace, &ls, rec, &AnalyzeOptions::default())
            };
            deny_errors("analyze", &report.diagnostics)?;
        }
        Cmd::Report => {
            let ls = extract(&trace, &cfg)?;
            verify(&trace, &ls, rec)?;
            let html = {
                let _sp = rec.span("render");
                lsr_render::html_report(&input.path().to_string_lossy(), &trace, &ls)
            };
            out.report_bytes = html.len();
        }
        Cmd::Model => {
            let ls = extract(&trace, &cfg)?;
            let model = lsr_model::build_with(&trace.declarations(), rec);
            let report = lsr_model::check_with(&model, &trace, &ls, rec);
            deny_errors("model", &model_diagnostics(&report, DEFAULT_DIAG_LIMIT))?;
        }
    }
    out.trace = Some(trace);
    Ok(out)
}
