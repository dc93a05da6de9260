//! End-to-end and per-layer benchmark of the `lsr` subcommands.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload jacobi-halo|mergetree-wide|fuzz-corpus --seed N --seconds S --trace 0|1
//! ```
//!
//! One single-threaded process per run: it simulates the workload's
//! traces from the seed and writes them under `.bench_work/` (set-up,
//! timed several times), then times whole rounds of the calls each
//! subcommand makes, from the file on disk to the finished result, for
//! `--seconds`, keeping no outputs; then makes one untimed pass whose
//! outputs it checks. `--trace 1` gives every
//! subcommand of a round a second pass recorded through
//! `lsr_obs::Recorder` and reports per-layer self times instead, with an
//! attribution report on stderr. The last line on stdout is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. See
//! README.md.

mod checks;
mod cmds;
mod inputs;
mod layers;
mod reference;

use checks::Check;
use cmds::{Cmd, Output};
use inputs::{Input, Workload};
use layers::Agg;
use lsr_core::LogicalStructure;
use lsr_obs::Recorder;
use lsr_trace::Trace;
use reference::Reference;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their total time over their number.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_SECS: f64 = 5.0;
/// Set-up time between two reference kernel calls.
const SETUP_SAMPLE_SECS: f64 = 0.25;
/// Unreported scan pairs whose order the Jacobi check searches.
const ORDERED_SAMPLES: usize = 256;
/// Alternations of serial and 2-thread extraction behind
/// `core.threads2_speedup`.
const SPEEDUP_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload = Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?;
    let num = |flag: &str, v: String| {
        v.parse::<u64>().map_err(|_| format!("{flag} wants a number, got {v:?}"))
    };
    let seed = num("--seed", get("--seed")?)?;
    let seconds = num("--seconds", get("--seconds")?)?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        v => return Err(format!("--trace wants 0 or 1, got {v:?}")),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// Operation accounting. An operation is one subcommand call on one
/// trace, or one check. A program error fails the operation; a failed
/// check also makes the run incorrect.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    wrong: u64,
}

impl Ops {
    fn call(&mut self, what: &str, r: Result<Output, String>) -> Option<Output> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            eprintln!("FAILED {what}: {e}");
        })
        .ok()
    }

    fn check(&mut self, what: &str, r: Check) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            self.wrong += 1;
            eprintln!("CHECK FAILED {what}: {e}");
        }
    }
}

/// A checked input's trace, structure and configuration, which the
/// traced run's layer calls reuse.
type Kept = (Trace, LogicalStructure, lsr_core::Config);

struct Bench {
    workload: Workload,
    seed: u64,
    inputs: Vec<Input>,
    tasks: usize,
    ops: Ops,
    reference: Reference,
}

/// Per-round traced results that are counts rather than times.
#[derive(Default)]
struct RoundCounts {
    hb_bytes: usize,
    hb_lanes: usize,
    scanned_pairs: usize,
    audit_checks: u64,
    report_bytes: usize,
    phases: usize,
    atoms: u64,
}

impl RoundCounts {
    fn add(&mut self, cmd: Cmd, out: &Output) {
        if let Some(hb) = &out.hb {
            self.hb_bytes += hb.bytes;
            self.hb_lanes += hb.lanes;
        }
        self.report_bytes += out.report_bytes;
        if cmd == Cmd::Extract {
            self.phases += out.ls.as_ref().map_or(0, |ls| ls.num_phases());
        }
        self.scanned_pairs += out.races.as_ref().map_or(0, |r| r.scanned_pairs);
        self.audit_checks += out.audit.as_ref().map_or(0, |a| a.checks);
    }
}

/// The times of one round, per timed subcommand.
#[derive(Default)]
struct Round {
    plain: [Duration; 6],
    /// Traced passes (traced run only).
    recorded: [Duration; 6],
    /// Reference kernel times before and after the untraced pass.
    reference: [[Duration; 2]; 6],
}

impl Bench {
    /// One round: every timed subcommand over every input. Returns the
    /// wall time of each subcommand (the sum of its calls; dropping
    /// outputs is outside the clock) and the reference kernel times
    /// around its pass. With `traced`, each subcommand also makes a pass
    /// recorded into `traced`, right before or after its untraced pass
    /// (alternating with `traced_first`, as the second pass runs on
    /// memory the first has just freed), so host drift and allocator
    /// state hit both alike.
    fn round(
        &mut self,
        mut traced: Option<(&mut Agg, &mut RoundCounts)>,
        traced_first: bool,
    ) -> Round {
        let mut r = Round::default();
        for (k, cmd) in Cmd::TIMED.into_iter().enumerate() {
            if !traced_first || traced.is_none() {
                (r.plain[k], r.reference[k]) = self.plain_pass(cmd);
            }
            if let Some((agg, counts)) = traced.as_mut() {
                let rec = Recorder::enabled();
                r.recorded[k] = self.pass(cmd, &rec, counts);
                let p = rec.profile(cmd.name()).expect("an enabled recorder has a profile");
                if cmd == Cmd::Extract {
                    counts.atoms += p.counter("core.atoms").unwrap_or(0);
                }
                agg.add(&p);
                if traced_first {
                    (r.plain[k], r.reference[k]) = self.plain_pass(cmd);
                }
            }
        }
        r
    }

    /// `cmd`'s untraced pass between two reference kernel calls. Returns
    /// the pass time and the two kernel times.
    fn plain_pass(&mut self, cmd: Cmd) -> (Duration, [Duration; 2]) {
        let before = self.reference.time();
        let time = self.pass(cmd, &Recorder::disabled(), &mut RoundCounts::default());
        (time, [before, self.reference.time()])
    }

    /// `cmd` over every input; the sum of the call times. No output
    /// outlives its call, so the rounds hold one call's memory at a time.
    fn pass(&mut self, cmd: Cmd, rec: &Recorder, counts: &mut RoundCounts) -> Duration {
        let mut time = Duration::ZERO;
        for i in 0..self.inputs.len() {
            let t0 = Instant::now();
            let r = cmds::run(cmd, &self.inputs[i], rec);
            time += t0.elapsed();
            let what = format!("{} {}", cmd.name(), self.inputs[i].name);
            if let Some(out) = self.ops.call(&what, r) {
                counts.add(cmd, &out);
            }
        }
        time
    }

    /// One untimed pass of `extract`, `races` and `audit`, input by
    /// input, and the output checks over it. Each input is generated
    /// again to check the file read back against. Each input's outputs
    /// are dropped after its checks; with `keep`, its trace, structure
    /// and configuration are returned for the traced run's layer calls.
    fn check(&mut self, keep: bool) -> Vec<Kept> {
        let threads = threads2();
        let mut kept = Vec::new();
        for (input, g) in self.inputs.iter().zip(inputs::generate(self.workload, self.seed)) {
            let name = &input.name;
            let ops = &mut self.ops;
            ops.check(&format!("read back {name}"), checks::read_back(input, &g.trace));
            drop(g);
            let mut run = |cmd: Cmd| {
                let r = cmds::run(cmd, input, &Recorder::disabled());
                ops.call(&format!("{} {name} (checked)", cmd.name()), r)
            };
            let (ex, races, audit) = (run(Cmd::Extract), run(Cmd::Races), run(Cmd::Audit));
            let (Some(Output { trace: Some(trace), ls: Some(ls), .. }), Some(races), Some(audit)) =
                (ex, races.and_then(|o| o.races), audit.and_then(|o| o.audit))
            else {
                ops.check(
                    &format!("outputs of {name}"),
                    Err("a subcommand failed, nothing to check".into()),
                );
                continue;
            };
            let cfg = input.config();
            ops.check(&format!("receive after send {name}"), checks::recv_after_send(&trace, &ls));
            ops.check(&format!("phase graph acyclic {name}"), checks::phase_dag_acyclic(&ls));
            ops.check(&format!("audit certified {name}"), checks::certified(&audit));
            ops.check(&format!("model conforms {name}"), checks::conforms(&trace, &ls));
            ops.check(
                &format!("1 vs {threads} threads {name}"),
                checks::threads_identical(&trace, &cfg, threads),
            );
            let imb = lsr_metrics::Imbalance::compute(&trace, &ls);
            ops.check(&format!("imbalance {name}"), checks::imbalance_matches(&trace, &ls, &imb));
            drop(imb);
            let dd = lsr_metrics::DifferentialDuration::compute(&trace, &ls);
            ops.check(
                &format!("differential duration {name}"),
                checks::differential_matches(&trace, &ls, &dd),
            );
            drop(dd);
            match self.workload {
                Workload::JacobiHalo => {
                    let g = checks::CausalGraph::build(&trace, &cfg);
                    ops.check(
                        &format!("races concurrent {name}"),
                        checks::races_concurrent(&g, &races),
                    );
                    ops.check(
                        &format!("scanned pairs ordered {name}"),
                        checks::scanned_pairs_ordered(&trace, &g, &races, ORDERED_SAMPLES),
                    );
                }
                Workload::MergetreeWide => {
                    ops.check(&format!("no races {name}"), checks::no_races(&races));
                    ops.check(
                        &format!("tree levels {name}"),
                        checks::tree_levels_aligned(&trace, inputs::MERGETREE_RANKS),
                    );
                }
                Workload::FuzzCorpus => {}
            }
            if keep {
                kept.push((trace, ls, cfg));
            }
        }
        kept
    }

    /// Calls into the metrics and render layers that `lsr report` makes
    /// inside `html_report`, each in its own span, once per input.
    fn layer_calls(&self, kept: &[Kept], agg: &mut Agg) {
        use lsr_render::{logical_svg, physical_svg, Coloring};
        let rec = Recorder::enabled();
        for (trace, ls, _) in kept {
            let _root = rec.span("layers");
            {
                let _sp = rec.span("layer.idle");
                std::hint::black_box(lsr_metrics::idle_experienced(trace));
            }
            {
                let _sp = rec.span("layer.differential");
                std::hint::black_box(lsr_metrics::DifferentialDuration::compute(trace, ls));
            }
            {
                let _sp = rec.span("layer.imbalance");
                std::hint::black_box(lsr_metrics::Imbalance::compute(trace, ls));
            }
            {
                let _sp = rec.span("layer.critical_path");
                std::hint::black_box(lsr_metrics::CriticalPath::compute(trace));
            }
            let _sp = rec.span("layer.svg");
            std::hint::black_box(logical_svg(trace, ls, &Coloring::Phase));
            std::hint::black_box(physical_svg(trace, ls, &Coloring::Phase));
        }
        if let Some(p) = rec.profile("layers") {
            agg.add(&p);
        }
    }

    /// Serial over 2-thread extraction time of the whole workload,
    /// median of alternating repetitions.
    fn threads2_speedup(&self, kept: &[Kept]) -> f64 {
        let time = |threads: usize| {
            let t0 = Instant::now();
            for (t, _, cfg) in kept {
                std::hint::black_box(
                    lsr_core::try_extract(t, &cfg.clone().with_threads(threads)).ok(),
                );
            }
            t0.elapsed().as_secs_f64()
        };
        let mut ratios: Vec<f64> = (0..SPEEDUP_REPS).map(|_| time(1) / time(threads2())).collect();
        median(&mut ratios)
    }
}

/// Worker threads for the parallel rung: 2, or fewer on a smaller host,
/// so no run starts more threads than the host has cores.
fn threads2() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A memory field of this process's `/proc/self/status`, in KiB.
fn status_kib(field: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read {field}: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))
        .ok_or(format!("no {field} line"))?;
    line.split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or(format!("cannot parse {line:?}"))
}

/// The workload's inputs on disk, after the last of several set-ups.
struct Setup {
    inputs: Vec<Input>,
    /// Mean wall time of one set-up.
    secs: f64,
    reps: usize,
    /// Reference kernel times taken between set-ups.
    reference: Vec<Duration>,
}

/// Simulates and writes the workload at least `SETUP_MIN_REPS` times
/// and for at least `SETUP_MIN_SECS` in total, so a set-up of a few
/// hundred milliseconds still gets a steady mean. Traces are generated,
/// written and dropped one at a time, so set-up holds at most one. The
/// reference kernel runs before a set-up once `SETUP_SAMPLE_SECS` of
/// set-up time have passed since its last call (so before each set-up
/// that takes longer), and once at the end.
fn setup(
    w: Workload,
    seed: u64,
    dir: &Path,
    agg: Option<&mut Agg>,
    kernel: &mut Reference,
) -> Result<Setup, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    let rec = if agg.is_some() { Recorder::enabled() } else { Recorder::disabled() };
    let mut total = Duration::ZERO;
    let mut reps = 0;
    let mut inputs = Vec::new();
    let mut reference = Vec::new();
    // Set-up time at the last kernel call.
    let mut sampled: Option<Duration> = None;
    while reps < SETUP_MIN_REPS || total.as_secs_f64() < SETUP_MIN_SECS {
        inputs.clear();
        if sampled.is_none_or(|at| (total - at).as_secs_f64() >= SETUP_SAMPLE_SECS) {
            reference.push(kernel.time());
            sampled = Some(total);
        }
        let mut gen = inputs::generate(w, seed);
        let t0 = Instant::now();
        loop {
            let _sp = rec.span("setup");
            let g = {
                let _sp = rec.span("generate");
                gen.next()
            };
            let Some(g) = g else { break };
            let _sp = rec.span("write");
            inputs.push(inputs::write(&g, dir)?);
        }
        total += t0.elapsed();
        reps += 1;
    }
    reference.push(kernel.time());
    if let (Some(a), Some(p)) = (agg, rec.profile("setup")) {
        a.add(&p);
    }
    Ok(Setup { inputs, reps, secs: total.as_secs_f64() / reps as f64, reference })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn json(correct: bool, ops: &Ops, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted,
        ops.failed,
        body.join(", ")
    )
}

fn run(args: &Args, dir: &Path) -> Result<String, String> {
    let mut setup_agg = Agg::default();
    let mut kernel = Reference::new()?;
    let Setup { inputs, secs: setup_raw, reps: setup_reps, reference: setup_ref } =
        setup(args.workload, args.seed, dir, args.trace.then_some(&mut setup_agg), &mut kernel)?;
    let setup_slowdown = reference::slowdown(&setup_ref);
    let tasks: usize = inputs.iter().map(|i| i.tasks).sum();
    let bytes: u64 = inputs.iter().map(|i| i.bytes).sum();
    eprintln!(
        "{}: {} trace(s), {tasks} tasks, {bytes} bytes on disk; set-up {setup_raw:.3} s (mean of {setup_reps}), host slowdown {setup_slowdown:.3}, reference kernel {} KiB resident",
        args.workload.name(),
        inputs.len(),
        kernel.resident_kib
    );
    let mut b = Bench {
        workload: args.workload,
        seed: args.seed,
        inputs,
        tasks,
        ops: Ops::default(),
        reference: kernel,
    };

    // Warm the page cache, the code and the allocator before timing:
    // one extraction of every input.
    for i in 0..b.inputs.len() {
        let r = cmds::run(Cmd::Extract, &b.inputs[i], &Recorder::disabled());
        b.ops.call(&format!("warm-up extract {}", b.inputs[i].name), r);
    }

    let budget = Duration::from_secs(args.seconds);
    let mut rounds: Vec<Round> = Vec::new();
    let mut agg = Agg::default();
    let mut counts = RoundCounts::default();
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed() < budget {
        let mut last = RoundCounts::default();
        let r = b.round(args.trace.then_some((&mut agg, &mut last)), rounds.len() % 2 == 1);
        let shown: Vec<String> = Cmd::TIMED
            .iter()
            .zip(&r.plain)
            .map(|(c, t)| format!("{} {:.3}", c.name(), t.as_secs_f64()))
            .collect();
        eprintln!("round {}: {} s", rounds.len() + 1, shown.join(", "));
        rounds.push(r);
        if args.trace {
            counts = last;
        }
    }
    eprintln!("{} timed round(s) in {:.1} s", rounds.len(), start.elapsed().as_secs_f64());
    // The peak of the rounds, before the checks add their own, less the
    // reference kernel's buffers, which stay resident all along.
    let peak_rss_mb = status_kib("VmHWM")?.saturating_sub(b.reference.resident_kib) as f64 / 1024.0;
    let kept = b.check(args.trace);

    let metrics = if args.trace {
        let model_rec = Recorder::enabled();
        for i in 0..b.inputs.len() {
            let r = cmds::run(Cmd::Model, &b.inputs[i], &model_rec);
            b.ops.call(&format!("model {}", b.inputs[i].name), r);
        }
        if let Some(p) = model_rec.profile("model") {
            agg.add(&p);
        }
        b.layer_calls(&kept, &mut agg);
        eprint!("{}", agg.attribution(args.workload.name(), rounds.len() as u64));
        let t = Traced {
            agg,
            setup_agg,
            setup_reps,
            counts,
            rounds,
            bytes,
            speedup: b.threads2_speedup(&kept),
        };
        per_layer(&b, &t)
    } else {
        let mut m = end_to_end(&b, &rounds, setup_raw / setup_slowdown);
        m.push(Metric { name: "peak_rss_mb", value: peak_rss_mb, unit: "MiB" });
        m
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} measured {}", m.name, m.value));
    }
    Ok(json(b.ops.wrong == 0, &b.ops, &metrics))
}

/// The end-to-end metrics, each time scaled to the reference host (see
/// `reference`): `setup_s` is the set-up time there, already scaled.
fn end_to_end(b: &Bench, rounds: &[Round], setup_s: f64) -> Vec<Metric> {
    const NAMES: [&str; 6] = [
        "extract_tasks_per_s",
        "races_tasks_per_s",
        "audit_tasks_per_s",
        "lint_tasks_per_s",
        "analyze_tasks_per_s",
        "report_tasks_per_s",
    ];
    let mut out = vec![Metric { name: "setup_s", value: setup_s, unit: "s" }];
    // Work completed per second over the whole run. The host switches
    // between a fast and a slow state; the total weighs each round by
    // its time and repeats better from run to run than the median
    // round, which jumps between the two states. The reference kernel
    // around the passes then scales the rate to the reference host.
    let mut shown = Vec::new();
    for (k, name) in NAMES.into_iter().enumerate() {
        let secs: f64 = rounds.iter().map(|r| r.plain[k].as_secs_f64()).sum();
        let raw = (b.tasks * rounds.len()) as f64 / secs;
        let samples: Vec<Duration> = rounds.iter().flat_map(|r| r.reference[k]).collect();
        let slowdown = reference::slowdown(&samples);
        shown.push(format!("{name} {raw:.0} (slowdown {slowdown:.3})"));
        out.push(Metric { name, value: raw * slowdown, unit: "tasks/s" });
    }
    eprintln!("measured on this host: {}", shown.join(", "));
    out
}

/// What the traced run measured.
struct Traced {
    /// Spans of the traced rounds, of `lsr model` and of the layer calls.
    agg: Agg,
    setup_agg: Agg,
    setup_reps: usize,
    /// Counts of the last traced round.
    counts: RoundCounts,
    rounds: Vec<Round>,
    bytes: u64,
    speedup: f64,
}

fn per_layer(b: &Bench, tr: &Traced) -> Vec<Metric> {
    let Traced { agg, setup_agg, setup_reps, counts, rounds, bytes, speedup } = tr;
    let t = b.tasks as f64;
    let r = rounds.len() as f64;
    // Time per task of one round's worth of calls.
    let per_round = |ns: u64| ns as f64 / (t * r);
    let once = |ns: u64| ns as f64 / t;
    let setups = |ns: u64| ns as f64 / (t * *setup_reps as f64);
    let incl = |root: &str, name: &str| agg.get(root, name).incl_ns;
    let own = |root: &str, name: &str| agg.get(root, name).self_ns;

    let ingest_ns: u64 = Cmd::TIMED.iter().map(|c| incl(c.span(), "ingest")).sum();
    let reads = Cmd::TIMED.len() as f64 * r;
    let total = |times: fn(&Round) -> &[Duration; 6]| -> f64 {
        rounds.iter().flat_map(times).map(Duration::as_secs_f64).sum()
    };
    let mut m = vec![
        Metric {
            name: "trace.ingest_ns_per_task",
            value: ingest_ns as f64 / (t * reads),
            unit: "ns/task",
        },
        Metric {
            name: "trace.ingest_mb_per_s",
            value: *bytes as f64 * reads / 1e6 / (ingest_ns as f64 / 1e9),
            unit: "MB/s",
        },
        Metric {
            name: "trace.write_ns_per_task",
            value: setups(setup_agg.get("setup", "write").incl_ns),
            unit: "ns/task",
        },
        Metric {
            name: "apps.generate_ns_per_task",
            value: setups(setup_agg.get("setup", "generate").incl_ns),
            unit: "ns/task",
        },
        Metric {
            name: "core.extract_ns_per_task",
            value: per_round(incl("cmd.extract", "extract")),
            unit: "ns/task",
        },
    ];
    const NAMES: [&str; 9] = [
        "core.atoms_ns_per_task",
        "core.dependency_merge_ns_per_task",
        "core.collective_merge_ns_per_task",
        "core.repair_ns_per_task",
        "core.neighbor_serial_ns_per_task",
        "core.infer_ns_per_task",
        "core.leap_resolution_ns_per_task",
        "core.enforce_ns_per_task",
        "core.ordering_ns_per_task",
    ];
    for (stage, name) in layers::STAGES.into_iter().zip(NAMES) {
        m.push(Metric { name, value: per_round(own("cmd.extract", stage)), unit: "ns/task" });
    }
    m.extend([
        Metric {
            name: "core.verify_ns_per_task",
            value: per_round(incl("cmd.extract", "verify")),
            unit: "ns/task",
        },
        Metric {
            name: "core.provenance_ns_per_task",
            value: per_round(incl("cmd.audit", "extract")),
            unit: "ns/task",
        },
        Metric { name: "core.phases", value: counts.phases as f64, unit: "count" },
        Metric { name: "core.atoms", value: counts.atoms as f64, unit: "count" },
        Metric { name: "core.threads2_speedup", value: *speedup, unit: "x" },
        Metric {
            name: "lint.hb_build_ns_per_task",
            value: per_round(incl("cmd.races", "hb.build")),
            unit: "ns/task",
        },
        Metric {
            name: "lint.hb_bytes_per_task",
            value: counts.hb_bytes as f64 / t,
            unit: "B/task",
        },
        Metric { name: "lint.hb_lanes", value: counts.hb_lanes as f64, unit: "count" },
        Metric {
            name: "lint.race_scan_ns_per_task",
            value: per_round(own("cmd.races", "races.scan")),
            unit: "ns/task",
        },
        Metric { name: "lint.scanned_pairs", value: counts.scanned_pairs as f64, unit: "count" },
        Metric {
            name: "lint.passes_ns_per_task",
            value: per_round(own("cmd.lint", "lint")),
            unit: "ns/task",
        },
        Metric {
            name: "flow.analyze_ns_per_task",
            value: per_round(incl("cmd.analyze", "analyze")),
            unit: "ns/task",
        },
        Metric {
            name: "audit.replay_ns_per_task",
            value: per_round(incl("cmd.audit", "audit")),
            unit: "ns/task",
        },
        Metric { name: "audit.checks", value: counts.audit_checks as f64, unit: "count" },
        Metric {
            name: "model.build_ns_per_task",
            value: once(incl("cmd.model", "model.build")),
            unit: "ns/task",
        },
        Metric {
            name: "model.check_ns_per_task",
            value: once(incl("cmd.model", "model.check")),
            unit: "ns/task",
        },
        Metric {
            name: "metrics.idle_ns_per_task",
            value: once(incl("layers", "layer.idle")),
            unit: "ns/task",
        },
        Metric {
            name: "metrics.differential_ns_per_task",
            value: once(incl("layers", "layer.differential")),
            unit: "ns/task",
        },
        Metric {
            name: "metrics.imbalance_ns_per_task",
            value: once(incl("layers", "layer.imbalance")),
            unit: "ns/task",
        },
        Metric {
            name: "metrics.critical_path_ns_per_task",
            value: once(incl("layers", "layer.critical_path")),
            unit: "ns/task",
        },
        Metric {
            name: "render.svg_ns_per_task",
            value: once(incl("layers", "layer.svg")),
            unit: "ns/task",
        },
        Metric {
            name: "render.report_bytes_per_task",
            value: counts.report_bytes as f64 / t,
            unit: "B/task",
        },
        Metric {
            name: "obs.traced_overhead",
            value: total(|r| &r.recorded) / total(|r| &r.plain),
            unit: "x",
        },
    ]);
    m
}

/// A per-run work directory under the current directory.
fn work_dir(args: &Args) -> PathBuf {
    Path::new(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ))
}

/// A fresh directory for one unit test, inside the package.
#[cfg(test)]
fn test_dir(name: &str) -> PathBuf {
    let d = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".bench_work")
        .join(format!("test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = work_dir(&args);
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
