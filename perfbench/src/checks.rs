//! Output checks. Each compares an output with the benchmark's own
//! recomputation, or with a property the method must have — never with
//! a stored copy of an earlier output.

use crate::inputs::Input;
use lsr_audit::AuditReport;
use lsr_core::{try_extract_with_provenance, Config, LogicalStructure, TraceModel, NO_PHASE};
use lsr_lint::RaceReport;
use lsr_metrics::{DifferentialDuration, Imbalance};
use lsr_obs::Recorder;
use lsr_trace::{ChareId, EventKind, TaskId, Trace};
use std::collections::HashSet;

pub type Check = Result<(), String>;

/// The trace read back from disk equals the trace that was generated.
pub fn read_back(input: &Input, generated: &Trace) -> Check {
    let back = input.read(false, &Recorder::disabled())?;
    if &back == generated {
        Ok(())
    } else {
        Err(format!("{}: trace read back differs from the generated one", input.name))
    }
}

/// Every matched message's receive sits at a later global step than
/// its send (§3.2: a receive is stepped after the send it depends on).
pub fn recv_after_send(trace: &Trace, ls: &LogicalStructure) -> Check {
    for ev in &trace.events {
        if let EventKind::Recv { msg: Some(m) } = ev.kind {
            let send = trace.msg(m).send_event;
            let (s, r) = (ls.global_step(send), ls.global_step(ev.id));
            if r <= s {
                return Err(format!(
                    "message {m}: receive {} at step {r}, send {send} at step {s}",
                    ev.id
                ));
            }
        }
    }
    Ok(())
}

/// Kahn's algorithm over the phase graph: every phase is emitted, so
/// the graph is acyclic.
pub fn phase_dag_acyclic(ls: &LogicalStructure) -> Check {
    let n = ls.phases.len();
    if ls.phase_succs.len() != n {
        return Err(format!("{} successor lists for {n} phases", ls.phase_succs.len()));
    }
    let mut indeg = vec![0usize; n];
    for succs in &ls.phase_succs {
        for &s in succs {
            let s = s as usize;
            if s >= n {
                return Err(format!("edge to phase {s} of {n}"));
            }
            indeg[s] += 1;
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&p| indeg[p] == 0).collect();
    let mut emitted = 0;
    while let Some(p) = ready.pop() {
        emitted += 1;
        for &s in &ls.phase_succs[p] {
            indeg[s as usize] -= 1;
            if indeg[s as usize] == 0 {
                ready.push(s as usize);
            }
        }
    }
    if emitted == n {
        Ok(())
    } else {
        Err(format!("phase graph has a cycle: {} of {n} phases never become ready", n - emitted))
    }
}

/// The audit certificate replays clean.
pub fn certified(report: &AuditReport) -> Check {
    if report.is_certified() {
        Ok(())
    } else {
        Err(format!("certificate rejected with {} error(s)", report.error_count()))
    }
}

/// The recovered structure conforms to the skeleton model built from
/// the trace's declarations alone.
pub fn conforms(trace: &Trace, ls: &LogicalStructure) -> Check {
    if lsr_model::conforms(trace, ls) {
        Ok(())
    } else {
        Err("structure does not conform to the declared skeleton".into())
    }
}

/// Serial and `threads`-worker extraction agree bit for bit, in
/// structure and in provenance.
pub fn threads_identical(trace: &Trace, cfg: &Config, threads: usize) -> Check {
    let run = |n: usize| {
        try_extract_with_provenance(trace, &cfg.clone().with_threads(n))
            .map_err(|e| format!("extraction with {n} thread(s) failed: {e}"))
    };
    let (serial, parallel) = (run(1)?, run(threads)?);
    if serial.0 != parallel.0 {
        return Err(format!("structure differs between 1 and {threads} threads"));
    }
    if serial.1 != parallel.1 {
        return Err(format!("provenance differs between 1 and {threads} threads"));
    }
    Ok(())
}

/// The causal relation race analysis judges concurrency by, searched
/// directly: message edges plus the chains the causal mode adds (every
/// rank's program order for message passing; each chare's SDAG entries
/// in begin order for Charm++ with SDAG inference). Independent of both
/// HB engines.
pub struct CausalGraph {
    succ: Vec<Vec<u32>>,
    begin: Vec<u64>,
    /// Every edge runs forward in begin time, so a search toward `b`
    /// may skip tasks that begin after `b`.
    monotone: bool,
}

impl CausalGraph {
    pub fn build(trace: &Trace, cfg: &Config) -> CausalGraph {
        let n = trace.tasks.len();
        let mut succ = vec![Vec::new(); n];
        for m in &trace.msgs {
            if let Some(to) = m.recv_task {
                let from = trace.event(m.send_event).task;
                if from != to {
                    succ[from.index()].push(to.0);
                }
            }
        }
        let ix = trace.index();
        let chained = |t: TaskId| match cfg.model {
            TraceModel::MessagePassing => true,
            TraceModel::TaskBased => {
                cfg.sdag_inference && trace.entry(trace.task(t).entry).sdag_serial.is_some()
            }
        };
        for list in &ix.tasks_by_chare {
            let mut prev: Option<TaskId> = None;
            for &t in list.iter().filter(|&&t| chained(t)) {
                if let Some(p) = prev {
                    succ[p.index()].push(t.0);
                }
                prev = Some(t);
            }
        }
        let begin: Vec<u64> = trace.tasks.iter().map(|t| t.begin.0).collect();
        let monotone =
            succ.iter().enumerate().all(|(u, s)| s.iter().all(|&v| begin[u] <= begin[v as usize]));
        CausalGraph { succ, begin, monotone }
    }

    /// Whether a path of causal edges leads from `a` to `b`.
    pub fn reaches(&self, a: TaskId, b: TaskId) -> bool {
        let (a, b) = (a.0, b.0);
        let limit = self.begin[b as usize];
        let mut seen = HashSet::from([a]);
        let mut stack = vec![a];
        while let Some(u) = stack.pop() {
            for &v in &self.succ[u as usize] {
                if v == b {
                    return true;
                }
                if (!self.monotone || self.begin[v as usize] <= limit) && seen.insert(v) {
                    stack.push(v);
                }
            }
        }
        false
    }

    fn concurrent(&self, a: TaskId, b: TaskId) -> bool {
        !self.reaches(a, b) && !self.reaches(b, a)
    }
}

/// Every reported race (and untraced concurrent pair) is concurrent
/// under the causal relation.
pub fn races_concurrent(g: &CausalGraph, report: &RaceReport) -> Check {
    let pairs = report
        .races
        .iter()
        .map(|r| (r.first, r.second))
        .chain(report.untraced.iter().map(|u| (u.first, u.second)));
    for (a, b) in pairs {
        if !g.concurrent(a, b) {
            return Err(format!("reported race {a} / {b} is causally ordered"));
        }
    }
    Ok(())
}

/// The serial streams race analysis walks: each application chare's
/// tasks, then each PE's runtime tasks, in begin order.
fn streams(trace: &Trace) -> Vec<Vec<TaskId>> {
    let ix = trace.index();
    let runtime = |t: TaskId| trace.chare(trace.task(t).chare).kind.is_runtime();
    let chares = ix.tasks_by_chare.iter().enumerate().filter(|(ci, list)| {
        list.len() >= 2 && !trace.chare(ChareId::from_index(*ci)).kind.is_runtime()
    });
    let pes =
        ix.tasks_by_pe.iter().map(|list| list.iter().copied().filter(|&t| runtime(t)).collect());
    chares.map(|(_, list)| list.clone()).chain(pes).filter(|s: &Vec<TaskId>| s.len() >= 2).collect()
}

/// Among the adjacent stream pairs the scan examined, the ones it did
/// not report are causally ordered; up to `samples` of them, evenly
/// spread, are searched. Also checks that every reported pair is one of
/// the examined pairs.
pub fn scanned_pairs_ordered(
    trace: &Trace,
    g: &CausalGraph,
    report: &RaceReport,
    samples: usize,
) -> Check {
    let reported: HashSet<(TaskId, TaskId)> = report
        .races
        .iter()
        .map(|r| (r.first, r.second))
        .chain(report.untraced.iter().map(|u| (u.first, u.second)))
        .collect();
    // A truncated scan stopped on a concurrent pair it did not report.
    let examined = report.scanned_pairs - usize::from(report.truncated);
    let pairs: Vec<(TaskId, TaskId)> = streams(trace)
        .iter()
        .flat_map(|s| s.windows(2).map(|w| (w[0], w[1])))
        .take(examined)
        .collect();
    if pairs.len() != examined {
        return Err(format!("the scan reports {examined} pairs, the streams hold {}", pairs.len()));
    }
    let found = pairs.iter().filter(|p| reported.contains(p)).count();
    if found != reported.len() {
        return Err(format!(
            "{} reported pair(s) are not among the examined pairs",
            reported.len() - found
        ));
    }
    let ordered: Vec<&(TaskId, TaskId)> = pairs.iter().filter(|p| !reported.contains(p)).collect();
    let stride = ordered.len().div_ceil(samples.max(1)).max(1);
    for &&(a, b) in ordered.iter().step_by(stride) {
        if g.concurrent(a, b) {
            return Err(format!("unreported pair {a} / {b} is causally concurrent"));
        }
    }
    Ok(())
}

/// The merge tree's forest-shaped relation has no races.
pub fn no_races(report: &RaceReport) -> Check {
    if report.races.is_empty() {
        Ok(())
    } else {
        Err(format!("{} race(s) reported on a race-free program", report.races.len()))
    }
}

/// `Imbalance` equals a sparse recomputation from task durations: the
/// load of each (phase, PE) that ran work, zero elsewhere.
pub fn imbalance_matches(trace: &Trace, ls: &LogicalStructure, imb: &Imbalance) -> Check {
    let pes = trace.pe_count as usize;
    // (phase, pe, load), sorted and summed.
    let mut cells: Vec<(u32, u32, u64)> = trace
        .tasks
        .iter()
        .filter(|t| ls.phase_of_task(t.id) != NO_PHASE)
        .map(|t| (ls.phase_of_task(t.id), t.pe.0, (t.end - t.begin).nanos()))
        .collect();
    cells.sort_unstable();
    let mut sparse: Vec<(u32, u32, u64)> = Vec::with_capacity(cells.len());
    for (p, pe, load) in cells {
        match sparse.last_mut() {
            Some(last) if (last.0, last.1) == (p, pe) => last.2 += load,
            _ => sparse.push((p, pe, load)),
        }
    }
    let phases = ls.num_phases();
    if imb.loads.len() != phases || imb.spread.len() != phases || imb.per_phase.len() != phases {
        return Err(format!("imbalance covers {} phases, structure has {phases}", imb.loads.len()));
    }
    let mut cur = 0;
    for p in 0..phases {
        let start = cur;
        while cur < sparse.len() && sparse[cur].0 as usize == p {
            cur += 1;
        }
        let row = &sparse[start..cur];
        let max = row.iter().map(|c| c.2).max().unwrap_or(0);
        let min = if row.len() < pes { 0 } else { row.iter().map(|c| c.2).min().unwrap_or(0) };
        let mut next = row.iter().peekable();
        if imb.loads[p].len() != pes || imb.spread[p].len() != pes {
            return Err(format!("phase {p}: rows are not {pes} PEs wide"));
        }
        for pe in 0..pes {
            let want = match next.peek() {
                Some(c) if c.1 as usize == pe => next.next().map_or(0, |c| c.2),
                _ => 0,
            };
            if imb.loads[p][pe].nanos() != want {
                return Err(format!("phase {p} pe {pe}: load {} != {want}", imb.loads[p][pe]));
            }
            if imb.spread[p][pe].nanos() != want - min {
                return Err(format!(
                    "phase {p} pe {pe}: spread {} != {}",
                    imb.spread[p][pe],
                    want - min
                ));
            }
        }
        if imb.per_phase[p].nanos() != max - min {
            return Err(format!("phase {p}: imbalance {} != {}", imb.per_phase[p], max - min));
        }
    }
    Ok(())
}

/// `DifferentialDuration::per_event` equals each event's sub-block
/// duration minus the shortest sub-block at its (phase, step). A
/// sub-block runs from the previous event of the task (or its begin) to
/// the event; time after the last event goes to the task's sink, or to
/// its last event when it has none (paper Fig. 13).
pub fn differential_matches(
    trace: &Trace,
    ls: &LogicalStructure,
    dd: &DifferentialDuration,
) -> Check {
    let mut sub = vec![0u64; trace.events.len()];
    for t in &trace.tasks {
        let mut prev = t.begin.0;
        let mut last = None;
        for e in t.events() {
            let at = trace.event(e).time.0;
            sub[e.index()] = at - prev;
            prev = at;
            last = Some(e);
        }
        if let Some(owner) = t.sink.or(last) {
            sub[owner.index()] += t.end.0 - prev;
        }
    }
    let mut keyed: Vec<(u32, u64, u64)> =
        trace.event_ids().map(|e| (ls.phase_of(e), ls.global_step(e), sub[e.index()])).collect();
    keyed.sort_unstable();
    if dd.per_event.len() != sub.len() {
        return Err(format!("{} values for {} events", dd.per_event.len(), sub.len()));
    }
    for e in trace.event_ids() {
        let key = (ls.phase_of(e), ls.global_step(e));
        let first = keyed.partition_point(|k| (k.0, k.1) < key);
        let want = sub[e.index()] - keyed[first].2;
        if dd.per_event[e.index()].nanos() != want {
            return Err(format!("event {e}: differential {} != {want}", dd.per_event[e.index()]));
        }
    }
    Ok(())
}

/// Fig. 10: with the §3.4 process-order assumption off, each of the
/// log2(ranks) tree levels has all its receives on one global step. The
/// level-l receive of rank r takes the message of rank r + 2^l.
pub fn tree_levels_aligned(trace: &Trace, ranks: u32) -> Check {
    let ls = lsr_core::try_extract(trace, &Config::mpi().with_process_order(false))
        .map_err(|e| format!("extraction without process order failed: {e}"))?;
    let levels = ranks.trailing_zeros();
    let mut steps = vec![Vec::new(); levels as usize];
    for ev in &trace.events {
        if let EventKind::Recv { msg: Some(m) } = ev.kind {
            let dst = trace.chare(trace.event_chare(ev.id)).index;
            let src = trace.chare(trace.event_chare(trace.msg(m).send_event)).index;
            let gap = src.checked_sub(dst).filter(|g| g.is_power_of_two());
            match gap {
                Some(g) if g.trailing_zeros() < levels => {
                    steps[g.trailing_zeros() as usize].push(ls.global_step(ev.id))
                }
                _ => {
                    return Err(format!("message {m} from rank {src} to {dst} is not a tree edge"))
                }
            }
        }
    }
    for (l, s) in steps.iter_mut().enumerate() {
        s.sort_unstable();
        s.dedup();
        if s.len() != 1 {
            return Err(format!("tree level {l}: receives on {} distinct steps", s.len()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{write, Generated, Layout};
    use lsr_apps::{jacobi2d, mergetree_mpi, JacobiParams, MergeTreeParams};
    use lsr_core::extract;
    use lsr_trace::Dur;

    fn tree() -> (Trace, LogicalStructure) {
        let tr = mergetree_mpi(&MergeTreeParams::small());
        let ls = extract(&tr, &Config::mpi());
        (tr, ls)
    }

    #[test]
    fn recv_at_its_send_step_is_caught() {
        let (tr, mut ls) = tree();
        assert_eq!(recv_after_send(&tr, &ls), Ok(()));
        let ev = tr.events.iter().find(|e| matches!(e.kind, EventKind::Recv { msg: Some(_) }));
        let ev = ev.expect("the merge tree has matched messages");
        let EventKind::Recv { msg: Some(m) } = ev.kind else { unreachable!() };
        ls.step[ev.id.index()] = ls.step[tr.msg(m).send_event.index()];
        assert!(recv_after_send(&tr, &ls).is_err());
    }

    #[test]
    fn changed_load_is_caught() {
        let (tr, ls) = tree();
        let mut imb = Imbalance::compute(&tr, &ls);
        assert_eq!(imbalance_matches(&tr, &ls, &imb), Ok(()));
        imb.loads[ls.num_phases() / 2][3] += Dur(1);
        assert!(imbalance_matches(&tr, &ls, &imb).is_err());
    }

    #[test]
    fn changed_differential_is_caught() {
        let (tr, ls) = tree();
        let mut dd = DifferentialDuration::compute(&tr, &ls);
        assert_eq!(differential_matches(&tr, &ls, &dd), Ok(()));
        dd.per_event[5] += Dur(1);
        assert!(differential_matches(&tr, &ls, &dd).is_err());
    }

    #[test]
    fn phase_cycle_is_caught() {
        let (_, mut ls) = tree();
        assert_eq!(phase_dag_acyclic(&ls), Ok(()));
        let (a, b) = (0, ls.phase_succs[0][0]);
        ls.phase_succs[b as usize].push(a);
        assert!(phase_dag_acyclic(&ls).is_err());
    }

    #[test]
    fn truncated_split_file_is_caught() {
        let dir = crate::test_dir("truncated");
        let trace = mergetree_mpi(&MergeTreeParams::small());
        let gen = Generated { name: "t".into(), trace, layout: Layout::Split, mpi: true };
        std::fs::create_dir_all(&dir).expect("test dir");
        let input = write(&gen, &dir).expect("write");
        assert_eq!(read_back(&input, &gen.trace), Ok(()));
        let log = dir.join("t.3.log");
        let bytes = std::fs::read(&log).expect("per-PE log");
        std::fs::write(&log, &bytes[..bytes.len() / 2]).expect("truncate");
        assert!(read_back(&input, &gen.trace).is_err());
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn tree_levels_of_a_merge_tree_align() {
        let p = MergeTreeParams::small();
        assert_eq!(tree_levels_aligned(&mergetree_mpi(&p), p.ranks), Ok(()));
    }

    #[test]
    fn ordered_pair_reported_as_race_is_caught() {
        let p = JacobiParams { iters: 2, ..JacobiParams::fig8() };
        let tr = jacobi2d(&p);
        let cfg = Config::charm();
        let mut report = lsr_lint::analyze_races(&tr, &cfg, 64).expect("acyclic");
        let g = CausalGraph::build(&tr, &cfg);
        assert_eq!(races_concurrent(&g, &report), Ok(()));
        assert_eq!(scanned_pairs_ordered(&tr, &g, &report, 1000), Ok(()));
        let race = report.races.first().copied().expect("Jacobi has races");
        // A message edge's endpoints are ordered.
        let m = tr.msgs.iter().find(|m| m.recv_task.is_some()).expect("messages");
        let mut planted = race;
        planted.first = tr.event(m.send_event).task;
        planted.second = m.recv_task.expect("matched");
        report.races.push(planted);
        assert!(races_concurrent(&g, &report).is_err());
    }
}
