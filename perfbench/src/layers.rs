//! Span bookkeeping for the traced run: self and inclusive time per
//! (subcommand, span) and the attribution report.

use lsr_obs::Profile;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Spans the benchmark opens around public calls that `lsr --profile`
/// does not record. Every other span is one the program (library or
/// CLI) records itself.
fn added_by_benchmark(name: &str) -> bool {
    name.starts_with("cmd.")
        || name.starts_with("layer")
        || matches!(
            name,
            "try_extract"
                | "audit_extract"
                | "analyze_structure"
                | "hb.build"
                | "races.scan"
                | "setup"
                | "generate"
                | "write"
        )
}

/// The extraction stage spans (`lsr_core::EXTRACT_STAGE_SPANS` plus the
/// conditional ones).
pub const STAGES: [&str; 9] = [
    "atoms",
    "dependency_merge",
    "collective_merge",
    "repair",
    "neighbor_serial",
    "infer",
    "leap_resolution",
    "enforce",
    "ordering",
];

#[derive(Debug, Clone, Copy, Default)]
pub struct Tot {
    pub incl_ns: u64,
    pub self_ns: u64,
    /// Self time left after the spans `lsr --profile` records below
    /// this one; only meaningful for spans the program records.
    pub profile_self_ns: u64,
    pub has_profile_children: bool,
    /// On a root span: the part of it inside the outermost spans
    /// `lsr --profile` records.
    pub profile_top_ns: u64,
}

/// Span totals keyed by (root span, span name).
#[derive(Default)]
pub struct Agg {
    spans: BTreeMap<(String, String), Tot>,
    /// First-seen order of the keys, for printing.
    order: Vec<(String, String)>,
}

impl Agg {
    pub fn add(&mut self, p: &Profile) {
        let n = p.spans.len();
        let dur = |i: usize| p.spans[i].dur_ns.unwrap_or(0);
        let mut child = vec![0u64; n];
        let mut profile_child = vec![0u64; n];
        let mut has_profile_child = vec![false; n];
        let mut root = vec![0usize; n];
        let mut profile_top = vec![0u64; n];
        for i in 0..n {
            root[i] = p.spans[i].parent.map_or(i, |q| root[q]);
            if let Some(q) = p.spans[i].parent {
                child[q] += dur(i);
            }
            if !added_by_benchmark(&p.spans[i].name) {
                // The nearest ancestor `lsr --profile` would show.
                let mut a = p.spans[i].parent;
                while let Some(q) = a.filter(|&q| added_by_benchmark(&p.spans[q].name)) {
                    a = p.spans[q].parent;
                }
                match a {
                    Some(q) => {
                        profile_child[q] += dur(i);
                        has_profile_child[q] = true;
                    }
                    None => profile_top[root[i]] += dur(i),
                }
            }
        }
        for i in 0..n {
            let key = (p.spans[root[i]].name.clone(), p.spans[i].name.clone());
            if !self.spans.contains_key(&key) {
                self.order.push(key.clone());
            }
            let t = self.spans.entry(key).or_default();
            t.incl_ns += dur(i);
            t.self_ns += dur(i).saturating_sub(child[i]);
            t.profile_self_ns += dur(i).saturating_sub(profile_child[i]);
            t.has_profile_children |= has_profile_child[i];
            t.profile_top_ns += profile_top[i];
        }
    }

    pub fn get(&self, root: &str, name: &str) -> Tot {
        self.spans.get(&(root.to_owned(), name.to_owned())).copied().unwrap_or_default()
    }

    /// Per subcommand: where its time went, how much of it the spans
    /// cover, and how much `lsr --profile` alone would leave to child
    /// spans a span does not have.
    pub fn attribution(&self, workload: &str, rounds: u64) -> String {
        let mut s = String::new();
        let ms = |ns: u64| ns as f64 / 1e6 / rounds.max(1) as f64;
        let mut roots: Vec<&String> = Vec::new();
        for (root, _) in &self.order {
            if !roots.contains(&root) {
                roots.push(root);
            }
        }
        let _ =
            writeln!(s, "== attribution: {workload} (ms per round, {rounds} traced round(s)) ==");
        for root in roots.iter().filter(|r| r.starts_with("cmd.")) {
            let top = self.get(root, root);
            let covered = 1.0 - top.self_ns as f64 / top.incl_ns.max(1) as f64;
            let _ = writeln!(
                s,
                "{:<12} {:>10.1} ms  layer spans cover {:>5.1}%, the spans of lsr --profile {:>5.1}%",
                &root[4..],
                ms(top.incl_ns),
                100.0 * covered,
                100.0 * top.profile_top_ns as f64 / top.incl_ns.max(1) as f64
            );
            // Extraction stages are listed once, under `extract`.
            let listed = |n: &str| {
                n != root.as_str() && (root.as_str() == "cmd.extract" || !STAGES.contains(&n))
            };
            for (r, name) in self.order.iter().filter(|(r, n)| r == *root && listed(n)) {
                let t = self.get(r, name);
                let share = |ns: u64| 100.0 * ns as f64 / top.incl_ns.max(1) as f64;
                let mut line = format!(
                    "  {:<22} {:>10.2} ms {:>6.1}%  self {:>6.1}%",
                    name,
                    ms(t.incl_ns),
                    share(t.incl_ns),
                    share(t.self_ns)
                );
                if added_by_benchmark(name) {
                    line.push_str("  [benchmark span]");
                } else if t.has_profile_children {
                    let _ = write!(
                        line,
                        "  lsr --profile leaves {:.1}% of it to child spans it does not have",
                        100.0 * t.profile_self_ns as f64 / t.incl_ns.max(1) as f64
                    );
                }
                let _ = writeln!(s, "{line}");
            }
        }
        s
    }
}
