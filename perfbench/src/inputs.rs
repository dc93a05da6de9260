//! Workload inputs: seeded trace generation, the on-disk layouts, and
//! reading a trace back the way each `lsr` subcommand does.

use lsr_apps::{jacobi2d, mergetree_mpi, JacobiParams, MergeTreeParams};
use lsr_core::Config;
use lsr_fuzz::{emit, Backend, Motif, Scenario};
use lsr_obs::Recorder;
use lsr_trace::{logfmt, multifile, Dur, Trace};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Jacobi 2D: 48×48 chares on 8 PEs for 8 iterations — 111k tasks in
/// 24 phases, the shape whose causal happened-before relation grows
/// tens of thousands of lanes.
pub const JACOBI_CHARES: u32 = 48;
pub const JACOBI_PES: u32 = 8;
pub const JACOBI_ITERS: u32 = 8;
/// Merge tree: one rank per PE, 4,096 ranks — 8,190 tasks in 4,095
/// two-task phases spread over 4,096 PEs.
pub const MERGETREE_RANKS: u32 = 4096;
/// Fuzz corpus: this many scenarios, each emitted through both
/// backends; odd-numbered scenarios are written in the split layout.
pub const FUZZ_SCENARIOS: u32 = 300;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    JacobiHalo,
    MergetreeWide,
    FuzzCorpus,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "jacobi-halo" => Some(Workload::JacobiHalo),
            "mergetree-wide" => Some(Workload::MergetreeWide),
            "fuzz-corpus" => Some(Workload::FuzzCorpus),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::JacobiHalo => "jacobi-halo",
            Workload::MergetreeWide => "mergetree-wide",
            Workload::FuzzCorpus => "fuzz-corpus",
        }
    }
}

/// Where a trace lives on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One `.lsrtrace` document.
    Single,
    /// `<base>.sts` plus one `<base>.<pe>.log` per PE.
    Split,
}

/// One generated trace, before it is written.
pub struct Generated {
    pub name: String,
    pub trace: Trace,
    pub layout: Layout,
    /// Message-passing trace (`lsr --mpi`), else Charm++.
    pub mpi: bool,
}

/// One trace on disk, as the subcommands see it.
#[derive(Debug, Clone)]
pub struct Input {
    pub name: String,
    pub dir: PathBuf,
    pub layout: Layout,
    pub mpi: bool,
    pub tasks: usize,
    /// Bytes on disk, all files of the layout together.
    pub bytes: u64,
}

impl Input {
    /// The configuration the subcommand uses by default for this trace.
    pub fn config(&self) -> Config {
        if self.mpi {
            Config::mpi()
        } else {
            Config::charm()
        }
    }

    /// The file the user names on the command line.
    pub fn path(&self) -> PathBuf {
        match self.layout {
            Layout::Single => self.dir.join(format!("{}.lsrtrace", self.name)),
            Layout::Split => self.dir.join(format!("{}.sts", self.name)),
        }
    }

    /// Reads the trace the way `lsr` does: strictly (validated), or —
    /// for `lsr lint` on a single-file trace — without validation.
    pub fn read(&self, unchecked: bool, rec: &Recorder) -> Result<Trace, String> {
        let path = self.path();
        match self.layout {
            Layout::Split => multifile::read_split_with(&self.dir, &self.name, rec),
            Layout::Single => {
                let f = File::open(&path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
                let r = BufReader::new(f);
                if unchecked {
                    logfmt::read_log_unchecked_with(r, rec)
                } else {
                    logfmt::read_log_with(r, rec)
                }
            }
        }
        .map_err(|e| format!("cannot parse {path:?}: {e}"))
    }
}

/// SplitMix64 finalizer: decorrelates the simulator seeds of one
/// benchmark seed from each other and from neighbouring seeds.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Simulates the workload's traces, one at a time, so no more than one
/// of them is in memory. The shapes are fixed; `seed` drives the
/// simulators (latencies, placement, scenario draws).
pub fn generate(w: Workload, seed: u64) -> Box<dyn Iterator<Item = Generated>> {
    match w {
        Workload::JacobiHalo => Box::new(std::iter::once_with(move || {
            let p = JacobiParams {
                chares_x: JACOBI_CHARES,
                chares_y: JACOBI_CHARES,
                pes: JACOBI_PES,
                iters: JACOBI_ITERS,
                seed: mix(seed),
                compute: Dur::from_micros(30),
                straggler: None,
            };
            Generated {
                name: "jacobi".into(),
                trace: jacobi2d(&p),
                layout: Layout::Single,
                mpi: false,
            }
        })),
        Workload::MergetreeWide => Box::new(std::iter::once_with(move || {
            let p = MergeTreeParams {
                ranks: MERGETREE_RANKS,
                seed: mix(seed),
                base: Dur::from_micros(100),
                skew: 3.0,
            };
            Generated {
                name: "mergetree".into(),
                trace: mergetree_mpi(&p),
                layout: Layout::Single,
                mpi: true,
            }
        })),
        Workload::FuzzCorpus => Box::new((0..FUZZ_SCENARIOS).flat_map(move |id| {
            let sc = Scenario::generate(seed, id, &Motif::ALL);
            let layout = if id % 2 == 1 { Layout::Split } else { Layout::Single };
            Backend::ALL.into_iter().map(move |b| Generated {
                name: format!("s{id:03}-{}", b.name()),
                trace: emit(&sc, b),
                layout,
                mpi: b == Backend::Mpi,
            })
        })),
    }
}

/// Writes one generated trace into `dir`, which must exist, in its
/// layout.
pub fn write(g: &Generated, dir: &Path) -> Result<Input, String> {
    let io = |e: std::io::Error| format!("cannot write {}: {e}", g.name);
    let bytes = match g.layout {
        Layout::Single => {
            let path = dir.join(format!("{}.lsrtrace", g.name));
            let mut w = BufWriter::new(File::create(&path).map_err(io)?);
            logfmt::write_log(&g.trace, &mut w).map_err(io)?;
            w.flush().map_err(io)?;
            file_len(&path)?
        }
        Layout::Split => {
            multifile::write_split(&g.trace, dir, &g.name).map_err(io)?;
            let mut total = file_len(&dir.join(format!("{}.sts", g.name)))?;
            for pe in 0..g.trace.pe_count {
                total += file_len(&dir.join(format!("{}.{pe}.log", g.name)))?;
            }
            total
        }
    };
    Ok(Input {
        name: g.name.clone(),
        dir: dir.to_path_buf(),
        layout: g.layout,
        mpi: g.mpi,
        tasks: g.trace.tasks.len(),
        bytes,
    })
}

fn file_len(p: &Path) -> Result<u64, String> {
    std::fs::metadata(p).map(|m| m.len()).map_err(|e| format!("cannot stat {p:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .expect("test dir")
            .map(|e| {
                let e = e.expect("dir entry");
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).expect("file"),
                )
            })
            .collect();
        out.sort();
        out
    }

    /// One seed must give byte-identical input files, every time and on
    /// every workload; another seed must give different ones.
    #[test]
    fn one_seed_generates_byte_identical_inputs() {
        let root = crate::test_dir("inputs");
        for w in [Workload::JacobiHalo, Workload::MergetreeWide, Workload::FuzzCorpus] {
            let (a, b, c) = (
                root.join(format!("{}-a", w.name())),
                root.join(format!("{}-b", w.name())),
                root.join(format!("{}-c", w.name())),
            );
            for (dir, seed) in [(&a, 11), (&b, 11), (&c, 12)] {
                std::fs::create_dir_all(dir).expect("test dir");
                for g in generate(w, seed) {
                    write(&g, dir).expect("write");
                }
            }
            let (fa, fb, fc) = (files(&a), files(&b), files(&c));
            assert!(!fa.is_empty());
            assert!(fa == fb, "{}: same seed, different bytes", w.name());
            assert!(fa != fc, "{}: the seed does not reach the inputs", w.name());
        }
        std::fs::remove_dir_all(&root).expect("clean up");
    }
}
