//! Building blocks shared by the workloads: the algorithms under test,
//! graph families, seed derivation, and outcome digests.

use std::time::Instant;

use cc_mis_core::beeping_mis::{BeepingExecution, BeepingParams, BeepingRun};
use cc_mis_core::clique_mis::{CliqueMisExecution, CliqueMisParams, CliqueMisResult};
use cc_mis_core::ghaffari16::{Ghaffari16CliqueExecution, Ghaffari16Execution, Ghaffari16Params};
use cc_mis_core::lowdeg::{AutoExecution, Strategy};
use cc_mis_core::luby::{LubyExecution, LubyParams};
use cc_mis_core::sparsified::{finish_with_cleanup, SparsifiedExecution, SparsifiedParams};
use cc_mis_core::MisOutcome;
use cc_mis_graph::{generators, Graph, NodeId};
use cc_mis_sim::{BoxedExecution, Execution, MapOutcome};

/// The seven `core` executions, named as their per-layer metrics are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alg {
    /// `luby::LubyExecution` (CONGEST baseline).
    Luby,
    /// `ghaffari16::Ghaffari16Execution` (CONGEST).
    Ghaffari16,
    /// `ghaffari16::Ghaffari16CliqueExecution` (congested clique).
    G16Clique,
    /// `beeping_mis::BeepingExecution` (§2.2).
    Beeping,
    /// `sparsified::SparsifiedExecution` plus the greedy clean-up (§2.3).
    Sparsified,
    /// `clique_mis::CliqueMisExecution` (§2.4, Theorem 1.1).
    Thm11,
    /// `lowdeg::AutoExecution`, which must dispatch to the §2.5
    /// low-degree path.
    Lowdeg,
}

impl Alg {
    /// Every algorithm, in metric order.
    pub const ALL: [Alg; 7] = [
        Alg::Luby,
        Alg::Ghaffari16,
        Alg::G16Clique,
        Alg::Beeping,
        Alg::Sparsified,
        Alg::Thm11,
        Alg::Lowdeg,
    ];

    /// The `<a>` of `core.<a>.*`.
    pub fn name(self) -> &'static str {
        match self {
            Alg::Luby => "luby",
            Alg::Ghaffari16 => "ghaffari16",
            Alg::G16Clique => "g16_clique",
            Alg::Beeping => "beeping",
            Alg::Sparsified => "sparsified",
            Alg::Thm11 => "thm11",
            Alg::Lowdeg => "lowdeg",
        }
    }

    /// Span name of one `step` call.
    pub fn step_span(self) -> &'static str {
        match self {
            Alg::Luby => "core.luby.step",
            Alg::Ghaffari16 => "core.ghaffari16.step",
            Alg::G16Clique => "core.g16_clique.step",
            Alg::Beeping => "core.beeping.step",
            Alg::Sparsified => "core.sparsified.step",
            Alg::Thm11 => "core.thm11.step",
            Alg::Lowdeg => "core.lowdeg.step",
        }
    }

    /// Span name of one execution construction.
    pub fn new_span(self) -> &'static str {
        match self {
            Alg::Luby => "core.luby.new",
            Alg::Ghaffari16 => "core.ghaffari16.new",
            Alg::G16Clique => "core.g16_clique.new",
            Alg::Beeping => "core.beeping.new",
            Alg::Sparsified => "core.sparsified.new",
            Alg::Thm11 => "core.thm11.new",
            Alg::Lowdeg => "core.lowdeg.new",
        }
    }
}

/// What every job's execution yields: the MIS and ledger (or why the run
/// produced none), and the completion time, read once in the job's
/// `MapOutcome` closure.
#[derive(Debug)]
pub struct JobOut {
    /// The outcome, or the reason it is unusable.
    pub result: Result<MisOutcome, String>,
    /// When the final step produced the outcome.
    pub done: Instant,
}

fn finish<'g, E: Execution + 'g>(
    exec: E,
    mut to_outcome: impl FnMut(E::Outcome) -> Result<MisOutcome, String> + 'g,
) -> BoxedExecution<'g, JobOut> {
    Box::new(MapOutcome::new(exec, move |o| {
        let result = to_outcome(o);
        JobOut {
            result,
            done: crate::span::now(),
        }
    }))
}

/// Constructs `alg`'s execution on `g`, unified to [`JobOut`] exactly the
/// way the CLI's batch verb unifies heterogeneous jobs.
pub fn build(alg: Alg, g: &Graph, seed: u64) -> BoxedExecution<'_, JobOut> {
    match alg {
        Alg::Luby => finish(LubyExecution::new(g, &LubyParams::for_graph(g), seed), Ok),
        Alg::Ghaffari16 => finish(
            Ghaffari16Execution::new(g, &Ghaffari16Params::for_graph(g), seed),
            Ok,
        ),
        Alg::G16Clique => finish(
            Ghaffari16CliqueExecution::new(g, &Ghaffari16Params::for_graph(g), seed),
            Ok,
        ),
        Alg::Beeping => finish(
            BeepingExecution::new(g, &BeepingParams::for_graph(g), seed),
            |run: BeepingRun| {
                if run.residual.is_empty() {
                    Ok(MisOutcome {
                        mis: run.mis,
                        ledger: run.ledger,
                        iterations: run.iterations,
                    })
                } else {
                    Err(format!(
                        "beeping left {} node(s) undecided",
                        run.residual.len()
                    ))
                }
            },
        ),
        Alg::Sparsified => finish(
            SparsifiedExecution::new(g, &SparsifiedParams::for_graph(g), seed),
            move |run| Ok(finish_with_cleanup(g, run)),
        ),
        Alg::Thm11 => finish(
            CliqueMisExecution::new(g, &CliqueMisParams::default(), seed),
            |r: CliqueMisResult| {
                Ok(MisOutcome {
                    mis: r.mis,
                    ledger: r.ledger,
                    iterations: r.iterations,
                })
            },
        ),
        Alg::Lowdeg => {
            let exec = AutoExecution::new(g, seed);
            let chosen = exec.strategy();
            finish(exec, move |(o, ran): (MisOutcome, Strategy)| {
                if chosen == Strategy::LowDegree && ran == Strategy::LowDegree {
                    Ok(o)
                } else {
                    Err(format!(
                        "dispatcher chose {chosen:?}, ran {ran:?}, not LowDegree"
                    ))
                }
            })
        }
    }
}

/// A graph input: family, size, average degree and generator seed.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphDef {
    /// `gnp`, `ba`, `kronecker`, `geometric` or `regular`.
    pub family: &'static str,
    /// Node count (Kronecker rounds it up to a power of two).
    pub n: usize,
    /// Target average degree.
    pub avg_deg: f64,
    /// Generator seed.
    pub seed: u64,
}

impl GraphDef {
    /// Short label, e.g. `gnp-2048`.
    pub fn label(&self) -> String {
        format!("{}-{}", self.family, self.n)
    }

    /// Generates the graph with the same family mapping as the CLI's
    /// `--family F --n N --avg-deg D`.
    pub fn build(&self) -> Graph {
        let (n, avg, seed) = (self.n, self.avg_deg, self.seed);
        match self.family {
            "gnp" => generators::erdos_renyi_gnp(n, (avg / (n.max(2) - 1) as f64).min(1.0), seed),
            "regular" => {
                let mut d = (avg.round() as usize).min(n.saturating_sub(1));
                if n * d % 2 == 1 {
                    d = d.saturating_sub(1);
                }
                generators::random_regular(n, d, seed)
            }
            "ba" => generators::barabasi_albert(n, (avg / 2.0).round().max(1.0) as usize, seed),
            "geometric" => {
                let r = (avg / (std::f64::consts::PI * n as f64)).sqrt();
                generators::random_geometric(n, r, seed)
            }
            "kronecker" => {
                let scale = usize::BITS - (n.max(2) - 1).leading_zeros();
                generators::kronecker(scale, (avg / 2.0).round().max(1.0) as usize, seed)
            }
            other => panic!("workload tables name only known families, not '{other}'"),
        }
    }
}

/// Derives the `index`-th seed of kind `tag` from the workload seed, so
/// every graph and job seed follows from the one `--seed` argument.
pub fn derive_seed(workload_seed: u64, tag: u64, index: u64) -> u64 {
    cc_mis_graph::rng::mix3(workload_seed, tag, index)
}

/// FNV-1a over bytes: the digest of MIS lists, traces and workload output.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of an MIS as the list of its node ids.
pub fn mis_digest(mis: &[NodeId]) -> u64 {
    let mut h = Fnv::default();
    for v in mis {
        h.write(&(v.index() as u32).to_le_bytes());
    }
    h.finish()
}
