//! The three workloads. Each drives the public functions of the layers it
//! exercises and opens a `bench.<layer>` span around every call it times.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};
use sgs_bench::Workload as Family;
use sgs_core::{parallel_sample, parallel_sparsify, BundleSizing, SparsifyConfig};
use sgs_distributed::{distributed_spanner, distributed_sparsify, DistSpannerConfig};
use sgs_graph::connectivity::is_connected;
use sgs_graph::{generators, Edge, Graph};
use sgs_linalg::cg::{pcg_solve, CgConfig, JacobiPreconditioner};
use sgs_solver::{SddSolver, SolveOutcome, SolverConfig, SolverMethod};
use sgs_spanner::{t_bundle, BundleConfig};
use sgs_stream::store::EDGE_BYTES;
use sgs_stream::{SpillConfig, StreamConfig, StreamOutput, StreamSparsifier};

use crate::record::Recorder;

/// The seed whose deterministic counts are pinned below.
pub const DEFAULT_SEED: u64 = 51;

/// Relative residual every solve must reach.
const TOLERANCE: f64 = 1e-8;

/// One workload, set up and ready to repeat.
pub trait Workload {
    /// The timing reported as the end-to-end `op_s`.
    fn headline(&self) -> &'static str;
    /// The count reported as the end-to-end `m_out`.
    fn out_edges(&self) -> &'static str;
    /// Repetition number `rep` of the workload's timed calls, checking every
    /// output and tagging each record with its input. `probes` adds the
    /// single-layer calls the per-layer metrics need.
    fn rep(&mut self, rec: &mut Recorder, rep: usize, probes: bool);
    /// Repetitions with the same variant make the same calls, so they record
    /// the same trace events.
    fn variant(&self, _rep: usize) -> usize {
        0
    }
}

/// Seed of input `j` of a run with seed `seed`: the seed itself for input 0,
/// a splitmix64 hash for the others. The hash matters: the engines derive
/// their own sub-seeds as `seed + i·φ` (φ = 0x9E37_79B9_7F4A_7C15), so inputs
/// seeded `seed + j·φ` would share most of their randomness.
fn input_seed(seed: u64, j: usize) -> u64 {
    if j == 0 {
        return seed;
    }
    let mut z = seed ^ (j as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pins of the default seed for workload `name`.
pub fn pins(name: &str) -> &'static [(&'static str, f64)] {
    match name {
        "dense-er" => DENSE_ER_PINS,
        "stream-spill-solve" => STREAM_PINS,
        "image-solve" => IMAGE_PINS,
        _ => &[],
    }
}

/// Creates the pools, generates the input and runs one untimed warm-up call.
/// `None` for an unknown workload name.
pub fn setup(name: &str, seed: u64, out_dir: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "dense-er" => Box::new(DenseEr::new(seed)),
        "stream-spill-solve" => Box::new(StreamSpillSolve::new(seed, out_dir)),
        "image-solve" => Box::new(ImageSolve::new(seed)),
        _ => return None,
    })
}

fn pool(width: usize) -> ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("a rayon pool of the requested width")
}

fn same_edges(a: &[Edge], b: &[Edge]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.u == y.u && x.v == y.v && x.w.to_bits() == y.w.to_bits())
}

/// The right-hand side `e₀ − e_{n−1}`.
fn unit_dipole(n: usize) -> Vec<f64> {
    let mut b = vec![0.0; n];
    b[0] = 1.0;
    b[n - 1] = -1.0;
    b
}

fn check_solve(rec: &mut Recorder, what: &str, out: &SolveOutcome) {
    rec.check(
        &format!(
            "{what} reaches relative residual {TOLERANCE} (got {})",
            out.relative_residual
        ),
        out.converged && out.relative_residual <= TOLERANCE,
    );
}

/// Records the chain-PCG solve's counts under the `solver.*` names.
fn solve_counts(rec: &mut Recorder, out: &SolveOutcome, m: usize) {
    rec.count("solve_iters", out.iterations as f64);
    rec.count("solver.chain_depth", out.chain_depth as f64);
    rec.count("solver.chain_edges", out.chain_edges as f64);
    rec.count(
        "solver.chain_edges_per_m",
        out.chain_edges as f64 / m as f64,
    );
    rec.count(
        "solver.precond_applies",
        out.stats.preconditioner_applies as f64,
    );
    rec.count("solver.residual", out.relative_residual);
}

// ---------------------------------------------------------------------------
// dense-er: PARALLELSPARSIFY at widths 2 and 1, then the CONGEST engine.

const DENSE_ER: Family = Family::ErdosRenyi { n: 4000, deg: 150 };
/// Whether a run does two or three sparsification rounds flips with the seed
/// (about one in three inputs takes three, at ~1.3 times the cost), so every
/// repetition sparsifies all of these inputs at width 2. The CONGEST call,
/// whose round count does not flip, runs on input 0 only.
const DENSE_ER_INPUTS: usize = 12;
/// The width-1 baseline and the cross-width check run on every
/// `DENSE_ER_1T_STRIDE`-th input, a different subset each repetition, so most
/// of a repetition goes to the width-2 calls that `op_s` reports.
const DENSE_ER_1T_STRIDE: usize = 4;

const DENSE_ER_PINS: &[(&str, f64)] = &[
    ("m", 300_075.0),
    ("m_out", 87_460.0),
    ("core.work_ops", 22_037_309.0),
    ("core.rounds", 2.0),
    ("congest_m_out", 87_206.0),
    ("congest_messages", 37_678_102.0),
    ("congest_rounds", 712.0),
    ("distributed.bits", 1_199_651_696.0),
    ("core.sample_m_out", 129_002.0),
];

struct DenseErInput {
    seed: u64,
    g: Graph,
    cfg: SparsifyConfig,
}

struct DenseEr {
    inputs: Vec<DenseErInput>,
    pool2: ThreadPool,
    pool1: ThreadPool,
}

impl DenseEr {
    fn new(seed: u64) -> DenseEr {
        let pool2 = pool(2);
        let pool1 = pool(1);
        let inputs: Vec<DenseErInput> = pool2.install(|| {
            (0..DENSE_ER_INPUTS)
                .into_par_iter()
                .map(|j| {
                    let seed = input_seed(seed, j);
                    let cfg = SparsifyConfig::new(0.75, 8.0)
                        .with_bundle_sizing(BundleSizing::Fixed(4))
                        .with_seed(seed);
                    DenseErInput {
                        seed,
                        g: DENSE_ER.build(seed),
                        cfg,
                    }
                })
                .collect()
        });
        pool2.install(|| parallel_sparsify(&inputs[0].g, &inputs[0].cfg));
        DenseEr {
            inputs,
            pool2,
            pool1,
        }
    }
}

impl Workload for DenseEr {
    fn headline(&self) -> &'static str {
        "sparsify_s"
    }

    /// The width-1 calls rotate over the inputs, and inputs differ in their
    /// number of sparsification rounds, so the calls repeat with this period.
    fn variant(&self, rep: usize) -> usize {
        rep % DENSE_ER_1T_STRIDE
    }

    fn out_edges(&self) -> &'static str {
        "m_out"
    }

    fn rep(&mut self, rec: &mut Recorder, rep: usize, probes: bool) {
        let (pool2, pool1) = (&self.pool2, &self.pool1);
        for (j, DenseErInput { g, cfg, .. }) in self.inputs.iter().enumerate() {
            rec.input = j;
            let m = g.m() as f64;
            let w2 = rec.peak(|rec| {
                rec.timed("bench.core", "sparsify_s", || {
                    pool2.install(|| parallel_sparsify(g, cfg))
                })
            });
            if j % DENSE_ER_1T_STRIDE == rep % DENSE_ER_1T_STRIDE {
                let w1 = rec.timed("bench.core", "sparsify_1t_s", || {
                    pool1.install(|| parallel_sparsify(g, cfg))
                });
                rec.check(
                    "widths 1 and 2 give the same sparsifier",
                    same_edges(w2.sparsifier.edges(), w1.sparsifier.edges()),
                );
                rec.check(
                    "widths 1 and 2 give the same work counters",
                    w2.stats == w1.stats,
                );
            }
            rec.check("the sparsifier is connected", is_connected(&w2.sparsifier));
            rec.count("m", m);
            rec.count("m_out", w2.sparsifier.m() as f64);
            rec.count("core.work_ops", w2.stats.total_work() as f64);
            rec.count("core.rounds", w2.stats.rounds as f64);
            rec.count("core.keep_frac", w2.sparsifier.m() as f64 / m);
        }

        rec.input = 0;
        let DenseErInput { seed, g, cfg } = &self.inputs[0];
        let m = g.m() as f64;
        let congest = rec.timed("bench.distributed", "congest_s", || {
            pool2.install(|| distributed_sparsify(g, cfg))
        });
        rec.check(
            "the CONGEST sparsifier is connected",
            is_connected(&congest.sparsifier),
        );
        rec.count("congest_m_out", congest.sparsifier.m() as f64);
        rec.count("congest_messages", congest.metrics.messages as f64);
        rec.count("congest_rounds", congest.metrics.rounds as f64);
        rec.count("distributed.bits", congest.metrics.total_bits as f64);
        rec.count(
            "distributed.messages_per_edge",
            congest.metrics.messages as f64 / m,
        );

        if probes {
            let regenerated =
                rec.timed("bench.graph", "graph.generate_ms", || DENSE_ER.build(*seed));
            rec.check(
                "regenerating the input gives the same graph",
                same_edges(regenerated.edges(), g.edges()),
            );
            let bundle_cfg = BundleConfig::new(4).with_seed(*seed);
            let bundle = rec.timed("bench.spanner", "spanner.t_bundle_ms", || {
                pool2.install(|| t_bundle(g, &bundle_cfg))
            });
            rec.count("spanner.bundle_frac", bundle.bundle_size as f64 / m);
            let sample = rec.timed("bench.core", "core.sample_ms", || {
                pool2.install(|| parallel_sample(g, cfg))
            });
            rec.count("core.sample_m_out", sample.sparsifier.m() as f64);
            let dist_cfg = DistSpannerConfig::with_seed(*seed);
            let spanner = rec.timed("bench.distributed", "distributed.spanner_ms", || {
                pool2.install(|| distributed_spanner(g, &dist_cfg))
            });
            rec.check(
                "the CONGEST spanner is connected",
                is_connected(&g.with_edge_ids(&spanner.edge_ids)),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// stream-spill-solve: the generator stream through the merge tree, in RAM and
// spilling to disk, then chain-PCG on the spilled run's sparsifier.

const STREAM_N: usize = 1000;
const STREAM_EDGES: usize = 600_000;
/// The tree's resident-edge budget and the spill store's cap, as in `exp_outofcore`.
const TREE_BUDGET_EDGES: usize = 100_000;
const STORE_BUDGET_EDGES: usize = TREE_BUDGET_EDGES / 8;
/// The RAM high-water mark the spill run must stay under (the in-RAM run exceeds it).
const RSS_GATE_BYTES: usize = (TREE_BUDGET_EDGES / 2 + 3 * STORE_BUDGET_EDGES) * EDGE_BYTES;
const BATCH_EDGES: usize = 65_536;

const STREAM_PINS: &[(&str, f64)] = &[
    ("m_out", 24_648.0),
    ("peak_resident_bytes", 1_812_552.0),
    ("stream.mem_peak_resident_bytes", 2_241_048.0),
    ("stream.spilled_bytes", 13_314_936.0),
    ("stream.readback_bytes", 13_314_936.0),
    ("stream.forced_reductions", 8.0),
    ("stream.leaves", 20.0),
    ("solve_iters", 182.0),
    ("solver.chain_depth", 9.0),
    ("solver.chain_edges", 215_289.0),
];

struct StreamSpillSolve {
    seed: u64,
    spill_dir: PathBuf,
    pool2: ThreadPool,
}

/// Wall-clock of one stream run, in seconds.
struct StreamTimes {
    total: f64,
    ingest: f64,
    finish: f64,
    batch_max: f64,
}

impl StreamSpillSolve {
    fn new(seed: u64, out_dir: &Path) -> StreamSpillSolve {
        let spill_dir = out_dir.join("spill");
        std::fs::create_dir_all(&spill_dir).expect("create the spill directory");
        let w = StreamSpillSolve {
            seed,
            spill_dir,
            pool2: pool(2),
        };
        w.pool2.install(|| w.stream(&mut Recorder::new(&[]), true));
        w
    }

    /// Streams the input through a fresh sparsifier, batch by batch, with the
    /// in-RAM store or the spill store.
    fn stream(&self, rec: &mut Recorder, spill: bool) -> (StreamOutput, StreamTimes) {
        let seed = self.seed;
        let mut cfg = StreamConfig::new(0.75, TREE_BUDGET_EDGES)
            .with_bundle_sizing(BundleSizing::Fixed(2))
            .with_seed(seed);
        if spill {
            let store =
                SpillConfig::new(STORE_BUDGET_EDGES * EDGE_BYTES).with_directory(&self.spill_dir);
            cfg = cfg.with_spill(store);
        }
        let start = Instant::now();
        let mut sparsifier = StreamSparsifier::new(STREAM_N, cfg);
        let mut edges = generators::streaming_edges(STREAM_N, STREAM_EDGES, seed);
        let mut batch = Vec::with_capacity(BATCH_EDGES);
        let (mut ingest, mut batch_max, mut rejected) = (0.0f64, 0.0f64, 0usize);
        loop {
            rec.time("bench.graph", "stream.next_batch", || {
                batch.clear();
                batch.extend(edges.by_ref().take(BATCH_EDGES));
            });
            if batch.is_empty() {
                break;
            }
            let (ok, secs) = rec.time("bench.stream", "stream.ingest_batch", || {
                sparsifier.ingest_batch(&batch)
            });
            rejected += usize::from(ok.is_err());
            ingest += secs;
            batch_max = batch_max.max(secs);
        }
        let (out, finish) = rec.time("bench.stream", "stream.finish", || sparsifier.finish());
        let total = start.elapsed().as_secs_f64();
        rec.check("every generated batch is accepted", rejected == 0);
        (
            out,
            StreamTimes {
                total,
                ingest,
                finish,
                batch_max,
            },
        )
    }
}

impl Workload for StreamSpillSolve {
    fn headline(&self) -> &'static str {
        "stream_s"
    }

    fn out_edges(&self) -> &'static str {
        "m_out"
    }

    fn rep(&mut self, rec: &mut Recorder, _rep: usize, probes: bool) {
        let pool2 = &self.pool2;
        let (mem, mem_t) = pool2.install(|| self.stream(rec, false));
        let (spill, spill_t) = rec.peak(|rec| pool2.install(|| self.stream(rec, true)));
        rec.sample("stream.mem_ms", mem_t.total);
        rec.sample("stream_s", spill_t.total);
        rec.sample("stream.ingest_ms", spill_t.ingest);
        rec.sample("stream.finish_ms", spill_t.finish);
        rec.sample("stream.batch_max_ms", spill_t.batch_max);

        rec.check(
            "the spill output is bitwise equal to the in-RAM output",
            same_edges(mem.sparsifier.edges(), spill.sparsifier.edges()),
        );
        rec.check(
            "the algorithmic stats do not depend on the store",
            mem.stats.eq_modulo_storage(&spill.stats),
        );
        let stats = &spill.stats;
        rec.check(
            &format!(
                "the spill peak {} B stays under the RSS gate {RSS_GATE_BYTES} B",
                stats.peak_resident_bytes
            ),
            stats.peak_resident_bytes <= RSS_GATE_BYTES,
        );
        rec.check(
            "the RSS gate is not vacuous: the in-RAM run exceeds it",
            mem.stats.peak_resident_bytes > RSS_GATE_BYTES,
        );
        rec.check("the spill run spilled", stats.spill.spilled_nodes > 0);
        rec.check(
            "the stream is in the forced-merge regime",
            stats.forced_reductions > 0,
        );
        rec.count("m_out", spill.sparsifier.m() as f64);
        rec.count("peak_resident_bytes", stats.peak_resident_bytes as f64);
        rec.count(
            "stream.mem_peak_resident_bytes",
            mem.stats.peak_resident_bytes as f64,
        );
        rec.count("stream.spilled_bytes", stats.spill.spilled_bytes as f64);
        rec.count("stream.readback_bytes", stats.spill.readback_bytes as f64);
        rec.count("stream.forced_reductions", stats.forced_reductions as f64);
        rec.count("stream.leaves", stats.leaves as f64);
        rec.count("stream.eps_spent", stats.epsilon_spent());
        drop(mem);

        let m = spill.sparsifier.m();
        let ((solver, _), build) = rec.time("bench.solver", "solver.for_stream", || {
            pool2.install(|| SddSolver::for_stream(spill, SolverConfig::default()))
        });
        let b = unit_dipole(STREAM_N);
        let (out, pcg) = rec.time("bench.solver", "solver.solve_with", || {
            pool2.install(|| solver.solve_with(&b, SolverMethod::ChainPcg))
        });
        rec.sample("solver.chain_build_ms", build);
        rec.sample("solver.pcg_ms", pcg);
        rec.sample("solve_s", build + pcg);
        check_solve(rec, "chain-PCG on the stream's sparsifier", &out);
        solve_counts(rec, &out, m);

        if probes {
            let seed = self.seed;
            let sum = rec.timed("bench.graph", "graph.stream_gen_ms", || {
                generators::streaming_edges(STREAM_N, STREAM_EDGES, seed)
                    .fold(0usize, |acc, e| acc.wrapping_add(e.u ^ e.v))
            });
            rec.check("the generator yields edges", sum != 0);
        }
    }
}

// ---------------------------------------------------------------------------
// image-solve: chain-PCG on an image-affinity grid, with Jacobi-PCG as reference.

const IMAGE: Family = Family::ImageGrid { side: 48 };

/// Chain-PCG and Jacobi-PCG solutions must agree to this relative distance.
const AGREEMENT: f64 = 1e-5;

const IMAGE_PINS: &[(&str, f64)] = &[
    ("solve_iters", 89.0),
    ("solver.chain_depth", 14.0),
    ("solver.chain_edges", 631_744.0),
    ("linalg.jacobi_iters", 286.0),
];

struct ImageSolve {
    seed: u64,
    g: Graph,
    pool2: ThreadPool,
}

impl ImageSolve {
    fn new(seed: u64) -> ImageSolve {
        let pool2 = pool(2);
        let g = IMAGE.build(seed);
        let b = unit_dipole(g.n());
        let solver = pool2.install(|| SddSolver::for_laplacian(g.clone(), SolverConfig::default()));
        pool2.install(|| solver.solve_with(&b, SolverMethod::ChainPcg));
        ImageSolve { seed, g, pool2 }
    }
}

impl Workload for ImageSolve {
    fn headline(&self) -> &'static str {
        "solve_s"
    }

    fn out_edges(&self) -> &'static str {
        "solver.chain_edges"
    }

    fn rep(&mut self, rec: &mut Recorder, _rep: usize, probes: bool) {
        let (seed, g) = (self.seed, &self.g);
        let pool2 = &self.pool2;
        let (m, b) = (g.m(), unit_dipole(g.n()));
        let input = g.clone();
        let ((solver, build), (chain, pcg)) = rec.peak(|rec| {
            let built = rec.time("bench.solver", "solver.for_laplacian", || {
                pool2.install(|| SddSolver::for_laplacian(input, SolverConfig::default()))
            });
            let solved = rec.time("bench.solver", "solver.solve_with", || {
                pool2.install(|| built.0.solve_with(&b, SolverMethod::ChainPcg))
            });
            (built, solved)
        });
        rec.sample("solver.chain_build_ms", build);
        rec.sample("solver.pcg_ms", pcg);
        rec.sample("solve_s", build + pcg);
        check_solve(rec, "chain-PCG", &chain);
        solve_counts(rec, &chain, m);

        let system = solver.system();
        let cg_cfg = CgConfig {
            tolerance: TOLERANCE,
            max_iterations: SolverConfig::default().max_iterations,
            project_ones: false,
        };
        let jacobi = rec.timed("bench.linalg", "linalg.jacobi_pcg_ms", || {
            pool2.install(|| {
                let pre = JacobiPreconditioner::from_diagonal(&system.diagonal());
                pcg_solve(system, &pre, &b, &cg_cfg)
            })
        });
        rec.check(
            &format!(
                "Jacobi-PCG reaches relative residual {TOLERANCE} (got {})",
                jacobi.relative_residual
            ),
            jacobi.converged && jacobi.relative_residual <= TOLERANCE,
        );
        rec.count("linalg.jacobi_iters", jacobi.iterations as f64);
        let gap = relative_distance(&chain.solution, &jacobi.solution);
        rec.check(
            &format!("chain-PCG agrees with Jacobi-PCG to {AGREEMENT} (relative distance {gap})"),
            gap <= AGREEMENT,
        );

        if probes {
            let regenerated = rec.timed("bench.graph", "graph.generate_ms", || IMAGE.build(seed));
            rec.check(
                "regenerating the input gives the same graph",
                same_edges(regenerated.edges(), g.edges()),
            );
        }
    }
}

/// `‖x − y‖ / ‖y‖`.
fn relative_distance(x: &[f64], y: &[f64]) -> f64 {
    let diff: f64 = x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum();
    let norm: f64 = y.iter().map(|b| b * b).sum();
    (diff / norm).sqrt()
}
