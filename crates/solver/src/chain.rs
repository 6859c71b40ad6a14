//! The Peng–Spielman approximate inverse chain with `PARALLELSPARSIFY` inside.
//!
//! For `M = D − A` (with `D = degrees + excess`, `A ≥ 0` the adjacency of the level's
//! graph) the identity
//!
//! ```text
//! (D − A)⁻¹ = ½ [ D⁻¹ + (I + D⁻¹ A)(D − A D⁻¹ A)⁻¹(I + A D⁻¹) ]
//! ```
//!
//! reduces a solve with `M` to a solve with `M̃ = D − A D⁻¹ A`. The graph of `M̃` is a
//! union of per-vertex cliques (every pair of neighbors of `v` becomes an edge of weight
//! `a_uv a_vw / d_v`); materialising those cliques would be quadratic in the degrees, so
//! high-degree cliques are replaced by sparse unbiased samples (the Corollary 6.4 step
//! of Peng–Spielman), and the result is then sparsified with `PARALLELSPARSIFY` — this
//! is precisely where Section 4 of the paper plugs its new sparsifier into the
//! framework. The recursion stops when the level is strongly diagonally dominant, where
//! a handful of Jacobi sweeps is an adequate (and linear, hence PCG-safe) base solver.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use sgs_core::{parallel_sparsify, BundleSizing, SparsifyConfig};
use sgs_graph::{Graph, GraphBuilder};
use sgs_linalg::cg::Preconditioner;
use sgs_obs::FieldValue;
use sgs_stream::{StreamOutput, StreamStats};

use crate::sdd::GroundedLaplacian;

/// Configuration for building an approximate inverse chain.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// Per-level sparsification accuracy (the paper sets `ε = 1/O(log κ)`; the default
    /// is a practical fixed value which the experiments sweep).
    pub level_epsilon: f64,
    /// Sparsification factor `ρ` used when a level grows too dense.
    pub rho: f64,
    /// Bundle sizing for the inner `PARALLELSPARSIFY` calls.
    pub bundle_sizing: BundleSizing,
    /// Maximum chain depth.
    pub max_levels: usize,
    /// Stop recursing once `min(excess_i / degree_i)` exceeds this ratio (strong
    /// diagonal dominance: Jacobi converges geometrically).
    pub dominance_stop: f64,
    /// Number of Jacobi sweeps used by the base-case solver.
    pub base_jacobi_sweeps: usize,
    /// Degree above which a level-construction clique is sampled instead of built
    /// exactly.
    pub clique_sample_threshold: usize,
    /// Seed for clique sampling and sparsification.
    pub seed: u64,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            level_epsilon: 0.5,
            rho: 4.0,
            bundle_sizing: BundleSizing::Fixed(3),
            max_levels: 25,
            dominance_stop: 4.0,
            base_jacobi_sweeps: 12,
            clique_sample_threshold: 16,
            seed: 0x50D5,
        }
    }
}

/// Half-edges per executor chunk of a parallel row gather; levels with fewer
/// half-edges than this apply on the calling thread.
const GATHER_GRAIN: usize = 8192;

/// One level of the chain: the operator `M_i = L(G_i) + diag(excess)`, stored as a
/// CSR adjacency of `G_i` with its full diagonal for fast application.
///
/// Row `u` lists the half-edges of `u` in the edge order of the graph the level was
/// built from — the layout of `sgs_graph::Adjacency::build`, with `u32` neighbours
/// and `f64` weights inline (24 bytes per edge, as in a `Graph`'s edge list).
/// Accumulating a row left to right therefore performs, for every vertex, exactly
/// the floating-point additions an edge-order scatter over that graph would.
#[derive(Debug, Clone)]
pub struct ChainLevel {
    /// Row `u`'s half-edges are `offsets[u]..offsets[u + 1]`.
    offsets: Vec<usize>,
    /// Neighbour of each half-edge.
    neighbors: Vec<u32>,
    /// Weight of each half-edge.
    weights: Vec<f64>,
    /// Diagonal excess of the level.
    pub excess: Vec<f64>,
    /// Cached full diagonal `degrees + excess`.
    pub diagonal: Vec<f64>,
}

impl ChainLevel {
    fn new(graph: &Graph, excess: Vec<f64>) -> Self {
        let n = graph.n();
        assert!(
            n as u64 <= u32::MAX as u64,
            "chain levels store u32 vertex ids"
        );
        let mut offsets = vec![0usize; n + 1];
        for e in graph.edges() {
            offsets[e.u + 1] += 1;
            offsets[e.v + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut neighbors = vec![0u32; 2 * graph.m()];
        let mut weights = vec![0.0; 2 * graph.m()];
        for e in graph.edges() {
            for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                neighbors[cursor[a]] = b as u32;
                weights[cursor[a]] = e.w;
                cursor[a] += 1;
            }
        }
        let mut level = ChainLevel {
            offsets,
            neighbors,
            weights,
            excess,
            diagonal: Vec::new(),
        };
        level.diagonal = level
            .degrees()
            .iter()
            .zip(&level.excess)
            .map(|(d, e)| d + e)
            .collect();
        level
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges (half the stored half-edges).
    pub fn m(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Row `u` of the adjacency: its neighbours and the matching weights, in edge
    /// order.
    pub fn row(&self, u: usize) -> (&[u32], &[f64]) {
        let r = self.offsets[u]..self.offsets[u + 1];
        (&self.neighbors[r.clone()], &self.weights[r])
    }

    /// Weighted degree of every vertex (the adjacency's row sums).
    pub fn degrees(&self) -> Vec<f64> {
        (0..self.n())
            .map(|u| {
                let mut d = 0.0;
                for w in self.row(u).1 {
                    d += w;
                }
                d
            })
            .collect()
    }

    /// Adjacency application: overwrites `y` with `A x` (off-diagonal only, positive
    /// weights). Rows are gathered in parallel, each summed left to right from 0, so
    /// every `y[u]` is bit-identical at any pool width.
    pub fn adjacency_apply_in(&self, x: &[f64], y: &mut [f64]) {
        let rows_per_chunk = (GATHER_GRAIN * self.n() / self.neighbors.len().max(1)).max(1);
        y.par_iter_mut()
            .enumerate()
            .with_min_len(rows_per_chunk)
            .for_each(|(u, yu)| {
                let (nbrs, weights) = self.row(u);
                let mut acc = 0.0;
                for (&v, w) in nbrs.iter().zip(weights) {
                    acc += w * x[v as usize];
                }
                *yu = acc;
            });
    }

    /// Ratio `min_v excess_v / degree_v` (∞ when the graph has no edges); the dominance
    /// measure that terminates the chain.
    fn dominance(&self) -> f64 {
        let mut worst = f64::INFINITY;
        for (d, e) in self.degrees().iter().zip(&self.excess) {
            if *d > 0.0 {
                worst = worst.min(e / d);
            }
        }
        worst
    }
}

/// The approximate inverse chain `{M₁, …, M_d}` plus the parameters needed to apply it.
#[derive(Debug, Clone)]
pub struct Chain {
    levels: Vec<ChainLevel>,
    config: ChainConfig,
}

impl Chain {
    /// Builds the chain for a grounded Laplacian.
    pub fn build(system: &GroundedLaplacian, config: &ChainConfig) -> Self {
        let build_span = sgs_obs::span!("chain.build", n = system.n());
        let mut levels = Vec::new();
        let mut current = ChainLevel::new(system.graph(), system.excess().to_vec());
        let n = system.n();
        let target_edges = (2.0 * n as f64 * (n.max(2) as f64).log2()).ceil() as usize;
        for level_idx in 0..config.max_levels {
            let done = current.dominance() >= config.dominance_stop
                || current.m() == 0
                || level_idx + 1 == config.max_levels;
            if done {
                levels.push(current);
                break;
            }
            let next = build_next_level(&current, config, level_idx, target_edges);
            levels.push(current);
            current = next;
        }
        drop(build_span);
        Chain {
            levels,
            config: config.clone(),
        }
    }

    /// Number of levels in the chain.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The levels of the chain.
    pub fn levels(&self) -> &[ChainLevel] {
        &self.levels
    }

    /// Total number of edges stored across all levels (the chain-size quantity that
    /// Theorem 6 bounds).
    pub fn total_edges(&self) -> usize {
        self.levels.iter().map(ChainLevel::m).sum()
    }

    /// Applies the approximate inverse of the top-level operator to `b`.
    pub fn apply_inverse(&self, b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; b.len()];
        self.apply_inverse_in(b, &mut out, &mut ChainScratch::new());
        out
    }

    /// Allocation-free [`apply_inverse`](Self::apply_inverse): writes the result into
    /// `out`, reusing the buffers of `scratch` (grown on first use, then stable).
    ///
    /// Every level's adjacency application is a parallel row gather whose result does
    /// not depend on the pool width, so the output is bit-identical at any width and
    /// whatever the scratch held before.
    pub fn apply_inverse_in(&self, b: &[f64], out: &mut [f64], scratch: &mut ChainScratch) {
        let n = self.levels[0].n();
        assert_eq!(b.len(), n, "right-hand side has wrong dimension");
        assert_eq!(out.len(), n, "output buffer has wrong dimension");
        scratch.prepare(self.levels.len(), n);
        self.apply_inverse_rec(0, b, out, &mut scratch.levels);
    }

    fn apply_inverse_rec(&self, level: usize, b: &[f64], out: &mut [f64], bufs: &mut [LevelBufs]) {
        let lvl = &self.levels[level];
        let (mine, rest) = bufs
            .split_first_mut()
            .expect("scratch shallower than chain");
        if level + 1 == self.levels.len() {
            jacobi_sweeps(lvl, b, self.config.base_jacobi_sweeps, out, &mut mine.tmp);
            return;
        }
        // x = 1/2 [ D^{-1} b + (I + D^{-1} A) M̃^{-1} (I + A D^{-1}) b ], with the
        // inner solve's result z landing directly in `out` (one shared buffer for the
        // whole recursion) and `tmp` serving as both A·D⁻¹b and A·z.
        for ((di, bi), d) in mine.din.iter_mut().zip(b).zip(&lvl.diagonal) {
            *di = bi / d;
        }
        lvl.adjacency_apply_in(&mine.din, &mut mine.tmp);
        for ((yi, bi), ai) in mine.rhs.iter_mut().zip(b).zip(&mine.tmp) {
            *yi = bi + ai;
        }
        self.apply_inverse_rec(level + 1, &mine.rhs, out, rest);
        lvl.adjacency_apply_in(out, &mut mine.tmp);
        for ((zi, di_b), (azi, d)) in out
            .iter_mut()
            .zip(&mine.din)
            .zip(mine.tmp.iter().zip(&lvl.diagonal))
        {
            let x2 = *zi + azi / d;
            *zi = 0.5 * (di_b + x2);
        }
    }

    /// A reusable, lock-guarded preconditioner view over this chain: each
    /// [`Preconditioner::apply`] call runs [`apply_inverse_in`](Self::apply_inverse_in)
    /// against one persistent [`ChainScratch`], so the PCG outer loop performs no
    /// per-iteration allocation.
    pub fn preconditioner(&self) -> ChainPreconditioner<'_> {
        ChainPreconditioner {
            chain: self,
            scratch: Mutex::new(ChainScratch::default()),
            applies: AtomicU64::new(0),
        }
    }

    /// Builds a chain (and the grounded system it preconditions) **directly from a
    /// streaming run's output** — the out-of-core path: the original graph, which may
    /// be arbitrarily larger than RAM, is never materialised; only its sparsifier
    /// (already resident, `O(n log n)` edges) is grounded and chained.
    pub fn build_from_stream(output: StreamOutput, config: &ChainConfig) -> StreamChain {
        let StreamOutput { sparsifier, stats } = output;
        let system = GroundedLaplacian::from_graph(sparsifier);
        let chain = Chain::build(&system, config);
        StreamChain {
            chain,
            system,
            stream_stats: stats,
        }
    }
}

impl Preconditioner for Chain {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.apply_inverse_in(r, z, &mut ChainScratch::new());
    }
}

/// Per-level workspace for [`Chain::apply_inverse_in`]. One `d_inv_b`/`tmp`/`rhs`
/// triple per level; the solution itself lives in the caller's `out` buffer, shared by
/// the whole recursion.
#[derive(Debug, Default)]
struct LevelBufs {
    din: Vec<f64>,
    tmp: Vec<f64>,
    rhs: Vec<f64>,
}

/// Reusable buffers for [`Chain::apply_inverse_in`]: three n-vectors per chain level,
/// grown on first use and reused verbatim afterwards.
#[derive(Debug, Default)]
pub struct ChainScratch {
    levels: Vec<LevelBufs>,
}

impl ChainScratch {
    /// An empty scratch; buffers are sized on the first
    /// [`Chain::apply_inverse_in`] call.
    pub fn new() -> Self {
        Self::default()
    }

    fn prepare(&mut self, depth: usize, n: usize) {
        if self.levels.len() < depth {
            self.levels.resize_with(depth, LevelBufs::default);
        }
        for bufs in &mut self.levels[..depth] {
            bufs.din.resize(n, 0.0);
            bufs.tmp.resize(n, 0.0);
            bufs.rhs.resize(n, 0.0);
        }
    }
}

/// A [`Preconditioner`] over a [`Chain`] that owns a persistent [`ChainScratch`]
/// behind a mutex, making every application allocation-free after the first. Built via
/// [`Chain::preconditioner`].
#[derive(Debug)]
pub struct ChainPreconditioner<'a> {
    chain: &'a Chain,
    scratch: Mutex<ChainScratch>,
    applies: AtomicU64,
}

impl ChainPreconditioner<'_> {
    /// Number of chain applications performed through this view so far (one per
    /// PCG preconditioner application).
    pub fn applies(&self) -> u64 {
        self.applies.load(Ordering::Relaxed)
    }
}

impl Preconditioner for ChainPreconditioner<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.applies.fetch_add(1, Ordering::Relaxed);
        let mut scratch = self.scratch.lock().expect("chain scratch lock poisoned");
        self.chain.apply_inverse_in(r, z, &mut scratch);
    }
}

/// A chain built from a streaming sparsifier run: the grounded system (of the
/// *sparsifier*, the only graph ever resident), its approximate inverse chain, and the
/// spill/accuracy ledger the stream carried. Produced by [`Chain::build_from_stream`].
#[derive(Debug)]
pub struct StreamChain {
    /// The approximate inverse chain over the sparsifier's grounded Laplacian.
    pub chain: Chain,
    /// The grounded system the chain preconditions.
    pub system: GroundedLaplacian,
    /// Accounting of the streaming run that produced the sparsifier (peak resident
    /// bytes, spill ledger, ε spent).
    pub stream_stats: StreamStats,
}

/// A fixed number of Jacobi sweeps for `M x = b`, writing the iterate into `x` and
/// using `ax` as the adjacency scratch; a linear operator in `b`, which makes it safe
/// to use inside a (non-flexible) PCG iteration.
fn jacobi_sweeps(level: &ChainLevel, b: &[f64], sweeps: usize, x: &mut [f64], ax: &mut [f64]) {
    for ((xi, bi), di) in x.iter_mut().zip(b).zip(&level.diagonal) {
        *xi = bi / di;
    }
    for _ in 0..sweeps {
        // x ← D⁻¹ (b + A x)
        level.adjacency_apply_in(x, ax);
        for i in 0..x.len() {
            x[i] = (b[i] + ax[i]) / level.diagonal[i];
        }
    }
}

/// Builds level `i + 1` from level `i`: the two-hop graph of `M̃ = D − A D⁻¹ A`
/// (cliques, sampled above the degree threshold), its diagonal excess, and a
/// `PARALLELSPARSIFY` pass when the graph grows beyond the target size.
fn build_next_level(
    level: &ChainLevel,
    config: &ChainConfig,
    level_idx: usize,
    target_edges: usize,
) -> ChainLevel {
    let span = sgs_obs::span!("chain.level", level = level_idx + 1, m_in = level.m());
    let two_hop = {
        let _two_hop = sgs_obs::span!("chain.two_hop");
        two_hop_graph(level, config, level_idx)
    };
    let two_hop_m = two_hop.m();

    // Exact diagonal excess of M̃: excess_u = D_u − Σ_v a_uv (Σ_w a_vw) / D_v.
    let ratio: Vec<f64> = level
        .degrees()
        .iter()
        .zip(&level.diagonal)
        .map(|(s, d)| if *d > 0.0 { s / d } else { 0.0 })
        .collect();
    let mut a_ratio = vec![0.0; level.n()];
    level.adjacency_apply_in(&ratio, &mut a_ratio);
    let excess: Vec<f64> = level
        .diagonal
        .iter()
        .zip(&a_ratio)
        .map(|(d, ar)| (d - ar).max(0.0))
        .collect();

    // Sparsify the two-hop graph when it exceeds the target size (the Section 4 step:
    // "bring the graph back to its original size" using Theorem 5).
    let graph = if two_hop_m > target_edges {
        let cfg = SparsifyConfig::new(config.level_epsilon, config.rho)
            .with_bundle_sizing(config.bundle_sizing)
            .with_seed(config.seed.wrapping_add(0xF00D + level_idx as u64));
        parallel_sparsify(&two_hop, &cfg).sparsifier
    } else {
        two_hop
    };
    let next = ChainLevel::new(&graph, excess);
    span.end_with(&[
        ("two_hop_m", FieldValue::from(two_hop_m)),
        ("m_out", FieldValue::from(next.m())),
    ]);
    next
}

/// Random 32-bit words a sampled clique consumes per sample: two endpoint draws,
/// each a `gen_range` over `f64`, which reads one `next_u64`.
const WORDS_PER_SAMPLE: u64 = 4;

/// A two-hop pair waiting for the builder: endpoints and weight.
type Pair = (u32, u32, f64);

/// Pending pairs per pool thread in one generation window (~1 MiB of pairs).
const WINDOW_PAIRS_PER_THREAD: usize = (1 << 20) / std::mem::size_of::<Pair>();

/// Generation blocks per pool thread in one window, for load balance.
const BLOCKS_PER_THREAD: usize = 4;

/// What one vertex's clique contributes to the two-hop graph.
#[derive(Debug, Clone, Copy)]
enum Clique {
    /// Fewer than two neighbours, or no weight to spread.
    Empty,
    /// Every pair of neighbours, exactly.
    Exact,
    /// `samples` weighted draws of endpoint pairs, sharing `weight` uniformly.
    Sampled { samples: usize, weight: f64 },
}

impl Clique {
    fn plan(level: &ChainLevel, v: usize, config: &ChainConfig) -> Clique {
        let weights = level.row(v).1;
        let deg = weights.len();
        if deg < 2 {
            return Clique::Empty;
        }
        if deg <= config.clique_sample_threshold {
            return Clique::Exact;
        }
        let dv = level.diagonal[v];
        let total_w: f64 = weights.iter().sum();
        let sum_sq: f64 = weights.iter().map(|w| w * w).sum();
        let weight = (total_w * total_w - sum_sq) / (2.0 * dv);
        if weight <= 0.0 {
            return Clique::Empty;
        }
        let samples = ((deg as f64) * (deg as f64).log2().max(1.0) * 2.0).ceil() as usize;
        Clique::Sampled { samples, weight }
    }

    /// Upper bound on the pairs the clique of a degree-`deg` vertex emits.
    fn max_pairs(self, deg: usize) -> usize {
        match self {
            Clique::Empty => 0,
            Clique::Exact => deg * (deg - 1) / 2,
            Clique::Sampled { samples, .. } => samples,
        }
    }

    /// Words of the level's random stream the clique consumes.
    fn words(self) -> u64 {
        match self {
            Clique::Sampled { samples, .. } => WORDS_PER_SAMPLE * samples as u64,
            _ => 0,
        }
    }
}

/// The two-hop graph of `M̃ = D − A D⁻¹ A`: every pair of neighbours of `v` becomes
/// an edge of weight `a_uv a_vw / d_v`. Cliques above the degree threshold are
/// replaced by a sparse unbiased sample: endpoint pairs drawn with probability
/// proportional to their weights, the clique's total weight spread uniformly over
/// the accepted draws.
///
/// Vertex blocks are generated in parallel and give exactly the graph of one
/// sequential pass over the vertices with one ChaCha8 stream. Every sampled clique
/// consumes a known number of words of that stream, so a prefix sum gives the word
/// each vertex starts at, and a block seeks there
/// ([`ChaCha8Rng::set_word_pos`]): its draws are the sequential pass's draws. Blocks
/// then enter the builder in vertex order, so every pair's weights are summed in
/// the sequential order. Windows of at most ~1 MiB of pending pairs per thread
/// bound the memory the blocks hold.
fn two_hop_graph(level: &ChainLevel, config: &ChainConfig, level_idx: usize) -> Graph {
    let n = level.n();
    let plans: Vec<Clique> = (0..n)
        .into_par_iter()
        .map(|v| Clique::plan(level, v, config))
        .collect();
    let mut first_word = Vec::with_capacity(n);
    let mut word = 0u64;
    for plan in &plans {
        first_word.push(word);
        word += plan.words();
    }
    let max_pairs = |v: usize| plans[v].max_pairs(level.row(v).0.len());
    let rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(level_idx as u64 * 0xC11A));
    let threads = rayon::current_num_threads();
    let window = WINDOW_PAIRS_PER_THREAD * threads;

    let mut builder = GraphBuilder::new(n);
    let mut start = 0;
    while start < n {
        // Grow the window to the pair budget (always at least one vertex), then cut
        // it into blocks of about equal pair bounds.
        let mut end = start;
        let mut pending = 0;
        while end < n && (end == start || pending + max_pairs(end) <= window) {
            pending += max_pairs(end);
            end += 1;
        }
        let target = pending.div_ceil(BLOCKS_PER_THREAD * threads).max(1);
        let mut blocks = Vec::new();
        let (mut block_start, mut block_pairs) = (start, 0);
        for v in start..end {
            block_pairs += max_pairs(v);
            if block_pairs >= target || v + 1 == end {
                blocks.push(block_start..v + 1);
                block_start = v + 1;
                block_pairs = 0;
            }
        }
        let generated: Vec<Vec<Pair>> = blocks
            .into_par_iter()
            .map(|block| {
                let mut rng = rng.clone();
                rng.set_word_pos(first_word[block.start] as u128);
                let bound = block.clone().map(max_pairs).sum();
                two_hop_block(level, &plans, block, &mut rng, bound)
            })
            .collect();
        for (a, b, w) in generated.into_iter().flatten() {
            let _ = builder.add(a as usize, b as usize, w);
        }
        start = end;
    }
    builder.build()
}

/// The two-hop pairs of the vertices in `block`, in the sequential pass's order,
/// drawing from `rng` positioned at the block's first word.
fn two_hop_block(
    level: &ChainLevel,
    plans: &[Clique],
    block: Range<usize>,
    rng: &mut ChaCha8Rng,
    bound: usize,
) -> Vec<Pair> {
    let mut out = Vec::with_capacity(bound);
    let mut cumulative = Vec::new();
    for v in block {
        let (nbrs, weights) = level.row(v);
        let deg = nbrs.len();
        match plans[v] {
            Clique::Empty => {}
            Clique::Exact => {
                let dv = level.diagonal[v];
                for i in 0..deg {
                    for j in (i + 1)..deg {
                        if nbrs[i] == nbrs[j] {
                            continue;
                        }
                        let w = weights[i] * weights[j] / dv;
                        if w > 0.0 {
                            out.push((nbrs[i], nbrs[j], w));
                        }
                    }
                }
            }
            Clique::Sampled { samples, weight } => {
                // Cumulative distribution over neighbours, proportional to weight.
                cumulative.clear();
                let mut acc = 0.0;
                for w in weights {
                    acc += w;
                    cumulative.push(acc);
                }
                let draw = |rng: &mut ChaCha8Rng| -> usize {
                    let x = rng.gen_range(0.0..acc);
                    cumulative.partition_point(|&c| c < x).min(deg - 1)
                };
                let first = out.len();
                for _ in 0..samples {
                    let i = draw(rng);
                    let j = draw(rng);
                    if i != j && nbrs[i] != nbrs[j] {
                        out.push((nbrs[i], nbrs[j], 0.0));
                    }
                }
                let accepted = out.len() - first;
                if accepted > 0 {
                    let w_each = weight / accepted as f64;
                    for pair in &mut out[first..] {
                        pair.2 = w_each;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::generators;
    use sgs_linalg::vector;

    fn on_pool<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool")
            .install(op)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Random weights and some parallel edges: summation order shows in the bits.
    fn irregular_graph(n: usize, m: usize, seed: u64) -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut g = Graph::new(n);
        while g.m() < m {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v {
                let w = rng.gen_range(0.01..10.0);
                g.add_edge(u, v, w).unwrap();
                if g.m() % 7 == 0 {
                    g.add_edge(v, u, w * 0.5).unwrap();
                }
            }
        }
        g
    }

    #[test]
    fn csr_level_gathers_exactly_what_the_edge_order_scatter_sums() {
        let g = irregular_graph(400, 20_000, 17);
        let level = ChainLevel::new(&g, vec![0.5; 400]);
        assert_eq!((level.n(), level.m()), (400, g.m()));
        let adj = g.adjacency();
        for u in 0..g.n() {
            let (nbrs, weights) = level.row(u);
            let want: Vec<(u32, u64)> = adj
                .neighbors(u)
                .iter()
                .map(|nb| (nb.node as u32, nb.weight.to_bits()))
                .collect();
            let got: Vec<(u32, u64)> = nbrs
                .iter()
                .zip(weights)
                .map(|(&v, w)| (v, w.to_bits()))
                .collect();
            assert_eq!(got, want, "row {u}");
        }
        assert_eq!(bits(&level.degrees()), bits(&g.weighted_degrees()));
        let x: Vec<f64> = (0..400).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut scatter = vec![0.0; 400];
        for e in g.edges() {
            scatter[e.u] += e.w * x[e.v];
            scatter[e.v] += e.w * x[e.u];
        }
        for threads in [1, 3] {
            let mut y = vec![f64::NAN; 400];
            on_pool(threads, || level.adjacency_apply_in(&x, &mut y));
            assert_eq!(bits(&y), bits(&scatter), "width {threads}");
        }
    }

    #[test]
    fn parallel_two_hop_reproduces_the_sequential_pass() {
        // The sequential pass the block-parallel generator must reproduce: one
        // stream, vertices in order, pairs added straight into the builder.
        fn sequential(level: &ChainLevel, config: &ChainConfig, level_idx: usize) -> Graph {
            let mut rng =
                ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(level_idx as u64 * 0xC11A));
            let mut builder = GraphBuilder::new(level.n());
            for v in 0..level.n() {
                let (nbrs, weights) = level.row(v);
                let deg = nbrs.len();
                if deg < 2 {
                    continue;
                }
                let dv = level.diagonal[v];
                if deg <= config.clique_sample_threshold {
                    for i in 0..deg {
                        for j in (i + 1)..deg {
                            let w = weights[i] * weights[j] / dv;
                            if nbrs[i] != nbrs[j] && w > 0.0 {
                                let _ = builder.add(nbrs[i] as usize, nbrs[j] as usize, w);
                            }
                        }
                    }
                    continue;
                }
                let total: f64 = weights.iter().sum();
                let sum_sq: f64 = weights.iter().map(|w| w * w).sum();
                let clique_weight = (total * total - sum_sq) / (2.0 * dv);
                if clique_weight <= 0.0 {
                    continue;
                }
                let samples = ((deg as f64) * (deg as f64).log2().max(1.0) * 2.0).ceil() as usize;
                let mut cumulative = Vec::new();
                let mut acc = 0.0;
                for w in weights {
                    acc += w;
                    cumulative.push(acc);
                }
                let mut draw = || {
                    let x = rng.gen_range(0.0..acc);
                    cumulative.partition_point(|&c| c < x).min(deg - 1)
                };
                let mut accepted = Vec::new();
                for _ in 0..samples {
                    let (i, j) = (draw(), draw());
                    if i != j && nbrs[i] != nbrs[j] {
                        accepted.push((nbrs[i] as usize, nbrs[j] as usize));
                    }
                }
                for &(a, b) in &accepted {
                    let _ = builder.add(a, b, clique_weight / accepted.len() as f64);
                }
            }
            builder.build()
        }

        // Mixed degrees around a low threshold: exact and sampled cliques interleave,
        // so block seeks land between sampled vertices.
        let g = irregular_graph(300, 2_500, 29);
        let level = ChainLevel::new(&g, vec![0.25; 300]);
        let config = ChainConfig {
            clique_sample_threshold: 12,
            ..ChainConfig::default()
        };
        let want = sequential(&level, &config, 3);
        assert!(want.m() > 0);
        for threads in [1, 2, 4] {
            let got = on_pool(threads, || two_hop_graph(&level, &config, 3));
            assert_eq!(got.m(), want.m(), "width {threads}");
            for (a, b) in got.edges().iter().zip(want.edges()) {
                assert_eq!((a.u, a.v, a.w.to_bits()), (b.u, b.v, b.w.to_bits()));
            }
        }
    }

    #[test]
    fn chain_has_bounded_depth_and_size() {
        let g = generators::erdos_renyi(300, 0.1, 1.0, 3);
        let system = GroundedLaplacian::from_graph(g);
        let chain = Chain::build(&system, &ChainConfig::default());
        assert!(chain.depth() >= 1);
        assert!(chain.depth() <= 25);
        assert!(chain.total_edges() > 0);
    }

    #[test]
    fn two_hop_level_has_nonnegative_excess_and_more_dominance() {
        let g = generators::grid2d(10, 10, 1.0);
        let system = GroundedLaplacian::from_graph(g);
        let chain = Chain::build(&system, &ChainConfig::default());
        for level in chain.levels() {
            assert!(level.excess.iter().all(|&e| e >= 0.0));
        }
        if chain.depth() >= 2 {
            let d0 = chain.levels()[0].dominance();
            let dl = chain.levels()[chain.depth() - 1].dominance();
            assert!(
                dl >= d0,
                "dominance should not decrease along the chain: {d0} -> {dl}"
            );
        }
    }

    #[test]
    fn apply_inverse_is_a_positive_definite_preconditioner() {
        // PCG requires the preconditioner to be a symmetric positive-definite linear
        // map; we check positivity of bᵀ P b on a batch of right-hand sides and that the
        // map is linear (it is built only from linear operations).
        let g = generators::erdos_renyi(200, 0.15, 1.0, 7);
        let system = GroundedLaplacian::from_graph(g);
        let chain = Chain::build(&system, &ChainConfig::default());
        let n = system.n();
        for seed in 0..5u64 {
            let b = vector::random_unit_orthogonal(n, seed);
            let x = chain.apply_inverse(&b);
            assert!(x.iter().all(|v| v.is_finite()));
            let btx = vector::dot(&b, &x);
            assert!(
                btx > 0.0,
                "preconditioner must be positive definite, got {btx}"
            );
        }
        // Linearity: P(2a - b) = 2 P(a) - P(b).
        let a = vector::random_unit_orthogonal(n, 101);
        let b = vector::random_unit_orthogonal(n, 102);
        let combo: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 2.0 * x - y).collect();
        let pa = chain.apply_inverse(&a);
        let pb = chain.apply_inverse(&b);
        let pc = chain.apply_inverse(&combo);
        for i in 0..n {
            let lin = 2.0 * pa[i] - pb[i];
            assert!((pc[i] - lin).abs() < 1e-9 * (1.0 + lin.abs()));
        }
    }

    #[test]
    fn jacobi_base_case_is_linear() {
        let g = generators::path(30, 1.0);
        let excess = vec![3.0; 30]; // strongly dominant
        let level = ChainLevel::new(&g, excess);
        let sweeps = |b: &[f64]| {
            let (mut x, mut ax) = (vec![0.0; 30], vec![0.0; 30]);
            jacobi_sweeps(&level, b, 8, &mut x, &mut ax);
            x
        };
        let b1: Vec<f64> = (0..30).map(|i| (i as f64).sin()).collect();
        let b2: Vec<f64> = (0..30).map(|i| (i as f64 * 0.3).cos()).collect();
        let x1 = sweeps(&b1);
        let x2 = sweeps(&b2);
        let combined: Vec<f64> = b1.iter().zip(&b2).map(|(a, b)| 2.0 * a - 0.5 * b).collect();
        let x_combined = sweeps(&combined);
        for i in 0..30 {
            let lin = 2.0 * x1[i] - 0.5 * x2[i];
            assert!(
                (x_combined[i] - lin).abs() < 1e-10,
                "Jacobi base case must be linear"
            );
        }
    }

    #[test]
    fn apply_inverse_in_is_bitwise_equal_to_apply_inverse() {
        // The `_in` path is the one the PCG loop uses, with one scratch reused across
        // right-hand sides; the allocating wrapper and the preconditioner views must
        // give the same bits, at every pool width.
        let g = generators::erdos_renyi(180, 0.12, 1.0, 21);
        let system = GroundedLaplacian::from_graph(g);
        let chain = Chain::build(&system, &ChainConfig::default());
        assert!(chain.depth() >= 2, "want a recursive chain for this pin");
        let n = system.n();
        let mut scratch = ChainScratch::new();
        let mut out = vec![0.0; n];
        for seed in 0..4u64 {
            let b = vector::random_unit_orthogonal(n, seed);
            let reference = chain.apply_inverse(&b);
            // Scratch is deliberately reused across right-hand sides.
            chain.apply_inverse_in(&b, &mut out, &mut scratch);
            assert_eq!(bits(&reference), bits(&out), "right-hand side {seed}");
            for threads in [2, 4] {
                let wide = on_pool(threads, || chain.apply_inverse(&b));
                assert_eq!(bits(&reference), bits(&wide), "width {threads}");
            }
        }
        // The mutex-guarded preconditioner view and the chain itself are the same
        // computation.
        use sgs_linalg::cg::Preconditioner as _;
        let pre = chain.preconditioner();
        let b = vector::random_unit_orthogonal(n, 9);
        let reference = chain.apply_inverse(&b);
        let mut z = vec![0.0; n];
        pre.apply(&b, &mut z);
        assert_eq!(bits(&reference), bits(&z));
        chain.apply(&b, &mut z);
        assert_eq!(bits(&reference), bits(&z));
    }

    #[test]
    fn build_from_stream_matches_building_from_the_sparsifier() {
        use sgs_stream::StreamConfig;
        use sgs_stream::StreamSparsifier;
        let g = generators::erdos_renyi(150, 0.2, 1.0, 13);
        let cfg = StreamConfig::new(0.5, g.m() / 2).with_seed(3);
        let mut s = StreamSparsifier::new(g.n(), cfg);
        s.ingest_batch(g.edges()).unwrap();
        let output = s.finish();
        let expect_edges = output.sparsifier.edges().to_vec();
        let chain_cfg = ChainConfig::default();
        let direct = {
            let system = GroundedLaplacian::from_graph(output.sparsifier.clone());
            Chain::build(&system, &chain_cfg)
        };
        let streamed = Chain::build_from_stream(output, &chain_cfg);
        assert_eq!(streamed.system.graph().edges(), &expect_edges[..]);
        assert_eq!(streamed.chain.depth(), direct.depth());
        assert_eq!(streamed.chain.total_edges(), direct.total_edges());
        assert!(streamed.stream_stats.edges_ingested > 0);
    }

    #[test]
    fn strongly_dominant_systems_terminate_immediately() {
        let g = generators::cycle(20, 1.0);
        let excess = vec![10.0; 20];
        let system = GroundedLaplacian::from_graph_with_excess(g, excess);
        let chain = Chain::build(&system, &ChainConfig::default());
        assert_eq!(chain.depth(), 1);
    }

    #[test]
    fn dense_levels_are_sparsified() {
        // A dense input: the two-hop graph would be denser still; the chain must keep
        // level sizes in check via PARALLELSPARSIFY.
        let g = generators::erdos_renyi(200, 0.3, 1.0, 9);
        let m_in = g.m();
        let system = GroundedLaplacian::from_graph(g);
        let chain = Chain::build(&system, &ChainConfig::default());
        for (i, level) in chain.levels().iter().enumerate().skip(1) {
            assert!(
                level.m() <= 3 * m_in,
                "level {i} blew up: {} edges vs input {m_in}",
                level.m()
            );
        }
    }
}
