//! Golden fixtures for the SDD solver (`sgs-solver`): the approximate inverse chain
//! and the chain-PCG solve it preconditions.
//!
//! Each row pins, for one system, every chain level (its edge count and an FNV
//! fingerprint of its half-edges `(u, v, w.to_bits())` in CSR row order followed by
//! its diagonal excess bits), the chain-PCG iteration count and the bit pattern of
//! the solution. Every row is asserted at pool widths 1, 2 and 4: the chain build
//! (two-hop sampling in parallel vertex blocks) and the chain application (parallel
//! row gathers) must reproduce the sequential bytes at every width.
//!
//! The fixtures were captured from the sequential edge-list chain that preceded the
//! CSR chain levels. If a legitimate algorithm change alters these streams, re-pin by running
//! the committed fixture printer and pasting its output over the table below:
//!
//! ```sh
//! cargo test --release --test golden_solver -- --ignored print_current_fixtures --nocapture
//! ```

use spectral_sparsify::graph::{generators, Graph};
use spectral_sparsify::solver::{ChainLevel, SddSolver, SolverConfig, SolverMethod};
use spectral_sparsify::stream::{StreamConfig, StreamSparsifier};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    fn absorb(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// Half-edges in CSR row order (row `u`, then its neighbours in edge-id order),
/// then the level's diagonal excess.
fn level_fingerprint(level: &ChainLevel) -> u64 {
    let mut h = Fnv::new();
    for u in 0..level.n() {
        let (nbrs, weights) = level.row(u);
        for (&v, &w) in nbrs.iter().zip(weights) {
            h.absorb(u as u64);
            h.absorb(v as u64);
            h.absorb(w.to_bits());
        }
    }
    for e in &level.excess {
        h.absorb(e.to_bits());
    }
    h.0
}

fn bits_fingerprint(xs: &[f64]) -> u64 {
    let mut h = Fnv::new();
    for x in xs {
        h.absorb(x.to_bits());
    }
    h.0
}

fn unit_dipole(n: usize) -> Vec<f64> {
    let mut b = vec![0.0; n];
    b[0] = 1.0;
    b[n - 1] = -1.0;
    b
}

fn solver(name: &str) -> SddSolver {
    let config = SolverConfig::default();
    match name {
        "image48" => {
            SddSolver::for_laplacian(generators::image_affinity_grid(48, 48, 50.0, 51), config)
        }
        "er300" => SddSolver::for_laplacian(generators::erdos_renyi(300, 0.1, 1.0, 3), config),
        "stream400" => {
            let g: Graph = generators::erdos_renyi(400, 0.2, 1.0, 13);
            let mut s =
                StreamSparsifier::new(g.n(), StreamConfig::new(0.5, g.m() / 3).with_seed(5));
            s.ingest_batch(g.edges()).unwrap();
            SddSolver::for_stream(s.finish(), config).0
        }
        other => panic!("unknown fixture system {other}"),
    }
}

/// What one system pins: per-level `(m, fingerprint)`, iterations, solution bits.
struct Pinned {
    levels: Vec<(usize, u64)>,
    iterations: usize,
    solution: u64,
}

fn run(name: &str, threads: usize) -> Pinned {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    pool.install(|| {
        let solver = solver(name);
        let chain = solver.chain().expect("chain built at construction");
        let levels = chain
            .levels()
            .iter()
            .map(|l| (l.m(), level_fingerprint(l)))
            .collect();
        let out = solver.solve_with(&unit_dipole(solver.system().n()), SolverMethod::ChainPcg);
        assert!(out.converged, "{name}: chain-PCG did not converge");
        Pinned {
            levels,
            iterations: out.iterations,
            solution: bits_fingerprint(&out.solution),
        }
    })
}

/// (system, iterations, solution fingerprint, per-level (m, fingerprint)).
#[allow(clippy::type_complexity)]
const GOLDEN_SOLVER: &[(&str, usize, u64, &[(usize, u64)])] = &[
    (
        "image48",
        89,
        0x84887a2528ed41a2,
        &[
            (4512, 0x83347ec5e4518d0e),
            (8834, 0x48f3e9200c57a29b),
            (25750, 0xfe21ec121a846323),
            (48354, 0x212b81ee5c24d290),
            (55525, 0xc2dca4e1e7b6d6f4),
            (56353, 0x656889929bde93f9),
            (56285, 0x568c123f5a12b2c5),
            (57597, 0x872b72d633315dbe),
            (55839, 0x31122c4656cee05e),
            (56025, 0xadde767491391d66),
            (56422, 0xaabd4ff8ee8bf13a),
            (49450, 0xda360e087db7a6f3),
            (50286, 0xae92817173aba43a),
            (50512, 0xe990c4b110246e81),
        ],
    ),
    (
        "er300",
        35,
        0xea3fc54f900d2caa,
        &[
            (4454, 0xd54be3169474e491),
            (6946, 0x3b256fb5865f2959),
            (7550, 0x6a7acd7e925a116a),
            (6460, 0x74828f1ae07b0eb9),
            (5814, 0xe4f57734df376924),
            (6072, 0xa519485673a755d1),
            (5305, 0x0ef262a12fb8e84c),
            (4702, 0xb25bdbf43d74d97a),
            (4932, 0x6761ee946404c841),
            (4690, 0x5cbb0bb06adb3d66),
        ],
    ),
    (
        "stream400",
        23,
        0xc3c7d500f08820a3,
        &[
            (15966, 0xd2aa66b2434b5956),
            (13154, 0x6b4201d8fd28ddbe),
            (12079, 0x9d1671e361b5a6ac),
            (11382, 0x48d338f3fad8de12),
            (10119, 0xd2c6b97ec3fe9d16),
            (8760, 0xb4de51dbc9ee2f90),
            (8622, 0x0b983c7d60cc4b37),
            (7505, 0xcffeebac7f28670e),
            (8490, 0x1619f3a5df45b304),
            (8067, 0x758b2b4a68f45c2c),
            (7783, 0x81ad4ce5147ea4da),
        ],
    ),
];

fn check(name: &str) {
    let &(_, iterations, solution, levels) = GOLDEN_SOLVER
        .iter()
        .find(|row| row.0 == name)
        .expect("fixture row");
    for threads in [1, 2, 4] {
        let got = run(name, threads);
        let label = format!("{name} at width {threads}");
        assert_eq!(got.levels.len(), levels.len(), "{label}: chain depth");
        for (i, (g, want)) in got.levels.iter().zip(levels).enumerate() {
            assert_eq!(g, want, "{label}: level {i} (m, fingerprint)");
        }
        assert_eq!(got.iterations, iterations, "{label}: iterations");
        assert_eq!(got.solution, solution, "{label}: solution bits");
    }
}

#[test]
fn image_chain_and_solve_match_fixtures_at_every_width() {
    check("image48");
}

#[test]
fn er_chain_and_solve_match_fixtures_at_every_width() {
    check("er300");
}

#[test]
fn stream_chain_and_solve_match_fixtures_at_every_width() {
    check("stream400");
}

/// Re-pin helper: prints the fixture table in the exact source format.
#[test]
#[ignore = "fixture printer; run with --ignored --nocapture to re-pin"]
fn print_current_fixtures() {
    for name in ["image48", "er300", "stream400"] {
        let got = run(name, 1);
        println!(
            "    (\"{name}\", {}, {:#018x}, &[",
            got.iterations, got.solution
        );
        for (m, f) in got.levels {
            println!("        ({m}, {f:#018x}),");
        }
        println!("    ]),");
    }
}
