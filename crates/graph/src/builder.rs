//! Incremental graph builder that merges duplicate edges.
//!
//! Generators and samplers often produce the same vertex pair more than once; the
//! builder accumulates weights per pair (exact electrically) and produces a simple
//! [`Graph`] at the end.
//!
//! Each pair's weights are summed in insertion order and the output is sorted by
//! endpoint pair, so the result does not depend on the hash map's layout. The map
//! keys on the pair packed into one `u64` with a fixed multiplicative hash, which
//! is cheap but gives no protection against vertex pairs chosen to collide. Its
//! callers accumulate generated edges (generators, `Graph::coalesce`, the solver
//! chain's two-hop levels); the streaming engine merges ingested edges by sorting
//! (`ops::coalesce_in_place`), which is the path for adversarial input.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::error::{GraphError, Result};
use crate::graph::{Graph, NodeId};

/// Hasher for packed pair keys: one folded 64×64→128-bit multiply, whose high and
/// low halves mix every key bit into the bucket index.
#[derive(Debug, Default, Clone, Copy)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        let p = (x ^ 0x243F_6A88_85A3_08D3) as u128 * 0x9E37_79B9_7F4A_7C15u128;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

type PairMap = HashMap<u64, f64, BuildHasherDefault<PairHasher>>;

/// The canonical `(min, max)` pair packed as `min << 32 | max`; packed keys sort
/// in the same order as the pairs.
fn pack(u: NodeId, v: NodeId) -> u64 {
    let (a, b) = if u <= v { (u, v) } else { (v, u) };
    ((a as u64) << 32) | b as u64
}

/// Accumulates edges keyed by their canonical `(min, max)` endpoint pair, summing the
/// weights of duplicates.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    weights: PairMap,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(
            n as u64 <= 1 << 32,
            "GraphBuilder packs vertex ids into 32 bits"
        );
        GraphBuilder {
            n,
            weights: PairMap::default(),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of distinct vertex pairs added so far.
    pub fn distinct_edges(&self) -> usize {
        self.weights.len()
    }

    /// Adds an edge, accumulating weight onto an existing edge with the same endpoints.
    pub fn add(&mut self, u: NodeId, v: NodeId, w: f64) -> Result<&mut Self> {
        if u >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: u,
                n: self.n,
            });
        }
        if v >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                n: self.n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        if !(w.is_finite() && w > 0.0) {
            return Err(GraphError::NonPositiveWeight { weight: w });
        }
        self.accumulate(u, v, w);
        Ok(self)
    }

    /// [`add`](Self::add) without validation, for edges taken from a [`Graph`].
    pub(crate) fn accumulate(&mut self, u: NodeId, v: NodeId, w: f64) {
        *self.weights.entry(pack(u, v)).or_insert(0.0) += w;
    }

    /// Adds every edge of `g`, accumulating duplicate pairs.
    pub fn add_graph(&mut self, g: &Graph) -> Result<&mut Self> {
        if g.n() != self.n {
            return Err(GraphError::SizeMismatch {
                left: self.n,
                right: g.n(),
            });
        }
        for e in g.edges() {
            self.add(e.u, e.v, e.w)?;
        }
        Ok(self)
    }

    /// Returns `true` if the pair `(u, v)` has been added.
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        self.weights.contains_key(&pack(u, v))
    }

    /// Finalizes the builder into a simple graph with deterministically ordered edges.
    pub fn build(self) -> Graph {
        let mut pairs: Vec<(u64, f64)> = self.weights.into_iter().collect();
        pairs.sort_unstable_by_key(|&(key, _)| key);
        // Edges were validated on insertion; reconstruct without re-validating.
        let mut g = Graph::with_capacity(self.n, pairs.len());
        for (key, w) in pairs {
            g.push_edge_unchecked((key >> 32) as NodeId, key as u32 as NodeId, w);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_duplicates() {
        let mut b = GraphBuilder::new(3);
        b.add(0, 1, 1.0).unwrap();
        b.add(1, 0, 2.0).unwrap();
        b.add(1, 2, 3.0).unwrap();
        assert_eq!(b.distinct_edges(), 2);
        assert!(b.contains(0, 1));
        assert!(b.contains(1, 0));
        assert!(!b.contains(0, 2));
        let g = b.build();
        assert_eq!(g.m(), 2);
        assert!((g.edges()[0].w - 3.0).abs() < 1e-12);
    }

    #[test]
    fn validates_input() {
        let mut b = GraphBuilder::new(2);
        assert!(b.add(0, 0, 1.0).is_err());
        assert!(b.add(0, 5, 1.0).is_err());
        assert!(b.add(0, 1, -1.0).is_err());
        assert!(b.add(0, 1, f64::NAN).is_err());
        assert_eq!(b.distinct_edges(), 0);
    }

    #[test]
    fn add_graph_checks_size() {
        let g = Graph::from_tuples(3, vec![(0, 1, 1.0)]).unwrap();
        let mut b = GraphBuilder::new(4);
        assert!(matches!(
            b.add_graph(&g),
            Err(GraphError::SizeMismatch { .. })
        ));
        let mut b = GraphBuilder::new(3);
        b.add_graph(&g).unwrap();
        b.add_graph(&g).unwrap();
        let out = b.build();
        assert_eq!(out.m(), 1);
        assert!((out.edges()[0].w - 2.0).abs() < 1e-12);
    }

    #[test]
    fn build_is_deterministic() {
        let mut b1 = GraphBuilder::new(4);
        let mut b2 = GraphBuilder::new(4);
        for &(u, v, w) in &[(2, 3, 1.0), (0, 1, 1.0), (1, 3, 2.0)] {
            b1.add(u, v, w).unwrap();
        }
        for &(u, v, w) in &[(1, 3, 2.0), (0, 1, 1.0), (2, 3, 1.0)] {
            b2.add(u, v, w).unwrap();
        }
        assert_eq!(b1.build().edges(), b2.build().edges());
    }
}
