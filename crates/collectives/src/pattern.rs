//! Weighted process-topology (communication-pattern) graph extraction.
//!
//! A general-purpose mapper — the paper's Scotch baseline — consumes the
//! communication pattern as a weighted graph; building that graph is an
//! overhead the fine-tuned heuristics avoid because they derive the pattern
//! "in a closed-form fashion" from the algorithm itself (§V). This module
//! performs the build the general mapper is charged for.

use std::collections::HashMap;
use tarr_mpi::Schedule;

/// Undirected weighted communication graph over `p` ranks.
///
/// `adj[i]` lists `(j, bytes)` pairs with `i < j` edges stored on both
/// endpoints; weights accumulate the total bytes exchanged in both
/// directions across all stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternGraph {
    /// Number of vertices (ranks).
    pub p: u32,
    /// Adjacency lists, sorted by neighbour.
    pub adj: Vec<Vec<(u32, u64)>>,
}

impl PatternGraph {
    /// Weight between `a` and `b` (0 if not adjacent).
    pub fn weight(&self, a: u32, b: u32) -> u64 {
        self.adj[a as usize]
            .iter()
            .find(|&&(j, _)| j == b)
            .map(|&(_, w)| w)
            .unwrap_or(0)
    }
}

/// Build the **unweighted** pattern graph of a schedule: every communicating
/// pair gets weight 1, regardless of how much it exchanges. This is how a
/// user who skips edge weighting would feed a general mapper — stage volumes
/// (the information the paper's fine-tuned heuristics exploit) are lost,
/// which is decisive for recursive doubling where message sizes span three
/// orders of magnitude across stages.
pub fn pattern_graph_unweighted(schedule: &Schedule) -> PatternGraph {
    let mut g = pattern_graph(schedule, 0);
    for n in &mut g.adj {
        for (_, w) in n.iter_mut() {
            *w = 1;
        }
    }
    g
}

/// Build the weighted pattern graph of a schedule, resolving block payloads
/// with `block_bytes`.
pub fn pattern_graph(schedule: &Schedule, block_bytes: u64) -> PatternGraph {
    let p = schedule.p;
    let mut span = tarr_trace::span("collectives.pattern_graph").arg("p", p);
    let mut edges: HashMap<(u32, u32), u64> = HashMap::new();
    for stage in &schedule.stages {
        for op in &stage.ops {
            let (a, b) = if op.from.0 < op.to.0 {
                (op.from.0, op.to.0)
            } else {
                (op.to.0, op.from.0)
            };
            *edges.entry((a, b)).or_insert(0) += op.payload.bytes(block_bytes);
        }
    }
    let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); p as usize];
    for (&(a, b), &w) in &edges {
        adj[a as usize].push((b, w));
        adj[b as usize].push((a, w));
    }
    for n in &mut adj {
        n.sort_unstable();
    }
    span.record("edges", edges.len());
    PatternGraph { p, adj }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allgather::{recursive_doubling, ring};

    #[test]
    fn ring_pattern_is_a_cycle() {
        let g = pattern_graph(&ring(8), 100);
        let edges = g.adj.iter().map(|n| n.len()).sum::<usize>() / 2;
        assert_eq!(edges, 8);
        for i in 0..8u32 {
            // Each rank talks to exactly its two neighbours.
            assert_eq!(g.adj[i as usize].len(), 2);
            assert!(g.weight(i, (i + 1) % 8) > 0);
        }
        // Every edge carries 7 forwards of 100 bytes... in one direction.
        assert_eq!(g.weight(0, 1), 700);
    }

    #[test]
    fn rd_pattern_weights_follow_stage_volume() {
        let g = pattern_graph(&recursive_doubling(8), 1);
        // Stage 0 partner (XOR 1): 1 block each way = 2.
        assert_eq!(g.weight(0, 1), 2);
        // Stage 1 partner (XOR 2): 2 blocks each way = 4.
        assert_eq!(g.weight(0, 2), 4);
        // Stage 2 partner (XOR 4): 4 blocks each way = 8.
        assert_eq!(g.weight(0, 4), 8);
        // Non-partners are not adjacent.
        assert_eq!(g.weight(0, 3), 0);
    }

    #[test]
    fn total_weight_matches_schedule_bytes() {
        let sched = recursive_doubling(16);
        let g = pattern_graph(&sched, 10);
        // Every undirected edge appears in both endpoints' adjacency lists.
        let weight = g.adj.iter().flatten().map(|&(_, w)| w).sum::<u64>() / 2;
        assert_eq!(weight, sched.total_bytes(10));
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = pattern_graph(&recursive_doubling(32), 3);
        for i in 0..32u32 {
            for &(j, w) in &g.adj[i as usize] {
                assert_eq!(g.weight(j, i), w);
            }
        }
    }
}
