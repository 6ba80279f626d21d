//! Capturing line-access traces for replay-based cache evaluation.
//!
//! Which cache lines a node touches — and in what order — depends only on
//! the fragment stream and the routing, never on the cache geometry: the
//! node probes its cache once per texel read whatever the cache answers.
//! A [`LineAccessTrace`] therefore bundles the exact per-node access
//! sequences any set-associative geometry would see, so the
//! [stack-distance evaluator](crate::stackdist) can price every geometry
//! of a sweep grid from one capture.

/// The deterministic sequence of (node, texture-line) accesses one routing
/// plan produces, grouped per node in processing order.
///
/// Accesses come in fixed-size runs (`accesses_per_fragment`, 8 for the
/// trilinear engine), so fragment boundaries are implicit — the evaluator
/// uses them to reconstruct per-fragment miss counts for timing replay.
#[derive(Debug, Clone)]
pub struct LineAccessTrace {
    nodes: Vec<Vec<u32>>,
    accesses_per_fragment: u32,
}

impl LineAccessTrace {
    /// Builds a trace from per-node access sequences.
    ///
    /// # Panics
    ///
    /// Panics if `accesses_per_fragment` is zero or any node's sequence
    /// length is not a multiple of it.
    pub fn from_nodes(nodes: Vec<Vec<u32>>, accesses_per_fragment: u32) -> Self {
        assert!(accesses_per_fragment > 0, "fragments make at least one access");
        for (i, seq) in nodes.iter().enumerate() {
            assert_eq!(
                seq.len() % accesses_per_fragment as usize,
                0,
                "node {i} trace length {} is not whole fragments",
                seq.len()
            );
        }
        LineAccessTrace {
            nodes,
            accesses_per_fragment,
        }
    }

    /// Number of nodes in the trace.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// One node's access sequence, in processing order.
    pub fn node_lines(&self, node: usize) -> &[u32] {
        &self.nodes[node]
    }

    /// Accesses per fragment (the texel reads of one pixel).
    pub fn accesses_per_fragment(&self) -> u32 {
        self.accesses_per_fragment
    }

    /// Fragments one node processes.
    pub fn fragment_count(&self, node: usize) -> usize {
        self.nodes[node].len() / self.accesses_per_fragment as usize
    }

    /// Total accesses across all nodes.
    pub fn total_accesses(&self) -> u64 {
        self.nodes.iter().map(|n| n.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_counts_fragments() {
        let trace = LineAccessTrace::from_nodes(vec![vec![1, 2, 3, 4], vec![]], 2);
        assert_eq!(trace.node_count(), 2);
        assert_eq!(trace.fragment_count(0), 2);
        assert_eq!(trace.fragment_count(1), 0);
        assert_eq!(trace.total_accesses(), 4);
        assert_eq!(trace.node_lines(0), &[1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "not whole fragments")]
    fn ragged_trace_panics() {
        LineAccessTrace::from_nodes(vec![vec![1, 2, 3]], 2);
    }
}
