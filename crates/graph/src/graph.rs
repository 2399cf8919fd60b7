//! The computation DAG and its aggregate statistics.

use std::collections::VecDeque;
use std::fmt;

use pai_hw::{Bytes, Flops};
use serde::{Deserialize, Serialize};

use crate::op::{Op, OpClass, OpKind};

/// Index of a node within its [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A directed acyclic graph of operators.
///
/// # Examples
///
/// ```
/// use pai_graph::{Graph, Op, OpKind};
/// use pai_graph::op::{matmul, elementwise};
///
/// let mut g = Graph::new("mlp");
/// let a = g.add(Op::new("fc1", matmul(32, 128, 256)));
/// let b = g.add(Op::new("relu1", elementwise(1, 32 * 256, 1)));
/// g.connect(a, b);
/// assert_eq!(g.topo_order().len(), 2);
/// assert!(g.stats().flops.as_f64() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    name: String,
    nodes: Vec<Op>,
    /// Adjacency: `edges[i]` lists successors of node `i`.
    edges: Vec<Vec<usize>>,
}

impl Graph {
    /// Creates an empty graph.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "graphs need a non-empty name");
        Graph {
            name,
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// The graph name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a node and returns its id.
    pub fn add(&mut self, op: Op) -> NodeId {
        self.nodes.push(op);
        self.edges.push(Vec::new());
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a dependency edge `from -> to`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range, `from == to`, or the edge
    /// already exists.
    pub fn connect(&mut self, from: NodeId, to: NodeId) {
        assert!(from.0 < self.nodes.len(), "edge source out of range");
        assert!(to.0 < self.nodes.len(), "edge target out of range");
        assert_ne!(from, to, "self-edges are not allowed");
        assert!(
            !self.edges[from.0].contains(&to.0),
            "duplicate edge {from} -> {to}"
        );
        self.edges[from.0].push(to.0);
    }

    /// Adds a chain of ops, each depending on the previous, returning
    /// the last id (or `prev` if `ops` is empty).
    pub fn add_chain(&mut self, mut prev: Option<NodeId>, ops: Vec<Op>) -> Option<NodeId> {
        for op in ops {
            let id = self.add(op);
            if let Some(p) = prev {
                self.connect(p, id);
            }
            prev = Some(id);
        }
        prev
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node for an id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &Op {
        &self.nodes[id.0]
    }

    /// Mutable node access (optimization passes).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Op {
        &mut self.nodes[id.0]
    }

    /// All nodes in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Op)> {
        self.nodes.iter().enumerate().map(|(i, op)| (NodeId(i), op))
    }

    /// Successor ids of a node.
    pub fn successors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.edges[id.0].iter().map(|&i| NodeId(i))
    }

    /// Predecessor lists for every node, computed in one O(V+E) pass.
    pub fn predecessor_lists(&self) -> Vec<Vec<NodeId>> {
        let mut preds = vec![Vec::new(); self.nodes.len()];
        for (i, succ) in self.edges.iter().enumerate() {
            for &t in succ {
                preds[t].push(NodeId(i));
            }
        }
        preds
    }

    /// In-degree of every node.
    fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.nodes.len()];
        for succ in &self.edges {
            for &t in succ {
                deg[t] += 1;
            }
        }
        deg
    }

    /// Kahn topological order.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle.
    pub fn topo_order(&self) -> Vec<NodeId> {
        let mut deg = self.in_degrees();
        let mut queue: VecDeque<usize> = deg
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(i) = queue.pop_front() {
            order.push(NodeId(i));
            for &t in &self.edges[i] {
                deg[t] -= 1;
                if deg[t] == 0 {
                    queue.push_back(t);
                }
            }
        }
        assert_eq!(
            order.len(),
            self.nodes.len(),
            "graph '{}' contains a cycle",
            self.name
        );
        order
    }

    /// A subgraph containing only the nodes `keep` accepts, with the
    /// edges among them. Edges through removed nodes are *not*
    /// contracted — callers remove structurally trailing regions (the
    /// backward sweep, calibration pads), where contraction is a no-op.
    pub fn retain<F: Fn(&Op) -> bool>(&self, name: impl Into<String>, keep: F) -> Graph {
        let mut out = Graph::new(name);
        let mut new_id = vec![None::<NodeId>; self.nodes.len()];
        for (id, op) in self.nodes() {
            if keep(op) {
                new_id[id.index()] = Some(out.add(op.clone()));
            }
        }
        for (id, _) in self.nodes() {
            let Some(a) = new_id[id.index()] else {
                continue;
            };
            for succ in self.successors(id) {
                if let Some(b) = new_id[succ.index()] {
                    out.connect(a, b);
                }
            }
        }
        out
    }

    /// Aggregate per-step statistics: the graph's contribution to the
    /// workload feature record (Fig. 4 schema).
    pub fn stats(&self) -> GraphStats {
        let mut s = GraphStats::default();
        for op in &self.nodes {
            let kind = op.kind();
            match kind.class() {
                OpClass::ComputeBound => {
                    s.flops += kind.flops();
                    s.compute_bound_ops += 1;
                    s.mem_access_total += kind.mem_bytes();
                }
                OpClass::MemoryBound => {
                    s.mem_access_memory_bound += kind.mem_bytes();
                    s.mem_access_total += kind.mem_bytes();
                    s.memory_bound_flops += kind.flops();
                    s.memory_bound_ops += 1;
                }
                OpClass::Io => {
                    s.input_bytes += kind.pcie_bytes();
                    s.io_ops += 1;
                }
            }
            if kind.uses_tensor_core() {
                s.tensor_core_flops += kind.flops();
            }
            if let OpKind::ElementWise { fused_from, .. } = kind {
                s.fused_away_ops += fused_from - 1;
            }
        }
        s.total_ops = self.nodes.len();
        s
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "{} ({} ops, {}, mem {})",
            self.name, s.total_ops, s.flops, s.mem_access_memory_bound
        )
    }
}

/// Aggregate costs of one graph execution (one training step on one
/// replica).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct GraphStats {
    /// `#FLOPs` of compute-bound ops — the numerator of Eq. 1's first
    /// term and the "FLOP count" column of Table V.
    pub flops: Flops,
    /// `S_mem_access` of memory-bound ops — Eq. 1's second term and the
    /// "Memory access" column of Table V.
    pub mem_access_memory_bound: Bytes,
    /// Memory traffic of *all* ops (reported for completeness).
    pub mem_access_total: Bytes,
    /// Arithmetic inside memory-bound ops (not charged to Eq. 1).
    pub memory_bound_flops: Flops,
    /// FLOPs routed to TensorCore by the mixed-precision pass.
    pub tensor_core_flops: Flops,
    /// `S_d`: input bytes over PCIe — the "Memory Copy(PCIe)" column of
    /// Table V.
    pub input_bytes: Bytes,
    /// Number of compute-bound ops.
    pub compute_bound_ops: usize,
    /// Number of memory-bound ops.
    pub memory_bound_ops: usize,
    /// Number of I/O ops.
    pub io_ops: usize,
    /// Total op count.
    pub total_ops: usize,
    /// Elementary ops eliminated by fusion (framework-overhead savings).
    pub fused_away_ops: usize,
}

impl GraphStats {
    /// Ops that launch a kernel (everything but I/O).
    pub fn kernel_launches(&self) -> usize {
        self.compute_bound_ops + self.memory_bound_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{elementwise, matmul};

    fn diamond() -> Graph {
        let mut g = Graph::new("diamond");
        let a = g.add(Op::new("a", matmul(4, 4, 4)));
        let b = g.add(Op::new("b", elementwise(1, 16, 1)));
        let c = g.add(Op::new("c", elementwise(1, 16, 1)));
        let d = g.add(Op::new("d", elementwise(2, 16, 1)));
        g.connect(a, b);
        g.connect(a, c);
        g.connect(b, d);
        g.connect(c, d);
        g
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let order = g.topo_order();
        let pos: Vec<usize> = (0..4)
            .map(|i| order.iter().position(|n| n.0 == i).expect("present"))
            .collect();
        assert!(pos[0] < pos[1]);
        assert!(pos[0] < pos[2]);
        assert!(pos[1] < pos[3]);
        assert!(pos[2] < pos[3]);
    }

    #[test]
    #[should_panic(expected = "contains a cycle")]
    fn cycle_detection() {
        let mut g = Graph::new("cyclic");
        let a = g.add(Op::new("a", elementwise(1, 1, 1)));
        let b = g.add(Op::new("b", elementwise(1, 1, 1)));
        g.connect(a, b);
        g.connect(b, a);
        let _ = g.topo_order();
    }

    #[test]
    fn stats_partition_by_class() {
        let mut g = diamond();
        g.add(Op::new("in", OpKind::DataLoad { bytes: 500 }));
        let s = g.stats();
        assert_eq!(s.compute_bound_ops, 1);
        assert_eq!(s.memory_bound_ops, 3);
        assert_eq!(s.io_ops, 1);
        assert_eq!(s.total_ops, 5);
        assert_eq!(s.kernel_launches(), 4);
        assert_eq!(s.flops.as_f64(), 2.0 * 64.0);
        assert_eq!(s.input_bytes.as_u64(), 500);
        // 3 elementwise: (1+1)*16*4 + (1+1)*16*4 + (2+1)*16*4
        assert_eq!(s.mem_access_memory_bound.as_u64(), (2 + 2 + 3) * 16 * 4);
        assert!(s.mem_access_total.as_f64() > s.mem_access_memory_bound.as_f64());
    }

    #[test]
    fn predecessors_and_successors() {
        let g = diamond();
        assert_eq!(g.successors(NodeId(0)).count(), 2);
        let preds = g.predecessor_lists();
        assert_eq!(preds[3].len(), 2);
        assert!(preds[0].is_empty());
    }

    #[test]
    fn add_chain_links_sequentially() {
        let mut g = Graph::new("chain");
        let last = g.add_chain(
            None,
            vec![
                Op::new("x", elementwise(1, 8, 1)),
                Op::new("y", elementwise(1, 8, 1)),
                Op::new("z", elementwise(1, 8, 1)),
            ],
        );
        assert_eq!(last, Some(NodeId(2)));
        assert_eq!(g.predecessor_lists()[2], vec![NodeId(1)]);
        assert_eq!(g.topo_order().len(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicate_edges() {
        let mut g = Graph::new("dup");
        let a = g.add(Op::new("a", elementwise(1, 1, 1)));
        let b = g.add(Op::new("b", elementwise(1, 1, 1)));
        g.connect(a, b);
        g.connect(a, b);
    }

    #[test]
    #[should_panic(expected = "self-edges")]
    fn rejects_self_edges() {
        let mut g = Graph::new("selfy");
        let a = g.add(Op::new("a", elementwise(1, 1, 1)));
        g.connect(a, a);
    }

    #[test]
    fn empty_graph_stats_are_zero() {
        let g = Graph::new("empty");
        assert!(g.is_empty());
        let s = g.stats();
        assert!(s.flops.is_zero());
        assert_eq!(s.total_ops, 0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!diamond().to_string().is_empty());
        assert_eq!(NodeId(3).to_string(), "n3");
    }

    #[test]
    fn retain_keeps_subgraph_edges() {
        let g = diamond();
        let sub = g.retain("sub", |op| op.name() != "c");
        assert_eq!(sub.len(), 3);
        // a->b and b->d survive; edges through c are dropped.
        let edges: usize = sub.nodes().map(|(id, _)| sub.successors(id).count()).sum();
        assert_eq!(edges, 2);
        assert_eq!(sub.topo_order().len(), 3);
    }

    #[test]
    fn retain_nothing_gives_empty_graph() {
        let g = diamond();
        let sub = g.retain("empty", |_| false);
        assert!(sub.is_empty());
        assert!(sub.stats().flops.is_zero());
    }
}
