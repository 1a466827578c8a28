//! A compact adjacency-list view of a directed acyclic graph, the input
//! representation of the partitioner.
//!
//! The partitioner is deliberately independent of the netlist types so it
//! can be property-tested on arbitrary random DAGs; [`DagView::from_netlist`]
//! adapts a design graph.

use essent_netlist::{Netlist, SignalId};

/// Predecessor/successor adjacency lists with deduplicated edges.
#[derive(Debug, Clone, Default)]
pub struct DagView {
    pub preds: Vec<Vec<usize>>,
    pub succs: Vec<Vec<usize>>,
}

impl DagView {
    /// Builds a view from an edge list `(from, to)`.
    ///
    /// Duplicate edges are collapsed. The graph is *not* checked for
    /// acyclicity here; use [`DagView::topo_order`].
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for &(a, b) in edges {
            succs[a].push(b);
            preds[b].push(a);
        }
        for list in preds.iter_mut().chain(succs.iter_mut()) {
            list.sort_unstable();
            list.dedup();
        }
        DagView { preds, succs }
    }

    /// Builds the combinational dependency view of a netlist: one node per
    /// signal, an edge `a -> b` when `b`'s definition reads `a`.
    pub fn from_netlist(netlist: &Netlist) -> Self {
        let n = netlist.signal_count();
        let mut edges = Vec::new();
        for i in 0..n {
            for &dep in netlist.deps(SignalId(i as u32)).iter() {
                edges.push((dep.index(), i));
            }
        }
        DagView::from_edges(n, &edges)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.preds.len()
    }

    /// Number of (deduplicated) edges.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Kahn topological order; `None` when the graph has a cycle.
    pub fn topo_order(&self) -> Option<Vec<usize>> {
        let n = self.node_count();
        let mut indegree: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            order.push(v);
            for &s in &self.succs[v] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    queue.push(s);
                }
            }
        }
        (order.len() == n).then_some(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_edges() {
        let dag = DagView::from_edges(3, &[(0, 1), (0, 1), (1, 2)]);
        assert_eq!(dag.edge_count(), 2);
        assert_eq!(dag.succs[0], vec![1]);
        assert_eq!(dag.preds[1], vec![0]);
    }

    #[test]
    fn topo_order_of_diamond() {
        let dag = DagView::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let order = dag.topo_order().unwrap();
        let pos: Vec<usize> = (0..4)
            .map(|i| order.iter().position(|&v| v == i).unwrap())
            .collect();
        assert!(pos[0] < pos[1] && pos[0] < pos[2]);
        assert!(pos[3] > pos[1] && pos[3] > pos[2]);
    }

    #[test]
    fn detects_cycle() {
        let dag = DagView::from_edges(2, &[(0, 1), (1, 0)]);
        assert!(dag.topo_order().is_none());
    }

    #[test]
    fn from_netlist_mirrors_deps() {
        let src = "circuit T :\n  module T :\n    input a : UInt<4>\n    output o : UInt<4>\n    o <= not(a)\n";
        let lowered = essent_firrtl::passes::lower(essent_firrtl::parse(src).unwrap()).unwrap();
        let n = Netlist::from_circuit(&lowered).unwrap();
        let dag = DagView::from_netlist(&n);
        assert_eq!(dag.node_count(), n.signal_count());
        assert!(dag.topo_order().is_some());
    }
}
