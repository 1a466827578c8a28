//! The heart of the ESSENT reproduction: the **novel acyclic graph
//! partitioning algorithm** (paper Section IV) and the **CCSS plan** —
//! the conditional, coarsened, singular, static execution structure the
//! generated simulators run (Section III).
//!
//! # The algorithm
//!
//! Exploiting low activity factors requires *coarsening* the design so
//! change detection can be amortized over 10–100s of elements, while the
//! partitioning must stay **acyclic** so a static schedule can evaluate
//! each partition at most once per cycle (*singular* execution). Even an
//! acyclic design graph can induce cycles between partitions (paper
//! Figure 2), so merges must be checked.
//!
//! The partitioner ([`partition`](fn@partition)):
//! 1. seeds an acyclic partitioning by decomposing the graph into
//!    **maximum fanout-free cones** ([`mffc`]), crawling up from sinks;
//! 2. merges **single-parent partitions** into their parents (always
//!    legal — no external path can exist);
//! 3. merges **small partitions with small siblings**, prioritizing the
//!    number of partition-level cut edges a merge eliminates;
//! 4. merges remaining **small partitions with any sibling**, maximizing
//!    the fraction of shared input signals.
//!
//! Every candidate merge is validated by the external-path test extended
//! from Herrmann et al. ([`legality`]): *partitions A and B can be merged
//! iff there is no path between them through nodes outside both*.
//!
//! The single coarsening parameter `C_p` (a partition is "small" below
//! `C_p` nodes) is **design-insensitive** — the paper's Figure 6 shows one
//! host-tuned value (8) works across designs, which `essent-bench`'s
//! `figure6` binary reproduces.
//!
//! # From partitioning to execution
//!
//! [`plan::CcssPlan`] turns a partitioning plus a netlist into everything
//! a simulator needs: a topological partition schedule, per-partition
//! member evaluation order, per-output consumer trigger lists (the push-
//! direction OR-reduction activation of paper Figure 1), and the state-
//! element update elision analysis of Section III-B1 (registers and
//! memories updated in place when every reader is scheduled no later than
//! the writer, with immediate next-cycle wakeups).
//!
//! # Examples
//!
//! ```
//! use essent_core::{dag::DagView, partition::partition};
//!
//! // A diamond: 0 -> {1, 2} -> 3.
//! let dag = DagView::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
//! let parts = partition(&dag, 8);
//! assert!(parts.check(&dag).is_clean(), "partitioning invariants hold");
//! // Small graphs collapse into one partition at C_p = 8.
//! assert_eq!(parts.live_partitions().count(), 1);
//! ```

pub mod dag;
pub mod depgraph;
pub mod diag;
pub mod legality;
pub mod mffc;
pub mod partition;
pub mod plan;

pub use dag::DagView;
pub use depgraph::{synthesize_dataflow, DataflowSchedule, DepGraph};
pub use diag::{DiagCode, Diagnostic, Report, Severity};
pub use partition::{partition, PartitionStats, Partitioning};
pub use plan::CcssPlan;
