//! The physical plan tree: a [`LogicalPlan`](super::LogicalPlan) with
//! every choice made — each join node carries a concrete
//! [`JoinAlgorithm`], each partition node a concrete fan-out.

use crate::planner::JoinAlgorithm;
use std::fmt;

/// An executable query plan. Produced by the optimizer
/// ([`super::Optimizer`]) or built directly (the [`super::exec`]
/// executor runs any well-formed physical tree).
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// A base relation (index into the catalog).
    Scan {
        /// Catalog index of the base relation.
        table: usize,
    },
    /// Keep tuples with `key < threshold`.
    Select {
        /// Producer of the tuples to filter.
        input: Box<PhysicalPlan>,
        /// Exclusive upper bound on surviving keys.
        threshold: u64,
    },
    /// Equi-join with a chosen algorithm (left = probe/outer,
    /// right = build/inner).
    Join {
        /// Outer (probe) input.
        left: Box<PhysicalPlan>,
        /// Inner (build) input.
        right: Box<PhysicalPlan>,
        /// The chosen join algorithm (sorts for merge included).
        algorithm: JoinAlgorithm,
    },
    /// Hash group-by count.
    Aggregate {
        /// Producer of the tuples to group.
        input: Box<PhysicalPlan>,
    },
    /// In-place quick-sort by key.
    Sort {
        /// Producer of the tuples to sort.
        input: Box<PhysicalPlan>,
    },
    /// Sort-based duplicate elimination.
    Dedup {
        /// Producer of the tuples to deduplicate.
        input: Box<PhysicalPlan>,
    },
    /// Hash partitioning with a concrete fan-out.
    Partition {
        /// Producer of the tuples to partition.
        input: Box<PhysicalPlan>,
        /// The chosen fan-out.
        m: u64,
    },
}

impl PhysicalPlan {
    /// Scan base relation `table`.
    pub fn scan(table: usize) -> PhysicalPlan {
        PhysicalPlan::Scan { table }
    }

    /// Filter to `key < threshold`.
    pub fn select_lt(self, threshold: u64) -> PhysicalPlan {
        PhysicalPlan::Select {
            input: Box::new(self),
            threshold,
        }
    }

    /// Join `self` (outer/probe) with `right` (inner/build) using
    /// `algorithm`.
    pub fn join_with(self, right: PhysicalPlan, algorithm: JoinAlgorithm) -> PhysicalPlan {
        PhysicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            algorithm,
        }
    }

    /// Group by key, counting.
    pub fn group_count(self) -> PhysicalPlan {
        PhysicalPlan::Aggregate {
            input: Box::new(self),
        }
    }

    /// Sort by key.
    pub fn sort(self) -> PhysicalPlan {
        PhysicalPlan::Sort {
            input: Box::new(self),
        }
    }

    /// Eliminate duplicate keys.
    pub fn dedup(self) -> PhysicalPlan {
        PhysicalPlan::Dedup {
            input: Box::new(self),
        }
    }

    /// Hash-partition `m` ways.
    pub fn partition(self, m: u64) -> PhysicalPlan {
        PhysicalPlan::Partition {
            input: Box::new(self),
            m,
        }
    }

    /// Every node of the tree in execution order: left subtree, right
    /// subtree, node (post-order; scans included).
    pub fn nodes(&self) -> Vec<&PhysicalPlan> {
        let mut out = Vec::new();
        self.collect_nodes(&mut out);
        out
    }

    fn collect_nodes<'a>(&'a self, out: &mut Vec<&'a PhysicalPlan>) {
        match self {
            PhysicalPlan::Scan { .. } => {}
            PhysicalPlan::Select { input, .. }
            | PhysicalPlan::Aggregate { input }
            | PhysicalPlan::Sort { input }
            | PhysicalPlan::Dedup { input }
            | PhysicalPlan::Partition { input, .. } => input.collect_nodes(out),
            PhysicalPlan::Join { left, right, .. } => {
                left.collect_nodes(out);
                right.collect_nodes(out);
            }
        }
        out.push(self);
    }

    /// Catalog indices of every base relation the tree scans, sorted
    /// and deduplicated (a self-join references its table once here).
    pub fn tables(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .nodes()
            .into_iter()
            .filter_map(|n| match n {
                PhysicalPlan::Scan { table } => Some(*table),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The join algorithms chosen along the tree, in execution order
    /// (left subtree, right subtree, node).
    pub fn join_algorithms(&self) -> Vec<&JoinAlgorithm> {
        self.nodes()
            .into_iter()
            .filter_map(|n| match n {
                PhysicalPlan::Join { algorithm, .. } => Some(algorithm),
                _ => None,
            })
            .collect()
    }

    /// The base table whose hash-join build a shared build can serve:
    /// `Some(t)` when this node is a hash join whose build (right)
    /// input is a bare `scan(t)`. Anything with operators in between
    /// (selects, joins) is query-specific data and never shared. The
    /// one rule both the executor and the service's build registry
    /// follow.
    pub fn shared_build_table(&self) -> Option<usize> {
        match self {
            PhysicalPlan::Join {
                right,
                algorithm: JoinAlgorithm::Hash,
                ..
            } => match **right {
                PhysicalPlan::Scan { table } => Some(table),
                _ => None,
            },
            _ => None,
        }
    }
}

impl fmt::Display for PhysicalPlan {
    /// Functional one-line rendering with algorithms spelled out, e.g.
    /// `join[hash join](select_lt<100>(scan(0)), scan(1))`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhysicalPlan::Scan { table } => write!(f, "scan({table})"),
            PhysicalPlan::Select { input, threshold } => {
                write!(f, "select_lt<{threshold}>({input})")
            }
            PhysicalPlan::Join {
                left,
                right,
                algorithm,
            } => write!(f, "join[{algorithm}]({left}, {right})"),
            PhysicalPlan::Aggregate { input } => write!(f, "group_count({input})"),
            PhysicalPlan::Sort { input } => write!(f, "sort({input})"),
            PhysicalPlan::Dedup { input } => write!(f, "dedup({input})"),
            PhysicalPlan::Partition { input, m } => write!(f, "partition<{m}>({input})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_algorithms_inline() {
        let p = PhysicalPlan::scan(0)
            .select_lt(64)
            .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
            .join_with(
                PhysicalPlan::scan(2),
                JoinAlgorithm::Merge {
                    sort_u: true,
                    sort_v: false,
                },
            )
            .group_count();
        assert_eq!(
            p.to_string(),
            "group_count(join[merge join (sort outer)](\
             join[hash join](select_lt<64>(scan(0)), scan(1)), scan(2)))"
        );
    }

    #[test]
    fn join_algorithms_in_execution_order() {
        let p = PhysicalPlan::scan(0)
            .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
            .join_with(
                PhysicalPlan::scan(2),
                JoinAlgorithm::PartitionedHash { m: 8 },
            );
        let algos = p.join_algorithms();
        assert_eq!(algos.len(), 2);
        assert!(matches!(algos[0], JoinAlgorithm::Hash));
        assert!(matches!(algos[1], JoinAlgorithm::PartitionedHash { m: 8 }));
    }

    #[test]
    fn shared_builds_need_a_hash_join_over_a_bare_scan() {
        let scan = || PhysicalPlan::scan(1);
        let fact = || PhysicalPlan::scan(0).select_lt(10);
        let hash = fact().join_with(scan(), JoinAlgorithm::Hash);
        assert_eq!(hash.shared_build_table(), Some(1));
        // A filtered build side is query-specific data.
        let filtered = fact().join_with(scan().select_lt(5), JoinAlgorithm::Hash);
        assert_eq!(filtered.shared_build_table(), None);
        // Other algorithms build nothing shareable.
        let part = fact().join_with(scan(), JoinAlgorithm::PartitionedHash { m: 4 });
        assert_eq!(part.shared_build_table(), None);
        // Only the join node itself answers; `nodes` finds nested ones
        // in execution order.
        let star = hash
            .join_with(PhysicalPlan::scan(2), JoinAlgorithm::Hash)
            .group_count();
        assert_eq!(star.shared_build_table(), None);
        let builds: Vec<usize> = star
            .nodes()
            .into_iter()
            .filter_map(PhysicalPlan::shared_build_table)
            .collect();
        assert_eq!(builds, vec![1, 2]);
    }

    #[test]
    fn tables_lists_referenced_scans() {
        let p = PhysicalPlan::scan(3)
            .select_lt(64)
            .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
            .group_count();
        assert_eq!(p.tables(), vec![1, 3]);
        // A self-join references its table once.
        let s = PhysicalPlan::scan(0).join_with(PhysicalPlan::scan(0), JoinAlgorithm::Hash);
        assert_eq!(s.tables(), vec![0]);
    }
}
