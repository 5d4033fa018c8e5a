//! The alignment graph (Sections III-3 and V-D).
//!
//! `ALIGN` binds an array dimension's distribution to a loop's (or vice
//! versa): "the runtime makes copies of the ranges of the alignees as
//! the aligners' ranges. … For alignment in which multiple distributions
//! form an inter-dependent alignment relationship, the runtime re-links
//! those distributions so each aligner points to the root alignee's
//! distribution."
//!
//! Nodes are named distributable entities — the loop label (`loop1`) and
//! each array's distributed dimension (`x`, `uold`). Each node carries a
//! policy; `Align` edges are resolved transitively to a root whose policy
//! is concrete (BLOCK / AUTO / FULL). Cycles and dangling targets are
//! errors.

use homp_lang::DistPolicy;

/// How a node's distribution is decided: by its own concrete policy, or
/// by copying another node's (`ALIGN`).
#[derive(Debug, Clone, Copy)]
enum Link<'a> {
    Root(&'a DistPolicy),
    Align { target: &'a str, ratio: u64 },
}

/// Error building or resolving the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlignError {
    /// An `ALIGN` target names an entity that was never registered.
    UnknownTarget {
        /// The aligner.
        from: String,
        /// The missing alignee.
        target: String,
    },
    /// The alignment relation contains a cycle.
    Cycle(Vec<String>),
    /// The same entity was registered twice.
    Duplicate(String),
}

impl std::fmt::Display for AlignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlignError::UnknownTarget { from, target } => {
                write!(f, "`{from}` aligns with unknown entity `{target}`")
            }
            AlignError::Cycle(path) => write!(f, "alignment cycle: {}", path.join(" -> ")),
            AlignError::Duplicate(n) => write!(f, "entity `{n}` registered twice"),
        }
    }
}

impl std::error::Error for AlignError {}

/// The alignment graph for one offload region.
///
/// Nodes borrow their names and policies from the region, and a region
/// names only a handful of entities, so lookup is a linear scan and the
/// graph allocates one `Vec` — strings are built only for errors.
#[derive(Debug, Clone, Default)]
pub struct AlignGraph<'a> {
    nodes: Vec<(&'a str, Link<'a>)>,
}

impl<'a> AlignGraph<'a> {
    /// Empty graph with room for `n` entities.
    pub fn with_capacity(n: usize) -> Self {
        Self { nodes: Vec::with_capacity(n) }
    }

    /// Register an entity (loop label or array-dimension name) with its
    /// source-level policy.
    pub fn add(&mut self, name: &'a str, policy: &'a DistPolicy) -> Result<(), AlignError> {
        let link = match policy {
            DistPolicy::Align { target, ratio } => Link::Align { target, ratio: *ratio },
            root => Link::Root(root),
        };
        self.insert(name, link)
    }

    /// Register an entity that aligns with `target`, scaled by `ratio`.
    pub fn add_aligned(
        &mut self,
        name: &'a str,
        target: &'a str,
        ratio: u64,
    ) -> Result<(), AlignError> {
        self.insert(name, Link::Align { target, ratio })
    }

    fn insert(&mut self, name: &'a str, link: Link<'a>) -> Result<(), AlignError> {
        if self.link(name).is_some() {
            return Err(AlignError::Duplicate(name.to_string()));
        }
        self.nodes.push((name, link));
        Ok(())
    }

    fn link(&self, name: &str) -> Option<(&'a str, Link<'a>)> {
        self.nodes.iter().find(|(n, _)| *n == name).copied()
    }

    /// Resolve `name` to its root alignee, returning
    /// `(root name, accumulated ratio, root policy)`. The accumulated
    /// ratio is the product of the `ALIGN` ratios along the chain.
    pub fn resolve_root(&self, name: &str) -> Result<(&'a str, u64, &'a DistPolicy), AlignError> {
        let (mut from, mut current) = (name, name);
        let mut ratio = 1u64;
        // A chain without a cycle visits each node at most once.
        for _ in 0..=self.nodes.len() {
            let (found, link) = self.link(current).ok_or_else(|| AlignError::UnknownTarget {
                from: from.to_string(),
                target: current.to_string(),
            })?;
            match link {
                Link::Root(policy) => return Ok((found, ratio, policy)),
                Link::Align { target, ratio: r } => {
                    // Saturating: a cycle is walked n + 1 times before it
                    // is reported, and must not overflow on the way.
                    ratio = ratio.saturating_mul(r);
                    (from, current) = (current, target);
                }
            }
        }
        Err(AlignError::Cycle(self.cycle_path(name)))
    }

    /// The chain from `name` up to and including the first repeated
    /// entity. Only called once a cycle is known to exist.
    fn cycle_path(&self, name: &str) -> Vec<String> {
        let mut path = vec![name.to_string()];
        let mut current = name;
        while let Some((_, Link::Align { target, .. })) = self.link(current) {
            let repeat = path.iter().any(|p| p == target);
            path.push(target.to_string());
            if repeat {
                break;
            }
            current = target;
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn align(target: &str) -> DistPolicy {
        DistPolicy::Align { target: target.into(), ratio: 1 }
    }

    #[test]
    fn v1_style_loop_aligns_with_array() {
        // axpy_homp_v1: x,y are BLOCK; loop ALIGN(x).
        let mut g = AlignGraph::default();
        g.add("x", &DistPolicy::Block).unwrap();
        g.add("y", &DistPolicy::Block).unwrap();
        g.add_aligned("loop", "x", 1).unwrap();
        assert_eq!(g.resolve_root("loop").unwrap(), ("x", 1, &DistPolicy::Block));
        assert_eq!(g.resolve_root("y").unwrap(), ("y", 1, &DistPolicy::Block));
    }

    #[test]
    fn v2_style_arrays_align_with_loop() {
        // axpy_homp_v2: loop AUTO; x,y ALIGN(loop).
        let to_loop = align("loop");
        let mut g = AlignGraph::default();
        g.add("loop", &DistPolicy::Auto).unwrap();
        g.add("x", &to_loop).unwrap();
        g.add("y", &to_loop).unwrap();
        assert_eq!(g.resolve_root("x").unwrap(), ("loop", 1, &DistPolicy::Auto));
        assert_eq!(g.resolve_root("y").unwrap(), ("loop", 1, &DistPolicy::Auto));
    }

    #[test]
    fn chains_relink_to_root() {
        // y ALIGN(x), x ALIGN(loop), loop BLOCK — both resolve to loop.
        let (to_loop, to_x) = (align("loop"), align("x"));
        let mut g = AlignGraph::default();
        g.add("loop", &DistPolicy::Block).unwrap();
        g.add("x", &to_loop).unwrap();
        g.add("y", &to_x).unwrap();
        let (root, _, _) = g.resolve_root("y").unwrap();
        assert_eq!(root, "loop");
    }

    #[test]
    fn ratios_multiply_along_chain() {
        let mut g = AlignGraph::default();
        g.add("loop", &DistPolicy::Block).unwrap();
        g.add_aligned("x", "loop", 2).unwrap();
        g.add_aligned("y", "x", 3).unwrap();
        let (root, ratio, _) = g.resolve_root("y").unwrap();
        assert_eq!(root, "loop");
        assert_eq!(ratio, 6);
    }

    #[test]
    fn cycle_detected() {
        let (to_a, to_b) = (align("a"), align("b"));
        let mut g = AlignGraph::default();
        g.add("a", &to_b).unwrap();
        g.add("b", &to_a).unwrap();
        assert_eq!(
            g.resolve_root("a"),
            Err(AlignError::Cycle(vec!["a".into(), "b".into(), "a".into()]))
        );
    }

    #[test]
    fn self_alignment_is_a_cycle() {
        let mut g = AlignGraph::default();
        g.add_aligned("a", "a", 1).unwrap();
        assert_eq!(g.resolve_root("a"), Err(AlignError::Cycle(vec!["a".into(), "a".into()])));
    }

    #[test]
    fn unknown_target_reported() {
        let mut g = AlignGraph::default();
        g.add_aligned("loop", "x", 1).unwrap();
        g.add_aligned("x", "ghost", 1).unwrap();
        assert_eq!(
            g.resolve_root("loop"),
            Err(AlignError::UnknownTarget { from: "x".into(), target: "ghost".into() })
        );
    }

    #[test]
    fn duplicate_rejected() {
        let mut g = AlignGraph::default();
        g.add("x", &DistPolicy::Block).unwrap();
        assert_eq!(g.add("x", &DistPolicy::Full), Err(AlignError::Duplicate("x".into())));
    }
}
