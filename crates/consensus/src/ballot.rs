//! Ballots and log slots: the total orders Paxos is built on.

use std::fmt;

/// Index of a consensus node within its ensemble.
///
/// Consensus nodes are co-located with the replicas of a partition, one per
/// site; the runtime maps each node to its [`udr_model::ids::SiteId`] when
/// routing messages across the simulated backbone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A Paxos ballot: `(round, proposing node)`, totally ordered.
///
/// The node component breaks ties so two nodes campaigning in the same
/// round cannot both win; the round component lets a campaigner outbid any
/// ballot it has seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ballot {
    /// Monotonically increasing campaign round.
    pub round: u64,
    /// The node that owns (proposes under) this ballot.
    pub node: NodeId,
}

impl Ballot {
    /// The ballot below every real ballot; acceptors start promised to it.
    pub const ZERO: Ballot = Ballot {
        round: 0,
        node: NodeId(0),
    };

    /// A ballot in `round` owned by `node`.
    pub const fn new(round: u64, node: NodeId) -> Self {
        Ballot { round, node }
    }

    /// The smallest ballot owned by `node` that beats `self`.
    pub fn succeed(self, node: NodeId) -> Ballot {
        Ballot {
            round: self.round + 1,
            node,
        }
    }
}

impl fmt::Display for Ballot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}.{}", self.round, self.node.0)
    }
}

/// A position in the replicated log. Slot 1 is the first command; slot 0 is
/// the "nothing chosen yet" sentinel used for watermarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Slot(pub u64);

impl Slot {
    /// The watermark before any chosen command.
    pub const ZERO: Slot = Slot(0);

    /// The next slot in sequence.
    #[inline]
    pub const fn next(self) -> Slot {
        Slot(self.0 + 1)
    }

    /// Raw value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ballots_order_by_round_then_node() {
        let a = Ballot::new(1, NodeId(2));
        let b = Ballot::new(2, NodeId(0));
        let c = Ballot::new(2, NodeId(1));
        assert!(a < b);
        assert!(b < c);
        assert!(Ballot::ZERO < a);
    }

    #[test]
    fn succeed_always_beats() {
        let seen = Ballot::new(7, NodeId(4));
        let mine = seen.succeed(NodeId(0));
        assert!(mine > seen, "{mine} must beat {seen}");
        assert_eq!(mine.round, 8);
        assert_eq!(mine.node, NodeId(0));
    }

    #[test]
    fn slot_sequence() {
        assert_eq!(Slot::ZERO.next(), Slot(1));
        assert_eq!(Slot(9).next().raw(), 10);
        assert!(Slot(1) < Slot(2));
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(Ballot::new(5, NodeId(1)).to_string(), "b5.1");
        assert_eq!(Slot(12).to_string(), "s12");
    }
}
