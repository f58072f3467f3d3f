//! The collectives a tree plan runs, and which tree phases each traverses.
//!
//! Every consumer of that rule reads it here: the plan's cycle prediction
//! ([`crate::AllreducePlan::predicted_collective_cycles`]), the
//! simulator's engines (which streams carry flits), and the benchmark
//! tables (how many ring phases the host-based counterpart runs).

/// Which collective runs over the embedded trees.
///
/// The sharded-training pair decomposes an allreduce the way ZeRO/FSDP
/// decomposes a training step: [`Collective::ReduceScatter`] runs the
/// reduce-up phase and leaves each tree's reduced slice with its owner
/// shard (the tree root), [`Collective::Allgather`] broadcasts each
/// shard's already-reduced slice back down to every node. Composing the
/// two delivers exactly what one [`Collective::Allreduce`] delivers
/// (property-tested through the simulator's `SimReport::value_digest` in
/// `pf-simnet`'s `tests/collective_props.rs`; semantics in
/// `docs/COLLECTIVES.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Collective {
    /// Reduce up + broadcast down: every node gets the global reduction.
    Allreduce,
    /// Reduce up only: the tree roots get the global reduction.
    Reduce,
    /// Broadcast down only: the roots' own slices reach every node.
    Broadcast,
    /// Reduce up only, sharded delivery: each tree's slice of the global
    /// reduction ends at that tree's root — the shard that owns it. Same
    /// dataflow as [`Collective::Reduce`]; a distinct collective because
    /// it is priced, traced and scheduled as half of a sharded allreduce.
    ReduceScatter,
    /// Broadcast down of per-shard *reduced* contributions: each root
    /// injects its slice of the global reduction (the state a preceding
    /// reduce-scatter left it with) and every node receives it.
    Allgather,
}

impl Collective {
    /// Every collective the engines implement, in a stable order.
    pub const ALL: [Collective; 5] = [
        Collective::Allreduce,
        Collective::Reduce,
        Collective::Broadcast,
        Collective::ReduceScatter,
        Collective::Allgather,
    ];

    /// Does this collective run the reduce-up phase (reduction engines
    /// fire, child streams are combined toward the root)?
    #[must_use]
    pub fn reduces(self) -> bool {
        matches!(self, Collective::Allreduce | Collective::Reduce | Collective::ReduceScatter)
    }

    /// Does this collective run the broadcast-down phase (relays forward
    /// values from parent to children)?
    #[must_use]
    pub fn broadcasts(self) -> bool {
        matches!(self, Collective::Allreduce | Collective::Broadcast | Collective::Allgather)
    }

    /// How many times each tree's slice traverses its tree: 2 for the
    /// allreduce (reduce up, then broadcast down), 1 for every other
    /// collective.
    #[must_use]
    pub fn phases(self) -> u64 {
        u64::from(self.reduces()) + u64::from(self.broadcasts())
    }

    /// Does the tree root *originate* the down phase from local state
    /// (rather than turning the reduction around, as allreduce does)?
    #[must_use]
    pub fn root_sources_broadcast(self) -> bool {
        matches!(self, Collective::Broadcast | Collective::Allgather)
    }

    /// How many sinks each tree's slice is delivered to: every node, or
    /// only the root shard.
    #[must_use]
    pub fn sinks_per_tree(self, n: u64) -> u64 {
        if self.broadcasts() {
            n
        } else {
            1
        }
    }

    /// The stable snake_case name used by the `pf-simnet-trace-v1` schema
    /// (`collective` fields) and the bench tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Collective::Allreduce => "allreduce",
            Collective::Reduce => "reduce",
            Collective::Broadcast => "broadcast",
            Collective::ReduceScatter => "reduce_scatter",
            Collective::Allgather => "allgather",
        }
    }

    /// Inverse of [`Collective::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Collective> {
        Collective::ALL.into_iter().find(|k| k.name() == name)
    }
}
