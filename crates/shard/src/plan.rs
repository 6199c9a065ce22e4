//! Domain decomposition: contiguous block split of the outermost axis.
//!
//! The planner splits the *outermost* axis of a 1D/2D/3D iteration space
//! into near-equal contiguous blocks, one per simulated device. Apps map
//! the split to their own layout through a "slab": everything at one index
//! of the split axis (an `n × n` plane of a 3D field, one `Q × s` lattice
//! row of the D2Q9 LBM, one tile of CG sites). The declared stencil
//! `radius` is the halo width in slabs: every shard needs the `radius`
//! slabs on each side of its owned range, refreshed each step by the
//! runner's halo exchange.

/// How the split axis behaves at the global ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// No wraparound: the first and last shard have one-sided halos and
    /// the app's own boundary condition handles the global edges.
    #[default]
    Open,
    /// The axis wraps: every shard has two neighbors (possibly itself when
    /// only one shard exists).
    Periodic,
}

/// One shard of the decomposition: a contiguous owned range of the split
/// axis, plus the halo geometry derived from the stencil radius.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Shard index in `0..count`.
    pub index: usize,
    /// Number of shards in this epoch's plan.
    pub count: usize,
    /// First owned slab (global index).
    pub lo: usize,
    /// One past the last owned slab (global index).
    pub hi: usize,
    /// Halo width in slabs.
    pub radius: usize,
    /// Global extent of the split axis.
    pub extent: usize,
    /// End behavior of the split axis.
    pub topology: Topology,
}

impl Shard {
    /// Owned slabs.
    pub fn owned(&self) -> usize {
        self.hi - self.lo
    }

    /// The shard index of the lower neighbor, if any.
    pub fn lo_neighbor(&self) -> Option<usize> {
        match self.topology {
            Topology::Open => (self.index > 0).then(|| self.index - 1),
            Topology::Periodic => Some((self.index + self.count - 1) % self.count),
        }
    }

    /// The shard index of the upper neighbor, if any.
    pub fn hi_neighbor(&self) -> Option<usize> {
        match self.topology {
            Topology::Open => (self.index + 1 < self.count).then_some(self.index + 1),
            Topology::Periodic => Some((self.index + 1) % self.count),
        }
    }

    /// Ghost slabs below the owned range (`radius` when a lower neighbor
    /// exists, else 0).
    pub fn ghosts_lo(&self) -> usize {
        if self.lo_neighbor().is_some() {
            self.radius
        } else {
            0
        }
    }

    /// Ghost slabs above the owned range.
    pub fn ghosts_hi(&self) -> usize {
        if self.hi_neighbor().is_some() {
            self.radius
        } else {
            0
        }
    }

    /// Local slab count including ghosts.
    pub fn local_extent(&self) -> usize {
        self.owned() + self.ghosts_lo() + self.ghosts_hi()
    }

    /// The local index of the first *owned* slab (ghosts come first).
    pub fn owned_start(&self) -> usize {
        self.ghosts_lo()
    }

    /// Map a local slab index (ghosts included) to its global slab index.
    pub fn global_of(&self, local: usize) -> usize {
        debug_assert!(local < self.local_extent());
        let signed = self.lo as isize + local as isize - self.ghosts_lo() as isize;
        match self.topology {
            Topology::Open => {
                debug_assert!(signed >= 0 && (signed as usize) < self.extent);
                signed as usize
            }
            Topology::Periodic => signed.rem_euclid(self.extent as isize) as usize,
        }
    }
}

/// The full decomposition for one epoch: `shards[i]` covers a contiguous
/// block, and the blocks tile `0..extent` exactly, in index order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shards: Vec<Shard>,
}

impl ShardPlan {
    /// Split `extent` slabs over `count` shards with near-equal contiguous
    /// blocks: each owns `extent / count` slabs, and the first
    /// `extent % count` shards one more. Panics if any shard would own
    /// fewer slabs than the halo radius — clamp `count` with
    /// [`ShardPlan::max_count`] first.
    pub fn split(extent: usize, count: usize, radius: usize, topology: Topology) -> ShardPlan {
        assert!(count >= 1, "at least one shard");
        assert!(extent >= count, "more shards than slabs");
        let base = extent / count;
        let rem = extent % count;
        assert!(
            count == 1 || base >= radius.max(1),
            "shards must own at least the halo radius ({base} < {radius})"
        );
        let shards = (0..count)
            .map(|i| {
                let lo = i * base + i.min(rem);
                let hi = lo + base + usize::from(i < rem);
                Shard {
                    index: i,
                    count,
                    lo,
                    hi,
                    radius,
                    extent,
                    topology,
                }
            })
            .collect();
        ShardPlan { shards }
    }

    /// The largest shard count for which every shard still owns at least
    /// `radius` slabs (so halos only ever come from immediate neighbors).
    pub fn max_count(extent: usize, radius: usize) -> usize {
        (extent / radius.max(1)).max(1)
    }

    /// All shards, in index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of shards.
    pub fn count(&self) -> usize {
        self.shards.len()
    }

    /// The shard at `index`.
    pub fn shard(&self, index: usize) -> Shard {
        self.shards[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_tile_the_extent_exactly() {
        for extent in [7usize, 16, 48, 97] {
            for count in 1..=extent.min(9) {
                let plan = ShardPlan::split(extent, count, 1, Topology::Open);
                assert_eq!(plan.count(), count);
                let mut next = 0;
                for (i, s) in plan.shards().iter().enumerate() {
                    assert_eq!(s.index, i);
                    assert_eq!(s.lo, next, "contiguous blocks");
                    assert!(s.owned() >= 1);
                    next = s.hi;
                }
                assert_eq!(next, extent, "blocks cover the axis");
                // Near-equal: sizes differ by at most one slab.
                let sizes: Vec<usize> = plan.shards().iter().map(|s| s.owned()).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn open_topology_has_one_sided_edges() {
        let plan = ShardPlan::split(12, 3, 1, Topology::Open);
        let first = plan.shard(0);
        let mid = plan.shard(1);
        let last = plan.shard(2);
        assert_eq!(first.lo_neighbor(), None);
        assert_eq!(first.hi_neighbor(), Some(1));
        assert_eq!(first.ghosts_lo(), 0);
        assert_eq!(first.ghosts_hi(), 1);
        assert_eq!(mid.local_extent(), 4 + 2);
        assert_eq!(mid.owned_start(), 1);
        assert_eq!(last.hi_neighbor(), None);
        // Local-to-global mapping skips the ghost offset.
        assert_eq!(mid.global_of(0), 3); // lower ghost = neighbor's last slab
        assert_eq!(mid.global_of(1), 4); // first owned
        assert_eq!(mid.global_of(5), 8); // upper ghost
    }

    #[test]
    fn periodic_topology_wraps_neighbors_and_globals() {
        let plan = ShardPlan::split(12, 3, 1, Topology::Periodic);
        let first = plan.shard(0);
        let last = plan.shard(2);
        assert_eq!(first.lo_neighbor(), Some(2));
        assert_eq!(last.hi_neighbor(), Some(0));
        assert_eq!(first.ghosts_lo(), 1);
        assert_eq!(first.global_of(0), 11, "lower ghost wraps to the end");
        assert_eq!(
            last.global_of(last.local_extent() - 1),
            0,
            "upper ghost wraps to the start"
        );
    }

    #[test]
    fn single_shard_owns_everything_without_ghosts_when_open() {
        let plan = ShardPlan::split(10, 1, 2, Topology::Open);
        let s = plan.shard(0);
        assert_eq!((s.lo, s.hi), (0, 10));
        assert_eq!(s.local_extent(), 10);
        assert_eq!(s.owned_start(), 0);
        assert_eq!(s.lo_neighbor(), None);
    }

    #[test]
    fn max_count_guards_the_radius_invariant() {
        assert_eq!(ShardPlan::max_count(48, 1), 48);
        assert_eq!(ShardPlan::max_count(48, 2), 24);
        assert_eq!(
            ShardPlan::max_count(3, 4),
            1,
            "radius larger than extent: single shard only"
        );
        assert_eq!(ShardPlan::max_count(5, 0), 5);
        // Splitting at the cap keeps every shard's owned >= radius.
        let plan = ShardPlan::split(9, ShardPlan::max_count(9, 2).min(4), 2, Topology::Open);
        assert!(plan.shards().iter().all(|s| s.owned() >= 2));
    }

    #[test]
    #[should_panic(expected = "at least the halo radius")]
    fn undersized_shards_are_rejected() {
        ShardPlan::split(8, 8, 2, Topology::Open);
    }
}
