//! The gradient model (Lin & Keller, "Gradient model: a demand-driven load
//! balancing scheme", ICDCS 1986 — the paper's reference [10]).
//!
//! Each node advertises a *proximity*: its estimated hop distance to the
//! nearest under-loaded ("demanding") node. A demanding node advertises 0;
//! any other node advertises `1 + min(neighbour proximities)`. Surplus
//! tasks flow down the proximity gradient, hop by hop, until they reach a
//! demanding node — placement is fully local and demand-driven, which is
//! exactly the property §3.3 of the recovery paper relies on: recovery
//! reissues are placed like any other task, with no linkage bookkeeping.

use splice_applicative::{FxHashMap, FxHashSet};
use splice_core::ids::ProcId;
use splice_core::packet::TaskPacket;
use splice_core::place::Placer;

/// Proximity advertised when no demanding node is known anywhere.
pub const UNKNOWN_PROXIMITY: u32 = u32::MAX / 2;

/// Gradient-model configuration.
#[derive(Clone, Copy, Debug)]
pub struct GradientConfig {
    /// A node with pressure `<= idle_threshold` is *demanding* (advertises
    /// proximity 0 and keeps arriving work).
    pub idle_threshold: u32,
    /// A node with pressure `<= keep_threshold` executes its own spawns
    /// locally instead of exporting them.
    pub keep_threshold: u32,
    /// Extra proximity charged to neighbours reached through the
    /// inter-shard router: demand across the boundary looks this many hops
    /// further away, so surplus prefers intra-shard flow and only crosses
    /// the router when the imbalance is worth the latency. Irrelevant on
    /// flat topologies (no neighbour is marked cross-shard).
    pub cross_shard_penalty: u32,
}

impl Default for GradientConfig {
    fn default() -> Self {
        GradientConfig {
            idle_threshold: 1,
            keep_threshold: 2,
            cross_shard_penalty: 1,
        }
    }
}

/// One processor's gradient-model placer.
#[derive(Debug)]
pub struct GradientPlacer {
    here: ProcId,
    neighbors: Vec<ProcId>,
    /// Neighbours reached through the inter-shard router (empty on flat
    /// topologies): their advertised proximity is inflated by
    /// `config.cross_shard_penalty`.
    cross_shard: FxHashSet<ProcId>,
    config: GradientConfig,
    local_pressure: u32,
    neighbor_proximity: FxHashMap<ProcId, u32>,
    tie_rotor: usize,
}

impl GradientPlacer {
    /// Creates a placer for `here` with its direct `neighbors`, all
    /// intra-shard.
    pub fn new(here: ProcId, neighbors: Vec<ProcId>, config: GradientConfig) -> GradientPlacer {
        GradientPlacer::sharded(here, neighbors, FxHashSet::default(), config)
    }

    /// Creates a placer for `here` whose neighbours in `cross_shard` sit on
    /// the far side of the inter-shard router.
    pub fn sharded(
        here: ProcId,
        neighbors: Vec<ProcId>,
        cross_shard: FxHashSet<ProcId>,
        config: GradientConfig,
    ) -> GradientPlacer {
        GradientPlacer {
            here,
            neighbors,
            cross_shard,
            config,
            local_pressure: 0,
            neighbor_proximity: FxHashMap::default(),
            tie_rotor: 0,
        }
    }

    /// Proximity of neighbour `n` as seen from here: its advertised value
    /// plus the router penalty when `n` is in another shard.
    fn neighbor_cost(&self, n: &ProcId) -> u32 {
        let advertised = *self.neighbor_proximity.get(n).unwrap_or(&UNKNOWN_PROXIMITY);
        if self.cross_shard.contains(n) {
            advertised.saturating_add(self.config.cross_shard_penalty)
        } else {
            advertised
        }
    }

    /// This node's current proximity estimate.
    pub fn proximity(&self) -> u32 {
        if self.local_pressure <= self.config.idle_threshold {
            return 0;
        }
        self.neighbors
            .iter()
            .filter(|n| self.neighbor_proximity.contains_key(n))
            .map(|n| self.neighbor_cost(n))
            .min()
            .map(|m| m.saturating_add(1))
            .unwrap_or(UNKNOWN_PROXIMITY)
    }

    /// The live neighbour with the smallest penalty-adjusted proximity;
    /// ties are rotated so repeated exports spread across equally good
    /// directions. One pass counts the ties, a second takes the
    /// `tie_rotor`-th of them, so placement allocates nothing.
    fn best_neighbor(&mut self, avoid: &FxHashSet<ProcId>) -> Option<ProcId> {
        let mut best = u32::MAX;
        let mut ties = 0;
        for n in self.neighbors.iter().filter(|n| !avoid.contains(n)) {
            let cost = self.neighbor_cost(n);
            if ties == 0 || cost < best {
                best = cost;
                ties = 1;
            } else if cost == best {
                ties += 1;
            }
        }
        if ties == 0 {
            return None;
        }
        let pick = self
            .neighbors
            .iter()
            .filter(|n| !avoid.contains(n) && self.neighbor_cost(n) == best)
            .nth(self.tie_rotor % ties)
            .copied();
        self.tie_rotor = self.tie_rotor.wrapping_add(1);
        pick
    }
}

impl Placer for GradientPlacer {
    fn place(&mut self, _packet: &TaskPacket, avoid: &FxHashSet<ProcId>) -> ProcId {
        if self.local_pressure <= self.config.keep_threshold {
            return self.here;
        }
        self.best_neighbor(avoid).unwrap_or(self.here)
    }

    fn route(&mut self, packet: &TaskPacket, avoid: &FxHashSet<ProcId>) -> Option<ProcId> {
        // Keep arriving work when demanding; otherwise push it further down
        // the gradient — but only if some neighbour actually looks closer to
        // demand than we are.
        if self.local_pressure <= self.config.keep_threshold || packet.hops == 0 {
            return None;
        }
        let my_proximity = self.proximity();
        let next = self.best_neighbor(avoid)?;
        let next_proximity = self.neighbor_cost(&next);
        if next_proximity < my_proximity {
            Some(next)
        } else {
            None
        }
    }

    fn on_load(&mut self, from: ProcId, pressure: u32) {
        // Beacons carry proximities, not raw queue lengths.
        self.neighbor_proximity.insert(from, pressure);
    }

    fn set_local_pressure(&mut self, pressure: u32) {
        self.local_pressure = pressure;
    }

    fn beacon_targets(&self) -> Vec<ProcId> {
        self.neighbors.clone()
    }

    fn beacon_value(&self, _local_pressure: u32) -> u32 {
        self.proximity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_applicative::wave::Demand;
    use splice_applicative::{FnId, Value};
    use splice_core::ids::{TaskAddr, TaskKey};
    use splice_core::packet::TaskLink;
    use splice_core::stamp::LevelStamp;

    fn pkt(hops: u32) -> TaskPacket {
        TaskPacket {
            stamp: LevelStamp::from_digits(&[1]),
            demand: Demand::new(FnId(0), vec![Value::Int(1)]),
            parent: TaskLink::new(TaskAddr::new(ProcId(0), TaskKey(0)), LevelStamp::root()),
            ancestors: vec![],
            incarnation: 0,
            hops,
            replica: None,
            under_replica: false,
        }
    }

    fn placer() -> GradientPlacer {
        GradientPlacer::new(
            ProcId(0),
            vec![ProcId(1), ProcId(2)],
            GradientConfig::default(),
        )
    }

    #[test]
    fn idle_node_advertises_zero() {
        let mut p = placer();
        p.set_local_pressure(0);
        assert_eq!(p.proximity(), 0);
        assert_eq!(p.beacon_value(0), 0);
    }

    #[test]
    fn busy_node_is_one_past_best_neighbor() {
        let mut p = placer();
        p.set_local_pressure(10);
        assert_eq!(p.proximity(), UNKNOWN_PROXIMITY, "no beacons yet");
        p.on_load(ProcId(1), 3);
        p.on_load(ProcId(2), 0);
        assert_eq!(p.proximity(), 1);
    }

    #[test]
    fn low_pressure_keeps_tasks_local() {
        let mut p = placer();
        p.set_local_pressure(1);
        assert_eq!(p.place(&pkt(0), &FxHashSet::default()), ProcId(0));
        assert_eq!(p.route(&pkt(3), &FxHashSet::default()), None);
    }

    #[test]
    fn surplus_flows_toward_demand() {
        let mut p = placer();
        p.set_local_pressure(10);
        p.on_load(ProcId(1), 4);
        p.on_load(ProcId(2), 0);
        assert_eq!(p.place(&pkt(0), &FxHashSet::default()), ProcId(2));
        // Routing forwards too, because neighbour 2 is strictly closer to
        // demand than we are.
        assert_eq!(p.route(&pkt(1), &FxHashSet::default()), Some(ProcId(2)));
    }

    #[test]
    fn dead_neighbors_are_avoided() {
        let mut p = placer();
        p.set_local_pressure(10);
        p.on_load(ProcId(1), 4);
        p.on_load(ProcId(2), 0);
        let dead: FxHashSet<ProcId> = [ProcId(2)].into_iter().collect();
        assert_eq!(p.place(&pkt(0), &dead), ProcId(1));
    }

    #[test]
    fn ties_rotate() {
        let mut p = placer();
        p.set_local_pressure(10);
        p.on_load(ProcId(1), 2);
        p.on_load(ProcId(2), 2);
        let a = p.place(&pkt(0), &FxHashSet::default());
        let b = p.place(&pkt(0), &FxHashSet::default());
        assert_ne!(a, b, "equal-proximity neighbours share the surplus");
    }

    #[test]
    fn ties_rotate_in_neighbor_order_past_avoided_ones() {
        let mut p = GradientPlacer::new(
            ProcId(0),
            vec![ProcId(1), ProcId(2), ProcId(3)],
            GradientConfig::default(),
        );
        p.set_local_pressure(10);
        for n in 1..=3 {
            p.on_load(ProcId(n), 2);
        }
        let dead: FxHashSet<ProcId> = [ProcId(2)].into_iter().collect();
        let picks: Vec<ProcId> = (0..5).map(|_| p.place(&pkt(0), &dead)).collect();
        assert_eq!(
            picks,
            [ProcId(1), ProcId(3), ProcId(1), ProcId(3), ProcId(1)],
            "each export takes the next live tie, in neighbour order"
        );
    }

    #[test]
    fn cross_shard_neighbors_lose_ties_to_local_ones() {
        let cross: FxHashSet<ProcId> = [ProcId(2)].into_iter().collect();
        let mut p = GradientPlacer::sharded(
            ProcId(0),
            vec![ProcId(1), ProcId(2)],
            cross,
            GradientConfig::default(),
        );
        p.set_local_pressure(10);
        p.on_load(ProcId(1), 2);
        p.on_load(ProcId(2), 2);
        // Equal advertisements, but 2 sits behind the router: the penalty
        // breaks the tie toward the intra-shard neighbour, repeatedly.
        assert_eq!(p.place(&pkt(0), &FxHashSet::default()), ProcId(1));
        assert_eq!(p.place(&pkt(0), &FxHashSet::default()), ProcId(1));
    }

    #[test]
    fn strong_cross_shard_demand_still_wins() {
        let cross: FxHashSet<ProcId> = [ProcId(2)].into_iter().collect();
        let mut p = GradientPlacer::sharded(
            ProcId(0),
            vec![ProcId(1), ProcId(2)],
            cross,
            GradientConfig::default(),
        );
        p.set_local_pressure(10);
        p.on_load(ProcId(1), 4);
        p.on_load(ProcId(2), 0);
        // 0 + penalty(1) still beats 4: real imbalance crosses the router.
        assert_eq!(p.place(&pkt(0), &FxHashSet::default()), ProcId(2));
        // And the penalty feeds the advertised proximity: 1 + (0+1).
        assert_eq!(p.proximity(), 2);
    }

    #[test]
    fn penalty_redirects_routing_into_the_local_shard() {
        let cross: FxHashSet<ProcId> = [ProcId(2)].into_iter().collect();
        let mut p = GradientPlacer::sharded(
            ProcId(0),
            vec![ProcId(1), ProcId(2)],
            cross,
            GradientConfig {
                cross_shard_penalty: 3,
                ..GradientConfig::default()
            },
        );
        p.set_local_pressure(10);
        p.on_load(ProcId(1), 3);
        p.on_load(ProcId(2), 1);
        // Raw demand is across the router (1 < 3), but 1+3 ≥ 3: the
        // surplus stays in the shard.
        assert_eq!(p.route(&pkt(1), &FxHashSet::default()), Some(ProcId(1)));
    }

    #[test]
    fn fresh_spawns_are_never_bounced_by_route() {
        // hops == 0 means the sender just placed it here on purpose.
        let mut p = placer();
        p.set_local_pressure(50);
        p.on_load(ProcId(1), 0);
        assert_eq!(p.route(&pkt(0), &FxHashSet::default()), None);
    }

    #[test]
    fn beacon_targets_are_neighbors() {
        let p = placer();
        assert_eq!(p.beacon_targets(), vec![ProcId(1), ProcId(2)]);
    }
}
