//! Run-report assembly: per-engine measurement capture and aggregation,
//! shared by both machines so their reports cannot drift apart.

use splice_core::engine::Engine;
use splice_core::stats::ProcStats;

/// Everything one engine contributes to a run report, captured at (or
/// after) shutdown. The runtime's workers produce these across threads;
/// the simulator reads its engines in place.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineSnapshot {
    /// Protocol statistics.
    pub stats: ProcStats,
    /// Peak live checkpoint entries.
    pub ckpt_peak_entries: usize,
    /// Peak live checkpoint bytes.
    pub ckpt_peak_bytes: usize,
    /// Checkpoints ever stored.
    pub ckpt_stored: u64,
}

impl EngineSnapshot {
    /// Captures `engine`'s current measurements.
    pub fn of(engine: &Engine) -> EngineSnapshot {
        EngineSnapshot {
            stats: engine.stats().clone(),
            ckpt_peak_entries: engine.checkpoints().peak_entries(),
            ckpt_peak_bytes: engine.checkpoints().peak_bytes(),
            ckpt_stored: engine.checkpoints().stored_total(),
        }
    }
}

/// Aggregate of every engine's snapshot — the common core of both
/// machines' run reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineTotals {
    /// Sum of all processors' statistics.
    pub stats: ProcStats,
    /// Per-processor statistics, in processor order.
    pub per_proc: Vec<ProcStats>,
    /// Sum of per-processor checkpoint-entry peaks.
    pub ckpt_peak_entries: usize,
    /// Sum of per-processor checkpoint-byte peaks.
    pub ckpt_peak_bytes: usize,
    /// Total checkpoints ever stored.
    pub ckpt_stored: u64,
}

impl EngineTotals {
    /// Aggregates snapshots in processor order.
    pub fn collect<I: IntoIterator<Item = EngineSnapshot>>(snapshots: I) -> EngineTotals {
        let snapshots = snapshots.into_iter();
        let mut totals = EngineTotals {
            per_proc: Vec::with_capacity(snapshots.size_hint().0),
            ..EngineTotals::default()
        };
        for snap in snapshots {
            let stats = totals.add(snap);
            totals.per_proc.push(stats);
        }
        totals
    }

    /// Aggregates `n` processors of which only some have a snapshot,
    /// given as `(processor, snapshot)`. Every other processor is a fresh
    /// engine: its `per_proc` entry is the default and it adds nothing,
    /// so the result equals [`EngineTotals::collect`] over all `n` with
    /// default snapshots filled in, without summing the defaults.
    pub fn collect_built<I: IntoIterator<Item = (usize, EngineSnapshot)>>(
        n: usize,
        built: I,
    ) -> EngineTotals {
        let mut totals = EngineTotals {
            per_proc: vec![ProcStats::default(); n],
            ..EngineTotals::default()
        };
        for (p, snap) in built {
            totals.per_proc[p] = totals.add(snap);
        }
        totals
    }

    /// Adds `snap` to the sums and returns its statistics for `per_proc`.
    fn add(&mut self, snap: EngineSnapshot) -> ProcStats {
        self.stats += &snap.stats;
        self.ckpt_peak_entries += snap.ckpt_peak_entries;
        self.ckpt_peak_bytes += snap.ckpt_peak_bytes;
        self.ckpt_stored += snap.ckpt_stored;
        snap.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_across_snapshots() {
        let mut a = EngineSnapshot::default();
        a.stats.tasks_completed = 3;
        a.ckpt_peak_entries = 2;
        a.ckpt_stored = 5;
        let mut b = EngineSnapshot::default();
        b.stats.tasks_completed = 4;
        b.ckpt_peak_bytes = 7;
        let t = EngineTotals::collect([a, b]);
        assert_eq!(t.stats.tasks_completed, 7);
        assert_eq!(t.per_proc.len(), 2);
        assert_eq!(t.per_proc[1].tasks_completed, 4);
        assert_eq!(t.ckpt_peak_entries, 2);
        assert_eq!(t.ckpt_peak_bytes, 7);
        assert_eq!(t.ckpt_stored, 5);
    }

    /// The parallel reactor reports an engine it never built as the
    /// default snapshot; that is only sound while a fresh engine's
    /// snapshot is exactly the default.
    #[test]
    fn a_fresh_engine_snapshots_as_the_default() {
        use splice_applicative::Workload;
        use splice_core::config::Config;
        use splice_core::ids::ProcId;
        use splice_core::place::SelfPlacer;
        use std::sync::Arc;
        let here = ProcId(3);
        let fresh = Engine::new(
            here,
            Arc::new(Workload::fib(5).program),
            Config::default(),
            Box::new(SelfPlacer { here }),
        );
        assert_eq!(EngineSnapshot::of(&fresh), EngineSnapshot::default());
    }

    /// Summing only the built engines is summing every engine with the
    /// unbuilt ones at their default snapshot.
    #[test]
    fn summing_the_built_engines_equals_summing_every_engine() {
        let snap = |p: u64| {
            let mut s = EngineSnapshot::default();
            s.stats.tasks_completed = p;
            s.stats.waves_run = 2 * p + 1;
            s.ckpt_peak_entries = p as usize;
            s.ckpt_peak_bytes = 3 * p as usize;
            s.ckpt_stored = p + 5;
            s
        };
        let built = [1usize, 4, 5, 9];
        let every = EngineTotals::collect((0..12).map(|p| {
            if built.contains(&p) {
                snap(p as u64)
            } else {
                EngineSnapshot::default()
            }
        }));
        let sparse = EngineTotals::collect_built(12, built.map(|p| (p, snap(p as u64))));
        assert_eq!(sparse, every);
        assert_eq!(sparse.per_proc.len(), 12);
        assert_eq!(sparse.stats.tasks_completed, 19);
        assert_eq!(
            EngineTotals::collect_built(3, []),
            EngineTotals::collect(vec![EngineSnapshot::default(); 3])
        );
    }

    #[test]
    fn totals_reserve_from_the_size_hint() {
        let t = EngineTotals::collect((0..40).map(|_| EngineSnapshot::default()));
        assert_eq!(t.per_proc.len(), 40);
        // Grown by doubling from empty, 40 entries would end at 64.
        assert!(t.per_proc.capacity() < 64, "reserved from the hint");
    }
}
