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
#[derive(Clone, Debug, Default)]
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
            totals.stats += &snap.stats;
            totals.per_proc.push(snap.stats);
            totals.ckpt_peak_entries += snap.ckpt_peak_entries;
            totals.ckpt_peak_bytes += snap.ckpt_peak_bytes;
            totals.ckpt_stored += snap.ckpt_stored;
        }
        totals
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

    #[test]
    fn totals_reserve_from_the_size_hint() {
        let t = EngineTotals::collect((0..40).map(|_| EngineSnapshot::default()));
        assert_eq!(t.per_proc.len(), 40);
        // Grown by doubling from empty, 40 entries would end at 64.
        assert!(t.per_proc.capacity() < 64, "reserved from the hint");
    }
}
