//! Comparison baselines: whole-program restart and periodic global
//! checkpointing.
//!
//! §2 of the paper positions functional checkpointing against the classical
//! alternatives: restarting the program, and the periodic *global*
//! checkpoint schemes of Barigazzi & Strigini [3], Fischer et al. [5] and
//! Tamir & Séquin [15] ("virtually stop all computational operations while
//! periodic global checkpointing takes place").
//!
//! We model both analytically over *measured* fault-free runs of the same
//! machine rather than re-implementing a second full protocol stack: the
//! simulator records the live-state timeline `state_samples`, and the
//! models below charge
//!
//! * restart: on a fault at time `t`, all progress is lost; total time is
//!   `t + T` (and the work is re-done);
//! * periodic global checkpointing with interval `I`: every `I` ticks all
//!   processors synchronize and snapshot, pausing for
//!   `sync + per_task · live_tasks(t)`; a fault at `t` rolls back to the
//!   last completed snapshot.
//!
//! This keeps the comparison honest (same workload, same machine, same
//! cost units) while acknowledging that the baselines are models, not
//! protocol implementations.

use crate::report::RunReport;

/// Cost parameters of the periodic global checkpoint model.
#[derive(Clone, Copy, Debug)]
pub struct GlobalCheckpointModel {
    /// Checkpoint interval (virtual ticks).
    pub interval: u64,
    /// Fixed global synchronization cost per checkpoint ("periodic global
    /// synchronization among a large number of processors is potentially
    /// inefficient").
    pub sync_cost: u64,
    /// Snapshot cost per live task at the checkpoint instant.
    pub per_task_cost: u64,
}

impl GlobalCheckpointModel {
    /// A default model: moderate interval, sync cost comparable to a few
    /// message round-trips.
    pub fn with_interval(interval: u64) -> GlobalCheckpointModel {
        GlobalCheckpointModel {
            interval,
            sync_cost: 200,
            per_task_cost: 4,
        }
    }

    /// Live tasks at time `t` according to the run's samples (step
    /// interpolation).
    fn live_tasks_at(&self, run: &RunReport, t: u64) -> u64 {
        let mut last = 0;
        for (st, tasks) in &run.state_samples {
            if *st > t {
                break;
            }
            last = *tasks;
        }
        last
    }

    /// Fault-free completion time under this model: the measured time plus
    /// one pause per completed interval.
    pub fn fault_free_time(&self, fault_free: &RunReport) -> u64 {
        let t = fault_free.finish.ticks();
        let checkpoints = t / self.interval;
        let mut total = t;
        for i in 1..=checkpoints {
            total += self.sync_cost
                + self.per_task_cost * self.live_tasks_at(fault_free, i * self.interval);
        }
        total
    }

    /// Total checkpoint pause time in a fault-free run (the scheme's
    /// overhead, compared in experiment E8).
    pub fn overhead(&self, fault_free: &RunReport) -> u64 {
        self.fault_free_time(fault_free) - fault_free.finish.ticks()
    }

    /// Completion time when a single fault hits at `t_fault` (in original,
    /// pause-free time units): progress rolls back to the last completed
    /// snapshot, then the remainder re-runs (E7).
    pub fn time_with_fault(&self, fault_free: &RunReport, t_fault: u64) -> u64 {
        let t_total = fault_free.finish.ticks();
        let t_fault = t_fault.min(t_total);
        let last_snapshot = (t_fault / self.interval) * self.interval;
        // Time spent until the fault, plus redo from the snapshot point.
        let redo = t_total - last_snapshot;
        let base = t_fault + redo;
        // Pauses: every interval boundary crossed while computing.
        let computed_ticks = base;
        let checkpoints = computed_ticks / self.interval;
        let mut total = base;
        for i in 1..=checkpoints {
            let sample_at = (i * self.interval).min(t_total);
            total +=
                self.sync_cost + self.per_task_cost * self.live_tasks_at(fault_free, sample_at);
        }
        total
    }
}

/// Whole-program restart: completion time with a single fault at `t_fault`.
pub fn restart_time_with_fault(fault_free: &RunReport, t_fault: u64) -> u64 {
    let t_total = fault_free.finish.ticks();
    t_fault.min(t_total) + t_total
}

/// Work re-executed under restart for a fault at `t_fault`, as a fraction
/// of total work (assumes work accrues roughly uniformly over time).
pub fn restart_redundant_fraction(fault_free: &RunReport, t_fault: u64) -> f64 {
    let t_total = fault_free.finish.ticks().max(1);
    (t_fault.min(t_total)) as f64 / t_total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_core::stats::ProcStats;
    use splice_simnet::time::VirtualTime;

    fn fake_run(finish: u64, samples: Vec<(u64, u64)>) -> RunReport {
        RunReport {
            result: None,
            completed: true,
            stalled: false,
            finish: VirtualTime(finish),
            events: 0,
            delivered: 0,
            dropped_to_dead: 0,
            bounces: 0,
            stats: ProcStats::default(),
            per_proc: vec![],
            ckpt_peak_entries: 0,
            ckpt_peak_bytes: 0,
            ckpt_stored: 0,
            root_reissues: 0,
            root_failovers: 0,
            root_replicas: 1,
            state_samples: samples,
            spawn_log: vec![],
            n_procs: 4,
            shards: 1,
            shard_msgs_intra: 0,
            shard_msgs_inter: 0,
            batch_envelopes: 0,
            batch_msgs: 0,
            faults: 0,
            threads: 1,
            msgs_cross_reactor: 0,
            steals: 0,
            frames_sent: 0,
            frames_resent: 0,
            reconnects: 0,
            decode_errors: 0,
            trace: splice_simnet::trace::TraceSummary::default(),
            policy: splice_core::policy::PolicyKind::Eager,
        }
    }

    #[test]
    fn global_checkpoint_overhead_grows_with_frequency() {
        let run = fake_run(10_000, vec![(0, 10), (5_000, 20), (9_000, 5)]);
        let frequent = GlobalCheckpointModel::with_interval(500);
        let rare = GlobalCheckpointModel::with_interval(5_000);
        assert!(frequent.overhead(&run) > rare.overhead(&run));
        assert!(rare.overhead(&run) > 0);
    }

    #[test]
    fn fault_rolls_back_to_last_snapshot() {
        let run = fake_run(10_000, vec![(0, 10)]);
        let m = GlobalCheckpointModel::with_interval(2_000);
        // Fault at 5000: snapshot at 4000, redo 6000 → base 11000.
        let with_fault = m.time_with_fault(&run, 5_000);
        let fault_free = m.fault_free_time(&run);
        assert!(with_fault > fault_free);
        // A fault just after a snapshot costs less than one just before
        // the next snapshot (less progress is lost).
        assert!(m.time_with_fault(&run, 4_100) < m.time_with_fault(&run, 5_900));
    }

    #[test]
    fn restart_doubles_late_fault_cost() {
        let run = fake_run(10_000, vec![]);
        assert_eq!(restart_time_with_fault(&run, 9_999), 19_999);
        assert_eq!(restart_time_with_fault(&run, 0), 10_000);
        assert!((restart_redundant_fraction(&run, 5_000) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn live_tasks_interpolation_is_stepwise() {
        let run = fake_run(10_000, vec![(0, 1), (100, 7), (200, 3)]);
        let m = GlobalCheckpointModel::with_interval(1000);
        assert_eq!(m.live_tasks_at(&run, 50), 1);
        assert_eq!(m.live_tasks_at(&run, 150), 7);
        assert_eq!(m.live_tasks_at(&run, 250), 3);
    }
}
