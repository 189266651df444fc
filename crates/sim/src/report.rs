//! Run reports: everything a single simulation tells the experiments.

use splice_applicative::Value;
use splice_core::policy::PolicyKind;
use splice_core::stats::ProcStats;
use splice_harness::{EngineTotals, SuperRootDriver};
use splice_simnet::time::VirtualTime;
use splice_simnet::trace::TraceSummary;
use std::fmt;

/// The outcome and measurements of one simulated run.
///
/// Derives `PartialEq` so record→replay verification can assert the whole
/// report reproduced bit-identically, field for field.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// The program's answer, if the run completed.
    pub result: Option<Value>,
    /// True when the super-root observed the root result within budget.
    pub completed: bool,
    /// True when the run quiesced without a result: every processor dead,
    /// or nothing left but sampling and no runnable work. Distinct from a
    /// budget trip (`completed == false && stalled == false`), which means
    /// the machine was still making progress when `max_events`/`max_time`
    /// cut it off.
    pub stalled: bool,
    /// Completion time (or the time the budget tripped).
    pub finish: VirtualTime,
    /// Events processed.
    pub events: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages silently dropped at dead destinations.
    pub dropped_to_dead: u64,
    /// Send attempts bounced back to their (live) senders.
    pub bounces: u64,
    /// Aggregate engine statistics.
    pub stats: ProcStats,
    /// Per-processor engine statistics.
    pub per_proc: Vec<ProcStats>,
    /// Sum of per-processor checkpoint-entry peaks.
    pub ckpt_peak_entries: usize,
    /// Sum of per-processor checkpoint-byte peaks.
    pub ckpt_peak_bytes: usize,
    /// Total checkpoints ever stored.
    pub ckpt_stored: u64,
    /// Times the super-root reissued the root program.
    pub root_reissues: u64,
    /// Times a super-root successor took over from a crashed acting
    /// primary (0 unless the fault plan crashed root replicas).
    pub root_failovers: u64,
    /// Super-root replica count the run was configured with.
    pub root_replicas: u32,
    /// `(time, live task count)` samples for baseline modelling.
    pub state_samples: Vec<(u64, u64)>,
    /// Placement log `(time, stamp, proc)`, when enabled.
    pub spawn_log: Vec<(
        u64,
        splice_core::stamp::LevelStamp,
        splice_core::ids::ProcId,
    )>,
    /// Processor count.
    pub n_procs: u32,
    /// Shard count (1 on flat topologies).
    pub shards: u32,
    /// Worker messages that stayed inside one shard (all of them on flat
    /// topologies).
    pub shard_msgs_intra: u64,
    /// Worker messages that crossed the inter-shard router.
    pub shard_msgs_inter: u64,
    /// Envelopes the batching bus delivered (0 with batching off).
    pub batch_envelopes: u64,
    /// Worker messages that travelled through the batching bus.
    pub batch_msgs: u64,
    /// Number of injected faults.
    pub faults: usize,
    /// OS threads the backend executed on: 1 for the DES and the reactor
    /// (one pump, whatever `MachineConfig::threads` asks), the
    /// shard-process count on the process backend.
    pub threads: u32,
    /// Inert: always 0 (the reactor has one pump, so no message crosses
    /// pumps). Kept only because the repo benchmark (`perfbench/`) reads
    /// it.
    pub msgs_cross_reactor: u64,
    /// Inert: always 0 (one pump, nothing to steal). Kept only because the
    /// repo benchmark (`perfbench/`) reads it.
    pub steals: u64,
    /// Wire frames the multi-process backend wrote to sockets (0 on
    /// in-process backends).
    pub frames_sent: u64,
    /// Wire frames written again after a connection broke mid-flush.
    pub frames_resent: u64,
    /// Connection attempts made after a previously working (or tried)
    /// link broke — every retry counts, whether or not it succeeded.
    pub reconnects: u64,
    /// Inbound frames rejected by the wire codec (bad length, checksum,
    /// version or structure); each one also drops its connection.
    pub decode_errors: u64,
    /// Canonical-trace fingerprint: event/drop counts plus the stream and
    /// semantic checksums (all zero with tracing off). The `dropped` field
    /// surfaces ring-buffer evictions that were previously lost silently.
    pub trace: TraceSummary,
    /// Recovery policy the run's engines were configured with.
    pub policy: PolicyKind,
}

/// What a backend's own run loop measured: the part of a [`RunReport`]
/// that is read off neither the engines nor the super-root.
pub(crate) struct RunCounters {
    /// When the super-root observed the result, if it did.
    pub finish: Option<VirtualTime>,
    /// The clock when the run loop exited.
    pub end: VirtualTime,
    pub stalled: bool,
    pub events: u64,
    pub delivered: u64,
    pub dropped_to_dead: u64,
    pub bounces: u64,
    pub shards: u32,
    pub shard_msgs_intra: u64,
    pub shard_msgs_inter: u64,
    pub faults: usize,
    pub threads: u32,
    pub trace: TraceSummary,
}

impl RunReport {
    /// The one place a report is put together: the run loop's `counters`,
    /// the engines' `totals` and the super-root's outcome. Counters only
    /// one backend owns (sampling, batching, pump and wire traffic) start
    /// at zero; that backend sets them on the returned report.
    pub(crate) fn assemble(
        counters: RunCounters,
        totals: EngineTotals,
        superroot: &SuperRootDriver,
    ) -> RunReport {
        RunReport {
            result: superroot.result().cloned(),
            completed: counters.finish.is_some(),
            stalled: counters.stalled,
            finish: counters.finish.unwrap_or(counters.end),
            events: counters.events,
            delivered: counters.delivered,
            dropped_to_dead: counters.dropped_to_dead,
            bounces: counters.bounces,
            n_procs: totals.per_proc.len() as u32,
            stats: totals.stats,
            per_proc: totals.per_proc,
            ckpt_peak_entries: totals.ckpt_peak_entries,
            ckpt_peak_bytes: totals.ckpt_peak_bytes,
            ckpt_stored: totals.ckpt_stored,
            root_reissues: superroot.reissues(),
            root_failovers: superroot.failovers(),
            root_replicas: superroot.replicas(),
            state_samples: Vec::new(),
            spawn_log: Vec::new(),
            shards: counters.shards,
            shard_msgs_intra: counters.shard_msgs_intra,
            shard_msgs_inter: counters.shard_msgs_inter,
            batch_envelopes: 0,
            batch_msgs: 0,
            faults: counters.faults,
            threads: counters.threads,
            msgs_cross_reactor: 0,
            steals: 0,
            frames_sent: 0,
            frames_resent: 0,
            reconnects: 0,
            decode_errors: 0,
            trace: counters.trace,
            policy: superroot.policy().kind,
        }
    }

    /// Total work units executed (including redone and garbage work).
    pub fn total_work(&self) -> u64 {
        self.stats.work_units
    }

    /// Tasks executed to completion, across processors.
    pub fn tasks_completed(&self) -> u64 {
        self.stats.tasks_completed
    }

    /// Work imbalance across *surviving* processors: max/mean of per-proc
    /// work units (1.0 = perfectly balanced). Processors that did nothing
    /// count toward the mean.
    pub fn work_imbalance(&self) -> f64 {
        let works: Vec<u64> = self.per_proc.iter().map(|p| p.work_units).collect();
        if works.is_empty() {
            return 1.0;
        }
        let max = *works.iter().max().unwrap() as f64;
        let mean = works.iter().sum::<u64>() as f64 / works.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Redundant-work ratio versus a fault-free baseline report: how much
    /// extra work this run performed, as a fraction of baseline work.
    pub fn redundant_work_vs(&self, baseline: &RunReport) -> f64 {
        let base = baseline.total_work().max(1) as f64;
        (self.total_work() as f64 - base) / base
    }

    /// Slowdown versus a baseline report's completion time.
    pub fn slowdown_vs(&self, baseline: &RunReport) -> f64 {
        let base = baseline.finish.ticks().max(1) as f64;
        self.finish.ticks() as f64 / base
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "completed={} stalled={} finish={} events={} delivered={} dropped={} bounces={}",
            self.completed,
            self.stalled,
            self.finish,
            self.events,
            self.delivered,
            self.dropped_to_dead,
            self.bounces
        )?;
        if self.shards > 1 {
            writeln!(
                f,
                "shards={} intra={} inter={}",
                self.shards, self.shard_msgs_intra, self.shard_msgs_inter
            )?;
        }
        write!(f, "{}", self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(work: Vec<u64>, finish: u64) -> RunReport {
        let mut per_proc: Vec<ProcStats> = Vec::new();
        let mut total = ProcStats::default();
        for w in &work {
            let s = ProcStats {
                work_units: *w,
                ..ProcStats::default()
            };
            total += &s;
            per_proc.push(s);
        }
        RunReport {
            result: None,
            completed: true,
            stalled: false,
            finish: VirtualTime(finish),
            events: 0,
            delivered: 0,
            dropped_to_dead: 0,
            bounces: 0,
            stats: total,
            per_proc,
            ckpt_peak_entries: 0,
            ckpt_peak_bytes: 0,
            ckpt_stored: 0,
            root_reissues: 0,
            root_failovers: 0,
            root_replicas: 1,
            state_samples: vec![],
            spawn_log: vec![],
            n_procs: work.len() as u32,
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
            trace: TraceSummary::default(),
            policy: PolicyKind::Eager,
        }
    }

    #[test]
    fn imbalance_of_uniform_work_is_one() {
        assert!((report(vec![5, 5, 5, 5], 10).work_imbalance() - 1.0).abs() < 1e-9);
        assert!((report(vec![10, 0], 10).work_imbalance() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn comparisons_against_baseline() {
        let base = report(vec![100], 1000);
        let slow = report(vec![150], 1500);
        assert!((slow.redundant_work_vs(&base) - 0.5).abs() < 1e-9);
        assert!((slow.slowdown_vs(&base) - 1.5).abs() < 1e-9);
    }
}
