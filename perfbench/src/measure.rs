//! One run of one workload: set-up, the sample loop, and the metrics.

use crate::contract::{END_TO_END, PER_LAYER};
use crate::host::peak_rss_mb;
use crate::layers::{self, LoopFacts};
use crate::span::{Recorder, Span};
use crate::stats::{median, pair_ratio_median, percentile, tail_percentile};
use crate::workloads::{Leg, LegRun, Pairing, Prepared, Sample, WorkloadId};
use std::time::{Duration, Instant};

/// How a run is sized. `--smoke` divides every count by 20.
pub struct Sizing {
    /// Length of the sample loop.
    pub seconds: f64,
    /// Samples the loop takes even when `seconds` is over, so `run_ms_p90`
    /// keeps ten samples beyond it.
    pub min_samples: usize,
    /// Times set-up runs; `setup_s` is the median. One set-up takes
    /// 0.05-0.4 s, too short to be steady on a shared host.
    pub setups: usize,
}

impl Sizing {
    pub fn full(seconds: f64) -> Sizing {
        Sizing {
            seconds,
            min_samples: 100,
            setups: 3,
        }
    }

    pub fn smoke(seconds: f64) -> Sizing {
        Sizing {
            seconds: seconds / 20.0,
            min_samples: 100 / 20,
            setups: 1,
        }
    }
}

/// What one run of one workload produced.
pub struct Outcome {
    pub id: WorkloadId,
    /// Runs (legs) attempted and failed inside the sample loop, plus one
    /// per failed layer driver.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// Every end-to-end metric (tracing off) or every per-layer metric
    /// (tracing on), in contract order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Host time of the primary leg of each verified sample, in the order
    /// taken (the result file keeps them; the metrics summarise them).
    pub primary_ms: Vec<f64>,
    /// Raw `(base, main)` host time of each verified pair.
    pub pairs_ms: Vec<(f64, f64)>,
    /// The percentile `run_ms_p90` actually reports (90 from 100 samples).
    pub tail_pct: u32,
    /// Spans of the traced pass (empty with tracing off).
    pub spans: Vec<Span>,
}

/// Sums over the verified samples of what the reports counted.
#[derive(Default)]
struct Sums {
    // `Main` leg: the faulted leg where there is one.
    reissues: f64,
    salvaged: f64,
    ack_timeouts: f64,
    aborted: f64,
    duplicates: f64,
    stale: f64,
    failovers: f64,
    root_reissues: f64,
    imbalance: f64,
    steals: f64,
    cross_reactor: f64,
    frames_resent: f64,
    reconnects: f64,
    decode_errors: f64,
    // Primary leg.
    events: f64,
    run_only_ms: f64,
    frames_sent: f64,
    msgs_sent: f64,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Primary-leg host time per verified sample, in the order taken.
    primary_ms: Vec<f64>,
    /// Whether the span recorder was on for that sample.
    traced: Vec<bool>,
    build_ms: Vec<f64>,
    /// `(base, main)` host time per verified paired sample.
    pairs: Vec<(f64, f64)>,
    finish: Vec<f64>,
    /// `(slowdown, work ratio)` of `Main` over `Base` in virtual time. The
    /// DES legs repeat exactly (each run is checked against its leg's
    /// first), so the last pair stands for all.
    sim: Option<(f64, f64)>,
    sums: Sums,
}

impl Tally {
    fn fail(&mut self, reason: &str) {
        self.attempted += 1;
        self.failed += 1;
        self.note(reason);
    }

    fn note(&mut self, reason: &str) {
        if self.failures.len() < 5 {
            self.failures.push(reason.to_string());
        }
    }

    fn good(&self) -> usize {
        self.primary_ms.len()
    }

    /// Median primary-leg time of the samples taken with the recorder on
    /// (`true`) or off.
    fn median_ms_where(&self, traced: bool) -> f64 {
        let picked: Vec<f64> = self
            .primary_ms
            .iter()
            .zip(&self.traced)
            .filter(|(_, t)| **t == traced)
            .map(|(ms, _)| *ms)
            .collect();
        median(&picked)
    }

    /// Books one sample. A sample with a failed leg counts its failures
    /// and contributes to no timing.
    fn add(&mut self, id: WorkloadId, sample: &Sample, traced: bool) {
        for leg in sample.legs() {
            self.attempted += 1;
            if let Err(reason) = leg {
                self.failed += 1;
                self.note(reason);
            }
        }
        let (Some(main), Some(primary)) = (sample.leg(Leg::Main), sample.leg(id.primary())) else {
            return;
        };
        if let Some(base) = &sample.base {
            let Ok(base) = base else { return };
            self.pairs.push((base.ms, main.ms));
            if !id.is_proc() {
                self.sim = Some((
                    main.report.slowdown_vs(&base.report),
                    main.report.total_work() as f64 / base.report.total_work().max(1) as f64,
                ));
            }
        }
        self.primary_ms.push(primary.ms);
        self.traced.push(traced);
        self.build_ms.push(primary.build_ms);
        self.finish.push(primary.report.finish.ticks() as f64);
        self.sum(main, primary);
    }

    fn sum(&mut self, main: &LegRun, primary: &LegRun) {
        let (s, r) = (&mut self.sums, &main.report);
        s.reissues += r.stats.reissues as f64;
        s.salvaged += r.stats.salvaged_results as f64;
        s.ack_timeouts += r.stats.ack_timeouts as f64;
        s.aborted += r.stats.tasks_aborted as f64;
        s.duplicates += r.stats.duplicate_results_ignored as f64;
        s.stale += r.stats.stale_messages_ignored as f64;
        s.failovers += r.root_failovers as f64;
        s.root_reissues += r.root_reissues as f64;
        s.imbalance += r.work_imbalance();
        s.steals += r.steals as f64;
        s.cross_reactor += r.msgs_cross_reactor as f64;
        s.frames_resent += r.frames_resent as f64;
        s.reconnects += r.reconnects as f64;
        s.decode_errors += r.decode_errors as f64;
        let r = &primary.report;
        s.events += r.events as f64;
        s.run_only_ms += primary.ms - primary.build_ms;
        s.frames_sent += r.frames_sent as f64;
        s.msgs_sent += r.stats.total_sent() as f64;
    }
}

/// Share of a traced run's time the sample loop gets; the layer drivers
/// get the rest.
const TRACED_LOOP_SHARE: f64 = 0.4;

/// Runs workload `id` once: set-up, the sample loop, and — with `trace` —
/// the layer drivers. `Err` means the workload could not run at all (no
/// worker binary, a failed warm-up, no verified sample).
pub fn run(id: WorkloadId, seed: u64, sizing: &Sizing, trace: bool) -> Result<Outcome, String> {
    let mut rec = Recorder::new(false);
    // The sample loop uses the last set-up.
    let mut setup_s = Vec::new();
    let mut p = loop {
        let t = Instant::now();
        let p = Prepared::new(id, seed, &mut rec)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if setup_s.len() >= sizing.setups {
            break p;
        }
    };
    let setup_s = median(&setup_s);

    // A traced run shrinks the loop, time and sample floor alike, to leave
    // room for the layer drivers.
    let share = if trace { TRACED_LOOP_SHARE } else { 1.0 };
    let window = Duration::from_secs_f64(sizing.seconds * share);
    let min_samples = (sizing.min_samples as f64 * share).ceil() as usize;
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let mut i = 0;
    // Tracing alternates per sample pair, so traced and untraced samples
    // see the same leg orders and the same host drift.
    while (t0.elapsed() < window || tally.good() < min_samples) && t0.elapsed() < window * 3 {
        let traced = trace && (i / 2) % 2 == 0;
        rec.set_on(traced);
        let sample = p.sample(i, &mut rec);
        tally.add(id, &sample, traced);
        i += 1;
    }
    if tally.good() == 0 {
        return Err(format!(
            "no verified sample out of {} runs: {:?}",
            tally.attempted, tally.failures
        ));
    }
    let primary_ms = tally.primary_ms.clone();
    let n = primary_ms.len();
    let tail_pct = tail_percentile(n);
    let metrics = if trace {
        rec.set_on(true);
        let facts = LoopFacts {
            run_ms_p50: median(&primary_ms),
            frames_sent: tally.sums.frames_sent / n as f64,
        };
        let budget = Duration::from_secs_f64(sizing.seconds * (1.0 - TRACED_LOOP_SHARE));
        let mut found = match layers::measure(&p, &facts, budget, &mut rec) {
            Ok(found) => found,
            Err(reason) => {
                tally.fail(&reason);
                Vec::new()
            }
        };
        found.extend(loop_layer_metrics(&p, &tally));
        PER_LAYER
            .iter()
            .map(|m| {
                let value = found.iter().find(|(name, _)| *name == m.name);
                (m.name, value.map_or(0.0, |(_, v)| *v), m.unit)
            })
            .collect()
    } else {
        let (slowdown, work_ratio) = tally.sim.unwrap_or((1.0, 1.0));
        let storm = id == WorkloadId::DesCrashStorm;
        // What the faults added to a run: on the process backend mostly
        // detection and reconnect timers.
        let added_ms = median(&tally.pairs.iter().map(|p| p.1 - p.0).collect::<Vec<_>>());
        let value = |name: &str| match name {
            "setup_s" => setup_s,
            "run_ms_p50" => median(&primary_ms),
            "run_ms_p90" => percentile(&primary_ms, tail_pct),
            "tasks_per_s" => p.tasks as f64 * n as f64 / (primary_ms.iter().sum::<f64>() / 1e3),
            "peak_rss_mb" => peak_rss_mb().unwrap_or(f64::NAN),
            // Shifted by one: a metric of the contract may never read 0.
            "fail_ratio" => 1.0 + tally.failed as f64 / tally.attempted as f64,
            "overhead_ratio" if id.pairing() == Pairing::Overhead => {
                pair_ratio_median(&tally.pairs)
            }
            "recovery_ms_per_crash" if id == WorkloadId::ProcTreeKill => {
                added_ms / f64::from(p.crashes)
            }
            "sim_finish_ticks" if id.is_des() => median(&tally.finish),
            "sim_slowdown" if storm => slowdown,
            // Shifted by one like `fail_ratio`: faulted ÷ fault-free work.
            "sim_redone_work_ratio" if storm => work_ratio,
            // Not measured on this workload: the neutral reading.
            _ => 1.0,
        };
        END_TO_END
            .iter()
            .map(|m| (m.name, value(m.name), m.unit))
            .collect()
    };
    Ok(Outcome {
        id,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics,
        primary_ms,
        pairs_ms: tally.pairs,
        tail_pct,
        spans: rec.spans().to_vec(),
    })
}

/// Per-layer metrics read off the sample loop's own runs.
fn loop_layer_metrics(p: &Prepared, tally: &Tally) -> Vec<(&'static str, f64)> {
    let (s, n) = (&tally.sums, tally.good() as f64);
    let recovered = s.salvaged + s.reissues;
    let mut m = vec![
        ("core.engine.reissues", s.reissues / n),
        ("core.engine.salvaged_results", s.salvaged / n),
        (
            "core.engine.salvage_share",
            if recovered > 0.0 {
                s.salvaged / recovered
            } else {
                0.0
            },
        ),
        ("core.engine.ack_timeouts", s.ack_timeouts / n),
        ("core.engine.tasks_aborted", s.aborted / n),
        ("core.engine.duplicate_results_ignored", s.duplicates / n),
        ("core.engine.stale_messages_ignored", s.stale / n),
        ("core.superroot.failovers", s.failovers / n),
        ("core.superroot.root_reissues", s.root_reissues / n),
        ("gradient.work_imbalance", s.imbalance / n),
        (
            "bench.span_overhead_ratio",
            tally.median_ms_where(true) / tally.median_ms_where(false),
        ),
    ];
    match p.id {
        WorkloadId::DesFineFf | WorkloadId::DesCrashStorm => m.extend([
            ("sim.machine.build_ms", median(&tally.build_ms)),
            ("sim.machine.events_per_s", s.events / (s.run_only_ms / 1e3)),
            (
                "simnet.queue.events_per_task",
                s.events / n / p.tasks as f64,
            ),
        ]),
        WorkloadId::ParFleetFf => m.extend([
            ("sim.parallel.build_ms", median(&tally.build_ms)),
            ("sim.parallel.steals", s.steals / n),
            ("sim.parallel.msgs_cross_reactor", s.cross_reactor / n),
        ]),
        WorkloadId::ProcTreeKill | WorkloadId::ProcChainFf => m.extend([
            ("sim.proc.frames_per_msg", s.frames_sent / s.msgs_sent),
            ("sim.proc.frames_resent", s.frames_resent / n),
            ("sim.proc.reconnects", s.reconnects / n),
            ("sim.proc.decode_errors", s.decode_errors / n),
        ]),
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_divides_every_count_by_twenty() {
        let (full, smoke) = (Sizing::full(20.0), Sizing::smoke(20.0));
        assert_eq!(smoke.seconds * 20.0, full.seconds);
        assert_eq!(smoke.min_samples * 20, full.min_samples);
        assert_eq!(smoke.setups, 1);
    }

    #[test]
    fn a_failed_leg_counts_and_keeps_its_sample_out_of_the_timings() {
        let mut rec = Recorder::new(false);
        let mut p = Prepared::new(WorkloadId::DesCrashStorm, 1, &mut rec).unwrap();
        let mut tally = Tally::default();
        let good = p.sample(0, &mut rec);
        tally.add(p.id, &good, false);
        assert_eq!((tally.attempted, tally.failed, tally.good()), (2, 0, 1));
        let mut bad = p.sample(1, &mut rec);
        bad.main = Err("wrong answer".to_string());
        tally.add(p.id, &bad, false);
        assert_eq!((tally.attempted, tally.failed, tally.good()), (4, 1, 1));
        assert_eq!(tally.pairs.len(), 1);
        assert_eq!(tally.failures, vec!["wrong answer".to_string()]);
        // Virtual-time ratios come from the pair, not from a constant.
        assert!(tally
            .sim
            .is_some_and(|(slowdown, work)| slowdown > 1.0 && work > 1.0));
    }
}
