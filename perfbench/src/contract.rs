//! The names the benchmark reports. `BENCHMARK.json` at the repository
//! root lists the same names, units, directions and bounds; a test below
//! keeps the two from drifting apart.

/// A metric definition: `bound` is the relative worsening that counts as
/// a regression (end-to-end metrics only).
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, lower: bool) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: lower,
        bound: None,
    }
}

/// The bound of a metric that must not move at all. `BENCHMARK.json` wants
/// a number: this one is below one tick of any `sim_finish_ticks` reported.
const EXACT: f64 = 0.00001;

/// The bound of `fail_ratio`: below one failed run in any run count a
/// `--seconds 60` run reaches, so any increase breaches it.
const ANY_INCREASE: f64 = 0.0001;

/// End-to-end metrics, reported by every workload with tracing off, by
/// the names, units and bounds of ISSUE 11.
///
/// A metric reads exactly 1 on a workload it does not apply to (no paired
/// leg, no kill, no virtual clock), so one bound per metric can stay as
/// tight as the workload that does measure it allows. The three raw
/// host-time metrics carry the widest bound `BENCHMARK.json` admits:
/// `README.md` lists the raw spreads (first to third quartile of ten runs,
/// as a share of the median) measured on the sizing host, which reach
/// 28 % on `run_ms_p50` on a noisy day.
pub const END_TO_END: [Metric; 11] = [
    e2e("setup_s", "s", true, 0.25),
    e2e("run_ms_p50", "ms", true, 0.25),
    e2e("run_ms_p90", "ms", true, 0.25),
    e2e("tasks_per_s", "tasks/s", false, 0.25),
    e2e("overhead_ratio", "ratio", true, 0.05),
    e2e("recovery_ms_per_crash", "ms/crash", true, 0.10),
    e2e("sim_finish_ticks", "ticks", true, EXACT),
    e2e("sim_slowdown", "ratio", true, EXACT),
    e2e("sim_redone_work_ratio", "ratio", true, EXACT),
    e2e("fail_ratio", "ratio", true, ANY_INCREASE),
    e2e("peak_rss_mb", "MB", true, 0.10),
];

/// Per-layer metrics, reported by every workload with tracing on. A
/// metric of a layer the workload does not exercise reads 0.
pub const PER_LAYER: [Metric; 57] = [
    layer("applicative.eval.reference_ms", "ms", true),
    layer("applicative.wave.run_local_ms", "ms", true),
    layer("applicative.wave.waves_per_task", "ratio", true),
    layer("core.engine.loopback_ms.none", "ms", true),
    layer("core.engine.loopback_ms.splice", "ms", true),
    layer("core.engine.ns_per_msg", "ns", true),
    layer("core.engine.msgs_per_task", "ratio", true),
    layer("core.engine.bytes_per_msg", "B", true),
    layer("core.engine.allocs_per_task", "count", true),
    layer("core.checkpoint.ns_per_task", "ns", true),
    layer("core.checkpoint.stored", "count", true),
    layer("core.checkpoint.peak_bytes", "B", true),
    layer("core.checkpoint.peak_entries", "count", true),
    layer("core.engine.reissues", "count", true),
    layer("core.engine.salvaged_results", "count", false),
    layer("core.engine.salvage_share", "ratio", false),
    layer("core.engine.ack_timeouts", "count", true),
    layer("core.engine.tasks_aborted", "count", true),
    layer("core.engine.duplicate_results_ignored", "count", true),
    layer("core.engine.stale_messages_ignored", "count", true),
    layer("core.superroot.failovers", "count", true),
    layer("core.superroot.root_reissues", "count", true),
    layer("core.policy.lazy.sim_finish_ticks", "ticks", true),
    layer("core.policy.lazy.reissues", "count", true),
    layer("core.policy.multickpt.sim_finish_ticks", "ticks", true),
    layer("core.policy.multickpt.reissues", "count", true),
    layer("gradient.work_imbalance", "ratio", true),
    layer("simnet.queue.hold_ns.p64", "ns", true),
    layer("simnet.queue.hold_ns.p4096", "ns", true),
    layer("simnet.queue.events_per_task", "ratio", true),
    layer("simnet.codec.encode_ns_per_msg", "ns", true),
    layer("simnet.codec.decode_ns_per_msg", "ns", true),
    layer("simnet.codec.bytes_per_msg", "B", true),
    layer("simnet.codec.allocs_per_decode", "count", true),
    layer("harness.shard.router_ratio", "ratio", true),
    layer("harness.shard.inter_frac", "ratio", true),
    layer("harness.batch.w200_ratio", "ratio", true),
    layer("harness.batch.w200_sim_ratio", "ratio", true),
    layer("harness.trace.checksum_ratio", "ratio", true),
    layer("harness.trace.full_ratio", "ratio", true),
    layer("sim.machine.build_ms", "ms", true),
    layer("sim.machine.events_per_s", "1/s", false),
    layer("sim.machine.sched_share", "ratio", true),
    layer("sim.reactor.vs_des_ratio", "ratio", true),
    layer("sim.parallel.t1_vs_reactor_ratio", "ratio", true),
    layer("sim.parallel.build_ms", "ms", true),
    layer("sim.parallel.t2_vs_t1_ratio", "ratio", true),
    layer("sim.parallel.steals", "count", true),
    layer("sim.parallel.msgs_cross_reactor", "count", true),
    layer("sim.proc.spawn_ms", "ms", true),
    layer("sim.proc.us_per_frame", "us", true),
    layer("sim.proc.frames_per_msg", "ratio", true),
    layer("sim.proc.vs_des_ratio", "ratio", true),
    layer("sim.proc.frames_resent", "count", true),
    layer("sim.proc.reconnects", "count", true),
    layer("sim.proc.decode_errors", "count", true),
    layer("bench.span_overhead_ratio", "ratio", true),
];

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn name_ok(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn charset_rule_rejects_what_the_contract_rejects() {
        assert!(name_ok("core.engine.loopback_ms.none"));
        assert!(name_ok("1st"));
        assert!(!name_ok(".hidden"));
        assert!(!name_ok("has space"));
        assert!(!name_ok("slash/name"));
        assert!(!name_ok(&"x".repeat(65)));
        assert!(unit_ok("tasks/s") && unit_ok("%") && !unit_ok("µs") && !unit_ok(""));
    }

    #[test]
    fn every_name_and_unit_is_within_the_contract_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for m in &all {
            assert!(name_ok(m.name), "bad metric name {:?}", m.name);
            assert!(unit_ok(m.unit), "bad unit {:?} on {}", m.unit, m.name);
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!((0.0..=0.25).contains(&b), "{} bound {b}", m.name);
        }
        assert_eq!(END_TO_END[0].name, "setup_s");
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let better = |m: &Metric| if m.lower_is_better { "lower" } else { "higher" };
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m),
                m.bound.unwrap()
            );
            assert!(
                BENCHMARK_JSON.contains(&entry),
                "BENCHMARK.json lacks {entry}"
            );
        }
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m)
            );
            assert!(
                BENCHMARK_JSON.contains(&entry),
                "BENCHMARK.json lacks {entry}"
            );
        }
        let listed = BENCHMARK_JSON.matches("{\"name\": ").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + crate::workloads::WorkloadId::ALL.len(),
            "BENCHMARK.json lists a name the benchmark does not report"
        );
        for w in crate::workloads::WorkloadId::ALL {
            assert!(BENCHMARK_JSON.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
        }
    }
}
