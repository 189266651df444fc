//! Emits `BENCH_substrate.json`: a machine-readable perf trajectory for
//! the substrate micro-benches plus the E11 scalability, E14 sharding,
//! E16 reactor and E18 recovery-policy experiment benches, and (on unix,
//! when the worker binary is built) the multi-process backend on the E14
//! topology.
//!
//! Each invocation measures medians on the current build and *appends* one
//! labelled run to the file, so successive PRs accumulate a before/after
//! history future sessions can diff mechanically:
//!
//! ```text
//! cargo run --release -p splice-bench --bin bench_trajectory -- \
//!     --label pr3-post [--out BENCH_substrate.json] [--quick]
//! ```
//!
//! All times are nanoseconds (medians; each run records its per-block
//! sample counts and a `method` string for provenance — hand-recorded
//! entries, e.g. measurements interleaved against an old-tree worktree,
//! name their method too). No serde: the format is a fixed skeleton with
//! one JSON run object per line inside `"runs"`; this tool rewrites the
//! file canonically from those lines on every append.

use splice_applicative::eval::eval_call;
use splice_applicative::wave::run_local;
use splice_bench::{
    assert_correct, config, e11_workload, e14_cases, e14_config, e14_workload, e16_config,
    e16_workload, e18_config, e18_workload, event_queue_push_pop_10k, substrate_workload,
    torus_distance_64x64, E11_SWEEP, E16_ENGINES,
};
use splice_sim::machine::run_workload;
use splice_sim::reactor::run_reactor;
use splice_simnet::fault::FaultPlan;
use splice_simnet::time::VirtualTime;
use std::time::Instant;

/// Median wall-clock nanoseconds of `samples` runs of `f` (one warm-up
/// call excluded).
fn median_ns(samples: usize, mut f: impl FnMut()) -> u64 {
    f(); // warm-up
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn substrate_metrics(samples: usize) -> Vec<(&'static str, u64)> {
    // Identical scenario bodies to benches/substrate.rs — shared helpers
    // keep the trajectory's metric names honest.
    let w = substrate_workload();
    vec![
        (
            "reference_eval_fib15",
            median_ns(samples, || {
                eval_call(&w.program, w.entry, &w.args).unwrap();
            }),
        ),
        (
            "wave_eval_local_fib15",
            median_ns(samples, || {
                run_local(&w.program, w.entry, &w.args).unwrap();
            }),
        ),
        (
            "event_queue_push_pop_10k",
            median_ns(samples, || {
                std::hint::black_box(event_queue_push_pop_10k());
            }),
        ),
        (
            "torus_distance_64x64",
            median_ns(samples, || {
                std::hint::black_box(torus_distance_64x64());
            }),
        ),
    ]
}

fn e11_metrics(samples: usize) -> Vec<(String, u64)> {
    // Identical scenario to benches/e11_scalability.rs — shared builders
    // keep the trajectory file comparable to the criterion bench.
    let w = e11_workload();
    let (procs, modes) = E11_SWEEP;
    let mut out = Vec::new();
    for n in procs {
        for (label, mode) in modes {
            let ns = median_ns(samples, || {
                let r = run_workload(config(n, mode), &w, &FaultPlan::none());
                assert_correct(&w, &r);
            });
            out.push((format!("p{n}_{label}"), ns));
        }
    }
    out
}

fn e14_metrics(samples: usize) -> Vec<(&'static str, u64)> {
    // Identical scenario to benches/e14_sharding.rs.
    let w = e14_workload();
    let base = run_workload(e14_config(), &w, &FaultPlan::none());
    assert_correct(&w, &base);
    let crash = VirtualTime(base.finish.ticks() / 2);
    let mut out = Vec::new();
    for (name, plan) in e14_cases(crash) {
        let ns = median_ns(samples, || {
            let r = run_workload(e14_config(), &w, &plan);
            assert_correct(&w, &r);
        });
        out.push((name, ns));
    }
    out
}

fn e16_metrics(samples: usize) -> Vec<(String, u64)> {
    // Identical scenario to benches/e16_reactor.rs: the reactor backend's
    // fault-free completion wall-clock per engine count (construction
    // included — at 4096 engines the build cost is a scaling property).
    let w = e16_workload();
    let mut out = Vec::new();
    for engines in E16_ENGINES {
        let ns = median_ns(samples, || {
            let r = run_reactor(
                e16_config(engines),
                &w,
                &splice_simnet::fault::FaultPlan::none(),
            );
            assert_correct(&w, &r);
        });
        out.push((format!("n{engines}_fault_free"), ns));
    }
    out
}

fn e18_metrics(samples: usize) -> Vec<(String, u64)> {
    // Identical scenario to benches/e18_policies.rs: each recovery policy
    // timed fault-free and through a mid-run crash of processor 7 on the
    // shared 8-processor splice machine.
    let w = e18_workload();
    let mut out = Vec::new();
    for kind in splice_core::policy::PolicyKind::ALL {
        let base = run_workload(e18_config(kind), &w, &FaultPlan::none());
        assert_correct(&w, &base);
        let crash = FaultPlan::crash_at(7, VirtualTime(base.finish.ticks() / 2));
        for (case, plan) in [("fault_free", FaultPlan::none()), ("mid_crash", crash)] {
            let ns = median_ns(samples, || {
                let r = run_workload(e18_config(kind), &w, &plan);
                assert_correct(&w, &r);
            });
            out.push((format!("{}_{case}", kind.label()), ns));
        }
    }
    out
}

/// The E14 scenario again — same 4×4 topology, same workload, same
/// round-robin placement and splice recovery — but with every shard in
/// its own OS process behind real Unix sockets instead of the in-process
/// `ShardRouter`, so the delta against `e14_sharding` is the cost of the
/// wire codec and socket transport. The kill case SIGKILLs shard 3's
/// worker for real. Wall-clock driven and scheduled by the host, so on a
/// single-CPU recording container these medians measure socket/codec
/// overhead, not parallel speedup.
#[cfg(unix)]
fn proc_metrics(samples: usize) -> Vec<(String, u64)> {
    use splice_core::config::RecoveryMode;
    use splice_sim::proc::{run_process, ProcConfig};
    use splice_simnet::fault::ProcessFaultPlan;

    let mk = || {
        let mut cfg = ProcConfig::new(4, 4);
        cfg.policy = splice_gradient::Policy::RoundRobin;
        cfg.recovery.mode = RecoveryMode::Splice;
        cfg
    };
    if mk().worker_bin_path().is_none() {
        eprintln!(
            "  (skipped: splice-proc-worker not built — `cargo build --release` \
             puts it next to this binary)"
        );
        return Vec::new();
    }
    let w = e14_workload();
    let cases = [
        ("fault_free", ProcessFaultPlan::none()),
        // Fault-free fib(13) takes ~850 time units wall-clock here, so
        // t=300 lands the SIGKILL mid-run rather than after the finish.
        (
            "whole_shard_kill",
            ProcessFaultPlan::none().kill_shard(3, VirtualTime(300)),
        ),
    ];
    cases
        .iter()
        .map(|(name, plan)| {
            let ns = median_ns(samples, || {
                let r = run_process(&mk(), &w, plan).expect("process run failed to launch");
                assert_correct(&w, &r);
            });
            (format!("s4x4_{name}"), ns)
        })
        .collect()
}

#[cfg(not(unix))]
fn proc_metrics(_samples: usize) -> Vec<(String, u64)> {
    Vec::new()
}

fn json_object<K: AsRef<str>>(metrics: &[(K, u64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{}\": {v}", k.as_ref()))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

const HEADER: &str = "{\n  \"format\": \"splice-bench-trajectory-v1\",\n  \"unit\": \"nanoseconds, median over the per-block `samples` counts on the recording container\",\n  \"runs\": [\n";
const FOOTER: &str = "  ]\n}\n";

/// Appends `run_line` to the trajectory file, preserving prior runs. The
/// file is always rewritten from its parsed run lines, so the layout stays
/// canonical regardless of what accumulated.
fn append_run(path: &str, run_line: String) -> std::io::Result<()> {
    let mut runs: Vec<String> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(path) {
        for line in existing.lines() {
            let t = line.trim();
            if t.starts_with("{\"label\"") {
                runs.push(t.trim_end_matches(',').to_string());
            }
        }
        // Refuse to rewrite a file whose runs we failed to parse (e.g. it
        // was pretty-printed by jq or hand-edited off the one-run-per-line
        // layout): rewriting would silently delete the recorded history.
        assert!(
            !(runs.is_empty() && existing.contains("\"runs\"")),
            "{path} has a \"runs\" array this tool cannot parse (expected one \
             run object per line starting with {{\"label\"); restore the \
             canonical layout or pass a fresh --out path"
        );
    }
    runs.push(run_line);
    let mut out = String::from(HEADER);
    for (i, r) in runs.iter().enumerate() {
        out.push_str("    ");
        out.push_str(r);
        if i + 1 < runs.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(FOOTER);
    std::fs::write(path, out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut label = String::from("unlabelled");
    let mut out_path = String::from("BENCH_substrate.json");
    let mut quick = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--label" => label = it.next().expect("--label needs a value").clone(),
            "--out" => out_path = it.next().expect("--out needs a value").clone(),
            "--quick" => quick = true,
            other => panic!("unknown argument: {other}"),
        }
    }
    // The label is interpolated into the JSON run line verbatim; restrict
    // it so the trajectory file can never be corrupted into non-JSON.
    assert!(
        !label.is_empty()
            && label
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.')),
        "--label must be non-empty [A-Za-z0-9._-], got {label:?}"
    );
    let (micro_samples, run_samples) = if quick { (5, 3) } else { (25, 9) };

    eprintln!("measuring substrate micro-benches ({micro_samples} samples)…");
    let substrate = substrate_metrics(micro_samples);
    eprintln!("measuring e11 scalability ({run_samples} samples)…");
    let e11 = e11_metrics(run_samples);
    eprintln!("measuring e14 sharding ({run_samples} samples)…");
    let e14 = e14_metrics(run_samples);
    eprintln!("measuring e16 reactor ({run_samples} samples)…");
    let e16 = e16_metrics(run_samples);
    eprintln!("measuring e18 recovery policies ({run_samples} samples)…");
    let e18 = e18_metrics(run_samples);
    eprintln!("measuring process backend ({run_samples} samples)…");
    let procs = proc_metrics(run_samples);

    let run_line = format!(
        "{{\"label\": \"{label}\", \"method\": \"bench_trajectory\", \"samples\": {{\"substrate\": {micro_samples}, \"experiments\": {run_samples}}}, \"substrate\": {}, \"e11_scalability\": {}, \"e14_sharding\": {}, \"e16_reactor\": {}, \"e18_policies\": {}, \"process\": {}}}",
        json_object(&substrate),
        json_object(&e11),
        json_object(&e14),
        json_object(&e16),
        json_object(&e18),
        json_object(&procs),
    );
    append_run(&out_path, run_line).expect("write trajectory file");
    for (k, v) in &substrate {
        println!("substrate/{k:<28} {v:>12} ns");
    }
    for (k, v) in &e11 {
        println!("e11/{k:<34} {v:>12} ns");
    }
    for (k, v) in &e14 {
        println!("e14/{k:<34} {v:>12} ns");
    }
    for (k, v) in &e16 {
        println!("e16/{k:<34} {v:>12} ns");
    }
    for (k, v) in &e18 {
        println!("e18/{k:<34} {v:>12} ns");
    }
    for (k, v) in &procs {
        println!("process/{k:<30} {v:>12} ns");
    }
    println!("appended run \"{label}\" to {out_path}");
}
