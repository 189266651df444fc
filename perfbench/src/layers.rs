//! Layer drivers for the traced pass: small loops owned by the benchmark
//! that call one layer's public API in isolation, or run the whole machine
//! twice with one public configuration field changed.
//!
//! Each driver is handed the workload's own program and machine shape, so
//! its numbers describe that workload; a workload reports 0 for the layers
//! it never enters (no codec on the DES, no event queue on sockets).

use crate::alloc;
use crate::span::Recorder;
use crate::stats::{median, pair_ratio_median};
use crate::workloads::{
    fine_cfg, fleet_cfg, proc_cfg, run_des, run_parallel, run_proc, storm_cfg, storm_plan, LegRun,
    Prepared, WorkloadId,
};
use splice_applicative::eval::eval_call;
use splice_applicative::wave::run_local;
use splice_applicative::Workload;
use splice_core::config::{Config, RecoveryMode};
use splice_core::engine::{Action, Engine};
use splice_core::ids::ProcId;
use splice_core::packet::Msg;
use splice_core::place::RoundRobinPlacer;
use splice_core::policy::PolicySpec;
use splice_core::sink::ActionSink;
use splice_core::superroot::SuperRoot;
use splice_gradient::Policy;
use splice_sim::machine::MachineConfig;
use splice_sim::reactor::ReactorMachine;
use splice_sim::report::RunReport;
use splice_simnet::codec::{decode_msg, encode_msg_frame, FrameBuf};
use splice_simnet::fault::{FaultPlan, ProcessFaultPlan};
use splice_simnet::queue::EventQueue;
use splice_simnet::time::VirtualTime;
use splice_simnet::trace::TraceMode;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-layer results of one traced run, by metric name.
pub type LayerMetrics = Vec<(&'static str, f64)>;

/// Engines in the loopback: the `des_fine_ff` machine's processor count.
const LOOPBACK_ENGINES: u32 = 8;

// ---------------------------------------------------------------------------
// (i) Engine loopback
// ---------------------------------------------------------------------------

/// What one loopback run did.
pub struct Loopback {
    pub msgs: u64,
    pub bytes: u64,
    pub tasks: u64,
    pub waves: u64,
    pub ckpt_stored: u64,
    pub ckpt_peak_bytes: usize,
    pub ckpt_peak_entries: usize,
}

/// Runs `w` on eight `splice_core::Engine`s and a `SuperRoot` joined by a
/// plain FIFO: no clock, no event queue, no scheduler, round-robin
/// placement. Of the two `Action` variants, `Send` is delivered and
/// `SetTimer` ignored (nothing is ever lost, so no timer matters). What is
/// left is the cost of the protocol handlers and wave evaluation alone.
/// Every message sent is cloned into `corpus` when one is given.
pub fn loopback(
    w: &Workload,
    mode: RecoveryMode,
    mut corpus: Option<&mut Vec<Msg>>,
) -> Result<Loopback, String> {
    let config = Config::with_mode(mode);
    let program = Arc::new(w.program.clone());
    let roster: Arc<[ProcId]> = (0..LOOPBACK_ENGINES).map(ProcId).collect();
    let mut engines: Vec<Engine> = (0..LOOPBACK_ENGINES)
        .map(|i| {
            Engine::new(
                ProcId(i),
                program.clone(),
                config.clone(),
                Box::new(RoundRobinPlacer::new(roster.clone())),
            )
        })
        .collect();
    let mut root = SuperRoot::new(
        w.entry,
        w.args.clone(),
        config.ancestor_depth,
        config.ack_timeout,
    );
    let mut sink = ActionSink::new();
    let mut fifo: VecDeque<(ProcId, Msg)> = VecDeque::new();
    let (mut msgs, mut bytes) = (0u64, 0u64);
    let mut flush = |sink: &mut ActionSink, fifo: &mut VecDeque<(ProcId, Msg)>| {
        for action in sink.drain() {
            if let Action::Send { to, msg } = action {
                msgs += 1;
                bytes += msg.size() as u64;
                if let Some(c) = corpus.as_deref_mut() {
                    c.push(msg.clone());
                }
                fifo.push_back((to, msg));
            }
        }
    };
    for e in &mut engines {
        e.on_start(&mut sink);
    }
    root.launch(ProcId(0), &mut sink);
    flush(&mut sink, &mut fifo);
    while root.result().is_none() {
        let mut progressed = false;
        while let Some((to, msg)) = fifo.pop_front() {
            progressed = true;
            if to.is_super_root() {
                root.on_message(msg, ProcId(0), &mut sink);
            } else {
                engines[to.0 as usize].on_message(msg, &mut sink);
            }
            flush(&mut sink, &mut fifo);
        }
        for e in &mut engines {
            if let Some(key) = e.pop_ready() {
                progressed = true;
                e.run_wave(key, &mut sink);
                flush(&mut sink, &mut fifo);
            }
        }
        if !progressed {
            return Err("engine loopback wedged without a result".to_string());
        }
    }
    if root.result() != w.reference_result().ok().as_ref() {
        return Err("engine loopback produced a wrong answer".to_string());
    }
    let sum = |f: fn(&Engine) -> u64| engines.iter().map(f).sum::<u64>();
    Ok(Loopback {
        msgs,
        bytes,
        tasks: sum(|e| e.stats().tasks_completed),
        waves: sum(|e| e.stats().waves_run),
        ckpt_stored: sum(|e| e.checkpoints().stored_total()),
        ckpt_peak_bytes: engines.iter().map(|e| e.checkpoints().peak_bytes()).sum(),
        ckpt_peak_entries: engines.iter().map(|e| e.checkpoints().peak_entries()).sum(),
    })
}

// ---------------------------------------------------------------------------
// (ii) Codec round trip over the run's real message corpus
// ---------------------------------------------------------------------------

/// Bytes handed to the reassembler at a time, like one socket read.
const READ_CHUNK: usize = 64 * 1024;

/// Encodes every message of `corpus` into one byte stream.
fn encode_corpus(corpus: &[Msg]) -> Vec<u8> {
    let (mut scratch, mut wire) = (Vec::new(), Vec::new());
    for msg in corpus {
        encode_msg_frame(msg, &mut scratch, &mut wire);
    }
    wire
}

/// Reassembles and decodes `wire`; returns the messages decoded.
fn decode_stream(wire: &[u8], mut each: impl FnMut(Msg)) -> Result<usize, String> {
    let mut frames = FrameBuf::new();
    let mut n = 0;
    for chunk in wire.chunks(READ_CHUNK) {
        frames.extend(chunk);
        while let Some(body) = frames.next_frame().map_err(|e| e.to_string())? {
            each(decode_msg(&body).map_err(|e| e.to_string())?);
            n += 1;
        }
    }
    Ok(n)
}

// ---------------------------------------------------------------------------
// (iii) Hold model on the event queue
// ---------------------------------------------------------------------------

/// xorshift64*: the benchmark's own generator, fed from `--seed`.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Largest hold-model increment in ticks: the span of DES message
/// latencies (`LinkModel` base 8 plus hops and payload).
const HOLD_SPREAD: u64 = 64;

/// Classic hold model: with `pending` events queued, pop the earliest and
/// push it back a random increment later, `ops` times. Returns
/// nanoseconds per hold (one pop plus one push).
fn hold_ns(pending: usize, ops: usize, seed: u64) -> f64 {
    let mut rng = XorShift(seed | 1);
    let mut q = EventQueue::new();
    for i in 0..pending {
        q.push(VirtualTime(rng.next() % HOLD_SPREAD), i as u64);
    }
    let t = Instant::now();
    for _ in 0..ops {
        let (at, e) = q.pop().expect("the hold model never drains the queue");
        q.push(VirtualTime(at.ticks() + 1 + rng.next() % HOLD_SPREAD), e);
    }
    let ns = t.elapsed().as_nanos() as f64 / ops as f64;
    black_box(q.len());
    ns
}

// ---------------------------------------------------------------------------
// Repetition inside a time slice
// ---------------------------------------------------------------------------

/// Fewest repetitions a driver makes, however short its slice.
const MIN_REPS: usize = 3;

/// Calls `f` until `slice` has passed and at least [`MIN_REPS`] calls were
/// made; returns what the calls returned.
fn repeat<T>(
    slice: Duration,
    mut f: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let t = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPS || t.elapsed() < slice {
        out.push(f(out.len())?);
    }
    Ok(out)
}

/// A verified whole run that records its spans in the given recorder.
type Run<'a> = &'a mut dyn FnMut(&mut Recorder) -> Result<LegRun, String>;

/// Median host-time ratio `treat ÷ base` over back-to-back pairs run in
/// alternating order for `slice`; also returns the last pair.
fn paired_ratio(
    slice: Duration,
    rec: &mut Recorder,
    base: Run<'_>,
    treat: Run<'_>,
) -> Result<(f64, LegRun, LegRun), String> {
    let mut last = None;
    let pairs = repeat(slice, |i| {
        let (b, t) = if i % 2 == 0 {
            let b = base(rec)?;
            (b, treat(rec)?)
        } else {
            let t = treat(rec)?;
            (base(rec)?, t)
        };
        let pair = (b.ms, t.ms);
        last = Some((b, t));
        Ok(pair)
    })?;
    let (b, t) = last.expect("at least MIN_REPS pairs ran");
    Ok((pair_ratio_median(&pairs), b, t))
}

/// Checks a layer-driver run the way samples are checked.
fn verified(p: &Prepared, run: LegRun) -> Result<LegRun, String> {
    p.check_answer(&run.report)
        .map_err(|e| format!("layer-driver run: {e}"))?;
    Ok(run)
}

// ---------------------------------------------------------------------------
// The traced pass for one workload
// ---------------------------------------------------------------------------

/// What the sample loop hands the layer drivers.
pub struct LoopFacts {
    /// Median host time of the primary leg, milliseconds.
    pub run_ms_p50: f64,
    /// Mean frames the primary leg wrote (process workloads).
    pub frames_sent: f64,
}

/// Runs every layer driver that applies to `p`'s workload, spending about
/// `budget` in total, and returns their metrics.
pub fn measure(
    p: &Prepared,
    facts: &LoopFacts,
    budget: Duration,
    rec: &mut Recorder,
) -> Result<LayerMetrics, String> {
    // Slices each workload's drivers spend, so the pass fits the budget.
    let slices = match p.id {
        WorkloadId::DesFineFf => 11,
        WorkloadId::DesCrashStorm => 9,
        WorkloadId::ParFleetFf | WorkloadId::ProcTreeKill | WorkloadId::ProcChainFf => 7,
    };
    let slice = budget / slices;
    let open = rec.enter("bench.layers");
    let mut m = LayerMetrics::new();
    let result = (|| {
        core_and_evaluator(p, slice, rec, &mut m)?;
        match p.id {
            WorkloadId::DesFineFf => {
                queue(p, slice, rec, &mut m);
                des_fine(p, slice, rec, &mut m)?;
            }
            WorkloadId::DesCrashStorm => {
                queue(p, slice, rec, &mut m);
                des_storm(p, slice, rec, &mut m)?;
            }
            WorkloadId::ParFleetFf => fleet(p, slice, rec, &mut m)?,
            WorkloadId::ProcTreeKill | WorkloadId::ProcChainFf => {
                wire(p, facts, slice, rec, &mut m)?
            }
        }
        Ok(())
    })();
    rec.exit(open);
    result.map(|()| m)
}

/// The single-node baseline, the engine loopback and what checkpointing
/// adds to it: three slices, every workload.
fn core_and_evaluator(
    p: &Prepared,
    slice: Duration,
    rec: &mut Recorder,
    m: &mut LayerMetrics,
) -> Result<(), String> {
    let w = &p.program;
    let check = |v: Result<splice_applicative::Value, _>| match v {
        Ok(v) if v == p.expected => Ok(()),
        _ => Err("single-node evaluation disagrees with the reference answer".to_string()),
    };
    let reference = repeat(slice / 4, |_| {
        let (v, ms) = rec.leaf("applicative.eval.eval_call", || {
            eval_call(&w.program, w.entry, &w.args)
        });
        check(v).map(|()| ms)
    })?;
    let local = repeat(slice / 4, |_| {
        let (v, ms) = rec.leaf("applicative.wave.run_local", || {
            run_local(&w.program, w.entry, &w.args)
        });
        check(v).map(|()| ms)
    })?;
    m.push(("applicative.eval.reference_ms", median(&reference)));
    m.push(("applicative.wave.run_local_ms", median(&local)));

    // Loopback legs alternate so drift hits both modes alike. The message
    // count must repeat exactly: the loopback has no clock to vary.
    let mut seen: Option<(u64, u64)> = None;
    let (mut none_ms, mut splice_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    repeat(slice * 2, |i| {
        let order = if i % 2 == 0 {
            [RecoveryMode::None, RecoveryMode::Splice]
        } else {
            [RecoveryMode::Splice, RecoveryMode::None]
        };
        for mode in order {
            let (run, ms) = rec.leaf("core.engine.loopback", || loopback(w, mode, None));
            let run = run?;
            if mode == RecoveryMode::Splice {
                let counts = (run.msgs, run.tasks);
                if *seen.get_or_insert(counts) != counts {
                    return Err("engine loopback message count changed between repeats".into());
                }
                splice_ms.push(ms);
                last = Some(run);
            } else {
                none_ms.push(ms);
            }
        }
        Ok(())
    })?;
    let lb = last.expect("at least MIN_REPS loopbacks ran");
    let (none, splice) = (median(&none_ms), median(&splice_ms));
    let (run, allocs) = alloc::count(|| loopback(w, RecoveryMode::Splice, None));
    run?;
    let (msgs, tasks) = (lb.msgs as f64, lb.tasks as f64);
    m.push(("applicative.wave.waves_per_task", lb.waves as f64 / tasks));
    m.push(("core.engine.loopback_ms.none", none));
    m.push(("core.engine.loopback_ms.splice", splice));
    m.push((
        "core.engine.ns_per_msg",
        (none - median(&local)) * 1e6 / msgs,
    ));
    m.push(("core.engine.msgs_per_task", msgs / tasks));
    m.push(("core.engine.bytes_per_msg", lb.bytes as f64 / msgs));
    m.push(("core.engine.allocs_per_task", allocs as f64 / tasks));
    m.push(("core.checkpoint.ns_per_task", (splice - none) * 1e6 / tasks));
    m.push(("core.checkpoint.stored", lb.ckpt_stored as f64));
    m.push(("core.checkpoint.peak_bytes", lb.ckpt_peak_bytes as f64));
    m.push(("core.checkpoint.peak_entries", lb.ckpt_peak_entries as f64));
    Ok(())
}

/// Hold model at two queue depths: one slice, DES workloads.
fn queue(p: &Prepared, slice: Duration, rec: &mut Recorder, m: &mut LayerMetrics) {
    const OPS: usize = 200_000;
    for (name, pending) in [
        ("simnet.queue.hold_ns.p64", 64),
        ("simnet.queue.hold_ns.p4096", 4096),
    ] {
        let holds = repeat(slice / 2, |i| {
            Ok(rec
                .leaf("simnet.queue.hold", || {
                    hold_ns(pending, OPS, p.seed + i as u64)
                })
                .0)
        })
        .expect("the hold model cannot fail");
        m.push((name, median(&holds)));
    }
}

/// `des_fine_ff`: the decorators and the scheduler, each as a paired
/// whole run that differs from the workload's machine in one field.
fn des_fine(
    p: &Prepared,
    slice: Duration,
    rec: &mut Recorder,
    m: &mut LayerMetrics,
) -> Result<(), String> {
    let none = FaultPlan::none();
    let flat = || fine_cfg(p.seed, RecoveryMode::Splice);
    let des = |cfg, rec: &mut Recorder| verified(p, run_des(cfg, &p.program, &none, rec));

    // Batching bus, 200-tick window, against the flat machine. The ack
    // timeout widens with the window exactly as `MachineConfig::batched`
    // widens it; the window is the one decision that differs.
    let batched = || {
        let mut cfg = flat();
        cfg.batch_window = 200;
        cfg.recovery.ack_timeout = MachineConfig::batched(8, 200).recovery.ack_timeout;
        cfg
    };
    let (ratio, b, t) = paired_ratio(slice * 2, rec, &mut |rec| des(flat(), rec), &mut |rec| {
        des(batched(), rec)
    })?;
    m.push(("harness.batch.w200_ratio", ratio));
    m.push((
        "harness.batch.w200_sim_ratio",
        t.report.slowdown_vs(&b.report),
    ));

    // Canonical tracing on, against off.
    for (name, mode) in [
        ("harness.trace.checksum_ratio", TraceMode::Checksum),
        ("harness.trace.full_ratio", TraceMode::Full),
    ] {
        let traced = || {
            let mut cfg = flat();
            cfg.trace = mode;
            cfg
        };
        let (ratio, _, _) =
            paired_ratio(slice * 2, rec, &mut |rec| des(flat(), rec), &mut |rec| {
                des(traced(), rec)
            })?;
        m.push((name, ratio));
    }
    sched_share(p, slice, rec, m)
}

/// `sim.machine.sched_share`: the share of a DES run that is not engine
/// handlers or evaluation — one minus loopback ÷ DES at identical knobs
/// (eight processors, round-robin, no checkpointing).
fn sched_share(
    p: &Prepared,
    slice: Duration,
    rec: &mut Recorder,
    m: &mut LayerMetrics,
) -> Result<(), String> {
    let cfg = || {
        let mut cfg = fine_cfg(p.seed, RecoveryMode::None);
        cfg.policy = Policy::RoundRobin;
        cfg
    };
    let pairs = repeat(slice, |_| {
        let des = verified(p, run_des(cfg(), &p.program, &FaultPlan::none(), rec))?;
        let (lb, ms) = rec.leaf("core.engine.loopback", || {
            loopback(&p.program, RecoveryMode::None, None)
        });
        lb?;
        Ok((des.ms, ms))
    })?;
    m.push(("sim.machine.sched_share", 1.0 - pair_ratio_median(&pairs)));
    Ok(())
}

/// `des_crash_storm`: the shard router against a flat machine, the
/// rival recovery policies under the workload's own plan, and the
/// scheduler share.
fn des_storm(
    p: &Prepared,
    slice: Duration,
    rec: &mut Recorder,
    m: &mut LayerMetrics,
) -> Result<(), String> {
    let none = FaultPlan::none();
    // Router latency 0 against no router: what is left is the decorator.
    let sharded = || {
        let mut cfg = MachineConfig::sharded(4, 4, 0);
        cfg.seed = p.seed;
        cfg.policy = Policy::RoundRobin;
        cfg
    };
    let flat = || {
        let mut cfg = MachineConfig::new(16);
        cfg.seed = p.seed;
        cfg.policy = Policy::RoundRobin;
        cfg
    };
    let (ratio, _, s) = paired_ratio(
        slice * 2,
        rec,
        &mut |rec| verified(p, run_des(flat(), &p.program, &none, rec)),
        &mut |rec| verified(p, run_des(sharded(), &p.program, &none, rec)),
    )?;
    let (intra, inter) = (
        s.report.shard_msgs_intra as f64,
        s.report.shard_msgs_inter as f64,
    );
    m.push(("harness.shard.router_ratio", ratio));
    m.push(("harness.shard.inter_frac", inter / (intra + inter)));

    // Each policy's plan is placed on its own fault-free finish, like the
    // workload's.
    for (spec, finish, reissues) in [
        (
            PolicySpec::lazy(),
            "core.policy.lazy.sim_finish_ticks",
            "core.policy.lazy.reissues",
        ),
        (
            PolicySpec::multi_checkpoint(1),
            "core.policy.multickpt.sim_finish_ticks",
            "core.policy.multickpt.reissues",
        ),
    ] {
        let cfg = || {
            let mut cfg = storm_cfg(p.seed);
            cfg.recovery.policy = spec;
            cfg
        };
        let base = verified(p, run_des(cfg(), &p.program, &none, rec))?;
        let plan = storm_plan(base.report.finish.ticks());
        let runs = repeat(slice, |_| {
            verified(p, run_des(cfg(), &p.program, &plan, rec))
        })?;
        let r: &RunReport = &runs[0].report;
        if runs.iter().any(|x| x.report.finish != r.finish) {
            return Err("a policy run did not repeat exactly".to_string());
        }
        m.push((finish, r.finish.ticks() as f64));
        m.push((reissues, r.stats.reissues as f64));
    }
    sched_share(p, slice, rec, m)
}

/// `par_fleet_ff`: the three in-process schedulers on the same fleet.
fn fleet(
    p: &Prepared,
    slice: Duration,
    rec: &mut Recorder,
    m: &mut LayerMetrics,
) -> Result<(), String> {
    let none = FaultPlan::none();
    let mut des =
        |rec: &mut Recorder| verified(p, run_des(fleet_cfg(p.seed, 1), &p.program, &none, rec));
    let mut reactor = |rec: &mut Recorder| {
        let cfg = fleet_cfg(p.seed, 1);
        let (machine, build_ms) =
            rec.leaf("sim.reactor.new", || ReactorMachine::new(cfg, &p.program));
        let (report, run_ms) = rec.leaf("sim.reactor.run", || machine.run(&none));
        let ms = build_ms + run_ms;
        verified(
            p,
            LegRun {
                ms,
                build_ms,
                report,
            },
        )
    };
    let par = |threads, rec: &mut Recorder| {
        verified(p, run_parallel(fleet_cfg(p.seed, threads), &p.program, rec))
    };
    let (vs_des, _, _) = paired_ratio(slice * 2, rec, &mut des, &mut reactor)?;
    let (t1_vs_reactor, _, _) = paired_ratio(slice, rec, &mut reactor, &mut |rec| par(1, rec))?;
    let (t2_vs_t1, _, _) =
        paired_ratio(slice, rec, &mut |rec| par(1, rec), &mut |rec| par(2, rec))?;
    m.push(("sim.reactor.vs_des_ratio", vs_des));
    m.push(("sim.parallel.t1_vs_reactor_ratio", t1_vs_reactor));
    m.push(("sim.parallel.t2_vs_t1_ratio", t2_vs_t1));
    Ok(())
}

/// `proc_*`: the codec over the run's real messages, process spawn, and
/// the same program on the DES machine of the same shape.
fn wire(
    p: &Prepared,
    facts: &LoopFacts,
    slice: Duration,
    rec: &mut Recorder,
    m: &mut LayerMetrics,
) -> Result<(), String> {
    let mut corpus = Vec::new();
    loopback(&p.program, RecoveryMode::Splice, Some(&mut corpus))?;
    let n = corpus.len() as f64;
    let wire = encode_corpus(&corpus);
    let mut round_trip = Vec::with_capacity(corpus.len());
    decode_stream(&wire, |msg| round_trip.push(msg))?;
    if round_trip != corpus {
        return Err("the codec did not round-trip the message corpus".to_string());
    }
    let encode = repeat(slice / 2, |_| {
        let (bytes, ms) = rec.leaf("simnet.codec.encode", || encode_corpus(&corpus));
        black_box(bytes.len());
        Ok(ms)
    })?;
    let decode = repeat(slice / 2, |_| {
        let (decoded, ms) = rec.leaf("simnet.codec.decode", || {
            decode_stream(&wire, |msg| {
                black_box(&msg);
            })
        });
        decoded.map(|_| ms)
    })?;
    let (decoded, allocs) = alloc::count(|| decode_stream(&wire, |msg| drop(black_box(msg))));
    decoded?;
    m.push(("simnet.codec.encode_ns_per_msg", median(&encode) * 1e6 / n));
    m.push(("simnet.codec.decode_ns_per_msg", median(&decode) * 1e6 / n));
    m.push(("simnet.codec.bytes_per_msg", wire.len() as f64 / n));
    m.push(("simnet.codec.allocs_per_decode", allocs as f64 / n));

    // Spawn, connect, run the smallest program, reap.
    let tiny = Workload::fib(1);
    let spawn = repeat(slice, |_| {
        let run = run_proc(&proc_cfg(p.seed), &tiny, &ProcessFaultPlan::none(), rec)?;
        if run.report.completed {
            Ok(run.ms)
        } else {
            Err("the spawn probe did not complete".to_string())
        }
    })?;
    let spawn_ms = median(&spawn);
    m.push(("sim.proc.spawn_ms", spawn_ms));
    m.push((
        "sim.proc.us_per_frame",
        (facts.run_ms_p50 - spawn_ms) * 1e3 / facts.frames_sent,
    ));

    // The DES machine of the same shape and router, against real sockets.
    let (vs_des, _, _) = paired_ratio(
        slice * 2,
        rec,
        &mut |rec| {
            let plan = FaultPlan::none();
            verified(p, run_des(storm_cfg(p.seed), &p.program, &plan, rec))
        },
        &mut |rec| {
            let plan = ProcessFaultPlan::none();
            verified(p, run_proc(&proc_cfg(p.seed), &p.program, &plan, rec)?)
        },
    )?;
    m.push(("sim.proc.vs_des_ratio", vs_des));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_computes_the_reference_answer_and_repeats() {
        let w = Workload::fib(10);
        let a = loopback(&w, RecoveryMode::Splice, None).unwrap();
        let mut corpus = Vec::new();
        let b = loopback(&w, RecoveryMode::Splice, Some(&mut corpus)).unwrap();
        assert_eq!((a.msgs, a.tasks), (b.msgs, b.tasks));
        assert_eq!(corpus.len() as u64, a.msgs);
        assert_eq!(a.tasks, w.analyze().unwrap().1.tasks);
        assert!(a.ckpt_stored > 0);
        let none = loopback(&w, RecoveryMode::None, None).unwrap();
        assert_eq!(none.ckpt_stored, 0);
        assert_eq!(none.tasks, a.tasks);
    }

    #[test]
    fn corpus_round_trips_through_the_codec() {
        let mut corpus = Vec::new();
        loopback(
            &Workload::quicksort(12, 3),
            RecoveryMode::Splice,
            Some(&mut corpus),
        )
        .unwrap();
        let wire = encode_corpus(&corpus);
        let mut back = Vec::new();
        assert_eq!(
            decode_stream(&wire, |m| back.push(m)).unwrap(),
            corpus.len()
        );
        assert_eq!(back, corpus);
    }

    #[test]
    fn hold_model_keeps_the_queue_depth() {
        assert!(hold_ns(64, 1_000, 7) > 0.0);
    }
}
