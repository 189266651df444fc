//! E3 — recovery-candidate selection (§3.2): the topmost rule vs.
//! reissue-all over the checkpoints filed under one dead destination.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use splice_bench::criterion as tuned;
use splice_core::checkpoint::select_for_recovery;
use splice_core::config::CheckpointFilter;
use splice_core::ids::TaskKey;
use splice_core::stamp::LevelStamp;

/// The entry for one dead destination: 256 live checkpoints with nested
/// subtrees so the topmost rule has real work to do, in scan order.
fn dead_entry() -> Vec<(LevelStamp, TaskKey)> {
    let mut stamp = LevelStamp::root().child(1);
    let mut entry = Vec::new();
    for i in 0..256 {
        if i % 4 == 0 {
            stamp = LevelStamp::root().child((i % 97 + 1) as u32);
        } else {
            stamp = stamp.child((i % 3 + 1) as u32);
        }
        entry.push((stamp.clone(), TaskKey((i % 64) as u64)));
    }
    entry
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e03_checkpoint_table");

    let entry = dead_entry();
    for (name, filter) in [
        ("recover_topmost_256", CheckpointFilter::Topmost),
        ("recover_all_256", CheckpointFilter::All),
    ] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || entry.clone(),
                |e| select_for_recovery(e, filter).len(),
                BatchSize::SmallInput,
            )
        });
    }

    // The topmost rule reduces the reissue set — report the ratio once so
    // the bench log doubles as the E3 data point.
    let top = select_for_recovery(entry.clone(), CheckpointFilter::Topmost).len();
    let all = select_for_recovery(entry, CheckpointFilter::All).len();
    assert!(top <= all);
    println!("e03: topmost reissues {top} of {all} live checkpoints for the dead destination");
    g.finish();
}

criterion_group! {
    name = benches;
    config = tuned();
    targets = bench
}
criterion_main!(benches);
