//! Prints every experiment table (E1–E18) — the data recorded in
//! EXPERIMENTS.md.
//!
//! Usage:
//! ```text
//! cargo run --release -p splice-sim --bin experiments            # all
//! cargo run --release -p splice-sim --bin experiments -- e7 e10  # subset
//! cargo run --release -p splice-sim --bin experiments -- quick   # smaller sweeps
//! ```

use splice_applicative::Workload;
use splice_sim::experiment as ex;
use splice_simnet::topology::Topology;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    let want = |id: &str| -> bool {
        let ids: Vec<&String> = args.iter().filter(|a| a.as_str() != "quick").collect();
        ids.is_empty() || ids.iter().any(|a| a.as_str() == id)
    };
    let (sweep, fine) = if quick { (4, 8) } else { (8, 16) };

    println!("# splice experiments — Lin & Keller, ICPP 1986 reproduction\n");

    if want("e1") {
        println!("{}", ex::e01_figure1());
    }
    if want("e3") {
        println!("{}", ex::e03_topmost_rule());
    }
    if want("e5") {
        println!(
            "{}",
            ex::e05_case_mix(&Workload::fib(if quick { 13 } else { 15 }), sweep)
        );
    }
    if want("e6") {
        println!(
            "{}",
            ex::e06_residue(&Workload::dcsum(0, if quick { 64 } else { 128 }), fine)
        );
    }
    if want("e7") {
        println!(
            "{}",
            ex::e07_fault_timing(&Workload::fib(if quick { 13 } else { 16 }), sweep)
        );
        println!(
            "{}",
            ex::e07_fault_timing(&Workload::quicksort(if quick { 32 } else { 64 }, 42), sweep)
        );
    }
    if want("e8") {
        let ws = if quick {
            vec![Workload::fib(13), Workload::dcsum(0, 128)]
        } else {
            vec![
                Workload::fib(15),
                Workload::dcsum(0, 256),
                Workload::nqueens(5),
                Workload::quicksort(48, 42),
            ]
        };
        println!("{}", ex::e08_overhead(&ws));
    }
    if want("e9") {
        println!(
            "{}",
            ex::e09_different_branches(&Workload::mapreduce(0, 32, 8))
        );
        println!("{}", ex::e09_chain_depth());
    }
    if want("e13") {
        println!(
            "{}",
            ex::e13_splice_grace(
                &Workload::mapreduce(0, if quick { 32 } else { 64 }, 8),
                &[0, 500, 2_000, 10_000, 50_000]
            )
        );
    }
    if want("e10") {
        println!("{}", ex::e10_replication());
    }
    if want("e11") {
        let counts: &[u32] = if quick {
            &[1, 2, 4, 8]
        } else {
            &[1, 2, 4, 8, 16, 32]
        };
        println!(
            "{}",
            ex::e11_scalability(
                &Workload::mapreduce(0, 64, if quick { 8 } else { 10 }),
                counts
            )
        );
    }
    if want("e14") {
        let w = Workload::fib(if quick { 12 } else { 14 });
        println!("{}", ex::e14_sharding(&w));
        let lats: &[u64] = if quick {
            &[0, 1_000, 5_000]
        } else {
            &[0, 200, 1_000, 5_000, 20_000]
        };
        println!("{}", ex::e14_router_latency(&w, lats));
        let replicas: &[u32] = if quick { &[1, 3] } else { &[1, 2, 3, 5] };
        println!("{}", ex::e14_root_replicas(&w, replicas));
    }
    if want("e15") {
        let w = Workload::fib(if quick { 12 } else { 14 });
        let windows: &[u64] = if quick {
            &[0, 200, 2_000]
        } else {
            &[0, 50, 200, 1_000, 5_000]
        };
        println!("{}", ex::e15_batching(&w, windows));
    }
    if want("e16") {
        let w = Workload::fib(if quick { 13 } else { 16 });
        let counts: &[u32] = if quick {
            &[64, 512]
        } else {
            &[64, 256, 1024, 4096]
        };
        println!("{}", ex::e16_reactor(&w, counts));
    }
    if want("e12") {
        println!(
            "{}",
            ex::e12_policies(
                &Workload::mapreduce(0, 32, 8),
                Topology::Mesh {
                    w: 4,
                    h: 4,
                    wrap: true
                }
            )
        );
        println!(
            "{}",
            ex::e12_policies(
                &Workload::fib(if quick { 13 } else { 15 }),
                Topology::Hypercube { dim: 3 }
            )
        );
    }
    if want("e18") {
        let w = Workload::fib(if quick { 12 } else { 14 });
        println!(
            "{}",
            ex::e18_recovery_policies(
                &w,
                &[
                    Topology::Complete { n: 8 },
                    Topology::Mesh {
                        w: 4,
                        h: 2,
                        wrap: false
                    },
                ]
            )
        );
    }
}
