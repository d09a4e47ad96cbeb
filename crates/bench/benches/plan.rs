//! Criterion microbenches for the compiled execution plan (DESIGN.md §13)
//! on the two costs the lowering targets — single-node dispatch (one rule,
//! every event probes one reader row) and wide leaf fan-out (a large rule
//! family, every event activates many candidate leaves).

use criterion::{criterion_group, criterion_main, Criterion};
use rceda::EngineConfig;
use rfid_bench::{engine_from_script, BenchWorkload};
use rfid_simulator::SimConfig;

/// One rule, one self-join: the per-event cost is dominated by leaf
/// dispatch plus a single buffer probe, so this isolates the direct-index
/// dispatch rows.
fn single_node_dispatch(c: &mut Criterion) {
    let cfg = SimConfig {
        shelves: 16,
        shelf_population: 200,
        duplicate_prob: 0.15,
        packing_lines: 0,
        docks: 0,
        exits: 0,
        ..SimConfig::default()
    };
    let workload = BenchWorkload::with_config(cfg);
    let trace = workload.trace(15_000);
    let script = "CREATE RULE dup, duplicate_detection \
                  ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5 sec) \
                  IF true DO send_duplicate_msg(r, o, t1)";
    let mut group = c.benchmark_group("plan_single_node_dispatch");
    group.sample_size(10);
    group.bench_function("plan", |b| {
        b.iter_with_setup(
            || engine_from_script(&workload, script, EngineConfig::default()),
            |mut engine| {
                let mut count = 0u64;
                for &obs in &trace.observations {
                    engine.process(obs, &mut |_, _| count += 1);
                }
                count
            },
        );
    });
    group.finish();
}

/// A 150-rule family over the same reader groups: every observation fans
/// out to many candidate leaves and parent edges, so this stresses the
/// flat edge/rule arenas.
fn leaf_fanout(c: &mut Criterion) {
    let workload = BenchWorkload::new();
    let trace = workload.trace(15_000);
    let script = workload.sim.rule_family(150);
    let mut group = c.benchmark_group("plan_leaf_fanout");
    group.sample_size(10);
    group.bench_function("plan", |b| {
        b.iter_with_setup(
            || engine_from_script(&workload, &script, EngineConfig::default()),
            |mut engine| {
                let mut count = 0u64;
                for &obs in &trace.observations {
                    engine.process(obs, &mut |_, _| count += 1);
                }
                engine.finish(&mut |_, _| count += 1);
                count
            },
        );
    });
    group.finish();
}

criterion_group!(benches, single_node_dispatch, leaf_fanout);
criterion_main!(benches);
