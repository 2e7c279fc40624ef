//! One Criterion benchmark per reconstructed table/figure: times the
//! regeneration of each experiment at Quick scale. (The recorded numbers
//! come from the `experiments` binary at Full scale; these benches exist
//! so regressions in any experiment pipeline are caught as timing/work
//! changes.)

use atum_analysis::{experiments, Scale};
use criterion::{criterion_group, criterion_main, Criterion};

fn regen(c: &mut Criterion) {
    let shared = experiments::capture_standard_mix(Scale::Quick).expect("capture");
    let mut g = c.benchmark_group("regen");
    g.sample_size(10);

    g.bench_function("t1_technique_comparison", |b| {
        b.iter(|| experiments::t1_technique_comparison(Scale::Quick).unwrap())
    });
    g.bench_function("t2_trace_characteristics", |b| {
        b.iter(|| experiments::t2_trace_characteristics(Scale::Quick, &shared).unwrap())
    });
    g.bench_function("f1_os_vs_user", |b| {
        b.iter(|| experiments::f1_os_vs_user(Scale::Quick, &shared).unwrap())
    });
    g.bench_function("f2_switch_policy", |b| {
        b.iter(|| experiments::f2_switch_policy(Scale::Quick, &shared).unwrap())
    });
    g.bench_function("f3_block_size", |b| {
        b.iter(|| experiments::f3_block_size(Scale::Quick, &shared).unwrap())
    });
    g.bench_function("f4_associativity", |b| {
        b.iter(|| experiments::f4_associativity(Scale::Quick, &shared).unwrap())
    });
    g.bench_function("f5_tlb", |b| {
        b.iter(|| experiments::f5_tlb(Scale::Quick, &shared).unwrap())
    });
    g.bench_function("f6_organisation", |b| {
        b.iter(|| experiments::f6_organisation(Scale::Quick, &shared).unwrap())
    });
    g.bench_function("e1_cold_start", |b| {
        b.iter(|| experiments::e1_cold_start(Scale::Quick, &shared).unwrap())
    });
    g.bench_function("e2_compaction", |b| {
        b.iter(|| experiments::e2_compaction(Scale::Quick, &shared).unwrap())
    });
    g.bench_function("e3_os_breakdown", |b| {
        b.iter(|| experiments::e3_os_breakdown(Scale::Quick, &shared).unwrap())
    });
    g.bench_function("e4_working_set", |b| {
        b.iter(|| experiments::e4_working_set(Scale::Quick, &shared).unwrap())
    });
    g.bench_function("a1_patch_cost", |b| {
        b.iter(|| experiments::a1_patch_cost(Scale::Quick).unwrap())
    });
    g.finish();
}

criterion_group!(benches, regen);
criterion_main!(benches);
