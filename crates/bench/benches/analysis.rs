//! Analysis-rate benchmark: the one-pass stack-distance sweep engine
//! against per-configuration replay, its oracle.
//!
//! Captures the standard mix, replicates it to a few million records,
//! then runs four sweep families — the F1-style direct-mapped size
//! sweep, an associativity mix, a purge-on-switch family, and a
//! wide-associativity family up to fully associative — two ways each:
//! one `simulate_many` pass, and one `simulate` pass per configuration.
//! Both result sets must be identical per family, and the one-pass sweep
//! must run at least [`MIN_GAIN`]× the replay on the F1 family (the CI
//! floor gate; the other families are recorded, not gated). Rates are
//! recorded machine-readably in `BENCH_analysis.json` at the workspace
//! root.
//!
//! ```text
//! cargo bench -p atum-bench --bench analysis -- analysis
//! ```

use atum_analysis::{experiments, Scale};
use atum_cache::{simulate, simulate_many, CacheConfig, CacheStats, SwitchPolicy};
use atum_core::{RecordKind, Trace};
use criterion::{criterion_group, criterion_main, Criterion};

/// The raw-record budget the replicated trace must exceed — big enough
/// that per-access work dominates each pass's constant costs.
const RECORD_BUDGET: u64 = 4 << 20;

/// Best-of timing rounds per variant (interleaved so host drift cancels
/// in the ratios).
const ROUNDS: usize = 3;

/// CI floor: on the F1 family, the one-pass sweep must beat
/// per-configuration replay by at least this factor (the lowest of nine
/// measured ratios was 1.49 on a shared 2-core host).
const MIN_GAIN: f64 = 1.4;

/// Re-stitches one copy of `src` onto `big`, keeping per-drain segment
/// boundaries (a plain `stitch(clone)` would flatten them).
fn stitch_replica(big: &mut Trace, src: &Trace) {
    for seg in src.segment_slices() {
        let recs = match seg.last() {
            Some(r) if r.kind() == RecordKind::SegmentMark => &seg[..seg.len() - 1],
            _ => seg,
        };
        let sub: Trace = recs.iter().copied().collect();
        big.stitch(sub);
    }
}

struct Family {
    name: &'static str,
    cfgs: Vec<CacheConfig>,
}

/// Every `(size, ways)` pair of a grid, sizes outer, 16 B blocks; `0`
/// ways is fully associative (one set of `size / 16` ways).
fn grid(kbs: &[u32], ways: &[u32], switch: SwitchPolicy) -> Vec<CacheConfig> {
    kbs.iter()
        .flat_map(|&kb| ways.iter().map(move |&w| (kb << 10, w)))
        .map(|(size, w)| {
            CacheConfig::builder()
                .size(size)
                .block(16)
                .assoc(if w == 0 { size / 16 } else { w })
                .switch_policy(switch)
                .build()
                .unwrap()
        })
        .collect()
}

fn families() -> Vec<Family> {
    use SwitchPolicy::{Flush, Ignore};
    vec![
        // F1-style: direct-mapped size sweep — the paper's
        // complete-vs-user miss-rate family and the gated workload.
        Family {
            name: "f1_size_sweep",
            cfgs: grid(&[1, 2, 4, 8, 16, 32, 64], &[1], Ignore),
        },
        // Associativity mix: sizes x ways in one shared stack.
        Family {
            name: "assoc_mix",
            cfgs: grid(&[4, 16, 64], &[1, 2, 4, 8], Ignore),
        },
        // Purge-on-switch: the multiprogramming family, exercising the
        // flush path's resident walk.
        Family {
            name: "flush_switch",
            cfgs: grid(&[2, 8, 32], &[1, 2], Flush),
        },
        // Wide associativity: 8 and 32 ways and fully associative (one
        // set of 1024 or 4096 ways), the way counts past 16 the other
        // families never reach.
        Family {
            name: "wide_assoc",
            cfgs: grid(&[16, 64], &[8, 32, 0], Ignore),
        },
    ]
}

fn best_of<T>(rounds: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::MAX;
    let mut last = None;
    for _ in 0..rounds {
        let t0 = std::time::Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("rounds >= 1"))
}

fn analysis(_c: &mut Criterion) {
    if !criterion::filter_matches("analysis") {
        return;
    }

    let run = experiments::capture_standard_mix(Scale::Quick).expect("capture standard mix");
    let mut big = Trace::new();
    let mut replicas = 0u32;
    while (big.len() as u64) <= RECORD_BUDGET / 8 {
        stitch_replica(&mut big, &run.trace);
        replicas += 1;
    }
    let refs = big.ref_count() as f64;
    let replay = |cfgs: &[CacheConfig]| -> Vec<CacheStats> {
        cfgs.iter().map(|c| simulate(&big, c)).collect()
    };

    let mut rows = String::new();
    let mut f1_gain = 0.0f64;
    for fam in families() {
        // Correctness first: the one-pass sweep must equal its oracle.
        assert_eq!(
            simulate_many(&big, &fam.cfgs),
            replay(&fam.cfgs),
            "{}: one-pass sweep diverged from per-config replay",
            fam.name
        );

        // Timing: interleave the variants inside each round.
        let mut t_replay = f64::MAX;
        let mut t_many = f64::MAX;
        for _ in 0..ROUNDS {
            let (t, _) = best_of(1, || replay(&fam.cfgs));
            t_replay = t_replay.min(t);
            let (t, _) = best_of(1, || simulate_many(&big, &fam.cfgs));
            t_many = t_many.min(t);
        }
        let replay_rate = refs / t_replay;
        let many_rate = refs / t_many;
        let gain = t_replay / t_many;
        if fam.name == "f1_size_sweep" {
            f1_gain = gain;
        }
        println!(
            "bench analysis[{}]: {} configs  per-config replay {replay_rate:.3e} refs/s  \
             one-pass {many_rate:.3e} refs/s  ({gain:.2}x over replay)",
            fam.name,
            fam.cfgs.len(),
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\n      \"family\": \"{}\",\n      \"configs\": {},\n      \
             \"per_config_refs_per_sec\": {replay_rate:.1},\n      \
             \"one_pass_refs_per_sec\": {many_rate:.1},\n      \
             \"gain_over_per_config\": {gain:.3},\n      \
             \"results_identical\": true\n    }}",
            fam.name,
            fam.cfgs.len(),
        ));
    }

    assert!(
        f1_gain >= MIN_GAIN,
        "F1 sweep family must run at least {MIN_GAIN}x per-config replay, got {f1_gain:.2}x"
    );

    let json = format!(
        "{{\n  \"workload\": \"standard mix (Quick) x{replicas} replicas\",\n  \
         \"unit\": \"memory references per second\",\n  \
         \"records\": {},\n  \"refs\": {},\n  \
         \"min_gain_floor\": {MIN_GAIN},\n  \
         \"f1_gain_over_per_config\": {f1_gain:.3},\n  \
         \"families\": [\n{rows}\n  ]\n}}\n",
        big.len(),
        big.ref_count(),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_analysis.json");
    std::fs::write(out, json).expect("write BENCH_analysis.json");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = analysis
}
criterion_main!(benches);
