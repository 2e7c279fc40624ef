//! The analysis half of the pipeline: decode a segment file from disk and
//! sweep it through the paper's cache, TLB and working-set families.

use crate::spans::Spans;
use crate::{Checks, Counters, JOBS};
use atum_analysis::working_set_curve_stream;
use atum_cache::{
    simulate, simulate_many_parallel, simulate_stream, simulate_tlb_stream, CacheConfig,
    CacheStats, MultiSim, Replacement, SwitchPolicy, TlbConfig, WritePolicy,
};
use atum_core::{RecordBatch, SegmentFileSource, Trace, TraceSource};
use std::path::Path;
use std::time::Instant;

fn cfg(size: u32, assoc: u32, switch: SwitchPolicy) -> CacheConfig {
    CacheConfig::builder()
        .size(size)
        .block(16)
        .assoc(assoc)
        .switch_policy(switch)
        .build()
        .expect("valid config")
}

/// F1: direct-mapped, 16 B blocks, 1 KiB–256 KiB.
pub fn f1() -> Vec<CacheConfig> {
    (10..=18)
        .map(|b| cfg(1 << b, 1, SwitchPolicy::Ignore))
        .collect()
}

/// F2: 2-way, 4 KiB–64 KiB, under each context-switch policy.
fn f2() -> Vec<CacheConfig> {
    let mut v = Vec::new();
    for sw in [
        SwitchPolicy::Ignore,
        SwitchPolicy::Flush,
        SwitchPolicy::PidTag,
    ] {
        for b in [12, 14, 16] {
            v.push(cfg(1 << b, 2, sw));
        }
    }
    v
}

/// F4: 1–32 ways at 4/16/64 KiB, pid-tagged; 32 ways is above the
/// saturated-array cap of 16, so it runs on the Fenwick tier.
fn f4() -> Vec<CacheConfig> {
    let mut v = Vec::new();
    for b in [12, 14, 16] {
        for w in [1, 2, 4, 8, 32] {
            v.push(cfg(1 << b, w, SwitchPolicy::PidTag));
        }
    }
    v
}

/// Configurations no shared stack can answer (FIFO, write-through):
/// each needs its own pass.
fn per_config() -> Vec<CacheConfig> {
    let fifo = |size| {
        CacheConfig::builder()
            .size(size)
            .block(16)
            .assoc(4)
            .replacement(Replacement::Fifo)
            .build()
            .expect("valid config")
    };
    let wt = |size| {
        CacheConfig::builder()
            .size(size)
            .block(16)
            .assoc(1)
            .write_policy(WritePolicy::WriteThroughNoAllocate)
            .build()
            .expect("valid config")
    };
    vec![fifo(8 << 10), fifo(32 << 10), wt(8 << 10), wt(32 << 10)]
}

/// F5: 2-way TLBs.
const TLB_ENTRIES: [u32; 3] = [8, 32, 128];

/// E4: working-set windows, in references.
const WINDOWS: [usize; 4] = [1_000, 4_000, 16_000, 64_000];

/// Back-to-back step times: each [`Steps::lap`] ends one step and
/// starts the next.
struct Steps {
    start: Instant,
    secs: Vec<f64>,
}

impl Steps {
    fn new() -> Steps {
        Steps {
            start: Instant::now(),
            secs: Vec::new(),
        }
    }

    fn lap(&mut self) {
        let now = Instant::now();
        self.secs.push((now - self.start).as_secs_f64());
        self.start = now;
    }
}

/// One sweep of a segment file, as measured.
#[derive(Debug)]
pub struct Swept {
    /// Host seconds for decode plus every family.
    pub secs: f64,
    /// Host seconds of each step, in order: decode, then each family.
    pub step_secs: Vec<f64>,
    /// Memory references in the trace.
    pub refs: u64,
    /// Deterministic counters of the sweep.
    pub counters: Counters,
}

/// Serial `MultiSim` over batches already decoded.
fn multisim(batches: &[RecordBatch], cfgs: &[CacheConfig], spans: &mut Spans) -> Vec<CacheStats> {
    spans.enter("cache.multisim_s");
    let mut sim = MultiSim::new(cfgs);
    for b in batches {
        sim.step_batch(b);
    }
    let out = sim.finish();
    spans.exit();
    out
}

fn parallel<S: TraceSource>(
    src: &mut S,
    cfgs: &[CacheConfig],
    spans: &mut Spans,
) -> Result<Vec<CacheStats>, String> {
    spans.enter("cache.parallel_s");
    let out = simulate_many_parallel(src, cfgs, JOBS);
    spans.exit();
    out.map_err(|e| format!("parallel sweep: {e}"))
}

/// Decodes `path` and runs every family. With `replay_checks`, one
/// config per family is also replayed alone with per-config `simulate`
/// and compared (outside the timed region).
pub fn sweep(
    path: &Path,
    replay_checks: bool,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Result<Swept, String> {
    let t0 = Instant::now();
    let mut steps = Steps::new();

    spans.enter("core.decode_s");
    let mut src = SegmentFileSource::new(path);
    let mut batches: Vec<RecordBatch> = Vec::new();
    let decoded = loop {
        match src.next_batch() {
            Ok(Some(b)) => batches.push(b.clone()),
            Ok(None) => break Ok(()),
            Err(e) => break Err(format!("decode {path:?}: {e}")),
        }
    };
    let trace: Trace = batches.iter().flat_map(RecordBatch::iter).collect();
    spans.exit();
    decoded?;
    steps.lap();

    let (f1, f2, f4, pc) = (f1(), f2(), f4(), per_config());
    let f1c = multisim(&batches, &f1, spans);
    steps.lap();
    let f1u = parallel(&mut trace.user_source(), &f1, spans)?;
    steps.lap();
    let f2s = multisim(&batches, &f2, spans);
    steps.lap();
    let f2p = parallel(&mut trace.source(), &f2, spans)?;
    steps.lap();
    let f4s = multisim(&batches, &f4, spans);
    steps.lap();

    spans.enter("cache.percfg_s");
    let pcs: Result<Vec<CacheStats>, _> = pc
        .iter()
        .map(|c| simulate_stream(&mut trace.source(), c))
        .collect();
    spans.exit();
    let pcs = pcs.map_err(|e| format!("per-config sweep: {e}"))?;
    steps.lap();

    spans.enter("cache.tlb_s");
    let tlbs: Result<Vec<CacheStats>, _> = TLB_ENTRIES
        .iter()
        .flat_map(|&e| {
            [
                (SwitchPolicy::Flush, false),
                (SwitchPolicy::PidTag, false),
                (SwitchPolicy::PidTag, true),
            ]
            .map(|(sw, user)| (TlbConfig::new(e, 2, sw), user))
        })
        .map(|(c, user)| {
            if user {
                simulate_tlb_stream(&mut trace.user_source(), &c)
            } else {
                simulate_tlb_stream(&mut trace.source(), &c)
            }
        })
        .collect();
    spans.exit();
    let tlbs = tlbs.map_err(|e| format!("tlb sweep: {e}"))?;
    steps.lap();

    spans.enter("analysis.working_set_s");
    let ws = working_set_curve_stream(&mut trace.source(), &WINDOWS).and_then(|full| {
        working_set_curve_stream(&mut trace.user_source(), &WINDOWS).map(|user| (full, user))
    });
    spans.exit();
    let (ws_full, ws_user) = ws.map_err(|e| format!("working set: {e}"))?;
    steps.lap();

    let secs = t0.elapsed().as_secs_f64();

    checks.check(
        "F2 engine-parallel sweep equals the serial MultiSim",
        f2s == f2p,
    );
    if replay_checks {
        checks.check(
            "F1 16 KiB replayed alone equals MultiSim",
            simulate(&trace, &f1[4]) == f1c[4],
        );
        let alone = simulate_stream(&mut trace.user_source(), &f1[4]).map_err(|e| e.to_string())?;
        checks.check(
            "F1 user-only 16 KiB replayed alone equals MultiSim",
            alone == f1u[4],
        );
        checks.check(
            "F2 flush 16 KiB replayed alone equals MultiSim",
            simulate(&trace, &f2[4]) == f2s[4],
        );
        checks.check(
            "F4 16 KiB 32-way replayed alone equals MultiSim",
            simulate(&trace, &f4[9]) == f4s[9],
        );
    }

    let all: Vec<&CacheStats> = [&f1c, &f1u, &f2s, &f2p, &f4s, &pcs, &tlbs]
        .into_iter()
        .flatten()
        .collect();
    let refs = f1c[0].accesses;
    checks.check(
        "every complete-trace config saw every reference",
        f1c.iter()
            .chain(&f2s)
            .chain(&f4s)
            .chain(&pcs)
            .all(|s| s.accesses == refs),
    );
    let ws_digest = ws_full
        .iter()
        .chain(&ws_user)
        .map(|w| w.max_pages as u64 * 1_000_003 + (w.mean_pages * 1e6) as u64)
        .fold(0u64, |a, x| a.wrapping_mul(31).wrapping_add(x));
    Ok(Swept {
        secs,
        step_secs: steps.secs,
        refs,
        counters: Counters::from([
            ("core.batches", batches.len() as u64),
            ("core.decoded_records", trace.len() as u64),
            ("machine.ctx_switches", f1c[0].context_switches),
            ("cache.configs", all.len() as u64),
            ("cache.accesses", all.iter().map(|s| s.accesses).sum()),
            ("cache.misses", all.iter().map(|s| s.misses).sum()),
            ("analysis.ws_digest", ws_digest),
        ]),
    })
}
