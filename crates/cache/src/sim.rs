//! Driving caches and TLBs from ATUM traces, plus parameter sweeps.

use crate::config::CacheConfig;
use crate::set_assoc::{AccessKind, Cache};
use crate::stats::CacheStats;
use crate::tlb::{TlbConfig, TlbSim};
use atum_core::{RecordKind, Trace, TraceRecord, TraceSource, TraceStreamError};

pub(crate) fn record_kind_to_access(kind: RecordKind) -> Option<AccessKind> {
    match kind {
        RecordKind::IFetch => Some(AccessKind::IFetch),
        RecordKind::Read => Some(AccessKind::Read),
        RecordKind::Write => Some(AccessKind::Write),
        _ => None,
    }
}

pub(crate) fn cache_step(cache: &mut Cache, r: &TraceRecord) {
    match r.kind() {
        RecordKind::CtxSwitch => cache.context_switch(r.pid()),
        kind => {
            if let Some(access) = record_kind_to_access(kind) {
                cache.access(r.addr, access, r.pid());
            }
        }
    }
}

fn tlb_step(tlb: &mut TlbSim, r: &TraceRecord) {
    match r.kind() {
        RecordKind::CtxSwitch => tlb.context_switch(r.pid()),
        kind => {
            if record_kind_to_access(kind).is_some() {
                tlb.access(r.addr, r.pid());
            }
        }
    }
}

/// Runs a trace through a cache configuration.
pub fn simulate(trace: &Trace, cfg: &CacheConfig) -> CacheStats {
    let mut cache = Cache::new(*cfg);
    for r in trace.iter() {
        cache_step(&mut cache, r);
    }
    *cache.stats()
}

/// Runs any [`TraceSource`] through a cache configuration — identical
/// results to [`simulate`] over the same records, at O(segment) memory
/// for file sources.
///
/// # Errors
///
/// Any [`TraceStreamError`] from the source.
pub fn simulate_stream<S: TraceSource>(
    source: &mut S,
    cfg: &CacheConfig,
) -> Result<CacheStats, TraceStreamError> {
    let mut cache = Cache::new(*cfg);
    source.stream(&mut |batch| {
        for r in batch {
            cache_step(&mut cache, r);
        }
    })?;
    Ok(*cache.stats())
}

/// Runs a trace through a TLB configuration.
pub fn simulate_tlb(trace: &Trace, cfg: &TlbConfig) -> CacheStats {
    let mut tlb = TlbSim::new(*cfg);
    for r in trace.iter() {
        tlb_step(&mut tlb, r);
    }
    *tlb.stats()
}

/// Runs any [`TraceSource`] through a TLB configuration — the streaming
/// form of [`simulate_tlb`].
///
/// # Errors
///
/// Any [`TraceStreamError`] from the source.
pub fn simulate_tlb_stream<S: TraceSource>(
    source: &mut S,
    cfg: &TlbConfig,
) -> Result<CacheStats, TraceStreamError> {
    let mut tlb = TlbSim::new(*cfg);
    source.stream(&mut |batch| {
        for r in batch {
            tlb_step(&mut tlb, r);
        }
    })?;
    Ok(*tlb.stats())
}

fn sweep<F>(trace: &Trace, points: &[u32], make: F) -> Vec<(u32, CacheStats)>
where
    F: Fn(u32) -> CacheConfig,
{
    let cfgs: Vec<CacheConfig> = points.iter().map(|&p| make(p)).collect();
    points
        .iter()
        .copied()
        .zip(crate::multi::simulate_many(trace, &cfgs))
        .collect()
}

/// Miss rate as a function of cache size; other parameters from `base`.
///
/// All sweeps run through [`crate::multi::simulate_many`]: LRU
/// write-back points share one trace traversal, everything else replays
/// grouped.
pub fn sweep_size(trace: &Trace, base: &CacheConfig, sizes: &[u32]) -> Vec<(u32, CacheStats)> {
    sweep(trace, sizes, |s| base.with_size(s))
}

/// Miss rate as a function of block size.
pub fn sweep_block(trace: &Trace, base: &CacheConfig, blocks: &[u32]) -> Vec<(u32, CacheStats)> {
    sweep(trace, blocks, |b| {
        CacheConfig::builder()
            .size(base.size())
            .block(b)
            .assoc(base.assoc())
            .replacement(base.replacement())
            .write_policy(base.write_policy())
            .switch_policy(base.switch_policy())
            .build()
            .expect("sweep config")
    })
}

/// Miss rate as a function of associativity.
pub fn sweep_assoc(trace: &Trace, base: &CacheConfig, ways: &[u32]) -> Vec<(u32, CacheStats)> {
    sweep(trace, ways, |w| {
        CacheConfig::builder()
            .size(base.size())
            .block(base.block())
            .assoc(w)
            .replacement(base.replacement())
            .write_policy(base.write_policy())
            .switch_policy(base.switch_policy())
            .build()
            .expect("sweep config")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SwitchPolicy;
    use atum_core::TraceRecord;

    fn looped_trace(blocks: u32, reps: u32) -> Trace {
        let mut t = Trace::new();
        for _ in 0..reps {
            for b in 0..blocks {
                t.push(TraceRecord::new(RecordKind::Read, b * 16, 4, 1, false));
            }
        }
        t
    }

    #[test]
    fn miss_rate_drops_when_working_set_fits() {
        let trace = looped_trace(256, 10); // 4 KiB working set
        let base = CacheConfig::builder().block(16).build().unwrap();
        let sweep = sweep_size(&trace, &base, &[1024, 2048, 8192]);
        let small = sweep[0].1.miss_rate();
        let large = sweep[2].1.miss_rate();
        assert!(small > 0.9, "thrashing at 1 KiB: {small}");
        assert!(large < 0.15, "fits at 8 KiB: {large}");
    }

    #[test]
    fn bigger_blocks_help_sequential_streams() {
        let mut t = Trace::new();
        for a in 0..4096u32 {
            t.push(TraceRecord::new(RecordKind::Read, a, 1, 1, false));
        }
        let base = CacheConfig::builder().size(8192).build().unwrap();
        let sweep = sweep_block(&t, &base, &[8, 32, 128]);
        let small = sweep[0].1.miss_rate();
        let big = sweep[2].1.miss_rate();
        assert!(big < small / 4.0, "spatial locality: {small} vs {big}");
    }

    #[test]
    fn associativity_fixes_conflicts() {
        let mut t = Trace::new();
        for _ in 0..100 {
            t.push(TraceRecord::new(RecordKind::Read, 0, 4, 1, false));
            t.push(TraceRecord::new(RecordKind::Read, 4096, 4, 1, false));
        }
        let base = CacheConfig::builder().size(4096).block(16).build().unwrap();
        let sweep = sweep_assoc(&t, &base, &[1, 2]);
        assert!(sweep[0].1.miss_rate() > 0.9);
        assert!(sweep[1].1.miss_rate() < 0.05);
    }

    #[test]
    fn flush_hurts_multiprogrammed_trace() {
        // Two processes alternating over the same small footprint.
        let mut t = Trace::new();
        for round in 0..50 {
            let pid = (round % 2 + 1) as u8;
            t.push(TraceRecord::new(RecordKind::CtxSwitch, 0, 0, pid, true));
            for b in 0..32u32 {
                t.push(TraceRecord::new(RecordKind::Read, b * 16, 4, pid, false));
            }
        }
        // Two ways so the two pids' identical VAs can coexist per set.
        let base = CacheConfig::builder()
            .size(8192)
            .block(16)
            .assoc(2)
            .build()
            .unwrap();
        let ignore = simulate(&t, &base);
        let flush = simulate(&t, &base.with_switch(SwitchPolicy::Flush));
        let tagged = simulate(&t, &base.with_switch(SwitchPolicy::PidTag));
        assert!(flush.miss_rate() > 0.9, "every switch restarts cold");
        assert!(tagged.miss_rate() < 0.1, "tags keep both footprints");
        // Ignore aliases the two pids onto the same lines: also low here
        // because the footprints are identical VAs.
        assert!(ignore.miss_rate() < 0.1);
        assert_eq!(flush.context_switches, 50);
    }

    #[test]
    fn tlb_simulation_runs() {
        let mut t = Trace::new();
        for p in 0..64u32 {
            t.push(TraceRecord::new(RecordKind::Read, p * 512, 4, 1, false));
        }
        let cfg = TlbConfig::new(32, 2, SwitchPolicy::Flush);
        let s = simulate_tlb(&t, &cfg);
        assert_eq!(s.accesses, 64);
        assert_eq!(s.misses, 64, "64 distinct pages through a 32-entry TLB");
    }
}
