//! Single-pass multi-configuration cache simulation.
//!
//! The paper's cache studies sweep size, block size and associativity
//! over the same captured trace. Simulating each configuration
//! separately re-walks the trace once per point; this module evaluates
//! an entire sweep in **one traversal** using a generalized
//! stack-distance (Mattson) engine.
//!
//! For set-associative LRU caches with bit-selection indexing, the
//! inclusion property holds: a reference's hit/miss outcome in a cache
//! with `S = 2^s` sets and `A` ways is determined by its *set-relative
//! stack distance* — the number of distinct blocks mapping to the same
//! set (mod `S`) that were touched since the last touch of this block.
//! One recency order therefore answers every `(S, A)` in the sweep at
//! once.
//!
//! The distance core is a **recency index** of saturated
//! order-statistic arrays, one per level (one level = one distinct set
//! count, the `s_max` bucket classes of the tz-counting formulation):
//! each set keeps the `A_max` most recently touched distinct blocks in
//! MRU order, where `A_max` is the largest way count any configuration
//! asks of this level. The truncated stack is exact below its capacity —
//! a block found at position `i` has set-relative stack distance exactly
//! `i` — and a block that fell off the end has distance `≥ A_max`, which
//! already misses in every configuration at the level. Distances the
//! sweep can never act on are never computed, so a touch costs a scan
//! that stops at the block, and a set's memory is its cache lines — at
//! any width, up to fully associative (one set, `A_max` = the line
//! count). A direct-mapped level is a single compare-and-store.
//!
//! (DESIGN §13 records the retired per-set Fenwick representation.)
//!
//! An absent block (compulsory or post-purge miss in every
//! configuration) needs no distance queries at all. Block residency,
//! first-touch history and dirty bitmasks live in one flat
//! open-addressing table keyed by `(pid_tag, blockno)` — one
//! multiplicative-hash probe per access — which also lists the slots
//! currently in the stack, so a purge visits only the resident blocks.
//!
//! Write-back accounting is *lazy*, exactly as in DESIGN §11: a block
//! whose stack distance reaches `A` was evicted at the moment its
//! `A`-th same-set successor arrived, so a dirty bit surviving to the
//! block's next touch (or to a purge, or to the end of the trace) means
//! exactly one write-back happened — counted then, not at eviction
//! time. Statistics are only observed at the end, so the deferral is
//! invisible. Dirty state is a per-entry bitmask over the group's
//! configurations.
//!
//! Inclusion requires that every access reorder the recency order the
//! same way in every configuration. That holds for LRU with
//! write-allocate; it fails for FIFO and random replacement (no stack
//! property) and for write-through-no-allocate (a write miss does not
//! insert, and whether it misses depends on the configuration). Those
//! configurations fall back to grouped per-configuration replay —
//! independent [`Cache`] models fed from the same single trace
//! traversal.
//!
//! Every engine — each stack group, each direct-replay cache — is an
//! independent sequential consumer of the same record stream, and one
//! serial loop ([`simulate_many_stream`]) feeds every batch of a
//! [`TraceSource`] to each engine in turn.
//!
//! The produced [`CacheStats`] are field-for-field identical to running
//! [`crate::sim::simulate`] per configuration. That per-configuration
//! replay is the engine's oracle: the property suite in
//! `tests/multi_equiv.rs` drives both over randomized traces (flushes,
//! PID tags, and way counts from direct-mapped to fully associative)
//! and pins the invariants — hit iff set-relative distance < ways, lazy
//! write-back settlement at re-touch/purge/end, purge invalidation =
//! resident lines within ways, first-touch history preserved across
//! purges.

use crate::config::{CacheConfig, Replacement, SwitchPolicy, WritePolicy};
use crate::set_assoc::{AccessKind, Cache};
use crate::stats::CacheStats;
use atum_core::{RecordBatch, RecordKind, Trace, TraceSource, TraceStreamError};
use std::collections::HashMap;

/// Whether a configuration can join a shared-stack group (LRU +
/// write-back; see the module docs for why the others cannot).
pub fn stackable(cfg: &CacheConfig) -> bool {
    cfg.replacement() == Replacement::Lru && cfg.write_policy() == WritePolicy::WriteBackAllocate
}

/// Sentinel for an unoccupied slot in the recency arrays and the block
/// table (a real key is `(pid_tag << 32) | blockno`, < 2^40).
const EMPTY: u64 = u64::MAX;

/// The recency index of one set count in the sweep (one "level" = one
/// distinct `2^slog`): `cap` keys per set in MRU order (non-empty
/// prefix, [`EMPTY`] tail), flat in one array indexed by the masked
/// block number. Distances are exact below `cap` and saturate at `cap`.
#[derive(Debug)]
struct Level {
    mask: u32,
    /// The widest way count any configuration asks of this level.
    cap: u32,
    slots: Vec<u64>,
    /// Indices (into the group's `cfgs`) of the configurations indexed
    /// by this set count.
    cfg_ids: Vec<usize>,
}

#[derive(Debug, Clone)]
struct GroupCfg {
    /// Index into the group's `levels` (the config's set count).
    level: usize,
    assoc: u32,
    /// Index into `simulate_many`'s input slice.
    orig: usize,
    bit: u64,
}

/// One block-table slot: a `(pid_tag, blockno)` key packed as
/// `(pid << 32) | blockno`, its per-configuration dirty bits (bit i =
/// group's i-th config), and whether it is currently in the stack
/// (cleared by a purge; the slot itself persists to carry first-touch
/// history across purges).
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    dirty: u64,
    in_stack: bool,
}

const EMPTY_SLOT: Slot = Slot {
    key: EMPTY,
    dirty: 0,
    in_stack: false,
};

/// Open-addressing block table (multiplicative hash, linear probing,
/// power-of-two capacity). Slots are never deleted — a purge only
/// clears `in_stack`/`dirty` — so probe chains never break and no
/// tombstones are needed.
#[derive(Debug)]
struct BlockTable {
    slots: Vec<Slot>,
    len: usize,
    /// Indices of the in-stack slots: pushed when a slot enters the
    /// stack, drained by a purge. Only these can be dirty or sit in a
    /// recency array.
    resident: Vec<u32>,
}

impl BlockTable {
    fn new() -> BlockTable {
        BlockTable {
            slots: vec![EMPTY_SLOT; 1024],
            len: 0,
            resident: Vec::new(),
        }
    }

    fn hash(key: u64) -> usize {
        // Fibonacci hashing; the high bits carry the mix, so fold them
        // down before masking.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24) as usize
    }

    /// Index of `key`'s slot, inserting a fresh one if absent; the
    /// second value is whether the key was newly inserted (a
    /// first-ever touch). The returned index stays valid until the
    /// next call (growth happens up front).
    fn find_or_insert(&mut self, key: u64) -> (usize, bool) {
        if self.len * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(key) & mask;
        loop {
            let k = self.slots[i].key;
            if k == key {
                return (i, false);
            }
            if k == EMPTY {
                self.slots[i] = Slot {
                    key,
                    dirty: 0,
                    in_stack: false,
                };
                self.len += 1;
                return (i, true);
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table; slots move, so the resident list is rebuilt.
    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; doubled]);
        let mask = self.slots.len() - 1;
        self.resident.clear();
        for s in old {
            if s.key == EMPTY {
                continue;
            }
            let mut i = Self::hash(s.key) & mask;
            while self.slots[i].key != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
            if s.in_stack {
                self.resident.push(i as u32);
            }
        }
    }
}

/// A shared-stack group: configurations with equal block size, switch
/// policy, LRU replacement and write-back policy, evaluated together on
/// one recency index.
///
/// Counters that are provably identical across the group's members —
/// access/kind totals, context switches, compulsory misses — are kept
/// once at group level; only hits and write-backs are per configuration
/// (misses are derived as `accesses - hits` at collection time).
#[derive(Debug)]
struct StackGroup {
    block_size: u32,
    switch: SwitchPolicy,
    cfgs: Vec<GroupCfg>,
    all_mask: u64,

    levels: Vec<Level>,
    table: BlockTable,

    // Shared across every configuration in the group.
    accesses: u64,
    ifetches: u64,
    reads: u64,
    writes: u64,
    ctx_switches: u64,
    cold: u64,

    // Per configuration.
    hits: Vec<u64>,
    ifetch_hits: Vec<u64>,
    read_hits: Vec<u64>,
    write_hits: Vec<u64>,
    writebacks: Vec<u64>,
    invalidations: Vec<u64>,

    /// Per-level scratch: the referenced block's set-relative distance
    /// at each set count.
    dist: Vec<u32>,
}

/// Occupied slots of one set: the length of its non-empty MRU prefix.
fn occupancy(set: &[u64]) -> usize {
    set.partition_point(|&k| k != EMPTY)
}

impl Level {
    fn set_mut(&mut self, set: usize) -> &mut [u64] {
        let cap = self.cap as usize;
        &mut self.slots[set * cap..(set + 1) * cap]
    }

    /// Distance of a resident block in `set` (exact below the cap),
    /// then move-to-front.
    fn touch_resident(&mut self, set: usize, key: u64) -> u32 {
        if self.cap == 1 {
            // Direct-mapped level: the set holds one block.
            let s = &mut self.slots[set];
            let d = (*s != key) as u32;
            *s = key;
            return d;
        }
        let s = self.set_mut(set);
        match s.iter().position(|&k| k == key) {
            Some(j) => {
                s[..=j].rotate_right(1);
                j as u32
            }
            None => {
                // Fell off the end: the set is full, every slot shifts.
                s.rotate_right(1);
                s[0] = key;
                s.len() as u32
            }
        }
    }

    /// Inserts a block that is not in the stack (first touch or
    /// post-purge) at the top of the recency order.
    fn touch_absent(&mut self, set: usize, key: u64) {
        if self.cap == 1 {
            self.slots[set] = key;
            return;
        }
        let s = self.set_mut(set);
        // Only the occupied prefix moves, so a wide set that is still
        // filling does not pay a full-width shift per insertion.
        let n = occupancy(s).min(s.len() - 1);
        s[..=n].rotate_right(1);
        s[0] = key;
    }

    /// Current distance of a block without reordering (saturated at the
    /// cap), for the end-of-trace residency checks.
    fn position(&self, set: usize, key: u64) -> u32 {
        let cap = self.cap as usize;
        let s = &self.slots[set * cap..(set + 1) * cap];
        s.iter().position(|&k| k == key).unwrap_or(cap) as u32
    }

    /// Empties `set`, returning how many blocks it held (the true live
    /// count saturated at the cap — enough, since every `assoc` at the
    /// level is at most the cap).
    fn purge_set(&mut self, set: usize) -> u32 {
        let s = self.set_mut(set);
        let live = occupancy(s);
        s[..live].fill(EMPTY);
        live as u32
    }
}

impl StackGroup {
    fn new(configs: &[CacheConfig], orig_indices: &[usize]) -> StackGroup {
        assert!(orig_indices.len() <= 64, "dirty bitmask is 64 bits wide");
        let block_size = configs[orig_indices[0]].block();
        let switch = configs[orig_indices[0]].switch_policy();
        let mut slogs: Vec<usize> = orig_indices
            .iter()
            .map(|&o| configs[o].sets().trailing_zeros() as usize)
            .collect();
        slogs.sort_unstable();
        slogs.dedup();
        let mut cfg_ids: Vec<Vec<usize>> = vec![Vec::new(); slogs.len()];
        let mut max_assoc = vec![0u32; slogs.len()];
        let cfgs: Vec<GroupCfg> = orig_indices
            .iter()
            .enumerate()
            .map(|(i, &orig)| {
                let c = &configs[orig];
                debug_assert_eq!(c.block(), block_size);
                debug_assert_eq!(c.switch_policy(), switch);
                let slog = c.sets().trailing_zeros() as usize;
                let level = slogs.binary_search(&slog).expect("level exists");
                cfg_ids[level].push(i);
                max_assoc[level] = max_assoc[level].max(c.assoc());
                GroupCfg {
                    level,
                    assoc: c.assoc(),
                    orig,
                    bit: 1u64 << i,
                }
            })
            .collect();
        let levels: Vec<Level> = slogs
            .iter()
            .zip(cfg_ids)
            .zip(&max_assoc)
            .map(|((&s, ids), &cap)| Level {
                mask: ((1u64 << s) - 1) as u32,
                cap,
                slots: vec![EMPTY; (1usize << s) * cap as usize],
                cfg_ids: ids,
            })
            .collect();
        let n = cfgs.len();
        StackGroup {
            block_size,
            switch,
            all_mask: if n == 64 { u64::MAX } else { (1u64 << n) - 1 },
            cfgs,
            dist: vec![0; levels.len()],
            levels,
            table: BlockTable::new(),
            accesses: 0,
            ifetches: 0,
            reads: 0,
            writes: 0,
            ctx_switches: 0,
            cold: 0,
            hits: vec![0; n],
            ifetch_hits: vec![0; n],
            read_hits: vec![0; n],
            write_hits: vec![0; n],
            writebacks: vec![0; n],
            invalidations: vec![0; n],
        }
    }

    /// Assembles the full statistics for the group's `i`-th member.
    fn stats_for(&self, i: usize) -> CacheStats {
        CacheStats {
            accesses: self.accesses,
            hits: self.hits[i],
            misses: self.accesses - self.hits[i],
            cold_misses: self.cold,
            ifetch_accesses: self.ifetches,
            ifetch_misses: self.ifetches - self.ifetch_hits[i],
            read_accesses: self.reads,
            read_misses: self.reads - self.read_hits[i],
            write_accesses: self.writes,
            write_misses: self.writes - self.write_hits[i],
            writebacks: self.writebacks[i],
            write_throughs: 0,
            flush_invalidations: self.invalidations[i],
            context_switches: self.ctx_switches,
        }
    }

    fn context_switch(&mut self) {
        self.ctx_switches += 1;
        if self.switch == SwitchPolicy::Flush {
            self.flush();
        }
    }

    /// Purge accounting: every resident line counts an invalidation;
    /// every surviving dirty bit counts a write-back (resident ⇒ the
    /// purge writes it back now, non-resident ⇒ its past eviction did) —
    /// then the index is emptied (first-touch history is kept, matching
    /// `Cache`). Only the in-stack blocks are visited: each one settles
    /// its dirty bits and, at every level, empties its set if that set
    /// is still occupied. The resident lines of a configuration with `A`
    /// ways are the top `min(A, occupancy)` of each set. Every occupied
    /// set holds only in-stack blocks, so the walk empties the whole
    /// index.
    fn flush(&mut self) {
        for &idx in &self.table.resident {
            let s = &mut self.table.slots[idx as usize];
            if s.dirty != 0 {
                for (i, c) in self.cfgs.iter().enumerate() {
                    if s.dirty & c.bit != 0 {
                        self.writebacks[i] += 1;
                    }
                }
            }
            s.in_stack = false;
            s.dirty = 0;
            let blockno = s.key as u32;
            for lvl in &mut self.levels {
                let live = lvl.purge_set((blockno & lvl.mask) as usize);
                if live == 0 {
                    continue;
                }
                for &i in &lvl.cfg_ids {
                    self.invalidations[i] += live.min(self.cfgs[i].assoc) as u64;
                }
            }
        }
        self.table.resident.clear();
        debug_assert!(self
            .levels
            .iter()
            .all(|l| l.slots.iter().all(|&k| k == EMPTY)));
    }

    /// End-of-trace settlement for the lazy write-back accounting: a
    /// dirty bit on a block that is no longer resident records an
    /// eviction-time write-back that was deferred; resident dirty lines
    /// stay uncounted (they are still in the cache), matching `Cache`.
    /// Only in-stack blocks can be dirty; residency is one recency query
    /// per level.
    fn finish(&mut self) {
        for &idx in &self.table.resident {
            let s = self.table.slots[idx as usize];
            if s.dirty == 0 {
                continue;
            }
            let blockno = s.key as u32;
            for (d, lvl) in self.dist.iter_mut().zip(&self.levels) {
                *d = lvl.position((blockno & lvl.mask) as usize, s.key);
            }
            for (i, c) in self.cfgs.iter().enumerate() {
                if s.dirty & c.bit != 0 && self.dist[c.level] >= c.assoc {
                    self.writebacks[i] += 1;
                }
            }
        }
    }

    fn access(&mut self, addr: u32, kind: AccessKind, pid: u8) {
        let is_write = kind.is_write();
        self.accesses += 1;
        match kind {
            AccessKind::IFetch => self.ifetches += 1,
            AccessKind::Read => self.reads += 1,
            AccessKind::Write => self.writes += 1,
        }
        let pid_tag = match self.switch {
            SwitchPolicy::PidTag => pid,
            _ => 0,
        };
        let blockno = addr / self.block_size;
        let key = ((pid_tag as u64) << 32) | blockno as u64;
        let (idx, is_new) = self.table.find_or_insert(key);
        let slot = self.table.slots[idx];

        let mut hit_mask = 0u64;
        let mut old_dirty = 0u64;
        if slot.in_stack {
            old_dirty = slot.dirty;
            // One bounded query per level answers the set-relative
            // stack distance (exact wherever it matters); a hit in
            // `(2^s, A)` iff the distance at level s is below A. The
            // query and the move-to-front reorder share one pass.
            for (d, lvl) in self.dist.iter_mut().zip(&mut self.levels) {
                *d = lvl.touch_resident((blockno & lvl.mask) as usize, key);
            }
            let kind_hits = match kind {
                AccessKind::IFetch => &mut self.ifetch_hits,
                AccessKind::Read => &mut self.read_hits,
                AccessKind::Write => &mut self.write_hits,
            };
            for (i, c) in self.cfgs.iter().enumerate() {
                if self.dist[c.level] < c.assoc {
                    self.hits[i] += 1;
                    kind_hits[i] += 1;
                    hit_mask |= c.bit;
                } else if old_dirty & c.bit != 0 {
                    // Lazy write-back: a miss on a block still in the
                    // stack means it was evicted since its last touch;
                    // a surviving dirty bit records that the eviction
                    // wrote it back. The bit itself is dropped by the
                    // `hit_mask` filter below.
                    self.writebacks[i] += 1;
                }
            }
        } else {
            // A first touch is a compulsory miss in every configuration
            // simultaneously; any other absent block (purged earlier)
            // misses everywhere too. Either way no distance queries are
            // needed.
            if is_new {
                self.cold += 1;
            }
            for lvl in &mut self.levels {
                lvl.touch_absent((blockno & lvl.mask) as usize, key);
            }
            self.table.resident.push(idx as u32);
        }

        // Allocate-on-miss everywhere (write-back groups only), so every
        // configuration reorders identically. Hit configurations keep
        // their dirty bit; miss configurations start the fresh line
        // clean unless this access writes it.
        let dirty = (old_dirty & hit_mask) | if is_write { self.all_mask } else { 0 };
        let s = &mut self.table.slots[idx];
        s.dirty = dirty;
        s.in_stack = true;
    }
}

/// One independent sequential consumer of the record stream: a shared
/// stack group, or a direct per-configuration [`Cache`] replay.
#[derive(Debug)]
enum Engine {
    Group(StackGroup),
    Direct { orig: usize, cache: Cache },
}

impl Engine {
    /// Feeds a whole batch: the engine kind is matched once per batch,
    /// and the SoA columns stream linearly through the engine.
    fn step_batch(&mut self, batch: &RecordBatch) {
        match self {
            Engine::Group(g) => {
                for r in batch.iter() {
                    match r.kind() {
                        RecordKind::CtxSwitch => g.context_switch(),
                        kind => {
                            if let Some(access) = crate::sim::record_kind_to_access(kind) {
                                g.access(r.addr, access, r.pid());
                            }
                        }
                    }
                }
            }
            Engine::Direct { cache, .. } => {
                for r in batch.iter() {
                    crate::sim::cache_step(cache, &r);
                }
            }
        }
    }
}

/// The incremental form of [`simulate_many`]: sweep state that consumes
/// record batches via [`MultiSim::step_batch`], so callers can drive it
/// from any [`TraceSource`] without materialising the records.
#[derive(Debug)]
pub struct MultiSim {
    n: usize,
    engines: Vec<Engine>,
}

impl MultiSim {
    /// Prepares a sweep over `cfgs`: stackable configurations join
    /// shared-stack groups, the rest get independent [`Cache`] replays.
    pub fn new(cfgs: &[CacheConfig]) -> MultiSim {
        let mut engines: Vec<Engine> = Vec::new();
        let mut grouped: HashMap<(u32, u8), Vec<usize>> = HashMap::new();
        for (i, c) in cfgs.iter().enumerate() {
            if stackable(c) {
                grouped
                    .entry((c.block(), c.switch_policy() as u8))
                    .or_default()
                    .push(i);
            } else {
                engines.push(Engine::Direct {
                    orig: i,
                    cache: Cache::new(*c),
                });
            }
        }
        // A one-config group gets no amortization from the shared stack
        // and would pay its walk costs for nothing — replay it directly.
        for indices in grouped.values() {
            for chunk in indices.chunks(64) {
                if chunk.len() == 1 {
                    engines.push(Engine::Direct {
                        orig: chunk[0],
                        cache: Cache::new(cfgs[chunk[0]]),
                    });
                } else {
                    engines.push(Engine::Group(StackGroup::new(cfgs, chunk)));
                }
            }
        }
        MultiSim {
            n: cfgs.len(),
            engines,
        }
    }

    /// Feeds one record batch to every engine, serially.
    pub fn step_batch(&mut self, batch: &RecordBatch) {
        for e in &mut self.engines {
            e.step_batch(batch);
        }
    }

    /// Settles the lazy write-back accounting and assembles the final
    /// statistics, index-aligned with the input configurations.
    pub fn finish(mut self) -> Vec<CacheStats> {
        let mut out = vec![CacheStats::default(); self.n];
        for e in &mut self.engines {
            match e {
                Engine::Group(g) => {
                    g.finish();
                    for (i, c) in g.cfgs.iter().enumerate() {
                        out[c.orig] = g.stats_for(i);
                    }
                }
                Engine::Direct { orig, cache } => {
                    out[*orig] = *cache.stats();
                }
            }
        }
        out
    }
}

/// Simulates every configuration in one traversal of the trace.
///
/// Results are index-aligned with `cfgs` and identical to calling
/// [`crate::sim::simulate`] per configuration. LRU write-back
/// configurations sharing a block size and switch policy are evaluated
/// by the stack-distance engine; the rest replay on independent
/// [`Cache`] models driven from the same traversal.
pub fn simulate_many(trace: &Trace, cfgs: &[CacheConfig]) -> Vec<CacheStats> {
    simulate_many_stream(&mut trace.source(), cfgs).expect("in-memory source cannot fail")
}

/// The out-of-core form of [`simulate_many`], and the one loop every
/// sweep entry point runs: the source is rewound, then each batch is fed
/// to every engine in turn. An on-disk segment file streams through at
/// O(segment) resident memory, and the results are identical to the
/// in-memory pass over the same records.
///
/// # Errors
///
/// Any [`TraceStreamError`] from the source.
pub fn simulate_many_stream<S: TraceSource + ?Sized>(
    source: &mut S,
    cfgs: &[CacheConfig],
) -> Result<Vec<CacheStats>, TraceStreamError> {
    let mut sim = MultiSim::new(cfgs);
    source.rewind()?;
    while let Some(batch) = source.next_batch()? {
        sim.step_batch(batch);
    }
    Ok(sim.finish())
}

/// Kept only for the benchmark harness, which still calls it: forwards
/// to [`simulate_many_stream`] and ignores `jobs` (the pass is serial).
///
/// # Errors
///
/// Any [`TraceStreamError`] from the source.
pub fn simulate_many_parallel<S: TraceSource + ?Sized>(
    source: &mut S,
    cfgs: &[CacheConfig],
    _jobs: usize,
) -> Result<Vec<CacheStats>, TraceStreamError> {
    simulate_many_stream(source, cfgs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;
    use atum_core::TraceRecord;

    fn trace_with_switches() -> Trace {
        let mut t = Trace::new();
        // Two processes ping-ponging over overlapping footprints, with
        // strided writes so write-back accounting is exercised.
        for round in 0..30u32 {
            let pid = (round % 3) as u8 + 1;
            t.push(TraceRecord::new(RecordKind::CtxSwitch, 0, 0, pid, true));
            for b in 0..48u32 {
                let addr = (b * 16 + round * 8) % 4096;
                let kind = if b % 5 == 0 {
                    RecordKind::Write
                } else if b % 7 == 0 {
                    RecordKind::IFetch
                } else {
                    RecordKind::Read
                };
                t.push(TraceRecord::new(kind, addr, 4, pid, false));
            }
        }
        t
    }

    fn sweep_configs(switch: SwitchPolicy) -> Vec<CacheConfig> {
        let mut v = Vec::new();
        for size in [256u32, 512, 1024, 4096] {
            for assoc in [1u32, 2, 4] {
                v.push(
                    CacheConfig::builder()
                        .size(size)
                        .block(16)
                        .assoc(assoc)
                        .switch_policy(switch)
                        .build()
                        .unwrap(),
                );
            }
        }
        v
    }

    #[test]
    fn matches_reference_for_each_switch_policy() {
        let t = trace_with_switches();
        for switch in [
            SwitchPolicy::Ignore,
            SwitchPolicy::Flush,
            SwitchPolicy::PidTag,
        ] {
            let cfgs = sweep_configs(switch);
            let many = simulate_many(&t, &cfgs);
            for (cfg, got) in cfgs.iter().zip(&many) {
                let want = simulate(&t, cfg);
                assert_eq!(*got, want, "mismatch under {cfg}");
            }
        }
    }

    #[test]
    fn non_lru_configs_fall_back_and_still_match() {
        let t = trace_with_switches();
        let cfgs: Vec<CacheConfig> = [Replacement::Fifo, Replacement::Random, Replacement::Lru]
            .into_iter()
            .map(|r| {
                CacheConfig::builder()
                    .size(512)
                    .block(16)
                    .assoc(2)
                    .replacement(r)
                    .build()
                    .unwrap()
            })
            .collect();
        let many = simulate_many(&t, &cfgs);
        for (cfg, got) in cfgs.iter().zip(&many) {
            assert_eq!(*got, simulate(&t, cfg), "mismatch under {cfg}");
        }
    }

    #[test]
    fn write_through_falls_back() {
        let cfg = CacheConfig::builder()
            .size(512)
            .block(16)
            .write_policy(WritePolicy::WriteThroughNoAllocate)
            .build()
            .unwrap();
        assert!(!stackable(&cfg));
        let t = trace_with_switches();
        assert_eq!(simulate_many(&t, &[cfg])[0], simulate(&t, &cfg));
    }

    #[test]
    fn mixed_block_sizes_split_into_groups() {
        let t = trace_with_switches();
        let cfgs: Vec<CacheConfig> = [8u32, 16, 32]
            .into_iter()
            .map(|b| CacheConfig::builder().size(1024).block(b).build().unwrap())
            .collect();
        let many = simulate_many(&t, &cfgs);
        for (cfg, got) in cfgs.iter().zip(&many) {
            assert_eq!(*got, simulate(&t, cfg), "mismatch under {cfg}");
        }
    }

    #[test]
    fn empty_input() {
        assert!(simulate_many(&Trace::new(), &[]).is_empty());
    }

    #[test]
    fn streamed_matches_in_memory() {
        let t = trace_with_switches();
        for switch in [
            SwitchPolicy::Ignore,
            SwitchPolicy::Flush,
            SwitchPolicy::PidTag,
        ] {
            let cfgs = sweep_configs(switch);
            let want = simulate_many(&t, &cfgs);
            assert_eq!(simulate_many_stream(&mut t.source(), &cfgs).unwrap(), want);
        }
    }

    #[test]
    fn high_associativity_levels_match() {
        // 32 and 64 ways, up to fully associative (1 KiB / 16 B = one
        // 64-way set), share the group with narrow configurations at
        // the same block size; wide levels scan and shift whole sets.
        let t = trace_with_switches();
        let mut cfgs: Vec<CacheConfig> = [(1024u32, 32u32), (4096, 32), (1024, 64), (4096, 64)]
            .into_iter()
            .map(|(size, assoc)| {
                CacheConfig::builder()
                    .size(size)
                    .block(16)
                    .assoc(assoc)
                    .build()
                    .unwrap()
            })
            .collect();
        cfgs.extend(sweep_configs(SwitchPolicy::Ignore));
        let many = simulate_many(&t, &cfgs);
        for (cfg, got) in cfgs.iter().zip(&many) {
            assert_eq!(*got, simulate(&t, cfg), "mismatch under {cfg}");
        }
    }

    #[test]
    fn purges_stay_exact_across_block_table_growth() {
        // Thousands of distinct blocks force the block table to grow
        // (moving every slot) between purges, so the resident list the
        // purge walks must follow the moves.
        let mut t = Trace::new();
        for round in 0..8u32 {
            t.push(TraceRecord::new(RecordKind::CtxSwitch, 0, 0, 1, true));
            for b in 0..1500u32 {
                let kind = if b % 3 == 0 {
                    RecordKind::Write
                } else {
                    RecordKind::Read
                };
                let addr = (round * 1100 + b) * 16;
                t.push(TraceRecord::new(kind, addr, 4, 1, false));
            }
        }
        let mut cfgs = sweep_configs(SwitchPolicy::Flush);
        cfgs.push(
            CacheConfig::builder()
                .size(4096)
                .block(16)
                .assoc(256)
                .switch_policy(SwitchPolicy::Flush)
                .build()
                .unwrap(),
        );
        let many = simulate_many(&t, &cfgs);
        for (cfg, got) in cfgs.iter().zip(&many) {
            assert_eq!(*got, simulate(&t, cfg), "mismatch under {cfg}");
        }
    }
}
