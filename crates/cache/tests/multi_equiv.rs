//! Property tests: the single-pass multi-configuration engine against
//! per-configuration [`simulate`] — every [`CacheStats`] field must be
//! identical for every configuration of a random sweep over a random
//! access stream with context switches, under all switch policies, at
//! way counts on both sides of the saturated-array cap (so both stack
//! tiers are checked), and including the non-LRU / write-through
//! configurations that take the grouped-replay fallback. Per-config
//! replay is the stack engine's only oracle.

use atum_cache::{
    simulate, simulate_many, simulate_many_stream, CacheConfig, Replacement, SwitchPolicy,
    WritePolicy,
};
use atum_core::{encode_trace, RecordKind, SegmentFileSource, Trace, TraceRecord};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Event {
    Access {
        addr: u32,
        kind: RecordKind,
        pid: u8,
    },
    Switch {
        pid: u8,
    },
}

fn event() -> impl Strategy<Value = Event> {
    prop_oneof![
        10 => (0u32..8192, 0u8..3, 0u8..4).prop_map(|(addr, k, pid)| Event::Access {
            addr,
            kind: match k {
                0 => RecordKind::IFetch,
                1 => RecordKind::Read,
                _ => RecordKind::Write,
            },
            pid,
        }),
        1 => (0u8..4).prop_map(|pid| Event::Switch { pid }),
    ]
}

fn trace_of(events: &[Event]) -> Trace {
    let mut t = Trace::new();
    for e in events {
        match *e {
            Event::Access { addr, kind, pid } => {
                t.push(TraceRecord::new(kind, addr, 4, pid, false));
            }
            Event::Switch { pid } => {
                t.push(TraceRecord::new(RecordKind::CtxSwitch, 0, 0, pid, true));
            }
        }
    }
    t
}

fn switch_policy() -> impl Strategy<Value = SwitchPolicy> {
    prop_oneof![
        Just(SwitchPolicy::Ignore),
        Just(SwitchPolicy::Flush),
        Just(SwitchPolicy::PidTag),
    ]
}

/// A stack-engine-eligible configuration: LRU + write-back-allocate.
/// 32 ways exceeds the 16-way saturated-array cap, so those levels run
/// on the Fenwick recency trees.
fn lru_writeback_config() -> impl Strategy<Value = CacheConfig> {
    (
        prop_oneof![Just(256u32), Just(512), Just(1024), Just(2048), Just(8192)],
        prop_oneof![Just(8u32), Just(16), Just(32)],
        prop_oneof![Just(1u32), Just(2), Just(4), Just(8), Just(32)],
        switch_policy(),
    )
        .prop_filter_map("valid config", |(size, block, assoc, switch)| {
            CacheConfig::builder()
                .size(size)
                .block(block)
                .assoc(assoc)
                .switch_policy(switch)
                .build()
                .ok()
        })
}

/// Any configuration, including fallback replacement/write policies.
fn any_config() -> impl Strategy<Value = CacheConfig> {
    (
        lru_writeback_config(),
        prop_oneof![
            Just(Replacement::Lru),
            Just(Replacement::Fifo),
            Just(Replacement::Random),
        ],
        prop_oneof![
            Just(WritePolicy::WriteBackAllocate),
            Just(WritePolicy::WriteThroughNoAllocate),
        ],
    )
        .prop_filter_map("valid config", |(base, repl, write)| {
            CacheConfig::builder()
                .size(base.size())
                .block(base.block())
                .assoc(base.assoc())
                .switch_policy(base.switch_policy())
                .replacement(repl)
                .write_policy(write)
                .build()
                .ok()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn stack_engine_matches_simulate(
        cfgs in proptest::collection::vec(lru_writeback_config(), 1..9),
        events in proptest::collection::vec(event(), 1..500),
    ) {
        let trace = trace_of(&events);
        let many = simulate_many(&trace, &cfgs);
        for (cfg, got) in cfgs.iter().zip(&many) {
            let want = simulate(&trace, cfg);
            prop_assert_eq!(*got, want, "single-pass diverges under {}", cfg);
        }
    }

    #[test]
    fn mixed_policy_sweeps_match_simulate(
        cfgs in proptest::collection::vec(any_config(), 1..9),
        events in proptest::collection::vec(event(), 1..500),
    ) {
        let trace = trace_of(&events);
        let many = simulate_many(&trace, &cfgs);
        // The same records streamed back from an on-disk segment file.
        let path = std::env::temp_dir().join(format!(
            "atum-multi-equiv-{}.atrace",
            std::process::id()
        ));
        std::fs::write(&path, encode_trace(&trace)).expect("write");
        let streamed = simulate_many_stream(&mut SegmentFileSource::new(&path), &cfgs);
        let _ = std::fs::remove_file(&path);
        let streamed = streamed.expect("decode");
        for ((cfg, got), from_file) in cfgs.iter().zip(&many).zip(&streamed) {
            let want = simulate(&trace, cfg);
            prop_assert_eq!(*got, want, "sweep member diverges under {}", cfg);
            prop_assert_eq!(*from_file, want, "file-sourced sweep diverges under {}", cfg);
        }
    }

    #[test]
    fn inclusion_holds_within_stack_groups(
        events in proptest::collection::vec(event(), 1..500),
    ) {
        // The property the engine is built on: with LRU write-back and a
        // fixed block size, adding ways (same set count) never adds
        // misses.
        let trace = trace_of(&events);
        let cfgs: Vec<CacheConfig> = [1u32, 2, 4]
            .into_iter()
            .map(|w| {
                CacheConfig::builder()
                    .size(512 * w)
                    .block(16)
                    .assoc(w)
                    .build()
                    .unwrap()
            })
            .collect();
        let many = simulate_many(&trace, &cfgs);
        prop_assert!(many[1].misses <= many[0].misses);
        prop_assert!(many[2].misses <= many[1].misses);
    }
}
