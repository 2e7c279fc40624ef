//! Property test: the working-set kernel against a naive model — one
//! `HashSet` of `(pid, page)` per window — over random pid/page streams
//! with context-switch markers. All four public forms are checked, at
//! window sizes from 1 up to longer than the trace, in memory and
//! streamed back from an on-disk segment file.

use atum_analysis::{
    working_set, working_set_curve, working_set_curve_stream, working_set_stream, WorkingSet,
};
use atum_core::{encode_trace, RecordKind, SegmentFileSource, Trace, TraceRecord};
use proptest::prelude::*;
use std::collections::HashSet;

/// One record per `(pid, addr, kind)` draw: kinds 0–2 are references,
/// 3 a context-switch marker.
fn trace_of(draws: &[(u8, u32, u8)]) -> Trace {
    let kinds = [RecordKind::IFetch, RecordKind::Read, RecordKind::Write];
    draws
        .iter()
        .map(|&(pid, addr, k)| match kinds.get(k as usize) {
            Some(&kind) => TraceRecord::new(kind, addr, 4, pid, false),
            None => TraceRecord::new(RecordKind::CtxSwitch, 0, 0, pid, true),
        })
        .collect()
}

/// Distinct `(pid, page)` pairs per whole window of references, summed
/// in window order; a trailing partial window is not measured.
fn naive(trace: &Trace, window: usize) -> WorkingSet {
    let refs: Vec<(u8, u32)> = trace
        .iter()
        .filter(|r| r.is_ref())
        .map(|r| (r.pid(), r.page()))
        .collect();
    let (mut sum, mut max_pages, mut windows) = (0.0f64, 0usize, 0usize);
    for chunk in refs.chunks_exact(window) {
        let pages = chunk.iter().collect::<HashSet<_>>().len();
        sum += pages as f64;
        max_pages = max_pages.max(pages);
        windows += 1;
    }
    WorkingSet {
        window,
        mean_pages: if windows == 0 {
            0.0
        } else {
            sum / windows as f64
        },
        max_pages,
        windows,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn kernel_matches_naive_model(
        draws in proptest::collection::vec((0u8..4, 0u32..40 * 512, 0u8..4), 0..400),
        drawn in proptest::collection::vec(1usize..64, 1..4),
    ) {
        let trace = trace_of(&draws);
        // Short windows, one the length of the trace, and one longer.
        let mut windows = drawn.clone();
        windows.push(draws.len().max(1));
        windows.push(draws.len() + 7);
        let want: Vec<WorkingSet> = windows.iter().map(|&w| naive(&trace, w)).collect();

        for (&w, expect) in windows.iter().zip(&want) {
            prop_assert_eq!(working_set(&trace, w), *expect, "working_set at {}", w);
            prop_assert_eq!(
                working_set_stream(&mut trace.source(), w).unwrap(),
                *expect,
                "working_set_stream at {}",
                w
            );
        }
        prop_assert_eq!(&working_set_curve(&trace, &windows), &want);
        prop_assert_eq!(
            &working_set_curve_stream(&mut trace.source(), &windows).unwrap(),
            &want
        );

        let path = std::env::temp_dir().join(format!(
            "atum-ws-prop-{}.atrace",
            std::process::id()
        ));
        std::fs::write(&path, encode_trace(&trace)).expect("write");
        let from_file = working_set_curve_stream(&mut SegmentFileSource::new(&path), &windows);
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(&from_file.expect("decode"), &want);
    }
}
