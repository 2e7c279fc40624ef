//! Working-set analysis (Denning working sets over trace windows).
//!
//! The working set of a trace at window size `w` is the number of
//! distinct pages touched in each consecutive window of `w` references;
//! its average is the classic memory-demand curve. Complete-system
//! traces show both the OS's own footprint and the *compounding* of
//! per-process footprints across context switches.

use atum_core::{Trace, TraceRecord, TraceSource, TraceStreamError};
use std::collections::HashMap;

/// The working-set measurement for one window size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkingSet {
    /// Window length in references.
    pub window: usize,
    /// Mean distinct pages per window.
    pub mean_pages: f64,
    /// Largest window observed.
    pub max_pages: usize,
    /// Number of windows measured.
    pub windows: usize,
}

/// One window size's state: a stamp per dense page id. A page is new
/// to the current window iff its stamp differs from the window's
/// number, so a window boundary bumps the number instead of clearing a
/// set.
#[derive(Debug)]
struct WsState {
    window: usize,
    /// The 1-based number of the window that last touched each page id
    /// (0 = never); the current window's is `windows + 1`.
    stamps: Vec<usize>,
    /// Distinct pages in the current window.
    pages: usize,
    in_window: usize,
    mean_acc: f64,
    max_pages: usize,
    windows: usize,
}

impl WsState {
    fn new(window: usize) -> WsState {
        assert!(window > 0, "window must be positive");
        WsState {
            window,
            stamps: Vec::new(),
            pages: 0,
            in_window: 0,
            mean_acc: 0.0,
            max_pages: 0,
            windows: 0,
        }
    }

    fn step(&mut self, id: usize) {
        let stamp = self.windows + 1;
        if self.stamps[id] != stamp {
            self.stamps[id] = stamp;
            self.pages += 1;
        }
        self.in_window += 1;
        if self.in_window == self.window {
            self.mean_acc += self.pages as f64;
            self.max_pages = self.max_pages.max(self.pages);
            self.windows += 1;
            self.pages = 0;
            self.in_window = 0;
        }
    }

    fn finish(&self) -> WorkingSet {
        WorkingSet {
            window: self.window,
            mean_pages: if self.windows == 0 {
                0.0
            } else {
                self.mean_acc / self.windows as f64
            },
            max_pages: self.max_pages,
            windows: self.windows,
        }
    }
}

/// The one working-set kernel: every window size of a curve measured in
/// a single pass. Each reference's `(pid, page)` is interned to a dense
/// id once, and that id indexes every window's stamps.
struct WsKernel {
    ids: HashMap<u64, usize>,
    states: Vec<WsState>,
}

impl WsKernel {
    fn new(windows: &[usize]) -> WsKernel {
        WsKernel {
            ids: HashMap::new(),
            states: windows.iter().map(|&w| WsState::new(w)).collect(),
        }
    }

    fn feed(&mut self, records: &[TraceRecord]) {
        for r in records {
            if !r.is_ref() {
                continue;
            }
            let key = ((r.pid() as u64) << 32) | r.page() as u64;
            let fresh = self.ids.len();
            let id = *self.ids.entry(key).or_insert(fresh);
            if id == fresh {
                for s in &mut self.states {
                    s.stamps.push(0);
                }
            }
            for s in &mut self.states {
                s.step(id);
            }
        }
    }

    fn finish(&self) -> Vec<WorkingSet> {
        self.states.iter().map(WsState::finish).collect()
    }
}

/// Computes the working set of `trace` at one window size. Pages are
/// distinguished per process id (two processes touching the same VA are
/// two pages of demand).
pub fn working_set(trace: &Trace, window: usize) -> WorkingSet {
    working_set_curve(trace, &[window])[0]
}

/// The out-of-core form of [`working_set`]: one pass over any
/// [`TraceSource`], identical results to the in-memory form over the
/// same records.
///
/// # Errors
///
/// Any [`TraceStreamError`] from the source.
pub fn working_set_stream<S: TraceSource>(
    source: &mut S,
    window: usize,
) -> Result<WorkingSet, TraceStreamError> {
    Ok(working_set_curve_stream(source, &[window])?[0])
}

/// Computes the working-set curve across several window sizes, all in
/// one pass over the trace.
pub fn working_set_curve(trace: &Trace, windows: &[usize]) -> Vec<WorkingSet> {
    let mut kernel = WsKernel::new(windows);
    kernel.feed(trace.records());
    kernel.finish()
}

/// The out-of-core form of [`working_set_curve`]: every window size is
/// measured in a **single pass** over the source, identical results to
/// the in-memory form over the same records.
///
/// # Errors
///
/// Any [`TraceStreamError`] from the source.
pub fn working_set_curve_stream<S: TraceSource>(
    source: &mut S,
    windows: &[usize],
) -> Result<Vec<WorkingSet>, TraceStreamError> {
    let mut kernel = WsKernel::new(windows);
    source.stream(&mut |batch| kernel.feed(batch))?;
    Ok(kernel.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use atum_core::{RecordKind, TraceRecord};

    fn trace_of(pages: &[(u8, u32)]) -> Trace {
        pages
            .iter()
            .map(|&(pid, page)| TraceRecord::new(RecordKind::Read, page * 512, 4, pid, false))
            .collect()
    }

    #[test]
    fn single_page_working_set_is_one() {
        let t = trace_of(&[(1, 5); 100]);
        let ws = working_set(&t, 10);
        assert_eq!(ws.mean_pages, 1.0);
        assert_eq!(ws.max_pages, 1);
        assert_eq!(ws.windows, 10);
    }

    #[test]
    fn distinct_pages_counted() {
        let t = trace_of(&[(1, 0), (1, 1), (1, 2), (1, 3)]);
        let ws = working_set(&t, 4);
        assert_eq!(ws.mean_pages, 4.0);
    }

    #[test]
    fn pids_separate_demand() {
        // Same VA from two pids is two pages of demand.
        let t = trace_of(&[(1, 7), (2, 7), (1, 7), (2, 7)]);
        let ws = working_set(&t, 4);
        assert_eq!(ws.mean_pages, 2.0);
    }

    #[test]
    fn curve_is_monotone_in_window() {
        let pages: Vec<(u8, u32)> = (0..4096u32).map(|i| (1, i % 37)).collect();
        let t = trace_of(&pages);
        let curve = working_set_curve(&t, &[8, 64, 512]);
        assert!(curve[0].mean_pages <= curve[1].mean_pages);
        assert!(curve[1].mean_pages <= curve[2].mean_pages);
        assert!(curve[2].mean_pages <= 37.0);
    }

    #[test]
    fn markers_do_not_count() {
        let mut t = trace_of(&[(1, 0), (1, 1)]);
        t.push(TraceRecord::new(RecordKind::CtxSwitch, 0x9000, 0, 2, true));
        let ws = working_set(&t, 2);
        assert_eq!(ws.windows, 1);
        assert_eq!(ws.mean_pages, 2.0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        working_set(&Trace::new(), 0);
    }

    #[test]
    fn streamed_forms_match_in_memory() {
        let pages: Vec<(u8, u32)> = (0..4096u32).map(|i| ((1 + i % 2) as u8, i % 53)).collect();
        let t = trace_of(&pages);
        let windows = [8usize, 64, 512];
        assert_eq!(
            working_set_stream(&mut t.source(), 64).unwrap(),
            working_set(&t, 64)
        );
        assert_eq!(
            working_set_curve_stream(&mut t.source(), &windows).unwrap(),
            working_set_curve(&t, &windows)
        );
    }
}
