//! The capture half of the pipeline: boot a workload set under MOSS,
//! capture it with the ATUM tracer into a v2 segment file, run it again
//! untraced, and decode-verify the file.
//!
//! Every call into a layer is wrapped in a span named after the layer
//! metric it feeds (`os.build_s`, `core.drain_s`, `machine.run_s`, ...).

use crate::spans::Spans;
use crate::Counters;
use atum_cache::MultiSim;
use atum_core::{
    CaptureSession, RecordKind, SegmentFileSource, SegmentWriter, TraceRecord, TraceSource, Tracer,
};
use atum_machine::{Machine, RunExit};
use atum_os::BootImage;
use atum_workloads::Workload;
use std::path::Path;
use std::time::Instant;

/// Cycle budget for one capture, as in the experiments.
const BUDGET: u64 = 200_000_000_000;

/// Boots `ws` under MOSS at `quantum` and, if `attach`, installs the
/// tracer (capture still disabled, pid 0 for the boot).
pub fn boot(
    ws: &[Workload],
    quantum: u32,
    attach: bool,
    spans: &mut Spans,
) -> Result<(Machine, Option<Tracer>), String> {
    spans.enter("os.build_s");
    let mut b = BootImage::builder().quantum(quantum);
    for w in ws {
        b = b.user_program(&w.source);
    }
    let image = b.build().map_err(|e| format!("boot image: {e}"));
    spans.exit();
    let image = image?;

    spans.enter("os.load_s");
    let mut m = Machine::new(image.memory_layout());
    let loaded = image.load_into(&mut m).map_err(|e| format!("load: {e}"));
    spans.exit();
    loaded?;

    if !attach {
        return Ok((m, None));
    }
    spans.enter("core.attach_s");
    let tracer = Tracer::attach(&mut m).map_err(|e| format!("attach: {e}"));
    spans.exit();
    let tracer = tracer?;
    tracer.set_pid(&mut m, 0);
    Ok((m, Some(tracer)))
}

/// Whether the console holds exactly the workloads' self-check digits
/// (in any order: the scheduler decides who finishes first).
fn checksums_ok(ws: &[Workload], m: &mut Machine) -> bool {
    let mut got = m.take_console_output();
    let mut want: Vec<u8> = ws.iter().flat_map(|w| w.expected_output.bytes()).collect();
    got.sort_unstable();
    want.sort_unstable();
    got == want
}

/// One traced capture, as measured.
#[derive(Debug)]
pub struct Captured {
    /// Host seconds to build the boot image, load it and attach.
    pub boot_s: f64,
    /// Host seconds from enabling capture to the file being flushed:
    /// machine execution, drains and segment writes.
    pub secs: f64,
    /// Architectural instructions executed.
    pub insns: u64,
    /// Reference count from the machine's hardware counters.
    pub refs: u64,
    /// Whether the console checksums matched.
    pub console_ok: bool,
    /// Deterministic counters of the capture.
    pub counters: Counters,
    /// Every record written, in file order (replayed captures only).
    pub records: Vec<TraceRecord>,
}

/// Captures `ws` to `path`.
///
/// With `replay = false` this is one `CaptureSession::run_streaming`
/// call, the capture tool's path. With `replay = true` the same loop is
/// replayed through the public calls it is made of, so each can carry
/// its own span; the file it writes must be byte-identical.
pub fn capture(
    ws: &[Workload],
    quantum: u32,
    path: &Path,
    replay: bool,
    spans: &mut Spans,
) -> Result<Captured, String> {
    let t0 = Instant::now();
    let (mut m, tracer) = boot(ws, quantum, true, spans)?;
    let tracer = tracer.expect("boot attached a tracer");
    let boot_s = t0.elapsed().as_secs_f64();
    let mut w = SegmentWriter::create(path).map_err(|e| format!("create {path:?}: {e}"))?;
    let t0 = Instant::now();
    let (exit, drain_calls, records) = if replay {
        replay_loop(&mut m, &tracer, &mut w, spans)?
    } else {
        let sc = CaptureSession::new(&tracer, BUDGET)
            .run_streaming(&mut m, &mut w)
            .map_err(|e| format!("capture: {e}"))?;
        (sc.exit, u64::from(sc.drains) + 1, Vec::new())
    };
    let stats = w.finish().map_err(|e| format!("flush {path:?}: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    if exit != RunExit::Halted {
        return Err(format!("capture ended with {exit}"));
    }
    let console_ok = checksums_ok(ws, &mut m);
    let tlb = m.tlb_stats();
    let refs = m.counts().total_refs();
    let sb = m.superblock_cache();
    let (sb_epoch, sb_blocks) = (sb.epoch(), sb.len() as u64);
    let counters = Counters::from([
        ("machine.insns", m.insns()),
        ("machine.cycles", m.cycles()),
        ("machine.refs", refs),
        ("machine.tlb_hits", tlb.hits),
        ("machine.tlb_misses", tlb.misses),
        ("machine.tlb_full_flushes", tlb.full_flushes),
        ("machine.tlb_proc_flushes", tlb.proc_flushes),
        ("machine.sb_epoch", sb_epoch),
        ("machine.sb_blocks", sb_blocks),
        ("core.drains", drain_calls),
        ("core.records", stats.records),
        ("core.segments", stats.segments),
        ("core.encoded_bytes", stats.encoded_bytes),
    ]);
    Ok(Captured {
        boot_s,
        secs,
        insns: m.insns(),
        refs,
        console_ok,
        counters,
        records,
    })
}

/// `CaptureSession::run_streaming`'s loop, call for call: run until the
/// patch halts on a full buffer, drain, hold the segment back until the
/// next drain so its separator mark can be appended, write, resume.
/// Returns the final exit, the number of drains and every record
/// written.
fn replay_loop<W: std::io::Write>(
    m: &mut Machine,
    tracer: &Tracer,
    w: &mut SegmentWriter<W>,
    spans: &mut Spans,
) -> Result<(RunExit, u64, Vec<TraceRecord>), String> {
    // `CaptureSession`'s default drain cap; these workloads stay far below it.
    const MAX_DRAINS: u64 = 100_000;
    tracer.set_enabled(m, true);
    let deadline = m.cycles().saturating_add(BUDGET);
    let mut cur: Vec<TraceRecord> = Vec::new();
    let mut pending: Vec<TraceRecord> = Vec::new();
    let mut have_pending = false;
    let mut pending_cycle = 0u64;
    let mut written: Vec<TraceRecord> = Vec::new();
    let mut drain_calls = 0u64;
    let mut write = |seg: &[TraceRecord], cycle: u64, spans: &mut Spans| {
        spans.enter("core.encode_s");
        let r = w.write_segment(seg, cycle);
        spans.exit();
        written.extend_from_slice(seg);
        r.map_err(|e| format!("segment write: {e}"))
    };
    loop {
        spans.enter("machine.run_s");
        let exit = m.run(deadline.saturating_sub(m.cycles()));
        spans.exit();
        let full = exit == RunExit::Halted && tracer.is_full(m) && drain_calls < MAX_DRAINS;
        spans.enter("core.drain_s");
        let drained = tracer.drain_into(m, &mut cur);
        spans.exit();
        drained.map_err(|e| format!("drain: {e}"))?;
        drain_calls += 1;
        if have_pending || !cur.is_empty() {
            if have_pending {
                pending.push(TraceRecord::new(RecordKind::SegmentMark, 0, 0, 0, false));
                write(&pending, pending_cycle, spans)?;
            }
            std::mem::swap(&mut pending, &mut cur);
            pending_cycle = m.cycles();
            have_pending = true;
        }
        if full {
            m.resume();
        } else {
            if have_pending {
                write(&pending, pending_cycle, spans)?;
            }
            tracer.set_enabled(m, false);
            return Ok((exit, drain_calls, written));
        }
    }
}

/// One untraced run of `ws`: the baseline of the slowdown.
#[derive(Debug)]
pub struct Untraced {
    /// Whether the console checksums matched.
    pub console_ok: bool,
    /// Deterministic counters of the run.
    pub counters: Counters,
}

/// Boots `ws` without the tracer and runs it to completion.
pub fn run_untraced(ws: &[Workload], quantum: u32, spans: &mut Spans) -> Result<Untraced, String> {
    let (mut m, _) = boot(ws, quantum, false, spans)?;
    spans.enter("machine.untraced_run_s");
    let exit = m.run(BUDGET);
    spans.exit();
    if exit != RunExit::Halted {
        return Err(format!("untraced run ended with {exit}"));
    }
    Ok(Untraced {
        console_ok: checksums_ok(ws, &mut m),
        counters: Counters::from([
            ("machine.untraced_insns", m.insns()),
            ("machine.untraced_cycles", m.cycles()),
        ]),
    })
}

/// The result of decoding a segment file through the verification sweep.
#[derive(Debug)]
pub struct Verified {
    /// Host seconds for the decode and the sweep.
    pub secs: f64,
    /// Memory references in the file (every config's access count).
    pub refs: u64,
    /// Deterministic counters of the pass.
    pub counters: Counters,
}

/// Decodes `path` batch by batch into the F1 size sweep (nine
/// direct-mapped sizes sharing one stack-distance pass). Its access
/// count is the file's reference count, which the caller checks against
/// the machine's hardware counters.
pub fn verify_sweep(path: &Path, spans: &mut Spans) -> Result<Verified, String> {
    let cfgs = crate::sweep::f1();
    let t0 = Instant::now();
    let mut src = SegmentFileSource::new(path);
    let mut sim = MultiSim::new(&cfgs);
    let (mut batches, mut records) = (0u64, 0u64);
    loop {
        spans.enter("core.decode_s");
        let next = src.next_batch();
        spans.exit();
        let Some(batch) = next.map_err(|e| format!("decode {path:?}: {e}"))? else {
            break;
        };
        batches += 1;
        records += batch.len() as u64;
        spans.enter("cache.multisim_s");
        sim.step_batch(batch);
        spans.exit();
    }
    let stats = sim.finish();
    let secs = t0.elapsed().as_secs_f64();
    Ok(Verified {
        secs,
        refs: stats[0].accesses,
        counters: Counters::from([
            ("core.batches", batches),
            ("core.decoded_records", records),
            ("machine.ctx_switches", stats[0].context_switches),
            ("cache.configs", cfgs.len() as u64),
            ("cache.accesses", stats.iter().map(|s| s.accesses).sum()),
            ("cache.misses", stats.iter().map(|s| s.misses).sum()),
        ]),
    })
}
