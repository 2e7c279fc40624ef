//! End-to-end and per-layer benchmark of the ATUM pipeline:
//! workload spec → MOSS boot → traced capture → v2 segments → decode →
//! cache/TLB/working-set sweeps → report tables.
//!
//! ```text
//! atum-perfbench --workload <mix_capture|trace_sweep|paper_full>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run measures one workload for `--seconds` (at least two
//! iterations), checks every output, and prints one JSON line last:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics (from
//! spans around every layer call) with `--trace 1`. See README.md.

mod calib;
mod capture;
mod inputs;
mod spans;
mod sweep;

use atum_workloads::Workload;
use spans::Spans;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Deterministic work counters, by metric name. Every iteration of one
/// seed must reproduce them exactly.
pub type Counters = BTreeMap<&'static str, u64>;

/// Output checks: each one is an attempted operation, each mismatch a
/// failed one.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Records one check; a failure is reported on stderr.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

const WORKLOADS: [&str; 3] = ["mix_capture", "trace_sweep", "paper_full"];

/// End-to-end metrics printed with `--trace 0`: (name, unit).
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("capture_insns_per_s", "insn/s"),
    ("sweep_refs_per_s", "ref/s"),
    ("slowdown_x", "x"),
    ("bytes_per_record", "B"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics printed with `--trace 1`: (name, unit). Layers a
/// workload does not exercise read 0.
const PER_LAYER: [(&str, &str); 56] = [
    ("os.build_s", "s"),
    ("os.load_s", "s"),
    ("core.attach_s", "s"),
    ("core.drain_s", "s"),
    ("core.drains", "count"),
    ("core.records_per_drain", "count"),
    ("core.encode_s", "s"),
    ("core.encoded_bytes", "B"),
    ("core.compression_x", "x"),
    ("core.records", "count"),
    ("core.decode_s", "s"),
    ("core.decode_records_per_s", "1/s"),
    ("core.batches", "count"),
    ("machine.run_s", "s"),
    ("machine.untraced_run_s", "s"),
    ("machine.untraced_insns_per_s", "insn/s"),
    ("machine.host_slowdown_x", "x"),
    ("machine.insns", "count"),
    ("machine.cycles", "count"),
    ("machine.untraced_cycles", "count"),
    ("machine.refs", "count"),
    ("machine.ctx_switches", "count"),
    ("machine.tlb_hit_ratio", "ratio"),
    ("machine.tlb_full_flushes", "count"),
    ("machine.tlb_proc_flushes", "count"),
    ("machine.sb_epoch", "count"),
    ("machine.sb_blocks", "count"),
    ("cache.multisim_s", "s"),
    ("cache.parallel_s", "s"),
    ("cache.percfg_s", "s"),
    ("cache.tlb_s", "s"),
    ("cache.configs", "count"),
    ("cache.accesses", "count"),
    ("cache.misses", "count"),
    ("analysis.working_set_s", "s"),
    ("analysis.shared_capture_s", "s"),
    ("analysis.t1_s", "s"),
    ("analysis.t2_s", "s"),
    ("analysis.f1_s", "s"),
    ("analysis.f2_s", "s"),
    ("analysis.f3_s", "s"),
    ("analysis.f4_s", "s"),
    ("analysis.f5_s", "s"),
    ("analysis.f6_s", "s"),
    ("analysis.e1_s", "s"),
    ("analysis.e2_s", "s"),
    ("analysis.e3_s", "s"),
    ("analysis.e4_s", "s"),
    ("analysis.a1_s", "s"),
    ("analysis.idle_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_x", "x"),
    ("run.iterations", "count"),
    ("run.traced_iterations", "count"),
    ("host.slowness_x", "x"),
];

/// Worker threads wherever the pipeline fans out, as the experiments
/// use them at `--jobs 2`.
const JOBS: usize = 2;

/// Boots timed after each `paper_full` regeneration (the fastest is its
/// `setup_s`).
const SETUP_REPS: usize = 5;
/// Input re-captures after each untraced `trace_sweep` iteration. A
/// capture is one indivisible step of about half a second, so a run needs
/// more of them than sweeps for its best sample to be as steady.
const RECAPTURES: usize = 2;
/// Minimum measured iterations per run: the repeat checks need two.
const MIN_ITERS: usize = 2;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

/// Everything one run gathers.
#[derive(Debug, Default)]
struct Run {
    setup: Vec<f64>,
    walls: Vec<f64>,
    traced_walls: Vec<f64>,
    capture_rates: Vec<f64>,
    sweep_rates: Vec<f64>,
    /// `trace_sweep` only: the untraced samples of each sweep step.
    sweep_steps: Vec<Vec<f64>>,
    /// Counters by phase ("iter", "capture", "probe", ...), from the
    /// first time the phase ran; later repeats are compared against them.
    counters: BTreeMap<&'static str, Counters>,
    /// Per traced iteration: span self times and derived layer figures.
    layers: Vec<BTreeMap<&'static str, f64>>,
    /// The host's speed, sampled between the measured steps.
    calib: calib::Calibration,
    checks: Checks,
}

impl Run {
    /// Checks that `phase` produced the same counters as last time.
    fn repeat(&mut self, phase: &'static str, c: Counters) {
        match self.counters.get(phase) {
            None => {
                self.counters.insert(phase, c);
            }
            Some(first) => {
                let same = *first == c;
                if !same {
                    eprintln!("counters of {phase} differ: {first:?} vs {c:?}");
                }
                self.checks
                    .check("deterministic counters repeat between iterations", same);
            }
        }
    }

    /// Every phase's counters in one map.
    fn all_counters(&self) -> Counters {
        self.counters
            .values()
            .flatten()
            .map(|(k, v)| (*k, *v))
            .collect()
    }
}

fn add(into: &mut Counters, from: &Counters) {
    for (k, v) in from {
        *into.entry(k).or_insert(0) += v;
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The fastest sample: the end-to-end estimate of a time.
///
/// The host's other tenants only ever slow an iteration down, and they
/// do so in stretches of seconds that leave a run's times bimodal (an
/// uncontended floor and a plateau up to twice as slow), so the median
/// of a run follows the host's load. The best sample follows the code.
fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The highest sample: the end-to-end estimate of a rate (see
/// [`fastest`]).
fn highest(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// The `p`-quantile (0..=1) of `v` by nearest rank, for the stderr
/// summary.
fn quantile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[((s.len() - 1) as f64 * p).round() as usize]
}

/// Runs `iteration(run, traced)` until `seconds` have passed and at
/// least [`MIN_ITERS`] iterations ran, timing the host's reference loop
/// before each. In a traced run, iterations alternate untraced/traced so
/// the overhead is measured on the spot.
fn measure(
    args: &Args,
    run: &mut Run,
    mut iteration: impl FnMut(&mut Run, bool) -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let min = if args.trace { 2 * MIN_ITERS } else { MIN_ITERS };
    let mut i = 0;
    while i < min || start.elapsed().as_secs_f64() < args.seconds {
        run.calib.sample();
        iteration(run, args.trace && i % 2 == 1)?;
        i += 1;
    }
    Ok(())
}

/// Times [`SETUP_REPS`] boots (image build + load + tracer attach).
fn time_setup(run: &mut Run, ws: &[Workload]) -> Result<(), String> {
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        capture::boot(ws, inputs::MIX_QUANTUM, true, &mut Spans::new(false))?;
        run.setup.push(t0.elapsed().as_secs_f64());
    }
    Ok(())
}

/// Adds the decode rate of one traced iteration, from its span self
/// time and record count.
fn derive_layers(t: &mut BTreeMap<&'static str, f64>, c: &Counters) {
    let decoded = c.get("core.decoded_records").copied().unwrap_or(0) as f64;
    let decode = t.get("core.decode_s").copied().unwrap_or(0.0);
    t.insert("core.decode_records_per_s", ratio(decoded, decode));
}

/// Captures `ws` to `out`, decode-verifies the file and checks both:
/// console checksums, and the file's reference count against the
/// machine's hardware counters.
fn capture_verified(
    run: &mut Run,
    ws: &[Workload],
    quantum: u32,
    out: &Path,
    traced: bool,
    spans: &mut Spans,
) -> Result<(capture::Captured, capture::Verified), String> {
    run.calib.sample();
    let cap = capture::capture(ws, quantum, out, traced, spans)?;
    let ver = capture::verify_sweep(out, spans)?;
    run.checks.check("traced console checksums", cap.console_ok);
    run.checks.check(
        "trace reference count equals RefCounts::total_refs",
        ver.refs == cap.refs,
    );
    run.checks.check(
        "decoded record count equals records written",
        ver.counters["core.decoded_records"] == cap.counters["core.records"],
    );
    Ok((cap, ver))
}

/// Runs the mix untraced once per run, for the slowdown's denominator;
/// in a traced run its `Machine::run` time is recorded too.
fn untraced_once(run: &mut Run, args: &Args, ws: &[Workload]) -> Result<(), String> {
    let mut spans = Spans::new(args.trace);
    let unt = capture::run_untraced(ws, inputs::MIX_QUANTUM, &mut spans)?;
    run.checks
        .check("untraced console checksums", unt.console_ok);
    run.repeat("untraced", unt.counters);
    if let Some(&t) = spans.take_self_times().get("machine.untraced_run_s") {
        run.layers
            .push(BTreeMap::from([("machine.untraced_run_s", t)]));
    }
    Ok(())
}

/// `mix_capture`: every iteration boots the mix, captures it to a
/// segment file and decode-verifies the file. The boot is the set-up
/// sample. The mix also runs once untraced.
fn capture_workload(args: &Args, run: &mut Run, dir: &Path, ws: &[Workload]) -> Result<(), String> {
    untraced_once(run, args, ws)?;
    let path = dir.join("capture.atrace");
    let replay_path = dir.join("capture-replay.atrace");
    measure(args, run, |run, traced| {
        let mut spans = Spans::new(traced);
        let out = if traced { &replay_path } else { &path };
        let t0 = Instant::now();
        let (cap, ver) = capture_verified(run, ws, inputs::MIX_QUANTUM, out, traced, &mut spans)?;
        let wall = t0.elapsed().as_secs_f64();
        let mut counters = cap.counters.clone();
        add(&mut counters, &ver.counters);
        if traced {
            run.traced_walls.push(wall);
            // Outside the timed region: the replayed loop must reproduce
            // `run_streaming`'s file byte for byte, and the file must
            // decode to exactly the records the loop drained.
            let read = |p: &Path| std::fs::read(p).map_err(|e| format!("read {p:?}: {e}"));
            run.checks.check(
                "replayed capture loop writes run_streaming's file byte for byte",
                read(&path)? == read(&replay_path)?,
            );
            let decoded = atum_core::SegmentFileSource::new(&replay_path)
                .read_to_trace()
                .map_err(|e| format!("decode {replay_path:?}: {e}"))?;
            run.checks.check(
                "decoded segment file equals the captured trace",
                decoded.records() == cap.records,
            );
            let mut layers = spans.take_self_times();
            derive_layers(&mut layers, &counters);
            run.layers.push(layers);
        } else {
            run.walls.push(wall);
            run.setup.push(cap.boot_s);
            run.capture_rates.push(cap.insns as f64 / cap.secs);
            run.sweep_rates.push(ver.refs as f64 / ver.secs);
        }
        run.repeat("iter", counters);
        Ok(())
    })
}

/// `trace_sweep`: the mix is captured to a segment file in set-up; each
/// iteration decodes it from disk and sweeps every family. Between
/// untraced iterations the input is captured [`RECAPTURES`] more times
/// (untimed for `wall_s`), so the set-up and capture-rate samples spread
/// over the whole run; each re-capture must reproduce the input byte for
/// byte.
fn trace_sweep(args: &Args, run: &mut Run, dir: &Path) -> Result<(), String> {
    let ws = &inputs::mix(args.seed);
    let path = dir.join("sweep.atrace");
    let again = dir.join("sweep-again.atrace");
    let capture_input = |run: &mut Run, out: &Path| -> Result<(), String> {
        run.calib.sample();
        let t0 = Instant::now();
        let cap = capture::capture(ws, inputs::MIX_QUANTUM, out, false, &mut Spans::new(false))?;
        run.setup.push(t0.elapsed().as_secs_f64());
        run.capture_rates.push(cap.insns as f64 / cap.secs);
        run.checks.check("traced console checksums", cap.console_ok);
        run.repeat("capture", cap.counters);
        Ok(())
    };
    capture_input(run, &path)?;
    untraced_once(run, args, ws)?;
    let refs = run.counters["capture"]["machine.refs"];
    let input = std::fs::read(&path).map_err(|e| format!("read {path:?}: {e}"))?;
    let mut first = true;
    measure(args, run, |run, traced| {
        let mut spans = Spans::new(traced);
        let sw = sweep::sweep(&path, first, &mut spans, &mut run.checks)?;
        if first {
            run.checks.check(
                "trace reference count equals RefCounts::total_refs",
                sw.refs == refs,
            );
        }
        first = false;
        if traced {
            run.traced_walls.push(sw.secs);
            let mut layers = spans.take_self_times();
            derive_layers(&mut layers, &sw.counters);
            run.layers.push(layers);
        } else {
            run.walls.push(sw.secs);
            run.sweep_rates.push(sw.refs as f64 / sw.secs);
            run.sweep_steps.resize(sw.step_secs.len(), Vec::new());
            for (samples, s) in run.sweep_steps.iter_mut().zip(&sw.step_secs) {
                samples.push(*s);
            }
            for _ in 0..RECAPTURES {
                capture_input(run, &again)?;
                let same =
                    std::fs::read(&again).map_err(|e| format!("read {again:?}: {e}"))? == input;
                run.checks
                    .check("re-capture reproduces the input file byte for byte", same);
            }
        }
        run.repeat("iter", sw.counters);
        Ok(())
    })
}

/// The per-layer metric holding experiment `id`'s task time.
fn experiment_metric(id: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|&(k, _)| k)
        .find(|k| {
            k.strip_prefix("analysis.")
                .and_then(|k| k.strip_suffix("_s"))
                == Some(id)
        })
        .expect("every experiment id has a metric")
}

/// FNV-1a over the report text.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn report_text(reports: &[atum_analysis::Report]) -> String {
    reports.iter().map(|r| format!("{r}\n")).collect()
}

fn paper_full(args: &Args, run: &mut Run, dir: &Path) -> Result<(), String> {
    use atum_analysis::{experiments, Scale};
    eprintln!(
        "paper_full: fixed inputs (experiments::run_all(Scale::Full, {JOBS})); seed {} ignored",
        args.seed
    );
    // The standard mix at seed 0 is exactly the shared capture run_all
    // makes. After each untraced regeneration it is captured `PROBES`
    // more times, each file decode-verified `PASSES` times, untimed for
    // `wall_s`: they give this workload its capture- and sweep-rate
    // samples (a pass is short, so it takes several to steady the best).
    const PROBES: usize = 3;
    const PASSES: usize = 3;
    let ws = &inputs::mix(0);
    let probe = dir.join("probe.atrace");
    untraced_once(run, args, ws)?;
    atum_analysis::set_jobs(JOBS);
    measure(args, run, |run, traced| {
        let t0 = Instant::now();
        if !traced {
            let reports = experiments::run_all(Scale::Full, JOBS).map_err(|e| e.to_string())?;
            run.walls.push(t0.elapsed().as_secs_f64());
            let d = digest(&report_text(&reports));
            eprintln!("paper_full: report digest {d:016x}");
            run.repeat("report", Counters::from([("analysis.report_digest", d)]));
            time_setup(run, ws)?;
            for _ in 0..PROBES {
                let (cap, ver) = capture_verified(
                    run,
                    ws,
                    inputs::MIX_QUANTUM,
                    &probe,
                    false,
                    &mut Spans::new(false),
                )?;
                run.capture_rates.push(cap.insns as f64 / cap.secs);
                run.sweep_rates.push(ver.refs as f64 / ver.secs);
                for _ in 1..PASSES {
                    let again = capture::verify_sweep(&probe, &mut Spans::new(false))?;
                    run.checks
                        .check("decode-verify passes agree", again.counters == ver.counters);
                    run.sweep_rates.push(again.refs as f64 / again.secs);
                }
                let mut counters = cap.counters;
                add(&mut counters, &ver.counters);
                run.repeat("probe", counters);
            }
            return Ok(());
        }
        // run_all's own decomposition, one timed call per step:
        // the shared capture, then every id on the job pool.
        let shared = experiments::capture_standard_mix(Scale::Full).map_err(|e| e.to_string())?;
        let shared_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let ids: Vec<&str> = experiments::ALL_IDS.to_vec();
        let done = atum_analysis::parallel_map(JOBS, ids, |_, id| {
            let t = Instant::now();
            let r = experiments::run_by_id(id, Scale::Full, Some(&shared));
            (id, r, t.elapsed().as_secs_f64())
        });
        let map_s = t1.elapsed().as_secs_f64();
        run.traced_walls.push(t0.elapsed().as_secs_f64());
        let mut layers = BTreeMap::new();
        layers.insert("analysis.shared_capture_s", shared_s);
        let mut reports = Vec::new();
        let mut busy = 0.0;
        for (id, r, secs) in done {
            layers.insert(experiment_metric(id), secs);
            busy += secs;
            reports.push(r.map_err(|e| format!("{id}: {e}"))?);
        }
        layers.insert("analysis.idle_s", (JOBS as f64 * map_s - busy).max(0.0));
        run.layers.push(layers);
        let d = digest(&report_text(&reports));
        run.repeat("report", Counters::from([("analysis.report_digest", d)]));
        Ok(())
    })
}

/// Peak resident set of this process, in MiB (Linux `getrusage`).
fn peak_rss_mib() -> f64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` has the layout of Linux's 64-bit `struct rusage`
    // (two timevals, then fourteen longs) and lives for the whole call;
    // RUSAGE_SELF (0) only writes into it.
    let rc = unsafe { getrusage(0, &mut ru) };
    if rc != 0 {
        return 0.0;
    }
    // Linux reports ru_maxrss in KiB.
    ru.maxrss as f64 / 1024.0
}

fn json_metrics(values: &[(&str, &str, f64)]) -> Result<String, String> {
    let mut out = Vec::new();
    for (name, unit, v) in values {
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        out.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", out.join(", ")))
}

/// This process's working directory: one per process, so runs that
/// overlap do not overwrite or remove each other's files.
fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join(format!("perfbench-work-{}", std::process::id()))
}

fn run_workload(args: &Args, dir: &Path) -> Result<Run, String> {
    let mut run = Run::default();
    match args.workload.as_str() {
        "mix_capture" => capture_workload(args, &mut run, dir, &inputs::mix(args.seed))?,
        "trace_sweep" => trace_sweep(args, &mut run, dir)?,
        "paper_full" => paper_full(args, &mut run, dir)?,
        other => unreachable!("parse_args admits only known workloads, not {other}"),
    }
    Ok(run)
}

fn result_line(args: &Args, run: &Run) -> Result<String, String> {
    let c = run.all_counters();
    let g = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
    let values: Vec<(&str, &str, f64)> = if args.trace {
        let mut layer: BTreeMap<&str, f64> = BTreeMap::new();
        for (k, _) in PER_LAYER {
            let samples: Vec<f64> = run
                .layers
                .iter()
                .filter_map(|l| l.get(k).copied())
                .collect();
            let v = if samples.is_empty() {
                g(k)
            } else {
                median(&samples)
            };
            layer.insert(k, v);
        }
        let untraced = layer["machine.untraced_run_s"];
        layer.insert(
            "machine.untraced_insns_per_s",
            ratio(g("machine.untraced_insns"), untraced),
        );
        layer.insert(
            "machine.host_slowdown_x",
            ratio(layer["machine.run_s"], untraced),
        );
        let records = g("core.records");
        layer.insert("core.records_per_drain", ratio(records, g("core.drains")));
        layer.insert(
            "core.compression_x",
            ratio(8.0 * records, g("core.encoded_bytes")),
        );
        let hits = g("machine.tlb_hits");
        layer.insert(
            "machine.tlb_hit_ratio",
            ratio(hits, hits + g("machine.tlb_misses")),
        );
        let (traced, untraced) = (median(&run.traced_walls), median(&run.walls));
        layer.insert("trace.wall_s", traced);
        layer.insert("trace.untraced_wall_s", untraced);
        layer.insert("trace.overhead_x", ratio(traced, untraced));
        layer.insert("run.iterations", run.walls.len() as f64);
        layer.insert("host.slowness_x", run.calib.slowness());
        layer.insert("run.traced_iterations", run.traced_walls.len() as f64);
        PER_LAYER.iter().map(|&(k, u)| (k, u, layer[k])).collect()
    } else {
        let [setup, wall, capture, sweep] = if !run.sweep_steps.is_empty() {
            // The sweep's best iteration, assembled from each step's
            // fastest time: the steps are deterministic and run one after
            // another, so this is the iteration an uncontended host gives,
            // and short steps find the uncontended moments that a whole
            // iteration seldom fits in. Every iteration sweeps the
            // captured references (checked against the machine's counters).
            let wall: f64 = run.sweep_steps.iter().map(|s| fastest(s)).sum();
            [
                fastest(&run.setup),
                wall,
                highest(&run.capture_rates),
                ratio(g("machine.refs"), wall),
            ]
        } else {
            [
                fastest(&run.setup),
                fastest(&run.walls),
                highest(&run.capture_rates),
                highest(&run.sweep_rates),
            ]
        };
        // Scaled to the reference host speed (see `calib`).
        let slow = run.calib.slowness();
        let e2e: BTreeMap<&str, f64> = BTreeMap::from([
            ("setup_s", setup / slow),
            ("wall_s", wall / slow),
            ("capture_insns_per_s", capture * slow),
            ("sweep_refs_per_s", sweep * slow),
            (
                "slowdown_x",
                ratio(g("machine.cycles"), g("machine.untraced_cycles")),
            ),
            (
                "bytes_per_record",
                ratio(g("core.encoded_bytes"), g("core.records")),
            ),
            ("peak_rss_mib", peak_rss_mib()),
        ]);
        END_TO_END.iter().map(|&(k, u)| (k, u, e2e[k])).collect()
    };
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.checks.failed == 0,
        run.checks.attempted,
        run.checks.failed,
        json_metrics(&values)?
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("atum-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = work_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("atum-perfbench: create {dir:?}: {e}");
        return ExitCode::from(2);
    }
    eprintln!(
        "atum-perfbench: workload {} seed {} seconds {} trace {}; host cores {}; {} build",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    let outcome = run_workload(&args, &dir).and_then(|run| {
        eprintln!(
            "atum-perfbench: setup samples {:?}; untraced walls {:?}; traced walls {:?}; \
             capture rates {:?}; sweep rates {:?}",
            run.setup, run.walls, run.traced_walls, run.capture_rates, run.sweep_rates
        );
        for (name, v) in [
            ("setup_s", &run.setup),
            ("wall_s", &run.walls),
            ("capture_insns_per_s", &run.capture_rates),
            ("sweep_refs_per_s", &run.sweep_rates),
        ] {
            eprintln!(
                "atum-perfbench: {name}: {} samples; min {:.6} median {:.6} p90 {:.6} max {:.6}",
                v.len(),
                quantile(v, 0.0),
                median(v),
                quantile(v, 0.9),
                quantile(v, 1.0)
            );
        }
        let cal = run.calib.samples();
        eprintln!(
            "atum-perfbench: host calibration: {} samples; min {:.6} median {:.6} max {:.6} s; \
             slowness {:.4} (reference {} s)",
            cal.len(),
            quantile(cal, 0.0),
            median(cal),
            quantile(cal, 1.0),
            run.calib.slowness(),
            calib::REFERENCE_S
        );
        eprintln!("atum-perfbench: counters {:?}", run.all_counters());
        Ok((result_line(&args, &run)?, run.checks.failed))
    });
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok((line, failed)) => {
            println!("{line}");
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("atum-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in BENCHMARK.json must agree, name for
    /// name and unit for unit.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = json.matches("\"name\":").count();
        assert_eq!(listed, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn every_experiment_has_a_task_metric() {
        for id in atum_analysis::experiments::ALL_IDS {
            assert_eq!(experiment_metric(id), format!("analysis.{id}_s"));
        }
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn extremes_and_quantiles() {
        let v = [0.9, 0.5, 0.7, 0.6, 1.1];
        assert_eq!(fastest(&v), 0.5);
        assert_eq!(highest(&v), 1.1);
        assert_eq!(quantile(&v, 0.0), 0.5);
        assert_eq!(quantile(&v, 0.5), 0.7);
        assert_eq!(quantile(&v, 1.0), 1.1);
        assert_eq!(fastest(&[]), 0.0);
    }
}
