//! Quick engine-throughput probe: fast vs reference interpreter on the
//! untraced and ATUM-patched bench workloads. Trials are interleaved so
//! host-speed drift hits both tiers equally; the ratio is the number to
//! watch.

use atum_core::{PatchStyle, Tracer};
use atum_machine::EngineTier;

fn main() {
    let w = atum_workloads::list_chase("bench", 256, 4_000);
    let src = w
        .source
        .replace("chmk    #1", "nop")
        .replace("chmk    #0", "halt");
    let img = atum_asm::assemble(&format!(".org 0x1000\n{src}\n")).expect("bench program");
    let load = |style: Option<PatchStyle>| {
        let mut m = atum_machine::Machine::new(atum_machine::MemLayout::small());
        for (a, b) in img.segments() {
            m.write_phys(*a, b).unwrap();
        }
        m.set_gpr(14, 0x8000);
        m.set_pc(img.symbol("start").unwrap());
        if let Some(style) = style {
            let t = Tracer::attach_with_style(&mut m, style).unwrap();
            t.set_enabled(&mut m, true);
        }
        m
    };
    const TIERS: [EngineTier; 2] = [EngineTier::Fast, EngineTier::Reference];
    for (name, style) in [
        ("untraced", None),
        ("atum_scratch", Some(PatchStyle::Scratch)),
        ("atum_spill", Some(PatchStyle::Spill)),
    ] {
        let mut probe = load(style);
        probe.run(u64::MAX);
        let mut best = [f64::MAX; 2];
        for _ in 0..8 {
            for (i, tier) in TIERS.iter().enumerate() {
                let mut m = load(style);
                m.set_engine_tier(*tier);
                let t0 = std::time::Instant::now();
                m.run(u64::MAX);
                best[i] = best[i].min(t0.elapsed().as_secs_f64());
            }
        }
        println!(
            "{name:<14} {:>8} insns {:>9} cycles  fast {:>7.3}ms ({:.1} ns/uop)  ref {:>7.3}ms  fast/ref {:.2}x",
            probe.insns(),
            probe.cycles(),
            best[0] * 1e3,
            best[0] / probe.cycles() as f64 * 1e9,
            best[1] * 1e3,
            best[1] / best[0]
        );
    }
}
