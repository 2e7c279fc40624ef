//! Invalidation edges of the machine's two derived caches: the
//! address-translation micro-cache (the `XlateCache` shadowing the TB)
//! and the predecoded `FastImage` keyed on the control-store version.
//!
//! The micro-cache is invisible by design — same faults, same TB stats,
//! same microcycle counts — so these tests pin the *behavioural*
//! consequences of each invalidation edge: a stale-permissive entry
//! surviving `Tbis`, a mapping-register write, or TBIA would show up
//! here as a read hitting the wrong frame or sailing past a protection
//! downgrade.
//!
//! Unlike the mapping tests in `system.rs`, the P0 page table here lives
//! *inside* the identity-mapped region, so the guest can rewrite its own
//! PTEs while the affected translations are hot.

use atum_arch::{PageProt, PrivReg, Pte};
use atum_machine::{EngineTier, Machine, MemLayout, RunExit};
use atum_ucode::MicroOp;

const ORG: u32 = 0x1000;
const SCB: u32 = 0x6000;
const KSTACK: u32 = 0x8000;
/// P0 page table, placed at page 56 so it is guest-writable through the
/// identity mapping.
const P0_TABLE: u32 = 0x7000;
/// Alternate P0 table for the mapping-register-write test (page 52).
const ALT_TABLE: u32 = 0x6800;
/// Pages 0..64 cover everything up to the kernel stack top at 0x8000.
const PAGES: u32 = 64;

fn load(src: &str) -> Machine {
    let full = format!(".org {ORG:#x}\n{src}\n");
    let img = atum_asm::assemble(&full).unwrap_or_else(|e| panic!("asm: {e}"));
    let mut m = Machine::new(MemLayout::small());
    for (addr, bytes) in img.segments() {
        m.write_phys(*addr, bytes).expect("load");
    }
    for (name, addr) in img.symbols() {
        if let Some(off) = name.strip_prefix("handler_at_") {
            let off = u32::from_str_radix(off, 16).expect("vector offset");
            m.write_phys(SCB + off, &addr.to_le_bytes()).unwrap();
        }
    }
    m.write_prv(PrivReg::Scbb, SCB);
    m.set_gpr(14, KSTACK);
    m.set_pc(img.symbol("start").expect("start"));
    m
}

/// Identity-maps pages 0..`PAGES` through a table the guest itself can
/// reach (and rewrite) at VA = PA = `P0_TABLE`.
fn setup_guest_visible_mapping(m: &mut Machine) {
    for vpn in 0..PAGES {
        let pte = Pte::new(vpn, PageProt::AllRw);
        m.write_phys(P0_TABLE + vpn * 4, &pte.0.to_le_bytes())
            .unwrap();
    }
    m.write_prv(PrivReg::P0br, P0_TABLE);
    m.write_prv(PrivReg::P0lr, PAGES);
}

/// The PTE slot for a P0 virtual address, as a guest-visible address.
fn pte_va(va: u32) -> u32 {
    P0_TABLE + (va >> 9) * 4
}

// ── Translation micro-cache invalidation edges ────────────────────────

/// `Tbis` on a hot page: the guest remaps vpn 32 from its identity frame
/// to frame 33 while the translation is held by both the TB and the
/// micro-cache. Before the invalidate, the old frame is (architecturally)
/// still visible; after `mtpr va, #58`, the next access must re-walk and
/// land in the new frame.
#[test]
fn tbis_drops_hot_translation_after_frame_change() {
    let remap = Pte::new(33, PageProt::AllRw).0;
    let src = format!(
        "start: mtpr #1, #56\n\
         movl #0xBEEF, @#0x4200       ; fill frame 33 via its own page\n\
         movl #0x5A5A, @#0x4000       ; page 32 hot (write, then read)\n\
         movl @#0x4000, r1\n\
         movl #{remap:#x}, @#{pte:#x} ; remap vpn 32 -> frame 33\n\
         movl @#0x4000, r2            ; not yet invalidated: old frame\n\
         mtpr #0x4000, #58            ; TBIS\n\
         movl @#0x4000, r3            ; re-walk: new frame\n halt",
        pte = pte_va(0x4000),
    );
    let mut m = load(&src);
    setup_guest_visible_mapping(&mut m);
    assert_eq!(m.run(1_000_000), RunExit::Halted);
    assert_eq!(m.gpr(1), 0x5A5A);
    assert_eq!(m.gpr(2), 0x5A5A, "PTE edits need an invalidate to be seen");
    assert_eq!(m.gpr(3), 0xBEEF, "TBIS forced a re-walk to the new frame");
}

/// `Tbis` is a *single*-entry invalidate, and a protection downgrade must
/// not be masked by a stale-permissive cached translation. Both pages are
/// downgraded to no-access in memory; only page 32 is TBIS'd. Page 33
/// still reads fine off its hot (stale, architecturally legal) entry,
/// while the very next access to page 32 takes the access violation.
#[test]
fn tbis_is_single_entry_and_honours_protection_downgrade() {
    let noaccess = Pte::new(32, PageProt::NoAccess).0;
    let noaccess33 = Pte::new(33, PageProt::NoAccess).0;
    let src = format!(
        "start: mtpr #1, #56\n\
         movl #0xAAAA, @#0x4000       ; page 32 hot\n\
         movl #0xBBBB, @#0x4200       ; page 33 hot\n\
         movl #{noaccess:#x}, @#{pte32:#x}\n\
         movl #{noaccess33:#x}, @#{pte33:#x}\n\
         mtpr #0x4000, #58            ; TBIS page 32 only\n\
         movl @#0x4200, r2            ; page 33 untouched: still readable\n\
         movl @#0x4000, r1            ; page 32 re-walks: violates\n halt\n\
         handler_at_20: popl r7\n movl #1, r9\n halt",
        pte32 = pte_va(0x4000),
        pte33 = pte_va(0x4200),
    );
    let mut m = load(&src);
    setup_guest_visible_mapping(&mut m);
    assert_eq!(m.run(1_000_000), RunExit::Halted);
    assert_eq!(m.gpr(2), 0xBBBB, "TBIS must not flush unrelated entries");
    assert_eq!(m.gpr(9), 1, "downgraded page faulted after TBIS");
    assert_eq!(m.gpr(7), 0x4000, "fault parameter is the downgraded VA");
    assert_eq!(m.gpr(1), 0, "the violating read never completed");
}

/// A mapping-register write flushes the micro-cache but — like the real
/// machine — not the TB: right after `mtpr table2, #p0br` the hot
/// translation still resolves through the *old* table (the micro-cache
/// must refill from the TB, not from the new table), and only TBIA
/// completes the switch.
#[test]
fn mapping_register_write_takes_effect_at_the_next_tb_invalidate() {
    let src = format!(
        "start: mtpr #1, #56\n\
         movl #0xBEEF, @#0x4200       ; fill frame 33\n\
         movl #0x5A5A, @#0x4000       ; page 32 hot\n\
         movl @#0x4000, r1\n\
         mtpr #{alt:#x}, #8           ; P0BR -> alternate table\n\
         movl @#0x4000, r2            ; TB still hot: old frame\n\
         mtpr #0, #57                 ; TBIA\n\
         movl @#0x4000, r3            ; re-walk via new table: frame 33\n halt",
        alt = ALT_TABLE,
    );
    let mut m = load(&src);
    setup_guest_visible_mapping(&mut m);
    // Alternate table: identity, except vpn 32 points at frame 33.
    for vpn in 0..PAGES {
        let pfn = if vpn == 32 { 33 } else { vpn };
        let pte = Pte::new(pfn, PageProt::AllRw);
        m.write_phys(ALT_TABLE + vpn * 4, &pte.0.to_le_bytes())
            .unwrap();
    }
    assert_eq!(m.run(1_000_000), RunExit::Halted);
    assert_eq!(m.gpr(1), 0x5A5A);
    assert_eq!(m.gpr(2), 0x5A5A, "P0BR write alone leaves the TB hot");
    assert_eq!(m.gpr(3), 0xBEEF, "TBIA re-walked through the new table");
    assert!(m.tlb_stats().full_flushes >= 1);
}

/// TBIA while hot: no stale translation survives a full invalidate — the
/// remapped PTE is honoured on the very next access.
#[test]
fn tbia_drops_every_hot_translation() {
    let remap = Pte::new(33, PageProt::AllRw).0;
    let src = format!(
        "start: mtpr #1, #56\n\
         movl #0xBEEF, @#0x4200\n\
         movl #0x5A5A, @#0x4000\n\
         movl @#0x4000, r1\n\
         movl #{remap:#x}, @#{pte:#x}\n\
         mtpr #0, #57                 ; TBIA\n\
         movl @#0x4000, r2\n halt",
        pte = pte_va(0x4000),
    );
    let mut m = load(&src);
    setup_guest_visible_mapping(&mut m);
    assert_eq!(m.run(1_000_000), RunExit::Halted);
    assert_eq!(m.gpr(1), 0x5A5A);
    assert_eq!(m.gpr(2), 0xBEEF, "no stale translation survived TBIA");
    assert!(m.tlb_stats().misses >= 2, "re-walk after the flush");
}

/// `tb_events` counts translation-structure events one apiece: TBIA,
/// TBIS and a mapping-register write (here MAPEN and P0BR) each bump
/// it, and an ordinary instruction does not — on both engine tiers.
#[test]
fn tb_events_count_tbia_tbis_and_mapping_register_writes() {
    let src = format!(
        "start: mtpr #1, #56\n\
         movl #1, r1\n\
         mtpr #0, #57                 ; TBIA\n\
         mtpr #0x4000, #58            ; TBIS\n\
         mtpr #{P0_TABLE:#x}, #8      ; P0BR\n halt"
    );
    for tier in [EngineTier::Reference, EngineTier::Fast] {
        let mut m = load(&src);
        m.set_engine_tier(tier);
        setup_guest_visible_mapping(&mut m);
        let mut seen = vec![m.tb_events()];
        for _ in 0..5 {
            assert_eq!(m.step_insns(1, 1_000_000), None);
            seen.push(m.tb_events());
        }
        let bumps: Vec<u64> = seen.windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(
            bumps,
            [1, 0, 1, 1, 1],
            "{tier:?}: MAPEN, movl, TBIA, TBIS, P0BR"
        );
        let view = m.superblock_cache();
        assert_eq!((view.epoch(), view.len()), (m.tb_events(), 0));
    }
}

// ── FastImage staleness ───────────────────────────────────────────────

/// The predecoded image is keyed on [`atum_ucode::ControlStore::version`]:
/// mutating the store bumps the version, and the next `fast_image()`
/// access rebuilds rather than serving the stale predecode. The machine
/// still runs correctly on the rebuilt image.
#[test]
fn fast_image_rebuilds_on_control_store_version_bump() {
    let mut m = load("start: movl #7, r1\n halt");
    let v0 = m.control_store().version();
    let len0 = {
        let img = m.fast_image();
        assert_eq!(img.version, v0);
        img.ops.len()
    };
    m.control_store_mut()
        .append_routine("test.pad", vec![MicroOp::Ret]);
    let v1 = m.control_store().version();
    assert!(v1 > v0, "store mutation must bump the version");
    let img = m.fast_image();
    assert_eq!(img.version, v1, "image rebuilt against the new version");
    assert_eq!(img.ops.len(), len0 + 1, "rebuilt image covers the new word");
    assert_eq!(m.run(100_000), RunExit::Halted);
    assert_eq!(m.gpr(1), 7, "machine still executes on the rebuilt image");
}
