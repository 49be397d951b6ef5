//! Pins every catalog trace bit for bit.
//!
//! Trace generation is deterministic, and nothing downstream (result
//! cache, trace cache, the paper's tables) re-derives a trace's
//! contents from its configuration: a change to the synthetic stream,
//! the core model or the power model that moves any sample would go
//! unnoticed until a headline number shifted. This test holds an FNV-1a
//! digest of every sample value of all 22 catalog traces at
//! `TraceGenConfig::fast_test()`, so a speed-up of the trace-generation
//! path must reproduce each trace exactly, and a deliberate model
//! change must re-pin on purpose.

use dtm_power::PowerTrace;
use dtm_workloads::{all_benchmarks, generate_trace, TraceGenConfig};

/// FNV-1a digest of a trace's name, period, length and, per sample,
/// every unit power, the L2 share, the instruction count and both
/// register-file rates (exact bit patterns, little-endian).
fn trace_digest(t: &PowerTrace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    fold(t.name().as_bytes());
    fold(&t.dt().to_bits().to_le_bytes());
    fold(&(t.len() as u64).to_le_bytes());
    for i in 0..t.len() {
        let s = t.sample(i as u64);
        for &u in &s.units {
            fold(&u.to_bits().to_le_bytes());
        }
        fold(&s.l2.to_bits().to_le_bytes());
        fold(&s.instructions.to_le_bytes());
        fold(&s.int_rf_per_cycle.to_bits().to_le_bytes());
        fold(&s.fp_rf_per_cycle.to_bits().to_le_bytes());
    }
    h
}

/// Digest of each catalog trace at `TraceGenConfig::fast_test()`.
const PINS: [(&str, u64); 22] = [
    ("gzip", 0xdf59_c3d2_e93b_9412),
    ("vpr", 0x397b_d12d_987f_5c4b),
    ("gcc", 0x2b78_a42f_d848_59ec),
    ("mcf", 0x31f5_369f_a5d4_c46e),
    ("crafty", 0x2f75_086b_2579_9cd1),
    ("parser", 0x91a7_43be_d73b_5956),
    ("eon", 0xa2da_8cba_9de6_7ead),
    ("perlbmk", 0x967e_5353_2086_26be),
    ("gap", 0xace5_dce4_2e10_e081),
    ("bzip2", 0x924e_b32b_cce8_bd60),
    ("twolf", 0x6fbd_fe4d_89d7_b682),
    ("swim", 0x1b44_c593_01b0_a623),
    ("mgrid", 0x356f_777c_9262_8af2),
    ("applu", 0xc582_234b_11b8_0109),
    ("mesa", 0xebdc_7f9a_78c4_4d94),
    ("art", 0x6bb3_ab2d_f582_3f2b),
    ("equake", 0xdfbe_8a37_8d30_4d5f),
    ("facerec", 0xabea_3b89_770f_7478),
    ("ammp", 0x10a1_aa4a_76c4_9160),
    ("lucas", 0xf90b_e0cf_b078_5fb3),
    ("fma3d", 0xca26_e2e1_b753_7198),
    ("sixtrack", 0xfcb9_289b_3dec_34cc),
];

#[test]
fn every_catalog_trace_matches_its_pin() {
    let benches = all_benchmarks();
    assert_eq!(benches.len(), PINS.len(), "catalog size changed");
    let cfg = TraceGenConfig::fast_test();
    // Two threads halve the wall time of this (debug-build) test.
    let (even, odd): (Vec<_>, Vec<_>) = benches.iter().enumerate().partition(|(i, _)| i % 2 == 0);
    let digests = std::thread::scope(|s| {
        let handles = [even, odd].map(|part| {
            let cfg = &cfg;
            s.spawn(move || {
                part.into_iter()
                    .map(|(_, b)| (b.name.clone(), trace_digest(&generate_trace(b, cfg))))
                    .collect::<Vec<_>>()
            })
        });
        handles
            .map(|h| h.join().expect("trace generation panicked"))
            .concat()
    });
    let mut wrong = Vec::new();
    for (name, got) in &digests {
        let want = PINS
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no pin for catalog trace `{name}` ({got:#018x})"))
            .1;
        if *got != want {
            wrong.push(format!("{name}: {got:#018x} != pinned {want:#018x}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "trace digests moved:\n{}",
        wrong.join("\n")
    );
}
