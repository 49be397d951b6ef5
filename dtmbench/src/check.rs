//! Output correctness: pinned digests of the simulated statistics and
//! the paper-accuracy figure.
//!
//! The simulator is deterministic, so every statistic the benchmark
//! checks must repeat bit for bit. A change that only speeds the
//! simulator up leaves every digest below unchanged; a change to the
//! modelled physics must re-pin them on purpose.

use crate::stats::Digest;
use dtm_core::{MigrationKind, PolicySpec, RunResult, Scope, ThrottleKind};
use dtm_power::PowerTrace;
use dtm_workloads::standard_workloads;

/// Digest of the 144-cell Table 8 grid at 0.5 s (see [`table8_digest`]).
pub const TABLE8_DIGEST: u64 = 0x9def_881c_ee71_4eb4;

/// Bit pattern of [`table8_paper_err`] over that grid.
pub const TABLE8_PAPER_ERR_BITS: u64 = 0x3fd1_05a5_a5f1_11c3;

/// Trace digests ([`trace_digest`]) of the `tracegen-cold` benchmark
/// set at the default `TraceGenConfig`.
pub const TRACE_DIGESTS: &[(&str, u64)] = &[
    ("gzip", 0x251a_0111_ca2e_158a),
    ("mcf", 0x32a5_31de_80fb_f632),
    ("bzip2", 0xda59_b957_07c1_cd50),
    ("swim", 0x3d46_fb45_7911_2ff3),
    ("art", 0x5aa2_cf82_4c26_520a),
    ("ammp", 0x4e49_0096_fe32_6abb),
];

/// One simulated cell, named by workload id and policy wire name.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Standard workload id, e.g. `workload7`.
    pub workload: String,
    /// Policy, e.g. `dvfs/dist/sensor`.
    pub policy: PolicySpec,
    /// The simulated statistics.
    pub result: RunResult,
}

/// Digest of a set of cells over the statistics Table 8 and the
/// paper's other tables read: per-cell BIPS, energy, duty cycle, peak
/// temperature and emergency time, in a canonical cell order (so axis
/// order and execution order do not matter).
pub fn table8_digest(cells: &[CellResult]) -> u64 {
    let mut sorted: Vec<&CellResult> = cells.iter().collect();
    sorted.sort_by_key(|c| (c.workload.clone(), c.policy.wire_name()));
    let mut d = Digest::default();
    for c in sorted {
        let r = &c.result;
        d.bytes(c.workload.as_bytes())
            .bytes(c.policy.wire_name().as_bytes())
            .f64(r.bips())
            .f64(r.energy)
            .f64(r.duty_cycle)
            .f64(r.max_temp)
            .f64(r.emergency_time);
    }
    d.finish()
}

/// Checks a full Table 8 grid against the pinned digest and
/// paper-accuracy figure; returns the paper error on success.
///
/// # Errors
///
/// Describes the first mismatch.
pub fn check_table8(cells: &[CellResult], digest: u64, err_bits: u64) -> Result<f64, String> {
    let got = table8_digest(cells);
    if got != digest {
        return Err(format!(
            "table8 digest {got:#018x} != pinned {digest:#018x}"
        ));
    }
    let err = table8_paper_err(cells)?;
    if err.to_bits() != err_bits {
        return Err(format!(
            "table8_paper_err {err:?} (bits {:#018x}) != pinned bits {err_bits:#018x}",
            err.to_bits()
        ));
    }
    Ok(err)
}

/// The paper's Table 8: relative throughput against the distributed
/// stop-go baseline, in the row/column order `exp_table8` prints.
fn paper_table8() -> Vec<(PolicySpec, f64)> {
    let rows = [
        (Scope::Global, [0.62, 2.1, 1.2, 2.2, 1.2, 2.1]),
        (Scope::Distributed, [f64::NAN, 2.5, 2.0, 2.6, 2.1, 2.6]),
    ];
    let mut out = Vec::new();
    for (scope, values) in rows {
        let mut v = values.iter();
        for migration in [
            MigrationKind::None,
            MigrationKind::CounterBased,
            MigrationKind::SensorBased,
        ] {
            for throttle in [ThrottleKind::StopGo, ThrottleKind::Dvfs] {
                let paper = *v.next().expect("six columns per row");
                let p = PolicySpec::new(throttle, scope, migration);
                if p != PolicySpec::baseline() {
                    out.push((p, paper));
                }
            }
        }
    }
    out
}

/// Mean |ln(simulated ÷ paper)| over the 11 non-baseline entries of
/// Table 8, where "simulated" is mean BIPS over the policy's cells
/// divided by the baseline's — the ratios `exp_table8` prints. Means
/// sum in Table 4 workload order, as `exp_table8`'s do, so the figure
/// does not depend on the order the cells come in.
///
/// # Errors
///
/// Fails if a policy has no cells.
pub fn table8_paper_err(cells: &[CellResult]) -> Result<f64, String> {
    let order: Vec<String> = standard_workloads().into_iter().map(|w| w.id).collect();
    let rank = |id: &str| order.iter().position(|o| o == id).unwrap_or(order.len());
    let mut sorted: Vec<&CellResult> = cells.iter().collect();
    sorted.sort_by_key(|c| rank(&c.workload));
    let mean_bips = |p: PolicySpec| -> Result<f64, String> {
        let bips: Vec<f64> = sorted
            .iter()
            .filter(|c| c.policy == p)
            .map(|c| c.result.bips())
            .collect();
        if bips.is_empty() {
            return Err(format!("no cells for policy {}", p.wire_name()));
        }
        Ok(dtm_core::mean(&bips))
    };
    let base = mean_bips(PolicySpec::baseline())?;
    let entries = paper_table8();
    let mut sum = 0.0;
    for &(p, paper) in &entries {
        sum += (mean_bips(p)? / base / paper).ln().abs();
    }
    Ok(sum / entries.len() as f64)
}

/// Digest of every sample value of a trace (all unit powers, L2 share,
/// instruction count, register-file rates), plus its name, period and
/// length.
pub fn trace_digest(t: &PowerTrace) -> u64 {
    let mut d = Digest::default();
    d.bytes(t.name().as_bytes()).f64(t.dt()).u64(t.len() as u64);
    for i in 0..t.len() {
        let s = t.sample(i as u64);
        for &u in &s.units {
            d.f64(u);
        }
        d.f64(s.l2)
            .u64(s.instructions)
            .f64(s.int_rf_per_cycle)
            .f64(s.fp_rf_per_cycle);
    }
    d.finish()
}

/// Checks a generated trace against its pinned digest.
///
/// # Errors
///
/// Fails on a mismatch or a benchmark with no pin.
pub fn check_trace(t: &PowerTrace, pins: &[(&str, u64)]) -> Result<(), String> {
    let got = trace_digest(t);
    let want = pins
        .iter()
        .find(|(n, _)| *n == t.name())
        .map(|&(_, d)| d)
        .ok_or_else(|| format!("no pinned digest for trace `{}` ({got:#018x})", t.name()))?;
    if got != want {
        return Err(format!(
            "trace `{}` digest {got:#018x} != pinned {want:#018x}",
            t.name()
        ));
    }
    Ok(())
}

/// Checks a served result against the local reference run of the same
/// cell: every field must match exactly.
///
/// # Errors
///
/// Names the cell and the first differing statistic.
pub fn check_served(what: &str, served: &RunResult, reference: &RunResult) -> Result<(), String> {
    if served == reference {
        return Ok(());
    }
    let fields = [
        ("instructions", served.instructions, reference.instructions),
        ("energy", served.energy, reference.energy),
        ("duty_cycle", served.duty_cycle, reference.duty_cycle),
        ("max_temp", served.max_temp, reference.max_temp),
        (
            "emergency_time",
            served.emergency_time,
            reference.emergency_time,
        ),
    ];
    let diff = fields
        .iter()
        .find(|(_, a, b)| a.to_bits() != b.to_bits())
        .map_or("a non-headline field".to_string(), |(n, a, b)| {
            format!("{n}: served {a:?} vs local {b:?}")
        });
    Err(format!(
        "{what}: served result differs from Experiment::run ({diff})"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_core::{Experiment, SimConfig};

    fn tiny_grid() -> Vec<CellResult> {
        let exp = Experiment::fast_test().with_sim(SimConfig {
            duration: 0.002,
            ..SimConfig::default()
        });
        let w = &standard_workloads()[0];
        PolicySpec::all()
            .into_iter()
            .map(|p| CellResult {
                workload: w.id.clone(),
                policy: p,
                result: exp.run(w, p).unwrap(),
            })
            .collect()
    }

    #[test]
    fn perturbed_table8_result_fails_the_check() {
        let cells = tiny_grid();
        let digest = table8_digest(&cells);
        let err = table8_paper_err(&cells).unwrap();
        assert_eq!(check_table8(&cells, digest, err.to_bits()), Ok(err));

        // Reordering cells is not a change.
        let mut shuffled = cells.clone();
        shuffled.reverse();
        assert!(check_table8(&shuffled, digest, err.to_bits()).is_ok());

        // One ulp on one statistic of one cell is.
        for perturb in [
            |r: &mut RunResult| r.energy = f64::from_bits(r.energy.to_bits() + 1),
            |r: &mut RunResult| r.max_temp = f64::from_bits(r.max_temp.to_bits() + 1),
            |r: &mut RunResult| r.emergency_time += 1e-9,
            |r: &mut RunResult| r.duty_cycle = f64::from_bits(r.duty_cycle.to_bits() - 1),
            |r: &mut RunResult| r.instructions += 1.0,
        ] {
            let mut bad = cells.clone();
            perturb(&mut bad[5].result);
            assert!(check_table8(&bad, digest, err.to_bits()).is_err());
        }
    }

    #[test]
    fn paper_error_is_zero_at_the_paper_ratios() {
        let mut cells = tiny_grid();
        let base_bips = 2.0;
        for c in &mut cells {
            let rel = paper_table8()
                .iter()
                .find(|(p, _)| *p == c.policy)
                .map_or(1.0, |&(_, v)| v);
            c.result.instructions = rel * base_bips * 1e9 * c.result.duration;
        }
        assert!(table8_paper_err(&cells).unwrap() < 1e-12);
        assert_eq!(paper_table8().len(), 11);
    }

    #[test]
    fn perturbed_trace_and_served_results_fail_their_checks() {
        let lib = dtm_workloads::TraceLibrary::new(dtm_workloads::TraceGenConfig::fast_test());
        let t = lib.trace(&dtm_workloads::benchmark("gzip"));
        let pins = [("gzip", trace_digest(&t))];
        assert!(check_trace(&t, &pins).is_ok());
        let mut samples: Vec<_> = (0..t.len()).map(|i| t.sample(i as u64).clone()).collect();
        samples[3].l2 = f64::from_bits(samples[3].l2.to_bits() + 1);
        let bad = PowerTrace::new(t.name(), t.dt(), samples);
        assert!(check_trace(&bad, &pins).is_err());

        let r = tiny_grid().remove(0).result;
        assert!(check_served("cell", &r, &r).is_ok());
        let mut off = r.clone();
        off.max_temp += 1e-12;
        let e = check_served("cell", &off, &r).unwrap_err();
        assert!(e.contains("max_temp"), "{e}");
    }
}
