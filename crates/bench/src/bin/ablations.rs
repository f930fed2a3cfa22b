//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. stripe-unit sweep — how layout granularity changes the savings;
//! 2. stripe-factor sweep — more I/O nodes = more spin-down targets;
//! 3. TPM timeout sweep — break-even vs rent-to-buy thresholds;
//! 4. DRPM minimum-level sweep — how deep the spindle may sleep;
//! 5. RAID-level sub-striping — the paper's "experiments with low-level
//!    striping generated similar results" (§7.1);
//! 6. loop fusion vs disk-reuse restructuring — the paper's §6.2.2 claim
//!    that its output "cannot be obtained by simple loop fusioning";
//! 7. relaxed array↔file mappings — §2's unevaluated one-to-many and
//!    many-to-one options, with the compiler re-deriving the disk map.
//!
//! No trace is ever materialized in memory: layout sweeps (1–2) go through
//! [`run_matrix`] with a per-point [`ExperimentConfig`], and the
//! policy/RAID/fusion/mapping sweeps (3–7) spill each distinct
//! (program, layout, transform) trace once through the `DPMTRC01` codec
//! ([`SpilledTrace`]) and replay it per sweep point from the pool's
//! workers — one generation amortized across every policy variant.
//!
//! Usage: `ablations [scale] [app]` (default small AST).

use dpm_apps::Scale;
use dpm_bench::{run_matrix, ExperimentConfig, MatrixCell, SpilledTrace, Version};
use dpm_core::{apply_transform, fuse_program, Transform};
use dpm_disksim::{
    DiskParams, DrpmConfig, PowerPolicy, RaidConfig, SimReport, Simulator, TpmConfig,
};
use dpm_ir::Program;
use dpm_layout::{FileMapping, LayoutMap, Striping};
use dpm_trace::{TraceGenOptions, TraceGenerator};

/// Spills the trace for one (program, layout, transform) point; replayed
/// per policy/RAID point below.
fn spill(program: &Program, layout: &LayoutMap, transform: Transform) -> SpilledTrace {
    let deps = dpm_ir::analyze(program);
    let schedule = apply_transform(program, layout, &deps, transform);
    let gen = TraceGenerator::new(
        program,
        layout,
        TraceGenOptions {
            max_request_bytes: layout.striping().stripe_unit(),
            ..TraceGenOptions::default()
        },
    );
    SpilledTrace::spill(&gen, &schedule)
}

fn replay(
    spill: &SpilledTrace,
    striping: Striping,
    policy: PowerPolicy,
    raid: RaidConfig,
) -> SimReport {
    spill.replay(&Simulator::new(DiskParams::default(), policy, striping).with_raid(raid))
}

fn saving(base: &SimReport, v: &SimReport) -> String {
    format!(
        "{:+.2}%",
        100.0 * (1.0 - v.total_energy_j() / base.total_energy_j())
    )
}

/// Runs `Base` and `T-TPM-s` through the experiment matrix under a
/// layout-specific config and returns `(base, t_tpm_s)` reports. The
/// `ClusteredS`-at-1-proc schedule is exactly `Transform::DiskReuse`, so
/// this matches a direct simulation of the disk-reuse schedule.
fn layout_point(app: &dpm_apps::BenchApp, striping: Striping) -> (SimReport, SimReport) {
    let config = ExperimentConfig {
        striping,
        trace: TraceGenOptions {
            max_request_bytes: striping.stripe_unit(),
            ..TraceGenOptions::default()
        },
        ..ExperimentConfig::default()
    };
    let cells = vec![MatrixCell {
        app: app.clone(),
        versions: vec![Version::Base, Version::TTpmS],
        procs: 1,
    }];
    let mut res = run_matrix(cells, &config);
    let mut results = res.remove(0).results;
    let t = results.remove(1).report;
    let base = results.remove(0).report;
    (base, t)
}

fn main() {
    let scale = match std::env::args().nth(1).as_deref() {
        Some("paper") => Scale::Paper,
        Some("large") => Scale::Large,
        Some("tiny") => Scale::Tiny,
        _ => Scale::Small,
    };
    let app_name = std::env::args().nth(2).unwrap_or_else(|| "AST".into());
    let app = dpm_apps::by_name(&app_name, scale).expect("unknown app");
    let program = app.program();
    println!("ablations on {} at {scale:?} scale\n", app.name);
    let single = RaidConfig::single();
    let tpm = PowerPolicy::Tpm(TpmConfig::proactive());

    // Sweep points are independent cells, so each sweep fans out on the
    // persistent `DPM_THREADS` pool and prints its rows in the original
    // parameter order.

    // 1. Stripe-unit sweep (per-point layout → per-point matrix).
    println!("1) stripe-unit sweep (T-TPM-s saving vs same-layout Base):");
    let sus = [8u64 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10];
    for (su, row) in dpm_exec::par_map_indexed(&sus, |_, &su| {
        let (base, t) = layout_point(&app, Striping::new(su, 8, 0));
        saving(&base, &t)
    })
    .into_iter()
    .enumerate()
    .map(|(i, row)| (sus[i], row))
    {
        println!("   {:>4} KB: {row}", su >> 10);
    }

    // 2. Stripe-factor sweep.
    println!("2) stripe-factor sweep (32 KB stripes):");
    let factors = [2usize, 4, 8, 16];
    for (disks, row) in factors
        .iter()
        .zip(dpm_exec::par_map_indexed(&factors, |_, &disks| {
            let (base, t) = layout_point(&app, Striping::new(32 << 10, disks, 0));
            saving(&base, &t)
        }))
    {
        println!("   {disks:>2} disks: {row}");
    }

    // Sweeps 3–6 share the paper-default layout: generate the Original
    // and DiskReuse traces exactly once each, then replay them under
    // every policy/RAID point.
    let s = Striping::paper_default();
    let layout = LayoutMap::new(&program, s);
    let base_spill = spill(&program, &layout, Transform::Original);
    let reuse_spill = spill(&program, &layout, Transform::DiskReuse);
    let base = replay(&base_spill, s, PowerPolicy::None, single);

    // 3. TPM timeout sweep (one spill, one replay per timeout).
    println!("3) TPM spin-down timeout sweep (Table 1 break-even = 15.2 s):");
    let mults = [1.0, 2.0, 4.0];
    for (mult, row) in mults
        .iter()
        .zip(dpm_exec::par_map_indexed(&mults, |_, &mult| {
            let cfg = TpmConfig {
                spin_down_timeout_ms: 15_200.0 * mult,
                proactive: true,
            };
            let t = replay(&reuse_spill, s, PowerPolicy::Tpm(cfg), single);
            format!(
                "{} (degr {:+.2}%)",
                saving(&base, &t),
                100.0 * (t.total_io_time_ms / base.total_io_time_ms - 1.0),
            )
        }))
    {
        println!(
            "   {:>4.1}x break-even ({:>5.1} s): {row}",
            mult,
            15.2 * mult
        );
    }

    // 4. DRPM minimum-level sweep (same spill, replayed again).
    println!("4) DRPM minimum RPM sweep (T-DRPM-s):");
    let rpms = [3_000u32, 6_000, 9_000, 12_000];
    for (min_rpm, row) in rpms
        .iter()
        .zip(dpm_exec::par_map_indexed(&rpms, |_, &min_rpm| {
            let cfg = DrpmConfig {
                min_rpm,
                proactive: true,
                ..DrpmConfig::default()
            };
            let t = replay(&reuse_spill, s, PowerPolicy::Drpm(cfg), single);
            saving(&base, &t)
        }))
    {
        println!("   min {min_rpm:>6} rpm: {row}");
    }

    // 5. RAID-level sub-striping: savings should be similar (§7.1). RAID
    // only changes the simulator, so both spills replay unchanged.
    println!("5) RAID-0 sub-striping inside each I/O node (normalized savings):");
    let member_counts = [1u32, 2, 4];
    for (members, row) in
        member_counts
            .iter()
            .zip(dpm_exec::par_map_indexed(&member_counts, |_, &members| {
                let raid = if members == 1 {
                    RaidConfig::single()
                } else {
                    RaidConfig::raid0(members, 8 << 10)
                };
                let b = replay(&base_spill, s, PowerPolicy::None, raid);
                let t = replay(&reuse_spill, s, tpm, raid);
                format!(
                    "saving {}  (base energy {:.0} J)",
                    saving(&b, &t),
                    b.total_energy_j()
                )
            }))
    {
        println!("   {members} disk(s)/node: {row}");
    }

    // 7. Relaxed array↔file mappings (§2's unevaluated options). The
    // compiler reads whatever layout is exposed, so clustering adapts.
    // Layouts differ per mapping, so each point spills its own pair.
    println!("7) relaxed array-file mappings (T-TPM-s saving vs matching Base):");
    let groups: Vec<Vec<usize>> = vec![(0..program.arrays.len()).collect()];
    let mappings = vec![
        ("one-to-one (default)", FileMapping::one_to_one(&program)),
        (
            "all arrays in one file",
            FileMapping::shared(&program, &groups),
        ),
        (
            "first array split x4",
            FileMapping::split_rows(&program, 0, 4),
        ),
    ];
    for (label, row) in dpm_exec::par_map_vec(mappings, |_, (label, mapping)| {
        let layout = LayoutMap::with_mapping(&program, s, &mapping);
        let b_spill = spill(&program, &layout, Transform::Original);
        let t_spill = spill(&program, &layout, Transform::DiskReuse);
        let b = replay(&b_spill, s, PowerPolicy::None, single);
        let t = replay(&t_spill, s, tpm, single);
        (label, saving(&b, &t))
    }) {
        println!("   {label:<24}: {row}");
    }

    // 6. Loop fusion baseline (its own program, so its own spill).
    println!("6) classic loop fusion vs disk-reuse restructuring (TPM):");
    let fused = fuse_program(&program);
    println!(
        "   fusion merged {} nests into {}",
        program.nests.len(),
        fused.nests.len()
    );
    let fused_layout = LayoutMap::new(&fused, s);
    let fused_spill = spill(&fused, &fused_layout, Transform::Original);
    let f = replay(&fused_spill, s, tpm, single);
    let t = replay(&reuse_spill, s, tpm, single);
    println!("   fused original order: {}", saving(&base, &f));
    println!("   disk-reuse restructured: {}", saving(&base, &t));
}
