//! Regenerates Figure 9: normalized disk energy consumption per application
//! and code version — part (a) single processor, part (b) four processors.
//!
//! Usage: `figure9 [scale] [csv-path]` (scale: paper | large | small |
//! tiny; default paper). Every scale streams each schedule's trace once
//! into all the versions that share it ([`dpm_bench::run_app`]), so even
//! the paper geometry runs in flat memory.
//! Prints the paper's reported averages next to the measured ones and
//! optionally writes a CSV with every bar. Always writes the full result
//! set as JSON to `results/figure9.json`; with `DPM_OBS` set, the JSON
//! additionally carries per-pass compiler/simulator timings.

use dpm_apps::Scale;
use dpm_bench::{
    mean, pct, run_matrix, AppResults, ExperimentConfig, MatrixCell, RunReport, Version,
};
use dpm_obs::Json;
use std::fmt::Write as _;

/// Looks up a version's normalized energy, exiting with a named diagnostic
/// (instead of a panic) when the cell is missing from the sweep.
fn energy(res: &AppResults, v: Version) -> f64 {
    res.try_normalized_energy(v).unwrap_or_else(|e| {
        eprintln!("figure9: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let obs = dpm_obs::init_from_env();
    let collector = obs.then(dpm_obs::install_collector);
    let scale = match std::env::args().nth(1).as_deref() {
        Some("large") => Scale::Large,
        Some("small") => Scale::Small,
        Some("tiny") => Scale::Tiny,
        _ => Scale::Paper,
    };
    let csv_path = std::env::args().nth(2);
    let config = ExperimentConfig::default();
    let mut csv = String::from("figure,app,version,normalized_energy\n");
    let mut report = RunReport::new("figure9")
        .with_config(&config)
        .with_field("scale", Json::Str(format!("{scale:?}")));

    for (part, procs, versions) in [
        ("9(a)", 1u32, Version::single_cpu().to_vec()),
        ("9(b)", 4u32, Version::multi_cpu().to_vec()),
    ] {
        println!("\nFigure {part}: normalized energy, {procs} processor(s), {scale:?} scale");
        print!("{:<12}", "App");
        for v in &versions {
            print!(" {:>9}", v.label());
        }
        println!();
        // All apps of this part run concurrently; `run_matrix` returns them
        // in suite order, so the printed rows, CSV, and JSON are identical
        // to a serial sweep.
        let cells: Vec<MatrixCell> = dpm_apps::suite(scale)
            .into_iter()
            .map(|app| MatrixCell {
                app,
                versions: versions.clone(),
                procs,
            })
            .collect();
        let all: Vec<AppResults> = run_matrix(cells, &config);
        for res in &all {
            print!("{:<12}", res.app);
            for v in &versions {
                let e = energy(res, *v);
                print!(" {:>9.3}", e);
                let _ = writeln!(csv, "{part},{},{},{e:.4}", res.app, v.label());
            }
            println!();
            report.push_app(res);
        }
        print!("{:<12}", "average");
        for v in &versions {
            let avg = mean(&all.iter().map(|r| energy(r, *v)).collect::<Vec<_>>());
            print!(" {:>9.3}", avg);
        }
        println!();
        print!("{:<12}", "avg saving");
        for v in &versions {
            let avg = mean(&all.iter().map(|r| 1.0 - energy(r, *v)).collect::<Vec<_>>());
            print!(" {:>9}", pct(avg));
        }
        println!();
        if procs == 1 {
            println!("paper avgs:  TPM ~0%, DRPM 9.95%, T-TPM-s 8.30%, T-DRPM-s 18.30% savings");
        } else {
            println!(
                "paper avgs:  T-TPM-s 3.84%, T-DRPM-s 10.66%, T-TPM-m 11.04%, T-DRPM-m 18.04% savings"
            );
        }
    }
    // Opt-in tier axis (`DPM_TIER=1`): the heterogeneous-storage sweep of
    // `tier_bench`, printed as a third part and embedded in the JSON
    // report. Off by default so the standard figure (and its golden
    // snapshot) is byte-identical to the flat-only runs.
    if dpm_bench::tier_axis_enabled() {
        let tier_config = dpm_bench::TierSweepConfig::default();
        let sweep = dpm_bench::run_tier_suite(scale, &tier_config);
        println!(
            "\nFigure 9(c): tiered placement, energy normalized to the flat array \
             ({} fast + {} cold disks)",
            tier_config.fast_disks, tier_config.cold_disks
        );
        let scenarios = dpm_bench::TierScenario::all();
        print!("{:<12}", "App");
        for s in &scenarios {
            print!(" {:>9}", s.label());
        }
        println!();
        for app in &sweep {
            let flat = app
                .energy(dpm_bench::TierScenario::Flat)
                .expect("flat scenario");
            print!("{:<12}", app.app);
            for s in &scenarios {
                print!(" {:>9.3}", app.energy(*s).expect("scenario") / flat);
            }
            println!();
        }
        print!("{:<12}", "avg saving");
        for s in &scenarios {
            let avg = mean(
                &sweep
                    .iter()
                    .map(|a| {
                        1.0 - a.energy(*s).unwrap()
                            / a.energy(dpm_bench::TierScenario::Flat).unwrap()
                    })
                    .collect::<Vec<_>>(),
            );
            print!(" {:>9}", pct(avg));
        }
        println!();
        report = report.with_field("tier_sweep", dpm_bench::tier_sweep_json(&sweep));
    }

    if let Some(path) = csv_path {
        std::fs::write(&path, csv).expect("write csv");
        println!("\nCSV written to {path}");
    }
    if let Some(c) = &collector {
        report.add_pass_timings(&c.snapshot());
    }
    report
        .write("results/figure9.json")
        .expect("write json report");
    println!("\nJSON report written to results/figure9.json");
    dpm_obs::flush();
}
