//! Static-energy-oracle benchmark and prediction-soundness gate.
//!
//! For every Tiny-suite application and four scheduler outputs —
//! original order, single-CPU disk-reuse clustering, 4-processor
//! baseline parallelization, and 4-processor layout-aware
//! parallelization — the oracle ([`dpm_analyze::predict_energy`])
//! derives closed-form energy bounds *before* a single request is
//! simulated, and the trace is then streamed once into simulators under
//! the no-power-management, reactive-TPM, and directive-driven policies.
//! The bench gates on the claims the oracle makes:
//!
//! * `bounds_contain_energy` — every simulated energy (cell × policy)
//!   lands inside the statically proven `[lower, upper]` interval;
//! * `counts_verified` — the walked iteration counts match dpm-poly's
//!   closed-form counts in every cell (the symbolic cross-check);
//! * `hints_verified` — `insert_power_hints` produces a directive table
//!   that `verify_hints` accepts for every cell (possibly empty when no
//!   window clears break-even).
//!
//! Metrics: mean bound tightness (`oracle_tightness_x`, lower/upper,
//! higher is better), spin-down prediction hit-rate
//! (`oracle_hit_rate_x`, predicted opportunities vs. actual
//! directive-policy spin-downs), and the static-vs-dynamic energy ratio
//! (`static_vs_dynamic_ratio`, directive policy vs. reactive TPM).
//!
//! Usage: `oracle_bench [tiny|small|large|paper] [out-path]`
//! (defaults: `tiny`, `BENCH_oracle.json`).

use disk_reuse::optimizer::insert_power_hints;
use dpm_apps::Scale;
use dpm_bench::{mean, simulate_shared, BenchRecord, GateStatus};
use dpm_core::Schedule;
use dpm_disksim::{DirectiveConfig, DiskParams, PowerPolicy, RaidConfig, Simulator, TpmConfig};
use dpm_obs::Json;
use dpm_trace::{TraceGenOptions, TraceGenerator};
use std::time::Instant;

/// One (app, schedule) cell of the oracle matrix.
struct Cell {
    app: &'static str,
    variant: &'static str,
    tightness: Vec<f64>,
    predicted_spin_downs: u64,
    actual_spin_downs: u64,
    directive_j: f64,
    tpm_j: f64,
    violations: Vec<String>,
    counts_verified: bool,
    hint_error: Option<String>,
    hint_count: usize,
}

fn schedules(
    program: &dpm_ir::Program,
    layout: &dpm_layout::LayoutMap,
) -> Vec<(&'static str, Schedule)> {
    let deps = dpm_ir::analyze(program);
    vec![
        ("orig-1p", dpm_core::original_schedule(program)),
        (
            "reuse-1p",
            dpm_core::restructure_single(program, layout, &deps),
        ),
        (
            "base-4p",
            dpm_core::parallelize_baseline(program, layout, &deps, 4, false),
        ),
        (
            "aware-4p",
            dpm_core::parallelize_layout_aware(program, layout, &deps, 4, true),
        ),
    ]
}

fn run_cell(
    app: &'static str,
    variant: &'static str,
    program: &dpm_ir::Program,
    layout: &dpm_layout::LayoutMap,
    schedule: &Schedule,
    options: &TraceGenOptions,
    params: &DiskParams,
) -> Cell {
    let striping = *layout.striping();
    let raid = RaidConfig::single();
    let gen = TraceGenerator::new(program, layout, *options);

    let policies: Vec<(&str, PowerPolicy)> = vec![
        ("none", PowerPolicy::None),
        ("tpm", PowerPolicy::Tpm(TpmConfig::default())),
        (
            "directive",
            PowerPolicy::Directive(DirectiveConfig::for_params(params)),
        ),
    ];
    let mut cell = Cell {
        app,
        variant,
        tightness: Vec::new(),
        predicted_spin_downs: 0,
        actual_spin_downs: 0,
        directive_j: 0.0,
        tpm_j: 0.0,
        violations: Vec::new(),
        counts_verified: true,
        hint_error: None,
        hint_count: 0,
    };
    let sims: Vec<Simulator> = policies
        .iter()
        .map(|&(_, policy)| Simulator::new(*params, policy, striping).with_raid(raid))
        .collect();
    let reports = simulate_shared(&mut gen.stream(schedule), &sims);
    for ((label, policy), report) in policies.into_iter().zip(reports) {
        let predicted =
            dpm_analyze::predict_energy(program, layout, schedule, options, params, &policy, &raid);
        let e = report.total_energy_j();
        if !predicted.contains(e) {
            cell.violations.push(format!(
                "{app}/{variant}/{label}: {e:.3} J outside [{:.3}, {:.3}]",
                predicted.energy_lower_j, predicted.energy_upper_j
            ));
        }
        cell.counts_verified &= predicted.counts_verified;
        cell.tightness.push(predicted.tightness());
        match label {
            "tpm" => cell.tpm_j = e,
            "directive" => {
                cell.directive_j = e;
                cell.predicted_spin_downs = predicted.spin_down_opportunities();
                cell.actual_spin_downs = report.total_spin_downs();
            }
            _ => {}
        }
    }
    match insert_power_hints(program, layout, schedule, options, params) {
        Ok(table) => cell.hint_count = table.len(),
        Err(diags) => {
            cell.hint_error = Some(
                diags
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; "),
            );
        }
    }
    cell
}

/// Predicted-vs-actual spin-down agreement in [0, 1]; perfect when both
/// sides agree (including the "no opportunity, no spin-down" case).
fn hit_rate(predicted: u64, actual: u64) -> f64 {
    let (lo, hi) = (predicted.min(actual), predicted.max(actual));
    if hi == 0 {
        1.0
    } else {
        lo as f64 / hi as f64
    }
}

fn main() {
    dpm_obs::init_from_env();
    let scale = match std::env::args().nth(1).as_deref() {
        Some("paper") => Scale::Paper,
        Some("large") => Scale::Large,
        Some("small") => Scale::Small,
        _ => Scale::Tiny,
    };
    let out_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_oracle.json".into());
    let threads = dpm_exec::num_threads();
    let striping = dpm_apps::paper_striping();
    let params = DiskParams::default();
    let options = TraceGenOptions {
        max_request_bytes: striping.stripe_unit(),
        ..TraceGenOptions::default()
    };
    println!(
        "oracle_bench: suite at {scale:?}, {} disks, break-even {:.0} ms, {threads} threads",
        striping.num_disks(),
        params.break_even_ms()
    );

    let t = Instant::now();
    let mut cells: Vec<Cell> = Vec::new();
    for app in dpm_apps::suite(scale) {
        let program = app.program();
        let layout = dpm_layout::LayoutMap::new(&program, striping);
        for (variant, schedule) in schedules(&program, &layout) {
            cells.push(run_cell(
                app.name, variant, &program, &layout, &schedule, &options, &params,
            ));
        }
    }
    // The suite's Tiny compute bursts never clear the ~15 s break-even
    // point, so add one synthetic long-burst program where the oracle
    // proves real windows: hints are inserted, the directive policy
    // actually spins disks down, and the hit-rate metric means something.
    let burst = dpm_ir::parse_program(
        "program burst;
         array A[2048] : f64;
         nest L1 { for i = 0 .. 511 { A[i] = A[i] + 1 @ 30000000; } }
         nest L2 { for i = 1536 .. 2047 { A[i] = A[i] + 1 @ 30000000; } }",
    )
    .expect("burst fixture parses");
    let burst_layout = dpm_layout::LayoutMap::new(&burst, dpm_layout::Striping::new(4096, 2, 0));
    for (variant, schedule) in schedules(&burst, &burst_layout) {
        cells.push(run_cell(
            "Burst",
            variant,
            &burst,
            &burst_layout,
            &schedule,
            &TraceGenOptions::default(),
            &params,
        ));
    }
    let matrix_ms = t.elapsed().as_secs_f64() * 1e3;

    println!(
        "  {:<10} {:<9} {:>10} {:>9} {:>9} {:>12} {:>6}",
        "app", "variant", "tight", "pred sd", "sim sd", "static/tpm", "hints"
    );
    let mut rows = Vec::new();
    for c in &cells {
        let tight = mean(&c.tightness);
        println!(
            "  {:<10} {:<9} {:>10.4} {:>9} {:>9} {:>12.4} {:>6}",
            c.app,
            c.variant,
            tight,
            c.predicted_spin_downs,
            c.actual_spin_downs,
            c.directive_j / c.tpm_j.max(1e-12),
            c.hint_count
        );
        rows.push(Json::obj(vec![
            ("app", Json::Str(c.app.into())),
            ("variant", Json::Str(c.variant.into())),
            ("tightness", Json::F64(tight)),
            ("predicted_spin_downs", Json::U64(c.predicted_spin_downs)),
            ("actual_spin_downs", Json::U64(c.actual_spin_downs)),
            ("directive_energy_j", Json::F64(c.directive_j)),
            ("tpm_energy_j", Json::F64(c.tpm_j)),
            ("hint_directives", Json::U64(c.hint_count as u64)),
        ]));
    }

    let scale_label = format!("{scale:?}");
    let mut record = BenchRecord::new("oracle_bench", &scale_label, threads);
    record.metric("oracle_matrix_ms", matrix_ms);
    let tightness: Vec<f64> = cells.iter().map(|c| mean(&c.tightness)).collect();
    let hit_rates: Vec<f64> = cells
        .iter()
        .map(|c| hit_rate(c.predicted_spin_downs, c.actual_spin_downs))
        .collect();
    let ratios: Vec<f64> = cells
        .iter()
        .map(|c| c.directive_j / c.tpm_j.max(1e-12))
        .collect();
    record.metric("oracle_tightness_x", mean(&tightness));
    record.metric("oracle_hit_rate_x", mean(&hit_rates));
    record.metric("static_vs_dynamic_ratio", mean(&ratios));
    record.context("cells", Json::Arr(rows));

    let violations: Vec<String> = cells.iter().flat_map(|c| c.violations.clone()).collect();
    record.gate(
        "bounds_contain_energy",
        if violations.is_empty() {
            GateStatus::Pass
        } else {
            GateStatus::Fail
        },
        if violations.is_empty() {
            format!(
                "{} cell x policy energies inside their proven bounds",
                cells.len() * 3
            )
        } else {
            violations.join("; ")
        },
    );
    let counts_ok = cells.iter().all(|c| c.counts_verified);
    record.gate(
        "counts_verified",
        if counts_ok {
            GateStatus::Pass
        } else {
            GateStatus::Fail
        },
        "walked iteration counts match dpm-poly closed forms in every cell",
    );
    let hint_errors: Vec<String> = cells
        .iter()
        .filter_map(|c| {
            c.hint_error
                .as_ref()
                .map(|e| format!("{}/{}: {e}", c.app, c.variant))
        })
        .collect();
    record.gate(
        "hints_verified",
        if hint_errors.is_empty() {
            GateStatus::Pass
        } else {
            GateStatus::Fail
        },
        if hint_errors.is_empty() {
            "insert_power_hints output accepted by verify_hints in every cell".into()
        } else {
            hint_errors.join("; ")
        },
    );

    println!(
        "  mean: tightness {:.4}, hit-rate {:.4}, static/dynamic {:.4} over {} cells",
        mean(&tightness),
        mean(&hit_rates),
        mean(&ratios),
        cells.len()
    );
    record.write(&out_path).expect("write BENCH_oracle.json");
    println!("wrote {out_path}");
    if record.any_gate_failed() {
        eprintln!("oracle_bench: FAIL — see gates above");
        std::process::exit(1);
    }
}
