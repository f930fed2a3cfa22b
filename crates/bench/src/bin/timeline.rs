//! Visualizes what the restructuring does to each disk's life: per-disk
//! power-state timelines for the Base and restructured runs, as ASCII
//! strips (`#` busy, `.` idle full-speed, `o` idle reduced-speed,
//! `_` standby, `~` transition).
//!
//! The timelines are not recorded by the simulator: they are rebuilt from
//! the `disk_state` events of the instrumentation stream
//! ([`dpm_disksim::timelines_from_events`]), exercising the same path an
//! external consumer of the JSONL output would use. Rows that share a
//! transform are fed from one pass over its trace
//! ([`dpm_bench::simulate_shared`]), so their events interleave in the
//! stream; each simulation's events are selected by the `obs_run` id
//! stamped on its report.
//!
//! Usage: `timeline [scale] [app]` (default small AST).

use dpm_apps::Scale;
use dpm_bench::{simulate_shared, ExperimentConfig};
use dpm_core::{apply_transform, Schedule, Transform};
use dpm_disksim::{
    ascii_timelines, timelines_from_events, DrpmConfig, PowerPolicy, Simulator, TpmConfig,
};
use dpm_layout::LayoutMap;
use dpm_trace::TraceGenerator;

fn main() {
    // This binary *is* a consumer of the event stream, so instrumentation
    // is always on here; DPM_OBS additionally tees the events to a file.
    dpm_obs::init_from_env();
    dpm_obs::enable();
    let collector = dpm_obs::install_collector();
    let scale = match std::env::args().nth(1).as_deref() {
        Some("paper") => Scale::Paper,
        Some("large") => Scale::Large,
        Some("tiny") => Scale::Tiny,
        _ => Scale::Small,
    };
    let app_name = std::env::args().nth(2).unwrap_or_else(|| "AST".into());
    let app = dpm_apps::by_name(&app_name, scale).expect("unknown app");
    let program = app.program();
    let config = ExperimentConfig::default();
    let layout = LayoutMap::new(&program, config.striping);
    let deps = dpm_ir::analyze(&program);
    let gen = TraceGenerator::new(&program, &layout, config.trace);

    let runs = [
        ("Base (no PM)", Transform::Original, PowerPolicy::None),
        (
            "TPM on original code",
            Transform::Original,
            PowerPolicy::Tpm(TpmConfig::default()),
        ),
        (
            "T-TPM-s (restructured)",
            Transform::DiskReuse,
            PowerPolicy::Tpm(TpmConfig::proactive()),
        ),
        (
            "T-DRPM-s (restructured)",
            Transform::DiskReuse,
            PowerPolicy::Drpm(DrpmConfig::proactive()),
        ),
    ];
    // Stream each transform's trace once into the simulators of all its
    // rows: the two Original-code rows share one pass, and no trace is
    // ever materialized in memory. `runs` lists the Original rows first,
    // so the flattened reports line up with it.
    let reports = [Transform::Original, Transform::DiskReuse].map(|transform| {
        let schedule: Schedule = apply_transform(&program, &layout, &deps, transform);
        let sims: Vec<Simulator> = runs
            .iter()
            .filter(|run| run.1 == transform)
            .map(|run| Simulator::new(config.disk, run.2, config.striping))
            .collect();
        let mut stream = gen.stream(&schedule);
        simulate_shared(&mut stream, &sims)
    });
    for ((label, _, _), report) in runs.into_iter().zip(reports.into_iter().flatten()) {
        println!(
            "\n{label} — {:.0} J over {:.0} s (rebuilt from run {} of the event stream)",
            report.total_energy_j(),
            report.makespan_ms / 1000.0,
            report.obs_run,
        );
        let timelines = timelines_from_events(
            &collector.snapshot(),
            report.obs_run,
            config.striping.num_disks(),
            report.makespan_ms,
        );
        print!("{}", ascii_timelines(&timelines, report.makespan_ms, 72));
    }
    println!(
        "\nlegend: # busy   . idle (full rpm)   o idle (reduced rpm)   _ standby   ~ transition\n\
         note: a column shows `#` if the disk was busy at any point inside it, so\n\
         short request bursts paint solid strips; the per-disk busy fractions in\n\
         the reports are the quantitative view."
    );
    dpm_obs::flush();
}
