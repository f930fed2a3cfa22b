//! The three workloads. Each is a closed-loop batch pass over the six
//! paper applications: the next pass starts when the previous one ends.
//!
//! Every workload has one pass function that runs with the tracer off (the
//! end-to-end passes) or on (the per-layer passes). Where the untraced pass
//! goes through a batch API that hides the layer boundaries
//! (`dpm_bench::run_matrix`, `SpilledTrace`), the traced pass calls the same
//! layers one by one, and its results must be bit-identical to the batch
//! API's.

use crate::calib;
use crate::expected::Expected;
use crate::tracer::Tracer;
use disk_reuse::optimizer::insert_power_hints;
use dpm_apps::{BenchApp, Scale};
use dpm_bench::{
    build_schedule, run_matrix, AppResults, ExperimentConfig, MatrixCell, RunReport, ScheduleShape,
    SpilledTrace, Version, VersionResult,
};
use dpm_disksim::{
    invariants, FaultPlan, IoRequest, RaidConfig, RequestStream, SimReport, Simulator,
};
use dpm_layout::LayoutMap;
use dpm_trace::{TraceGenerator, TraceReader, TraceStats, TraceWriter};
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperMatrix,
    PolicySweep,
    CompileVerify,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperMatrix,
        Workload::PolicySweep,
        Workload::CompileVerify,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMatrix => "paper-matrix",
            Workload::PolicySweep => "policy-sweep",
            Workload::CompileVerify => "compile-verify",
        }
    }

    /// The op-latency tail percentile and the untraced passes a run makes
    /// at least, chosen together so that at least ten ops lie beyond the
    /// percentile in every run. The percentile is fixed per workload, not
    /// picked from each run's op count, so that it never switches between
    /// runs; its rank falls inside one op class of the pass, not on the
    /// edge between two.
    pub fn tail(self) -> (f64, usize) {
        match self {
            // 12 ops a pass: p90 with 9+ passes (108+ ops, 10.8+ beyond).
            Workload::PaperMatrix => (90.0, 9),
            // 144 ops a pass: p99 with 7+ passes (1008+ ops, 10+ beyond).
            Workload::PolicySweep => (99.0, 7),
            // 30 ops a pass: p95 with 7+ passes (210+ ops, 10.5+ beyond).
            Workload::CompileVerify => (95.0, 7),
        }
    }
}

/// Fault rate of the seeded plans in `policy-sweep`. Fixed, so that the
/// seed changes which faults fire but not how much work they add.
const SWEEP_FAULT_RATE: f64 = 0.02;

/// The five schedules per application: the shapes each processor count
/// runs in Figure 9 (at one processor the two clustered shapes coincide).
const SCHEDULES: [(u32, ScheduleShape); 5] = [
    (1, ScheduleShape::Plain),
    (1, ScheduleShape::ClusteredS),
    (4, ScheduleShape::Plain),
    (4, ScheduleShape::ClusteredS),
    (4, ScheduleShape::ClusteredM),
];

fn versions(procs: u32) -> Vec<Version> {
    if procs == 1 {
        Version::single_cpu().to_vec()
    } else {
        Version::multi_cpu().to_vec()
    }
}

fn shape_label(shape: ScheduleShape) -> &'static str {
    match shape {
        ScheduleShape::Plain => "plain",
        ScheduleShape::ClusteredS => "clustered-s",
        ScheduleShape::ClusteredM => "clustered-m",
    }
}

fn is_transformed(v: Version) -> bool {
    v.shape() != ScheduleShape::Plain
}

/// One application, prepared by set-up.
pub struct AppInput {
    pub app: BenchApp,
    /// The parsed program printed back to source; `compile-verify` parses
    /// this text.
    pub printed: String,
}

/// Everything set-up builds; passes only read it.
pub struct Inputs {
    pub workload: Workload,
    pub apps: Vec<AppInput>,
    pub config: ExperimentConfig,
    pub seed: u64,
    pub expected: Expected,
    /// Scheduled iterations per pass: every workload builds the five
    /// schedules of every application, each covering all its iterations.
    pub iters_per_pass: u64,
}

/// Builds a workload's inputs from the scale and seed.
pub fn setup(
    workload: Workload,
    scale: Scale,
    scale_name: &str,
    seed: u64,
    config: ExperimentConfig,
) -> Inputs {
    let mut iters_per_pass = 0;
    let apps = dpm_apps::suite(scale)
        .into_iter()
        .map(|app| {
            let program = app.program();
            iters_per_pass += SCHEDULES.len() as u64 * program.total_iterations();
            let printed = dpm_ir::printer::print_program(&program);
            AppInput { app, printed }
        })
        .collect();
    Inputs {
        workload,
        apps,
        config,
        seed,
        expected: Expected::load(workload.name(), scale_name),
        iters_per_pass,
    }
}

/// One result a pass produced, with whether the expected-results file
/// pins it. Every entry must also repeat bit-for-bit in every pass.
pub struct Entry {
    pub key: String,
    pub value: String,
    pub pinned: bool,
}

/// One op: its latency, its results and any failed check.
pub struct Op {
    pub ms: f64,
    pub entries: Vec<Entry>,
    pub problems: Vec<String>,
}

/// One application's share of a pass: its ops, its samples and its I/O
/// requests.
type AppPart = (Vec<Op>, Vec<Sample>, u64);

/// One energy/performance data point behind the quality metrics.
struct Sample {
    group: (usize, u32),
    version: Version,
    faulted: bool,
    energy: f64,
    time_ms: f64,
    /// Lower over upper energy bound (static oracle or clairvoyant floor).
    tightness: f64,
}

pub struct PassOutcome {
    pub ops: Vec<Op>,
    /// I/O requests simulated (or, in `compile-verify`, bounded by the
    /// static oracle) in the pass.
    pub requests: u64,
    pub quality: Quality,
    /// Lines for the human-readable report.
    pub summary: Vec<String>,
}

/// The exact quality metrics of a pass, as ratios to the fault-free Base
/// result of the same application and processor count. Ratios stay
/// positive where the saving they encode (`1 - energy_norm`) changes sign.
#[derive(Clone, Copy)]
pub struct Quality {
    /// Mean energy over Base energy of the selected results.
    pub energy_norm: f64,
    /// Mean I/O time (makespan, for the oracle) over Base's.
    pub io_time_norm: f64,
    /// Geometric mean over all results of lower over upper energy bound.
    pub oracle_tightness: f64,
}

impl Quality {
    fn of(samples: &[Sample], include: impl Fn(&Sample) -> bool) -> Quality {
        let base = |g: (usize, u32)| {
            samples
                .iter()
                .find(|s| s.group == g && s.version == Version::Base && !s.faulted)
                .expect("every group has a fault-free Base sample")
        };
        let (mut energy, mut time, mut n) = (0.0, 0.0, 0.0);
        for s in samples.iter().filter(|s| include(s)) {
            let b = base(s.group);
            energy += s.energy / b.energy;
            time += s.time_ms / b.time_ms;
            n += 1.0;
        }
        let log_tight: f64 = samples.iter().map(|s| s.tightness.ln()).sum();
        Quality {
            energy_norm: energy / n,
            io_time_norm: time / n,
            oracle_tightness: (log_tight / samples.len() as f64).exp(),
        }
    }
}

impl Inputs {
    pub fn pass(&self, t: &mut Tracer) -> PassOutcome {
        match self.workload {
            Workload::PaperMatrix => self.paper_matrix(t),
            Workload::PolicySweep => self.policy_sweep(t),
            Workload::CompileVerify => self.compile_verify(t),
        }
    }

    /// Runs `f` once per application, serially with the tracer when it is
    /// on, else on the `DPM_THREADS` pool, and joins the parts in
    /// application order.
    fn per_app(
        &self,
        t: &mut Tracer,
        f: impl Fn(usize, &AppInput, &mut Tracer) -> AppPart + Sync,
    ) -> AppPart {
        let parts = if t.is_on() {
            self.apps
                .iter()
                .enumerate()
                .map(|(i, a)| f(i, a, t))
                .collect()
        } else {
            let idx: Vec<usize> = (0..self.apps.len()).collect();
            dpm_exec::par_map_vec(idx, |_, i| {
                f(i, &self.apps[i], &mut Tracer::new(false, Instant::now()))
            })
        };
        let mut all = (Vec::new(), Vec::new(), 0);
        for (ops, samples, requests) in parts {
            all.0.extend(ops);
            all.1.extend(samples);
            all.2 += requests;
        }
        all
    }

    fn check_report(&self, report: &SimReport, what: &str, problems: &mut Vec<String>) {
        for v in invariants::check_report(report, &self.config.disk, &RaidConfig::single()) {
            problems.push(format!("{what}: invariant violated: {v}"));
        }
    }

    // ---------------------------------------------------------------------
    // paper-matrix
    // ---------------------------------------------------------------------

    fn paper_matrix(&self, t: &mut Tracer) -> PassOutcome {
        let cells: Vec<MatrixCell> = [1u32, 4]
            .into_iter()
            .flat_map(|procs| {
                self.apps.iter().map(move |a| MatrixCell {
                    app: a.app.clone(),
                    versions: versions(procs),
                    procs,
                })
            })
            .collect();
        let timed: Vec<(f64, AppResults)> = if t.is_on() {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    calib::tick();
                    let t0 = Instant::now();
                    let r = t.op(i as u32, |t| self.traced_cell(c, t));
                    (ms_since(t0), r)
                })
                .collect()
        } else {
            dpm_exec::par_map_vec(cells, |_, c| {
                calib::tick();
                let t0 = Instant::now();
                let r = run_matrix(vec![c], &self.config)
                    .pop()
                    .expect("run_matrix returns one result per cell");
                (ms_since(t0), r)
            })
        };
        // The figure bins' JSON report, serialized but never written.
        let json_bytes = t.span("report.json", |_| {
            let mut report = RunReport::new("figure9").with_config(&self.config);
            for (_, r) in &timed {
                report.push_app(r);
            }
            report.to_json().to_string().len()
        });

        let mut ops = Vec::new();
        let mut samples = Vec::new();
        let mut requests = 0;
        for (ms, res) in &timed {
            let group = (app_index(&self.apps, res.app), res.procs);
            let mut op = Op {
                ms: *ms,
                entries: Vec::new(),
                problems: Vec::new(),
            };
            if json_bytes == 0 {
                op.problems.push("empty JSON report".into());
            }
            for r in &res.results {
                let key = format!("pm/{}/{}p/{}", res.app, res.procs, r.version.label());
                self.check_report(&r.report, &key, &mut op.problems);
                requests += r.report.app_requests;
                samples.push(sim_sample(group, r.version, false, &r.report, &self.config));
                op.entries.push(Entry {
                    key,
                    value: fingerprint(&r.report, &r.trace_stats),
                    pinned: true,
                });
            }
            ops.push(op);
        }
        PassOutcome {
            ops,
            requests,
            quality: Quality::of(&samples, |s| is_transformed(s.version)),
            summary: paper_summary(&samples),
        }
    }

    /// `dpm_bench::run_app` with a span around each layer call.
    fn traced_cell(&self, cell: &MatrixCell, t: &mut Tracer) -> AppResults {
        let config = &self.config;
        let program = t.span("ir.parse", |_| {
            dpm_ir::parse_program(&cell.app.source).expect("built-in program parses")
        });
        let layout = LayoutMap::new(&program, config.striping);
        let deps = t.span("ir.deps", |_| dpm_ir::analyze(&program));
        let gen =
            TraceGenerator::new(&program, &layout, config.trace).with_disk_params(config.disk);
        let mut traces: Vec<(ScheduleShape, dpm_disksim::Trace, TraceStats)> = Vec::new();
        let mut results = Vec::new();
        for &v in &cell.versions {
            let shape = v.shape();
            if !traces.iter().any(|(s, _, _)| *s == shape) {
                let schedule = traced_schedule(t, &program, &layout, &deps, shape, cell.procs);
                let (trace, stats) = t.span("trace.gen", |_| gen.generate(&schedule));
                count_trace(t, &stats);
                traces.push((shape, trace, stats));
            }
            let (_, trace, stats) = traces
                .iter()
                .find(|(s, _, _)| *s == shape)
                .expect("every version shape was generated above");
            let sim =
                Simulator::new(config.disk, v.policy(), config.striping).with_faults(config.faults);
            let report = t.span("sim.run", |_| sim.run(trace));
            count_sim(t, &report);
            results.push(VersionResult {
                version: v,
                report,
                trace_stats: *stats,
            });
        }
        AppResults {
            app: cell.app.name,
            procs: cell.procs,
            results,
        }
    }

    // ---------------------------------------------------------------------
    // policy-sweep
    // ---------------------------------------------------------------------

    fn policy_sweep(&self, t: &mut Tracer) -> PassOutcome {
        let (ops, samples, requests) = self.per_app(t, |ai, input, t| self.sweep_app(ai, input, t));
        PassOutcome {
            ops,
            requests,
            quality: Quality::of(&samples, |s| s.faulted || s.version != Version::Base),
            summary: Vec::new(),
        }
    }

    /// The seeded fault plan of one replay.
    fn fault_plan(&self, app: usize, procs: u32, v: Version) -> FaultPlan {
        let k = (app as u64) << 16 | u64::from(procs) << 8 | v as u64;
        FaultPlan::chaos(splitmix64(self.seed ^ splitmix64(k)), SWEEP_FAULT_RATE)
    }

    fn sweep_app(&self, ai: usize, input: &AppInput, t: &mut Tracer) -> AppPart {
        let config = &self.config;
        let program = t.span("ir.parse", |_| {
            dpm_ir::parse_program(&input.app.source).expect("built-in program parses")
        });
        let layout = LayoutMap::new(&program, config.striping);
        let deps = t.span("ir.deps", |_| dpm_ir::analyze(&program));
        let gen =
            TraceGenerator::new(&program, &layout, config.trace).with_disk_params(config.disk);
        let (mut ops, mut samples, mut requests) = (Vec::new(), Vec::new(), 0);
        let mut op_id = (ai as u32) << 8;
        for (procs, shape) in SCHEDULES {
            let schedule = traced_schedule(t, &program, &layout, &deps, shape, procs);
            let spill = Spill::new(t, &gen, &schedule);
            drop(schedule);
            for v in versions(procs).into_iter().filter(|v| v.shape() == shape) {
                for faulted in [false, true] {
                    let plan = if faulted {
                        self.fault_plan(ai, procs, v)
                    } else {
                        FaultPlan::zero()
                    };
                    let sim =
                        Simulator::new(config.disk, v.policy(), config.striping).with_faults(plan);
                    calib::tick();
                    let t0 = Instant::now();
                    let report = t.op(op_id, |t| spill.replay(t, &sim));
                    let ms = ms_since(t0);
                    op_id += 1;
                    let mut key = format!("ps/{}/{}p/{}", input.app.name, procs, v.label());
                    if faulted {
                        key.push_str("/faults");
                    }
                    let mut problems = Vec::new();
                    self.check_report(&report, &key, &mut problems);
                    requests += report.app_requests;
                    samples.push(sim_sample((ai, procs), v, faulted, &report, config));
                    ops.push(Op {
                        ms,
                        entries: vec![Entry {
                            value: fingerprint(&report, &spill.stats),
                            // Fault-free replays are pinned; seeded ones
                            // depend on the seed and are checked by the
                            // invariants and by repeating bit-for-bit.
                            pinned: !faulted,
                            key,
                        }],
                        problems,
                    });
                }
            }
        }
        (ops, samples, requests)
    }

    // ---------------------------------------------------------------------
    // compile-verify
    // ---------------------------------------------------------------------

    fn compile_verify(&self, t: &mut Tracer) -> PassOutcome {
        let (ops, samples, requests) =
            self.per_app(t, |ai, input, t| self.compile_app(ai, input, t));
        PassOutcome {
            ops,
            requests,
            quality: Quality::of(&samples, |s| is_transformed(s.version)),
            summary: Vec::new(),
        }
    }

    fn compile_app(&self, ai: usize, input: &AppInput, t: &mut Tracer) -> AppPart {
        let config = &self.config;
        let name = input.app.name;
        // The front end is shared by the application's five ops; its time
        // counts in the pass but in no op, and its failures fail the first.
        let mut front_problems = Vec::new();
        let program = t.span("ir.parse", |_| dpm_ir::parse_program(&input.printed));
        let program = match program {
            Ok(p) => p,
            Err(e) => {
                return (
                    vec![Op {
                        ms: 0.0,
                        entries: Vec::new(),
                        problems: vec![format!("{name}: printed source fails to parse: {e}")],
                    }],
                    Vec::new(),
                    0,
                )
            }
        };
        if dpm_ir::printer::print_program(&program) != input.printed {
            front_problems.push(format!(
                "{name}: print/parse round trip changed the program"
            ));
        }
        let layout = LayoutMap::new(&program, config.striping);
        let deps = t.span("ir.deps", |_| dpm_ir::analyze(&program));
        let lint = t.span("analyze.lint", |_| {
            dpm_analyze::lint_program(&program, Some(&layout), &deps)
        });
        let symbolic = t.span("analyze.symbolic", |_| {
            dpm_analyze::verify_disk_major(&program, &layout, &deps)
        });
        for d in lint.iter().chain(&symbolic.diagnostics) {
            if d.severity == dpm_analyze::Severity::Error {
                front_problems.push(format!("{name}: {d}"));
            }
        }
        let mut front = Some(Entry {
            key: format!("cv/{name}/front"),
            value: format!(
                "iters={} lint_warnings={} proved={}",
                program.total_iterations(),
                dpm_analyze::warning_count(&lint),
                symbolic.proved
            ),
            pinned: true,
        });

        let raid = RaidConfig::single();
        let (mut ops, mut samples, mut requests) = (Vec::new(), Vec::new(), 0);
        for (k, (procs, shape)) in SCHEDULES.into_iter().enumerate() {
            let label = shape_label(shape);
            calib::tick();
            let t0 = Instant::now();
            let mut problems = Vec::new();
            let value = t.op(((ai as u32) << 8) + k as u32, |t| {
                let schedule = traced_schedule(t, &program, &layout, &deps, shape, procs);
                let diags = t.span("analyze.verify", |_| {
                    dpm_analyze::verify_schedule(&program, &deps, &schedule)
                });
                for d in diags.iter().filter(|d| d.severity == dpm_analyze::Severity::Error) {
                    problems.push(format!("{name} {procs}p {label}: {d}"));
                }
                let mut value = format!(
                    "iters={} phases={}",
                    schedule.total_iterations(),
                    schedule.num_phases()
                );
                let mut pieces = 0;
                for v in versions(procs).into_iter().filter(|v| v.shape() == shape) {
                    let p = t.span("analyze.predict", |_| {
                        dpm_analyze::predict_energy(
                            &program,
                            &layout,
                            &schedule,
                            &config.trace,
                            &config.disk,
                            &v.policy(),
                            &raid,
                        )
                    });
                    if !p.counts_verified {
                        problems.push(format!(
                            "{name} {procs}p {}: oracle iteration counts disagree with the closed forms",
                            v.label()
                        ));
                    }
                    // The walk, and so the bounded pieces, are the same
                    // under every policy: count them once per schedule.
                    pieces = p.per_disk.iter().map(|d| d.pieces_upper).sum::<u64>();
                    // The lower bounds: the best case the oracle proves.
                    // The upper bounds of the reactive policies are too
                    // loose to compare versions by.
                    samples.push(Sample {
                        group: (ai, procs),
                        version: v,
                        faulted: false,
                        energy: p.energy_lower_j,
                        time_ms: p.makespan_lower_ms,
                        tightness: p.tightness(),
                    });
                    let _ = write!(
                        value,
                        " {}=[{:016x},{:016x},{:016x},{:016x}]",
                        v.label(),
                        p.energy_lower_j.to_bits(),
                        p.energy_upper_j.to_bits(),
                        p.makespan_lower_ms.to_bits(),
                        p.makespan_upper_ms.to_bits()
                    );
                }
                requests += pieces;
                let hints = t.span("analyze.hints", |_| {
                    insert_power_hints(&program, &layout, &schedule, &config.trace, &config.disk)
                        .map(|table| {
                            let diags = dpm_analyze::verify_hints(
                                &program,
                                &layout,
                                &schedule,
                                &config.trace,
                                &config.disk,
                                &table,
                            );
                            (table.len(), diags)
                        })
                });
                match hints {
                    Ok((directives, diags)) => {
                        t.count("analyze.directives", directives as u64);
                        let _ = write!(value, " directives={directives}");
                        for d in diags.iter().filter(|d| d.severity == dpm_analyze::Severity::Error) {
                            problems.push(format!("{name} {procs}p {label} hints: {d}"));
                        }
                    }
                    Err(diags) => {
                        for d in &diags {
                            problems.push(format!("{name} {procs}p {label} hint insertion: {d}"));
                        }
                    }
                }
                value
            });
            let mut entries = vec![Entry {
                key: format!("cv/{name}/{procs}p/{label}"),
                value,
                pinned: true,
            }];
            if let Some(front) = front.take() {
                problems.append(&mut front_problems);
                entries.push(front);
            }
            ops.push(Op {
                ms: ms_since(t0),
                entries,
                problems,
            });
        }
        (ops, samples, requests)
    }
}

/// Figure 9's published average energy savings beside the measured ones.
/// The disk model is validated against nothing else.
fn paper_summary(samples: &[Sample]) -> Vec<String> {
    let paper: [(u32, Version, f64); 7] = [
        (1, Version::Drpm, 9.95),
        (1, Version::TTpmS, 8.30),
        (1, Version::TDrpmS, 18.30),
        (4, Version::TTpmS, 3.84),
        (4, Version::TDrpmS, 10.66),
        (4, Version::TTpmM, 11.04),
        (4, Version::TDrpmM, 18.04),
    ];
    let mut lines = vec!["figure 9 average energy saving: measured vs paper".to_string()];
    for (procs, v, published) in paper {
        let savings: Vec<f64> = samples
            .iter()
            .filter(|s| s.group.1 == procs && s.version == v)
            .map(|s| {
                let base = samples
                    .iter()
                    .find(|b| b.group == s.group && b.version == Version::Base)
                    .expect("every group has a Base sample");
                100.0 * (1.0 - s.energy / base.energy)
            })
            .collect();
        lines.push(format!(
            "  {procs}p {:<9} measured {:>6.2} %  paper {published:>6.2} %",
            v.label(),
            savings.iter().sum::<f64>() / savings.len() as f64
        ));
    }
    lines
}

/// `dpm_bench::build_schedule` under a span, with its counters.
fn traced_schedule(
    t: &mut Tracer,
    program: &dpm_ir::Program,
    layout: &LayoutMap,
    deps: &dpm_ir::DependenceInfo,
    shape: ScheduleShape,
    procs: u32,
) -> dpm_core::Schedule {
    let schedule = t.span("core.schedule", |_| {
        build_schedule(program, layout, deps, shape, procs)
    });
    t.count("core.schedule_calls", 1);
    t.count("core.iters", schedule.total_iterations());
    schedule
}

fn count_trace(t: &mut Tracer, stats: &TraceStats) {
    t.count("trace.requests", stats.requests);
    t.count("trace.element_accesses", stats.element_accesses);
    t.count("trace.cache_hits", stats.cache_hits);
}

fn count_sim(t: &mut Tracer, report: &SimReport) {
    t.count("sim.requests", report.app_requests);
    t.count("sim.sub_requests", report.total_sub_requests());
    t.count("sim.retries", report.total_retries());
}

/// A trace spilled once through the `DPMTRC01` codec and replayed per
/// simulator configuration. Untraced, this is `dpm_bench::SpilledTrace`.
/// Traced, the same streams pass through a small buffer: generation and
/// encoding alternate chunk by chunk, and each replay decodes the spill a
/// chunk at a time as the simulator pulls it, so that generator, codec and
/// simulator each get spans of their own.
struct Spill {
    file: SpillFile,
    stats: TraceStats,
}

enum SpillFile {
    Lib(SpilledTrace),
    Traced(TracedSpillFile),
}

/// The traced twin's spill file, removed on drop like `SpilledTrace`'s.
struct TracedSpillFile(std::path::PathBuf);

impl Drop for TracedSpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Requests per traced chunk: generated before they are encoded, or
/// decoded before the simulator takes them.
const SPILL_CHUNK: usize = 1 << 12;

impl Spill {
    fn new(t: &mut Tracer, gen: &TraceGenerator<'_>, schedule: &dpm_core::Schedule) -> Spill {
        if !t.is_on() {
            let spill = SpilledTrace::spill(gen, schedule);
            return Spill {
                stats: spill.stats(),
                file: SpillFile::Lib(spill),
            };
        }
        let file = TracedSpillFile(traced_spill_path());
        let sink = std::fs::File::create(&file.0)
            .unwrap_or_else(|e| panic!("create spill file {}: {e}", file.0.display()));
        let mut writer = TraceWriter::new(sink);
        let mut stream = gen.stream(schedule);
        let mut chunk: Vec<IoRequest> = Vec::with_capacity(SPILL_CHUNK);
        loop {
            chunk.clear();
            t.span("trace.stream_gen", |_| {
                chunk.extend(std::iter::from_fn(|| stream.next_request()).take(SPILL_CHUNK));
            });
            if chunk.is_empty() {
                break;
            }
            t.span("codec.encode", |_| {
                for r in &chunk {
                    writer.write(r).expect("spill trace");
                }
            });
        }
        t.count("codec.requests", writer.requests());
        t.count("codec.bytes", writer.bytes_written());
        t.span("codec.encode", |_| {
            writer.finish().expect("finish trace spill")
        });
        let stats = stream.stats();
        count_trace(t, &stats);
        Spill {
            file: SpillFile::Traced(file),
            stats,
        }
    }

    fn replay(&self, t: &mut Tracer, sim: &Simulator) -> SimReport {
        let report = match &self.file {
            SpillFile::Lib(spill) => spill.replay(sim),
            SpillFile::Traced(TracedSpillFile(path)) => {
                let reader = t.span("codec.decode", |_| {
                    let src = std::fs::File::open(path)
                        .unwrap_or_else(|e| panic!("open spill file {}: {e}", path.display()));
                    TraceReader::new(src).expect("read trace spill header")
                });
                t.span("sim.replay", |t| {
                    sim.run_stream(&mut DecodeStream {
                        reader,
                        t,
                        chunk: Vec::with_capacity(SPILL_CHUNK),
                        next: 0,
                    })
                })
            }
        };
        count_sim(t, &report);
        report
    }
}

/// The spill's requests for the simulator, decoded a chunk at a time in
/// `codec.decode` spans nested in the replay's span.
struct DecodeStream<'a> {
    reader: TraceReader<std::fs::File>,
    t: &'a mut Tracer,
    chunk: Vec<IoRequest>,
    next: usize,
}

impl RequestStream for DecodeStream<'_> {
    fn next_request(&mut self) -> Option<IoRequest> {
        if self.next == self.chunk.len() {
            let (reader, chunk) = (&mut self.reader, &mut self.chunk);
            self.t.span("codec.decode", |_| {
                chunk.clear();
                while chunk.len() < SPILL_CHUNK {
                    match reader.read_request().expect("decode trace spill") {
                        Some(r) => chunk.push(r),
                        None => break,
                    }
                }
            });
            self.next = 0;
        }
        let r = self.chunk.get(self.next).copied();
        self.next += 1;
        r
    }
}

fn traced_spill_path() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static ID: AtomicU64 = AtomicU64::new(0);
    let id = ID.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("e2ebench-spill-{}-{id}.trc", std::process::id()))
}

fn sim_sample(
    group: (usize, u32),
    version: Version,
    faulted: bool,
    report: &SimReport,
    config: &ExperimentConfig,
) -> Sample {
    let energy = report.total_energy_j();
    Sample {
        group,
        version,
        faulted,
        energy,
        time_ms: report.total_io_time_ms,
        tightness: report.oracle_energy_j(&config.disk) / energy,
    }
}

/// Every simulated result that must repeat exactly, floats as bit patterns.
fn fingerprint(r: &SimReport, s: &TraceStats) -> String {
    format!(
        "energy={:016x} io={:016x} makespan={:016x} response={:016x} requests={} sub_requests={} \
         faults={} retries={} spin_downs={} trace_requests={} cache_hits={}",
        r.total_energy_j().to_bits(),
        r.total_io_time_ms.to_bits(),
        r.makespan_ms.to_bits(),
        r.total_response_ms.to_bits(),
        r.app_requests,
        r.total_sub_requests(),
        r.total_faults(),
        r.total_retries(),
        r.total_spin_downs(),
        s.requests,
        s.cache_hits,
    )
}

fn app_index(apps: &[AppInput], name: &str) -> usize {
    apps.iter()
        .position(|a| a.app.name == name)
        .expect("result names a suite application")
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
