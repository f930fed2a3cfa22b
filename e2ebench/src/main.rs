//! End-to-end and per-layer benchmark of the compile → trace → simulate
//! pipeline over the six paper applications.
//!
//! ```text
//! e2ebench --workload <paper-matrix|policy-sweep|compile-verify>
//!          [--seed N] [--seconds S] [--trace 0|1] [--scale small|tiny]
//!          [--out DIR] [--regen] [--perturb expected|disk]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! alternates untraced and traced passes and reports the per-layer metrics
//! from the traced ones, plus the tracing overhead. The last line of
//! standard output is the JSON result; the exit code is 0 only when every
//! op passed its checks. See README.md for the metrics and how to read the
//! span file.

mod calib;
mod expected;
mod tracer;
mod workloads;

use dpm_apps::Scale;
use dpm_bench::ExperimentConfig;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tracer::{self_time_ns, Span, Tracer};
use workloads::{Inputs, PassOutcome, Workload};

const USAGE: &str = "usage: e2ebench --workload <paper-matrix|policy-sweep|compile-verify> \
[--seed N] [--seconds S] [--trace 0|1] [--scale small|tiny] [--out DIR] [--regen] \
[--perturb expected|disk]";

/// Set-ups before the first pass and after each timed pass; `setup_s` is
/// the median of all of them. A set-up takes well under a millisecond, so
/// the repeats are spread over the run: a burst of them at the start alone
/// would sample a single moment of the host's speed.
const SETUP_REPEATS: usize = 5;

/// Traced passes a `--trace 1` run makes at least.
const MIN_TRACED_PASSES: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Perturb {
    Expected,
    Disk,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    scale_name: &'static str,
    out: PathBuf,
    regen: bool,
    perturb: Option<Perturb>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::PaperMatrix,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Small,
        scale_name: "small",
        out: PathBuf::from(".bench_out"),
        regen: false,
        perturb: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--scale" => {
                (args.scale, args.scale_name) = match value()?.as_str() {
                    "small" => (Scale::Small, "small"),
                    "tiny" => (Scale::Tiny, "tiny"),
                    v => return Err(format!("--scale takes small or tiny, not {v:?}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--regen" => args.regen = true,
            "--perturb" => {
                args.perturb = Some(match value()?.as_str() {
                    "expected" => Perturb::Expected,
                    "disk" => Perturb::Disk,
                    v => return Err(format!("--perturb takes expected or disk, not {v:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    let owner = expected::file_owner(args.workload.name());
    if args.regen && owner != args.workload.name() {
        return Err(format!(
            "{} is checked against the {owner} file; regenerate that",
            args.workload.name()
        ));
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("e2ebench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    // Process environment is set before any pool thread exists. The pool
    // runs at width 1 unless DPM_THREADS asks otherwise; spill files go to
    // the temp dir, pointed into the output directory so that the
    // benchmark writes only below its working directory.
    if std::env::var_os("DPM_THREADS").is_none() {
        std::env::set_var("DPM_THREADS", "1");
    }
    let tmp = args.out.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("e2ebench: cannot create {}: {e}", tmp.display());
        std::process::exit(2);
    }
    let tmp = std::fs::canonicalize(&tmp).unwrap_or(tmp);
    std::env::set_var("TMPDIR", &tmp);
    std::process::exit(run(&args));
}

fn run(args: &Args) -> i32 {
    let context = context_json(args);
    println!("context {context}");

    let mut config = ExperimentConfig::default();
    if args.perturb == Some(Perturb::Disk) {
        config.disk.idle_power_w += 0.5;
    }
    // Host time is scaled to the reference host's speed by the gauge
    // samples taken next to it (see calib.rs).
    let mut setup_s = Vec::new();
    let time_setups = |setup_s: &mut Vec<f64>, gauge: &[f64]| {
        let mut inputs = Vec::with_capacity(SETUP_REPEATS);
        for _ in 0..SETUP_REPEATS {
            let t0 = Instant::now();
            inputs.push(workloads::setup(
                args.workload,
                args.scale,
                args.scale_name,
                args.seed,
                config,
            ));
            setup_s.push(t0.elapsed().as_secs_f64() / calib::slowdown(gauge));
        }
        inputs.pop().expect("SETUP_REPEATS > 0")
    };
    let mut inputs = time_setups(&mut setup_s, &calib::burst());
    if args.perturb == Some(Perturb::Expected) {
        inputs.expected.perturb_first();
    }

    let epoch = Instant::now();
    let pass = |inputs: &Inputs, t: &mut Tracer| {
        let t0 = Instant::now();
        let out = t.span("pass", |t| inputs.pass(t));
        (t0.elapsed().as_secs_f64(), out)
    };

    // The first pass warms caches and the allocator; it is checked like
    // every other pass, is the reference all later passes must repeat
    // bit-for-bit, and gives the exact quality metrics, but is not timed.
    let (_, first) = pass(&inputs, &mut Tracer::new(false, epoch));
    if args.regen {
        let mut entries: Vec<(String, String)> = first
            .ops
            .iter()
            .flat_map(|op| &op.entries)
            .filter(|e| e.pinned)
            .map(|e| (e.key.clone(), e.value.clone()))
            .collect();
        entries.sort();
        return match expected::regen(args.workload.name(), args.scale_name, &entries) {
            Ok(path) => {
                println!(
                    "wrote {} expected results to {}",
                    entries.len(),
                    path.display()
                );
                0
            }
            Err(e) => {
                eprintln!("e2ebench: regen failed: {e}");
                1
            }
        };
    }
    let mut checker = Checker::default();
    checker.check(&inputs, &first);
    for line in &first.summary {
        println!("{line}");
    }

    let (tail_pct, min_passes) = args.workload.tail();
    let min_passes = if args.trace {
        MIN_TRACED_PASSES
    } else {
        min_passes
    };
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut raw_walls = Vec::new();
    let mut slowdowns = Vec::new();
    let mut op_ms = Vec::new();
    // Each op's scaled times, by its place in the pass.
    let mut per_op: Vec<Vec<f64>> = Vec::new();
    let mut exec = dpm_exec::ExecStats::default();
    let mut traced_walls = Vec::new();
    let mut layer_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut counts = BTreeMap::new();
    let mut spans: Vec<Vec<Span>> = Vec::new();
    loop {
        let before = dpm_exec::stats();
        // Gauge samples from right before, inside and right after the pass.
        let mut gauge = calib::burst();
        calib::start();
        let (wall, out) = pass(&inputs, &mut Tracer::new(false, epoch));
        let (inside, spent) = calib::stop();
        let after = calib::burst();
        let delta = dpm_exec::stats().since(&before);
        exec.maps += delta.maps;
        exec.steals += delta.steals;
        exec.busy_ns += delta.busy_ns;
        exec.parked_ns += delta.parked_ns;
        gauge.extend(&inside);
        gauge.extend(&after);
        let slowdown = calib::slowdown(&gauge);
        slowdowns.push(slowdown);
        // The samples inside the pass took time of their own.
        let wall = wall - spent;
        raw_walls.push(wall);
        walls.push(wall / slowdown);
        let ms: Vec<f64> = out.ops.iter().map(|o| o.ms / slowdown).collect();
        per_op.resize(ms.len(), Vec::new());
        for (times, &t) in per_op.iter_mut().zip(&ms) {
            times.push(t);
        }
        op_ms.extend(ms);
        checker.check(&inputs, &out);
        time_setups(&mut setup_s, &after);

        if args.trace {
            let mut t = Tracer::new(true, epoch);
            let (wall, out) = pass(&inputs, &mut t);
            traced_walls.push(wall);
            checker.check(&inputs, &out);
            for (name, ns) in self_time_ns(t.spans()) {
                layer_ms.entry(name).or_default().push(ns as f64 / 1e6);
            }
            counts = t.counts().clone();
            spans.push(t.spans().to_vec());
        }
        if start.elapsed().as_secs_f64() >= args.seconds && walls.len() >= min_passes {
            break;
        }
    }

    let wall_s = median(&walls);
    let metrics: Vec<(&str, f64, &str)>;
    if args.trace {
        // Both sides unscaled: a traced pass runs right after its
        // untraced twin.
        let traced = median(&traced_walls);
        let untraced = median(&raw_walls);
        let untraced_passes = walls.len() as f64;
        let layer = |name: &str| layer_ms.get(name).map_or(0.0, |v| median(v));
        let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        metrics = vec![
            ("core.schedule_ms", layer("core.schedule"), "ms"),
            ("core.schedule_calls", count("core.schedule_calls"), "count"),
            ("core.iters", count("core.iters"), "count"),
            (
                "core.ns_per_iter",
                per(layer("core.schedule") * 1e6, count("core.iters")),
                "ns",
            ),
            ("trace.gen_ms", layer("trace.gen"), "ms"),
            ("trace.stream_gen_ms", layer("trace.stream_gen"), "ms"),
            ("trace.requests", count("trace.requests"), "count"),
            (
                "trace.element_accesses",
                count("trace.element_accesses"),
                "count",
            ),
            (
                "trace.cache_hit_ratio",
                per(count("trace.cache_hits"), count("trace.element_accesses")),
                "ratio",
            ),
            (
                "trace.ns_per_request",
                per(
                    (layer("trace.gen") + layer("trace.stream_gen")) * 1e6,
                    count("trace.requests"),
                ),
                "ns",
            ),
            ("codec.encode_ms", layer("codec.encode"), "ms"),
            ("codec.decode_ms", layer("codec.decode"), "ms"),
            (
                "codec.bytes_per_request",
                per(count("codec.bytes"), count("codec.requests")),
                "bytes",
            ),
            ("sim.run_ms", layer("sim.run"), "ms"),
            ("sim.replay_ms", layer("sim.replay"), "ms"),
            ("sim.requests", count("sim.requests"), "count"),
            ("sim.sub_requests", count("sim.sub_requests"), "count"),
            (
                "sim.ns_per_request",
                per(
                    (layer("sim.run") + layer("sim.replay")) * 1e6,
                    count("sim.requests"),
                ),
                "ns",
            ),
            ("sim.retries", count("sim.retries"), "count"),
            ("analyze.lint_ms", layer("analyze.lint"), "ms"),
            ("analyze.symbolic_ms", layer("analyze.symbolic"), "ms"),
            ("analyze.verify_ms", layer("analyze.verify"), "ms"),
            ("analyze.predict_ms", layer("analyze.predict"), "ms"),
            ("analyze.hints_ms", layer("analyze.hints"), "ms"),
            ("analyze.directives", count("analyze.directives"), "count"),
            ("ir.parse_ms", layer("ir.parse"), "ms"),
            ("ir.deps_ms", layer("ir.deps"), "ms"),
            ("exec.maps", exec.maps as f64 / untraced_passes, "count"),
            (
                "exec.busy_ms",
                exec.busy_ns as f64 / 1e6 / untraced_passes,
                "ms",
            ),
            (
                "exec.parked_ms",
                exec.parked_ns as f64 / 1e6 / untraced_passes,
                "ms",
            ),
            ("exec.steals", exec.steals as f64 / untraced_passes, "count"),
            ("report.json_ms", layer("report.json"), "ms"),
            ("trace_overhead_pct", 100.0 * (traced / untraced - 1.0), "%"),
        ];
        println!(
            "per-layer self time, median over {} traced passes (untraced pass {:.1} ms, traced {:.1} ms):",
            traced_walls.len(),
            untraced * 1e3,
            traced * 1e3
        );
        for (name, v) in &layer_ms {
            println!("  {name:<20} {:>12.3} ms", median(v));
        }
        match write_spans(args, &context, &spans, &metrics) {
            Ok(path) => println!("spans written to {}", path.display()),
            Err(e) => checker.fail(format!("cannot write spans: {e}")),
        }
    } else {
        let q = first.quality;
        metrics = vec![
            ("setup_s", median(&setup_s), "s"),
            ("wall_s", wall_s, "s"),
            // The median over ops of each op's median time: a pass's ops
            // are a fixed mix of sizes, and the median of one pass's (or of
            // all) op times switches between the two ops ranked around it
            // as their times trade places; each op's own median does not.
            (
                "op_p50_ms",
                median(&per_op.iter().map(|t| median(t)).collect::<Vec<_>>()),
                "ms",
            ),
            ("op_tail_ms", percentile(&op_ms, tail_pct), "ms"),
            ("requests_per_s", first.requests as f64 / wall_s, "1/s"),
            ("iters_per_s", inputs.iters_per_pass as f64 / wall_s, "1/s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            ("energy_norm", q.energy_norm, "ratio"),
            ("io_time_norm", q.io_time_norm, "ratio"),
            ("oracle_tightness", q.oracle_tightness, "ratio"),
        ];
        println!(
            "op_tail_ms is p{tail_pct} of n={} ops over {} timed passes",
            op_ms.len(),
            walls.len()
        );
        println!("pass wall times (s): {raw_walls:?}");
        println!("host slowdown per pass: {slowdowns:?}");
        println!("pass wall times at the reference speed (s): {walls:?}");
        println!(
            "energy_saving_pct {} %, io_degradation_pct {} %",
            100.0 * (1.0 - q.energy_norm),
            100.0 * (q.io_time_norm - 1.0)
        );
    }

    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            checker.fail(format!("metric {name} is not finite"));
        }
        println!("{name:<24} {value:>20} {unit}");
    }
    println!("ops {}  failed_ops {}", checker.attempted, checker.failed);
    for m in checker.messages.iter().take(20) {
        println!("FAILED: {m}");
    }
    let correct = checker.failed == 0 && checker.messages.is_empty();
    let mut result = String::new();
    let _ = write!(
        result,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checker.attempted, checker.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            result,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    result.push_str("}}");
    println!("{result}");
    let _ = std::io::stdout().flush();
    if correct {
        0
    } else {
        1
    }
}

/// Counts ops and their failed checks.
#[derive(Default)]
struct Checker {
    reference: BTreeMap<String, String>,
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checker {
    fn check(&mut self, inputs: &Inputs, out: &PassOutcome) {
        for op in &out.ops {
            self.attempted += 1;
            let mut problems = op.problems.clone();
            for e in &op.entries {
                if e.pinned {
                    if let Err(m) = inputs.expected.check(&e.key, &e.value) {
                        problems.push(m);
                    }
                }
                match self.reference.get(&e.key) {
                    Some(v) if *v != e.value => problems.push(format!(
                        "{}: differs from the first pass: {} vs {}",
                        e.key, e.value, v
                    )),
                    Some(_) => {}
                    None => {
                        self.reference.insert(e.key.clone(), e.value.clone());
                    }
                }
            }
            if !problems.is_empty() {
                self.failed += 1;
                self.messages.extend(problems);
            }
        }
    }

    /// A failure outside any op.
    fn fail(&mut self, message: String) {
        self.messages.push(message);
    }
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Linear-interpolation percentile (`p` in 0..=100) of unsorted values.
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The run's context, carried by the first stdout line and the span file.
fn context_json(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"scale\": \"{}\", \
         \"nproc\": {nproc}, \"pool_width\": {}, \"git_commit\": \"{}\", \"rustc\": \"{}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale_name,
        dpm_exec::num_threads(),
        git_commit(Path::new(".git")),
        env!("E2EBENCH_RUSTC_VERSION"),
    )
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
fn git_commit(git: &Path) -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&git.join(reference)) {
        return id.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Writes the traced passes' spans as JSONL: the context, one line per
/// span, then the per-layer metrics.
fn write_spans(
    args: &Args,
    context: &str,
    passes: &[Vec<Span>],
    metrics: &[(&str, f64, &str)],
) -> std::io::Result<PathBuf> {
    let path = args.out.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(w, "{{\"kind\": \"context\", \"context\": {context}}}")?;
    for (pass, spans) in passes.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            let opt = |v: Option<String>| v.unwrap_or_else(|| "null".into());
            writeln!(
                w,
                "{{\"kind\": \"span\", \"pass\": {pass}, \"id\": {id}, \"name\": \"{}\", \"op\": {}, \
                 \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                opt(s.op.map(|o| o.to_string())),
                opt(s.parent.map(|p| p.to_string())),
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    let mut line = String::from("{\"kind\": \"per_layer\"");
    for (name, value, unit) in metrics {
        let _ = write!(
            line,
            ", \"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push('}');
    writeln!(w, "{line}")?;
    w.flush()?;
    Ok(path)
}
