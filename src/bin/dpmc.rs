//! `dpmc` — the disk-power-management compiler driver.
//!
//! A command-line front-end over the whole pipeline: parse a program in the
//! pseudo-language, analyze it, restructure or parallelize it, emit the
//! transformed source or an I/O trace, and optionally simulate the trace
//! under a power policy.
//!
//! ```text
//! dpmc analyze  prog.dpm
//! dpmc emit     prog.dpm [--symbolic]
//! dpmc trace    prog.dpm --transform reuse --out prog.trace
//! dpmc simulate prog.dpm --transform reuse --policy t-drpm --procs 4
//! dpmc simulate prog.trace --policy tpm          # pre-generated trace
//! dpmc optimize prog.dpm --policy t-tpm          # unified layout search
//! ```

use disk_reuse::prelude::*;
use std::process::ExitCode;

struct Options {
    command: String,
    input: String,
    transform: String,
    policy: String,
    procs: u32,
    stripe_unit: u64,
    disks: usize,
    start_disk: usize,
    out: Option<String>,
    symbolic: bool,
}

/// Widest array the restructuring transforms handle: their disk
/// footprints are 64-bit masks.
const MAX_RESTRUCTURE_DISKS: usize = 64;

fn usage() -> &'static str {
    "dpmc — compiler-guided disk power management (CGO'06 reproduction)

USAGE:
    dpmc <COMMAND> <INPUT> [OPTIONS]

COMMANDS:
    analyze    parse and print arrays, nests, dependences, parallel loops
    emit       print the restructured program source
    trace      generate the I/O request trace (five-field text format)
    simulate   run the trace through the disk simulator
    optimize   search layouts x transforms for minimum energy

OPTIONS:
    --transform <original|reuse|parallel|parallel-aware>   (default reuse)
    --policy    <base|tpm|drpm|t-tpm|t-drpm>               (default base)
    --procs     <N>          processors for parallel transforms (default 4)
    --stripe    <BYTES>      stripe unit (default 32768)
    --disks     <N>          stripe factor (default 8)
    --start     <N>          starting iodevice (default 0)
    --out       <FILE>       write output here instead of stdout
    --symbolic  emit via the polyhedral code generator (Figure 2(c) form)
"
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(|| usage().to_string())?;
    if command == "--help" || command == "-h" || command == "help" {
        return Err(usage().to_string());
    }
    let input = args.next().ok_or("missing <INPUT>")?;
    let mut o = Options {
        command,
        input,
        transform: "reuse".into(),
        policy: "base".into(),
        procs: 4,
        stripe_unit: 32 * 1024,
        disks: 8,
        start_disk: 0,
        out: None,
        symbolic: false,
    };
    while let Some(flag) = args.next() {
        let mut val = |name: &str| -> Result<String, String> {
            args.next().ok_or(format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--transform" => o.transform = val("--transform")?,
            "--policy" => o.policy = val("--policy")?,
            "--procs" => {
                o.procs = val("--procs")?
                    .parse()
                    .map_err(|e| format!("--procs: {e}"))?
            }
            "--stripe" => {
                o.stripe_unit = val("--stripe")?
                    .parse()
                    .map_err(|e| format!("--stripe: {e}"))?
            }
            "--disks" => {
                o.disks = val("--disks")?
                    .parse()
                    .map_err(|e| format!("--disks: {e}"))?
            }
            "--start" => {
                o.start_disk = val("--start")?
                    .parse()
                    .map_err(|e| format!("--start: {e}"))?
            }
            "--out" => o.out = Some(val("--out")?),
            "--symbolic" => o.symbolic = true,
            other => return Err(format!("unknown option `{other}`\n\n{}", usage())),
        }
    }
    if o.procs == 0 {
        return Err("--procs: must be at least 1".into());
    }
    if o.stripe_unit == 0 {
        return Err("--stripe: must be at least 1 byte".into());
    }
    if o.disks == 0 {
        return Err("--disks: must be at least 1".into());
    }
    if o.start_disk >= o.disks {
        return Err(format!(
            "--start: must be below --disks ({}), got {}",
            o.disks, o.start_disk
        ));
    }
    let applies_transform = match o.command.as_str() {
        "emit" => !o.symbolic,
        "trace" => true,
        "simulate" => !o.input.ends_with(".trace"),
        _ => false,
    };
    if applies_transform && o.transform != "original" && o.disks > MAX_RESTRUCTURE_DISKS {
        return Err(format!(
            "--disks: transform `{}` supports at most {MAX_RESTRUCTURE_DISKS} disks, got {} \
             (use --transform original for wider arrays)",
            o.transform, o.disks
        ));
    }
    Ok(o)
}

fn transform_of(o: &Options) -> Result<Transform, String> {
    Ok(match o.transform.as_str() {
        "original" => Transform::Original,
        "reuse" => Transform::DiskReuse,
        "parallel" => Transform::Parallel {
            procs: o.procs,
            scheme: Assignment::Baseline,
            cluster: true,
        },
        "parallel-aware" => Transform::Parallel {
            procs: o.procs,
            scheme: Assignment::LayoutAware,
            cluster: true,
        },
        other => return Err(format!("unknown transform `{other}`")),
    })
}

fn policy_of(name: &str) -> Result<PowerPolicy, String> {
    Ok(match name {
        "base" => PowerPolicy::None,
        "tpm" => PowerPolicy::Tpm(TpmConfig::default()),
        "t-tpm" => PowerPolicy::Tpm(TpmConfig::proactive()),
        "drpm" => PowerPolicy::Drpm(DrpmConfig::default()),
        "t-drpm" => PowerPolicy::Drpm(DrpmConfig::proactive()),
        other => return Err(format!("unknown policy `{other}`")),
    })
}

fn write_out(out: &Option<String>, text: &str) -> Result<(), String> {
    match out {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("write {path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn run() -> Result<(), String> {
    let o = parse_args()?;
    let striping = Striping::new(o.stripe_unit, o.disks, o.start_disk);

    // `simulate` also accepts a pre-generated trace file.
    if o.command == "simulate" && o.input.ends_with(".trace") {
        let text = std::fs::read_to_string(&o.input).map_err(|e| format!("{}: {e}", o.input))?;
        let trace = Trace::from_text(&text).map_err(|e| e.to_string())?;
        let sim = Simulator::new(DiskParams::default(), policy_of(&o.policy)?, striping);
        let report = sim.run(&trace);
        return write_out(&o.out, &format!("{report}"));
    }

    let source = std::fs::read_to_string(&o.input).map_err(|e| format!("{}: {e}", o.input))?;
    let program = parse_program(&source).map_err(|e| e.to_string())?;
    let layout = LayoutMap::new(&program, striping);
    let deps = analyze(&program);

    // The transforms and the trace generator assume every access lies
    // inside its array; report the lint pass's errors (for example
    // `E_FOOTPRINT_OOB`) instead of panicking deep inside a transform.
    if matches!(
        o.command.as_str(),
        "emit" | "trace" | "simulate" | "optimize"
    ) {
        let errors: Vec<String> = lint_program(&program, Some(&layout), &deps)
            .iter()
            .filter(|d| d.severity == disk_reuse::analyze::Severity::Error)
            .map(ToString::to_string)
            .collect();
        if !errors.is_empty() {
            return Err(errors.join("\n"));
        }
    }

    match o.command.as_str() {
        "analyze" => {
            let mut text = format!(
                "program `{}`: {} arrays, {:.3} GB data, {} nests, {} iterations\n",
                program.name,
                program.arrays.len(),
                program.total_data_bytes() as f64 / (1u64 << 30) as f64,
                program.nests.len(),
                program.total_iterations()
            );
            for (i, a) in program.arrays.iter().enumerate() {
                text.push_str(&format!(
                    "  array {:<10} {:>12} bytes, file base {}\n",
                    a.name,
                    a.size_bytes(),
                    layout.file_base(i)
                ));
            }
            for ni in 0..program.nests.len() {
                let nest = &program.nests[ni];
                let ds = deps.nest_exact_distances(ni);
                let par =
                    disk_reuse::ir::outermost_parallel_loop(&deps.nest_distances(ni), nest.depth());
                text.push_str(&format!(
                    "  nest {:<12} depth {} trips {:>10} distances {:?} parallel-loop {:?}{}\n",
                    nest.name,
                    nest.depth(),
                    nest.trip_count(),
                    ds,
                    par.map(|k| nest.loops[k].var.clone()),
                    if deps.nest_requires_original_order(ni) {
                        "  [serial: * dependence]"
                    } else {
                        ""
                    }
                ));
            }
            for c in &deps.cross {
                text.push_str(&format!("  cross-nest dependence: {c:?}\n"));
            }
            write_out(&o.out, &text)
        }
        "emit" => {
            if o.symbolic {
                let plan =
                    restructure_symbolic(&program, &layout, &deps).map_err(|e| e.to_string())?;
                write_out(&o.out, &plan.to_source(&program))
            } else {
                // Emission of the enumerated schedule is a trace of
                // iterations; print the original source plus a summary.
                let schedule = apply_transform(&program, &layout, &deps, transform_of(&o)?);
                schedule.validate_coverage(&program)?;
                let text = format!(
                    "// transform `{}`: {} iterations over {} phases × {} procs\n{}",
                    o.transform,
                    schedule.total_iterations(),
                    schedule.num_phases(),
                    schedule.num_procs(),
                    disk_reuse::ir::printer::print_program(&program),
                );
                write_out(&o.out, &text)
            }
        }
        "trace" => {
            let schedule = apply_transform(&program, &layout, &deps, transform_of(&o)?);
            schedule.validate_coverage(&program)?;
            let gen = TraceGenerator::new(
                &program,
                &layout,
                TraceGenOptions {
                    max_request_bytes: striping.stripe_unit(),
                    ..TraceGenOptions::default()
                },
            );
            let (trace, stats) = gen.generate(&schedule);
            eprintln!(
                "generated {} requests, {:.2} MB, io-fraction {:.2}",
                trace.len(),
                stats.bytes as f64 / 1e6,
                stats.io_fraction()
            );
            write_out(&o.out, &trace.to_text())
        }
        "optimize" => {
            use disk_reuse::optimizer::{unified_optimize, LayoutSearchSpace};
            let space = LayoutSearchSpace::default();
            let ranked = unified_optimize(&program, &space, policy_of(&o.policy)?);
            let mut text = format!(
                "{:<10} {:>8} {:>6} {:>6} {:>14} {:>12}\n",
                "transform", "stripe", "disks", "start", "energy (J)", "io (s)"
            );
            for c in ranked.iter().take(10) {
                text.push_str(&format!(
                    "{:<10} {:>6}KB {:>6} {:>6} {:>14.1} {:>12.1}\n",
                    match c.transform {
                        Transform::Original => "original",
                        Transform::DiskReuse => "disk-reuse",
                        _ => "parallel",
                    },
                    c.striping.stripe_unit() >> 10,
                    c.striping.num_disks(),
                    c.striping.start_disk(),
                    c.energy_j,
                    c.io_time_ms / 1000.0,
                ));
            }
            write_out(&o.out, &text)
        }
        "simulate" => {
            let schedule = apply_transform(&program, &layout, &deps, transform_of(&o)?);
            schedule.validate_coverage(&program)?;
            let gen = TraceGenerator::new(
                &program,
                &layout,
                TraceGenOptions {
                    max_request_bytes: striping.stripe_unit(),
                    ..TraceGenOptions::default()
                },
            );
            let (trace, _) = gen.generate(&schedule);
            let sim = Simulator::new(DiskParams::default(), policy_of(&o.policy)?, striping);
            let report = sim.run(&trace);
            write_out(&o.out, &format!("{report}"))
        }
        other => Err(format!("unknown command `{other}`\n\n{}", usage())),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
