//! `dpmc` rejects impossible array geometry and processor counts with a
//! usage error (exit 1, naming the flag and its limit), and programs the
//! lint pass proves broken with its diagnostics (exit 1), instead of
//! panicking deeper in the pipeline.

use std::process::{Command, Output};

/// A 512×64 array swept in order: legal under every transform.
const LEGAL: &str = "program t; array A[512][64] : f64;
        nest L { for i = 0 .. 511 { for j = 0 .. 63 { A[i][j] = A[i][j] + 1; } } }";

/// Runs `dpmc <command>` with `flags` on `src` written to a temporary file
/// named after `tag`.
fn dpmc(tag: &str, command: &str, src: &str, flags: &str) -> Output {
    let path = std::env::temp_dir().join(format!("dpmc_args_{tag}_{}.dpm", std::process::id()));
    std::fs::write(&path, src).expect("write temporary program");
    let out = Command::new(env!("CARGO_BIN_EXE_dpmc"))
        .arg(command)
        .arg(&path)
        .args(flags.split_whitespace())
        .output()
        .expect("run dpmc");
    let _ = std::fs::remove_file(&path);
    out
}

/// Runs `dpmc simulate` with `flags` on the legal program.
fn simulate(tag: &str, flags: &str) -> Output {
    dpmc(tag, "simulate", LEGAL, flags)
}

#[test]
fn bad_geometry_is_a_usage_error() {
    let cases = [
        ("--disks 0", ["--disks", "at least 1"]),
        ("--stripe 0", ["--stripe", "at least 1"]),
        ("--disks 8 --start 9", ["--start", "(8)"]),
        ("--procs 0 --transform parallel", ["--procs", "at least 1"]),
        (
            "--disks 70 --stripe 512 --transform reuse",
            ["--disks", "64"],
        ),
        (
            "--disks 70 --stripe 512 --transform parallel-aware",
            ["--disks", "64"],
        ),
    ];
    for (i, (flags, needles)) in cases.into_iter().enumerate() {
        let out = simulate(&format!("bad{i}"), flags);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags}: {stderr}");
        for needle in needles {
            assert!(
                stderr.contains(needle),
                "{flags}: `{needle}` not in {stderr:?}"
            );
        }
    }
}

#[test]
fn wide_array_runs_in_original_order() {
    let out = simulate("wide", "--disks 70 --stripe 512 --transform original");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

#[test]
fn out_of_bounds_access_is_a_diagnostic() {
    let src = "program t; array A[64][64] : f64;
        nest L { for i = 0 .. 63 { for j = 0 .. 63 { A[i+100][j] = A[i][j] + 1; } } }";
    for (i, (command, flags)) in [
        ("emit", ""),
        ("emit", "--symbolic"),
        ("trace", ""),
        ("simulate", ""),
        ("simulate", "--transform parallel-aware"),
        ("optimize", ""),
    ]
    .into_iter()
    .enumerate()
    {
        let out = dpmc(&format!("oob{i}"), command, src, flags);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command} {flags}: {stderr}");
        assert!(
            stderr.contains("E_FOOTPRINT_OOB") && !stderr.contains("panicked"),
            "{command} {flags}: {stderr:?}"
        );
    }
}
