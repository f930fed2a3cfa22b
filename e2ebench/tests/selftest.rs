//! Self-tests of the benchmark at `Scale::Tiny`: every metric named in
//! BENCHMARK.json is emitted with its unit, the seed moves only the
//! policy-sweep inputs, and the negative controls make ops fail.

use dpm_obs::Json;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["paper-matrix", "policy-sweep", "compile-verify"];

struct Run {
    code: i32,
    result: Json,
}

fn run(workload: &str, extra: &[&str]) -> Run {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("e2ebench-selftest");
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--scale", "tiny", "--seconds", "0"])
        .arg("--out")
        .arg(&out_dir)
        .args(extra)
        .output()
        .expect("run e2ebench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last)
        .unwrap_or_else(|e| panic!("last stdout line is not JSON ({e}): {stdout}"));
    Run {
        code: out.status.code().unwrap_or(-1),
        result,
    }
}

fn metric(r: &Run, name: &str) -> f64 {
    r.result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing from {}", r.result))
}

fn failed(r: &Run) -> u64 {
    r.result
        .get("failed")
        .and_then(Json::as_u64)
        .expect("failed count")
}

/// `(name, unit)` of every metric BENCHMARK.json lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(section);
        for w in WORKLOADS {
            let r = run(w, &["--trace", trace]);
            assert_eq!(r.code, 0, "{w} --trace {trace}: {}", r.result);
            assert_eq!(r.result.get("correct"), Some(&Json::Bool(true)), "{w}");
            assert_eq!(failed(&r), 0, "{w}");
            let Some(Json::Obj(metrics)) = r.result.get("metrics") else {
                panic!("{w}: no metrics object");
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| {
                    let unit = v.get("unit").and_then(Json::as_str).expect("unit");
                    assert!(v.get("value").and_then(Json::as_f64).is_some(), "{w} {k}");
                    (k.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(got, want, "{w} --trace {trace}");
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for w in WORKLOADS {
        let r = run(w, &[]);
        for (name, _) in declared("end_to_end") {
            assert!(metric(&r, &name) != 0.0, "{w} {name} reads 0");
        }
    }
}

#[test]
fn seed_moves_only_the_policy_sweep_inputs() {
    let exact = ["energy_norm", "io_time_norm", "oracle_tightness"];
    for w in WORKLOADS {
        let a = run(w, &["--seed", "1"]);
        let b = run(w, &["--seed", "2"]);
        assert_eq!((a.code, b.code), (0, 0), "{w}");
        let moved = exact.iter().any(|m| metric(&a, m) != metric(&b, m));
        assert_eq!(
            moved,
            w == "policy-sweep",
            "{w}: seed moved results: {moved}"
        );
    }
}

#[test]
fn negative_controls_fail_ops() {
    for (w, control) in [
        ("paper-matrix", "expected"),
        ("paper-matrix", "disk"),
        // Corrupts a `paper-matrix` line that a fault-free replay is
        // checked against.
        ("policy-sweep", "expected"),
        ("policy-sweep", "disk"),
        ("compile-verify", "expected"),
        ("compile-verify", "disk"),
    ] {
        let r = run(w, &["--perturb", control]);
        assert_ne!(r.code, 0, "{w} --perturb {control} exited 0");
        assert_eq!(
            r.result.get("correct"),
            Some(&Json::Bool(false)),
            "{w} {control}"
        );
        assert!(failed(&r) > 0, "{w} --perturb {control}: no failed op");
    }
}
