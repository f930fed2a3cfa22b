//! The checked-in expected results, one file per workload and scale.
//!
//! Each line is `key<TAB>value`; values carry float results as bit
//! patterns, so a last-ulp drift fails the check. `--regen` rewrites the
//! file for the workload and scale it runs, from one untraced pass.
//!
//! `policy-sweep` has no file of its own: its fault-free replays must
//! equal the batch results of `paper-matrix`, so its `ps/` keys are checked
//! against that file's `pm/` keys.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The workload whose file holds `workload`'s expected results.
pub fn file_owner(workload: &str) -> &str {
    match workload {
        "policy-sweep" => "paper-matrix",
        w => w,
    }
}

/// Expected results compiled into the binary, so a run reads no files.
fn embedded(workload: &str, scale: &str) -> Option<&'static str> {
    Some(match (workload, scale) {
        ("paper-matrix", "small") => include_str!("../expected/paper-matrix-small.tsv"),
        ("paper-matrix", "tiny") => include_str!("../expected/paper-matrix-tiny.tsv"),
        ("compile-verify", "small") => include_str!("../expected/compile-verify-small.tsv"),
        ("compile-verify", "tiny") => include_str!("../expected/compile-verify-tiny.tsv"),
        _ => return None,
    })
}

pub struct Expected {
    values: BTreeMap<String, String>,
}

impl Expected {
    /// The expected results for `workload` at `scale`; empty (so every
    /// checked result fails) when none are checked in.
    pub fn load(workload: &str, scale: &str) -> Expected {
        let values = embedded(file_owner(workload), scale)
            .unwrap_or("")
            .lines()
            .filter_map(|l| l.split_once('\t'))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        Expected { values }
    }

    /// Negative control: corrupts the first expected value.
    pub fn perturb_first(&mut self) {
        if let Some(v) = self.values.values_mut().next() {
            v.push_str("-perturbed");
        }
    }

    /// Checks one result; `Err` names the mismatch.
    pub fn check(&self, key: &str, value: &str) -> Result<(), String> {
        let file_key = match key.strip_prefix("ps/") {
            Some(rest) => format!("pm/{rest}"),
            None => key.to_string(),
        };
        match self.values.get(&file_key) {
            Some(v) if v == value => Ok(()),
            Some(v) => Err(format!("{key}: expected {v} ({file_key}), got {value}")),
            None => Err(format!("{key}: no expected value {file_key} checked in")),
        }
    }
}

/// Writes the expected-results file for `workload` at `scale` into the
/// benchmark's source tree and returns its path.
pub fn regen(
    workload: &str,
    scale: &str,
    entries: &[(String, String)],
) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{workload}-{scale}.tsv"));
    let mut text = String::new();
    for (k, v) in entries {
        let _ = writeln!(text, "{k}\t{v}");
    }
    std::fs::write(&path, text)?;
    Ok(path)
}
