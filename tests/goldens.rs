//! The committed goldens under `results/`, re-derived by the CLI smoke
//! commands and diffed byte for byte. Every number in them is a
//! simulated quantity, so they hold on any host.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `reese <args>` from the repository root and fails the test on a
/// non-zero exit.
fn reese(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_reese"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn reese");
    assert!(
        out.status.success(),
        "reese {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("goldens_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Fails with the first differing line if `produced` is not
/// byte-identical to the golden file.
fn assert_matches_golden(golden: &str, produced: &Path) {
    let want = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(golden))
        .expect("read golden");
    let got = std::fs::read_to_string(produced).expect("read produced output");
    if want == got {
        return;
    }
    let line = want
        .lines()
        .zip(got.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| want.lines().count().min(got.lines().count()));
    panic!(
        "{golden} differs at line {}:\n  golden:   {:?}\n  produced: {:?}",
        line + 1,
        want.lines().nth(line),
        got.lines().nth(line)
    );
}

fn path(dir: &Path, file: &str) -> String {
    dir.join(file).to_str().expect("utf-8 path").to_string()
}

#[test]
fn schemes_smoke_matches_golden() {
    let dir = scratch("schemes");
    let csv = path(&dir, "schemes-smoke.csv");
    reese(&[
        "schemes", "--kernel", "database", "--target", "12000", "--trials", "25", "-j", "2",
        "--csv", &csv,
    ]);
    assert_matches_golden("results/schemes_smoke_golden.csv", Path::new(&csv));
}

#[test]
fn rv32i_smoke_matches_golden() {
    let dir = scratch("rv32i");
    let bin = path(&dir, "rv32i-checksum.bin");
    reese(&[
        "asm",
        "examples/rv32i/checksum.s",
        "--isa",
        "rv32i",
        "-o",
        &bin,
    ]);
    reese(&[
        "campaign",
        "--isa",
        "rv32i",
        &bin,
        "--injections",
        "10000",
        "--seed",
        "64206",
        "-j",
        "2",
        "--out",
        &path(&dir, "rv32i-campaign.csv"),
    ]);
    let csv = path(&dir, "rv32i-schemes.csv");
    reese(&[
        "schemes", "--isa", "rv32i", "--scale", "2", "--trials", "25", "-j", "2", "--csv", &csv,
    ]);
    assert_matches_golden("results/rv32i_schemes_golden.csv", Path::new(&csv));
}

#[test]
fn forensics_smoke_matches_goldens() {
    let dir = scratch("forensics");
    let log = path(&dir, "forensics-campaign.jsonl");
    reese(&[
        "campaign",
        "--kernel",
        "database",
        "--trials",
        "20",
        "--seed",
        "7",
        "-j",
        "2",
        "--outcomes-jsonl",
        &log,
        "--telemetry-out",
        &path(&dir, "forensics-telemetry.jsonl"),
    ]);
    let detected = path(&dir, "explain-detected.txt");
    reese(&[
        "explain",
        "--outcomes",
        &log,
        "--kernel",
        "database",
        "--trial",
        "0",
        "--out",
        &detected,
        "--trace-out",
        &path(&dir, "explain-detected.json"),
    ]);
    let baseline_log = path(&dir, "forensics-baseline.jsonl");
    reese(&[
        "campaign",
        "--kernel",
        "database",
        "--trials",
        "20",
        "--seed",
        "7",
        "--scheme",
        "baseline",
        "--mix",
        "result",
        "--outcomes-jsonl",
        &baseline_log,
    ]);
    let escape = path(&dir, "explain-escape.txt");
    reese(&[
        "explain",
        "--outcomes",
        &baseline_log,
        "--kernel",
        "database",
        "--scheme",
        "baseline",
        "--trial",
        "5",
        "--out",
        &escape,
    ]);
    assert_matches_golden("results/explain_detected_golden.txt", Path::new(&detected));
    assert_matches_golden("results/explain_escape_golden.txt", Path::new(&escape));
}
