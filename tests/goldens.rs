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

/// Fixed, valid `reese` argvs whose stdout and exit status pin the
/// CLI's behaviour, one entry per line of the transcript. `{tmp}`
/// stands for the test's scratch directory; entries run in order, so a
/// later one may read what an earlier one wrote.
const TRANSCRIPT: &[&str] = &[
    "run --kernel lisp --scheme emulate --max-insns 20000",
    "run --kernel lisp --max-insns 20000",
    "run --kernel lisp --scheme reese --spare-alus 2 --inject 1000:13:p --max-insns 20000",
    "run --kernel lisp --scheme duplex --skip 500 --inject 1000:13:r --max-insns 20000",
    "run --kernel strings --scheme meek --max-insns 20000",
    "run --kernel strings --scheme swift --max-insns 20000",
    "run --kernel gcc --scheme reese --stats --machine ruu32 --rqueue 16 --early-removal --dup-period 2 --max-insns 20000",
    "run --kernel database --stats --ruu-size 64 --lsq-size 32 --width 4 --max-insns 20000",
    "run --isa rv32i --kernel imaging --scheme reese --spare-muls 1 --max-insns 20000",
    "run --kernel strings --scheme reese --max-insns 5000 --trace-out {tmp}/run.txt --metrics-out {tmp}/run.csv --metrics-interval 1000",
    "asm examples/rv32i/checksum.s --isa rv32i -o {tmp}/checksum.bin",
    "run --isa rv32i {tmp}/checksum.bin --scheme reese",
    "campaign --kernel strings --trials 20 --seed 7 -j 2 --mix result --out {tmp}/campaign.csv --outcomes-jsonl {tmp}/campaign.jsonl",
    "explain --outcomes {tmp}/campaign.jsonl --kernel strings --trial 3",
    "campaign --isa rv32i --kernel lisp --scale 2 --scheme duplex --injections 10 --engine full -j 1",
    "schemes --kernel strings --target 12000 --trials 10 -j 1",
    "mix lisp",
    "disasm strings",
    "disasm --isa rv32i examples/rv32i/checksum.s",
    "trace lisp --out {tmp}/lisp.trace",
    "trace --isa rv32i imaging",
    "kernels",
    "mix --isa rv32i lisp",
];

/// Whether a stdout line reports wall-clock time (the campaign
/// `throughput:` block), which no golden can pin.
fn is_wall_clock(line: &str) -> bool {
    line.starts_with("throughput:") || line.starts_with("  worker ")
}

#[test]
fn cli_transcript_matches_golden() {
    let dir = scratch("transcript");
    let tmp = dir.to_str().expect("utf-8 path");
    let mut transcript = String::new();
    for entry in TRANSCRIPT {
        let args: Vec<String> = entry
            .split_whitespace()
            .map(|a| a.replace("{tmp}", tmp))
            .collect();
        let out = Command::new(env!("CARGO_BIN_EXE_reese"))
            .args(&args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("spawn reese");
        let status = out.status.code().map_or("signal".into(), |c| c.to_string());
        transcript.push_str(&format!("$ reese {entry}\n[exit {status}]\n"));
        let stdout = String::from_utf8_lossy(&out.stdout).replace(tmp, "{tmp}");
        for line in stdout.lines().filter(|l| !is_wall_clock(l)) {
            transcript.push_str(line);
            transcript.push('\n');
        }
    }
    let produced = dir.join("cli_transcript.txt");
    std::fs::write(&produced, transcript).expect("write transcript");
    assert_matches_golden("results/cli_transcript_golden.txt", &produced);
}

#[test]
fn every_command_prints_its_help() {
    let help = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_reese"))
            .args(args)
            .output()
            .expect("spawn reese");
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    let commands = [
        "run", "campaign", "schemes", "explain", "asm", "mix", "disasm", "trace", "kernels",
    ];
    for cmd in commands {
        let (ok, text) = help(&[cmd, "--help"]);
        assert!(ok, "reese {cmd} --help failed");
        assert!(text.starts_with(&format!("usage: reese {cmd} ")), "{text}");
        assert!(text.contains("\n  --help "), "{text}");
    }
    let (ok, text) = help(&["--help"]);
    assert!(ok, "reese --help failed");
    for cmd in commands {
        assert!(
            text.contains(&format!("\n  {cmd} ")),
            "{cmd} missing: {text}"
        );
    }
    let (ok, _) = help(&[]);
    assert!(!ok, "a bare `reese` is a usage error");
    let retired = Command::new(env!("CARGO_BIN_EXE_reese"))
        .args(["shard", "--help"])
        .output()
        .expect("spawn reese");
    assert!(!retired.status.success(), "`reese shard` was retired");
    let stderr = String::from_utf8_lossy(&retired.stderr);
    assert!(
        stderr.starts_with("error: unknown command `shard`"),
        "{stderr}"
    );
}
