//! `reese run` end to end: every timing scheme treats `--skip` and
//! `--inject` the same way. `--skip` fast-forwards functionally before
//! timing, and `--inject` names a *global* dynamic-instruction seq, so a
//! fault inside the skipped region never fires and one after it is
//! caught at its own seq.

use std::path::PathBuf;
use std::process::Command;

/// 1 + 3 × 600 + 2 = 1803 dynamic instructions.
const PROGRAM: &str =
    "  li t0, 600\nloop: addi t0, t0, -1\n  add t1, t1, t0\n  bnez t0, loop\n  print t1\n  halt\n";
const DYNAMIC_LEN: u64 = 1803;

/// Writes the test program once per test (names keep parallel tests
/// from sharing a file).
fn program(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_run_{name}.s"));
    std::fs::write(&path, PROGRAM).expect("write test program");
    path
}

/// Runs `reese run <program> <args>`; returns (success, stdout, stderr).
fn run(program: &PathBuf, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_reese"))
        .arg("run")
        .arg(program)
        .args(args)
        .output()
        .expect("spawn reese");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The committed count from the summary line `<scheme>: N instructions …`.
fn committed(stdout: &str) -> u64 {
    let line = stdout.lines().next().expect("summary line");
    let after = line.split_once(": ").expect("scheme prefix").1;
    after
        .split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no instruction count in {line:?}"))
}

/// The seqs of every reported detection.
fn detections(stdout: &str) -> Vec<u64> {
    stdout
        .lines()
        .filter_map(|l| l.trim().strip_prefix("soft error detected: instruction #"))
        .map(|rest| rest.split_whitespace().next().unwrap().parse().unwrap())
        .collect()
}

#[test]
fn skip_shortens_the_timed_region_on_every_timing_scheme() {
    let p = program("skip");
    for scheme in ["baseline", "reese", "duplex"] {
        let (ok, full, err) = run(&p, &["--scheme", scheme]);
        assert!(ok, "{scheme}: {err}");
        assert_eq!(committed(&full), DYNAMIC_LEN, "{scheme}: {full}");
        let (ok, region, err) = run(&p, &["--scheme", scheme, "--skip", "1000"]);
        assert!(ok, "{scheme}: {err}");
        assert_eq!(committed(&region), DYNAMIC_LEN - 1000, "{scheme}: {region}");
    }
}

#[test]
fn injected_faults_use_global_seqs_on_both_redundant_schemes() {
    let p = program("inject");
    for scheme in ["reese", "duplex"] {
        let cases: [(&[&str], Vec<u64>); 3] = [
            (&["--inject", "1500:3:p"], vec![1500]),
            (&["--skip", "1000", "--inject", "1500:3:p"], vec![1500]),
            // Inside the skipped region: the instruction never times.
            (&["--skip", "1000", "--inject", "500:3:p"], vec![]),
        ];
        for (args, expected) in cases {
            let mut argv = vec!["--scheme", scheme];
            argv.extend_from_slice(args);
            let (ok, out, err) = run(&p, &argv);
            assert!(ok, "{scheme} {args:?}: {err}");
            assert_eq!(detections(&out), expected, "{scheme} {args:?}: {out}");
        }
    }
}

#[test]
fn baseline_rejects_inject_instead_of_ignoring_it() {
    let p = program("baseline");
    let (ok, _, err) = run(&p, &["--scheme", "baseline", "--inject", "100:3:p"]);
    assert!(!ok, "an unprotected run cannot honour --inject");
    assert!(
        err.contains("baseline") && err.contains("campaign"),
        "got: {err}"
    );
}
