//! `smt-sim` refuses a malformed command line with one stderr line and
//! exit code 2, and a traced run that trips the watchdog prints what the
//! machine was doing when it wedged.

use std::process::Command;

use smt_testkit::assert_refused;

const SMT_SIM: &str = env!("CARGO_BIN_EXE_smt-sim");

#[test]
fn malformed_command_lines_exit_2_naming_the_culprit() {
    for (line, culprit) in [
        ("--workload sieve --bogus", "`--bogus`"),
        ("--workload sieve --threads", "--threads needs a value"),
        ("--workload sieve --threads x", "--threads: cannot parse"),
        ("--workload sieve --scale bogus", "--scale: unknown scale"),
        ("--workload bogus", "--workload: unknown workload"),
        ("--threads 2", "--workload is required"),
    ] {
        assert_refused(Command::new(SMT_SIM).args(line.split_whitespace()), culprit);
    }
}

#[test]
fn a_traced_run_that_trips_the_watchdog_dumps_the_machine() {
    let line = "--workload sieve --scale test --trace cpistack --max-cycles 50";
    let output = Command::new(SMT_SIM)
        .args(line.split_whitespace())
        .output()
        .expect("smt-sim runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("watchdog: run exceeded 50 cycles"),
        "{stderr}"
    );
    for section in [
        "STUCK at cycle 50:\ncycle 50\n",
        "last 64 decoded instructions:\n",
        "SU entries:",
        "CPI stack: 50 cycles x 4 slots",
    ] {
        assert!(stdout.contains(section), "no {section:?} in\n{stdout}");
    }
    let records = stdout.lines().filter(|l| l.starts_with("uid ")).count();
    assert_eq!(records, 64, "{stdout}");
}
