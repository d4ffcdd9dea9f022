//! The experiment binaries refuse a command line they cannot carry out with
//! one stderr line naming the culprit and exit code 2, never with a panic
//! or by ignoring part of it. They run in an empty working directory, so
//! the hetero grid's default corpus directory, `corpus`, is not there.

use std::process::Command;

use smt_testkit::assert_refused;

#[test]
fn malformed_command_lines_exit_2_naming_the_culprit() {
    let cwd = std::env::temp_dir().join(format!("smt-cli-refused-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).expect("scratch dir");
    let sweep = env!("CARGO_BIN_EXE_sweep");
    let fuzz = env!("CARGO_BIN_EXE_fuzz");
    let report = env!("CARGO_BIN_EXE_report");
    let corpus_check = env!("CARGO_BIN_EXE_corpus_check");
    for (exe, line, culprit) in [
        (sweep, "--out o --bogus", "`--bogus`"),
        (sweep, "--out o --worker 1", "`--worker`"),
        (sweep, "--out o --code-version 0", "`--code-version`"),
        (sweep, "--grid smoke --out", "--out needs a value"),
        (sweep, "--out --grid smoke", "--out needs a value"),
        (sweep, "--out o --workers x", "--workers: cannot parse `x`"),
        (sweep, "--out o --workers 0", "--workers: cannot parse `0`"),
        (sweep, "--out o --checkpoint-every 0", "--checkpoint-every"),
        (sweep, "--out o --scale bogus", "--scale: unknown scale"),
        (sweep, "--out o --out p", "--out is given more than once"),
        (sweep, "--out o smoke", "unexpected argument `smoke`"),
        (sweep, "--grid smoke", "--out is required"),
        (sweep, "--out o --search laplace --threads 0", "--threads"),
        (sweep, "--out o --grid hetero", "directory `corpus`"),
        (sweep, "--out o --grid hetero", "pass --corpus <dir>"),
        (
            sweep,
            "--out o --search bogus --scale test",
            "directory `corpus`",
        ),
        (fuzz, "--bogus", "`--bogus`"),
        (fuzz, "--checkpoint_every 50", "`--checkpoint_every`"),
        (fuzz, "--seeds", "--seeds needs a value"),
        (fuzz, "--seeds x", "--seeds: cannot parse `x`"),
        (report, "--bogus", "`--bogus`"),
        (report, "--test --workers", "--workers needs a value"),
        (report, "--test --workers x", "--workers: cannot parse `x`"),
        (
            report,
            "--test --json r.json --perf r.json",
            "--json and --perf name the same file",
        ),
        (corpus_check, "--bogus", "`--bogus`"),
        (corpus_check, "--corpus", "--corpus needs a value"),
        (corpus_check, "--scale bogus", "--scale: unknown scale"),
        (corpus_check, "--scale test", "directory `corpus`"),
    ] {
        let args = line.split_whitespace();
        assert_refused(Command::new(exe).current_dir(&cwd).args(args), culprit);
    }
    // With the corpus attached, a search kernel it lacks is refused before
    // the climb starts.
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
    assert_refused(
        Command::new(sweep)
            .current_dir(&cwd)
            .args(["--out", "o", "--search", "bogus", "--scale", "test"])
            .args(["--corpus", corpus]),
        "\"bogus\" is neither a built-in benchmark nor a kernel of the corpus",
    );
    let left = std::fs::read_dir(&cwd).expect("scratch dir").count();
    assert_eq!(left, 0, "a refused command line does no work");
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn unwritable_report_outputs_are_refused_before_any_simulation() {
    let dir = std::env::temp_dir().join(format!("smt-report-out-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    // A regular file where each output's directory should be.
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "").expect("blocker file");
    let report = env!("CARGO_BIN_EXE_report");
    for flag in ["--json", "--perf"] {
        let stderr = assert_refused(
            Command::new(report)
                .args(["--test", flag])
                .arg(blocker.join("out.json")),
            flag,
        );
        assert!(
            !stderr.contains("generating"),
            "{flag}: no table may be generated: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
