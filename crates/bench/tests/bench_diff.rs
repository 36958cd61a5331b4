//! `bench_diff` as a process: its exit code on the baseline directories
//! `scripts/bench_diff.sh` hands it, run from the workspace root against
//! the committed `results/`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// A fresh, empty directory under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench_diff-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn exit_code(baseline_dir: &Path) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .arg(baseline_dir)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .stdout(Stdio::null())
        .status()
        .unwrap()
        .code()
}

#[test]
fn a_baseline_document_without_a_spec_is_an_error() {
    let dir = scratch_dir("unknown");
    let committed = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_verify.json"
    );
    std::fs::copy(committed, dir.join("BENCH_verify.json")).unwrap();
    assert_eq!(
        exit_code(&dir),
        Some(0),
        "the committed document against itself"
    );
    std::fs::write(
        dir.join("BENCH_paper.json"),
        "{\"bench\":\"paper\",\"runs\":[]}",
    )
    .unwrap();
    assert_eq!(exit_code(&dir), Some(2));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_baseline_directory_without_documents_is_an_error() {
    let dir = scratch_dir("empty");
    assert_eq!(exit_code(&dir), Some(2));
    std::fs::remove_dir_all(&dir).unwrap();
}
