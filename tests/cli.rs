//! The `messi` binary's exit codes: `0` success, `2` usage error. Each
//! test runs the real binary on a tiny generated dataset in a
//! throwaway directory.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("messi-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        Self(dir)
    }

    fn file(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `messi` with `args` and returns its exit code.
fn messi(args: &[&str]) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_messi"))
        .args(args)
        .output()
        .expect("run messi");
    out.status.code().expect("messi exited by signal")
}

fn generate(dir: &TempDir, name: &str, count: &str, seed: &str) -> String {
    let path = dir.file(name);
    let code = messi(&[
        "generate", "--kind", "random", "--count", count, "--len", "64", "--seed", seed, "--out",
        &path,
    ]);
    assert_eq!(code, 0, "generate {name}");
    assert!(Path::new(&path).exists());
    path
}

#[test]
fn bench_query_with_zero_workers_is_a_usage_error() {
    let dir = TempDir::new("workers");
    let data = generate(&dir, "data.mds", "300", "5");
    let code = messi(&[
        "bench-query",
        "--data",
        &data,
        "--num-queries",
        "2",
        "--workers",
        "0",
    ]);
    assert_eq!(code, 2, "--workers 0 must be rejected as a usage error");
}

#[test]
fn generate_with_zero_length_is_a_usage_error() {
    let dir = TempDir::new("len");
    let out = dir.file("data.mds");
    let code = messi(&[
        "generate", "--kind", "random", "--count", "10", "--len", "0", "--out", &out,
    ]);
    assert_eq!(code, 2, "--len 0 must be rejected as a usage error");
}

#[test]
fn query_with_k_zero_is_a_usage_error() {
    let dir = TempDir::new("k");
    let data = generate(&dir, "data.mds", "300", "5");
    let code = messi(&["query", "--data", &data, "--num-queries", "2", "--k", "0"]);
    assert_eq!(code, 2, "--k 0 must be rejected as a usage error");
}

#[test]
fn range_answers_queries_from_a_file() {
    let dir = TempDir::new("range");
    let data = generate(&dir, "data.mds", "300", "5");
    let queries = generate(&dir, "queries.mds", "2", "6");
    let code = messi(&[
        "range",
        "--data",
        &data,
        "--queries",
        &queries,
        "--epsilon",
        "4.0",
    ]);
    assert_eq!(code, 0, "range --queries must succeed");
}
