//! The `shard` binary refuses a spec whose grid does not enumerate with
//! exit code 1 and a message naming the file, never a panic: as
//! `--spec`, as `--baseline`, and as `--spec` beside a good baseline.
//! A grid past `MAX_GRID_SCENARIOS` parses but does not enumerate.

use std::path::Path;
use std::process::Command;

const GOOD: &str = r#"{"version":1,"campaign_seed":7,"benchmarks":["ADPCM encode"],
 "schemes":[{"label":"Default","spec":{"kind":"fixed","scheme":{"kind":"default"}}}],
 "error_rates":[0.000001],"replicates":2,"normalize":false,"golden_check":false}"#;

/// Runs `shard` against a backend it never reaches, and returns its
/// exit code and stderr.
fn shard(dir: &Path, args: &[&str]) -> (Option<i32>, String) {
    let cache = dir.join("cache");
    let out = Command::new(env!("CARGO_BIN_EXE_shard"))
        .args(["--backends", "127.0.0.1:1", "--quiet", "--cache-dir"])
        .arg(&cache)
        .args(args)
        .output()
        .expect("run shard");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unenumerable_specs_exit_1_naming_the_file() {
    let dir = std::env::temp_dir().join(format!("chunkpoint_bin_spec_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let good = dir.join("good.json");
    let huge = dir.join("huge.json");
    std::fs::write(&good, GOOD).expect("write good spec");
    std::fs::write(
        &huge,
        GOOD.replace("\"replicates\":2", "\"replicates\":2000000"),
    )
    .expect("write huge spec");
    let (good, huge) = (good.to_str().unwrap(), huge.to_str().unwrap());
    for args in [
        vec!["--spec", huge],
        vec!["--spec", good, "--baseline", huge],
        vec!["--spec", huge, "--baseline", good],
    ] {
        let (code, stderr) = shard(&dir, &args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains(huge), "{args:?}: {stderr}");
        assert!(stderr.contains("exceeds the limit"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
