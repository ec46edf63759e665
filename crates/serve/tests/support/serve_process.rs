//! A real `serve` process on an ephemeral port, for the cross-process
//! parity suites. Included by path (`#[path = …] mod serve_process;`)
//! from each suite that starts fresh backends; Cargo builds nothing
//! under `tests/support/` as a test target of its own.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A per-process scratch path under the system temp dir, prefixed with
/// the including test target's name.
pub fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "chunkpoint_{}_{}_{tag}",
        env!("CARGO_CRATE_NAME"),
        std::process::id()
    ))
}

/// The `serve` binary lives next to this test binary's parent directory
/// (`target/<profile>/serve`); it belongs to `chunkpoint_serve`, so
/// Cargo does not export a `CARGO_BIN_EXE_serve` to other crates — but a
/// workspace `cargo test`/`cargo build` always compiles it.
fn serve_bin() -> PathBuf {
    let mut path = std::env::current_exe().expect("test binary path");
    path.pop(); // <profile>/deps/
    if path.ends_with("deps") {
        path.pop(); // <profile>/
    }
    let bin = path.join(format!("serve{}", std::env::consts::EXE_SUFFIX));
    assert!(
        bin.is_file(),
        "serve binary not found at {} — build the workspace first (`cargo build`)",
        bin.display()
    );
    bin
}

/// A running `serve` (1 job, 1 worker) over a fresh data dir; killed and
/// cleaned up on drop.
pub struct ServeProcess {
    pub child: Child,
    pub addr: String,
    data_dir: PathBuf,
    port_file: PathBuf,
}

impl ServeProcess {
    /// Starts a real `serve` on an ephemeral port and waits until it
    /// answers `/healthz`.
    pub fn start(tag: &str) -> Self {
        let data_dir = temp_dir(&format!("{tag}_data"));
        let port_file = temp_dir(&format!("{tag}_port"));
        let _ = std::fs::remove_dir_all(&data_dir);
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(serve_bin())
            .args([
                "--addr",
                "127.0.0.1:0",
                "--data-dir",
                data_dir.to_str().expect("utf8 dir"),
                "--port-file",
                port_file.to_str().expect("utf8 path"),
                "--jobs",
                "1",
                "--threads",
                "1",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn serve");
        let deadline = Instant::now() + Duration::from_secs(60);
        let port: u16 = loop {
            if let Ok(raw) = std::fs::read_to_string(&port_file) {
                if let Ok(port) = raw.trim().parse() {
                    break port;
                }
            }
            assert!(Instant::now() < deadline, "serve never wrote its port");
            std::thread::sleep(Duration::from_millis(10));
        };
        let addr = format!("127.0.0.1:{port}");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok((200, _)) =
                chunkpoint_shard::exchange(&addr, "GET", "/healthz", None, Duration::from_secs(5))
            {
                break;
            }
            assert!(Instant::now() < deadline, "serve never became healthy");
            std::thread::sleep(Duration::from_millis(10));
        }
        Self {
            child,
            addr,
            data_dir,
            port_file,
        }
    }

    /// Asks the service to drain and exit.
    pub fn shutdown(&self) {
        let _ = chunkpoint_shard::exchange(
            &self.addr,
            "POST",
            "/shutdown",
            None,
            Duration::from_secs(5),
        );
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.data_dir);
        let _ = std::fs::remove_file(&self.port_file);
    }
}
