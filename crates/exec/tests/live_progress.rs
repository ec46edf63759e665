//! Live progress on the remote path: a scripted loopback backend
//! answers the submit, then one `running` status with `completed: K`,
//! then `done`, then journal rows cut from an in-process oracle. A
//! one-backend `ShardedExecutor` must report `Progress { done: K, .. }`
//! before the first `ScenarioDone`, and the oracle's report bytes at the
//! end. The script, not timing, decides what each poll sees.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use chunkpoint_campaign::{
    canonical_report_json, run_campaign, CampaignSpec, ScenarioResult, SchemeSpec,
};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_exec::{CampaignEvent, CampaignExecutor, ShardConfig, ShardedExecutor};
use chunkpoint_serve::REPORT_AXES;
use chunkpoint_workloads::Benchmark;

/// The `completed` count the scripted backend's one `running` poll
/// reports.
const K: usize = 2;

/// Reads one request (head plus `Content-Length` body) and returns its
/// request line.
fn read_request(stream: &mut TcpStream) -> String {
    let mut bytes = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = stream.read(&mut buf).unwrap_or(0);
        bytes.extend_from_slice(&buf[..n]);
        let text = String::from_utf8_lossy(&bytes);
        if let Some(head_end) = text.find("\r\n\r\n") {
            let body_len = text[..head_end]
                .lines()
                .find_map(|line| line.strip_prefix("Content-Length: "))
                .and_then(|len| len.trim().parse::<usize>().ok())
                .unwrap_or(0);
            if n == 0 || bytes.len() >= head_end + 4 + body_len {
                return text.lines().next().unwrap_or("").to_owned();
            }
        } else if n == 0 {
            return String::new();
        }
    }
}

/// A backend that runs the script above for one job, whatever it is
/// asked, until the test process ends.
fn spawn_scripted_backend(rows: &[ScenarioResult]) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let total = rows.len();
    let journal = format!(
        "{{\"rows\":[{}]}}",
        rows.iter()
            .map(|row| row.to_json().render())
            .collect::<Vec<_>>()
            .join(",")
    );
    std::thread::spawn(move || {
        let mut polls = 0usize;
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let request = read_request(&mut stream);
            let status = |state: &str, completed: usize| {
                format!(
                    "{{\"id\":\"00000000000000aa\",\"status\":\"{state}\",\
                     \"scenarios\":{total},\"completed\":{completed}}}"
                )
            };
            let body = if request.starts_with("POST /campaigns") {
                status("queued", 0)
            } else if request.contains("/journal") {
                journal.clone()
            } else {
                polls += 1;
                if polls == 1 {
                    status("running", K)
                } else {
                    status("done", total)
                }
            };
            let _ = write!(
                stream,
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
        }
    });
    addr
}

#[test]
fn remote_paths_report_live_progress_before_the_rows() {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    let spec = CampaignSpec::new(config, 0x11E)
        .benchmarks(&[Benchmark::AdpcmEncode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .replicates(4);
    let oracle = run_campaign(&spec, 1);
    let expected =
        canonical_report_json(spec.campaign_seed, &oracle.results, &REPORT_AXES).render();
    let config = ShardConfig {
        poll_interval: Duration::from_millis(2),
        ..ShardConfig::default()
    };
    let executor =
        ShardedExecutor::new(vec![spawn_scripted_backend(&oracle.results)]).with_config(config);
    let handle = executor.submit(&spec);
    let events: Vec<CampaignEvent> = handle.events().collect();
    let run = handle.wait().expect("one-backend run");
    assert_eq!(run.report, expected, "report bytes diverged");
    let first_row = events
        .iter()
        .position(|e| matches!(e, CampaignEvent::ScenarioDone(_)))
        .expect("no rows");
    let live = events
        .iter()
        .position(|e| matches!(e, CampaignEvent::Progress { done: K, .. }))
        .unwrap_or_else(|| panic!("no live progress in {events:?}"));
    assert!(live < first_row, "progress arrived after the rows");
}
