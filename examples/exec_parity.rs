//! The executor-parity smoke: one tiny grid, two execution paths —
//! in-process [`LocalExecutor`] and a one-backend [`ShardedExecutor`]
//! against a self-hosted `serve` — asserting the two canonical reports are
//! **byte-identical** and both event streams completed. CI runs this
//! as the exec smoke (`scripts/ci.sh`); it finishes in about a second.
//!
//! ```text
//! cargo run --release --example exec_parity
//! ```

use chunkpoint::campaign::{CampaignSpec, SchemeSpec};
use chunkpoint::core::{MitigationScheme, SystemConfig};
use chunkpoint::exec::{CampaignEvent, CampaignExecutor, LocalExecutor, ShardedExecutor};
use chunkpoint::workloads::Benchmark;
use chunkpoint_bench::harness::Backends;

fn main() {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    let spec = CampaignSpec::new(config, 0xE4EC_57)
        .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
        .replicates(2);
    let total = spec.scenarios().len();

    // Path one: in-process, two worker threads.
    let local_handle = LocalExecutor::new(2).submit(&spec);
    let local_events = local_handle.events().count();
    let local = local_handle.wait().expect("local run");
    println!("local:  {total} scenarios, {local_events} events");

    // Path two: a self-hosted serve on an ephemeral port.
    let backends = Backends::start(1, 1, 0);
    let remote_handle = ShardedExecutor::new(backends.addrs.clone()).submit(&spec);
    let mut remote_events = 0usize;
    let mut completed = false;
    for event in remote_handle.events() {
        remote_events += 1;
        completed |= matches!(event, CampaignEvent::Complete);
    }
    let remote = remote_handle.wait().expect("remote run");
    println!(
        "remote: {total} scenarios, {remote_events} events via {}",
        backends.addrs[0]
    );

    assert!(completed, "remote stream never emitted Complete");
    assert_eq!(local.scenarios, total);
    assert_eq!(remote.scenarios, total);
    assert_eq!(
        local.report, remote.report,
        "local and remote reports diverged"
    );
    println!("byte-identical local vs remote reports ✓ ({total} scenarios)");
}
