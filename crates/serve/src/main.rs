//! `itesp-serve` — the simulator as a long-running traffic endpoint.
//!
//! ```text
//! ITESP_SERVE_STATE=/path/to/state itesp-serve
//! ```
//!
//! Settings are the `ITESP_SERVE_*` rows of the workspace's settings
//! table, `itesp_orchestrate::knobs` (state directory, shards, queue
//! depth, snapshot cadence, deadlines, retries, chaos directives); the
//! daemon takes no command-line arguments. A malformed value, or any
//! argument, is reported as `error: …` and exits 2 before the daemon
//! binds or writes its `ports` file.
//!
//! SIGTERM drains: new admissions are refused, in-flight requests
//! finish, the stats registry is snapshotted, and the process exits 0.
//! A restart recovers the registry from the snapshot store.

use std::path::PathBuf;

use itesp_orchestrate::knobs::{self, KnobError, Scope};
use itesp_serve::server::{install_sigterm_handler, Server};
use itesp_serve::ServerConfig;

/// The daemon's configuration: [`ServerConfig::new`] with every
/// `ITESP_SERVE_*` setting applied.
fn config() -> Result<ServerConfig, KnobError> {
    let mut cfg = ServerConfig::new(knobs::SERVE_STATE.get::<PathBuf>()?);
    cfg.shards = knobs::SERVE_SHARDS.get()?;
    cfg.queue_depth = knobs::SERVE_QUEUE.get()?;
    cfg.snap_every = knobs::SERVE_SNAP_EVERY.get()?;
    cfg.policy.timeout = Some(knobs::SERVE_TIMEOUT_MS.get()?);
    cfg.policy.retries = knobs::SERVE_RETRIES.get()?;
    cfg.read_timeout = knobs::SERVE_READ_TIMEOUT_MS.get()?;
    cfg.panic_tenant = knobs::SERVE_CHAOS.get()?;
    Ok(cfg)
}

fn main() {
    knobs::exit_on(knobs::no_args(Scope::Serve));
    let cfg = knobs::exit_on(config());
    install_sigterm_handler();
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("itesp-serve: failed to start: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "[itesp-serve: traffic {} metrics {}]",
        server.traffic_addr(),
        server.metrics_addr()
    );
    match server.run() {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("itesp-serve: fatal: {e}");
            std::process::exit(1);
        }
    }
}
