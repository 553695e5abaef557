//! The daemon checks every `ITESP_SERVE_*` setting before it binds: a
//! malformed value exits 2 naming the variable, any command-line
//! argument exits 2 naming it, and no `ports` file is written.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use itesp_orchestrate::knobs::{self, Knob, Scope};
use itesp_serve::ServerConfig;

/// Run `itesp-serve` with one setting overridden and `args` on its
/// command line; returns its exit code and stderr. A daemon that starts
/// anyway is killed and reported.
fn serve_with(state: &Path, knob: &Knob, value: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_itesp-serve"));
    for k in knobs::TABLE.iter().filter(|k| k.scope == Scope::Serve) {
        cmd.env_remove(k.env);
    }
    let mut child = cmd
        .args(args)
        .env(knobs::SERVE_STATE.env, state)
        .env(knob.env, value)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn itesp-serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll itesp-serve").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("itesp-serve started with {}={value:?} {args:?}", knob.env);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("reap itesp-serve");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn malformed_settings_exit_2_before_the_ports_file() {
    let cases: [(&Knob, &str); 3] = [
        (&knobs::SERVE_CHAOS, "bogus"),
        (&knobs::SERVE_RETRIES, "4294967296"),
        (&knobs::SERVE_SHARDS, "four"),
    ];
    for (knob, bad) in cases {
        let state = std::env::temp_dir().join(format!("itesp-serve-badenv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state);
        let (code, stderr) = serve_with(&state, knob, bad, &[]);
        assert_eq!(code, Some(2), "{}={bad:?}: {stderr}", knob.env);
        assert!(stderr.starts_with("error: "), "{stderr}");
        assert!(stderr.contains(knob.env), "{stderr}");
        assert!(!state.join("ports").exists(), "{} wrote ports", knob.env);
        let _ = std::fs::remove_dir_all(&state);
    }
}

#[test]
fn command_line_arguments_exit_2_before_the_ports_file() {
    for args in [&["--shards", "8"][..], &["-h"], &["serve-state"]] {
        let state = std::env::temp_dir().join(format!("itesp-serve-args-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state);
        let (code, stderr) = serve_with(&state, &knobs::SERVE_SHARDS, "2", args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{stderr}");
        assert!(stderr.contains(args[0]), "{stderr}");
        assert!(stderr.contains("ITESP_SERVE_"), "{stderr}");
        assert!(!state.join("ports").exists(), "{args:?} wrote ports");
        let _ = std::fs::remove_dir_all(&state);
    }
}

#[test]
fn table_defaults_are_server_config_defaults() {
    let cfg = ServerConfig::new("unused");
    let int = |k: &Knob| k.default.parse::<u64>().expect(k.env);
    assert_eq!(knobs::SERVE_STATE.default, "serve-state");
    assert_eq!(int(&knobs::SERVE_SHARDS), cfg.shards as u64);
    assert_eq!(int(&knobs::SERVE_QUEUE), cfg.queue_depth as u64);
    assert_eq!(int(&knobs::SERVE_SNAP_EVERY), cfg.snap_every);
    assert_eq!(
        Some(Duration::from_millis(int(&knobs::SERVE_TIMEOUT_MS))),
        cfg.policy.timeout
    );
    assert_eq!(int(&knobs::SERVE_RETRIES), u64::from(cfg.policy.retries));
    assert_eq!(
        Duration::from_millis(int(&knobs::SERVE_READ_TIMEOUT_MS)),
        cfg.read_timeout
    );
    assert_eq!(knobs::SERVE_CHAOS.default, "");
    assert_eq!(cfg.panic_tenant, None);
}
