//! Protocol robustness property tests: a seeded corpus of hostile wire
//! blobs, replayed both against the pure codec and against a live
//! daemon. Every case must produce a *typed* error (or a clean close)
//! — never a panic, never a hang, never a daemon death.
//!
//! The corpus is regenerated from `ITESP_TEST_SEED` (default 42), so a
//! failure report of seed + case index replays exactly:
//!
//! ```text
//! ITESP_TEST_SEED=1234 cargo test -p itesp-serve --test protocol_chaos
//! ```

mod common;

use std::io::{Cursor, Write};
use std::net::TcpStream;
use std::time::Duration;

use itesp_orchestrate::knobs::test_seed;
use itesp_serve::chaos::{corpus, ChaosRng};
use itesp_serve::client::run_once;
use itesp_serve::protocol::{read_frame, records_frame_cells, Hello};
use itesp_serve::ServeError;
use itesp_trace::StreamDecoder;

use common::{hello, records, scratch_dir, TestDaemon};

const CASES_PER_KIND: usize = 8;

/// Pure codec: every corpus blob decodes to a typed error, an
/// incomplete read, or (by construction never) a valid frame — and the
/// decoder must not panic on any of them.
#[test]
fn corpus_never_panics_the_codec() {
    let seed = test_seed(42);
    for (i, case) in corpus(seed, CASES_PER_KIND).iter().enumerate() {
        let verdict = std::panic::catch_unwind(|| {
            let mut cursor = Cursor::new(case.bytes.clone());
            // Drain the cursor frame by frame until error or EOF; a
            // blob may legitimately contain one well-formed frame
            // (the wrong-opening-kind cases) before the garbage.
            loop {
                match read_frame(&mut cursor) {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(_) => break,
                }
            }
        });
        assert!(
            verdict.is_ok(),
            "codec panicked on case {i} ({}) with ITESP_TEST_SEED={seed}",
            case.label
        );
    }
}

/// Random bytes are never a valid Hello, and the decoder says so with
/// a typed error rather than a panic.
#[test]
fn random_hello_payloads_yield_typed_errors() {
    let seed = test_seed(42);
    let mut rng = ChaosRng::new(seed ^ 0x48454C4C);
    for i in 0..64 {
        let n = rng.below(96) as usize;
        let payload: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        let verdict = std::panic::catch_unwind(|| Hello::decode(&payload));
        let decoded = verdict.unwrap_or_else(|_| {
            panic!("Hello::decode panicked on case {i} with ITESP_TEST_SEED={seed}")
        });
        // A random blob passing full validation would be astonishing;
        // what matters is that failure is typed.
        if let Err(e) = decoded {
            assert!(e.code() > 0);
        }
    }
}

/// Records framing: corrupt counts and odd splits surface as typed
/// errors from `records_frame_cells` / `StreamDecoder`, never panics.
#[test]
fn record_stream_corruption_is_typed() {
    let seed = test_seed(42);
    let mut rng = ChaosRng::new(seed ^ 0x5245_4353);
    for _ in 0..64 {
        let n = rng.below(256) as usize;
        let payload: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        match records_frame_cells(&payload) {
            Ok((_count, cells)) => {
                let mut decoder = StreamDecoder::new();
                let mut out = Vec::new();
                // Bad op bytes and trailing cells must be typed trace
                // errors, not panics.
                if decoder.push(cells, &mut out).is_ok() {
                    let _ = decoder.finish();
                }
            }
            Err(e) => assert!(e.code() > 0),
        }
    }
    // Declared count disagreeing with the byte length is an error.
    let mut payload = Vec::new();
    payload.extend_from_slice(&7u32.to_le_bytes());
    payload.extend_from_slice(&[0u8; 13]); // one cell, seven declared
    assert!(matches!(
        records_frame_cells(&payload),
        Err(ServeError::Malformed(_))
    ));
}

/// The live daemon survives the entire corpus thrown at its traffic
/// port — liveness probe still answers, an honest request still
/// completes, and the deterministic registry is untouched by any of it.
#[test]
fn live_daemon_survives_the_corpus() {
    let seed = test_seed(42);
    let daemon = TestDaemon::start(scratch_dir("corpus"), 2, 4);

    // Seed one honest tenant so there is registry state to protect.
    run_once(daemon.traffic, &hello(1, "ITESP"), &records(1, 128)).expect("honest tenant");
    let reference = daemon.tenants_json();

    for (i, case) in corpus(seed, CASES_PER_KIND).iter().enumerate() {
        let mut stream = TcpStream::connect(daemon.traffic).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // The peer may close mid-write (typed refusal already sent) —
        // that is the daemon doing its job, not a test failure.
        let _ = stream.write_all(&case.bytes);
        let _ = stream.flush();
        let _ = read_frame(&mut stream); // typed error frame or close
        drop(stream);
        assert!(
            daemon.alive(),
            "daemon died on case {i} ({}) with ITESP_TEST_SEED={seed}",
            case.label
        );
    }

    assert_eq!(
        daemon.tenants_json(),
        reference,
        "hostile bytes must not perturb the deterministic registry"
    );
    run_once(daemon.traffic, &hello(2, "ITESP"), &records(2, 128))
        .expect("daemon still serves honest tenants after the corpus");
    daemon.drain();
}
