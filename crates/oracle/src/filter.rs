//! The scheme filter: `ITESP_SCHEME_ONLY=SECDDR,IRORAM cargo test -p
//! itesp-oracle` narrows the oracle and fault-campaign tests to those
//! schemes (CI's scheme-matrix job). Labels go through
//! [`Scheme::from_label`], so a typo fails loudly with the full list of
//! valid labels instead of silently running nothing; unset means every
//! scheme.

use itesp_core::Scheme;
use itesp_orchestrate::knobs;

/// The `ITESP_SCHEME_ONLY` set, or `None` when unset. Panics (listing
/// every valid label) on an unknown label.
fn only_set() -> Option<Vec<Scheme>> {
    let labels: Vec<String> = knobs::SCHEME_ONLY.or_panic::<Option<_>>()?;
    let scheme = |l: &String| {
        Scheme::from_label(l).unwrap_or_else(|e| panic!("{}: {e}", knobs::SCHEME_ONLY.env))
    };
    Some(labels.iter().map(scheme).collect())
}

/// Is `scheme` part of the current test matrix?
pub fn scheme_enabled(scheme: Scheme) -> bool {
    only_set().is_none_or(|keep| keep.contains(&scheme))
}

/// Filter a scheme list down to the current test matrix (identity when
/// `ITESP_SCHEME_ONLY` is unset).
pub fn schemes_under_test<I: IntoIterator<Item = Scheme>>(all: I) -> Vec<Scheme> {
    match only_set() {
        None => all.into_iter().collect(),
        Some(keep) => all.into_iter().filter(|s| keep.contains(s)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialized env mutation: these tests set/unset the knob, so they
    /// must not interleave with each other (cargo runs tests in threads).
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn unset_means_all() {
        let _g = ENV_LOCK.lock().unwrap();
        std::env::remove_var("ITESP_SCHEME_ONLY");
        assert_eq!(schemes_under_test(Scheme::ALL).len(), Scheme::ALL.len());
        assert!(scheme_enabled(Scheme::Itesp));
    }

    #[test]
    fn filters_to_the_listed_labels() {
        let _g = ENV_LOCK.lock().unwrap();
        std::env::set_var("ITESP_SCHEME_ONLY", "SECDDR, IRORAM");
        let got = schemes_under_test(Scheme::ALL);
        std::env::remove_var("ITESP_SCHEME_ONLY");
        assert_eq!(got, vec![Scheme::SecDdr, Scheme::IrOram]);
    }

    #[test]
    fn unknown_label_panics_loudly() {
        let _g = ENV_LOCK.lock().unwrap();
        std::env::set_var("ITESP_SCHEME_ONLY", "SECDDR2");
        let r = std::panic::catch_unwind(|| scheme_enabled(Scheme::Itesp));
        std::env::remove_var("ITESP_SCHEME_ONLY");
        let msg = *r
            .expect_err("bad label must panic")
            .downcast::<String>()
            .expect("panic message is a String");
        assert!(msg.contains("SECDDR2"), "panic names the bad label: {msg}");
        assert!(msg.contains("IRORAM"), "panic lists valid labels: {msg}");
    }
}
