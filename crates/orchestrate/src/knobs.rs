//! Every `ITESP_*` setting, declared once.
//!
//! [`TABLE`] is the single listing: each row names the environment
//! variable, its command-line flags, the kind of value, the default and
//! a one-line doc. A setting resolves as flag, then environment, then
//! default (`""` counts as unset), and fails one way: a [`KnobError`]
//! naming the variable, the value and the expected form, which binaries
//! print as `error: …` before exiting 2 ([`exit_on`]) and test support
//! panics with ([`Knob::or_panic`]). Nothing else reads the environment
//! or the bench command line; the libraries take values.

use std::ffi::OsStr;
use std::fmt;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

/// The form of value a setting takes; [`Kind::expected`] states it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Positive,
    Count,
    Bool,
    Seconds,
    Millis,
    Path,
    Seed,
    Factor,
    SchemeList,
    JobTarget,
    Chaos,
}

impl Kind {
    /// The expected form, as error messages state it.
    pub fn expected(self) -> &'static str {
        match self {
            Kind::Positive => "a positive integer",
            Kind::Count => "a non-negative integer",
            Kind::Bool => "0 or 1",
            Kind::Seconds => "a positive number of seconds",
            Kind::Millis => "a positive whole number of milliseconds",
            Kind::Path => "a UTF-8 path",
            Kind::Seed => "an unsigned 64-bit integer",
            Kind::Factor => "a positive number",
            Kind::SchemeList => "comma-separated scheme labels, e.g. SECDDR,IRORAM",
            Kind::JobTarget => "<target>:<job-index>, e.g. fig08:3",
            Kind::Chaos => "comma-separated panic-tenant=<id> directives",
        }
    }

    /// An integer kind's value; for chaos directives, the last tenant.
    fn int(self, raw: &str) -> Option<u64> {
        match self {
            Kind::Positive | Kind::Millis => raw.parse().ok().filter(|&n| n > 0),
            Kind::Count | Kind::Seed => raw.parse().ok(),
            Kind::Chaos => list(raw)?
                .iter()
                .map(|d| d.strip_prefix("panic-tenant=")?.parse().ok())
                .collect::<Option<Vec<u64>>>()?
                .pop(),
            _ => misread(self),
        }
    }
}

/// Comma-separated items, trimmed; `None` when one is empty.
fn list(raw: &str) -> Option<Vec<&str>> {
    let items: Vec<&str> = raw.split(',').map(str::trim).collect();
    items.iter().all(|s| !s.is_empty()).then_some(items)
}

fn positive(x: &f64) -> bool {
    x.is_finite() && *x > 0.0
}

fn misread<T>(kind: Kind) -> T {
    panic!("a {kind:?} setting read as {}", std::any::type_name::<T>())
}

/// A Rust type a setting can be read as.
pub trait KnobValue: Sized {
    /// The largest integer this type holds (for the error message).
    const MAX: u64 = u64::MAX;

    /// Parse a trimmed, non-empty `kind` value (`None`: malformed or out
    /// of range); panics if `kind` does not produce this type.
    fn parse(kind: Kind, raw: &str) -> Option<Self>;

    /// The reading of an unset row without a default.
    fn unset(env: &str) -> Self {
        panic!("{env} has no default; read it as an Option")
    }
}

macro_rules! knob_ints {
    ($($t:ty),*) => {$(
        impl KnobValue for $t {
            const MAX: u64 = <$t>::MAX as u64;
            fn parse(kind: Kind, raw: &str) -> Option<Self> {
                <$t>::try_from(kind.int(raw)?).ok()
            }
        }
    )*};
}
knob_ints!(u32, u64, usize);

macro_rules! knob_values {
    ($($t:ty => |$kind:ident, $raw:ident| { $($arm:pat => $e:expr,)* })*) => {$(
        impl KnobValue for $t {
            fn parse($kind: Kind, $raw: &str) -> Option<Self> {
                match $kind {
                    $($arm => $e,)*
                    _ => misread($kind),
                }
            }
        }
    )*};
}
knob_values! {
    bool => |kind, raw| {
        Kind::Bool => ["0", "1"].iter().position(|&b| b == raw).map(|i| i == 1),
    }
    Duration => |kind, raw| {
        Kind::Seconds => Duration::try_from_secs_f64(raw.parse().ok().filter(positive)?).ok(),
        Kind::Millis => Some(Duration::from_millis(kind.int(raw)?)),
    }
    PathBuf => |kind, raw| { Kind::Path => Some(raw.into()), }
    f64 => |kind, raw| { Kind::Factor => raw.parse().ok().filter(positive), }
    Vec<String> => |kind, raw| {
        Kind::SchemeList => Some(list(raw)?.into_iter().map(str::to_owned).collect()),
    }
    (String, usize) => |kind, raw| {
        Kind::JobTarget => raw.rsplit_once(':').and_then(|(t, j)| Some((t.to_owned(), j.parse().ok()?))),
    }
}

impl<T: KnobValue> KnobValue for Option<T> {
    const MAX: u64 = T::MAX;
    fn parse(kind: Kind, raw: &str) -> Option<Self> {
        T::parse(kind, raw).map(Some)
    }
    fn unset(_: &str) -> Self {
        None
    }
}

/// Which program reads a setting: the figure binaries (`run_all`
/// forwards their flags), `run_all` alone (never forwarded), the
/// `itesp-serve` daemon, or the tests and seeded drills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    Bench,
    RunAll,
    Serve,
    Test,
}

/// One row of [`TABLE`]. `flags` are its bench command-line forms
/// (`--flag VALUE`, `--flag=VALUE`, a bare switch for a
/// [`Kind::Bool`]); [`OPS`] is also the first bare argument. `default`
/// is in the variable's own syntax; `""` means unset, and the row's doc
/// line says what the reader then does.
#[derive(Debug)]
pub struct Knob {
    pub env: &'static str,
    pub flags: &'static [&'static str],
    pub kind: Kind,
    pub default: &'static str,
    pub scope: Scope,
}

/// A malformed setting: the variable (and the flag, when the value
/// came from one), the value and the expected form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnobError {
    pub name: String,
    pub value: String,
    pub expected: String,
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {} {:?}: expected {}",
            self.name, self.value, self.expected
        )
    }
}

impl std::error::Error for KnobError {}

impl Knob {
    /// Read the setting: the command line (once [`load_args`] has
    /// parsed it), then the environment, then the default. A malformed
    /// value, or one out of `T`'s range, is an error.
    pub fn get<T: KnobValue>(&self) -> Result<T, KnobError> {
        match ARGS.get().and_then(|a| a.as_ref().ok()?.value(self)) {
            Some((flag, v)) => self.resolve(Some(flag), v),
            None => self.read_env(std::env::var_os(self.env).as_deref()),
        }
    }

    /// [`Knob::get`] for test support: a malformed value panics with
    /// the [`KnobError`] text.
    pub fn or_panic<T: KnobValue>(&self) -> T {
        self.get().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Resolve from an environment value (`None`: unset).
    fn read_env<T: KnobValue>(&self, raw: Option<&OsStr>) -> Result<T, KnobError> {
        match raw.filter(|r| !r.is_empty()).map(|r| r.to_str().ok_or(r)) {
            Some(Ok(v)) => self.resolve(None, v),
            Some(Err(r)) => Err(self.error(None, &r.to_string_lossy(), "valid UTF-8")),
            None if self.default.is_empty() => Ok(T::unset(self.env)),
            None => self.resolve(None, self.default),
        }
    }

    fn resolve<T: KnobValue>(&self, flag: Option<&str>, raw: &str) -> Result<T, KnobError> {
        let v = raw.trim();
        let expected = match T::MAX {
            u64::MAX => self.kind.expected().to_owned(),
            max => format!("{} up to {max}", self.kind.expected()),
        };
        let parsed = (!v.is_empty()).then(|| T::parse(self.kind, v)).flatten();
        parsed.ok_or_else(|| self.error(flag, raw, expected))
    }

    fn error(&self, flag: Option<&str>, value: &str, expected: impl fmt::Display) -> KnobError {
        KnobError {
            name: flag.map_or_else(|| self.env.to_owned(), |f| format!("{f} ({})", self.env)),
            value: value.to_owned(),
            expected: expected.to_string(),
        }
    }
}

/// Print a [`KnobError`] as `error: …` and exit 2 — how every binary
/// fails on a malformed setting.
pub fn exit_on<T>(r: Result<T, KnobError>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// [`TEST_SEED`], or `default` when unset; a malformed value panics.
pub fn test_seed(default: u64) -> u64 {
    TEST_SEED.or_panic::<Option<u64>>().unwrap_or(default)
}

/// The bench command line, parsed against the rows' flags.
#[derive(Debug, Default)]
pub struct Args {
    /// `(row env, flag as given, value)`, in order.
    set: Vec<(&'static str, &'static str, String)>,
    /// Every token but the [`Scope::RunAll`] rows': what `run_all`
    /// hands its children.
    pub forward: Vec<String>,
}

impl Args {
    /// Parse `args` (without the program name): an unknown argument,
    /// a second bare one or a flag without its value is an error.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, KnobError> {
        let mut out = Args::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let mut taken = None;
            let (knob, flag, value) = match flag_of(&a) {
                Some((k, flag, Some(v))) => (k, flag, v.to_owned()),
                Some((k, flag, None)) if k.kind == Kind::Bool => (k, flag, "1".to_owned()),
                Some((k, flag, None)) => {
                    let v = args.next();
                    let missing = || k.error(Some(flag), "", "a value after the flag");
                    taken.clone_from(&v);
                    (k, flag, v.ok_or_else(missing)?)
                }
                None if !a.starts_with('-') && out.value(&OPS).is_none() => {
                    (&OPS, "ops", a.clone())
                }
                None => return Err(bad_argument(a, usage())),
            };
            if knob.scope != Scope::RunAll {
                out.forward.extend([a].into_iter().chain(taken));
            }
            out.set.push((knob.env, flag, value));
        }
        Ok(out)
    }

    /// The last value given for `knob`, with the flag it came through.
    fn value(&self, knob: &Knob) -> Option<(&'static str, &str)> {
        let (_, flag, v) = self.set.iter().rev().find(|(env, ..)| *env == knob.env)?;
        Some((flag, v))
    }
}

/// The row a `--flag` / `--flag=value` token names, with the flag and
/// its inline value.
fn flag_of(arg: &str) -> Option<(&'static Knob, &'static str, Option<&str>)> {
    TABLE.iter().find_map(|k| {
        k.flags
            .iter()
            .find_map(|&name| match arg.strip_prefix(name)? {
                "" => Some((*k, name, None)),
                rest if k.kind != Kind::Bool => Some((*k, name, Some(rest.strip_prefix('=')?))),
                _ => None,
            })
    })
}

/// The bench usage line, from the table.
pub fn usage() -> String {
    let form = |k: &&Knob| match (k.flags.first()?, k.kind) {
        (flag, Kind::Bool) => Some(format!(" [{flag}]")),
        (flag, Kind::Seconds) => Some(format!(" [{flag} SECONDS]")),
        (flag, _) => Some(format!(" [{flag} N]")),
    };
    let flags: String = TABLE.iter().filter_map(form).collect();
    format!("[ops]{flags}")
}

/// The error for a command-line token the program does not take.
fn bad_argument(value: String, expected: String) -> KnobError {
    KnobError {
        name: "argument".to_owned(),
        value,
        expected,
    }
}

static ARGS: OnceLock<Result<Args, KnobError>> = OnceLock::new();

/// Parse the process's command line against the table, once; from then
/// on [`Knob::get`] sees the flags. Only the bench binaries call this —
/// a test binary's arguments belong to its harness.
pub fn load_args() -> Result<&'static Args, KnobError> {
    let args = ARGS.get_or_init(|| Args::parse(std::env::args().skip(1)));
    args.as_ref().map_err(Clone::clone)
}

/// Refuse any command-line argument, for a program (`itesp-serve`) whose
/// settings are the rows of `scope` alone: a flag such as `--shards 8`
/// must not start it with the defaults as if it had been honored.
pub fn no_args(scope: Scope) -> Result<(), KnobError> {
    match std::env::args_os().nth(1) {
        None => Ok(()),
        Some(arg) => {
            let rows = TABLE.iter().filter(|k| k.scope == scope);
            let names: Vec<&str> = rows.map(|k| k.env).collect();
            let expected = format!("no arguments; settings are {}", names.join(", "));
            Err(bad_argument(arg.to_string_lossy().into_owned(), expected))
        }
    }
}

macro_rules! knobs {
    ($(#[doc = $doc:literal] $name:ident = $env:literal, $flags:expr, $kind:ident, $default:literal, $scope:ident;)*) => {
        $(
            #[doc = $doc]
            pub static $name: Knob = Knob {
                env: $env,
                flags: &$flags,
                kind: Kind::$kind,
                default: $default,
                scope: Scope::$scope,
            };
        )*
        /// Every setting, in listing order.
        pub static TABLE: &[&Knob] = &[$(&$name),*];
    };
}

knobs! {
    /// Memory operations per program in each trace (the paper used 5M).
    OPS = "ITESP_OPS", [], Positive, "20000", Bench;
    /// Worker threads per campaign (unset: the machine's available parallelism).
    JOBS = "ITESP_JOBS", ["--jobs", "-j"], Positive, "", Bench;
    /// Resume a campaign from its checkpoints under <results>/.ckpt.
    RESUME = "ITESP_RESUME", ["--resume"], Bool, "0", Bench;
    /// figrecover: resume the run from the snapshots in ITESP_SNAPSHOT_DIR.
    RECOVER = "ITESP_RECOVER", ["--recover"], Bool, "0", Bench;
    /// Watchdog deadline per job attempt (unset: none).
    JOB_TIMEOUT = "ITESP_JOB_TIMEOUT", ["--timeout"], Seconds, "", Bench;
    /// Retries per failed job.
    JOB_RETRIES = "ITESP_JOB_RETRIES", ["--retries"], Count, "0", Bench;
    /// Run only this job index; the rest wait for a later --resume.
    JOB_ONLY = "ITESP_JOB_ONLY", ["--job-only"], Count, "", Bench;
    /// run_all: deadline per child target (unset: none, 600 s for the serve and migrate drills).
    TARGET_TIMEOUT = "ITESP_TARGET_TIMEOUT", ["--target-timeout"], Seconds, "", RunAll;
    /// run_all: retries per failed target; a retry adds --resume.
    TARGET_RETRIES = "ITESP_TARGET_RETRIES", ["--target-retries"], Count, "0", RunAll;
    /// run_all: the perf-trajectory log each campaign records its timings in.
    BENCH_LOG = "ITESP_BENCH_LOG", [], Path, "BENCH_run_all.json", RunAll;
    /// Where figure JSON and .ckpt/ checkpoints are written.
    RESULTS_DIR = "ITESP_RESULTS_DIR", [], Path, "results", Bench;
    /// Fault drill: panic in job <job-index> of <target>.
    INJECT_PANIC = "ITESP_INJECT_PANIC", [], JobTarget, "", Bench;
    /// figrecover/figmigrate: checkpoint directory of a crash-recovery run (unset: snapshots off).
    SNAPSHOT_DIR = "ITESP_SNAPSHOT_DIR", [], Path, "", Bench;
    /// CPU cycles between snapshot captures.
    SNAPSHOT_EVERY = "ITESP_SNAPSHOT_EVERY", [], Positive, "200000", Bench;
    /// Internal: marks the figrecover/figmigrate child process the drill SIGKILLs.
    DRILL_CHILD = "ITESP_DRILL_CHILD", [], Bool, "0", Bench;
    /// Replay one seed in every randomized test and seeded drill (unset: each reader's own).
    TEST_SEED = "ITESP_TEST_SEED", [], Seed, "", Test;
    /// Fresh seeds per randomized oracle test (unset: each test's own count).
    TEST_CASES = "ITESP_TEST_CASES", [], Count, "", Test;
    /// Narrow scheme-parameterized tests to these labels (unset: every scheme).
    SCHEME_ONLY = "ITESP_SCHEME_ONLY", [], SchemeList, "", Test;
    /// Randomized trials per seed in the chipkill fault campaign.
    FAULT_TRIALS = "ITESP_FAULT_TRIALS", [], Count, "384", Test;
    /// Scale factor on the RAS Monte-Carlo scrub-window counts.
    RAS_WINDOWS = "ITESP_RAS_WINDOWS", [], Factor, "1", Test;
    /// Daemon state directory: the ports file and snaps/.
    SERVE_STATE = "ITESP_SERVE_STATE", [], Path, "serve-state", Serve;
    /// Engine shards, one worker thread each.
    SERVE_SHARDS = "ITESP_SERVE_SHARDS", [], Positive, "4", Serve;
    /// Admitted requests per shard.
    SERVE_QUEUE = "ITESP_SERVE_QUEUE", [], Positive, "8", Serve;
    /// Snapshot the registry every N completions (0: at drain only).
    SERVE_SNAP_EVERY = "ITESP_SERVE_SNAP_EVERY", [], Count, "8", Serve;
    /// Worker deadline per request attempt.
    SERVE_TIMEOUT_MS = "ITESP_SERVE_TIMEOUT_MS", [], Millis, "120000", Serve;
    /// Worker retries per request.
    SERVE_RETRIES = "ITESP_SERVE_RETRIES", [], Count, "1", Serve;
    /// Socket read deadline, the slow-loris defense.
    SERVE_READ_TIMEOUT_MS = "ITESP_SERVE_READ_TIMEOUT_MS", [], Millis, "5000", Serve;
    /// Fault drill: panic-tenant=<id> makes that tenant's requests panic in the shard worker.
    SERVE_CHAOS = "ITESP_SERVE_CHAOS", [], Chaos, "", Serve;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ffi::OsString;
    use std::os::unix::ffi::OsStringExt;

    fn args(list: &[&str]) -> Result<Args, KnobError> {
        Args::parse(list.iter().map(|s| (*s).to_owned()))
    }

    /// A value of `kind` that must be rejected.
    fn malformed(kind: Kind) -> OsString {
        let text = match kind {
            Kind::Positive | Kind::Millis | Kind::Factor => "0",
            Kind::Seconds => "1e300",
            Kind::Count | Kind::Seed => "abc",
            Kind::Bool => "yes",
            Kind::SchemeList => "SECDDR,,IRORAM",
            Kind::JobTarget => "fig08",
            Kind::Chaos => "bogus",
            // Any UTF-8 text is a path; only undecodable bytes are not.
            Kind::Path => return OsString::from_vec(vec![b'r', 0xff, b's']),
        };
        text.into()
    }

    /// Read `knob` from an environment value as the type its readers use.
    fn read(knob: &Knob, raw: &OsStr) -> Result<(), KnobError> {
        match knob.kind {
            Kind::Positive | Kind::Count | Kind::Seed | Kind::Chaos => {
                knob.read_env::<Option<u64>>(Some(raw)).map(drop)
            }
            Kind::Bool => knob.read_env::<bool>(Some(raw)).map(drop),
            Kind::Seconds | Kind::Millis => knob.read_env::<Option<Duration>>(Some(raw)).map(drop),
            Kind::Path => knob.read_env::<Option<PathBuf>>(Some(raw)).map(drop),
            Kind::Factor => knob.read_env::<f64>(Some(raw)).map(drop),
            Kind::SchemeList => knob.read_env::<Option<Vec<String>>>(Some(raw)).map(drop),
            Kind::JobTarget => knob
                .read_env::<Option<(String, usize)>>(Some(raw))
                .map(drop),
        }
    }

    #[test]
    fn every_row_rejects_a_malformed_value_by_name() {
        for knob in TABLE {
            let bad = malformed(knob.kind);
            let err = read(knob, &bad).expect_err(knob.env);
            assert_eq!(err.name, knob.env);
            assert_eq!(err.value, bad.to_string_lossy());
            assert!(err.to_string().contains(knob.env), "{err}");
        }
    }

    #[test]
    fn former_silent_fallbacks_are_errors() {
        let cases: &[(&Knob, &str)] = &[
            (&SNAPSHOT_EVERY, "abc"),
            (&SNAPSHOT_EVERY, "0"),
            (&TEST_SEED, "0x5EED"),
            (&FAULT_TRIALS, "many"),
            (&RAS_WINDOWS, "-2"),
            (&SERVE_SHARDS, "four"),
            (&SERVE_CHAOS, "panic-tenant=13,bogus"),
        ];
        for &(knob, raw) in cases {
            let err = read(knob, OsStr::new(raw)).expect_err(raw);
            assert_eq!(err.name, knob.env, "{err}");
        }
        // A non-UTF-8 serve value is rejected, not defaulted.
        let err = SERVE_STATE
            .read_env::<PathBuf>(Some(&malformed(Kind::Path)))
            .unwrap_err();
        assert_eq!(err.expected, "valid UTF-8");
        // A retry count past u32 is rejected, not truncated.
        let err = SERVE_RETRIES
            .read_env::<u32>(Some(OsStr::new("4294967296")))
            .unwrap_err();
        assert!(err.expected.ends_with("up to 4294967295"), "{err}");
        assert_eq!(
            SERVE_RETRIES.read_env::<u32>(Some(OsStr::new("4294967295"))),
            Ok(u32::MAX)
        );
    }

    #[test]
    fn defaults_parse_and_unset_rows_read_as_none() {
        for knob in TABLE.iter().filter(|k| !k.default.is_empty()) {
            read(knob, OsStr::new(knob.default)).expect(knob.env);
        }
        assert_eq!(OPS.read_env::<usize>(None), Ok(20_000));
        assert_eq!(OPS.read_env::<usize>(Some(OsStr::new(""))), Ok(20_000));
        assert_eq!(JOBS.read_env::<Option<usize>>(None), Ok(None));
        assert_eq!(RESUME.read_env::<bool>(None), Ok(false));
        assert_eq!(
            RAS_WINDOWS.read_env::<f64>(Some(OsStr::new(" 2.5 "))),
            Ok(2.5)
        );
        assert_eq!(
            INJECT_PANIC.read_env::<Option<(String, usize)>>(Some(OsStr::new("fig08:3"))),
            Ok(Some(("fig08".to_owned(), 3)))
        );
        assert_eq!(
            SERVE_CHAOS
                .read_env::<Option<u64>>(Some(OsStr::new("panic-tenant=1, panic-tenant=13"))),
            Ok(Some(13))
        );
        assert_eq!(
            JOB_TIMEOUT.read_env::<Option<Duration>>(Some(OsStr::new("0.5"))),
            Ok(Some(Duration::from_millis(500)))
        );
    }

    #[test]
    fn rows_are_unique_and_prefixed() {
        let mut names: Vec<&str> = TABLE.iter().map(|k| k.env).collect();
        assert!(names.iter().all(|n| n.starts_with("ITESP_")));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TABLE.len());
        let flags: Vec<&str> = TABLE.iter().flat_map(|k| k.flags.iter().copied()).collect();
        let mut unique = flags.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), flags.len());
    }

    #[test]
    fn command_line_forms_parse_and_run_all_rows_stay_home() {
        let a = args(&[
            "500",
            "-j",
            "2",
            "--resume",
            "--timeout=1.5",
            "--target-timeout",
            "9",
            "--target-retries=1",
            "--jobs=3",
        ])
        .unwrap();
        assert_eq!(a.value(&OPS), Some(("ops", "500")));
        assert_eq!(a.value(&JOBS), Some(("--jobs", "3")), "the last flag wins");
        assert_eq!(a.value(&RESUME), Some(("--resume", "1")));
        assert_eq!(a.value(&JOB_TIMEOUT), Some(("--timeout", "1.5")));
        assert_eq!(a.value(&TARGET_TIMEOUT), Some(("--target-timeout", "9")));
        assert_eq!(a.value(&RECOVER), None);
        assert_eq!(
            a.forward,
            ["500", "-j", "2", "--resume", "--timeout=1.5", "--jobs=3"]
        );
    }

    #[test]
    fn command_line_errors_name_the_flag_or_usage() {
        let err = args(&["--jobs"]).unwrap_err();
        assert!(err.name.contains("ITESP_JOBS"), "{err}");
        let err = args(&["100", "200"]).unwrap_err();
        assert_eq!(err.value, "200");
        assert!(err.expected.contains("[ops]") && err.expected.contains("--target-retries N"));
        assert!(args(&["--resume=1"]).is_err(), "switches take no value");
        assert!(args(&["--bogus"]).is_err());
    }

    #[test]
    fn a_flag_value_is_checked_like_an_env_value() {
        let err = JOBS.resolve::<usize>(Some("-j"), "0").unwrap_err();
        assert_eq!(err.name, "-j (ITESP_JOBS)");
        assert_eq!(
            err.to_string(),
            "invalid -j (ITESP_JOBS) \"0\": expected a positive integer"
        );
    }
}
