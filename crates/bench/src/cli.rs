//! The session benches' one entry point, and the flag parsing every bench
//! binary shares, so their flags parse and fail identically.
//!
//! The value helpers ([`next_value`], [`next_parsed`], [`next_benchmark`],
//! [`require_nonzero`]) serve every binary. [`main`] is the whole
//! `main` of `pipeline`, `qdp`, `faults` and `serve`: the flags they
//! share are matched once in [`parse_session`], each bench adds its own
//! and its run, lines and summary through [`Bench`], and the stable
//! lines `--out` writes are the lines without the bench's
//! [`Bench::VOLATILE_KEYS`] ([`stable_lines`]).

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use redcane::report::json::Value;
use redcane_artifacts::{ArtifactStore, Provenance};
use redcane_datasets::Benchmark;

use crate::profile::{provenance_meta, ProfileArgs};
use crate::session::{Arch, BenchSpec};

/// The argument stream the session parser hands to per-bench flags.
pub type Args = std::vec::IntoIter<String>;

/// Pulls the value following `flag` from the argument stream.
///
/// # Errors
///
/// Returns a user-facing message when the stream is exhausted.
pub fn next_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next()
        .ok_or_else(|| format!("{flag} requires a value"))
}

/// Pulls and parses the value following `flag`.
///
/// # Errors
///
/// Returns a user-facing message when the stream is exhausted or the
/// value does not parse as `T`.
pub fn next_parsed<T>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T: FromStr,
    T::Err: Display,
{
    next_value(args, flag)?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

/// Rejects a zero count with a consistent message.
///
/// # Errors
///
/// Returns a user-facing message when `value` is zero.
pub fn require_nonzero(value: usize, flag: &str) -> Result<usize, String> {
    if value == 0 {
        Err(format!("{flag} must be at least 1"))
    } else {
        Ok(value)
    }
}

/// Pulls and parses `--benchmark`'s value (`mnist`, `fashion`, `svhn`
/// or `cifar`).
///
/// # Errors
///
/// Returns a user-facing message naming the flag when the value is
/// missing or unknown.
pub fn next_benchmark(args: &mut impl Iterator<Item = String>) -> Result<Benchmark, String> {
    match next_value(args, "--benchmark")?.as_str() {
        "mnist" => Ok(Benchmark::MnistLike),
        "fashion" => Ok(Benchmark::FashionLike),
        "svhn" => Ok(Benchmark::SvhnLike),
        "cifar" => Ok(Benchmark::Cifar10Like),
        other => Err(format!("--benchmark: unknown benchmark '{other}'")),
    }
}

/// A session bench: its config, its command line, its run and its JSON
/// lines. [`main`] drives every implementor the same way.
pub trait Bench: Sized {
    /// What one run produces.
    type Outcome;

    /// The binary's name: the error prefix, the stderr tag and the
    /// profile's `bench` field.
    const NAME: &'static str;

    /// The `--help` text.
    const USAGE: &'static str;

    /// Line keys that legitimately differ between otherwise-identical
    /// runs (wall clocks, latencies, batch composition). The stable
    /// lines `--out` writes are the lines without them.
    const VOLATILE_KEYS: &'static [&'static str] = &[];

    /// The shared spec the common flags write to.
    fn spec_mut(&mut self) -> &mut BenchSpec;

    /// What `--quick` makes of this config: the bench's quick config
    /// with the spec's benchmark, seed and architectures (and whichever
    /// of its own fields the bench keeps) taken from the flags given
    /// before it.
    fn quick_keeping(self) -> Self;

    /// Consumes `flag` (and its value) if it is one of this bench's own
    /// flags; `None` means "not mine".
    fn match_flag(&mut self, _flag: &str, _args: &mut Args) -> Option<Result<(), String>> {
        None
    }

    /// Runs the bench, deterministically from the config.
    fn run(&self) -> Self::Outcome;

    /// The outcome as JSON lines, in output order.
    fn lines(outcome: &Self::Outcome) -> Vec<Value>;

    /// Each architecture's artifact-store provenance, in spec order.
    fn provenance(outcome: &Self::Outcome) -> Vec<(Arch, Provenance)>;

    /// The human summary lines [`main`] logs to stderr after the run.
    fn summary(outcome: &Self::Outcome) -> Vec<String>;

    /// A post-run check that fails the run (after every output is
    /// written); passes by default.
    fn check(&self, _outcome: &Self::Outcome) -> Result<(), String> {
        Ok(())
    }
}

/// A parsed session-bench command line.
#[derive(Debug)]
pub struct SessionArgs<B> {
    /// The config, with the artifact store resolved.
    pub config: B,
    /// `--out PATH`: also write the stable lines there.
    pub out: Option<String>,
    /// The `--profile*` outputs.
    pub profile: ProfileArgs,
}

/// Parses a session bench's command line onto `config`: `--quick`,
/// `--benchmark`, `--seed`, `--arch`, `--out`, `--artifacts`,
/// `--no-cache`, `--threads` and the `--profile*` flags, then the
/// bench's own flags ([`Bench::match_flag`]). `--threads` takes effect
/// as it is parsed; the artifact store is resolved last. `Ok(None)`
/// means `--help` was given.
///
/// # Errors
///
/// Returns a user-facing message naming the offending flag.
pub fn parse_session<B: Bench>(
    argv: Vec<String>,
    mut config: B,
) -> Result<Option<SessionArgs<B>>, String> {
    let mut out = None;
    let mut artifacts = None;
    let mut no_cache = false;
    let mut profile = ProfileArgs::default();
    let mut args = argv.into_iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => config = config.quick_keeping(),
            "--benchmark" => config.spec_mut().benchmark = next_benchmark(&mut args)?,
            "--seed" => config.spec_mut().seed = next_parsed(&mut args, &flag)?,
            "--arch" => {
                config.spec_mut().archs = match next_value(&mut args, &flag)?.as_str() {
                    "capsnet" => vec![Arch::CapsNet],
                    "deepcaps" => vec![Arch::DeepCaps],
                    "both" => vec![Arch::CapsNet, Arch::DeepCaps],
                    other => return Err(format!("--arch: unknown arch '{other}'")),
                }
            }
            "--out" => out = Some(next_value(&mut args, &flag)?),
            "--artifacts" => artifacts = Some(next_value(&mut args, &flag)?),
            "--no-cache" => no_cache = true,
            "--threads" => redcane_tensor::par::set_threads(next_parsed(&mut args, &flag)?),
            "--help" | "-h" => return Ok(None),
            other => config
                .match_flag(other, &mut args)
                .or_else(|| profile.match_flag(other, &mut args))
                .unwrap_or_else(|| Err(format!("unknown flag '{other}'")))?,
        }
    }
    config.spec_mut().artifacts = ArtifactStore::resolve_dir(artifacts.as_deref(), no_cache);
    Ok(Some(SessionArgs {
        config,
        out,
        profile,
    }))
}

/// The stable lines of `lines`: each without `B`'s
/// [`Bench::VOLATILE_KEYS`], dumped. What `--out` writes, and what CI
/// byte-compares across thread counts and store states.
pub fn stable_lines<B: Bench>(lines: &[Value]) -> Vec<String> {
    lines
        .iter()
        .map(|line| line.without_keys(B::VOLATILE_KEYS).dump())
        .collect()
}

/// A session bench's whole `main`: parses the command line onto
/// `default`, arms the profiler, runs the bench, prints every line to
/// stdout and the summary to stderr, writes the stable lines to
/// `--out` and the profile outputs, then runs the bench's check.
pub fn main<B: Bench>(default: B) -> ExitCode {
    match run_main(default) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{}: {msg}", B::NAME);
            ExitCode::FAILURE
        }
    }
}

fn run_main<B: Bench>(default: B) -> Result<(), String> {
    let Some(args) = parse_session(std::env::args().skip(1).collect(), default)? else {
        eprintln!("{}", B::USAGE);
        return Ok(());
    };
    args.profile.enable_if_requested();
    let outcome = args.config.run();
    let lines = B::lines(&outcome);
    for line in &lines {
        println!("{}", line.dump());
    }
    for line in B::summary(&outcome) {
        eprintln!("[{}] {line}", B::NAME);
    }
    if let Some(path) = &args.out {
        write_lines(path, &stable_lines::<B>(&lines))?;
    }
    let meta = provenance_meta(B::provenance(&outcome));
    args.profile.write(B::NAME, meta)?;
    args.config.check(&outcome)
}

/// Writes `lines` to `path`, one per line.
///
/// # Errors
///
/// Returns a user-facing message naming the file.
fn write_lines(path: &str, lines: &[String]) -> Result<(), String> {
    std::fs::write(path, lines.join("\n") + "\n").map_err(|e| format!("cannot write {path}: {e}"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::faults::FaultsConfig;
    use crate::pipeline::spec;
    use crate::qdp::QdpConfig;
    use crate::serve::ServeBenchConfig;
    use crate::session;
    use redcane_tensor::par;

    fn args(items: &[&str]) -> impl Iterator<Item = String> {
        items
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn next_parsed_reads_and_reports() {
        let mut it = args(&["42", "nope"]);
        assert_eq!(next_parsed::<usize>(&mut it, "--n"), Ok(42));
        assert!(next_parsed::<usize>(&mut it, "--n")
            .unwrap_err()
            .starts_with("--n:"));
        assert_eq!(
            next_parsed::<usize>(&mut it, "--n"),
            Err("--n requires a value".to_string())
        );
    }

    #[test]
    fn require_nonzero_gates_zero() {
        assert_eq!(require_nonzero(3, "--requests"), Ok(3));
        assert_eq!(
            require_nonzero(0, "--requests"),
            Err("--requests must be at least 1".to_string())
        );
    }

    /// Parses `items` (plus `--no-cache`, so the store never depends on
    /// the environment) onto `config`.
    fn parse<B: Bench>(items: &[&str], config: B) -> Result<B, String> {
        let argv = args(items).chain(["--no-cache".to_string()]).collect();
        parse_session(argv, config).map(|parsed| parsed.expect("no --help").config)
    }

    /// The quick spec with `--seed 5 --arch deepcaps` kept.
    fn quick_seed5_deepcaps() -> BenchSpec {
        BenchSpec {
            seed: 5,
            archs: vec![Arch::DeepCaps],
            ..BenchSpec::quick()
        }
    }

    #[test]
    fn quick_keeps_the_shared_flags_given_before_it() {
        let flags = ["--seed", "5", "--arch", "deepcaps", "--quick"];
        let expect = quick_seed5_deepcaps();
        assert_eq!(parse(&flags, QdpConfig::smoke()).unwrap().spec, expect);
        assert_eq!(parse(&flags, FaultsConfig::smoke()).unwrap().spec, expect);
        assert_eq!(
            parse(&flags, ServeBenchConfig::smoke()).unwrap().spec,
            expect
        );
        assert_eq!(parse(&flags, spec()).unwrap(), expect);
        // Flags after --quick apply on top of it.
        let after = parse(
            &["--quick", "--seed", "5", "--arch", "deepcaps"],
            QdpConfig::smoke(),
        );
        assert_eq!(after.unwrap().spec, expect);
    }

    /// `pipeline --quick` is every bench's `--quick`: the quick sizes on
    /// the pipeline's own architectures, so it trains (or restores)
    /// under exactly the artifact key `qdp --quick` uses.
    #[test]
    fn pipeline_quick_shares_the_quick_sizes_and_artifact_key() {
        let pipeline = parse(&["--quick"], spec()).unwrap();
        let qdp = parse(&["--quick"], QdpConfig::smoke()).unwrap().spec;
        assert_eq!(
            (pipeline.train, pipeline.test, pipeline.epochs),
            (200, 60, 3)
        );
        assert_eq!(pipeline.archs, spec().archs);
        assert_eq!(
            BenchSpec {
                archs: pipeline.archs.clone(),
                ..qdp.clone()
            },
            pipeline
        );
        assert_eq!(pipeline.key(Arch::CapsNet), qdp.key(Arch::CapsNet));
    }

    #[test]
    fn qdp_quick_keeps_components_and_heterogeneous() {
        let kept = parse(
            &[
                "--components",
                "mul8u_NGR, mul8u_QKX",
                "--no-heterogeneous",
                "--quick",
            ],
            QdpConfig::smoke(),
        )
        .unwrap();
        assert_eq!(
            kept.components,
            Some(vec!["mul8u_NGR".to_string(), "mul8u_QKX".to_string()])
        );
        assert!(!kept.heterogeneous);
        let defaults = parse(&["--quick"], QdpConfig::smoke()).unwrap();
        assert_eq!(defaults.components, QdpConfig::quick().components);
        assert!(defaults.heterogeneous);
        assert!(
            parse(&["--heterogeneous"], QdpConfig::quick())
                .unwrap()
                .heterogeneous
        );
    }

    #[test]
    fn faults_quick_keeps_fail_soft_and_max_sites() {
        let kept = parse(
            &["--fail-soft", "--max-sites", "7", "--quick"],
            FaultsConfig::smoke(),
        );
        let kept = kept.unwrap();
        assert!(kept.fail_soft);
        assert_eq!(kept.max_sites, Some(7));
        assert_eq!(kept.stuck_bits, FaultsConfig::quick().stuck_bits);
        let defaults = parse(&["--quick"], FaultsConfig::smoke()).unwrap();
        assert!(!defaults.fail_soft);
        assert_eq!(defaults.max_sites, FaultsConfig::quick().max_sites);
    }

    #[test]
    fn serve_quick_resets_the_load_flags_and_counts_must_be_nonzero() {
        let reset = parse(
            &["--requests", "9", "--step6", "--budget-s", "30", "--quick"],
            ServeBenchConfig::smoke(),
        );
        let reset = reset.unwrap();
        assert_eq!(reset.requests, ServeBenchConfig::quick().requests);
        assert!(!reset.step6);
        assert_eq!(reset.budget_s, Some(30.0), "the tripwire is kept");
        let after = parse(
            &["--quick", "--requests", "9", "--max-wait-us", "50"],
            ServeBenchConfig::smoke(),
        );
        let after = after.unwrap();
        assert_eq!((after.requests, after.max_wait_us), (9, Some(50)));
        assert_eq!(
            parse(&["--clients", "0"], ServeBenchConfig::smoke()).unwrap_err(),
            "--clients must be at least 1"
        );
        // A zero, negative or non-finite rate would stretch the
        // open-loop arrival gaps without bound.
        for rate in ["0", "-5", "NaN", "inf"] {
            assert_eq!(
                parse(&["--rate", rate], ServeBenchConfig::smoke()).unwrap_err(),
                "--rate must be a positive, finite rate",
                "--rate {rate}"
            );
        }
        let rate = parse(&["--rate", "250.5"], ServeBenchConfig::smoke());
        assert_eq!(rate.unwrap().arrival_rate_rps, 250.5);
    }

    #[test]
    fn bad_shared_flags_name_the_flag() {
        let err = |items: &[&str]| parse(items, QdpConfig::smoke()).unwrap_err();
        assert_eq!(
            err(&["--benchmark", "bogus"]),
            "--benchmark: unknown benchmark 'bogus'"
        );
        assert_eq!(err(&["--arch", "bogus"]), "--arch: unknown arch 'bogus'");
        // The value-less flag swallows the appended `--no-cache` as its
        // value, so test it with the raw parser.
        let missing = parse_session(args(&["--seed"]).collect(), QdpConfig::smoke());
        assert_eq!(missing.unwrap_err(), "--seed requires a value");
        assert!(err(&["--seed", "x"]).starts_with("--seed:"));
        assert_eq!(err(&["--bogus"]), "unknown flag '--bogus'");
        // Unknown component names fail at parse time, not mid-run.
        assert_eq!(
            err(&["--components", "mul8u_1JFF,bogus"]),
            "--components: unknown component 'bogus'"
        );
        // A bench's own flag is unknown to the others.
        assert!(parse(&["--fail-soft"], QdpConfig::smoke()).is_err());
        assert!(parse(&["--budget-s", "1"], spec()).is_err());
        // The pipeline's retired flags are gone.
        for retired in ["--train", "--no-timings"] {
            assert!(parse(&[retired, "1"], spec()).is_err(), "{retired}");
        }
    }

    /// `--help` stops parsing; the flags only the binary acts on
    /// (`--out`, the `--profile*` outputs, serve's `--budget-s`) reach
    /// it through the parsed command line.
    #[test]
    fn help_stops_parsing_and_extra_flags_reach_the_binary() {
        let help = parse_session(args(&["--help", "--bogus"]).collect(), spec());
        assert!(help.unwrap().is_none());
        let parsed = parse_session(
            args(&[
                "--budget-s",
                "2.5",
                "--out",
                "o.json",
                "--profile",
                "p.json",
            ])
            .collect(),
            ServeBenchConfig::smoke(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(parsed.config.budget_s, Some(2.5));
        assert_eq!(parsed.out.as_deref(), Some("o.json"));
        assert!(parsed.profile.requested());
    }

    #[test]
    fn benchmark_names_parse() {
        for (name, bench) in [
            ("mnist", Benchmark::MnistLike),
            ("fashion", Benchmark::FashionLike),
            ("svhn", Benchmark::SvhnLike),
            ("cifar", Benchmark::Cifar10Like),
        ] {
            assert_eq!(next_benchmark(&mut args(&[name])), Ok(bench));
        }
        assert_eq!(
            next_benchmark(&mut args(&[])),
            Err("--benchmark requires a value".to_string())
        );
    }

    /// Serialises the tests that move the process-wide thread count.
    static THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// One run of `bench`: each architecture's provenance and the
    /// stable lines `--out` would write.
    fn run_stable<B: Bench>(bench: &B) -> (Vec<Provenance>, Vec<String>) {
        let outcome = bench.run();
        let provenance = B::provenance(&outcome).into_iter().map(|(_, p)| p);
        (provenance.collect(), stable_lines::<B>(&B::lines(&outcome)))
    }

    /// `bench`'s stable lines, asserted equal at 1 and 3 threads (which
    /// also moves serve's default worker count) and free of every
    /// volatile key.
    pub(crate) fn thread_invariant_lines<B: Bench>(bench: &B) -> Vec<String> {
        let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let at = |threads: usize| {
            par::set_threads(threads);
            let (_, lines) = run_stable(bench);
            par::set_threads(0);
            lines
        };
        let serial = at(1);
        assert!(!serial.is_empty(), "{} wrote no lines", B::NAME);
        assert_eq!(serial, at(3), "{}: thread count leaked", B::NAME);
        for key in B::VOLATILE_KEYS {
            let quoted = format!("\"{key}\":");
            assert!(
                serial.iter().all(|line| !line.contains(&quoted)),
                "{}: {key} not stripped",
                B::NAME
            );
        }
        serial
    }

    /// Runs `bench` against the store in `dir`: it must train only when
    /// `trains`, restore otherwise, and write exactly `storeless`.
    fn assert_store_invariant<B: Bench>(
        mut bench: B,
        dir: &std::path::Path,
        trains: bool,
        storeless: &[String],
    ) {
        bench.spec_mut().artifacts = Some(dir.to_path_buf());
        let (provenance, lines) = run_stable(&bench);
        let expect = if trains {
            Provenance::Trained
        } else {
            Provenance::Restored
        };
        assert_eq!(provenance, vec![expect], "{}", B::NAME);
        assert_eq!(lines, storeless, "{}: the store changed a line", B::NAME);
    }

    /// A fresh store under the temp dir, unique to this process and `tag`.
    pub(crate) fn fresh_store(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("redcane-bench-{tag}-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The artifact-store acceptance bar for one bench: against a fresh
    /// store a cold run trains and a warm run restores, and both write
    /// the stable lines of a storeless run.
    pub(crate) fn assert_cold_and_warm_match_storeless<B: Bench + Clone>(mut bench: B) {
        bench.spec_mut().artifacts = None;
        let (provenance, storeless) = run_stable(&bench);
        assert_eq!(provenance, vec![Provenance::Trained], "{}", B::NAME);
        let dir = fresh_store(B::NAME);
        assert_store_invariant(bench.clone(), &dir, true, &storeless);
        assert_store_invariant(bench, &dir, false, &storeless);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One store, one spec: after the first bench trains, every run of
    /// every bench restores the same artifact, and restoring changes no
    /// byte of its stable lines against a storeless run.
    pub(crate) fn assert_one_artifact_serves_every_bench(
        qdp: QdpConfig,
        faults: FaultsConfig,
        serve: ServeBenchConfig,
        pipeline: session::BenchSpec,
    ) {
        let storeless = (
            run_stable(&qdp).1,
            run_stable(&faults).1,
            run_stable(&serve).1,
            run_stable(&pipeline).1,
        );
        let dir = fresh_store("session");
        for round in 0..2 {
            assert_store_invariant(qdp.clone(), &dir, round == 0, &storeless.0);
            assert_store_invariant(faults.clone(), &dir, false, &storeless.1);
            assert_store_invariant(serve.clone(), &dir, false, &storeless.2);
            assert_store_invariant(pipeline.clone(), &dir, false, &storeless.3);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
