//! Flag parsing shared by the bench binaries, so their flags parse and
//! fail identically.
//!
//! The value helpers ([`next_value`], [`next_parsed`], [`next_benchmark`],
//! [`require_nonzero`]) serve every binary. [`parse_session`] is the
//! whole command line of `qdp`, `faults` and `serve`: the flags they
//! share are matched once here, and each bench adds its own through
//! [`SessionConfig`]. (`pipeline` keeps its own, older command line.)

use std::fmt::Display;
use std::str::FromStr;

use redcane_artifacts::ArtifactStore;
use redcane_datasets::Benchmark;

use crate::profile::ProfileArgs;
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

/// A session bench's config: the shared [`BenchSpec`] plus the bench's
/// own fields and flags.
pub trait SessionConfig: Sized {
    /// The shared spec the common flags write to.
    fn spec_mut(&mut self) -> &mut BenchSpec;

    /// What `--quick` makes of this config: the bench's quick config
    /// with the spec's benchmark, seed and architectures (and whichever
    /// of its own fields the bench keeps) taken from the flags given
    /// before it.
    fn quick_keeping(self) -> Self;

    /// Consumes `flag` (and its value) if it is one of this bench's own
    /// flags; `None` means "not mine".
    fn match_flag(&mut self, flag: &str, args: &mut Args) -> Option<Result<(), String>>;
}

/// A parsed session-bench command line.
#[derive(Debug)]
pub struct SessionArgs<C> {
    /// The config, with the artifact store resolved.
    pub config: C,
    /// `--out PATH`: also write the JSON lines there.
    pub out: Option<String>,
    /// The `--profile*` outputs.
    pub profile: ProfileArgs,
}

/// Parses a session bench's command line onto `config`: `--quick`,
/// `--benchmark`, `--seed`, `--arch`, `--out`, `--artifacts`,
/// `--no-cache`, `--threads` and the `--profile*` flags, then the
/// bench's own flags ([`SessionConfig::match_flag`]), then `extra` (flags
/// that only the binary acts on). `--threads` takes effect as it is
/// parsed; the artifact store is resolved last. `Ok(None)` means
/// `--help` was given.
///
/// # Errors
///
/// Returns a user-facing message naming the offending flag.
pub fn parse_session<C: SessionConfig>(
    argv: Vec<String>,
    mut config: C,
    mut extra: impl FnMut(&str, &mut Args) -> Option<Result<(), String>>,
) -> Result<Option<SessionArgs<C>>, String> {
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
                .or_else(|| extra(other, &mut args))
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

/// Writes `lines` to `path`, one per line.
///
/// # Errors
///
/// Returns a user-facing message naming the file.
pub fn write_lines(path: &str, lines: &[String]) -> Result<(), String> {
    std::fs::write(path, lines.join("\n") + "\n").map_err(|e| format!("cannot write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultsConfig;
    use crate::qdp::QdpConfig;
    use crate::serve::ServeBenchConfig;

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
        assert_eq!(require_nonzero(3, "--train"), Ok(3));
        assert_eq!(
            require_nonzero(0, "--train"),
            Err("--train must be at least 1".to_string())
        );
    }

    /// Parses `items` (plus `--no-cache`, so the store never depends on
    /// the environment) onto `config`.
    fn parse<C: SessionConfig>(items: &[&str], config: C) -> Result<C, String> {
        let argv = args(items).chain(["--no-cache".to_string()]).collect();
        parse_session(argv, config, |_, _| None).map(|parsed| parsed.expect("no --help").config)
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
        // Flags after --quick apply on top of it.
        let after = parse(
            &["--quick", "--seed", "5", "--arch", "deepcaps"],
            QdpConfig::smoke(),
        );
        assert_eq!(after.unwrap().spec, expect);
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
            &["--requests", "9", "--step6", "--quick"],
            ServeBenchConfig::smoke(),
        );
        let reset = reset.unwrap();
        assert_eq!(reset.requests, ServeBenchConfig::quick().requests);
        assert!(!reset.step6);
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
        let missing = parse_session(args(&["--seed"]).collect(), QdpConfig::smoke(), |_, _| None);
        assert_eq!(missing.unwrap_err(), "--seed requires a value");
        assert!(err(&["--seed", "x"]).starts_with("--seed:"));
        assert_eq!(err(&["--bogus"]), "unknown flag '--bogus'");
        // A bench's own flag is unknown to the others.
        assert!(parse(&["--fail-soft"], QdpConfig::smoke()).is_err());
    }

    #[test]
    fn help_stops_parsing_and_extra_flags_reach_the_binary() {
        let help = parse_session(
            args(&["--help", "--bogus"]).collect(),
            QdpConfig::smoke(),
            |_, _| None,
        );
        assert!(help.unwrap().is_none());
        let mut stable = None;
        let parsed = parse_session(
            args(&[
                "--stable-out",
                "s.json",
                "--out",
                "o.json",
                "--profile",
                "p.json",
            ])
            .collect(),
            ServeBenchConfig::smoke(),
            |flag, args| {
                (flag == "--stable-out").then(|| next_value(args, flag).map(|v| stable = Some(v)))
            },
        )
        .unwrap()
        .unwrap();
        assert_eq!(stable.as_deref(), Some("s.json"));
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
}
