//! `lint-allow.toml` — the checked-in rule configuration.
//!
//! Parsed by hand (the workspace builds offline; no toml crate). The
//! accepted subset is exactly what the file uses: `[section]` headers
//! and `key = [ "…", "…" ]` string arrays, which may span lines.

/// One `[traced]` rule: functions in `module` matching any pattern in
/// `functions` (`*`, `prefix*`, or an exact name) must carry a hook.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedRule {
    /// Exact module path (`tensor::ops::gemm`).
    pub module: String,
    /// Name patterns; `*` matches everything, `qgemm*` a prefix.
    pub functions: Vec<String>,
}

/// Parsed lint configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    /// R1: modules whose map iteration feeds stable output.
    pub stable_modules: Vec<String>,
    /// R2: modules allowed to read wall clocks.
    pub clock_modules: Vec<String>,
    /// R3: crates exempt from the panic rule (bench binaries).
    pub panic_exempt_crates: Vec<String>,
    /// R4: entry points that must carry trace hooks.
    pub traced: Vec<TracedRule>,
    /// R4: fully-qualified functions exempted from tracing.
    pub trace_exempt: Vec<String>,
    /// R4: callee names that count as hooks (traced executors).
    pub trace_delegates: Vec<String>,
    /// R5: files registered as allowed to contain `unsafe`.
    pub unsafe_files: Vec<String>,
}

/// A malformed `lint-allow.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line of the problem.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint-allow.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Parses the TOML subset described in the module docs.
    pub fn parse(src: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut lines = src.lines().enumerate();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("expected `[section]` or `key = [...]`, got `{line}`"),
                });
            };
            let key = key.trim().to_string();
            let mut value = value.trim().to_string();
            // Arrays may span lines: keep consuming until `]` closes.
            while !value.contains(']') {
                match lines.next() {
                    Some((_, next)) => {
                        value.push(' ');
                        value.push_str(strip_comment(next).trim());
                    }
                    None => {
                        return Err(ConfigError {
                            line: lineno,
                            message: format!("unterminated array for key `{key}`"),
                        });
                    }
                }
            }
            let items = parse_array(&value, lineno)?;
            apply(&mut cfg, &section, &key, items, lineno)?;
        }
        Ok(cfg)
    }
}

/// Strips a trailing `# comment` (the file has no `#` inside strings).
fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(at) => &line[..at],
        None => line,
    }
}

/// Parses `[ "a", "b" ]` into its string items.
fn parse_array(value: &str, lineno: usize) -> Result<Vec<String>, ConfigError> {
    let inner = value
        .trim()
        .strip_prefix('[')
        .and_then(|s| s.trim_end().strip_suffix(']'))
        .ok_or_else(|| ConfigError {
            line: lineno,
            message: format!("expected a `[...]` array, got `{value}`"),
        })?;
    let mut items = Vec::new();
    for piece in inner.split(',') {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        let unquoted = piece
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| ConfigError {
                line: lineno,
                message: format!("array items must be double-quoted strings, got `{piece}`"),
            })?;
        items.push(unquoted.to_string());
    }
    Ok(items)
}

/// Routes one parsed `key = [...]` into the config.
fn apply(
    cfg: &mut Config,
    section: &str,
    key: &str,
    items: Vec<String>,
    lineno: usize,
) -> Result<(), ConfigError> {
    match (section, key) {
        ("determinism", "modules") => cfg.stable_modules = items,
        ("clocks", "modules") => cfg.clock_modules = items,
        ("panics", "exempt_crates") => cfg.panic_exempt_crates = items,
        ("traced", "rules") => {
            for item in items {
                let Some((module, pats)) = item.split_once('=') else {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("traced rule must be `module = patterns`, got `{item}`"),
                    });
                };
                cfg.traced.push(TracedRule {
                    module: module.trim().to_string(),
                    functions: pats.split_whitespace().map(str::to_string).collect(),
                });
            }
        }
        ("traced", "exempt") => cfg.trace_exempt = items,
        ("traced", "delegates") => cfg.trace_delegates = items,
        ("unsafe", "files") => cfg.unsafe_files = items,
        _ => {
            return Err(ConfigError {
                line: lineno,
                message: format!("unknown key `{key}` in section `[{section}]`"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let src = r#"
# comment
[determinism]
modules = ["qdp::calib", "core::report"]

[traced]
rules = [
    "tensor::ops::gemm = *",
    "qdp::kernels = qgemm*",
]
delegates = ["forward_batch_resolved"]

[unsafe]
files = ["crates/core/src/report/json.rs"]
"#;
        let cfg = match Config::parse(src) {
            Ok(c) => c,
            Err(e) => unreachable!("parse failed: {e}"),
        };
        assert_eq!(cfg.stable_modules, vec!["qdp::calib", "core::report"]);
        assert_eq!(cfg.traced.len(), 2);
        assert_eq!(cfg.traced[0].module, "tensor::ops::gemm");
        assert_eq!(cfg.traced[0].functions, vec!["*"]);
        assert_eq!(cfg.traced[1].functions, vec!["qgemm*"]);
        assert_eq!(cfg.unsafe_files.len(), 1);
    }

    #[test]
    fn parses_an_empty_unsafe_budget() {
        let cfg = match Config::parse("[unsafe]\nfiles = []\n") {
            Ok(c) => c,
            Err(e) => unreachable!("parse failed: {e}"),
        };
        assert!(cfg.unsafe_files.is_empty());
    }

    #[test]
    fn rejects_unknown_keys_and_bad_arrays() {
        assert!(Config::parse("[determinism]\nbogus = []").is_err());
        assert!(Config::parse("[determinism]\nmodules = [unquoted]").is_err());
        assert!(Config::parse("[determinism]\nmodules = [\"a\"").is_err());
    }
}
