//! `detlint.toml` — a hand-rolled parser for the tiny TOML subset the
//! linter's configuration needs: `[section]` headers, `key = "string"`,
//! `key = true|false`, and `key = ["a", "b"]` arrays, with `#` comments.
//! No dependency on a real TOML crate keeps the tool pure-std.

use std::collections::BTreeMap;

/// Scoping configuration for the rule set. Paths are workspace-relative
/// prefixes; crate lists name workspace crates.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes excluded from the walk entirely (build output, the
    /// linter's own seeded-violation fixtures).
    pub exclude: Vec<String>,
    /// Crates whose stats-and-replay paths must not iterate hash containers
    /// (DET01).
    pub det01_crates: Vec<String>,
    /// Hot crates where `f64` accumulation needs an exactness justification
    /// (DET02).
    pub det02_crates: Vec<String>,
    /// Path prefixes of the SWAR/broadcast modules under SWAR01.
    pub swar01_paths: Vec<String>,
    /// Crates exempt from PANIC01 (none today; the knob exists so a future
    /// vendored crate can opt out without weakening the rule elsewhere).
    pub panic01_exclude_crates: Vec<String>,
    /// Crates the semantic layer (symbol table + call graph) skips entirely:
    /// the offline compat shims (whose internals are not this workspace's
    /// contract surface) and the linter itself.
    pub sema_exclude_crates: Vec<String>,
    /// Type names whose mention marks a fn as a merge/stats/report *sink*
    /// for DET03 taint tracking.
    pub det03_sink_types: Vec<String>,
    /// Fn names that are DET03 sinks regardless of the types they mention
    /// (the golden-report writers).
    pub det03_sink_fns: Vec<String>,
    /// Crates under LOCK01 lock-order analysis.
    pub lock01_crates: Vec<String>,
    /// Crates under PANIC02 supervised-panic-reachability analysis.
    pub panic02_crates: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            exclude: vec!["target".into(), "crates/detlint/fixtures".into()],
            det01_crates: Vec::new(),
            det02_crates: Vec::new(),
            swar01_paths: Vec::new(),
            panic01_exclude_crates: Vec::new(),
            sema_exclude_crates: vec![
                "rand".into(),
                "serde".into(),
                "proptest".into(),
                "detlint".into(),
            ],
            det03_sink_types: vec![
                "MemoryStats".into(),
                "PipelineStats".into(),
                "TimingStats".into(),
                "FaultLog".into(),
                "ServiceReport".into(),
            ],
            det03_sink_fns: vec![
                "reproduce".into(),
                "reproduce_with_engine".into(),
                "reproduce_configured".into(),
                "reproduce_all".into(),
            ],
            lock01_crates: Vec::new(),
            panic02_crates: Vec::new(),
        }
    }
}

impl Config {
    /// Parse the `detlint.toml` text. Unknown sections/keys are ignored so
    /// the config can grow without breaking older binaries.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut tables: BTreeMap<String, BTreeMap<String, Vec<String>>> = BTreeMap::new();
        let mut section = String::new();
        // Multi-line arrays: accumulate physical lines until the brackets
        // balance, then parse the joined logical line.
        let mut pending = String::new();
        let mut pending_line = 0usize;
        for (lineno, raw) in text.lines().enumerate() {
            let stripped = strip_comment(raw).trim().to_string();
            if !pending.is_empty() {
                pending.push(' ');
                pending.push_str(&stripped);
                if !array_closed(&pending) {
                    continue;
                }
            } else {
                if stripped.is_empty() {
                    continue;
                }
                pending = stripped;
                pending_line = lineno;
                if !array_closed(&pending) {
                    continue;
                }
            }
            let line_owned = std::mem::take(&mut pending);
            let line = line_owned.as_str();
            let lineno = pending_line;
            if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(format!("line {}: malformed section header", lineno + 1));
                };
                section = name.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected `key = value`", lineno + 1));
            };
            let values =
                parse_value(value.trim()).map_err(|e| format!("line {}: {}", lineno + 1, e))?;
            tables
                .entry(section.clone())
                .or_default()
                .insert(key.trim().to_string(), values);
        }

        let get = |section: &str, key: &str| -> Option<Vec<String>> {
            tables.get(section).and_then(|t| t.get(key)).cloned()
        };
        if let Some(v) = get("paths", "exclude") {
            cfg.exclude = v;
        }
        if let Some(v) = get("det01", "crates") {
            cfg.det01_crates = v;
        }
        if let Some(v) = get("det02", "crates") {
            cfg.det02_crates = v;
        }
        if let Some(v) = get("swar01", "paths") {
            cfg.swar01_paths = v;
        }
        if let Some(v) = get("panic01", "exclude_crates") {
            cfg.panic01_exclude_crates = v;
        }
        if let Some(v) = get("sema", "exclude_crates") {
            cfg.sema_exclude_crates = v;
        }
        if let Some(v) = get("det03", "sink_types") {
            cfg.det03_sink_types = v;
        }
        if let Some(v) = get("det03", "sink_fns") {
            cfg.det03_sink_fns = v;
        }
        if let Some(v) = get("lock01", "crates") {
            cfg.lock01_crates = v;
        }
        if let Some(v) = get("panic02", "crates") {
            cfg.panic02_crates = v;
        }
        Ok(cfg)
    }
}

/// Are all `[`…`]` brackets (outside quoted strings) balanced on this
/// logical line?
fn array_closed(line: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in line.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth <= 0
}

/// Strip a `#` comment, but not a `#` inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse `"s"`, `true`/`false`, or `["a", "b"]` into a list of strings
/// (scalars become one-element lists; booleans become `"true"`/`"false"`).
fn parse_value(v: &str) -> Result<Vec<String>, String> {
    if let Some(body) = v.strip_prefix('[') {
        let Some(body) = body.strip_suffix(']') else {
            return Err("unterminated array".into());
        };
        let mut out = Vec::new();
        for item in split_array_items(body) {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            out.push(parse_scalar(item)?);
        }
        return Ok(out);
    }
    Ok(vec![parse_scalar(v)?])
}

/// Split array items on commas outside quotes.
fn split_array_items(body: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in body.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                items.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    items.push(&body[start..]);
    items
}

fn parse_scalar(v: &str) -> Result<String, String> {
    if v == "true" || v == "false" {
        return Ok(v.to_string());
    }
    if let Some(body) = v.strip_prefix('"') {
        if let Some(body) = body.strip_suffix('"') {
            return Ok(body.to_string());
        }
        return Err("unterminated string".into());
    }
    Err(format!("unsupported value `{v}` (string/bool/array only)"))
}
