//! A minimal, deterministic JSON value model for the offline workspace.
//!
//! The real `serde`/`serde_json` stack is unavailable offline, but the
//! service frontend, the load generator and the benchmark snapshots all
//! need one shared, machine-readable stats schema. This module provides
//! the small subset they use: a [`Value`] tree, a renderer whose output is
//! a deterministic function of the tree (object keys keep insertion order
//! — no hash-order leaks), and a strict parser sufficient to round-trip
//! everything the renderer emits.
//!
//! Numbers are kept in two lanes so statistics survive a round trip
//! bit-exactly:
//!
//! * [`Value::UInt`] holds `u64` counters verbatim (no `f64` detour, so
//!   counters above 2^53 do not lose precision), and
//! * [`Value::Num`] holds `f64` quantities rendered with Rust's
//!   shortest-round-trip formatting (`{:?}`), which parses back to the
//!   identical bit pattern for every finite value.

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (no `.`, `e` or sign).
    UInt(u64),
    /// Any other finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Keys keep insertion order, so rendering is deterministic
    /// and never depends on a hash function.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    pub fn object() -> Value {
        Value::Obj(Vec::new())
    }

    /// Appends a key/value pair to an object (panics on non-objects —
    /// builder misuse is a programming error, not input).
    #[must_use]
    pub fn with(mut self, key: &str, value: Value) -> Value {
        match &mut self {
            Value::Obj(pairs) => pairs.push((key.to_string(), value)),
            // Deliberate panic: builder misuse (calling .with on a
            // non-object) is a caller bug; failing loudly beats silently
            // dropping fields.
            _ => panic!("Value::with called on a non-object"),
        }
        self
    }

    /// Looks a key up in an object (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` counter, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen; counters above 2^53 refuse
    /// rather than round).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            Value::UInt(n) if *n <= (1u64 << 53) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Renders the value as indented multi-line JSON (two-space indents),
    /// the style `reproduce loadgen --json` prints.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_pretty_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => out.push_str(&n.to_string()),
            Value::Num(x) => render_f64(*x, out),
            Value::Str(s) => render_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    fn render_pretty_into(&self, out: &mut String, depth: usize) {
        match self {
            Value::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.render_pretty_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Value::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    render_str(k, out);
                    out.push_str(": ");
                    v.render_pretty_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.render_into(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        // `{:?}` is Rust's shortest representation that round-trips the
        // exact bit pattern; force a `.0` so the parser keeps it in the
        // float lane.
        let s = format!("{x:?}");
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no NaN/Inf; null is the conventional fallback.
        out.push_str("null");
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The integer field types of a [`counters!`](crate::counters) struct,
/// rendered in the [`Value::UInt`] lane. `f64` is left out on purpose, so
/// the integer merge kinds reject it: a float field names its merge fn in
/// its own crate, where detlint's DET02 sees the `+=` and asks for its
/// exactness argument.
pub trait Count {
    /// The counter in the integer lane.
    fn to_json(self) -> Value;
}

impl Count for u64 {
    fn to_json(self) -> Value {
        Value::UInt(self)
    }
}

impl Count for usize {
    fn to_json(self) -> Value {
        Value::UInt(self as u64)
    }
}

/// Declares a mergeable counter struct once — doc comments, derives, pub
/// fields — and generates its `Default`, its field-wise `merge` and its
/// `to_json` (one key per field, in declaration order). Each field names
/// its merge kind after a `=>`:
///
/// * `sum` / `saturating` — plain or saturating sum of a [`Count`] field,
///   integer lane;
/// * `nested` — the field type's own `merge` and `to_json`;
/// * `float(f)` — an `f64` merged as `field = f(field, other)`, float lane.
///
/// Every kind must merge associatively and commutatively with `default()`
/// as the identity, so shard totals fold to a sequential accumulator's.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                $field_vis:vis $field:ident : $ty:ty => $kind:ident $(($merge:path))?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Default)]
        $vis struct $name {
            $($(#[$field_meta])* $field_vis $field: $ty,)*
        }

        impl $name {
            /// Merges `other` into `self` field by field: associative and
            /// commutative with `default()` as the identity.
            pub fn merge(&mut self, other: &$name) {
                $($crate::counters!(@merge $kind $(($merge))?, self.$field, other.$field);)*
            }

            /// The counters as a JSON object, one key per field in
            /// declaration order (integer counters exact past 2^53).
            pub fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::object()
                    $(.with(stringify!($field), $crate::counters!(@json $kind, self.$field)))*
            }
        }
    };
    (@merge sum, $a:expr, $b:expr) => { $a += $b };
    (@merge saturating, $a:expr, $b:expr) => { $a = $a.saturating_add($b) };
    (@merge nested, $a:expr, $b:expr) => { $a.merge(&$b) };
    (@merge float($merge:path), $a:expr, $b:expr) => { $a = $merge($a, $b) };
    (@json nested, $a:expr) => { $a.to_json() };
    (@json float, $a:expr) => { $crate::json::Value::Num($a) };
    (@json $kind:ident, $a:expr) => { $crate::json::Count::to_json($a) };
}

/// Why a parse failed (byte offset + message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What the parser expected.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON document (the subset [`Value::render`] and
/// [`Value::render_pretty`] emit, which is a superset of what the
/// workspace stores). Trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("end of input"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, expected: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: format!("expected {expected}"),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn require(&mut self, b: u8) -> Result<(), ParseError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("'{}'", b as char)))
        }
    }

    fn literal(&mut self, text: &str) -> bool {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.literal("null") => Ok(Value::Null),
            Some(b't') if self.literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.require(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Arr(items));
            }
            self.require(b',')?;
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.require(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.require(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Obj(pairs));
            }
            self.require(b',')?;
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.require(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("a closing '\"'")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("a \\uXXXX escape"))?;
                            out.push(hex);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("a valid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one whole UTF-8 scalar (input is a &str, so
                    // slicing at char boundaries is safe via chars()).
                    let rest = &self.bytes[self.pos..];
                    let c = std::str::from_utf8(rest)
                        .ok()
                        .and_then(|s| s.chars().next())
                        // PANIC-OK: `bytes` came from a &str and `pos` only
                        // advances past complete scalars: valid UTF-8.
                        .expect("parser input is valid UTF-8");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.eat(b'.') {
            is_float = true;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if !self.eat(b'+') {
                let _ = self.eat(b'-');
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            // PANIC-OK: the scanned range is ASCII digits/sign/dot by
            // construction, always valid UTF-8.
            .expect("number literals are ASCII");
        if !is_float && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("a number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let doc = Value::object()
            .with("name", Value::Str("tenant \"0\" \n".into()))
            .with("lines", Value::UInt(u64::MAX))
            .with("energy_pj", Value::Num(12_345.062_5))
            .with("shortest", Value::Num(0.1))
            .with("whole", Value::Num(3.0))
            .with("ok", Value::Bool(true))
            .with("missing", Value::Null)
            .with(
                "arr",
                Value::Arr(vec![
                    Value::UInt(1),
                    Value::Num(-2.5),
                    Value::Str("x".into()),
                ]),
            );
        for text in [doc.render(), doc.render_pretty()] {
            assert_eq!(parse(&text).unwrap(), doc, "round-trip failed for {text}");
        }
    }

    #[test]
    fn u64_counters_survive_without_f64_rounding() {
        // 2^53 + 1 is not representable in f64; the UInt lane must keep it.
        let n = (1u64 << 53) + 1;
        let v = parse(&Value::UInt(n).render()).unwrap();
        assert_eq!(v.as_u64(), Some(n));
        assert_eq!(v.as_f64(), None, "must refuse to round, not approximate");
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for x in [0.1, 1.0 / 3.0, 6.25e-7, 1e300, -0.0, 271828.182_845] {
            let text = Value::Num(x).render();
            let back = parse(&text).unwrap();
            assert_eq!(
                back.as_f64().unwrap().to_bits(),
                x.to_bits(),
                "{x} did not round-trip through {text}"
            );
        }
    }

    #[test]
    fn object_key_order_is_insertion_order() {
        let v = Value::object()
            .with("z", Value::UInt(1))
            .with("a", Value::UInt(2));
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn get_and_accessors() {
        let v = parse(r#"{"a": [1, 2.5], "s": "hi"}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(Value::as_arr).map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(v.get("s").and_then(Value::as_str), Some("hi"));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("nope"), None);
        assert_eq!(Value::Null.get("a"), None);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Round-trips one finite f64 through the Num lane and asserts the
        /// exact bit pattern survives.
        fn assert_num_round_trips(x: f64) {
            let text = Value::Num(x).render();
            let back = parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(
                back.as_f64().map(f64::to_bits),
                Some(x.to_bits()),
                "{x:e} did not round-trip through {text}"
            );
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// `parse(render(x))` is bit-exact for every finite f64,
            /// sampled across the full bit-pattern space (subnormals,
            /// negative zero and extreme exponents included).
            #[test]
            fn num_round_trip_is_bit_exact_over_bit_patterns(bits in 0u64..=u64::MAX) {
                let x = f64::from_bits(bits);
                prop_assume!(x.is_finite());
                assert_num_round_trips(x);
            }

            /// The report shapes that bit the fairness fix: very small
            /// `wall_secs` values (sub-nanosecond scenario durations).
            #[test]
            fn tiny_wall_secs_round_trip(frac in 1u64..1_000_000, exp in 0u32..15) {
                assert_num_round_trips(frac as f64 / 10f64.powi(exp as i32));
            }

            /// Large cycle counts carried in the Num lane (latency sums can
            /// exceed 2^53, where f64 goes whole-number-sparse).
            #[test]
            fn large_cycle_counts_round_trip(cycles in 0u64..=u64::MAX) {
                assert_num_round_trips(cycles as f64);
            }

            /// A report-shaped document — tiny float, huge float, exact u64
            /// counter — survives both renderers structurally intact.
            #[test]
            fn report_shaped_documents_round_trip(
                bits in 0u64..=u64::MAX,
                count in 0u64..=u64::MAX,
            ) {
                let x = f64::from_bits(bits);
                prop_assume!(x.is_finite());
                let doc = Value::object()
                    .with("wall_secs", Value::Num(x))
                    .with("total_cycles", Value::UInt(count))
                    .with("mean_cycles", Value::Num(count as f64));
                for text in [doc.render(), doc.render_pretty()] {
                    prop_assert_eq!(&parse(&text).unwrap(), &doc);
                }
            }
        }
    }
}
