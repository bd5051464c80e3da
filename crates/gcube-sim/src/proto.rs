//! Wire protocol for routing-as-a-service: newline-delimited JSON.
//!
//! The daemon ([`crate::server`]) speaks one JSON object per line, both
//! directions. This module owns everything about that surface that is
//! *not* connection handling: a small recursive-descent JSON reader
//! ([`JsonValue`] — the workspace vendors no JSON library, and the flat
//! field-splitting parser used for artifact headers cannot read nested
//! objects), the [`SimConfig`] codec, the stable spellings for fault
//! kinds and targets (shared with the CLI and the checkpoint codec), and
//! the typed [`Request`] grammar.
//!
//! Numbers ride as raw text ([`JsonValue::Num`]) until a caller asks for
//! a concrete type: `u64` seeds round-trip exactly instead of detouring
//! through `f64` and losing the top bits.

use crate::config::{CollectiveOp, KnowledgeModel, SimConfig};
use crate::injection::{CategoryMix, FaultKind, FaultSchedule, FaultTarget, TimedFault};
use crate::traffic::TrafficPattern;
use gcube_topology::{LinkId, NodeId};

// --- JSON value ---------------------------------------------------------

/// A parsed JSON value. Object fields keep their wire order (a `Vec`, not
/// a map): requests are small, and order-preservation makes round-trip
/// tests exact.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw wire text (see module docs).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in wire order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Field lookup on an object (`None` on non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, for [`JsonValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, for [`JsonValue::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `u64` (exact; rejects floats and negatives).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The elements, for [`JsonValue::Arr`].
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is JSON `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

/// How deeply arrays and objects may nest. Requests and checkpoint
/// sections use a handful of levels; the cap keeps a hostile line of
/// brackets from overflowing the parser's stack.
pub const MAX_DEPTH: usize = 32;

/// Parse one JSON document (object, array, or scalar). Trailing
/// non-whitespace is an error — a line holds exactly one value.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.keyword("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn keyword(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad keyword at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|c| {
            c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-'
        }) {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if raw.is_empty() || raw == "-" {
            return Err(format!("malformed number at byte {start}"));
        }
        // Validate eagerly so junk fails at parse time, not at access time.
        raw.parse::<f64>()
            .map_err(|_| format!("malformed number {raw:?} at byte {start}"))?;
        Ok(JsonValue::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by any writer
                            // in this workspace; map them to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape whole:
                    // both stops are ASCII, so the run is valid UTF-8.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' in object, found {:?}",
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' in array, found {:?}",
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }
}

/// Render `s` as a quoted JSON string (escaping `"`, `\`, and control
/// characters).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

// --- stable spellings ---------------------------------------------------

/// `"node:V"` / `"link:LO:DIM"` — the wire and checkpoint spelling of a
/// fault target.
pub fn target_to_str(t: FaultTarget) -> String {
    match t {
        FaultTarget::Node(v) => format!("node:{}", v.0),
        FaultTarget::Link(l) => format!("link:{}:{}", l.lo.0, l.dim),
    }
}

/// Inverse of [`target_to_str`].
pub fn target_from_str(s: &str) -> Result<FaultTarget, String> {
    let mut it = s.split(':');
    let bad = || format!("bad fault target {s:?} (expected node:V or link:LO:DIM)");
    match it.next() {
        Some("node") => {
            let v: u64 = it.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
            if it.next().is_some() {
                return Err(bad());
            }
            Ok(FaultTarget::Node(NodeId(v)))
        }
        Some("link") => {
            let lo: u64 = it.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
            let dim: u32 = it.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
            if it.next().is_some() {
                return Err(bad());
            }
            Ok(FaultTarget::Link(LinkId::new(NodeId(lo), dim)))
        }
        _ => Err(bad()),
    }
}

/// `"permanent"` / `"transient:R"` / `"intermittent:D:P"` — the CLI's
/// `--fault-kind` spelling, reused on the wire and in checkpoints.
pub fn kind_to_str(k: FaultKind) -> String {
    match k {
        FaultKind::Permanent => "permanent".to_string(),
        FaultKind::Transient { repair_after } => format!("transient:{repair_after}"),
        FaultKind::Intermittent { down_for, period } => {
            format!("intermittent:{down_for}:{period}")
        }
    }
}

/// Inverse of [`kind_to_str`].
pub fn kind_from_str(s: &str) -> Result<FaultKind, String> {
    let bad =
        || format!("bad fault kind {s:?} (expected permanent, transient:R, or intermittent:D:P)");
    let mut it = s.split(':');
    match it.next() {
        Some("permanent") if it.next().is_none() => Ok(FaultKind::Permanent),
        Some("transient") => {
            let repair_after = it.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
            if it.next().is_some() {
                return Err(bad());
            }
            Ok(FaultKind::Transient { repair_after })
        }
        Some("intermittent") => {
            let down_for: u64 = it.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
            let period: u64 = it.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
            if it.next().is_some() || period <= down_for {
                return Err(bad());
            }
            Ok(FaultKind::Intermittent { down_for, period })
        }
        _ => Err(bad()),
    }
}

/// Stable lower-snake name of a traffic pattern.
pub fn pattern_to_str(p: TrafficPattern) -> &'static str {
    match p {
        TrafficPattern::Uniform => "uniform",
        TrafficPattern::BitComplement => "bit_complement",
        TrafficPattern::BitReversal => "bit_reversal",
        TrafficPattern::Transpose => "transpose",
    }
}

/// Inverse of [`pattern_to_str`].
pub fn pattern_from_str(s: &str) -> Result<TrafficPattern, String> {
    match s {
        "uniform" => Ok(TrafficPattern::Uniform),
        "bit_complement" => Ok(TrafficPattern::BitComplement),
        "bit_reversal" => Ok(TrafficPattern::BitReversal),
        "transpose" => Ok(TrafficPattern::Transpose),
        other => Err(format!("unknown traffic pattern {other:?}")),
    }
}

/// Stable lower-snake name of a knowledge model.
pub fn knowledge_to_str(k: KnowledgeModel) -> &'static str {
    match k {
        KnowledgeModel::Oracle => "oracle",
        KnowledgeModel::PaperDelay => "paper_delay",
        KnowledgeModel::Measured => "measured",
    }
}

/// Inverse of [`knowledge_to_str`].
pub fn knowledge_from_str(s: &str) -> Result<KnowledgeModel, String> {
    match s {
        "oracle" => Ok(KnowledgeModel::Oracle),
        "paper_delay" => Ok(KnowledgeModel::PaperDelay),
        "measured" => Ok(KnowledgeModel::Measured),
        other => Err(format!("unknown knowledge model {other:?}")),
    }
}

// --- SimConfig codec ----------------------------------------------------

fn schedule_to_json(s: &FaultSchedule) -> String {
    match s {
        FaultSchedule::None => "{\"type\":\"none\"}".to_string(),
        FaultSchedule::Bernoulli {
            rate,
            kind,
            mix,
            node_fraction,
        } => format!(
            "{{\"type\":\"bernoulli\",\"rate\":{rate},\"kind\":{},\
             \"mix\":[{},{},{}],\"node_fraction\":{node_fraction}}}",
            quote(&kind_to_str(*kind)),
            mix.a,
            mix.b,
            mix.c,
        ),
        FaultSchedule::Scripted(events) => {
            let items: Vec<String> = events
                .iter()
                .map(|e| {
                    format!(
                        "{{\"cycle\":{},\"target\":{},\"kind\":{}}}",
                        e.cycle,
                        quote(&target_to_str(e.target)),
                        quote(&kind_to_str(e.kind)),
                    )
                })
                .collect();
            format!("{{\"type\":\"scripted\",\"events\":[{}]}}", items.join(","))
        }
    }
}

fn schedule_from_json(v: &JsonValue) -> Result<FaultSchedule, String> {
    let ty = v
        .get("type")
        .and_then(JsonValue::as_str)
        .ok_or("schedule needs a \"type\"")?;
    match ty {
        "none" => Ok(FaultSchedule::None),
        "bernoulli" => {
            let rate = v
                .get("rate")
                .and_then(JsonValue::as_f64)
                .ok_or("bernoulli schedule needs a numeric \"rate\"")?;
            let kind = match v.get("kind").and_then(JsonValue::as_str) {
                Some(s) => kind_from_str(s)?,
                None => FaultKind::Permanent,
            };
            let mix = match v.get("mix").and_then(JsonValue::as_arr) {
                Some([a, b, c]) => CategoryMix {
                    a: a.as_f64().ok_or("mix entries must be numbers")?,
                    b: b.as_f64().ok_or("mix entries must be numbers")?,
                    c: c.as_f64().ok_or("mix entries must be numbers")?,
                },
                Some(_) => return Err("mix must have exactly three weights".into()),
                None => CategoryMix::default(),
            };
            let node_fraction = match v.get("node_fraction") {
                Some(f) => f.as_f64().ok_or("node_fraction must be a number")?,
                None => 0.5,
            };
            Ok(FaultSchedule::Bernoulli {
                rate,
                kind,
                mix,
                node_fraction,
            })
        }
        "scripted" => {
            let events = v
                .get("events")
                .and_then(JsonValue::as_arr)
                .ok_or("scripted schedule needs an \"events\" array")?;
            let mut out = Vec::with_capacity(events.len());
            for e in events {
                out.push(TimedFault {
                    cycle: e
                        .get("cycle")
                        .and_then(JsonValue::as_u64)
                        .ok_or("scripted event needs a \"cycle\"")?,
                    target: target_from_str(
                        e.get("target")
                            .and_then(JsonValue::as_str)
                            .ok_or("scripted event needs a \"target\"")?,
                    )?,
                    kind: match e.get("kind").and_then(JsonValue::as_str) {
                        Some(s) => kind_from_str(s)?,
                        None => FaultKind::Permanent,
                    },
                });
            }
            Ok(FaultSchedule::Scripted(out))
        }
        other => Err(format!("unknown schedule type {other:?}")),
    }
}

/// Render a full [`SimConfig`] as one JSON object (every field explicit,
/// so a config round-trips bit-exactly — `f64` fields use Rust's
/// shortest-round-trip formatting).
pub fn config_to_json(cfg: &SimConfig) -> String {
    let opt_u64 = |o: Option<u64>| o.map_or("null".to_string(), |v| v.to_string());
    format!(
        "{{\"n\":{},\"modulus\":{},\"inject_cycles\":{},\"drain_cycles\":{},\
         \"warmup_cycles\":{},\"rate\":{},\"seed\":{},\"faults\":{},\
         \"pattern\":{},\"buffer_capacity\":{},\"schedule\":{},\
         \"knowledge\":{},\"reroute_budget\":{},\"ttl\":{},\"window\":{},\
         \"telemetry_interval\":{},\"collective\":{},\"collective_interval\":{}}}",
        cfg.n,
        cfg.modulus,
        cfg.inject_cycles,
        cfg.drain_cycles,
        cfg.warmup_cycles,
        cfg.injection_rate,
        cfg.seed,
        cfg.faulty_nodes,
        quote(pattern_to_str(cfg.pattern)),
        opt_u64(cfg.buffer_capacity.map(|c| c as u64)),
        schedule_to_json(&cfg.schedule),
        quote(knowledge_to_str(cfg.knowledge)),
        cfg.reroute_budget,
        opt_u64(cfg.ttl),
        cfg.window,
        cfg.telemetry_interval,
        cfg.collective
            .map_or("null".to_string(), |op| quote(op.as_str())),
        cfg.collective_interval,
    )
}

/// Parse a [`SimConfig`] from a JSON object. `n` and `modulus` are
/// required; every other field defaults as [`SimConfig::new`] does, so a
/// client only sends what it overrides.
pub fn config_from_json(v: &JsonValue) -> Result<SimConfig, String> {
    let req_u64 = |key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("config needs an integer {key:?}"))
    };
    let n = req_u64("n")?;
    if n > u64::from(u32::MAX) {
        return Err("config field \"n\" out of range".into());
    }
    let mut cfg = SimConfig::new(n as u32, req_u64("modulus")?);
    let opt_u64 = |key: &str| -> Result<Option<u64>, String> {
        match v.get(key) {
            None => Ok(None),
            Some(JsonValue::Null) => Ok(None),
            Some(f) => f
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("config field {key:?} must be an integer")),
        }
    };
    if let Some(x) = opt_u64("inject_cycles")? {
        cfg.inject_cycles = x;
    }
    if let Some(x) = opt_u64("drain_cycles")? {
        cfg.drain_cycles = x;
    }
    if let Some(x) = opt_u64("warmup_cycles")? {
        cfg.warmup_cycles = x;
    }
    if let Some(f) = v.get("rate") {
        cfg.injection_rate = f.as_f64().ok_or("config field \"rate\" must be a number")?;
    }
    if let Some(x) = opt_u64("seed")? {
        cfg.seed = x;
    }
    if let Some(x) = opt_u64("faults")? {
        cfg.faulty_nodes = x as usize;
    }
    if let Some(p) = v.get("pattern") {
        cfg.pattern = pattern_from_str(
            p.as_str()
                .ok_or("config field \"pattern\" must be a string")?,
        )?;
    }
    cfg.buffer_capacity = opt_u64("buffer_capacity")?.map(|c| c as usize);
    if let Some(s) = v.get("schedule") {
        if !s.is_null() {
            cfg.schedule = schedule_from_json(s)?;
        }
    }
    if let Some(k) = v.get("knowledge") {
        cfg.knowledge = knowledge_from_str(
            k.as_str()
                .ok_or("config field \"knowledge\" must be a string")?,
        )?;
    }
    if let Some(x) = opt_u64("reroute_budget")? {
        if x > u64::from(u32::MAX) {
            return Err("config field \"reroute_budget\" out of range".into());
        }
        cfg.reroute_budget = x as u32;
    }
    cfg.ttl = opt_u64("ttl")?;
    if let Some(x) = opt_u64("window")? {
        cfg.window = x.max(1);
    }
    if let Some(x) = opt_u64("telemetry_interval")? {
        cfg.telemetry_interval = x.max(1);
    }
    if let Some(c) = v.get("collective") {
        cfg.collective = match c {
            JsonValue::Null => None,
            JsonValue::Str(s) => Some(
                CollectiveOp::from_str(s).ok_or_else(|| format!("unknown collective op {s:?}"))?,
            ),
            _ => return Err("config field \"collective\" must be a string or null".into()),
        };
    }
    if let Some(x) = opt_u64("collective_interval")? {
        cfg.collective_interval = x.max(1);
    }
    Ok(cfg)
}

// --- requests -----------------------------------------------------------

/// One parsed daemon request — the typed form of a wire line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Admit a new session and build its engine at cycle 0.
    Open {
        /// Caller-chosen session id (any non-empty string).
        session: String,
        /// Full run configuration.
        config: SimConfig,
        /// Strategy wire name (`auto` resolves against the config).
        strategy: String,
        /// Spanning trees per bundle (multitree only).
        trees: usize,
    },
    /// Advance a session by `cycles` cycles (or to completion, if it
    /// finishes earlier).
    Step {
        /// Target session.
        session: String,
        /// Cycles to execute (default 1).
        cycles: u64,
        /// Step a suspended (bound-exceeded) session anyway.
        force: bool,
    },
    /// Run a session to completion.
    Run {
        /// Target session.
        session: String,
        /// Run a suspended (bound-exceeded) session anyway.
        force: bool,
    },
    /// Serialize a session's engine state to a checkpoint file.
    Snapshot {
        /// Target session.
        session: String,
        /// Checkpoint file path (created/truncated).
        path: String,
    },
    /// Rebuild a session from a checkpoint file. Restoring onto an
    /// existing session rewinds it (its recorded trace is truncated to
    /// the checkpoint's mark); restoring onto a new id starts the record
    /// at the checkpoint.
    Restore {
        /// Session to create or rewind.
        session: String,
        /// Checkpoint file path.
        path: String,
    },
    /// Stream a session's telemetry samples collected so far.
    Telemetry {
        /// Target session.
        session: String,
    },
    /// Finish a session: optionally write its trace / telemetry
    /// artifacts (CLI-identical JSONL), report final metrics, free it.
    Close {
        /// Target session.
        session: String,
        /// Trace artifact path (JSONL, meta-stamped) — omitted: not written.
        trace: Option<String>,
        /// Telemetry artifact path (JSONL, meta-stamped) — omitted: not
        /// written.
        telemetry: Option<String>,
    },
    /// Stop the daemon (open sessions are discarded).
    Shutdown,
}

impl Request {
    /// Parse one wire line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = parse_json(line)?;
        let op = v
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or("request needs an \"op\" string")?;
        let session = || -> Result<String, String> {
            let s = v
                .get("session")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("{op:?} request needs a \"session\" string"))?;
            if s.is_empty() {
                return Err("\"session\" must be non-empty".into());
            }
            Ok(s.to_string())
        };
        let path = || -> Result<String, String> {
            Ok(v.get("path")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("{op:?} request needs a \"path\" string"))?
                .to_string())
        };
        let force = v.get("force").and_then(JsonValue::as_bool).unwrap_or(false);
        match op {
            "open" => {
                let config = config_from_json(
                    v.get("config")
                        .ok_or("open request needs a \"config\" object")?,
                )?;
                let strategy = v
                    .get("strategy")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("auto")
                    .to_string();
                let trees = v.get("trees").and_then(JsonValue::as_u64).unwrap_or(2) as usize;
                Ok(Request::Open {
                    session: session()?,
                    config,
                    strategy,
                    trees,
                })
            }
            "step" => Ok(Request::Step {
                session: session()?,
                cycles: v.get("cycles").and_then(JsonValue::as_u64).unwrap_or(1),
                force,
            }),
            "run" => Ok(Request::Run {
                session: session()?,
                force,
            }),
            "snapshot" => Ok(Request::Snapshot {
                session: session()?,
                path: path()?,
            }),
            "restore" => Ok(Request::Restore {
                session: session()?,
                path: path()?,
            }),
            "telemetry" => Ok(Request::Telemetry {
                session: session()?,
            }),
            "close" => {
                let opt = |key: &str| v.get(key).and_then(JsonValue::as_str).map(str::to_string);
                Ok(Request::Close {
                    session: session()?,
                    trace: opt("trace"),
                    telemetry: opt("telemetry"),
                })
            }
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parses_nested_values() {
        let v = parse_json(r#"{"a":[1,2.5,null,true],"b":{"c":"x\"y"},"d":-3}"#).unwrap();
        assert_eq!(v.get("d").unwrap().as_f64(), Some(-3.0));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert!(arr[2].is_null());
        assert_eq!(arr[3].as_bool(), Some(true));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"y"));
    }

    #[test]
    fn json_u64_fidelity() {
        let v = parse_json(&format!("{{\"seed\":{}}}", u64::MAX)).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn json_rejects_junk() {
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("nul").is_err());
        assert!(parse_json("\"open").is_err());
    }

    /// A line of a million `[` must fail cleanly, not overflow the stack.
    #[test]
    fn json_caps_nesting_depth() {
        let deep = "[".repeat(1_000_000);
        assert!(parse_json(&deep).unwrap_err().contains("nesting"));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse_json(&over).is_err());
    }

    /// A 4 MiB string (escapes and multi-byte characters included)
    /// decodes in linear time and round-trips.
    #[test]
    fn json_long_string_round_trips() {
        let long = "a\"é\u{1F600}".repeat(4 << 20 >> 3);
        assert!(long.len() >= 4 << 20);
        let v = parse_json(&format!("{{\"op\":{}}}", quote(&long))).unwrap();
        assert_eq!(v.get("op").and_then(JsonValue::as_str), Some(long.as_str()));
    }

    /// The daemon answers both hostile lines with `bad_request`.
    #[test]
    fn hostile_lines_are_bad_requests() {
        use crate::server::{Server, ServerConfig};
        let server = Server::new(ServerConfig::default());
        let long = format!("{{\"op\":\"{}\"}}", "a".repeat(4 << 20));
        for line in ["[".repeat(1_000_000), long] {
            let reply = server.handle_line(&line);
            let v = parse_json(reply.text.lines().next().unwrap()).unwrap();
            assert_eq!(
                v.get("code").and_then(JsonValue::as_str),
                Some("bad_request")
            );
        }
    }

    #[test]
    fn quote_escapes() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        let v = parse_json(&quote("a\"b\\c\nd\t\u{1}")).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\t\u{1}"));
    }

    #[test]
    fn spellings_round_trip() {
        for t in [
            FaultTarget::Node(NodeId(42)),
            FaultTarget::Link(LinkId::new(NodeId(6), 3)),
        ] {
            assert_eq!(target_from_str(&target_to_str(t)).unwrap(), t);
        }
        for k in [
            FaultKind::Permanent,
            FaultKind::Transient { repair_after: 9 },
            FaultKind::Intermittent {
                down_for: 3,
                period: 10,
            },
        ] {
            assert_eq!(kind_from_str(&kind_to_str(k)).unwrap(), k);
        }
        assert!(kind_from_str("intermittent:10:3").is_err(), "period > down");
        for p in [
            TrafficPattern::Uniform,
            TrafficPattern::BitComplement,
            TrafficPattern::BitReversal,
            TrafficPattern::Transpose,
        ] {
            assert_eq!(pattern_from_str(pattern_to_str(p)).unwrap(), p);
        }
        for m in [
            KnowledgeModel::Oracle,
            KnowledgeModel::PaperDelay,
            KnowledgeModel::Measured,
        ] {
            assert_eq!(knowledge_from_str(knowledge_to_str(m)).unwrap(), m);
        }
    }

    #[test]
    fn config_round_trips_all_schedules() {
        let base = SimConfig::new(8, 2)
            .with_rate(0.0125)
            .with_cycles(300, 6_000, 30)
            .with_seed(u64::MAX - 7)
            .with_faults(2)
            .with_pattern(TrafficPattern::Transpose)
            .with_knowledge(KnowledgeModel::PaperDelay)
            .with_reroute_budget(5)
            .with_ttl(77)
            .with_window(50)
            .with_telemetry_interval(25)
            .with_collective(CollectiveOp::Gather)
            .with_collective_interval(40);
        for schedule in [
            FaultSchedule::None,
            FaultSchedule::Bernoulli {
                rate: 0.001,
                kind: FaultKind::Transient { repair_after: 60 },
                mix: CategoryMix {
                    a: 1.0,
                    b: 0.5,
                    c: 0.25,
                },
                node_fraction: 0.75,
            },
            FaultSchedule::Scripted(vec![
                TimedFault {
                    cycle: 100,
                    target: FaultTarget::Node(NodeId(9)),
                    kind: FaultKind::Permanent,
                },
                TimedFault {
                    cycle: 150,
                    target: FaultTarget::Link(LinkId::new(NodeId(4), 2)),
                    kind: FaultKind::Intermittent {
                        down_for: 5,
                        period: 20,
                    },
                },
            ]),
        ] {
            let cfg = base.clone().with_schedule(schedule);
            let text = config_to_json(&cfg);
            let back = config_from_json(&parse_json(&text).unwrap()).unwrap();
            assert_eq!(back, cfg, "codec must round-trip: {text}");
        }
    }

    #[test]
    fn config_defaults_partial_input() {
        let v = parse_json(r#"{"n":6,"modulus":2,"rate":0.05}"#).unwrap();
        let cfg = config_from_json(&v).unwrap();
        let expected = SimConfig::new(6, 2).with_rate(0.05);
        assert_eq!(cfg, expected);
        assert!(config_from_json(&parse_json(r#"{"n":6}"#).unwrap()).is_err());
    }

    #[test]
    fn requests_parse() {
        let r = Request::parse(
            r#"{"op":"open","session":"s1","strategy":"multitree","trees":3,"config":{"n":6,"modulus":2}}"#,
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Open {
                session: "s1".into(),
                config: SimConfig::new(6, 2),
                strategy: "multitree".into(),
                trees: 3,
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"step","session":"s1"}"#).unwrap(),
            Request::Step {
                session: "s1".into(),
                cycles: 1,
                force: false,
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"run","session":"s1","force":true}"#).unwrap(),
            Request::Run {
                session: "s1".into(),
                force: true,
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"close","session":"s1","trace":"/tmp/t.jsonl"}"#).unwrap(),
            Request::Close {
                session: "s1".into(),
                trace: Some("/tmp/t.jsonl".into()),
                telemetry: None,
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        assert!(Request::parse(r#"{"op":"warp"}"#).is_err());
        assert!(
            Request::parse(r#"{"op":"step"}"#).is_err(),
            "missing session"
        );
        assert!(
            Request::parse(r#"{"op":"open","session":"","config":{"n":6,"modulus":2}}"#).is_err()
        );
    }
}
