//! Exporters: human text and Chrome trace-event JSON
//! (loadable in Perfetto / `chrome://tracing`), plus a dependency-free
//! validator for the Chrome format.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::event::{Event, EventKind};

/// Human-readable export: one aligned line per event.
pub fn export_text(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        let _ = writeln!(
            out,
            "[{:>12} us] node {:>3}  {:<16} a={} b={}",
            event.ts_us,
            event.node,
            event.kind.name(),
            event.a,
            event.b
        );
    }
    out
}

/// Chrome trace-event JSON export.
///
/// Mapping: [`EventKind::CheckpointBegin`] / [`EventKind::CheckpointEnd`]
/// become duration-span `"B"`/`"E"` pairs named `checkpoint`;
/// [`EventKind::QueueDepth`] becomes a `"C"` counter track; everything
/// else is an `"i"` instant.  `pid` is the node, `tid` is 0 — one
/// timeline row per node.
pub fn export_chrome_trace(events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for event in events {
        if !first {
            out.push(',');
        }
        first = false;
        match event.kind {
            EventKind::CheckpointBegin => {
                let _ = write!(
                    out,
                    "{{\"name\":\"checkpoint\",\"ph\":\"B\",\"ts\":{},\"pid\":{},\"tid\":0,\
                     \"args\":{{\"label\":{},\"async\":{}}}}}",
                    event.ts_us, event.node, event.a, event.b
                );
            }
            EventKind::CheckpointEnd => {
                let _ = write!(
                    out,
                    "{{\"name\":\"checkpoint\",\"ph\":\"E\",\"ts\":{},\"pid\":{},\"tid\":0,\
                     \"args\":{{\"label\":{},\"outcome\":{}}}}}",
                    event.ts_us, event.node, event.a, event.b
                );
            }
            EventKind::QueueDepth => {
                let _ = write!(
                    out,
                    "{{\"name\":\"queue_depth\",\"ph\":\"C\",\"ts\":{},\"pid\":{},\"tid\":0,\
                     \"args\":{{\"depth\":{},\"capacity\":{}}}}}",
                    event.ts_us, event.node, event.a, event.b
                );
            }
            kind => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":0,\
                     \"args\":{{\"a\":{},\"b\":{}}}}}",
                    kind.name(),
                    event.ts_us,
                    event.node,
                    event.a,
                    event.b
                );
            }
        }
    }
    out.push_str("]}");
    out
}

/// What [`validate_chrome_trace`] found in a trace document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChromeTraceSummary {
    /// Total trace events in the document.
    pub events: usize,
    /// `"B"` span-begin events.
    pub begins: usize,
    /// `"E"` span-end events.
    pub ends: usize,
    /// `"i"` instant events.
    pub instants: usize,
    /// `"C"` counter events.
    pub counters: usize,
}

/// Parse and validate a Chrome trace-event document produced by
/// [`export_chrome_trace`] (or any conforming JSON-object format trace).
///
/// Checks that the document is well-formed JSON, that `traceEvents` is
/// an array of objects each carrying a string `ph`, and that `"B"`/`"E"`
/// pairs balance per `(pid, tid)` track (never more ends than begins,
/// none left open at the end).  Dependency-free: the JSON parser below
/// handles exactly the subset the exporter emits plus general nesting.
pub fn validate_chrome_trace(trace: &str) -> Result<ChromeTraceSummary, String> {
    let value = JsonParser::new(trace).parse_document()?;
    let root = match value {
        Json::Object(fields) => fields,
        _ => return Err("trace root is not a JSON object".to_owned()),
    };
    let events = match root.iter().find(|(k, _)| k == "traceEvents") {
        Some((_, Json::Array(events))) => events,
        Some(_) => return Err("traceEvents is not an array".to_owned()),
        None => return Err("missing traceEvents key".to_owned()),
    };
    let mut summary = ChromeTraceSummary::default();
    let mut open: HashMap<(i64, i64), i64> = HashMap::new();
    for (index, event) in events.iter().enumerate() {
        let fields = match event {
            Json::Object(fields) => fields,
            _ => return Err(format!("traceEvents[{index}] is not an object")),
        };
        let ph = match fields.iter().find(|(k, _)| k == "ph") {
            Some((_, Json::String(ph))) => ph.as_str(),
            _ => return Err(format!("traceEvents[{index}] has no string \"ph\"")),
        };
        let int_field = |name: &str| -> i64 {
            match fields.iter().find(|(k, _)| k == name) {
                Some((_, Json::Number(n))) => *n as i64,
                _ => 0,
            }
        };
        summary.events += 1;
        match ph {
            "B" => {
                summary.begins += 1;
                *open
                    .entry((int_field("pid"), int_field("tid")))
                    .or_insert(0) += 1;
            }
            "E" => {
                summary.ends += 1;
                let track = (int_field("pid"), int_field("tid"));
                let depth = open.entry(track).or_insert(0);
                *depth -= 1;
                if *depth < 0 {
                    return Err(format!(
                        "unbalanced span: \"E\" without matching \"B\" on track {track:?} \
                         at traceEvents[{index}]"
                    ));
                }
            }
            "i" | "I" => summary.instants += 1,
            "C" => summary.counters += 1,
            _ => {}
        }
    }
    if let Some((track, depth)) = open.iter().find(|(_, depth)| **depth != 0) {
        return Err(format!(
            "unbalanced span: {depth} \"B\" event(s) left open on track {track:?}"
        ));
    }
    Ok(summary)
}

/// A parsed JSON value (just enough structure for validation).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> JsonParser<'a> {
        JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn parse_document(&mut self) -> Result<Json, String> {
        let value = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing bytes at offset {}", self.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of JSON".to_owned())
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek()? != byte {
            return Err(format!(
                "expected '{}' at offset {}, found '{}'",
                byte as char, self.pos, self.bytes[self.pos] as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.parse_object(),
            b'[' => self.parse_array(),
            b'"' => Ok(Json::String(self.parse_string()?)),
            b't' => self.parse_literal("true", Json::Bool(true)),
            b'f' => self.parse_literal("false", Json::Bool(false)),
            b'n' => self.parse_literal("null", Json::Null),
            _ => self.parse_number(),
        }
    }

    fn parse_literal(&mut self, literal: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| format!("invalid number '{text}' at offset {start}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let byte = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_owned())?;
            self.pos += 1;
            match byte {
                b'"' => return Ok(out),
                b'\\' => {
                    let escape = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_owned())?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".to_owned());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "non-ascii \\u escape".to_owned())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!("unknown escape '\\{}'", other as char));
                        }
                    }
                }
                byte if byte < 0x80 => out.push(byte as char),
                _ => {
                    // Multi-byte UTF-8: re-decode from the slice.
                    let start = self.pos - 1;
                    let len = match byte {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    if start + len > self.bytes.len() {
                        return Err("truncated UTF-8 sequence".to_owned());
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| "invalid UTF-8 in string".to_owned())?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at offset {}, found '{}'",
                        self.pos, other as char
                    ))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at offset {}, found '{}'",
                        self.pos, other as char
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                ts_us: 10,
                node: 0,
                kind: EventKind::CheckpointBegin,
                a: 1,
                b: 0,
            },
            Event {
                ts_us: 12,
                node: 0,
                kind: EventKind::Freeze,
                a: 64,
                b: 4096,
            },
            Event {
                ts_us: 15,
                node: 0,
                kind: EventKind::QueueDepth,
                a: 1,
                b: 4,
            },
            Event {
                ts_us: 20,
                node: 0,
                kind: EventKind::CheckpointEnd,
                a: 1,
                b: 0,
            },
            Event {
                ts_us: 21,
                node: 1,
                kind: EventKind::Send,
                a: 0,
                b: 3,
            },
        ]
    }

    #[test]
    fn text_has_one_line_per_event() {
        let events = sample_events();
        assert_eq!(export_text(&events).lines().count(), events.len());
    }

    #[test]
    fn chrome_trace_validates_with_balanced_spans() {
        let trace = export_chrome_trace(&sample_events());
        let summary = validate_chrome_trace(&trace).unwrap();
        assert_eq!(summary.events, 5);
        assert_eq!(summary.begins, 1);
        assert_eq!(summary.ends, 1);
        assert_eq!(summary.counters, 1);
        assert_eq!(summary.instants, 2);
    }

    #[test]
    fn validator_rejects_unbalanced_spans() {
        let only_end = vec![Event {
            ts_us: 1,
            node: 0,
            kind: EventKind::CheckpointEnd,
            a: 0,
            b: 0,
        }];
        let err = validate_chrome_trace(&export_chrome_trace(&only_end)).unwrap_err();
        assert!(err.contains("unbalanced"), "{err}");

        let only_begin = vec![Event {
            ts_us: 1,
            node: 0,
            kind: EventKind::CheckpointBegin,
            a: 0,
            b: 0,
        }];
        let err = validate_chrome_trace(&export_chrome_trace(&only_begin)).unwrap_err();
        assert!(err.contains("left open"), "{err}");
    }

    #[test]
    fn validator_rejects_malformed_json() {
        assert!(validate_chrome_trace("{\"traceEvents\":[").is_err());
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":{}}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"no_ph\":1}]}").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let doc = r#"{"traceEvents":[{"ph":"i","name":"a\"bA\n","nested":{"x":[1,2,{"y":null}],"ok":true}}]}"#;
        let summary = validate_chrome_trace(doc).unwrap();
        assert_eq!(summary.instants, 1);
    }
}
