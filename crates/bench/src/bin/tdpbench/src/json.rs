//! The harness's own JSON, written by hand.
//!
//! The output path must survive the ROADMAP's "one JSON stack" merge,
//! so it uses neither `serde_json` nor `tdp_gateway::Json`: a writer
//! for objects of numbers, strings and booleans, and the matching
//! reader for the one flat object a child repetition prints.

use std::fmt::Write;

pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A number as measured, all digits; JSON has no NaN or infinity, and
/// a metric that came out non-finite is a harness bug reported as 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Builder for one JSON object; members keep insertion order.
pub struct Obj(String);

impl Obj {
    pub fn new() -> Obj {
        Obj(String::from("{"))
    }

    /// `value` is already JSON (a nested object, a number).
    pub fn raw(mut self, key: &str, value: &str) -> Obj {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        let _ = write!(self.0, "\"{}\":{value}", escape(key));
        self
    }

    pub fn num(self, key: &str, v: f64) -> Obj {
        self.raw(key, &num(v))
    }

    pub fn int(self, key: &str, v: u64) -> Obj {
        self.raw(key, &v.to_string())
    }

    pub fn str(self, key: &str, v: &str) -> Obj {
        self.raw(key, &format!("\"{}\"", escape(v)))
    }

    pub fn bool(self, key: &str, v: bool) -> Obj {
        self.raw(key, if v { "true" } else { "false" })
    }

    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    Num(f64),
    Str(String),
    Bool(bool),
}

/// A child's result line: one flat object, in member order.
#[derive(Debug, Default)]
pub struct Flat(pub Vec<(String, Val)>);

impl Flat {
    pub fn num(&self, key: &str) -> Option<f64> {
        self.0.iter().find_map(|(k, v)| match v {
            Val::Num(n) if k == key => Some(*n),
            _ => None,
        })
    }

    pub fn str(&self, key: &str) -> Option<&str> {
        self.0.iter().find_map(|(k, v)| match v {
            Val::Str(s) if k == key => Some(s.as_str()),
            _ => None,
        })
    }

    pub fn bool(&self, key: &str) -> Option<bool> {
        self.0.iter().find_map(|(k, v)| match v {
            Val::Bool(b) if k == key => Some(*b),
            _ => None,
        })
    }
}

/// Parse what [`Obj`] writes when no member is nested. `None` on
/// anything else — a child that printed garbage has failed.
pub fn parse_flat(text: &str) -> Option<Flat> {
    let mut p = Reader {
        s: text.trim().as_bytes(),
        i: 0,
    };
    p.eat(b'{')?;
    let mut out = Vec::new();
    if p.peek()? == b'}' {
        return Some(Flat(out));
    }
    loop {
        let key = p.string()?;
        p.eat(b':')?;
        let val = match p.peek()? {
            b'"' => Val::Str(p.string()?),
            b't' => p.word("true").map(|()| Val::Bool(true))?,
            b'f' => p.word("false").map(|()| Val::Bool(false))?,
            _ => Val::Num(p.number()?),
        };
        out.push((key, val));
        match p.next()? {
            b',' => continue,
            b'}' if p.i == p.s.len() => return Some(Flat(out)),
            _ => return None,
        }
    }
}

struct Reader<'a> {
    s: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.i += 1;
        Some(b)
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        (self.next()? == b).then_some(())
    }

    fn word(&mut self, w: &str) -> Option<()> {
        let end = self.i + w.len();
        (self.s.get(self.i..end)? == w.as_bytes()).then(|| self.i = end)
    }

    fn number(&mut self) -> Option<f64> {
        let start = self.i;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()?
            .parse()
            .ok()
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.next()? {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => match self.next()? {
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'u' => {
                        let hex = std::str::from_utf8(self.s.get(self.i..self.i + 4)?).ok()?;
                        let c = char::from_u32(u32::from_str_radix(hex, 16).ok()?)?;
                        out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        self.i += 4;
                    }
                    c => out.push(c),
                },
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("line\nbreak\ttab\r"), "line\\nbreak\\ttab\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("µs — ok"), "µs — ok");
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_valid_json() {
        assert_eq!(num(1.2034), "1.2034");
        assert_eq!(num(7.0), "7");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(f64::INFINITY), "0");
    }

    #[test]
    fn object_round_trips_through_the_flat_reader() {
        let line = Obj::new()
            .str("workload", "attr_epoll")
            .num("lat_p50_us", 7.9031)
            .int("ops", 351_204)
            .bool("ok", true)
            .str("error", "bad \"value\"\nfor k\\1")
            .finish();
        assert!(line.starts_with(r#"{"workload":"attr_epoll","lat_p50_us":7.9031,"#));
        let flat = parse_flat(&line).expect("parses");
        assert_eq!(flat.str("workload"), Some("attr_epoll"));
        assert_eq!(flat.num("lat_p50_us"), Some(7.9031));
        assert_eq!(flat.num("ops"), Some(351_204.0));
        assert_eq!(flat.str("error"), Some("bad \"value\"\nfor k\\1"));
        assert_eq!(flat.bool("ok"), Some(true));
        assert_eq!(flat.num("missing"), None);
    }

    #[test]
    fn nesting_is_written_raw_and_garbage_is_refused() {
        let inner = Obj::new().num("value", 1.5).str("unit", "ms").finish();
        let outer = Obj::new().raw("latency_ms", &inner).finish();
        assert_eq!(outer, r#"{"latency_ms":{"value":1.5,"unit":"ms"}}"#);
        assert!(parse_flat(&outer).is_none(), "reader is flat only");
        assert!(parse_flat("").is_none());
        assert!(parse_flat("{\"a\":1} trailing").is_none());
        assert!(parse_flat("thread 'main' panicked").is_none());
        assert!(parse_flat("{}").is_some());
    }
}
