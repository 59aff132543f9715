//! The JSON subset the benchmark reads (`BENCHMARK.json`, result files, the
//! daemon's health document) and the one escape routine it writes with.
//!
//! The repository has a reader of its own in `pressio_tools::bench`; the
//! benchmark keeps this one so that the instrument depends on nothing but
//! the code it measures and still builds when that tooling is reshaped.

/// A parsed value. Objects keep their keys in file order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }

    pub fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(pairs) => pairs,
            _ => &[],
        }
    }
}

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Ok(value)
    } else {
        Err(p.fail("trailing characters"))
    }
}

/// `s` as a quoted JSON string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn fail(&self, what: &str) -> String {
        format!("json: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected '{}'", byte as char)))
        }
    }

    /// After one element of a list: `true` to read another, `false` at `close`.
    fn more(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if *b == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(self.fail("expected ',' or a closing bracket")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let byte = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| self.fail("unterminated string"))?;
            self.pos += 1;
            match byte {
                b'"' => return String::from_utf8(out).map_err(|_| self.fail("invalid utf-8")),
                b'\\' => {
                    let escape = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.fail("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'"' | b'\\' | b'/' => out.push(escape),
                        b'u' => {
                            let code = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|hex| std::str::from_utf8(hex).ok())
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            self.pos += 4;
                            out.extend_from_slice(code.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.fail("unknown escape")),
                    }
                }
                other => out.push(other),
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let rest = &self.bytes[self.pos..];
        for (literal, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
        ] {
            if rest.starts_with(literal.as_bytes()) {
                self.pos += literal.len();
                return Ok(value);
            }
        }
        match rest.first() {
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    let key = self.string()?;
                    self.eat(b':')?;
                    pairs.push((key, self.value()?));
                    if !self.more(b'}')? {
                        return Ok(Json::Obj(pairs));
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if !self.more(b']')? {
                        return Ok(Json::Arr(items));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            _ => {
                let len = rest
                    .iter()
                    .take_while(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                    .count();
                let number = std::str::from_utf8(&rest[..len])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .ok_or_else(|| self.fail("expected a value"))?;
                self.pos += len;
                Ok(Json::Num(number))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_nesting_escapes_and_numbers() {
        let doc = parse(r#" {"a": [1, -2.5e3, true, null], "b": {"c": "x\"\nA"}} "#).unwrap();
        assert_eq!(doc.get("a").unwrap().items()[1].num(), Some(-2500.0));
        assert_eq!(doc.get("a").unwrap().items()[3], Json::Null);
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().str(),
            Some("x\"\nA")
        );
        assert_eq!(parse("{}").unwrap().entries().len(), 0);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "nul", "1 2", "\"open"] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn quote_round_trips() {
        let s = "tab\there \"quoted\" back\\slash\nline";
        assert_eq!(parse(&quote(s)).unwrap().str(), Some(s));
    }
}
