//! A minimal JSON reader/writer for the `rkrd` wire protocol.
//!
//! The build environment is offline, so the daemon cannot pull in `serde`;
//! this module implements exactly the JSON subset the line protocol needs:
//! objects, arrays, strings (with the standard escapes), finite numbers,
//! booleans, and `null`. Objects preserve insertion order and reject
//! nothing on duplicate keys (the first occurrence wins on lookup), which
//! is all a fixed-schema protocol requires.
//!
//! It has two faces over one set of rules. [`Json`] is a value tree:
//! [`Json::parse`] builds one and [`Json::render`] writes one; the
//! benchmark writes its result files with it, and `Request::to_json` /
//! `Reply::to_json` offer a message as one, as a view. The wire codec
//! (`protocol.rs`) builds no tree: its tables generate a writer that
//! appends `"key":value` members straight onto the outgoing line
//! (`ObjWriter`, `write_num`, `write_str`) and a reader that indexes a
//! line's object once (`Members`) and reads each field in place with the
//! same `Parser` that [`Json::parse`] runs on. The tree and the codec
//! share the number rule, the string escapes, the structural scanner and
//! the nesting cap, so a line the codec writes is the line
//! `Json::parse(line).render()` gives back.

use std::borrow::Cow;
use std::fmt;
use std::io::Write as _;

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap one ~100 KB line of `[`s
/// overflows a reactor worker's stack, and a stack overflow aborts the
/// process instead of unwinding. The deepest message the protocol sends
/// is 5 levels (the `metrics` reply's bucket pairs).
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (the protocol only uses non-negative integers,
    /// which are exact in an `f64` far beyond any node id or counter).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Self)>),
}

/// A parse failure, with the byte offset where it happened.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// The protocol's decoders report errors as one-line strings.
impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

impl Json {
    /// Convenience constructor for integer-valued numbers.
    pub fn num(v: impl Into<f64>) -> Json {
        Json::Num(v.into())
    }

    /// Object field lookup (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(u64_of)
    }

    /// The raw number, if this is a `Num` (update ops carry edge weights,
    /// which are genuine floats).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string contents, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The elements, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse one JSON value; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Parser::new(text).document(Parser::value)
    }

    /// Serialize to a single line (no whitespace, suitable for the
    /// newline-delimited protocol).
    pub fn render(&self) -> String {
        let mut out = Vec::new();
        self.render_into(&mut out);
        String::from_utf8(out).expect("rendered JSON is UTF-8")
    }

    fn render_into(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(true) => out.extend_from_slice(b"true"),
            Json::Bool(false) => out.extend_from_slice(b"false"),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.render_into(out);
                }
                out.push(b']');
            }
            Json::Obj(fields) => {
                let mut obj = ObjWriter::open(out);
                for (k, v) in fields {
                    v.render_into(obj.key(k));
                }
                obj.close();
            }
        }
    }
}

/// A number as a non-negative integer, if it is one exactly (values past
/// `u64::MAX` saturate, as the cast does).
pub(crate) fn u64_of(v: f64) -> Option<u64> {
    (v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64).then_some(v as u64)
}

/// [`u64_of`] narrowed to `u32`.
pub(crate) fn u32_of(v: f64) -> Option<u32> {
    u64_of(v).and_then(|v| u32::try_from(v).ok())
}

/// Write a number: an integer below 9e15 without a fraction (`"epoch":3`,
/// not `3.0`), anything else as Rust's shortest round-trip form. The one
/// number rule of both the tree and the wire codec; a `u64` comes here
/// through `f64`.
pub(crate) fn write_num(out: &mut Vec<u8>, v: f64) {
    if v.fract() == 0.0 && v.is_finite() && v.abs() < 9.0e15 {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut n = (v as i64).unsigned_abs();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        if v < 0.0 {
            out.push(b'-');
        }
        out.extend_from_slice(&digits[at..]);
    } else {
        write!(out, "{v}").expect("writing to a Vec cannot fail");
    }
}

/// Write a string with its quotes, escaping `"`, `\` and the control
/// characters; every other character goes out as it is.
pub(crate) fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut plain = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let control;
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => {
                control = [
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[usize::from(b >> 4)],
                    HEX[usize::from(b & 0xf)],
                ];
                &control
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[plain..i]);
        out.extend_from_slice(escape);
        plain = i + 1;
    }
    out.extend_from_slice(&bytes[plain..]);
    out.push(b'"');
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// An object being written onto a line: `{` when opened, a `,` between
/// members, `}` when closed.
pub(crate) struct ObjWriter<'a> {
    out: &'a mut Vec<u8>,
    first: bool,
}

impl<'a> ObjWriter<'a> {
    pub(crate) fn open(out: &'a mut Vec<u8>) -> ObjWriter<'a> {
        out.push(b'{');
        ObjWriter { out, first: true }
    }

    /// Write `"key":` and hand back the line for the member's value.
    pub(crate) fn key(&mut self, key: &str) -> &mut Vec<u8> {
        if !self.first {
            self.out.push(b',');
        }
        self.first = false;
        write_str(self.out, key);
        self.out.push(b':');
        self.out
    }

    pub(crate) fn close(self) {
        self.out.push(b'}');
    }
}

/// A string as it stands in the text, between its quotes, with its
/// escapes (which were checked when it was scanned) still in place.
#[derive(Clone, Copy)]
struct RawStr<'a> {
    text: &'a str,
    escaped: bool,
}

impl<'a> RawStr<'a> {
    /// The string's value: the text itself unless it holds an escape.
    fn unescape(self) -> Cow<'a, str> {
        if !self.escaped {
            return Cow::Borrowed(self.text);
        }
        let mut out = String::with_capacity(self.text.len());
        let mut rest = self.text;
        while let Some(at) = rest.find('\\') {
            out.push_str(&rest[..at]);
            let esc = rest.as_bytes()[at + 1];
            rest = &rest[at + 2..];
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                _ => {
                    let hex = hex4(rest.as_bytes()).expect("scanned escape");
                    rest = &rest[4..];
                    // Surrogates are not paired: the protocol never emits
                    // them, so map them to the replacement character
                    // instead of failing the line.
                    char::from_u32(hex).unwrap_or('\u{FFFD}')
                }
            });
        }
        out.push_str(rest);
        Cow::Owned(out)
    }

    fn is(self, key: &str) -> bool {
        if self.escaped {
            self.unescape() == key
        } else {
            self.text == key
        }
    }
}

/// The code point of a `\u` escape's four hex digits.
fn hex4(bytes: &[u8]) -> Option<u32> {
    let hex = std::str::from_utf8(bytes.get(..4)?).ok()?;
    u32::from_str_radix(hex, 16).ok()
}

/// A cursor over JSON text. [`Json::parse`] builds a tree with it;
/// [`Members`] validates a line with it and reads fields in place.
#[derive(Clone)]
pub(crate) struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// A cursor at byte `pos` of the same text.
    fn at(&self, pos: usize) -> Parser<'a> {
        Parser {
            text: self.text,
            pos,
            depth: 0,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            pos: self.pos,
            message: message.into(),
        }
    }

    /// The whole text as one value read by `read`, whitespace around it
    /// allowed and nothing else.
    fn document<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        self.skip_ws();
        let v = read(self)?;
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters after value"));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    /// Build the tree of the value at the cursor.
    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(|s| Json::Str(s.into_owned())),
            Some(b'[') => self.nested(|p| {
                let mut items = Vec::new();
                p.array(|p| {
                    items.push(p.value()?);
                    Ok::<_, JsonError>(())
                })?;
                Ok(Json::Arr(items))
            }),
            Some(b'{') => self.nested(|p| {
                let mut fields = Vec::new();
                p.object(|p, key| {
                    fields.push((key.unescape().into_owned(), p.value()?));
                    Ok::<_, JsonError>(())
                })?;
                Ok(Json::Obj(fields))
            }),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            Some(b) => Err(self.err(format!("unexpected character '{}'", b as char))),
        }
    }

    /// Check the value at the cursor and step past it, building nothing:
    /// it fails exactly where [`Parser::value`] would.
    pub(crate) fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null"),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'"') => self.raw_string().map(|_| ()),
            Some(b'[') => self.nested(|p| p.array(Self::skip_value)),
            Some(b'{') => self.nested(|p| p.object(|p, _| p.skip_value())),
            Some(b'-' | b'0'..=b'9') => self.number().map(|_| ()),
            Some(b) => Err(self.err(format!("unexpected character '{}'", b as char))),
        }
    }

    /// Run `parse` on an array or object one level deeper, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    /// Step through the array at the cursor, calling `item` at each
    /// element's first byte; `item` must step past the element.
    pub(crate) fn array<E: From<JsonError>>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'").into()),
            }
        }
    }

    /// Step through the object at the cursor, calling `member` with each
    /// key at its value's first byte; `member` must step past the value.
    fn object<E: From<JsonError>>(
        &mut self,
        mut member: impl FnMut(&mut Self, RawStr<'a>) -> Result<(), E>,
    ) -> Result<(), E> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.raw_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'").into()),
            }
        }
    }

    /// Scan the string at the cursor, checking its escapes.
    fn raw_string(&mut self) -> Result<RawStr<'a>, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut escaped = false;
        loop {
            match self.peek() {
                Some(b'"') => {
                    let text = &self.text[start..self.pos];
                    self.pos += 1;
                    return Ok(RawStr { text, escaped });
                }
                Some(b'\\') => {
                    escaped = true;
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
                        b'u' => {
                            hex4(&self.bytes()[self.pos..])
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(0..=0x1f) => return Err(self.err("control character in string")),
                Some(_) => self.pos += 1,
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The string at the cursor, borrowed from the text unless it holds
    /// an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.raw_string().map(RawStr::unescape)
    }

    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        // A token of fifteen digits or fewer is an integer an `f64` holds
        // exactly: its value is the float parser's, without running it.
        let mut n = 0u64;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            n = n.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            self.pos += 1;
        }
        let digits = self.pos - start;
        let more = matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
        if (1..=15).contains(&digits) && !more {
            return Ok(n as f64);
        }
        self.pos = start;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let v: f64 = text
            .parse()
            .map_err(|_| self.err(format!("bad number '{text}'")))?;
        if !v.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(v)
    }

    /// The number at the cursor; `None` when the value is not a number.
    /// The read-side helpers below are for text [`Members`] has checked.
    pub(crate) fn read_num(&mut self) -> Option<f64> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.number().ok(),
            _ => None,
        }
    }

    /// The boolean at the cursor; `None` when the value is not one.
    pub(crate) fn read_bool(&mut self) -> Option<bool> {
        match self.peek() {
            Some(b't') => self.literal("true").ok().map(|()| true),
            Some(b'f') => self.literal("false").ok().map(|()| false),
            _ => None,
        }
    }

    /// The string at the cursor; `None` when the value is not a string.
    pub(crate) fn read_str(&mut self) -> Option<Cow<'a, str>> {
        match self.peek() {
            Some(b'"') => self.string().ok(),
            _ => None,
        }
    }

    /// How many elements the checked array at the cursor holds, counted
    /// without reading them: its commas outside strings and deeper
    /// values, plus one unless it is empty.
    pub(crate) fn count_items(&self) -> usize {
        let mut p = self.clone();
        p.pos += 1;
        p.skip_ws();
        if p.peek() == Some(b']') {
            return 0;
        }
        let (mut depth, mut commas) = (1usize, 0);
        let mut bytes = p.bytes()[p.pos..].iter();
        while let Some(&b) = bytes.next() {
            match b {
                b'"' => {
                    while let Some(&c) = bytes.next() {
                        match c {
                            b'\\' => {
                                bytes.next();
                            }
                            b'"' => break,
                            _ => {}
                        }
                    }
                }
                b'[' | b'{' => depth += 1,
                b']' | b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                b',' if depth == 1 => commas += 1,
                _ => {}
            }
        }
        commas + 1
    }
}

/// Members held on the stack before an index spills to the heap: more
/// than any protocol object but `stats`' counter block has.
const INLINE_MEMBERS: usize = 16;

/// One member of an indexed object: its key, and where its value starts.
#[derive(Clone, Copy)]
struct Member<'a> {
    key: RawStr<'a>,
    value: usize,
}

/// An object's members, indexed in one pass that checks the whole object
/// as [`Json::parse`] would (nesting cap included) and builds nothing. A
/// field is then read in place: [`Members::get`] hands back a cursor at
/// its value. Every occurrence of a key is kept and lookups take the
/// first, so a duplicate key reads as its first occurrence.
pub(crate) struct Members<'a> {
    text: &'a str,
    inline: [Member<'a>; INLINE_MEMBERS],
    len: usize,
    spill: Vec<Member<'a>>,
}

impl<'a> Members<'a> {
    /// Index a whole line, which must hold one JSON value (whitespace
    /// around it allowed). A value other than an object indexes as empty.
    pub(crate) fn of_line(line: &'a str) -> Result<Members<'a>, JsonError> {
        Parser::new(line).document(Members::read)
    }

    /// Index the value at the cursor and step past it.
    pub(crate) fn read(p: &mut Parser<'a>) -> Result<Members<'a>, JsonError> {
        let empty = RawStr {
            text: "",
            escaped: false,
        };
        let mut members = Members {
            text: p.text,
            inline: [Member {
                key: empty,
                value: 0,
            }; INLINE_MEMBERS],
            len: 0,
            spill: Vec::new(),
        };
        if p.peek() != Some(b'{') {
            p.skip_value()?;
            return Ok(members);
        }
        p.nested(|p| {
            p.object(|p, key| {
                let member = Member { key, value: p.pos };
                match members.inline.get_mut(members.len) {
                    Some(slot) => *slot = member,
                    None => members.spill.push(member),
                }
                members.len += 1;
                p.skip_value()
            })
        })?;
        Ok(members)
    }

    fn iter(&self) -> impl Iterator<Item = &Member<'a>> {
        self.inline[..self.len.min(INLINE_MEMBERS)]
            .iter()
            .chain(&self.spill)
    }

    /// A cursor at the value of `key`'s first occurrence.
    pub(crate) fn get(&self, key: &str) -> Option<Parser<'a>> {
        let member = self.iter().find(|m| m.key.is(key))?;
        Some(Parser::new(self.text).at(member.value))
    }

    /// Every member in order, duplicates included: its key's value and a
    /// cursor at its value.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (Cow<'a, str>, Parser<'a>)> + '_ {
        let text = Parser::new(self.text);
        self.iter()
            .map(move |m| (m.key.unescape(), text.at(m.value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_protocol_shapes() {
        for text in [
            r#"{"op":"query","node":3,"k":2}"#,
            r#"{"op":"query","node":3,"k":2,"cache":false}"#,
            r#"{"ok":true,"result":[[1,2],[3,4]],"cached":false,"epoch":7}"#,
            r#"{"ok":false,"error":"k = 9 exceeds the index's K = 4"}"#,
            r#"[]"#,
            r#"{}"#,
            r#"null"#,
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.render(), text, "render diverged for {text}");
            assert_eq!(Json::parse(&v.render()).unwrap(), v);
        }
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"a":1,"b":[true,"x"],"c":null}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        let arr = v.get("b").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0], Json::Bool(true));
        assert_eq!(arr[1].as_str(), Some("x"));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(u32_of(u32::MAX as f64), Some(u32::MAX));
        assert_eq!(u32_of(u32::MAX as f64 + 1.0), None);
        assert_eq!(u64_of(3.0), Some(3));
        assert_eq!(u64_of(-0.0), Some(0));
        assert_eq!(u64_of(1e30), None);
    }

    #[test]
    fn string_escapes() {
        let v = Json::parse(r#""a\"b\\c\nd\teA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\teA"));
        // escapes round-trip through render
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        // control characters are escaped on output
        assert_eq!(Json::Str("\u{1}".into()).render(), "\"\\u0001\"");
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn rejects_garbage() {
        for text in [
            "",
            "{",
            "[1,",
            r#"{"a"}"#,
            r#"{"a":}"#,
            "nul",
            "truee",
            r#""unterminated"#,
            r#""bad \q escape""#,
            "1e999",
            "--3",
            "[1] trailing",
            "\"\u{1}\"",
        ] {
            assert!(Json::parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn nesting_is_capped_before_it_can_overflow_the_stack() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
        // one request line far under the 1 MiB line cap
        let hostile = format!(r#"{{"op":"batch","k":3,"nodes":{}"#, "[".repeat(100_000));
        let err = Json::parse(&hostile).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn numbers() {
        assert_eq!(Json::parse("0").unwrap(), Json::Num(0.0));
        assert_eq!(Json::parse("-2.5").unwrap(), Json::Num(-2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::Num(-2.5).render(), "-2.5");
        assert_eq!(Json::num(12u32).render(), "12");
        assert_eq!(Json::Num(-0.0).render(), "0");
        assert_eq!(Json::Num(-3.0).render(), "-3");
        assert_eq!(Json::Num(8.9e15).render(), "8900000000000000");
        assert_eq!(Json::Num(u64::MAX as f64).render(), "18446744073709552000");
        assert_eq!(Json::Num(1e-7).render(), "0.0000001");
        // a run of digits too long for the shortcut takes the float parser
        assert_eq!(
            Json::parse("1234567890123456789").unwrap(),
            Json::Num(1234567890123456789.0)
        );
        assert_eq!(Json::parse("007").unwrap(), Json::Num(7.0));
        assert_eq!(
            Json::parse("123456789012345").unwrap(),
            Json::Num(123456789012345.0)
        );
        assert_eq!(
            Json::parse("9007199254740993").unwrap(),
            Json::Num(9007199254740993.0)
        );
        assert_eq!(Json::parse("12e1").unwrap(), Json::Num(120.0));
        assert!(Json::parse("12-3").is_err());
        assert!(Json::parse("-").is_err());
    }

    #[test]
    fn members_index_first_occurrences_and_read_in_place() {
        let line = r#" {"a":1,"b\u0031":[2,{"c":"x"}],"a":"dup","d":"e\"f"} "#;
        let m = Members::of_line(line).unwrap();
        assert_eq!(m.get("a").and_then(|mut p| p.read_num()), Some(1.0));
        assert_eq!(m.get("b1").map(|p| p.count_items()), Some(2));
        assert_eq!(
            m.get("d").and_then(|mut p| p.read_str()).as_deref(),
            Some("e\"f")
        );
        assert!(m.get("c").is_none());
        let keys: Vec<_> = m.entries().map(|(k, _)| k.into_owned()).collect();
        assert_eq!(keys, ["a", "b1", "a", "d"]);
        // a line that is not an object indexes as empty; a bad one fails
        // where the tree parser fails
        assert!(Members::of_line("[1]").unwrap().get("a").is_none());
        for bad in ["{", r#"{"a":[1,}"#, r#"{"a":1} x"#, r#"{"a":"\q"}"#] {
            let want = Json::parse(bad).unwrap_err();
            assert_eq!(Members::of_line(bad).err(), Some(want), "{bad}");
        }
    }

    #[test]
    fn items_are_counted_outside_strings_and_deeper_values() {
        for (text, n) in [
            ("[]", 0),
            ("[ ]", 0),
            ("[1]", 1),
            (r#"[[1,2],[3,4],"a,b]",{"x":[5,6]}]"#, 4),
            (r#"["\"],[",7]"#, 2),
        ] {
            assert_eq!(Parser::new(text).count_items(), n, "{text}");
        }
    }

    #[test]
    fn many_members_spill_past_the_inline_index() {
        let fields: Vec<String> = (0..40).map(|i| format!(r#""k{i}":{i}"#)).collect();
        let line = format!("{{{}}}", fields.join(","));
        let m = Members::of_line(&line).unwrap();
        for i in [0, 15, 16, 39] {
            let v = m.get(&format!("k{i}")).and_then(|mut p| p.read_num());
            assert_eq!(v, Some(i as f64));
        }
        assert_eq!(m.entries().count(), 40);
    }
}
