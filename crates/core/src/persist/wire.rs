//! The binary snapshot wire format: a compact, self-describing encoding of
//! the `serde` data model, written and read as a stream. [`encode`] drives
//! a [`serde::Serializer`] that appends each event's bytes as it arrives,
//! and [`Reader`] is a [`serde::Deserializer`] that yields events straight
//! off the bytes, so a [`PipelineSnapshot`](super::PipelineSnapshot) goes to
//! and from its wire form without an intermediate tree. Field names and
//! field rules (defaults, order, unknown keys) are the serde impls', shared
//! with the JSON form; only the bytes differ. The byte layout is tabled in
//! the parent module's "Wire format" section.
//!
//! Decoding treats its input as hostile: every length is checked against
//! the bytes remaining before anything is allocated for it, varints longer
//! than 64 bits, nesting deeper than [`MAX_DEPTH`] (in skipped values too),
//! unknown tags, invalid UTF-8 and trailing bytes are rejected, and every
//! failure is a typed [`PersistError`], never a panic.

use serde::{DeError, Deserialize, Deserializer, Event, Serialize, Serializer};

use super::PersistError;

/// Leads every binary snapshot. The first byte is not ASCII, so the magic
/// can never be mistaken for the `{` that opens a legacy JSON snapshot;
/// the last byte numbers the encoding (the *schema* version lives in the
/// snapshot's envelope, as in JSON).
pub(super) const MAGIC: [u8; 8] = *b"\x89SYSNAP\x01";

/// Deepest container nesting a decoder accepts. The snapshot data model
/// nests under a dozen levels (decision trees are arena-allocated, not
/// recursive), so this only bounds the decoder's stack on hostile input.
pub(super) const MAX_DEPTH: usize = 64;

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_INT: u8 = 0x03;
const TAG_UINT: u8 = 0x04;
const TAG_FLOAT: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_ARRAY: u8 = 0x07;
const TAG_OBJECT: u8 = 0x08;

/// Encodes `value` behind [`MAGIC`].
pub(super) fn encode<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    encode_into(&mut out, value);
    out
}

/// Encodes `value` behind [`MAGIC`] over `out`'s contents, reusing its
/// allocation.
pub(super) fn encode_into<T: Serialize + ?Sized>(out: &mut Vec<u8>, value: &T) {
    out.clear();
    out.extend_from_slice(&MAGIC);
    value.serialize(&mut Writer(out));
}

/// The encoding sink: each event's bytes, appended in order. Containers
/// are length-prefixed, so closing one writes nothing.
struct Writer<'a>(&'a mut Vec<u8>);

impl Writer<'_> {
    fn varint(&mut self, mut n: u64) {
        while n >= 0x80 {
            self.0.push(n as u8 | 0x80);
            n >>= 7;
        }
        self.0.push(n as u8);
    }

    fn tagged_len(&mut self, tag: u8, len: usize) {
        self.0.push(tag);
        self.varint(len as u64);
    }

    fn string(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
    }
}

impl Serializer for Writer<'_> {
    fn null(&mut self) {
        self.0.push(TAG_NULL);
    }
    fn bool(&mut self, v: bool) {
        self.0.push(if v { TAG_TRUE } else { TAG_FALSE });
    }
    fn int(&mut self, n: i64) {
        self.0.push(TAG_INT);
        self.varint(((n << 1) ^ (n >> 63)) as u64);
    }
    fn uint(&mut self, n: u64) {
        self.0.push(TAG_UINT);
        self.varint(n);
    }
    fn float(&mut self, f: f64) {
        self.0.push(TAG_FLOAT);
        self.0.extend_from_slice(&f.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.0.push(TAG_STR);
        self.string(s);
    }
    fn array(&mut self, len: usize) {
        self.tagged_len(TAG_ARRAY, len);
    }
    fn object(&mut self, len: usize) {
        self.tagged_len(TAG_OBJECT, len);
    }
    fn key(&mut self, key: &str) {
        self.string(key);
    }
    fn end(&mut self) {}
}

/// Decodes a whole binary snapshot (magic included) as a `T`.
///
/// # Errors
///
/// [`PersistError::WrongFormat`] when the bytes do not start with
/// [`MAGIC`]; [`PersistError::Malformed`] for truncation, an impossible
/// length, an unknown tag, invalid UTF-8, an over-long varint, nesting past
/// [`MAX_DEPTH`], trailing bytes, or events that are not a valid `T`.
pub(super) fn decode<T: Deserialize>(bytes: &[u8]) -> Result<T, PersistError> {
    let mut reader = Reader::new(bytes)?;
    let value = T::deserialize(&mut reader).map_err(|e| PersistError::Malformed(e.to_string()))?;
    if reader.pos != bytes.len() {
        return Err(PersistError::Malformed(
            reader
                .error("trailing bytes after the snapshot")
                .to_string(),
        ));
    }
    Ok(value)
}

/// The decoding source: yields the events of the value after [`MAGIC`].
pub(super) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the cursor.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned after the magic.
    ///
    /// # Errors
    ///
    /// [`PersistError::WrongFormat`] when the bytes do not start with
    /// [`MAGIC`]; [`PersistError::Malformed`] when they stop inside it.
    pub(super) fn new(bytes: &'a [u8]) -> Result<Self, PersistError> {
        let head = &bytes[..bytes.len().min(MAGIC.len())];
        if head != &MAGIC[..head.len()] {
            return Err(PersistError::WrongFormat(format!(
                "binary magic {head:02x?}"
            )));
        }
        let reader = Reader {
            bytes,
            pos: head.len(),
            depth: 0,
        };
        if head.len() < MAGIC.len() {
            return Err(PersistError::Malformed(
                reader.error("truncated magic").to_string(),
            ));
        }
        Ok(reader)
    }

    fn error(&self, what: &str) -> DeError {
        DeError::custom(format!("binary snapshot: {what} at byte {}", self.pos))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DeError> {
        if n > self.remaining() {
            return Err(self.error("truncated"));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn byte(&mut self) -> Result<u8, DeError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.error("truncated"))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, DeError> {
        let mut n = 0u64;
        let mut shift = 0;
        loop {
            let b = self.byte()?;
            // The tenth byte carries bit 63 alone.
            if shift == 63 && b > 1 {
                return Err(self.error("varint overflows 64 bits"));
            }
            n |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(n);
            }
            shift += 7;
        }
    }

    /// A length prefix whose items need at least `min_item_bytes` each,
    /// checked against the bytes remaining so a forged length can never
    /// drive an allocation larger than the input.
    fn len(&mut self, min_item_bytes: usize) -> Result<usize, DeError> {
        let n = self.varint()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.remaining() / min_item_bytes => Ok(n),
            _ => Err(self.error(&format!("length {n} exceeds the bytes remaining"))),
        }
    }

    fn str(&mut self) -> Result<&'a str, DeError> {
        let len = self.len(1)?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| self.error("invalid UTF-8 in a string"))
    }

    /// Enters a container, bounding the nesting before its length is read.
    fn open(&mut self) -> Result<(), DeError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        Ok(())
    }
}

impl Deserializer for Reader<'_> {
    fn event(&mut self) -> Result<Event<'_>, DeError> {
        Ok(match self.byte()? {
            TAG_NULL => Event::Null,
            TAG_FALSE => Event::Bool(false),
            TAG_TRUE => Event::Bool(true),
            TAG_INT => {
                let z = self.varint()?;
                Event::Int((z >> 1) as i64 ^ -((z & 1) as i64))
            }
            TAG_UINT => Event::UInt(self.varint()?),
            TAG_FLOAT => {
                let bits: [u8; 8] = self.take(8)?.try_into().expect("take(8) yields 8 bytes");
                Event::Float(f64::from_le_bytes(bits))
            }
            TAG_STR => Event::Str(self.str()?),
            TAG_ARRAY => {
                self.open()?;
                // Every item is at least its tag byte.
                Event::Array(self.len(1)?)
            }
            TAG_OBJECT => {
                self.open()?;
                // Every entry is at least a key length and a value tag.
                Event::Object(self.len(2)?)
            }
            tag => {
                self.pos -= 1;
                return Err(self.error(&format!("unknown tag {tag:#04x}")));
            }
        })
    }

    fn take_null(&mut self) -> Result<bool, DeError> {
        let null = self.bytes.get(self.pos) == Some(&TAG_NULL);
        if null {
            self.pos += 1;
        }
        Ok(null)
    }

    fn key(&mut self) -> Result<&str, DeError> {
        self.str()
    }

    fn end(&mut self) -> Result<(), DeError> {
        self.depth = self
            .depth
            .checked_sub(1)
            .ok_or_else(|| self.error("no container to close"))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn roundtrip(value: &Value) -> Value {
        decode(&encode(value)).expect("encoded tree decodes")
    }

    #[test]
    fn every_value_kind_roundtrips_bit_exactly() {
        let floats = [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_dead_beef_0001), // NaN with a payload
        ];
        let tree = Value::Object(vec![
            ("null".into(), Value::Null),
            (
                "bools".into(),
                Value::Array(vec![Value::Bool(false), Value::Bool(true)]),
            ),
            (
                "ints".into(),
                Value::Array(
                    [0, 1, -1, 63, -64, 64, i64::MAX, i64::MIN]
                        .into_iter()
                        .map(Value::Int)
                        .collect(),
                ),
            ),
            ("uint".into(), Value::UInt(u64::MAX)),
            ("str".into(), Value::Str("héllo \"wire\"\n".into())),
            ("empty".into(), Value::Object(Vec::new())),
            (
                "floats".into(),
                Value::Array(floats.iter().map(|&f| Value::Float(f)).collect()),
            ),
        ]);
        let back = roundtrip(&tree);
        let Some(Value::Array(got)) = back.get("floats") else {
            panic!("floats array survives");
        };
        for (f, g) in floats.iter().zip(got) {
            assert!(matches!(g, Value::Float(g) if g.to_bits() == f.to_bits()));
        }
        // NaN != NaN, so compare the rest of the tree without the floats.
        let strip = |v: Value| match v {
            Value::Object(entries) => entries
                .into_iter()
                .filter(|(k, _)| k != "floats")
                .collect::<Vec<_>>(),
            _ => unreachable!(),
        };
        assert_eq!(strip(back), strip(tree));
    }

    /// The cases the hostile-input property suite in
    /// `tests/persist_roundtrip.rs` does not reach: an unknown tag, invalid
    /// UTF-8, trailing bytes, and the exact nesting boundary.
    #[test]
    fn hostile_inputs_are_typed_errors() {
        let malformed =
            |bytes: &[u8]| matches!(decode::<Value>(bytes), Err(PersistError::Malformed(_)));
        let with_magic = |body: &[u8]| [&MAGIC[..], body].concat();

        assert!(malformed(&with_magic(&[0x2a])));
        assert!(malformed(&with_magic(&[TAG_STR, 0x02, 0xc3, 0x28])));
        assert!(malformed(&with_magic(&[TAG_NULL, TAG_NULL])));
        // Nesting: MAX_DEPTH levels decode, one more is rejected.
        let nested = |levels: usize| {
            let mut body = Vec::new();
            for _ in 0..levels {
                body.extend_from_slice(&[TAG_ARRAY, 0x01]);
            }
            body.push(TAG_NULL);
            with_magic(&body)
        };
        assert!(decode::<Value>(&nested(MAX_DEPTH)).is_ok());
        assert!(malformed(&nested(MAX_DEPTH + 1)));
    }
}
