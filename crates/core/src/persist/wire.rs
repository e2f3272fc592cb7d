//! The binary snapshot wire format: a compact, self-describing encoding of
//! the [`serde::Value`] tree a [`PipelineSnapshot`](super::PipelineSnapshot)
//! serializes to. The tree — and so every field name, field-defaulting rule
//! and schema check — is the one the JSON form uses; only the bytes differ.
//! The byte layout is tabled in the parent module's "Wire format" section.
//!
//! Decoding treats its input as hostile: every length is checked against
//! the bytes remaining before anything is allocated for it, varints longer
//! than 64 bits and nesting deeper than [`MAX_DEPTH`] are rejected, and
//! every failure is a typed [`PersistError`], never a panic.

use serde::Value;

use super::PersistError;

/// Leads every binary snapshot. The first byte is not ASCII, so the magic
/// can never be mistaken for the `{` that opens a legacy JSON snapshot;
/// the last byte numbers the encoding (the *schema* version lives in the
/// tree, as in JSON).
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
pub(super) fn encode(value: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(&MAGIC);
    write_value(&mut out, value);
    out
}

fn write_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        &Value::Int(n) => {
            out.push(TAG_INT);
            write_varint(out, ((n << 1) ^ (n >> 63)) as u64);
        }
        Value::UInt(n) => {
            out.push(TAG_UINT);
            write_varint(out, *n);
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            write_str(out, s);
        }
        Value::Array(items) => {
            out.push(TAG_ARRAY);
            write_varint(out, items.len() as u64);
            for item in items {
                write_value(out, item);
            }
        }
        Value::Object(entries) => {
            out.push(TAG_OBJECT);
            write_varint(out, entries.len() as u64);
            for (key, item) in entries {
                write_str(out, key);
                write_value(out, item);
            }
        }
    }
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn write_varint(out: &mut Vec<u8>, mut n: u64) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// Decodes a whole binary snapshot (magic included) into its value tree.
///
/// # Errors
///
/// [`PersistError::WrongFormat`] when the bytes do not start with
/// [`MAGIC`]; [`PersistError::Malformed`] for truncation, an impossible
/// length, an unknown tag, invalid UTF-8, an over-long varint, nesting past
/// [`MAX_DEPTH`] or trailing bytes.
pub(super) fn decode(bytes: &[u8]) -> Result<Value, PersistError> {
    let head = &bytes[..bytes.len().min(MAGIC.len())];
    if head != &MAGIC[..head.len()] {
        return Err(PersistError::WrongFormat(format!(
            "binary magic {head:02x?}"
        )));
    }
    let mut reader = Reader {
        bytes,
        pos: head.len(),
    };
    if head.len() < MAGIC.len() {
        return Err(reader.malformed("truncated magic"));
    }
    let value = reader.value(0)?;
    if reader.pos != bytes.len() {
        return Err(reader.malformed("trailing bytes after the snapshot"));
    }
    Ok(value)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn malformed(&self, what: &str) -> PersistError {
        PersistError::Malformed(format!("binary snapshot: {what} at byte {}", self.pos))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if n > self.remaining() {
            return Err(self.malformed("truncated"));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn byte(&mut self) -> Result<u8, PersistError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.malformed("truncated"))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, PersistError> {
        let mut n = 0u64;
        let mut shift = 0;
        loop {
            let b = self.byte()?;
            // The tenth byte carries bit 63 alone.
            if shift == 63 && b > 1 {
                return Err(self.malformed("varint overflows 64 bits"));
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
    fn len(&mut self, min_item_bytes: usize) -> Result<usize, PersistError> {
        let n = self.varint()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.remaining() / min_item_bytes => Ok(n),
            _ => Err(self.malformed(&format!("length {n} exceeds the bytes remaining"))),
        }
    }

    fn str(&mut self) -> Result<String, PersistError> {
        let len = self.len(1)?;
        let bytes = self.take(len)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(self.malformed("invalid UTF-8 in a string")),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, PersistError> {
        match self.byte()? {
            TAG_NULL => Ok(Value::Null),
            TAG_FALSE => Ok(Value::Bool(false)),
            TAG_TRUE => Ok(Value::Bool(true)),
            TAG_INT => {
                let z = self.varint()?;
                Ok(Value::Int((z >> 1) as i64 ^ -((z & 1) as i64)))
            }
            TAG_UINT => Ok(Value::UInt(self.varint()?)),
            TAG_FLOAT => {
                let bits: [u8; 8] = self.take(8)?.try_into().expect("take(8) yields 8 bytes");
                Ok(Value::Float(f64::from_le_bytes(bits)))
            }
            TAG_STR => Ok(Value::Str(self.str()?)),
            TAG_ARRAY | TAG_OBJECT if depth >= MAX_DEPTH => {
                Err(self.malformed(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            TAG_ARRAY => {
                // Every item is at least its tag byte.
                let n = self.len(1)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::Array(items))
            }
            TAG_OBJECT => {
                // Every entry is at least a key length and a value tag.
                let n = self.len(2)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let key = self.str()?;
                    entries.push((key, self.value(depth + 1)?));
                }
                Ok(Value::Object(entries))
            }
            tag => {
                self.pos -= 1;
                Err(self.malformed(&format!("unknown tag {tag:#04x}")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let malformed = |bytes: &[u8]| matches!(decode(bytes), Err(PersistError::Malformed(_)));
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
        assert!(decode(&nested(MAX_DEPTH)).is_ok());
        assert!(malformed(&nested(MAX_DEPTH + 1)));
    }
}
