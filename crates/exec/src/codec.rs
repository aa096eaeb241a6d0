//! Little-endian binary encoding shared by every durable format of the
//! workspace: snapshots (`lcdb-recover`), the store's log records and
//! catalog image (`lcdb-store`), arrangement blobs (`lcdb-core`).
//!
//! Writers append to a `Vec<u8>`; the reader is one bounds-checked
//! [`Cursor`] whose every failure is a [`CodecError`] naming the field being
//! read and the *absolute byte offset* at which the bytes ran out, so a
//! truncated or corrupt file is diagnosable without a hex dump. Decoding
//! never panics and never allocates for a length the remaining bytes cannot
//! back.

/// Append one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian u32.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian u64.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Length-prefixed byte string (u64 length).
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// What a [`Cursor`] reports. Each format's own error type (`RecoverError`,
/// `StoreError`) converts from this and is what callers see and print.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes ended in the middle of a field.
    Truncated {
        /// The cursor's record label when the bytes ran out.
        label: &'static str,
        /// Absolute byte offset at which the reader ran out of bytes.
        offset: u64,
        /// What was being read.
        context: &'static str,
    },
    /// A structurally invalid value: an impossible length prefix, a
    /// non-UTF-8 string, trailing bytes.
    Malformed {
        /// What was being read.
        context: &'static str,
        /// Human-readable detail, with the offending offset.
        message: String,
    },
}

/// A bounds-checked little-endian reader over a byte slice that starts at
/// absolute offset `base` of the record (file, blob) called `label`.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    base: u64,
    label: &'static str,
}

impl<'a> Cursor<'a> {
    /// A cursor over `buf`, which starts at offset 0 of `label`.
    pub fn new(buf: &'a [u8], label: &'static str) -> Self {
        Cursor::with_base(buf, 0, label)
    }

    /// A cursor whose slice starts at absolute offset `base` within `label`.
    pub fn with_base(buf: &'a [u8], base: u64, label: &'static str) -> Self {
        Cursor {
            buf,
            pos: 0,
            base,
            label,
        }
    }

    /// Rename the record being decoded — once a kind tag has been read,
    /// later truncation reports name that kind.
    pub fn set_label(&mut self, label: &'static str) {
        self.label = label;
    }

    /// Absolute offset of the next unread byte.
    pub fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` raw bytes.
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                label: self.label,
                offset: self.offset(),
                context,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, context)?[0])
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, CodecError> {
        let mut a = [0u8; 4];
        a.copy_from_slice(self.take(4, context)?);
        Ok(u32::from_le_bytes(a))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, CodecError> {
        let mut a = [0u8; 8];
        a.copy_from_slice(self.take(8, context)?);
        Ok(u64::from_le_bytes(a))
    }

    /// Read a u64 length or count, rejecting values the remaining bytes
    /// cannot back (every counted item occupies at least one byte) — a
    /// plausibility check that turns a corrupted length into a typed error
    /// instead of a giant allocation.
    pub fn len_prefix(&mut self, context: &'static str) -> Result<usize, CodecError> {
        let at = self.offset();
        let len = self.u64(context)?;
        if len > self.remaining() as u64 {
            return Err(CodecError::Malformed {
                context,
                message: format!(
                    "length prefix {len} at byte offset {at} exceeds the {} bytes that remain",
                    self.remaining()
                ),
            });
        }
        Ok(len as usize)
    }

    /// Read a count (checked like [`Cursor::len_prefix`]) and then that
    /// many items, each with `item`.
    pub fn seq<T, E: From<CodecError>>(
        &mut self,
        context: &'static str,
        mut item: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.len_prefix(context)?;
        (0..n).map(|_| item(self)).collect()
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self, context: &'static str) -> Result<&'a [u8], CodecError> {
        let len = self.len_prefix(context)?;
        self.take(len, context)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self, context: &'static str) -> Result<String, CodecError> {
        let at = self.offset();
        let bytes = self.bytes(context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Malformed {
            context,
            message: format!("string at byte offset {at} is not valid UTF-8"),
        })
    }

    /// Assert the record was fully consumed.
    pub fn done(&self, context: &'static str) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::Malformed {
                context,
                message: format!(
                    "{} trailing bytes at byte offset {}",
                    self.remaining(),
                    self.offset()
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn writers_and_cursor_roundtrip() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 0xdead_beef);
        put_u64(&mut out, u64::MAX - 1);
        put_bytes(&mut out, &[1, 2, 3]);
        put_str(&mut out, "région");
        let mut c = Cursor::new(&out, "test");
        assert_eq!(c.u8("a").unwrap(), 7);
        assert_eq!(c.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(c.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(c.bytes("d").unwrap(), &[1, 2, 3]);
        assert_eq!(c.string("e").unwrap(), "région");
        c.done("test record").unwrap();

        let mut out = Vec::new();
        put_u64(&mut out, 2);
        put_str(&mut out, "x");
        put_str(&mut out, "y");
        let mut c = Cursor::new(&out, "test");
        let names: Result<Vec<String>, CodecError> = c.seq("names", |c| c.string("name"));
        assert_eq!(names.unwrap(), ["x", "y"]);
    }

    #[test]
    fn short_reads_name_label_context_and_absolute_offset() {
        let mut c = Cursor::with_base(&[1, 2, 3], 100, "header");
        assert_eq!(c.u8("tag").unwrap(), 1);
        c.set_label("body");
        assert_eq!(
            c.u64("count"),
            Err(CodecError::Truncated {
                label: "body",
                offset: 101,
                context: "count",
            })
        );
        // A failed read consumes nothing.
        assert_eq!(c.remaining(), 2);
        assert!(matches!(c.done("rec"), Err(CodecError::Malformed { .. })));
    }

    #[test]
    fn implausible_lengths_and_bad_utf8_are_malformed() {
        let mut out = Vec::new();
        put_u64(&mut out, u64::MAX);
        assert!(matches!(
            Cursor::new(&out, "t").len_prefix("entry count"),
            Err(CodecError::Malformed {
                context: "entry count",
                ..
            })
        ));
        let mut out = Vec::new();
        put_bytes(&mut out, &[0xff, 0xfe]);
        let err = Cursor::new(&out, "t").string("name").unwrap_err();
        assert!(
            matches!(&err, CodecError::Malformed { message, .. } if message.contains("UTF-8")),
            "{err:?}"
        );
    }
}
