//! The framing both binary formats share, `SSTVEC1` ([`crate::vector`])
//! and `SSTSNAP2` ([`crate::snapshot`]): a little-endian body sealed by
//! an 8-byte FNV-1a checksum trailer.
//!
//! [`unseal`] verifies the trailer before a single field is parsed, so a
//! flipped byte anywhere is a checksum error, never an arbitrary
//! downstream parse error. The [`Cursor`] it returns bounds-checks every
//! read, and [`Cursor::finish`] requires the body to be consumed exactly.
//! Each format converts a [`Framing`] failure into its own error enum.

/// A framing failure of a sealed body.
#[derive(Debug)]
pub(crate) enum Framing {
    /// The input ended before the named field.
    Truncated(&'static str),
    /// The stored checksum does not match the body.
    Checksum { expected: u64, actual: u64 },
    /// Bytes left over after the last field.
    TrailingBytes(usize),
}

/// The FNV-1a offset basis: the checksum of an empty body.
pub(crate) const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over `bytes`: the checksum of the trailer.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_BASIS, bytes)
}

/// The FNV-1a checksum `hash` of a body, extended by `bytes`, so an
/// encoder can checksum its output as it writes it.
pub(crate) fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Splits the checksum trailer off `bytes`, verifies it, and returns a
/// cursor over the body it seals.
pub(crate) fn unseal(bytes: &[u8]) -> Result<Cursor<'_>, Framing> {
    let body_len = bytes
        .len()
        .checked_sub(8)
        .ok_or(Framing::Truncated("checksum"))?;
    let mut trailer = Cursor::new(bytes.get(body_len..).unwrap_or(&[]));
    let expected = trailer.u64("checksum")?;
    let body = bytes.get(..body_len).unwrap_or(&[]);
    let actual = fnv1a(body);
    if expected != actual {
        return Err(Framing::Checksum { expected, actual });
    }
    Ok(Cursor::new(body))
}

/// Byte-slice cursor for the loaders; every read is bounds-checked.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], Framing> {
        let end = self.pos.saturating_add(n);
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(Framing::Truncated(what))?;
        self.pos = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], Framing> {
        let mut le = [0u8; N];
        le.copy_from_slice(self.take(N, what)?);
        Ok(le)
    }

    pub(crate) fn u8(&mut self, what: &'static str) -> Result<u8, Framing> {
        Ok(u8::from_le_bytes(self.array(what)?))
    }

    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, Framing> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, Framing> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    pub(crate) fn f64(&mut self, what: &'static str) -> Result<f64, Framing> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Fails unless every byte has been read.
    pub(crate) fn finish(&self) -> Result<(), Framing> {
        match self.bytes.len().saturating_sub(self.pos) {
            0 => Ok(()),
            left => Err(Framing::TrailingBytes(left)),
        }
    }
}
