//! Self-describing values. Every value names its key, its per-key version
//! and a checksum, so any reply — a `get`, a scan row, a value read back
//! after recovery — can be checked on its own.
//!
//! Layout (ASCII, so it survives the text protocol unchanged):
//! `kkkkkkkk.vvvvvvvv.cccccccccccccccc.` then filler up to the value length.
//! `k` is the key id and `v` the version, both hex; `c` is the checksum over
//! the two fields and the filler. The filler is one of a few fixed blocks,
//! chosen by key and version, so encoding and checking cost a copy and a
//! compare rather than hashing kilobytes per request.

use std::fmt;

/// Bytes taken by the key, version and checksum fields.
pub const HEADER_LEN: usize = 35;
const FIELDS_LEN: usize = 18;
const FILLERS: usize = 16;

#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    Length { expected: usize, got: usize },
    Header,
    Checksum,
    Filler,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Length { expected, got } => {
                write!(f, "value length {got}, expected {expected}")
            }
            DecodeError::Header => write!(f, "value header does not parse"),
            DecodeError::Checksum => write!(f, "value checksum mismatch"),
            DecodeError::Filler => write!(f, "value filler corrupted"),
        }
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Encoder and checker for values of one fixed length.
pub struct Codec {
    len: usize,
    fillers: Vec<Vec<u8>>,
    filler_sums: Vec<u64>,
}

impl Codec {
    pub fn new(len: usize) -> Codec {
        assert!(
            len >= HEADER_LEN,
            "values must hold the {HEADER_LEN}-byte header"
        );
        let mut state = 0x005e_edf1_11e4_u64;
        let fillers: Vec<Vec<u8>> = (0..FILLERS)
            .map(|_| {
                (HEADER_LEN..len)
                    .map(|_| b'a' + (splitmix64(&mut state) % 26) as u8)
                    .collect()
            })
            .collect();
        let filler_sums = fillers.iter().map(|f| fnv1a(f)).collect();
        Codec {
            len,
            fillers,
            filler_sums,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    fn filler_index(key: u32, version: u32) -> usize {
        (key.wrapping_mul(0x9e37_79b1) ^ version) as usize % FILLERS
    }

    fn checksum(&self, fields: &[u8], filler: usize) -> u64 {
        fnv1a(fields) ^ self.filler_sums[filler].rotate_left(17)
    }

    /// Appends the value for `key` at `version` to `out`.
    pub fn encode_into(&self, key: u32, version: u32, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(format!("{key:08x}.{version:08x}.").as_bytes());
        let filler = Self::filler_index(key, version);
        let sum = self.checksum(&out[start..], filler);
        out.extend_from_slice(format!("{sum:016x}.").as_bytes());
        out.extend_from_slice(&self.fillers[filler]);
    }

    pub fn encode(&self, key: u32, version: u32) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.len);
        self.encode_into(key, version, &mut v);
        v
    }

    /// Checks a value and returns the `(key, version)` it carries.
    pub fn decode(&self, bytes: &[u8]) -> Result<(u32, u32), DecodeError> {
        if bytes.len() != self.len {
            return Err(DecodeError::Length {
                expected: self.len,
                got: bytes.len(),
            });
        }
        let field = |range: std::ops::Range<usize>| {
            std::str::from_utf8(&bytes[range])
                .ok()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or(DecodeError::Header)
        };
        if bytes[8] != b'.' || bytes[17] != b'.' || bytes[34] != b'.' {
            return Err(DecodeError::Header);
        }
        let key = field(0..8)? as u32;
        let version = field(9..17)? as u32;
        let sum = field(18..34)?;
        let filler = Self::filler_index(key, version);
        if sum != self.checksum(&bytes[..FIELDS_LEN], filler) {
            return Err(DecodeError::Checksum);
        }
        if bytes[HEADER_LEN..] != self.fillers[filler][..] {
            return Err(DecodeError::Filler);
        }
        Ok((key, version))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_at_both_value_sizes() {
        for len in [64, 4096] {
            let c = Codec::new(len);
            for (key, version) in [(1, 0), (99_999, 7), (u32::MAX, u32::MAX)] {
                let v = c.encode(key, version);
                assert_eq!(v.len(), len);
                assert!(v.is_ascii());
                assert_eq!(c.decode(&v), Ok((key, version)));
            }
        }
    }

    #[test]
    fn rejects_every_kind_of_damage() {
        let c = Codec::new(64);
        let good = c.encode(42, 3);
        assert_eq!(
            c.decode(&good[..63]),
            Err(DecodeError::Length {
                expected: 64,
                got: 63
            })
        );
        let mut bad = good.clone();
        bad[3] = b'z';
        assert_eq!(c.decode(&bad), Err(DecodeError::Header));
        // A different key with the old checksum: caught by the sum.
        let mut bad = good.clone();
        bad[7] = b'b';
        assert_eq!(c.decode(&bad), Err(DecodeError::Checksum));
        let mut bad = good.clone();
        bad[63] ^= 1;
        assert_eq!(c.decode(&bad), Err(DecodeError::Filler));
        // Another key's intact value still decodes — to that key, which
        // the caller compares against the key it asked for.
        assert_eq!(c.decode(&c.encode(43, 3)), Ok((43, 3)));
    }
}
