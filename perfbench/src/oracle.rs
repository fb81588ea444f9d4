//! The correctness oracle: key naming, the per-connection version check and
//! the scan check.
//!
//! Every workload preloads keys `1..=records` at version 0 and afterwards
//! only overwrites them, so the key set never changes. Each key has exactly
//! one writing connection, which stamps its sets with versions 1, 2, 3, …

use std::sync::atomic::{AtomicU32, Ordering};

use crate::codec::Codec;

/// Key text on the wire: fixed width, so byte order is numeric order.
pub fn key_text(id: u32) -> String {
    format!("k{id:08}")
}

pub fn parse_key(text: &[u8]) -> Option<u32> {
    let digits = text.strip_prefix(b"k")?;
    if digits.len() != 8 || !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    std::str::from_utf8(digits).ok()?.parse().ok()
}

/// The same key as the store sees it: the text, zero-padded to 32 bytes.
pub fn store_key(id: u32) -> kvstore::Key {
    let mut k = [0u8; 32];
    let t = key_text(id);
    k[..t.len()].copy_from_slice(t.as_bytes());
    k
}

/// The newest version each key's writer has put on the wire. A reply may
/// never carry a version above it.
pub struct Issued(Box<[AtomicU32]>);

impl Issued {
    pub fn new(records: u32) -> Issued {
        Issued((0..=records).map(|_| AtomicU32::new(0)).collect())
    }

    /// Called by the key's writer before the set leaves the client.
    pub fn publish(&self, key: u32, version: u32) {
        self.0[key as usize].store(version, Ordering::Release);
    }

    pub fn get(&self, key: u32) -> u32 {
        self.0[key as usize].load(Ordering::Acquire)
    }
}

/// What one connection has seen of each key. Versions a connection
/// observes may never go backwards: a later read must return the version
/// of that connection's own acked set, or one newer.
pub struct Seen(Vec<u32>);

impl Seen {
    pub fn new(records: u32) -> Seen {
        Seen(vec![0; records as usize + 1])
    }

    pub fn observe(&mut self, key: u32, version: u32, issued: &Issued) -> Result<(), String> {
        let last = self.0[key as usize];
        if version < last {
            return Err(format!(
                "{}: read version {version} after seeing {last}",
                key_text(key)
            ));
        }
        let newest = issued.get(key);
        if version > newest {
            return Err(format!(
                "{}: read version {version}, never written (newest sent {newest})",
                key_text(key)
            ));
        }
        self.0[key as usize] = version;
        Ok(())
    }
}

/// The ids a `scan lo hi limit` must return: the first `limit` keys of
/// `lo..=hi`, all of which are preloaded when they are at most `records`.
pub fn expected_scan(
    lo: u32,
    hi: u32,
    limit: usize,
    records: u32,
) -> std::ops::RangeInclusive<u32> {
    let last = hi
        .min(records)
        .min(lo.saturating_add(limit as u32).saturating_sub(1));
    lo..=last
}

/// Checks one scan reply (`(key text, value)` rows in reply order) and
/// returns each row's `(key, version)`.
pub fn check_scan(
    rows: &[(&[u8], &[u8])],
    lo: u32,
    hi: u32,
    limit: usize,
    records: u32,
    codec: &Codec,
) -> Result<Vec<(u32, u32)>, String> {
    let expected = expected_scan(lo, hi, limit, records);
    let want = expected.clone().count();
    if rows.len() != want {
        return Err(format!(
            "scan {lo}..={hi} limit {limit}: {} rows, expected {want}",
            rows.len()
        ));
    }
    rows.iter()
        .zip(expected)
        .map(|(&(key, value), id)| {
            if parse_key(key) != Some(id) {
                return Err(format!(
                    "scan {lo}..={hi}: row {:?} where {} belongs",
                    String::from_utf8_lossy(key),
                    key_text(id)
                ));
            }
            match codec.decode(value) {
                Ok((k, v)) if k == id => Ok((k, v)),
                Ok((k, _)) => Err(format!(
                    "scan row {} holds the value of {}",
                    key_text(id),
                    key_text(k)
                )),
                Err(e) => Err(format!("scan row {}: {e}", key_text(id))),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_text_orders_numerically() {
        assert_eq!(key_text(7), "k00000007");
        assert!(key_text(9) < key_text(10));
        assert_eq!(parse_key(b"k00000010"), Some(10));
        assert_eq!(parse_key(b"k0000010"), None);
        assert_eq!(parse_key(b"x00000010"), None);
        assert_eq!(&store_key(3)[..9], b"k00000003");
        assert!(store_key(3)[9..].iter().all(|&b| b == 0));
    }

    #[test]
    fn versions_never_go_back_and_never_run_ahead() {
        let issued = Issued::new(10);
        let mut seen = Seen::new(10);
        assert!(seen.observe(4, 0, &issued).is_ok());
        assert!(seen.observe(4, 1, &issued).is_err()); // never written
        issued.publish(4, 2);
        assert!(seen.observe(4, 2, &issued).is_ok());
        assert!(seen.observe(4, 1, &issued).is_err()); // went back
        assert!(seen.observe(4, 2, &issued).is_ok());
    }

    #[test]
    fn scan_oracle_takes_the_first_page() {
        assert_eq!(expected_scan(10, 1009, 100, 100_000), 10..=109);
        assert_eq!(expected_scan(10, 19, 100, 100_000), 10..=19);
        assert_eq!(
            expected_scan(99_990, 100_989, 100, 100_000),
            99_990..=100_000
        );

        let codec = Codec::new(64);
        let keys: Vec<String> = (5..=7).map(key_text).collect();
        let values: Vec<Vec<u8>> = (5..=7).map(|k| codec.encode(k, k - 4)).collect();
        let rows: Vec<(&[u8], &[u8])> = keys
            .iter()
            .zip(&values)
            .map(|(k, v)| (k.as_bytes(), v.as_slice()))
            .collect();
        assert_eq!(
            check_scan(&rows, 5, 100, 3, 1000, &codec),
            Ok(vec![(5, 1), (6, 2), (7, 3)])
        );
        // Too few rows, a skipped key, a wrong value, rows out of order.
        assert!(check_scan(&rows[..2], 5, 100, 3, 1000, &codec).is_err());
        assert!(check_scan(&rows, 4, 100, 3, 1000, &codec).is_err());
        let mut swapped = rows.clone();
        swapped[1].1 = rows[2].1;
        assert!(check_scan(&swapped, 5, 100, 3, 1000, &codec).is_err());
        let mut reordered = rows.clone();
        reordered.swap(0, 1);
        assert!(check_scan(&reordered, 5, 100, 3, 1000, &codec).is_err());
        // The range ends inside the preloaded keys: fewer rows are right.
        assert_eq!(
            check_scan(&rows[..2], 5, 6, 3, 1000, &codec).unwrap().len(),
            2
        );
        assert_eq!(
            check_scan(&rows[..2], 5, 100, 3, 6, &codec).unwrap().len(),
            2
        );
    }
}
