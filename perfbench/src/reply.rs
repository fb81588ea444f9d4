//! Incremental parsing of memcached text-protocol replies.

/// One parsed reply. Byte slices borrow the read buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Reply<'a> {
    Stored,
    /// `VALUE` records up to `END`, as `(key, data)`.
    Values(Vec<(&'a [u8], &'a [u8])>),
    /// An error line (`ERROR`, `CLIENT_ERROR …`, `SERVER_ERROR …`).
    Error(&'a [u8]),
}

/// The reply shape a request expects.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    Stored,
    Values,
}

fn line(buf: &[u8]) -> Option<(&[u8], usize)> {
    let nl = buf.windows(2).position(|w| w == b"\r\n")?;
    Some((&buf[..nl], nl + 2))
}

fn is_error(l: &[u8]) -> bool {
    l == b"ERROR" || l.starts_with(b"CLIENT_ERROR") || l.starts_with(b"SERVER_ERROR")
}

/// Parses one reply from the front of `buf`. `Ok(None)` means more bytes
/// are needed; `Err` means the stream is out of step and cannot be read on.
pub fn parse(buf: &[u8], expect: Expect) -> Result<Option<(Reply<'_>, usize)>, String> {
    let Some((first, mut used)) = line(buf) else {
        return Ok(None);
    };
    if is_error(first) {
        return Ok(Some((Reply::Error(first), used)));
    }
    match expect {
        Expect::Stored if first == b"STORED" => Ok(Some((Reply::Stored, used))),
        Expect::Stored => Err(format!(
            "expected STORED, got {:?}",
            String::from_utf8_lossy(first)
        )),
        Expect::Values => {
            let mut rows = Vec::new();
            let mut head = first;
            loop {
                if head == b"END" {
                    return Ok(Some((Reply::Values(rows), used)));
                }
                let mut parts = head.split(|&b| b == b' ');
                let (Some(b"VALUE"), Some(key), Some(_flags), Some(len), None) = (
                    parts.next(),
                    parts.next(),
                    parts.next(),
                    parts.next(),
                    parts.next(),
                ) else {
                    return Err(format!(
                        "bad value line {:?}",
                        String::from_utf8_lossy(head)
                    ));
                };
                let len: usize = std::str::from_utf8(len)
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad length in {:?}", String::from_utf8_lossy(head)))?;
                let data = used..used + len;
                if buf.len() < data.end + 2 {
                    return Ok(None);
                }
                if &buf[data.end..data.end + 2] != b"\r\n" {
                    return Err("value not followed by CRLF".into());
                }
                rows.push((key, &buf[data.clone()]));
                used = data.end + 2;
                let Some((next, n)) = line(&buf[used..]) else {
                    return Ok(None);
                };
                head = next;
                used += n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_split_and_pipelined_replies() {
        let stream = b"STORED\r\nVALUE k1 0 3\r\nabc\r\nEND\r\nEND\r\nSERVER_ERROR busy\r\n";
        let (r, n) = parse(stream, Expect::Stored).unwrap().unwrap();
        assert_eq!((r, n), (Reply::Stored, 8));
        let rest = &stream[8..];
        for cut in 0..24 {
            assert_eq!(
                parse(&rest[..cut], Expect::Values).unwrap(),
                None,
                "cut {cut}"
            );
        }
        let (r, n) = parse(rest, Expect::Values).unwrap().unwrap();
        assert_eq!(r, Reply::Values(vec![(&b"k1"[..], &b"abc"[..])]));
        let rest = &rest[n..];
        let (r, n) = parse(rest, Expect::Values).unwrap().unwrap();
        assert_eq!(r, Reply::Values(vec![]));
        let (r, _) = parse(&rest[n..], Expect::Stored).unwrap().unwrap();
        assert_eq!(r, Reply::Error(b"SERVER_ERROR busy"));
        assert!(parse(b"NOT_STORED\r\n", Expect::Stored).is_err());
        assert!(parse(b"VALUE k 0 2\r\nabcd\r\n", Expect::Values).is_err());
    }
}
