//! The line protocol spoken between [`crate::server`] and
//! [`crate::client`].
//!
//! Requests are single command lines terminated by `\n` (what a Telnet
//! driver would send). Responses are framed Redis-style so the client
//! never guesses at boundaries:
//!
//! ```text
//! +OK view=<current-view>\n         command accepted
//! -ERR <message>\n                  command rejected
//! *<n>\n<line-1>\n…<line-n>\n       n output lines follow
//! ```

use crate::framing::{read_frame, Frame, MAX_FRAME_BYTES};
use std::fmt;
use std::io::{self, BufRead, Write};

/// Upper bound on a declared output-block size. Real configuration dumps
/// are thousands of lines; anything past this is a corrupted frame.
/// Each individual line is additionally capped at
/// [`MAX_FRAME_BYTES`] by the shared frame reader.
pub const MAX_OUTPUT_LINES: usize = 1 << 20;

/// A framed server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Command accepted; the session is now in `view`.
    Ok { view: String },
    /// Command rejected.
    Err { message: String },
    /// Output block (e.g. a configuration dump).
    Output { lines: Vec<String> },
}

impl fmt::Display for Response {
    /// Renders the exact wire format documented in the module docs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Ok { view } => writeln!(f, "+OK view={view}"),
            Response::Err { message } => writeln!(f, "-ERR {message}"),
            Response::Output { lines } => {
                writeln!(f, "*{}", lines.len())?;
                for l in lines {
                    writeln!(f, "{l}")?;
                }
                Ok(())
            }
        }
    }
}

impl Response {
    /// Write the framed response to `w`.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(self.to_string().as_bytes())?;
        w.flush()
    }

    /// Read one framed response from `r`. Every line rides the shared
    /// bounded frame reader ([`crate::framing`]), so a hostile endless
    /// line is a typed error instead of an unbounded allocation.
    pub fn read_from(r: &mut impl BufRead) -> io::Result<Response> {
        let head = match read_frame(r, MAX_FRAME_BYTES)? {
            Frame::Line(line) => line,
            Frame::Eof => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ))
            }
        };
        let head = head.as_str();
        if let Some(rest) = head.strip_prefix("+OK view=") {
            return Ok(Response::Ok {
                view: rest.to_string(),
            });
        }
        if let Some(rest) = head.strip_prefix("-ERR ") {
            return Ok(Response::Err {
                message: rest.to_string(),
            });
        }
        if let Some(n) = head.strip_prefix('*') {
            let n: usize = n.parse().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad count line: {head}"),
                )
            })?;
            // A corrupted or hostile count line must not drive a huge
            // allocation or an unbounded read loop.
            if n > MAX_OUTPUT_LINES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("output block of {n} lines exceeds the {MAX_OUTPUT_LINES}-line cap"),
                ));
            }
            // Reserve conservatively: the declared count is untrusted
            // until the lines actually arrive.
            let mut lines = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                match read_frame(r, MAX_FRAME_BYTES)? {
                    Frame::Line(line) => lines.push(line),
                    Frame::Eof => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed inside output block",
                        ))
                    }
                }
            }
            return Ok(Response::Output { lines });
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unparseable response head: {head}"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn round_trip(resp: Response) {
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let mut reader = BufReader::new(buf.as_slice());
        assert_eq!(Response::read_from(&mut reader).unwrap(), resp);
    }

    #[test]
    fn ok_round_trips() {
        round_trip(Response::Ok {
            view: "BGP view".into(),
        });
    }

    #[test]
    fn err_round_trips() {
        round_trip(Response::Err {
            message: "unrecognized command".into(),
        });
    }

    #[test]
    fn output_round_trips() {
        round_trip(Response::Output {
            lines: vec!["bgp 65001".into(), " router-id 1.1.1.1".into()],
        });
        round_trip(Response::Output { lines: vec![] });
    }

    #[test]
    fn multiple_responses_stream() {
        let mut buf = Vec::new();
        Response::Ok { view: "a".into() }
            .write_to(&mut buf)
            .unwrap();
        Response::Err {
            message: "x".into(),
        }
        .write_to(&mut buf)
        .unwrap();
        let mut r = BufReader::new(buf.as_slice());
        assert!(matches!(
            Response::read_from(&mut r).unwrap(),
            Response::Ok { .. }
        ));
        assert!(matches!(
            Response::read_from(&mut r).unwrap(),
            Response::Err { .. }
        ));
    }

    #[test]
    fn eof_and_garbage_are_errors() {
        let mut r = BufReader::new(&b""[..]);
        assert!(Response::read_from(&mut r).is_err());
        let mut r = BufReader::new(&b"?what\n"[..]);
        assert!(Response::read_from(&mut r).is_err());
        let mut r = BufReader::new(&b"*2\nonly-one\n"[..]);
        assert!(Response::read_from(&mut r).is_err());
    }

    /// Malformed input must yield typed errors — never a panic, a hang,
    /// or a huge allocation.
    fn kind_of(bytes: &[u8]) -> std::io::ErrorKind {
        let mut r = BufReader::new(bytes);
        match Response::read_from(&mut r) {
            Err(e) => e.kind(),
            Ok(resp) => panic!("malformed input parsed as {resp:?}"),
        }
    }

    #[test]
    fn empty_stream_is_unexpected_eof() {
        assert_eq!(kind_of(b""), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn truncated_frames_are_typed_errors() {
        // Head cut off mid-token (EOF before the newline).
        assert_eq!(kind_of(b"+OK vi"), std::io::ErrorKind::InvalidData);
        // Output block shorter than declared.
        assert_eq!(
            kind_of(b"*3\none\ntwo\n"),
            std::io::ErrorKind::UnexpectedEof
        );
        // Count line truncated to bare `*`.
        assert_eq!(kind_of(b"*\n"), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_output_blocks_are_rejected_without_allocating() {
        // Within usize range but far past the cap: must be InvalidData,
        // not a multi-gigabyte Vec reservation.
        assert_eq!(
            kind_of(b"*9999999999\nx\n"),
            std::io::ErrorKind::InvalidData
        );
        // Count overflowing usize entirely.
        assert_eq!(
            kind_of(b"*99999999999999999999999999\n"),
            std::io::ErrorKind::InvalidData
        );
        // Exactly at the cap boundary + 1.
        let head = format!("*{}\n", MAX_OUTPUT_LINES + 1);
        assert_eq!(kind_of(head.as_bytes()), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn non_utf8_bytes_are_typed_errors() {
        assert_eq!(
            kind_of(b"+OK view=\xff\xfe\n"),
            std::io::ErrorKind::InvalidData
        );
        assert_eq!(
            kind_of(b"\xf0\x28\x8c\x28\n"),
            std::io::ErrorKind::InvalidData
        );
        // Non-UTF-8 inside an output block.
        assert_eq!(kind_of(b"*1\n\xff\xff\n"), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn endless_lines_are_capped_not_allocated() {
        // A head line longer than the frame cap must be a typed error,
        // not an unbounded accumulation.
        let mut huge = vec![b'a'; MAX_FRAME_BYTES + 16];
        huge.push(b'\n');
        assert_eq!(kind_of(&huge), std::io::ErrorKind::InvalidData);
        // Same inside an output block.
        let mut block = b"*1\n".to_vec();
        block.extend(std::iter::repeat_n(b'b', MAX_FRAME_BYTES + 16));
        block.push(b'\n');
        assert_eq!(kind_of(&block), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn negative_and_nonsense_counts_are_rejected() {
        assert_eq!(kind_of(b"*-1\nx\n"), std::io::ErrorKind::InvalidData);
        assert_eq!(kind_of(b"*two\n"), std::io::ErrorKind::InvalidData);
    }
}
