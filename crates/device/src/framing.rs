//! Bounded line-frame reading shared by the device protocol
//! ([`crate::protocol`]) and the serving protocol (`nassim-serve`).
//!
//! Both protocols frame messages as `\n`-terminated lines. The readers
//! here enforce two invariants that every consumer of an untrusted
//! socket needs:
//!
//! * a **byte cap** per frame ([`MAX_FRAME_BYTES`] by default) so a
//!   hostile peer writing an endless line cannot force an unbounded
//!   allocation, and
//! * **typed errors** for every malformed shape (oversized frame,
//!   non-UTF-8 bytes) — never a panic or a hang.
//!
//! Two readers cover the two server shapes in this workspace:
//!
//! * [`read_frame`] — blocking; for clients whose sockets carry a
//!   per-operation timeout (a timeout surfaces as the socket's own
//!   `WouldBlock`/`TimedOut` error);
//! * [`FrameAccumulator`] — poll-based; for server connection threads
//!   that read with a short socket timeout so they can re-check a
//!   shutdown flag between polls, keeping partial frames accumulated
//!   across polls (and capped) in the meantime.

use std::io::{self, BufRead};

/// Upper bound on one frame (one line including its terminator). A
/// serve-protocol request carrying a full manual submission is the
/// largest legitimate frame; 16 MiB leaves generous headroom while
/// still bounding a hostile endless line.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// One read frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete line, trailing `\r\n` trimmed. A final unterminated
    /// line before EOF is also surfaced as `Line` (matching the lenient
    /// behaviour of buffered line reads).
    Line(String),
    /// End of stream at a frame boundary.
    Eof,
}

fn oversized(max_bytes: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("frame exceeds the {max_bytes}-byte cap"),
    )
}

fn frame_from_bytes(buf: Vec<u8>) -> io::Result<Frame> {
    let text = String::from_utf8(buf)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("non-UTF-8 frame: {e}")))?;
    Ok(Frame::Line(text.trim_end_matches(['\r', '\n']).to_string()))
}

/// Read one `\n`-terminated frame from `r`, blocking until it is
/// complete. At most `max_bytes` are consumed; a longer line is a typed
/// `InvalidData` error (and the stream is no longer frame-aligned, so
/// the caller should drop the connection). EOF before any byte is
/// [`Frame::Eof`]; EOF after a partial line surfaces that partial line.
pub fn read_frame(r: &mut impl BufRead, max_bytes: usize) -> io::Result<Frame> {
    let mut buf: Vec<u8> = Vec::new();
    // Read through a cap-sized window: one extra byte distinguishes "the
    // newline landed exactly at the cap" from "the line is oversized".
    // `io::Read::take(&mut *r, ..)` (function-call form) keeps `Self` as
    // the reborrow `&mut impl BufRead`; method syntax would auto-deref
    // and try to move the reader out of the reference.
    let mut limited = io::Read::take(&mut *r, max_bytes as u64 + 1);
    let n = limited.read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(Frame::Eof);
    }
    if buf.len() > max_bytes {
        return Err(oversized(max_bytes));
    }
    frame_from_bytes(buf)
}

/// Poll-based frame reader for server connection threads.
///
/// The socket is expected to carry a short read timeout; [`poll`]
/// returns `Ok(None)` on such a timeout so the caller can re-check its
/// shutdown flag, keeping any partial frame accumulated (and capped at
/// `max_bytes`) for the next poll.
///
/// [`poll`]: FrameAccumulator::poll
#[derive(Debug)]
pub struct FrameAccumulator {
    buf: Vec<u8>,
    max_bytes: usize,
}

impl FrameAccumulator {
    pub fn new(max_bytes: usize) -> FrameAccumulator {
        FrameAccumulator {
            buf: Vec::new(),
            max_bytes,
        }
    }

    /// Bytes of an incomplete frame currently buffered. Non-zero at EOF
    /// means the peer disconnected mid-frame.
    pub fn partial_len(&self) -> usize {
        self.buf.len()
    }

    /// Try to complete one frame. Returns:
    ///
    /// * `Ok(Some(Frame::Line(..)))` — a full line arrived;
    /// * `Ok(Some(Frame::Eof))` — the peer closed (check
    ///   [`partial_len`](FrameAccumulator::partial_len) to distinguish a
    ///   clean close from a mid-frame disconnect);
    /// * `Ok(None)` — the socket's read timeout elapsed first; call
    ///   again after re-checking shutdown conditions;
    /// * `Err(..)` — oversized frame, non-UTF-8 bytes, or a socket
    ///   error.
    pub fn poll(&mut self, r: &mut impl BufRead) -> io::Result<Option<Frame>> {
        loop {
            let chunk = match r.fill_buf() {
                Ok(chunk) => chunk,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                return Ok(Some(Frame::Eof));
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    self.buf.extend_from_slice(&chunk[..=pos]);
                    r.consume(pos + 1);
                    if self.buf.len() > self.max_bytes {
                        self.buf.clear();
                        return Err(oversized(self.max_bytes));
                    }
                    let line = std::mem::take(&mut self.buf);
                    return frame_from_bytes(line).map(Some);
                }
                None => {
                    let len = chunk.len();
                    self.buf.extend_from_slice(chunk);
                    r.consume(len);
                    if self.buf.len() > self.max_bytes {
                        self.buf.clear();
                        return Err(oversized(self.max_bytes));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn reads_lines_and_eof() {
        let mut r = BufReader::new(&b"one\r\ntwo\nthree"[..]);
        assert_eq!(read_frame(&mut r, 64).unwrap(), Frame::Line("one".into()));
        assert_eq!(read_frame(&mut r, 64).unwrap(), Frame::Line("two".into()));
        // Final unterminated line surfaces, then EOF.
        assert_eq!(read_frame(&mut r, 64).unwrap(), Frame::Line("three".into()));
        assert_eq!(read_frame(&mut r, 64).unwrap(), Frame::Eof);
    }

    #[test]
    fn oversized_frames_are_typed_errors() {
        let big = vec![b'x'; 100];
        let mut r = BufReader::new(big.as_slice());
        let err = read_frame(&mut r, 32).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A newline exactly at the cap is fine.
        let mut line = vec![b'y'; 31];
        line.push(b'\n');
        let mut r = BufReader::new(line.as_slice());
        assert_eq!(read_frame(&mut r, 32).unwrap(), Frame::Line("y".repeat(31)));
    }

    #[test]
    fn non_utf8_frames_are_typed_errors() {
        let mut r = BufReader::new(&b"\xff\xfe\n"[..]);
        let err = read_frame(&mut r, 32).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn accumulator_assembles_split_frames() {
        // Feed the frame in two pieces through a reader that yields
        // WouldBlock between them, as a slow-loris peer would.
        struct TwoPhase {
            phase: usize,
        }
        impl io::Read for TwoPhase {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let data: &[u8] = match self.phase {
                    0 => b"hel",
                    1 => {
                        self.phase += 1;
                        return Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"));
                    }
                    2 => b"lo\n",
                    _ => b"",
                };
                self.phase += 1;
                buf[..data.len()].copy_from_slice(data);
                Ok(data.len())
            }
        }
        let mut r = BufReader::new(TwoPhase { phase: 0 });
        let mut acc = FrameAccumulator::new(64);
        assert_eq!(acc.poll(&mut r).unwrap(), None); // timeout, partial kept
        assert_eq!(acc.partial_len(), 3);
        assert_eq!(acc.poll(&mut r).unwrap(), Some(Frame::Line("hello".into())));
        assert_eq!(acc.partial_len(), 0);
        assert_eq!(acc.poll(&mut r).unwrap(), Some(Frame::Eof));
    }

    #[test]
    fn accumulator_caps_partial_growth() {
        let big = vec![b'z'; 100];
        let mut r = BufReader::new(big.as_slice());
        let mut acc = FrameAccumulator::new(32);
        let err = acc.poll(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn accumulator_reports_mid_frame_disconnect() {
        let mut r = BufReader::new(&b"half-a-fra"[..]);
        let mut acc = FrameAccumulator::new(64);
        assert_eq!(acc.poll(&mut r).unwrap(), Some(Frame::Eof));
        assert_eq!(acc.partial_len(), 10, "partial bytes stay visible at EOF");
    }
}
