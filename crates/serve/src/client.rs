//! A blocking client for the serving protocol, reusing the shared frame
//! reader and the resilience layer's one connect-timeout constant
//! ([`ResiliencePolicy::CONNECT_TIMEOUT`]).

use crate::protocol::{Reply, Request};
use nassim_device::framing::{read_frame, Frame, MAX_FRAME_BYTES};
use nassim_device::resilient::ResiliencePolicy;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Default per-reply read deadline. Generous: the slowest legitimate
/// reply is a full manual assimilation.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One serving connection.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ServeClient {
    /// Connect with the resilience layer's connect deadline and the
    /// default read timeout.
    pub fn connect(addr: SocketAddr) -> io::Result<ServeClient> {
        let stream = TcpStream::connect_timeout(&addr, ResiliencePolicy::CONNECT_TIMEOUT)?;
        stream.set_read_timeout(Some(DEFAULT_READ_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(ServeClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Override the per-reply read deadline.
    pub fn set_read_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        self.writer.set_read_timeout(Some(timeout))
    }

    /// Send one raw line (the chaos harness uses this to send garbage).
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Read one reply frame as its raw line (the parity oracle compares
    /// these byte-for-byte). EOF is `UnexpectedEof`.
    pub fn read_raw(&mut self) -> io::Result<String> {
        match read_frame(&mut self.reader, MAX_FRAME_BYTES)? {
            Frame::Line(line) => Ok(line),
            Frame::Eof => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a reply frame",
            )),
        }
    }

    /// Send a request and collect every reply frame through the final
    /// one: `(raw_frames, parsed_final)`.
    pub fn request_full(&mut self, request: &Request) -> io::Result<(Vec<String>, Reply)> {
        self.send_line(&request.to_line())?;
        self.read_reply_frames()
    }

    /// Read frames until a final (ok/err) reply arrives.
    pub fn read_reply_frames(&mut self) -> io::Result<(Vec<String>, Reply)> {
        let mut raw = Vec::new();
        loop {
            let line = self.read_raw()?;
            let reply =
                Reply::parse(&line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            raw.push(line);
            if reply.is_final() {
                return Ok((raw, reply));
            }
        }
    }

    /// Send a request and return just the parsed final reply.
    pub fn request(&mut self, request: &Request) -> io::Result<Reply> {
        self.request_full(request).map(|(_, reply)| reply)
    }

    /// Write raw bytes without a newline (slow-loris pacing and
    /// mid-frame disconnects are built from this).
    pub fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }
}
