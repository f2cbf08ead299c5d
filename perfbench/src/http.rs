//! A minimal HTTP/1.1 keep-alive client: just enough to drive
//! `cnt-serve` (Content-Length framed responses, transparent re-dial
//! when the server closes a connection).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response: status code and body text.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// A keep-alive connection to one address that re-dials on demand.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, stream: None }
    }

    fn dial(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        self.stream = Some((stream, reader));
        Ok(())
    }

    /// Sends one request and reads its response. A connection the server
    /// closed between requests is re-dialled once; every request this
    /// client sends is safe to repeat (runs are pure, polls idempotent,
    /// and a capped connection closes only after its last response).
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
        let mut retried = false;
        loop {
            if self.stream.is_none() {
                self.dial()?;
            }
            match self.exchange(method, path, body) {
                Ok(Some(reply)) => return Ok(reply),
                // The server closed the kept-alive connection first.
                Ok(None) if !retried => {
                    self.stream = None;
                    retried = true;
                }
                Ok(None) => {
                    self.stream = None;
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed before a response",
                    ));
                }
                Err(e) => {
                    self.stream = None;
                    if retried {
                        return Err(e);
                    }
                    retried = true;
                }
            }
        }
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Option<Reply>> {
        let (writer, reader) = self.stream.as_mut().expect("dialled above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body.len()
        );
        if writer
            .write_all(head.as_bytes())
            .and_then(|()| writer.write_all(body.as_bytes()))
            .and_then(|()| writer.flush())
            .is_err()
        {
            return Ok(None);
        }
        let mut status = None;
        let mut content_length = None;
        let mut closing = false;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            if status.is_none() {
                status = line.split(' ').nth(1).and_then(|s| s.parse::<u16>().ok());
                continue;
            }
            if line == "\r\n" || line == "\n" {
                break;
            }
            let lower = line.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                content_length = v.trim().parse::<usize>().ok();
            }
            if lower.starts_with("connection:") && lower.contains("close") {
                closing = true;
            }
        }
        let status = status.ok_or_else(|| bad("missing status line"))?;
        let length = content_length.ok_or_else(|| bad("response without Content-Length"))?;
        let mut bytes = vec![0u8; length];
        reader.read_exact(&mut bytes)?;
        if closing {
            self.stream = None;
        }
        let body = String::from_utf8(bytes).map_err(|_| bad("response body is not UTF-8"))?;
        Ok(Some(Reply { status, body }))
    }
}

fn bad(message: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.to_string())
}

/// One request on a fresh connection (scrapes and health checks).
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<Reply> {
    Conn::new(addr).request("GET", path, "")
}
