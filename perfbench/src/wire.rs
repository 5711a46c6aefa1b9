//! A minimal pipelined protocol-v6 connection for the load generator.
//!
//! Requests are encoded with `Request::encode_with_id` and replies are
//! parsed from the socket with the server's own frame decoder, so every
//! byte crosses the real wire path. One connection carries requests for
//! any tenant and any kind (`Query` or `Score`), which is what lets the
//! generator stay at two connections on every workload. A connection
//! splits into a [`Writer`] and a [`Reader`] so an open loop can send on
//! schedule from one thread while another blocks on replies.

use raven_data::Table;
use raven_server::proto::{Request, Response, MAX_FRAME_LEN};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What one request got back.
#[derive(Debug)]
pub enum Outcome {
    Rows {
        table: Table,
        /// Server-side latency from the `RowsEnd` trailer.
        server_time: Duration,
        chunks: usize,
    },
    Score(f64),
    /// A typed error frame from the server.
    Error(String),
}

#[derive(Debug)]
pub struct Reply {
    pub id: u32,
    pub outcome: Outcome,
    /// When the reply's last frame was decoded.
    pub at: Instant,
}

/// The sending half: request ids count up from 0 in submission order.
pub struct Writer {
    stream: TcpStream,
    next_id: u32,
    pending: Vec<u8>,
}

impl Writer {
    /// Queue `request` for the next [`Writer::flush`]; returns its id.
    pub fn submit(&mut self, request: &Request) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.pending.extend_from_slice(&request.encode_with_id(id));
        id
    }

    pub fn flush(&mut self) -> Result<(), String> {
        if !self.pending.is_empty() {
            self.stream
                .write_all(&self.pending)
                .map_err(|e| format!("write: {e}"))?;
            self.pending.clear();
        }
        Ok(())
    }
}

/// The receiving half: reads into a private buffer and decodes complete
/// frames only, reassembling streamed results by request id.
pub struct Reader {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    read_buf: Box<[u8]>,
    partial: HashMap<u32, Vec<Table>>,
}

impl Reader {
    /// Block until at least one reply completes; returns every complete
    /// reply. Fails when the connection breaks or stays silent for
    /// `patience` (set with [`Reader::set_patience`]).
    pub fn recv(&mut self) -> Result<Vec<Reply>, String> {
        let mut out = Vec::new();
        loop {
            self.decode_ready(&mut out)?;
            if !out.is_empty() {
                return Ok(out);
            }
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => return Err("connection closed by server".into()),
                Ok(n) => self.buf.extend_from_slice(&self.read_buf[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err("no reply within the read timeout".into())
                }
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    /// Give up on a silent connection after `patience`.
    pub fn set_patience(&self, patience: Duration) -> Result<(), String> {
        self.stream
            .set_read_timeout(Some(patience))
            .map_err(|e| format!("set timeout: {e}"))
    }

    fn decode_ready(&mut self, out: &mut Vec<Reply>) -> Result<(), String> {
        loop {
            let avail = &self.buf[self.start..];
            if avail.len() < 4 {
                break;
            }
            let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
            if !(2..=MAX_FRAME_LEN).contains(&len) {
                return Err(format!("bad frame length {len}"));
            }
            let end = 4 + len as usize;
            if avail.len() < end {
                break;
            }
            let (response, _version, id) =
                Response::decode_framed(&avail[4..end]).map_err(|e| format!("decode: {e}"))?;
            self.start += end;
            let at = Instant::now();
            let outcome = match response {
                Response::RowsChunk { table } => {
                    let table = std::sync::Arc::try_unwrap(table).unwrap_or_else(|t| (*t).clone());
                    self.partial.entry(id).or_default().push(table);
                    continue;
                }
                Response::RowsEnd {
                    total_micros,
                    total_rows,
                    ..
                } => {
                    let parts = self.partial.remove(&id).unwrap_or_default();
                    let chunks = parts.len();
                    match Table::concat(&parts) {
                        Ok(table) if table.num_rows() as u64 == total_rows => Outcome::Rows {
                            table,
                            server_time: Duration::from_micros(total_micros),
                            chunks,
                        },
                        Ok(table) => Outcome::Error(format!(
                            "{} rows streamed, trailer promised {total_rows}",
                            table.num_rows()
                        )),
                        Err(e) => Outcome::Error(format!("chunk reassembly: {e}")),
                    }
                }
                Response::Score { value } => Outcome::Score(value),
                Response::Error { code, message } => {
                    self.partial.remove(&id);
                    Outcome::Error(format!("{code:?}: {message}"))
                }
                other => Outcome::Error(format!("unexpected reply {other:?}")),
            };
            out.push(Reply { id, outcome, at });
        }
        if self.start > 0 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(())
    }
}

/// Both halves on one thread, for closed loops.
pub struct Conn {
    writer: Writer,
    reader: Reader,
    in_flight: usize,
}

/// Open a connection and split it.
pub fn connect(addr: SocketAddr) -> std::io::Result<(Writer, Reader)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader = Reader {
        stream: stream.try_clone()?,
        buf: Vec::with_capacity(256 * 1024),
        start: 0,
        read_buf: vec![0u8; 64 * 1024].into_boxed_slice(),
        partial: HashMap::new(),
    };
    let writer = Writer {
        stream,
        next_id: 0,
        pending: Vec::new(),
    };
    Ok((writer, reader))
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let (writer, reader) = connect(addr)?;
        Ok(Conn {
            writer,
            reader,
            in_flight: 0,
        })
    }

    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Queue `request`; it is written on the next receive. Returns the id
    /// its reply will carry.
    pub fn submit(&mut self, request: &Request) -> u32 {
        self.in_flight += 1;
        self.writer.submit(request)
    }

    /// Write what is queued, then block until at least one reply
    /// completes; returns every complete reply.
    pub fn recv(&mut self) -> Result<Vec<Reply>, String> {
        self.writer.flush()?;
        let replies = self.reader.recv()?;
        self.in_flight = self.in_flight.saturating_sub(replies.len());
        Ok(replies)
    }
}
