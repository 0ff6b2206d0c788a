//! Wire protocol of the TCP network-RAM backend.
//!
//! Frames are length-prefixed and CRC-protected:
//!
//! ```text
//! +----------------+----------------------+----------------+
//! | body_len: u32  | body (op + payload)  | crc32 of body  |
//! +----------------+----------------------+----------------+
//! ```
//!
//! All integers are little-endian. The CRC is the IEEE 802.3 CRC-32
//! ([`crate::crc32`]). A sender puts each frame on the socket with one
//! write, and a receiver reads body and trailer with one read.

use std::io::{self, IoSlice, Read, Write};

use crate::{crc32, RnError};

/// Upper bound on a frame body; a malloc of the node's whole 64 MB plus
/// slack.
pub const MAX_FRAME: usize = 96 << 20;

/// Requests a client may send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Allocate `len` bytes tagged `tag`.
    Malloc { len: u64, tag: u64 },
    /// Free a segment.
    Free { seg: u64 },
    /// Write `data` at `offset` of `seg`.
    Write {
        seg: u64,
        offset: u64,
        data: Vec<u8>,
    },
    /// Read `len` bytes at `offset` of `seg`.
    Read { seg: u64, offset: u64, len: u64 },
    /// Read several `(seg, offset, len)` ranges as one message with one
    /// answer (the wire form of a vectored `remote_read_v`). The
    /// event-driven server serves the whole batch atomically with
    /// respect to other sessions' writes, which is what lets a read
    /// replica take an untearable snapshot cut.
    ReadV {
        /// The `(seg, offset, len)` ranges, read in order.
        reads: Vec<(u64, u64, u64)>,
    },
    /// Find a segment by tag (recovery).
    Connect { tag: u64 },
    /// Fetch metadata of a segment.
    Info { seg: u64 },
    /// Write several `(seg, offset, data)` ranges as one message with one
    /// acknowledgement (the wire form of a vectored `remote_write_v`).
    /// Ranges are applied in order; on a mid-batch failure the earlier
    /// ranges stay applied, mirroring a torn SCI burst.
    WriteV {
        /// The `(seg, offset, data)` ranges, applied in order.
        ranges: Vec<(u64, u64, Vec<u8>)>,
    },
    /// Ask the server for its node name.
    Name,
    /// Liveness probe.
    Ping,
    /// Ask the server to stop accepting connections.
    Shutdown,
    /// A pipelined request: `inner` tagged with the client-chosen
    /// sequence number `seq`. The server answers with
    /// [`Response::Tagged`] carrying the same `seq`, which lets the
    /// client post many requests before draining any acknowledgement.
    /// Nesting is rejected: a `Seq` may not wrap another `Seq` or a
    /// [`Request::Mux`].
    Seq {
        /// Client-chosen sequence number echoed in the response.
        seq: u64,
        /// The wrapped request.
        inner: Box<Request>,
    },
    /// A multiplexed request: `inner` belongs to the logical client
    /// session `session` and carries that session's sequence number
    /// `seq`. Many sessions share one socket; the server answers with
    /// [`Response::Mux`] echoing both identifiers so the client can
    /// route the acknowledgement to the right session. Per-session
    /// ordering is FIFO (the server answers a connection's requests in
    /// receipt order, and a session's frames are a subsequence of the
    /// connection's). Nesting is rejected: a `Mux` may not wrap a `Seq`
    /// or another `Mux`.
    Mux {
        /// The logical session this request belongs to.
        session: u64,
        /// The session's sequence number, echoed in the response.
        seq: u64,
        /// The wrapped request.
        inner: Box<Request>,
    },
    /// Retires the wrapping [`Request::Mux`]'s session: the server
    /// forgets the session id (gauge bookkeeping only — sessions hold no
    /// server-side state beyond their count). Sent best-effort when a
    /// client session handle is dropped.
    SessClose,
}

/// Responses the server returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Generic success.
    Ok,
    /// Segment metadata (for malloc/connect/info).
    Segment {
        /// Raw segment id.
        seg: u64,
        /// Segment length in bytes.
        len: u64,
        /// Client tag.
        tag: u64,
        /// Base physical address on the server.
        base_addr: u64,
    },
    /// Read payload.
    Data(Vec<u8>),
    /// Vectored read payload: one buffer per requested range, in request
    /// order (answers a [`Request::ReadV`]).
    DataV(Vec<Vec<u8>>),
    /// The server's node name.
    Name(String),
    /// Request refused; human-readable reason.
    Err(String),
    /// Response to a [`Request::Seq`]: `inner` tagged with the request's
    /// sequence number. `Tagged { seq, inner: Ok }` is the pipelined
    /// `Ack{seq}`; `Tagged { seq, inner: Err(_) }` is the typed
    /// `Err{seq}`. Nesting is rejected.
    Tagged {
        /// The sequence number of the request this answers.
        seq: u64,
        /// The wrapped response.
        inner: Box<Response>,
    },
    /// Response to a [`Request::Mux`]: `inner` tagged with the session id
    /// and the session's sequence number, so a client multiplexing many
    /// sessions over one socket can route each acknowledgement. Nesting
    /// is rejected.
    Mux {
        /// The logical session the answered request belonged to.
        session: u64,
        /// The sequence number of the request this answers.
        seq: u64,
        /// The wrapped response.
        inner: Box<Response>,
    },
    /// Typed admission refusal: the server's shared service pool and its
    /// bounded overflow queue are both full, so the request was refused
    /// *without being applied*. Clients surface this as
    /// [`crate::RnError::Overloaded`]; retrying after backoff is safe.
    Overloaded,
}

const OP_MALLOC: u8 = 1;
const OP_FREE: u8 = 2;
const OP_WRITE: u8 = 3;
const OP_READ: u8 = 4;
const OP_CONNECT: u8 = 5;
const OP_INFO: u8 = 6;
const OP_NAME: u8 = 7;
const OP_PING: u8 = 8;
const OP_SHUTDOWN: u8 = 9;
const OP_WRITE_V: u8 = 10;
const OP_SEQ: u8 = 11;
const OP_MUX: u8 = 12;
const OP_SESS_CLOSE: u8 = 13;
const OP_READ_V: u8 = 14;

const RE_OK: u8 = 128;
const RE_SEGMENT: u8 = 129;
const RE_DATA: u8 = 130;
const RE_NAME: u8 = 131;
const RE_ERR: u8 = 132;
const RE_TAGGED: u8 = 133;
const RE_MUX: u8 = 134;
const RE_OVERLOADED: u8 = 135;
const RE_DATA_V: u8 = 136;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64, RnError> {
    let end = *pos + 8;
    let bytes = buf
        .get(*pos..end)
        .ok_or_else(|| RnError::Protocol("truncated integer".into()))?;
    *pos = end;
    Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
}

impl Request {
    /// Serializes the request into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the request's frame body to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Malloc { len, tag } => {
                out.push(OP_MALLOC);
                put_u64(out, *len);
                put_u64(out, *tag);
            }
            Request::Free { seg } => {
                out.push(OP_FREE);
                put_u64(out, *seg);
            }
            Request::Write { seg, offset, data } => {
                out.push(OP_WRITE);
                put_u64(out, *seg);
                put_u64(out, *offset);
                out.extend_from_slice(data);
            }
            Request::Read { seg, offset, len } => {
                out.push(OP_READ);
                put_u64(out, *seg);
                put_u64(out, *offset);
                put_u64(out, *len);
            }
            Request::Connect { tag } => {
                out.push(OP_CONNECT);
                put_u64(out, *tag);
            }
            Request::Info { seg } => {
                out.push(OP_INFO);
                put_u64(out, *seg);
            }
            Request::WriteV { ranges } => {
                out.push(OP_WRITE_V);
                put_u64(out, ranges.len() as u64);
                for (seg, offset, data) in ranges {
                    put_u64(out, *seg);
                    put_u64(out, *offset);
                    put_u64(out, data.len() as u64);
                    out.extend_from_slice(data);
                }
            }
            Request::ReadV { reads } => {
                out.push(OP_READ_V);
                put_u64(out, reads.len() as u64);
                for (seg, offset, len) in reads {
                    put_u64(out, *seg);
                    put_u64(out, *offset);
                    put_u64(out, *len);
                }
            }
            Request::Name => out.push(OP_NAME),
            Request::Ping => out.push(OP_PING),
            Request::Shutdown => out.push(OP_SHUTDOWN),
            Request::Seq { seq, inner } => {
                out.push(OP_SEQ);
                put_u64(out, *seq);
                inner.encode_into(out);
            }
            Request::Mux {
                session,
                seq,
                inner,
            } => {
                out.push(OP_MUX);
                put_u64(out, *session);
                put_u64(out, *seq);
                inner.encode_into(out);
            }
            Request::SessClose => out.push(OP_SESS_CLOSE),
        }
    }

    /// Parses a frame body into a request.
    ///
    /// # Errors
    ///
    /// Returns [`RnError::Protocol`] on malformed input.
    pub fn decode(body: &[u8]) -> Result<Request, RnError> {
        let (&op, rest) = body
            .split_first()
            .ok_or_else(|| RnError::Protocol("empty frame".into()))?;
        let mut pos = 0;
        let req = match op {
            OP_MALLOC => Request::Malloc {
                len: get_u64(rest, &mut pos)?,
                tag: get_u64(rest, &mut pos)?,
            },
            OP_FREE => Request::Free {
                seg: get_u64(rest, &mut pos)?,
            },
            OP_WRITE => {
                let seg = get_u64(rest, &mut pos)?;
                let offset = get_u64(rest, &mut pos)?;
                Request::Write {
                    seg,
                    offset,
                    data: rest[pos..].to_vec(),
                }
            }
            OP_READ => Request::Read {
                seg: get_u64(rest, &mut pos)?,
                offset: get_u64(rest, &mut pos)?,
                len: get_u64(rest, &mut pos)?,
            },
            OP_CONNECT => Request::Connect {
                tag: get_u64(rest, &mut pos)?,
            },
            OP_INFO => Request::Info {
                seg: get_u64(rest, &mut pos)?,
            },
            OP_WRITE_V => {
                let count = get_u64(rest, &mut pos)?;
                // Each range needs at least its 24-byte header; reject
                // counts the frame cannot possibly hold before allocating.
                if count > (rest.len() as u64) / 24 {
                    return Err(RnError::Protocol(format!(
                        "vectored write claims {count} ranges in a {} byte frame",
                        rest.len()
                    )));
                }
                let mut ranges = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let seg = get_u64(rest, &mut pos)?;
                    let offset = get_u64(rest, &mut pos)?;
                    let len = get_u64(rest, &mut pos)? as usize;
                    let end = pos
                        .checked_add(len)
                        .filter(|&e| e <= rest.len())
                        .ok_or_else(|| RnError::Protocol("truncated range data".into()))?;
                    ranges.push((seg, offset, rest[pos..end].to_vec()));
                    pos = end;
                }
                Request::WriteV { ranges }
            }
            OP_READ_V => {
                let count = get_u64(rest, &mut pos)?;
                // Each range is exactly its 24-byte descriptor; reject
                // counts the frame cannot possibly hold before allocating.
                if count > (rest.len() as u64) / 24 {
                    return Err(RnError::Protocol(format!(
                        "vectored read claims {count} ranges in a {} byte frame",
                        rest.len()
                    )));
                }
                let mut reads = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let seg = get_u64(rest, &mut pos)?;
                    let offset = get_u64(rest, &mut pos)?;
                    let len = get_u64(rest, &mut pos)?;
                    reads.push((seg, offset, len));
                }
                Request::ReadV { reads }
            }
            OP_NAME => Request::Name,
            OP_PING => Request::Ping,
            OP_SHUTDOWN => Request::Shutdown,
            OP_SEQ => {
                let seq = get_u64(rest, &mut pos)?;
                let inner = Request::decode(&rest[pos..])?;
                if matches!(inner, Request::Seq { .. } | Request::Mux { .. }) {
                    // Depth one only: unbounded nesting would let a
                    // hostile frame recurse the decoder off the stack.
                    return Err(RnError::Protocol("nested seq frame".into()));
                }
                Request::Seq {
                    seq,
                    inner: Box::new(inner),
                }
            }
            OP_MUX => {
                let session = get_u64(rest, &mut pos)?;
                let seq = get_u64(rest, &mut pos)?;
                let inner = Request::decode(&rest[pos..])?;
                if matches!(inner, Request::Seq { .. } | Request::Mux { .. }) {
                    return Err(RnError::Protocol("nested mux frame".into()));
                }
                Request::Mux {
                    session,
                    seq,
                    inner: Box::new(inner),
                }
            }
            OP_SESS_CLOSE => Request::SessClose,
            other => return Err(RnError::Protocol(format!("unknown opcode {other}"))),
        };
        Ok(req)
    }
}

/// Encodes a `Write` request body straight from a borrowed payload —
/// the frame body is built in one allocation with one copy of `data`,
/// instead of the copy-into-`Vec`-then-copy-into-frame of constructing
/// a [`Request::Write`]. With `seq`, the body is the [`Request::Seq`]
/// wrapping of the write.
pub fn encode_write(seq: Option<u64>, seg: u64, offset: u64, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + 34);
    if let Some(s) = seq {
        out.push(OP_SEQ);
        put_u64(&mut out, s);
    }
    put_write(&mut out, seg, offset, data);
    out
}

/// Encodes a `WriteV` request body straight from borrowed ranges (see
/// [`encode_write`]): one allocation, one copy per range.
pub fn encode_write_v(seq: Option<u64>, ranges: &[(u64, u64, &[u8])]) -> Vec<u8> {
    let mut out = Vec::with_capacity(write_v_len(ranges) + 9);
    if let Some(s) = seq {
        out.push(OP_SEQ);
        put_u64(&mut out, s);
    }
    put_write_v(&mut out, ranges);
    out
}

/// Encodes `req` wrapped in a [`Request::Seq`] body without cloning the
/// request.
pub fn encode_seq(seq: u64, req: &Request) -> Vec<u8> {
    let mut out = vec![OP_SEQ];
    put_u64(&mut out, seq);
    req.encode_into(&mut out);
    out
}

/// Encodes `req` wrapped in a [`Request::Mux`] body without cloning the
/// request.
pub fn encode_mux(session: u64, seq: u64, req: &Request) -> Vec<u8> {
    let mut out = mux_header(session, seq, 0);
    req.encode_into(&mut out);
    out
}

/// Encodes a session-wrapped `Write` body straight from a borrowed
/// payload (the [`Request::Mux`] counterpart of [`encode_write`]): one
/// allocation, one copy of `data`.
pub fn encode_write_mux(session: u64, seq: u64, seg: u64, offset: u64, data: &[u8]) -> Vec<u8> {
    let mut out = mux_header(session, seq, data.len() + 25);
    put_write(&mut out, seg, offset, data);
    out
}

/// Encodes a session-wrapped `WriteV` body straight from borrowed ranges
/// (the [`Request::Mux`] counterpart of [`encode_write_v`]).
pub fn encode_write_v_mux(session: u64, seq: u64, ranges: &[(u64, u64, &[u8])]) -> Vec<u8> {
    let mut out = mux_header(session, seq, write_v_len(ranges));
    put_write_v(&mut out, ranges);
    out
}

/// A `Mux` header with room for `inner` more body bytes.
fn mux_header(session: u64, seq: u64, inner: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(inner + 17);
    out.push(OP_MUX);
    put_u64(&mut out, session);
    put_u64(&mut out, seq);
    out
}

fn put_write(out: &mut Vec<u8>, seg: u64, offset: u64, data: &[u8]) {
    out.push(OP_WRITE);
    put_u64(out, seg);
    put_u64(out, offset);
    out.extend_from_slice(data);
}

/// The body length of an unwrapped `WriteV` over `ranges`.
fn write_v_len(ranges: &[(u64, u64, &[u8])]) -> usize {
    9 + ranges.iter().map(|(_, _, d)| 24 + d.len()).sum::<usize>()
}

fn put_write_v(out: &mut Vec<u8>, ranges: &[(u64, u64, &[u8])]) {
    out.push(OP_WRITE_V);
    put_u64(out, ranges.len() as u64);
    for &(seg, offset, data) in ranges {
        put_u64(out, seg);
        put_u64(out, offset);
        put_u64(out, data.len() as u64);
        out.extend_from_slice(data);
    }
}

impl Response {
    /// Serializes the response into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// The full wire frame of the response (length prefix + body + CRC)
    /// in one buffer: the body is encoded in place after four reserved
    /// prefix bytes, so a payload is copied once, straight into the frame.
    /// The event-driven server builds these up front so it can write them
    /// incrementally as the socket drains.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload_len() + 64);
        out.extend_from_slice(&[0; 4]);
        self.encode_into(&mut out);
        let len = out.len() - 4;
        out[..4].copy_from_slice(&(len as u32).to_le_bytes());
        let crc = crc32(&out[4..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Variable-length body bytes, so [`Self::encode_frame`] can size its
    /// buffer once (fixed headers fit in its slack).
    fn payload_len(&self) -> usize {
        match self {
            Response::Data(d) => d.len(),
            Response::DataV(bufs) => bufs.iter().map(|b| b.len() + 8).sum(),
            Response::Name(m) | Response::Err(m) => m.len(),
            Response::Tagged { inner, .. } | Response::Mux { inner, .. } => inner.payload_len(),
            _ => 0,
        }
    }

    /// Appends the response's frame body to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Ok => out.push(RE_OK),
            Response::Segment {
                seg,
                len,
                tag,
                base_addr,
            } => {
                out.push(RE_SEGMENT);
                put_u64(out, *seg);
                put_u64(out, *len);
                put_u64(out, *tag);
                put_u64(out, *base_addr);
            }
            Response::Data(d) => {
                out.push(RE_DATA);
                out.extend_from_slice(d);
            }
            Response::DataV(bufs) => {
                out.push(RE_DATA_V);
                put_u64(out, bufs.len() as u64);
                for b in bufs {
                    put_u64(out, b.len() as u64);
                    out.extend_from_slice(b);
                }
            }
            Response::Name(n) => {
                out.push(RE_NAME);
                out.extend_from_slice(n.as_bytes());
            }
            Response::Err(m) => {
                out.push(RE_ERR);
                out.extend_from_slice(m.as_bytes());
            }
            Response::Tagged { seq, inner } => {
                out.push(RE_TAGGED);
                put_u64(out, *seq);
                inner.encode_into(out);
            }
            Response::Mux {
                session,
                seq,
                inner,
            } => {
                out.push(RE_MUX);
                put_u64(out, *session);
                put_u64(out, *seq);
                inner.encode_into(out);
            }
            Response::Overloaded => out.push(RE_OVERLOADED),
        }
    }

    /// Parses a frame body into a response, taking ownership of it: a
    /// [`Response::Data`] payload — bare or under one `Tagged`/`Mux`
    /// header — keeps the frame's own buffer (its header bytes shifted
    /// out in place) instead of being copied into a new one, so a large
    /// recovery read is never held twice.
    ///
    /// # Errors
    ///
    /// Returns [`RnError::Protocol`] on malformed input.
    pub fn decode_owned(mut body: Vec<u8>) -> Result<Response, RnError> {
        let at = match body.first() {
            Some(&RE_TAGGED) => 9,
            Some(&RE_MUX) => 17,
            _ => 0,
        };
        if body.get(at) != Some(&RE_DATA) {
            return Response::decode(&body);
        }
        // Decode the headers over an empty payload, then move it in.
        let mut resp = Response::decode(&body[..=at])?;
        body.drain(..=at);
        let data = match &mut resp {
            Response::Tagged { inner, .. } | Response::Mux { inner, .. } => &mut **inner,
            bare => bare,
        };
        *data = Response::Data(body);
        Ok(resp)
    }

    /// Parses a frame body into a response.
    ///
    /// # Errors
    ///
    /// Returns [`RnError::Protocol`] on malformed input.
    pub fn decode(body: &[u8]) -> Result<Response, RnError> {
        let (&op, rest) = body
            .split_first()
            .ok_or_else(|| RnError::Protocol("empty frame".into()))?;
        let mut pos = 0;
        let resp = match op {
            RE_OK => Response::Ok,
            RE_SEGMENT => Response::Segment {
                seg: get_u64(rest, &mut pos)?,
                len: get_u64(rest, &mut pos)?,
                tag: get_u64(rest, &mut pos)?,
                base_addr: get_u64(rest, &mut pos)?,
            },
            RE_DATA => Response::Data(rest.to_vec()),
            RE_DATA_V => {
                let count = get_u64(rest, &mut pos)?;
                // Each buffer needs at least its 8-byte length prefix.
                if count > (rest.len() as u64) / 8 {
                    return Err(RnError::Protocol(format!(
                        "vectored data claims {count} buffers in a {} byte frame",
                        rest.len()
                    )));
                }
                let mut bufs = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let len = get_u64(rest, &mut pos)? as usize;
                    let end = pos
                        .checked_add(len)
                        .filter(|&e| e <= rest.len())
                        .ok_or_else(|| RnError::Protocol("truncated buffer data".into()))?;
                    bufs.push(rest[pos..end].to_vec());
                    pos = end;
                }
                Response::DataV(bufs)
            }
            RE_NAME => Response::Name(
                String::from_utf8(rest.to_vec())
                    .map_err(|_| RnError::Protocol("name not UTF-8".into()))?,
            ),
            RE_ERR => Response::Err(
                String::from_utf8(rest.to_vec())
                    .map_err(|_| RnError::Protocol("error message not UTF-8".into()))?,
            ),
            RE_TAGGED => {
                let seq = get_u64(rest, &mut pos)?;
                let inner = Response::decode(&rest[pos..])?;
                if matches!(inner, Response::Tagged { .. } | Response::Mux { .. }) {
                    return Err(RnError::Protocol("nested tagged response".into()));
                }
                Response::Tagged {
                    seq,
                    inner: Box::new(inner),
                }
            }
            RE_MUX => {
                let session = get_u64(rest, &mut pos)?;
                let seq = get_u64(rest, &mut pos)?;
                let inner = Response::decode(&rest[pos..])?;
                if matches!(inner, Response::Tagged { .. } | Response::Mux { .. }) {
                    return Err(RnError::Protocol("nested mux response".into()));
                }
                Response::Mux {
                    session,
                    seq,
                    inner: Box::new(inner),
                }
            }
            RE_OVERLOADED => Response::Overloaded,
            other => return Err(RnError::Protocol(format!("unknown response tag {other}"))),
        };
        Ok(resp)
    }
}

/// Writes one frame (length prefix + body + CRC) with a single vectored
/// write: prefix and trailer are gathered around the borrowed body, so
/// the payload is neither copied nor split across `TCP_NODELAY`
/// segments. A writer that accepts only part of the frame is written
/// to again until the frame is complete.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> Result<(), RnError> {
    let len = (body.len() as u32).to_le_bytes();
    let crc = crc32(body).to_le_bytes();
    let mut parts = [IoSlice::new(&len), IoSlice::new(body), IoSlice::new(&crc)];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero).into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads one frame, verifying length bounds and CRC. Body and CRC trailer
/// arrive in one read into one buffer, which is returned as the body.
///
/// # Errors
///
/// Returns [`RnError::Protocol`] on oversized frames or CRC mismatch, and
/// propagates socket errors.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, RnError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(RnError::Protocol(format!("frame of {len} bytes too large")));
    }
    let mut body = vec![0u8; len + 4];
    r.read_exact(&mut body)?;
    let crc = u32::from_le_bytes(body[len..].try_into().expect("4-byte trailer"));
    body.truncate(len);
    if crc != crc32(&body) {
        return Err(RnError::Protocol("CRC mismatch".into()));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The frame trailer is the IEEE CRC-32 of the body: the canonical
        // check value for "123456789", and 0 for an empty body.
        for (body, crc) in [(&b"123456789"[..], 0xCBF4_3926u32), (b"", 0)] {
            let mut wire = Vec::new();
            write_frame(&mut wire, body).unwrap();
            assert_eq!(wire[wire.len() - 4..], crc.to_le_bytes());
        }
    }

    #[test]
    fn request_roundtrips() {
        let reqs = [
            Request::Malloc { len: 10, tag: 3 },
            Request::Free { seg: 7 },
            Request::Write {
                seg: 1,
                offset: 5,
                data: vec![1, 2, 3],
            },
            Request::Read {
                seg: 2,
                offset: 0,
                len: 9,
            },
            Request::Connect { tag: 11 },
            Request::Info { seg: 4 },
            Request::Name,
            Request::Ping,
            Request::Shutdown,
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn response_roundtrips() {
        let resps = [
            Response::Ok,
            Response::Segment {
                seg: 1,
                len: 2,
                tag: 3,
                base_addr: 64,
            },
            Response::Data(vec![9; 100]),
            Response::Name("node".into()),
            Response::Err("nope".into()),
        ];
        for r in resps {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn empty_write_data_roundtrips() {
        let r = Request::Write {
            seg: 1,
            offset: 0,
            data: vec![],
        };
        assert_eq!(Request::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn vectored_write_roundtrips() {
        let reqs = [
            Request::WriteV { ranges: vec![] },
            Request::WriteV {
                ranges: vec![(1, 0, vec![9; 3])],
            },
            Request::WriteV {
                ranges: vec![(1, 0, vec![1, 2]), (2, 64, vec![]), (1, 128, vec![3; 100])],
            },
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn vectored_write_rejects_lying_lengths() {
        // Claimed range count larger than the frame can hold.
        let mut body = vec![OP_WRITE_V];
        body.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(Request::decode(&body).is_err());

        // Range data length pointing past the end of the frame.
        let mut body = vec![OP_WRITE_V];
        body.extend_from_slice(&1u64.to_le_bytes()); // one range
        body.extend_from_slice(&1u64.to_le_bytes()); // seg
        body.extend_from_slice(&0u64.to_le_bytes()); // offset
        body.extend_from_slice(&100u64.to_le_bytes()); // len, but no data
        assert!(Request::decode(&body).is_err());
    }

    #[test]
    fn vectored_read_roundtrips() {
        let reqs = [
            Request::ReadV { reads: vec![] },
            Request::ReadV {
                reads: vec![(1, 0, 8)],
            },
            Request::ReadV {
                reads: vec![(1, 0, 2), (2, 64, 0), (7, 4096, 512)],
            },
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        }

        let resps = [
            Response::DataV(vec![]),
            Response::DataV(vec![vec![1, 2, 3]]),
            Response::DataV(vec![vec![9; 100], vec![], vec![0, 1]]),
        ];
        for r in resps {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn vectored_read_rejects_lying_lengths() {
        // Claimed range count larger than the frame can hold.
        let mut body = vec![OP_READ_V];
        body.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(Request::decode(&body).is_err());

        // Claimed buffer count larger than the frame can hold.
        let mut body = vec![RE_DATA_V];
        body.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(Response::decode(&body).is_err());

        // Buffer length pointing past the end of the frame.
        let mut body = vec![RE_DATA_V];
        body.extend_from_slice(&1u64.to_le_bytes()); // one buffer
        body.extend_from_slice(&100u64.to_le_bytes()); // len, but no data
        assert!(Response::decode(&body).is_err());
    }

    #[test]
    fn seq_and_tagged_roundtrip() {
        let reqs = [
            Request::Seq {
                seq: 0,
                inner: Box::new(Request::Ping),
            },
            Request::Seq {
                seq: u64::MAX,
                inner: Box::new(Request::Write {
                    seg: 3,
                    offset: 9,
                    data: vec![7; 40],
                }),
            },
            Request::Seq {
                seq: 17,
                inner: Box::new(Request::WriteV {
                    ranges: vec![(1, 0, vec![1, 2]), (2, 8, vec![])],
                }),
            },
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        }
        let resps = [
            Response::Tagged {
                seq: 5,
                inner: Box::new(Response::Ok),
            },
            Response::Tagged {
                seq: 6,
                inner: Box::new(Response::Err("bounds".into())),
            },
            Response::Tagged {
                seq: 7,
                inner: Box::new(Response::Data(vec![4; 12])),
            },
        ];
        for r in resps {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn mux_frames_roundtrip() {
        let reqs = [
            Request::Mux {
                session: 0,
                seq: 0,
                inner: Box::new(Request::Ping),
            },
            Request::Mux {
                session: u64::MAX,
                seq: 3,
                inner: Box::new(Request::Write {
                    seg: 3,
                    offset: 9,
                    data: vec![7; 40],
                }),
            },
            Request::Mux {
                session: 12,
                seq: 17,
                inner: Box::new(Request::WriteV {
                    ranges: vec![(1, 0, vec![1, 2]), (2, 8, vec![])],
                }),
            },
            Request::Mux {
                session: 5,
                seq: 1,
                inner: Box::new(Request::SessClose),
            },
            Request::SessClose,
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        }
        let resps = [
            Response::Mux {
                session: 5,
                seq: 7,
                inner: Box::new(Response::Ok),
            },
            Response::Mux {
                session: 5,
                seq: 8,
                inner: Box::new(Response::Err("bounds".into())),
            },
            Response::Mux {
                session: 9,
                seq: 0,
                inner: Box::new(Response::Overloaded),
            },
            Response::Overloaded,
        ];
        for r in resps {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn nested_mux_frames_rejected() {
        // Mux in Mux, Seq in Mux, Mux in Seq: all depth violations.
        let mux_ping = Request::Mux {
            session: 1,
            seq: 1,
            inner: Box::new(Request::Ping),
        };
        let seq_ping = Request::Seq {
            seq: 1,
            inner: Box::new(Request::Ping),
        };
        for (outer_session, inner) in [(Some(2), mux_ping.clone()), (Some(2), seq_ping.clone())] {
            let outer = Request::Mux {
                session: outer_session.unwrap(),
                seq: 9,
                inner: Box::new(inner),
            };
            assert!(Request::decode(&outer.encode()).is_err());
        }
        let seq_wrapping_mux = Request::Seq {
            seq: 9,
            inner: Box::new(mux_ping),
        };
        assert!(Request::decode(&seq_wrapping_mux.encode()).is_err());

        let mux_ok = Response::Mux {
            session: 1,
            seq: 1,
            inner: Box::new(Response::Ok),
        };
        let tagged_ok = Response::Tagged {
            seq: 1,
            inner: Box::new(Response::Ok),
        };
        for inner in [mux_ok.clone(), tagged_ok] {
            let outer = Response::Mux {
                session: 2,
                seq: 9,
                inner: Box::new(inner),
            };
            assert!(Response::decode(&outer.encode()).is_err());
        }
        let tagged_wrapping_mux = Response::Tagged {
            seq: 9,
            inner: Box::new(mux_ok),
        };
        assert!(Response::decode(&tagged_wrapping_mux.encode()).is_err());

        // Truncated mux headers.
        assert!(Request::decode(&[OP_MUX, 1, 2, 3]).is_err());
        assert!(Response::decode(&[RE_MUX, 1]).is_err());
        // Mux with an empty inner body.
        let mut body = vec![OP_MUX];
        body.extend_from_slice(&9u64.to_le_bytes());
        body.extend_from_slice(&4u64.to_le_bytes());
        assert!(Request::decode(&body).is_err());
    }

    #[test]
    fn borrowed_mux_encoders_match_the_owned_forms() {
        let data = [5u8; 33];
        assert_eq!(
            encode_write_mux(6, 9, 4, 12, &data),
            Request::Mux {
                session: 6,
                seq: 9,
                inner: Box::new(Request::Write {
                    seg: 4,
                    offset: 12,
                    data: data.to_vec(),
                }),
            }
            .encode()
        );
        let ranges: [(u64, u64, &[u8]); 2] = [(1, 0, &data[..2]), (2, 64, &data[..0])];
        let owned = Request::WriteV {
            ranges: ranges.iter().map(|&(s, o, d)| (s, o, d.to_vec())).collect(),
        };
        assert_eq!(
            encode_write_v_mux(6, 3, &ranges),
            Request::Mux {
                session: 6,
                seq: 3,
                inner: Box::new(owned.clone()),
            }
            .encode()
        );
        assert_eq!(
            encode_mux(6, 8, &owned),
            Request::Mux {
                session: 6,
                seq: 8,
                inner: Box::new(owned),
            }
            .encode()
        );
    }

    #[test]
    fn nested_seq_frames_rejected() {
        let inner = Request::Seq {
            seq: 1,
            inner: Box::new(Request::Ping),
        };
        let outer = Request::Seq {
            seq: 2,
            inner: Box::new(inner),
        };
        assert!(Request::decode(&outer.encode()).is_err());

        let inner = Response::Tagged {
            seq: 1,
            inner: Box::new(Response::Ok),
        };
        let outer = Response::Tagged {
            seq: 2,
            inner: Box::new(inner),
        };
        assert!(Response::decode(&outer.encode()).is_err());

        // Truncated seq header.
        assert!(Request::decode(&[OP_SEQ, 1, 2, 3]).is_err());
        assert!(Response::decode(&[RE_TAGGED, 1]).is_err());
        // Seq with an empty inner body.
        let mut body = vec![OP_SEQ];
        body.extend_from_slice(&9u64.to_le_bytes());
        assert!(Request::decode(&body).is_err());
    }

    #[test]
    fn borrowed_encoders_match_the_owned_forms() {
        let data = [5u8; 33];
        assert_eq!(
            encode_write(None, 4, 12, &data),
            Request::Write {
                seg: 4,
                offset: 12,
                data: data.to_vec(),
            }
            .encode()
        );
        assert_eq!(
            encode_write(Some(9), 4, 12, &data),
            Request::Seq {
                seq: 9,
                inner: Box::new(Request::Write {
                    seg: 4,
                    offset: 12,
                    data: data.to_vec(),
                }),
            }
            .encode()
        );
        let ranges: [(u64, u64, &[u8]); 2] = [(1, 0, &data[..2]), (2, 64, &data[..0])];
        let owned = Request::WriteV {
            ranges: ranges.iter().map(|&(s, o, d)| (s, o, d.to_vec())).collect(),
        };
        assert_eq!(encode_write_v(None, &ranges), owned.encode());
        assert_eq!(
            encode_write_v(Some(3), &ranges),
            Request::Seq {
                seq: 3,
                inner: Box::new(owned.clone()),
            }
            .encode()
        );
        assert_eq!(
            encode_seq(8, &owned),
            Request::Seq {
                seq: 8,
                inner: Box::new(owned),
            }
            .encode()
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[255]).is_err());
        assert!(Response::decode(&[0]).is_err());
        // Truncated integer payload.
        assert!(Request::decode(&[OP_MALLOC, 1, 2]).is_err());
    }

    #[test]
    fn frames_roundtrip_and_detect_corruption() {
        let body = Request::Ping.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        let got = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(got, body);

        // Flip a payload bit: CRC must catch it.
        let mut bad = wire.clone();
        bad[4] ^= 0x01;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(RnError::Protocol(_))
        ));
    }

    /// A writer that counts `write`/`write_vectored` calls and accepts at
    /// most `accept` bytes per call, like a socket with that much send
    /// buffer free.
    struct CountingWriter {
        accept: usize,
        calls: usize,
        out: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut room = self.accept;
            for b in bufs {
                let n = b.len().min(room);
                self.out.extend_from_slice(&b[..n]);
                room -= n;
            }
            Ok(self.accept - room)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_is_one_write_per_frame() {
        for len in [0usize, 1, 100, 64 * 1024, 300 * 1024] {
            let body = vec![0xA5u8; len];
            let mut expect = Vec::new();
            expect.extend_from_slice(&(len as u32).to_le_bytes());
            expect.extend_from_slice(&body);
            expect.extend_from_slice(&crc32(&body).to_le_bytes());

            // A socket that takes the whole frame gets exactly one call.
            let mut w = CountingWriter {
                accept: len + 8,
                calls: 0,
                out: Vec::new(),
            };
            write_frame(&mut w, &body).unwrap();
            assert_eq!(w.calls, 1, "{len}-byte body took {} writes", w.calls);
            assert_eq!(w.out, expect);

            // A socket that takes 3 bytes at a time still gets the frame,
            // in order, over as many calls as it needs.
            let mut w = CountingWriter {
                accept: 3,
                calls: 0,
                out: Vec::new(),
            };
            if len <= 100 {
                write_frame(&mut w, &body).unwrap();
                assert_eq!(w.calls, (len + 8).div_ceil(3));
                assert_eq!(w.out, expect);
            }
        }
    }

    #[test]
    fn encode_frame_matches_write_frame() {
        let resps = [
            Response::Ok,
            Response::Data(vec![9; 70_000]),
            Response::DataV(vec![vec![1, 2], vec![], vec![3; 40]]),
            Response::Err("no such segment".into()),
            Response::Mux {
                session: 3,
                seq: 4,
                inner: Box::new(Response::Data(vec![7; 13])),
            },
        ];
        for resp in resps {
            let mut wire = Vec::new();
            write_frame(&mut wire, &resp.encode()).unwrap();
            assert_eq!(resp.encode_frame(), wire, "{resp:?}");
        }
    }

    #[test]
    fn decode_owned_matches_decode() {
        let data = Response::Data((0..=255).collect());
        let bodies = [
            data.encode(),
            Response::Data(Vec::new()).encode(),
            Response::Tagged {
                seq: 5,
                inner: Box::new(data.clone()),
            }
            .encode(),
            Response::Mux {
                session: 1,
                seq: 2,
                inner: Box::new(data.clone()),
            }
            .encode(),
            Response::Tagged {
                seq: 5,
                inner: Box::new(Response::Ok),
            }
            .encode(),
            Response::DataV(vec![vec![4; 9]]).encode(),
            // Hand-built: a mux-wrapped empty payload, then malformed
            // ones (a truncated wrapper, a wrapper of a wrapper).
            vec![
                RE_MUX, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, RE_DATA,
            ],
            vec![RE_TAGGED, 1, 2],
            vec![RE_TAGGED, 0, 0, 0, 0, 0, 0, 0, 0, RE_TAGGED, RE_DATA],
            vec![],
        ];
        for body in bodies {
            let borrowed = Response::decode(&body);
            let owned = Response::decode_owned(body.clone());
            match (borrowed, owned) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{body:?}"),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("{body:?}: decode {a:?} vs decode_owned {b:?}"),
            }
        }
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(RnError::Protocol(_))
        ));
    }
}
