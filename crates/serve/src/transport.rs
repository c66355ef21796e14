//! Frame transports: length-prefixed byte streams over TCP, an
//! in-memory duplex pair for tests and examples, and a lock-step
//! in-process transport that drives a [`ServerState`] directly (the
//! bench kernel's zero-socket path through the full encode/decode
//! pipeline).

use std::collections::VecDeque;
use std::io::{BufReader, ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, Sender};

use crate::proto::{ProtocolError, MAX_FRAME_BYTES};
use crate::server::{FrameHandler, ServerState};

/// A reliable, ordered frame pipe. `recv` returning `Ok(None)` means
/// the peer closed cleanly at a frame boundary.
pub trait FrameTransport {
    /// Sends one frame.
    fn send(&mut self, frame: &[u8]) -> Result<(), ProtocolError>;
    /// Receives the next frame, `None` on clean end-of-stream.
    fn recv(&mut self) -> Result<Option<Vec<u8>>, ProtocolError>;
}

/// Writes `frame` behind its 4-byte big-endian length prefix in one
/// vectored write (one `writev` on a socket), so the frame is never
/// copied next to its prefix; a short write continues where it stopped.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> Result<(), ProtocolError> {
    check_frame_len(frame)?;
    let prefix = (frame.len() as u32).to_be_bytes();
    write_all_vectored(w, &mut [IoSlice::new(&prefix), IoSlice::new(frame)])?;
    w.flush().map_err(io_err)
}

fn check_frame_len(frame: &[u8]) -> Result<(), ProtocolError> {
    if frame.len() > MAX_FRAME_BYTES {
        return Err(ProtocolError::FrameTooLarge { len: frame.len(), max: MAX_FRAME_BYTES });
    }
    Ok(())
}

/// The one vectored write loop: writes every byte of `parts`, in one
/// `writev` when the stream takes them all, continuing a short or
/// interrupted write where it stopped.
fn write_all_vectored(
    w: &mut impl Write,
    mut parts: &mut [IoSlice<'_>],
) -> Result<(), ProtocolError> {
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(io_err(ErrorKind::WriteZero.into())),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_err(e)),
        }
    }
    Ok(())
}

/// Reads the next length-prefixed frame. Clean EOF before a prefix is
/// `Ok(None)`; EOF inside a prefix or payload is
/// [`ProtocolError::TruncatedFrame`]; a prefix above
/// [`MAX_FRAME_BYTES`] is [`ProtocolError::FrameTooLarge`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut prefix = [0u8; 4];
    match read_some(r, &mut prefix)? {
        0 => return Ok(None),
        4 => {}
        got => return Err(ProtocolError::TruncatedFrame { expected: 4, got }),
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(ProtocolError::FrameTooLarge { len, max: MAX_FRAME_BYTES });
    }
    let mut frame = vec![0u8; len];
    let got = read_some(r, &mut frame)?;
    if got != len {
        return Err(ProtocolError::TruncatedFrame { expected: len, got });
    }
    Ok(Some(frame))
}

/// Fills as much of `buf` as the stream yields before EOF; returns the
/// byte count (interrupted reads are retried).
fn read_some(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, ProtocolError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_err(e)),
        }
    }
    Ok(filled)
}

fn io_err(e: std::io::Error) -> ProtocolError {
    // An expired SO_RCVTIMEO/SO_SNDTIMEO surfaces as WouldBlock (Unix)
    // or TimedOut (Windows). Classify here, where the ErrorKind is still
    // in hand; the transport that armed the deadline fills in its value
    // (`secs` is 0 only on this placeholder, and a stream with no
    // deadline can never produce these kinds).
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => ProtocolError::Timeout { secs: 0.0 },
        _ => ProtocolError::Io { detail: e.to_string() },
    }
}

/// Capacity of [`TcpTransport`]'s read buffer, and the most it holds
/// back to write as one group: a group is what the peer's one read
/// takes. `BufReader` hands a read at least this large straight to the
/// socket when it holds nothing, so a frame body of 8 KB or more lands
/// in the frame, not in the buffer; for the same reason a frame that
/// large is never copied into the write queue.
const READ_BUFFER_BYTES: usize = 8 * 1024;

/// [`FrameTransport`] over a connected [`TcpStream`]. Reads go through
/// one buffer, so frames that arrive back to back (a pipelined window,
/// or a prefix and its body) cost one `read` between them.
///
/// Writes are grouped the same way. A `send` writes at once — one
/// `writev` of whatever is queued, the prefix and the frame — unless
/// the peer is known to be busy (this end has a request out with no
/// reply yet, or a whole next frame from the peer is already buffered)
/// and the queue, this frame included, stays within 8 KB, the size of
/// the read buffer (a group is what the peer's one read takes). Then it
/// is queued, and goes out with the next frame that is written, or
/// before `recv` reads from the socket, or when the transport drops
/// (best-effort). A pipelined window of requests, or the answers to a
/// window that arrived in one read, thus leaves in a few writes, while
/// a lock-step request or reply is on the wire when `send` returns.
/// A queued write that fails surfaces from the call that performs it;
/// the queue is dropped with it, as the stream is then in an unknown
/// state.
pub struct TcpTransport {
    reader: BufReader<TcpStream>,
    /// Frames held back, each behind its length prefix.
    queued: Vec<u8>,
    /// Frames sent and received so far: more sent than received means
    /// a request of ours is still unanswered.
    sent: u64,
    received: u64,
    timeout: Option<std::time::Duration>,
}

impl TcpTransport {
    /// Wraps a connected stream (Nagle disabled: frames are
    /// request/response sized and latency-bound) with no I/O deadline —
    /// a stalled peer blocks forever, like plain blocking sockets.
    pub fn new(stream: TcpStream) -> Self {
        Self::with_timeout(stream, None)
    }

    /// Like [`TcpTransport::new`] but arms read/write deadlines: any
    /// single `send`/`recv` that makes no progress for `timeout`
    /// surfaces as [`ProtocolError::Timeout`] instead of blocking the
    /// caller forever. This is the `--io-timeout` knob of the serve and
    /// dist CLIs — a distributed coordinator must never hang on one
    /// stalled worker.
    ///
    /// Retrying `recv` on the same transport is sound only when the
    /// timeout fired with no bytes of the next frame consumed (a peer
    /// that stalled between frames). A deadline that expires *inside* a
    /// frame leaves the stream mid-frame; robust callers — the dist
    /// coordinator — treat any timeout as grounds to reconnect. A
    /// queued frame's write is under the same deadline, and its
    /// `Timeout` comes back from the `send` or `recv` that performs it.
    pub fn with_timeout(stream: TcpStream, timeout: Option<std::time::Duration>) -> Self {
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(timeout).ok();
        stream.set_write_timeout(timeout).ok();
        Self {
            reader: BufReader::with_capacity(READ_BUFFER_BYTES, stream),
            queued: Vec::new(),
            sent: 0,
            received: 0,
            timeout,
        }
    }

    /// Whether the read buffer already holds the peer's next frame whole.
    fn frame_buffered(&self) -> bool {
        match self.reader.buffer() {
            [a, b, c, d, rest @ ..] => rest.len() >= u32::from_be_bytes([*a, *b, *c, *d]) as usize,
            _ => false,
        }
    }

    /// Writes the queue, then `prefix` and `frame` (empty to write the
    /// queue alone), in one vectored write; the queue is empty
    /// afterwards, written or not.
    fn write_behind_queue(&mut self, prefix: &[u8], frame: &[u8]) -> Result<(), ProtocolError> {
        let mut parts = [IoSlice::new(&self.queued), IoSlice::new(prefix), IoSlice::new(frame)];
        let written = write_all_vectored(self.reader.get_mut(), &mut parts);
        self.queued.clear();
        written.map_err(|e| self.classify(e))
    }

    fn classify(&self, err: ProtocolError) -> ProtocolError {
        // `io_err` flags an expired socket deadline with a placeholder
        // `Timeout`; stamp it with the deadline this transport armed.
        match err {
            ProtocolError::Timeout { .. } => {
                ProtocolError::Timeout { secs: self.timeout.map_or(0.0, |t| t.as_secs_f64()) }
            }
            other => other,
        }
    }
}

impl FrameTransport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), ProtocolError> {
        check_frame_len(frame)?;
        let prefix = (frame.len() as u32).to_be_bytes();
        let busy = self.sent > self.received || self.frame_buffered();
        self.sent += 1;
        if busy && self.queued.len() + prefix.len() + frame.len() <= READ_BUFFER_BYTES {
            self.queued.extend_from_slice(&prefix);
            self.queued.extend_from_slice(frame);
            return Ok(());
        }
        self.write_behind_queue(&prefix, frame)
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, ProtocolError> {
        if !self.queued.is_empty() && !self.frame_buffered() {
            self.write_behind_queue(&[], &[])?;
        }
        let frame = read_frame(&mut self.reader).map_err(|e| self.classify(e))?;
        self.received += u64::from(frame.is_some());
        Ok(frame)
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        if !self.queued.is_empty() {
            let _ = self.write_behind_queue(&[], &[]);
        }
    }
}

/// In-memory duplex transport: a pair of connected endpoints backed by
/// channels, usable across threads — the test/example stand-in for a
/// TCP connection.
pub struct DuplexTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

impl DuplexTransport {
    /// Builds two connected endpoints; frames sent on one side arrive
    /// on the other in order.
    pub fn pair() -> (DuplexTransport, DuplexTransport) {
        let (atx, brx) = channel();
        let (btx, arx) = channel();
        (DuplexTransport { tx: atx, rx: arx }, DuplexTransport { tx: btx, rx: brx })
    }
}

impl FrameTransport for DuplexTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), ProtocolError> {
        if frame.len() > MAX_FRAME_BYTES {
            return Err(ProtocolError::FrameTooLarge { len: frame.len(), max: MAX_FRAME_BYTES });
        }
        self.tx
            .send(frame.to_vec())
            .map_err(|_| ProtocolError::Io { detail: "peer endpoint dropped".into() })
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, ProtocolError> {
        // Disconnected sender == clean close, matching TCP EOF.
        Ok(self.rx.recv().ok())
    }
}

/// Lock-step transport that dispatches every sent frame straight into a
/// [`ServerState`] and queues the reply for the next `recv` — the full
/// encode → envelope-verify → decode → handle path with no sockets or
/// threads. The determinism tests run the load generator over this.
pub struct InProcessTransport<'a> {
    server: &'a mut ServerState,
    replies: VecDeque<Vec<u8>>,
}

impl<'a> InProcessTransport<'a> {
    /// Connects a client directly to `server`.
    pub fn new(server: &'a mut ServerState) -> Self {
        Self { server, replies: VecDeque::new() }
    }
}

impl FrameTransport for InProcessTransport<'_> {
    fn send(&mut self, frame: &[u8]) -> Result<(), ProtocolError> {
        let (reply, _control) = self.server.handle_frame(frame);
        self.replies.push_back(reply);
        Ok(())
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, ProtocolError> {
        Ok(self.replies.pop_front())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"alpha").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"bravo charlie").unwrap();
        let mut r = Cursor::new(wire);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"alpha"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"bravo charlie"[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    /// A writer that takes at most 3 bytes a call, refuses every other
    /// call as interrupted, and has no vectored write of its own.
    struct Trickle {
        bytes: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                return Err(ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(3);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_and_interrupted_writes_still_write_the_whole_frame() {
        for frame in [&b""[..], b"ab", b"some longer payload"] {
            let mut wire = Trickle { bytes: Vec::new(), calls: 0 };
            write_frame(&mut wire, frame).unwrap();
            let mut whole = Vec::new();
            write_frame(&mut whole, frame).unwrap();
            assert_eq!(wire.bytes, whole);
            assert_eq!(read_frame(&mut Cursor::new(wire.bytes)).unwrap().as_deref(), Some(frame));
        }
        // A writer that takes nothing is an error, not a spin.
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        assert!(matches!(write_frame(&mut Full, b"x"), Err(ProtocolError::Io { .. })));
    }

    #[test]
    fn truncation_and_oversize_are_typed() {
        // Cut inside the payload.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"some payload").unwrap();
        wire.truncate(wire.len() - 3);
        assert!(matches!(
            read_frame(&mut Cursor::new(wire)),
            Err(ProtocolError::TruncatedFrame { .. })
        ));
        // Cut inside the prefix.
        assert!(matches!(
            read_frame(&mut Cursor::new(vec![0u8, 0])),
            Err(ProtocolError::TruncatedFrame { expected: 4, got: 2 })
        ));
        // Absurd length prefix.
        let huge = 0xFFFF_FFFFu32.to_be_bytes().to_vec();
        assert!(matches!(
            read_frame(&mut Cursor::new(huge)),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn stalled_tcp_peer_times_out_typed_then_late_frame_still_arrives() {
        use std::net::TcpListener;
        use std::time::Duration;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            // Stall well past the client's deadline, then deliver.
            std::thread::sleep(Duration::from_millis(300));
            write_frame(&mut peer, b"late frame").unwrap();
            // Hold the socket open until the client is done reading.
            std::thread::sleep(Duration::from_millis(500));
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut t = TcpTransport::with_timeout(stream, Some(Duration::from_millis(50)));
        // First recv hits the deadline: typed timeout, not a hang and
        // not a generic Io error.
        match t.recv() {
            Err(ProtocolError::Timeout { secs }) => assert!((secs - 0.05).abs() < 1e-9),
            other => panic!("expected Timeout, got {other:?}"),
        }
        // The frame that arrives after the timeout is still readable on
        // a later call — the deadline never desyncs the stream.
        let late = loop {
            match t.recv() {
                Ok(Some(frame)) => break frame,
                Err(ProtocolError::Timeout { .. }) => continue,
                other => panic!("expected the late frame, got {other:?}"),
            }
        };
        assert_eq!(late, b"late frame");
        server.join().unwrap();
    }

    /// `frames`, each behind its length prefix, in one buffer.
    fn wire_of(frames: &[&[u8]]) -> Vec<u8> {
        let mut wire = Vec::new();
        for frame in frames {
            write_frame(&mut wire, frame).unwrap();
        }
        wire
    }

    /// A [`TcpTransport`] whose peer sends each of `writes` in one
    /// `write_all`, then closes. The pause after each write makes it
    /// likely to arrive in a read of its own; the frames read must be the
    /// same however the bytes arrive.
    fn tcp_fed_by(writes: Vec<Vec<u8>>) -> (TcpTransport, std::thread::JoinHandle<()>) {
        use std::net::TcpListener;
        use std::time::Duration;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            peer.set_nodelay(true).unwrap();
            for bytes in writes {
                peer.write_all(&bytes).unwrap();
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let stream = TcpStream::connect(addr).unwrap();
        (TcpTransport::with_timeout(stream, Some(Duration::from_secs(10))), peer)
    }

    #[test]
    fn tcp_recv_parts_one_write_into_frames_and_joins_a_split_one() {
        // Larger than the read buffer: its body bypasses it once drained.
        let big: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let back_to_back = wire_of(&[b"alpha", b"", &big, b"bravo"]);
        let split = wire_of(&[b"charlie delta"]);
        let (body_head, body_tail) = split.split_at(7);
        let big_alone = wire_of(&[&big]);
        let (prefix_head, prefix_tail) = big_alone.split_at(2);
        let writes = [back_to_back.as_slice(), body_head, body_tail, prefix_head, prefix_tail];
        let (mut t, peer) = tcp_fed_by(writes.iter().map(|w| w.to_vec()).collect());
        for want in [&b"alpha"[..], b"", &big, b"bravo", b"charlie delta", &big] {
            assert_eq!(t.recv().unwrap().as_deref(), Some(want));
        }
        assert_eq!(t.recv().unwrap(), None, "a close at a frame boundary is a clean end");
        peer.join().unwrap();
    }

    #[test]
    fn tcp_eof_inside_a_frame_is_truncated() {
        let wire = wire_of(&[b"alpha", b"some payload"]);
        let (mut t, peer) = tcp_fed_by(vec![wire[..wire.len() - 3].to_vec()]);
        assert_eq!(t.recv().unwrap().as_deref(), Some(&b"alpha"[..]));
        assert!(matches!(t.recv(), Err(ProtocolError::TruncatedFrame { expected: 12, got: 9 })));
        peer.join().unwrap();
    }

    /// Both ends of one loopback connection.
    fn loopback_streams() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        (near, listener.accept().unwrap().0)
    }

    /// A connected pair of transports whose every `recv` gives up after
    /// `deadline`, so a frame that is never written fails the test
    /// instead of hanging it.
    fn tcp_pair(deadline: std::time::Duration) -> (TcpTransport, TcpTransport) {
        let (near, far) = loopback_streams();
        (
            TcpTransport::with_timeout(near, Some(deadline)),
            TcpTransport::with_timeout(far, Some(deadline)),
        )
    }

    /// The deadline of a transport that checks that nothing arrived.
    const QUIET: std::time::Duration = std::time::Duration::from_millis(100);

    /// The next frame `t` reads within two seconds.
    fn next_frame(t: &mut TcpTransport) -> Vec<u8> {
        for _ in 0..20 {
            match t.recv() {
                Ok(Some(frame)) => return frame,
                Err(ProtocolError::Timeout { .. }) => continue,
                other => panic!("expected a frame, got {other:?}"),
            }
        }
        panic!("no frame arrived within two seconds");
    }

    /// That no frame reaches `t` within its deadline: a timeout with
    /// nothing consumed, after which `t` reads on as before.
    fn nothing_arrives(t: &mut TcpTransport) {
        match t.recv() {
            Err(ProtocolError::Timeout { .. }) => {}
            other => panic!("expected nothing on the wire, got {other:?}"),
        }
    }

    #[test]
    fn a_lone_request_is_on_the_wire_when_send_returns() {
        let (mut client, mut server) = tcp_pair(QUIET);
        client.send(b"lone request").unwrap();
        // The client never calls `recv`: the frame left with the `send`.
        assert_eq!(next_frame(&mut server), b"lone request");
    }

    #[test]
    fn requests_behind_an_unanswered_one_arrive_whole_and_in_order() {
        let (mut client, mut server) = tcp_pair(QUIET);
        let big: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        client.send(b"first").unwrap();
        assert_eq!(next_frame(&mut server), b"first");
        // "first" is unanswered, so these wait in the queue...
        client.send(b"second").unwrap();
        client.send(b"").unwrap();
        nothing_arrives(&mut server);
        // ...until a frame too large for it goes out and takes them along.
        client.send(&big).unwrap();
        client.send(b"last").unwrap();
        for want in [&b"second"[..], b"", &big] {
            assert_eq!(next_frame(&mut server), want);
        }
        nothing_arrives(&mut server);
        // The client's next `recv` writes "last" before it reads.
        server.send(b"reply").unwrap();
        assert_eq!(client.recv().unwrap().as_deref(), Some(&b"reply"[..]));
        assert_eq!(next_frame(&mut server), b"last");
    }

    #[test]
    fn answers_to_a_buffered_window_leave_together_before_the_server_blocks() {
        let (mut near, far) = loopback_streams();
        // The window is one write, so the server's first read takes it whole.
        near.write_all(&wire_of(&[b"one", b"two", b"three"])).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut client = TcpTransport::with_timeout(near, Some(QUIET));
        let mut server = TcpTransport::with_timeout(far, Some(QUIET));
        for request in [&b"one"[..], b"two"] {
            assert_eq!(server.recv().unwrap().as_deref(), Some(request));
            server.send(&[b"re:", request].concat()).unwrap();
        }
        // The next request is already buffered: both answers are held.
        nothing_arrives(&mut client);
        assert_eq!(server.recv().unwrap().as_deref(), Some(&b"three"[..]));
        server.send(b"re:three").unwrap();
        // Nothing is buffered behind the last one: the group is written
        // with it, and the server never reads again.
        for want in [&b"re:one"[..], b"re:two", b"re:three"] {
            assert_eq!(next_frame(&mut client), want);
        }
    }

    #[test]
    fn dropping_a_transport_delivers_its_queue() {
        let (mut client, mut server) = tcp_pair(QUIET);
        client.send(b"asked").unwrap();
        client.send(b"queued behind it").unwrap();
        drop(client);
        assert_eq!(next_frame(&mut server), b"asked");
        assert_eq!(next_frame(&mut server), b"queued behind it");
        assert_eq!(server.recv().unwrap(), None);
    }

    #[test]
    fn a_queued_write_to_a_closed_peer_fails_typed_at_recv() {
        let (mut client, server) = tcp_pair(QUIET);
        client.send(b"never read").unwrap();
        // Closing with unread bytes resets the connection.
        drop(server);
        std::thread::sleep(std::time::Duration::from_millis(20));
        client.send(b"queued").unwrap();
        assert!(matches!(client.recv(), Err(ProtocolError::Io { .. })));
    }

    #[test]
    fn duplex_pair_carries_frames_both_ways() {
        let (mut a, mut b) = DuplexTransport::pair();
        a.send(b"ping").unwrap();
        assert_eq!(b.recv().unwrap().as_deref(), Some(&b"ping"[..]));
        b.send(b"pong").unwrap();
        assert_eq!(a.recv().unwrap().as_deref(), Some(&b"pong"[..]));
        drop(b);
        assert_eq!(a.recv().unwrap(), None);
        assert!(a.send(b"late").is_err());
    }
}
