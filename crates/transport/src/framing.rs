//! Length-framed byte streams: how codec payloads survive a transport
//! that delivers *bytes*, not messages.
//!
//! The frame layout is pinned next to the codec's version byte
//! ([`polystyrene_protocol::codec::FRAME_VERSION`]): a `u32`
//! little-endian length prefix counting everything after itself, one
//! frame-version byte, then the payload. [`write_frame_into`] emits the
//! whole frame with a single `write_all` (short writes are retried inside
//! it); [`read_frame_into`] reassembles a frame from however many partial reads
//! the socket produces, rejects oversized or mis-versioned frames
//! *before* allocating, and distinguishes three non-frame outcomes a
//! socket loop needs: clean close at a frame boundary, idle timeout
//! before a frame started, and hard stream errors (which include a close
//! or timeout *mid-frame* — once a frame's first byte arrived, anything
//! but its completion is stream corruption).

use polystyrene_protocol::codec::{FRAME_VERSION, MAX_FRAME_BYTES};
use std::io::{self, Read, Write};

/// Outcome of one [`read_frame_into`] attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameStatus {
    /// A complete frame; its payload is in the caller's buffer.
    Frame,
    /// The stream closed cleanly at a frame boundary.
    Closed,
    /// A read timeout fired before any byte of a new frame arrived —
    /// the connection is merely idle, not broken. Only surfaced when the
    /// underlying stream has a read timeout configured.
    Idle,
}

/// Whether an IO error is a read-timeout expiry (both kinds, for
/// platform portability).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Default wall-clock budget for completing one frame once its first
/// byte has arrived. A well-behaved sender emits each frame with a single
/// `write_all`, so even brutal scheduling jitter clears one frame in
/// well under a second; a sender that opens a frame and then trickles
/// or stalls — dead in a way the kernel has not surfaced yet, or
/// hostile — must not pin the reading thread (and its stop-flag check)
/// without bound. A wall deadline, not a window counter: counting
/// empty timeout windows would be defeated by one byte per window.
pub const MID_FRAME_DEADLINE: std::time::Duration = std::time::Duration::from_secs(30);

/// Fills `buf` across as many partial reads as it takes.
///
/// `at_boundary` declares that no byte of the current frame has been
/// consumed yet, making two outcomes non-errors: EOF (`Closed`) and a
/// read timeout (`Idle`). Past the boundary the frame has started, so
/// EOF becomes [`io::ErrorKind::UnexpectedEof`] — a peer that dies
/// mid-frame must poison the stream, never desync it — and the whole
/// fill must land within `deadline` of the frame's first byte or the
/// stall itself poisons the stream.
fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    at_boundary: bool,
    deadline: std::time::Duration,
) -> io::Result<Option<FrameStatus>> {
    let mut filled = 0;
    // Armed from the frame's first byte: boundary fills start the clock
    // only once something arrived, later fills are mid-frame already.
    let mut expires: Option<std::time::Instant> = if at_boundary {
        None
    } else {
        Some(std::time::Instant::now() + deadline)
    };
    while filled < buf.len() {
        if expires.is_some_and(|at| std::time::Instant::now() > at) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "frame not completed within the mid-frame deadline",
            ));
        }
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if at_boundary && filled == 0 {
                    return Ok(Some(FrameStatus::Closed));
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed mid-frame",
                ));
            }
            Ok(n) => {
                filled += n;
                expires.get_or_insert_with(|| std::time::Instant::now() + deadline);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if at_boundary && filled == 0 {
                    return Ok(Some(FrameStatus::Idle));
                }
                // Mid-frame the peer is expected to be actively
                // writing: ride out scheduling jitter until the
                // deadline says otherwise.
            }
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

/// Reads one frame, handling partial reads, into a caller-owned buffer
/// (cleared and overwritten) — so a connection's reader amortizes one
/// allocation over every frame it will ever receive — or reports
/// [`FrameStatus::Closed`] / [`FrameStatus::Idle`] when the stream ended
/// or timed out *between* frames. `deadline` is the wall-clock budget
/// per frame, counted from its first byte (idling between frames is
/// unlimited); [`MID_FRAME_DEADLINE`] is the default.
///
/// # Errors
///
/// Any mid-frame stream failure, a frame that fails to complete within
/// the deadline of its first byte, a declared length of zero or above
/// [`MAX_FRAME_BYTES`] (rejected before the buffer is grown), or a
/// frame-version byte other than [`FRAME_VERSION`].
pub fn read_frame_into(
    r: &mut impl Read,
    deadline: std::time::Duration,
    payload: &mut Vec<u8>,
) -> io::Result<FrameStatus> {
    let mut len_buf = [0u8; 4];
    if let Some(outcome) = fill(r, &mut len_buf, true, deadline)? {
        return Ok(outcome);
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside 1..={MAX_FRAME_BYTES}"),
        ));
    }
    let mut version = [0u8; 1];
    fill(r, &mut version, false, deadline)?;
    if version[0] != FRAME_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame version {} (expected {FRAME_VERSION})", version[0]),
        ));
    }
    payload.clear();
    payload.resize(len - 1, 0);
    fill(r, payload, false, deadline)?;
    Ok(FrameStatus::Frame)
}

/// Writes one frame (length prefix, version byte, payload) as a single
/// buffer, so a frame is never interleaved with torn sibling writes. The
/// frame is assembled in a caller-owned scratch buffer (cleared and
/// overwritten), so a send loop serializes every outgoing frame through
/// one reused allocation.
///
/// # Errors
///
/// A payload larger than [`MAX_FRAME_BYTES`] − 1 (it could never be
/// read back), or any underlying write failure — `write_all` retries
/// short writes internally.
pub fn write_frame_into(w: &mut impl Write, payload: &[u8], frame: &mut Vec<u8>) -> io::Result<()> {
    let len = payload.len() + 1;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("payload of {} bytes exceeds the max frame", payload.len()),
        ));
    }
    frame.clear();
    frame.reserve(4 + len);
    frame.extend_from_slice(&(len as u32).to_le_bytes());
    frame.push(FRAME_VERSION);
    frame.extend_from_slice(payload);
    w.write_all(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A reader that hands out at most one byte per `read` call — the
    /// worst partial-read behavior a socket can legally exhibit.
    struct Trickle {
        bytes: Vec<u8>,
        at: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.at >= self.bytes.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.bytes[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    /// A reader that times out a fixed number of times before each byte.
    struct Flaky {
        bytes: Vec<u8>,
        at: usize,
        timeouts_before_each_byte: usize,
        countdown: usize,
    }

    impl Read for Flaky {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.countdown > 0 {
                self.countdown -= 1;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"));
            }
            self.countdown = self.timeouts_before_each_byte;
            if self.at >= self.bytes.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.bytes[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame_into(&mut out, payload, &mut Vec::new()).unwrap();
        out
    }

    /// One read into a fresh buffer at `deadline`.
    fn read_within(r: &mut impl Read, deadline: Duration) -> io::Result<(FrameStatus, Vec<u8>)> {
        let mut payload = Vec::new();
        read_frame_into(r, deadline, &mut payload).map(|status| (status, payload))
    }

    fn read(r: &mut impl Read) -> io::Result<(FrameStatus, Vec<u8>)> {
        read_within(r, MID_FRAME_DEADLINE)
    }

    fn frame(payload: &[u8]) -> (FrameStatus, Vec<u8>) {
        (FrameStatus::Frame, payload.to_vec())
    }

    const CLOSED: (FrameStatus, Vec<u8>) = (FrameStatus::Closed, Vec::new());
    const IDLE: (FrameStatus, Vec<u8>) = (FrameStatus::Idle, Vec::new());

    #[test]
    fn roundtrip_through_a_buffer() {
        let mut wire = framed(b"hello");
        wire.extend(framed(b""));
        let mut cursor = io::Cursor::new(wire);
        assert_eq!(read(&mut cursor).unwrap(), frame(b"hello"));
        assert_eq!(read(&mut cursor).unwrap(), frame(b""));
        assert_eq!(read(&mut cursor).unwrap(), CLOSED);
    }

    #[test]
    fn reads_and_writes_reuse_dirty_buffers() {
        // One payload buffer and one frame scratch survive several
        // frames of different sizes: every read must fully replace the
        // previous (possibly longer) contents.
        let mut frame_scratch = vec![0xAA; 64];
        let mut wire = Vec::new();
        write_frame_into(&mut wire, b"first frame", &mut frame_scratch).unwrap();
        write_frame_into(&mut wire, b"2nd", &mut frame_scratch).unwrap();
        let mut cursor = io::Cursor::new(wire);
        let mut payload = vec![0xBB; 128]; // deliberately dirty and oversized
        assert_eq!(
            read_frame_into(&mut cursor, MID_FRAME_DEADLINE, &mut payload).unwrap(),
            FrameStatus::Frame
        );
        assert_eq!(payload, b"first frame");
        let cap = payload.capacity();
        assert_eq!(
            read_frame_into(&mut cursor, MID_FRAME_DEADLINE, &mut payload).unwrap(),
            FrameStatus::Frame
        );
        assert_eq!(payload, b"2nd");
        assert_eq!(payload.capacity(), cap, "reuse must keep the allocation");
        assert_eq!(
            read_frame_into(&mut cursor, MID_FRAME_DEADLINE, &mut payload).unwrap(),
            FrameStatus::Closed
        );
    }

    #[test]
    fn partial_reads_reassemble_the_frame() {
        let mut r = Trickle {
            bytes: framed(b"partial"),
            at: 0,
        };
        assert_eq!(read(&mut r).unwrap(), frame(b"partial"));
        assert_eq!(read(&mut r).unwrap(), CLOSED);
    }

    #[test]
    fn timeouts_between_frames_are_idle_but_mid_frame_waits() {
        let mut r = Flaky {
            bytes: framed(b"xy"),
            at: 0,
            timeouts_before_each_byte: 2,
            countdown: 2,
        };
        // First attempt hits the timeout before any byte: idle.
        assert_eq!(read(&mut r).unwrap(), IDLE);
        assert_eq!(read(&mut r).unwrap(), IDLE);
        // Third attempt gets the first byte, then rides out every
        // subsequent timeout until the frame completes.
        assert_eq!(read(&mut r).unwrap(), frame(b"xy"));
    }

    /// A reader whose bytes run out into an endless timeout — a sender
    /// that opened a frame and went silent without closing.
    struct Stall {
        bytes: Vec<u8>,
        at: usize,
    }

    impl Read for Stall {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.at >= self.bytes.len() || buf.is_empty() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"));
            }
            buf[0] = self.bytes[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    #[test]
    fn abandoned_mid_frame_poisons_the_stream_instead_of_pinning_the_reader() {
        // Only the length prefix ever arrives; the frame body never
        // comes and the connection never closes. The reader must give
        // up at the deadline, not retry timeouts forever (a hostile
        // half-frame would otherwise pin the reading thread — and its
        // kill-flag check — for the life of the process). A wall
        // deadline also defeats the byte-trickle variant that a
        // consecutive-empty-window counter would miss.
        let mut r = Stall {
            bytes: framed(b"never finished")[..4].to_vec(),
            at: 0,
        };
        let err = read_within(&mut r, Duration::from_millis(20))
            .expect_err("an abandoned frame must poison the stream");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // Before any frame byte, the same endless silence is mere
        // idleness, reported as such every time.
        let mut idle = Stall {
            bytes: Vec::new(),
            at: 0,
        };
        for _ in 0..3 {
            assert_eq!(
                read_within(&mut idle, Duration::from_millis(20)).unwrap(),
                IDLE
            );
        }
    }

    #[test]
    fn truncation_mid_frame_is_an_error_not_a_close() {
        let full = framed(b"truncated");
        for cut in 1..full.len() {
            let mut cursor = io::Cursor::new(full[..cut].to_vec());
            let err = read(&mut cursor).expect_err("mid-frame EOF must error");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn oversized_and_zero_lengths_rejected_before_allocating() {
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        huge.push(FRAME_VERSION);
        let err = read(&mut io::Cursor::new(huge)).expect_err("oversized");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut zero = Vec::new();
        zero.extend_from_slice(&0u32.to_le_bytes());
        let err = read(&mut io::Cursor::new(zero)).expect_err("zero length");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn wrong_frame_version_rejected() {
        let mut bad = framed(b"v?");
        bad[4] = FRAME_VERSION + 1;
        let err = read(&mut io::Cursor::new(bad)).expect_err("bad version");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_payload_refused_at_write_time() {
        // MAX_FRAME_BYTES zeroes: one byte over the limit once the
        // frame-version byte is counted.
        let payload = vec![0u8; MAX_FRAME_BYTES];
        let mut sink = Vec::new();
        let err = write_frame_into(&mut sink, &payload, &mut Vec::new()).expect_err("too large");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(sink.is_empty(), "nothing may reach the stream");
    }

    /// A writer accepting one byte per call: `write_all` inside
    /// `write_frame_into` must retry until the whole frame is out.
    struct ShortWriter {
        out: Vec<u8>,
    }

    impl Write for ShortWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            self.out.push(buf[0]);
            Ok(1)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_are_retried_to_completion() {
        let mut w = ShortWriter { out: Vec::new() };
        write_frame_into(&mut w, b"short", &mut Vec::new()).unwrap();
        assert_eq!(w.out, framed(b"short"));
    }
}
