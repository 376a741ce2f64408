//! Length-prefixed, versioned, checksummed framing over any byte stream.
//!
//! The store codec idiom (DESIGN.md §12), lifted onto a socket: every
//! frame is
//!
//! ```text
//! magic "PWRD" | version u32 LE | kind u8 | payload_len u64 LE
//!   | payload bytes | checksum64(payload) u64 LE
//! ```
//!
//! A torn write, a version-skewed peer, or a stray process scribbling
//! on the socket all surface as a typed [`ProtocolError`] — never a
//! hang, a huge allocation, or decoded garbage. The checksum uses the
//! same salted `checksum64` as store records, so frame integrity and
//! record integrity share one primitive.

use std::io::{Read, Write};

use crate::store::checksum64;

use super::protocol::{ProtocolError, Request, Response, PROTOCOL_VERSION};

/// Frame header magic: "PWRD" (PoWeR Daemon).
pub(crate) const FRAME_MAGIC: [u8; 4] = *b"PWRD";

/// Upper bound on a frame payload. Sweep replies carry full
/// [`mpi_sim::RunResult`]s, so this is generous — but a corrupted
/// length field must fail typed, not drive a multi-gigabyte allocation.
pub(crate) const MAX_PAYLOAD_BYTES: u64 = 256 * 1024 * 1024;

/// Write one frame: header, payload, trailing checksum. The whole frame
/// is assembled in memory and written with a single `write_all`, so a
/// well-behaved transport never exposes a half-written header.
pub(crate) fn write_frame<W: Write>(
    w: &mut W,
    kind: u8,
    payload: &[u8],
) -> Result<(), ProtocolError> {
    let mut frame = Vec::with_capacity(4 + 4 + 1 + 8 + payload.len() + 8);
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    frame.push(kind);
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&checksum64(payload).to_le_bytes());
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame; returns the kind byte and verified payload.
pub(crate) fn read_frame<R: Read>(r: &mut R) -> Result<(u8, Vec<u8>), ProtocolError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != FRAME_MAGIC {
        return Err(ProtocolError::BadMagic);
    }
    let mut version = [0u8; 4];
    r.read_exact(&mut version)?;
    let version = u32::from_le_bytes(version);
    if version != PROTOCOL_VERSION {
        return Err(ProtocolError::Version { found: version });
    }
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    let [kind] = kind;
    let mut len = [0u8; 8];
    r.read_exact(&mut len)?;
    let len = u64::from_le_bytes(len);
    if len > MAX_PAYLOAD_BYTES {
        return Err(ProtocolError::TooLarge { len });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut checksum = [0u8; 8];
    r.read_exact(&mut checksum)?;
    if u64::from_le_bytes(checksum) != checksum64(&payload) {
        return Err(ProtocolError::Checksum);
    }
    Ok((kind, payload))
}

/// Write a [`Request`] as one frame.
pub fn write_request<W: Write>(w: &mut W, request: &Request) -> Result<(), ProtocolError> {
    write_frame(w, request.kind(), &request.encode_payload())
}

/// Read a [`Request`] frame.
pub fn read_request<R: Read>(r: &mut R) -> Result<Request, ProtocolError> {
    let (kind, payload) = read_frame(r)?;
    Request::decode(kind, &payload)
}

/// Write a [`Response`] as one frame.
pub(crate) fn write_response<W: Write>(
    w: &mut W,
    response: &Response,
) -> Result<(), ProtocolError> {
    write_frame(w, response.kind(), &response.encode_payload())
}

/// Read a [`Response`] frame.
pub(crate) fn read_response<R: Read>(r: &mut R) -> Result<Response, ProtocolError> {
    let (kind, payload) = read_frame(r)?;
    Response::decode(kind, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::protocol::SweepSpec;

    fn round_trip_request(request: &Request) -> Request {
        let mut buf = Vec::new();
        write_request(&mut buf, request).unwrap();
        read_request(&mut &buf[..]).unwrap()
    }

    #[test]
    fn frames_round_trip_over_a_byte_stream() {
        let spec = SweepSpec {
            workloads: vec!["ft-test4".into()],
            strategies: vec!["cpuspeed".into()],
            deltas: vec![0.5],
            ..SweepSpec::default()
        };
        for request in [
            Request::SubmitSweep(spec.clone()),
            Request::Query(spec),
            Request::Status,
            Request::Shutdown,
        ] {
            assert_eq!(round_trip_request(&request), request);
        }
        let mut buf = Vec::new();
        write_response(&mut buf, &Response::Error("nope".into())).unwrap();
        let back = read_response(&mut &buf[..]).unwrap();
        assert_eq!(back, Response::Error("nope".into()));
    }

    #[test]
    fn truncation_at_every_length_is_a_typed_error() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Shutdown).unwrap();
        for cut in 0..buf.len() {
            let err = read_request(&mut &buf[..cut]).unwrap_err();
            assert!(
                matches!(err, ProtocolError::Io(_)),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn corruption_is_detected_wherever_it_lands() {
        let mut pristine = Vec::new();
        write_request(&mut pristine, &Request::Status).unwrap();
        for byte in 0..pristine.len() {
            let mut buf = pristine.clone();
            buf[byte] ^= 0x55;
            let result = read_request(&mut &buf[..]);
            assert!(result.is_err(), "flip at byte {byte} was not detected");
        }
    }

    #[test]
    fn version_skew_and_oversize_are_typed() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Status).unwrap();
        let mut skewed = buf.clone();
        skewed[4..8].copy_from_slice(&(PROTOCOL_VERSION + 1).to_le_bytes());
        assert!(matches!(
            read_request(&mut &skewed[..]),
            Err(ProtocolError::Version { found }) if found == PROTOCOL_VERSION + 1
        ));
        let mut huge = buf;
        huge[9..17].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            read_request(&mut &huge[..]),
            Err(ProtocolError::TooLarge { len: u64::MAX })
        ));
    }

    #[test]
    fn v1_sweep_frame_is_a_typed_version_error() {
        // A v1 peer appended a shard-count u64 to every sweep spec. Its frame
        // must be refused on the version word, not misparsed as v2.
        let request = Request::SubmitSweep(SweepSpec {
            workloads: vec!["ft-test4".into()],
            strategies: vec!["static-800".into()],
            ..Default::default()
        });
        let mut payload = request.encode_payload();
        payload.extend_from_slice(&4u64.to_le_bytes());
        let mut frame = Vec::new();
        frame.extend_from_slice(&FRAME_MAGIC);
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.push(request.kind());
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&checksum64(&payload).to_le_bytes());
        assert!(matches!(
            read_request(&mut &frame[..]),
            Err(ProtocolError::Version { found: 1 })
        ));
    }
}
