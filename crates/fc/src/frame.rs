//! FC-PH frames and ordered sets.
//!
//! Fibre Channel (\[ANS94\]) frames a payload with an SOF (start-of-frame)
//! ordered set, a 24-byte frame header, the payload, a CRC-32, and an EOF
//! ordered set. Ordered sets are four transmission characters beginning
//! with the comma K28.5. The injector's FC interface sees this stream after
//! 8b/10b decoding; [`FcFrame::to_line`] / [`decode_line`] run the full
//! path through the `netfi-phy` codec.

use std::error::Error;
use std::fmt;

use netfi_phy::b8b10::{Byte8, Decoder, Encoder};
use netfi_sim::SharedBytes;

use crate::crc32;

/// A 24-bit Fibre Channel port address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FcAddress(pub u32);

impl FcAddress {
    /// Builds an address, masking to 24 bits.
    pub const fn new(v: u32) -> FcAddress {
        FcAddress(v & 0x00FF_FFFF)
    }
}

impl fmt::Display for FcAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:06x}", self.0)
    }
}

/// Start-of-frame delimiters (a useful subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sof {
    /// Class-3 frame, initiating a sequence.
    Initiate3,
    /// Class-3 frame, continuing a sequence.
    Normal3,
}

/// End-of-frame delimiters (a useful subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eof {
    /// Normal end.
    Normal,
    /// Sequence-terminating end.
    Terminate,
}

/// Primitive signals relevant to the injector campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Primitive {
    /// Link filler.
    Idle,
    /// Buffer-to-buffer credit return — FC's flow-control symbol, the
    /// analogue of Myrinet's GO.
    RReady,
}

/// The second-to-fourth characters of each ordered set (after K28.5).
/// Encodings follow FC-PH's D-character patterns.
fn ordered_set_tail(kind: OrderedSet) -> [u8; 3] {
    match kind {
        OrderedSet::Sof(Sof::Initiate3) => [0x56, 0x55, 0x55],  // SOFi3
        OrderedSet::Sof(Sof::Normal3) => [0x36, 0x36, 0x36],    // SOFn3
        OrderedSet::Eof(Eof::Normal) => [0xD5, 0xD6, 0xD6],     // EOFn
        OrderedSet::Eof(Eof::Terminate) => [0xD5, 0xD5, 0xD5],  // EOFt
        OrderedSet::Primitive(Primitive::Idle) => [0x95, 0xB5, 0xB5],
        OrderedSet::Primitive(Primitive::RReady) => [0x95, 0xD5, 0x65],
    }
}

/// Any four-character ordered set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OrderedSet {
    /// A start-of-frame delimiter.
    Sof(Sof),
    /// An end-of-frame delimiter.
    Eof(Eof),
    /// A primitive signal.
    Primitive(Primitive),
}

impl OrderedSet {
    /// All ordered sets this stack understands.
    pub const ALL: [OrderedSet; 6] = [
        OrderedSet::Sof(Sof::Initiate3),
        OrderedSet::Sof(Sof::Normal3),
        OrderedSet::Eof(Eof::Normal),
        OrderedSet::Eof(Eof::Terminate),
        OrderedSet::Primitive(Primitive::Idle),
        OrderedSet::Primitive(Primitive::RReady),
    ];

    /// The four characters (K28.5 + three data characters).
    pub fn chars(self) -> [Byte8; 4] {
        let tail = ordered_set_tail(self);
        [
            netfi_phy::b8b10::K28_5,
            Byte8::Data(tail[0]),
            Byte8::Data(tail[1]),
            Byte8::Data(tail[2]),
        ]
    }

    /// Recognizes an ordered set from its three data characters.
    pub(crate) fn from_tail(tail: [u8; 3]) -> Option<OrderedSet> {
        Self::ALL
            .into_iter()
            .find(|&os| ordered_set_tail(os) == tail)
    }
}

/// The 24-byte FC frame header (word-oriented fields this stack uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FcHeader {
    /// Routing control.
    pub r_ctl: u8,
    /// Destination port address.
    pub d_id: FcAddress,
    /// Source port address.
    pub s_id: FcAddress,
    /// Data structure type.
    pub type_field: u8,
    /// Sequence id.
    pub seq_id: u8,
    /// Sequence count.
    pub seq_cnt: u16,
    /// Originator exchange id.
    pub ox_id: u16,
    /// Responder exchange id.
    pub rx_id: u16,
}

impl FcHeader {
    /// Encoded length.
    pub const LEN: usize = 24;

    /// Serializes to the 24-byte wire layout.
    pub fn encode(&self) -> [u8; 24] {
        let mut out = [0u8; 24];
        out[0] = self.r_ctl;
        out[1..4].copy_from_slice(&self.d_id.0.to_be_bytes()[1..]);
        out[5..8].copy_from_slice(&self.s_id.0.to_be_bytes()[1..]);
        out[8] = self.type_field;
        // bytes 9..12: F_CTL (zero in this stack)
        out[12] = self.seq_id;
        // byte 13: DF_CTL
        out[14..16].copy_from_slice(&self.seq_cnt.to_be_bytes());
        out[16..18].copy_from_slice(&self.ox_id.to_be_bytes());
        out[18..20].copy_from_slice(&self.rx_id.to_be_bytes());
        // bytes 20..24: parameter
        out
    }

    /// Parses the 24-byte wire layout.
    pub fn decode(buf: &[u8; 24]) -> FcHeader {
        FcHeader {
            r_ctl: buf[0],
            d_id: FcAddress(u32::from_be_bytes([0, buf[1], buf[2], buf[3]])),
            s_id: FcAddress(u32::from_be_bytes([0, buf[5], buf[6], buf[7]])),
            type_field: buf[8],
            seq_id: buf[12],
            seq_cnt: u16::from_be_bytes([buf[14], buf[15]]),
            ox_id: u16::from_be_bytes([buf[16], buf[17]]),
            rx_id: u16::from_be_bytes([buf[18], buf[19]]),
        }
    }
}

/// A complete Fibre Channel frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FcFrame {
    /// Start delimiter.
    pub sof: Sof,
    /// Frame header.
    pub header: FcHeader,
    /// Payload (0–2112 bytes in FC-PH), cheaply clonable.
    pub payload: SharedBytes,
    /// End delimiter.
    pub eof: Eof,
}

/// Frame decoding errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FcError {
    /// Line decoding failed (invalid 10-bit code or disparity).
    LineCode,
    /// Stream structure violated (missing/unknown delimiters).
    Framing,
    /// CRC-32 check failed.
    BadCrc,
    /// Payload exceeds the FC-PH maximum of 2112 bytes.
    PayloadTooLong,
}

impl fmt::Display for FcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FcError::LineCode => f.write_str("8b/10b line-code error"),
            FcError::Framing => f.write_str("frame delimiter structure violated"),
            FcError::BadCrc => f.write_str("frame CRC-32 failed"),
            FcError::PayloadTooLong => f.write_str("payload exceeds 2112 bytes"),
        }
    }
}

impl Error for FcError {}

impl FcFrame {
    /// Builds a class-3 data frame.
    pub fn data(
        d_id: FcAddress,
        s_id: FcAddress,
        seq_cnt: u16,
        payload: impl Into<SharedBytes>,
    ) -> FcFrame {
        FcFrame {
            sof: if seq_cnt == 0 { Sof::Initiate3 } else { Sof::Normal3 },
            header: FcHeader {
                r_ctl: 0x01,
                d_id,
                s_id,
                type_field: 0x08, // SCSI-FCP, a typical payload type
                seq_id: 0,
                seq_cnt,
                ox_id: 0,
                rx_id: 0xFFFF,
            },
            payload: payload.into(),
            eof: Eof::Normal,
        }
    }

    /// The frame content between delimiters: header, payload, CRC-32.
    pub fn body(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FcHeader::LEN + self.payload.len() + 4);
        out.extend_from_slice(&self.header.encode());
        out.extend_from_slice(&self.payload);
        let crc = crc32::checksum(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Encodes the whole frame — SOF, body, EOF — through 8b/10b into
    /// 10-bit transmission characters, using (and advancing) `encoder`'s
    /// running disparity.
    ///
    /// # Errors
    ///
    /// [`FcError::PayloadTooLong`] beyond the 2112-byte FC-PH limit.
    pub fn to_line(&self, encoder: &mut Encoder) -> Result<Vec<u16>, FcError> {
        if self.payload.len() > 2112 {
            return Err(FcError::PayloadTooLong);
        }
        self.line_with_body(&self.body(), encoder)
    }

    /// Encodes `body` between this frame's SOF and EOF through 8b/10b, as
    /// [`to_line`](FcFrame::to_line) does with [`body`](FcFrame::body):
    /// the line a device downstream of an injection sends on, whether or
    /// not it resealed the CRC-32 ([`crc32::reseal`]).
    ///
    /// # Errors
    ///
    /// [`FcError::LineCode`] if the encoder rejects a character.
    pub fn line_with_body(&self, body: &[u8], encoder: &mut Encoder) -> Result<Vec<u16>, FcError> {
        OrderedSet::Sof(self.sof)
            .chars()
            .into_iter()
            .chain(body.iter().map(|&b| Byte8::Data(b)))
            .chain(OrderedSet::Eof(self.eof).chars())
            .map(|c| encoder.push(c).map_err(|_| FcError::LineCode))
            .collect()
    }
}

/// Decodes one frame from a 10-bit character stream (which must begin at
/// the SOF comma), returning the frame and the number of line characters
/// consumed.
///
/// # Errors
///
/// [`FcError`] on line-code, framing or CRC violations — each of which a
/// monitoring device distinguishes when classifying injected faults.
pub fn decode_line(line: &[u16], decoder: &mut Decoder) -> Result<(FcFrame, usize), FcError> {
    let mut bytes: Vec<(usize, Byte8)> = Vec::with_capacity(line.len());
    // Decode up front; stop at the second K28.5 group (EOF).
    let mut commas = Vec::new();
    for (i, &code) in line.iter().enumerate() {
        let byte = decoder.push(code).map_err(|_| FcError::LineCode)?;
        if byte == netfi_phy::b8b10::K28_5 {
            commas.push(i);
        }
        bytes.push((i, byte));
        if commas.len() == 2 && i >= commas[1] + 3 {
            break;
        }
    }
    if commas.len() < 2 {
        return Err(FcError::Framing);
    }
    let (sof_at, eof_at) = (commas[0], commas[1]);
    if sof_at != 0 || eof_at + 3 > bytes.len() {
        return Err(FcError::Framing);
    }
    let tail3 = |start: usize| -> Result<[u8; 3], FcError> {
        let mut out = [0u8; 3];
        for (k, slot) in out.iter_mut().enumerate() {
            match bytes.get(start + 1 + k).map(|&(_, b)| b) {
                Some(Byte8::Data(d)) => *slot = d,
                _ => return Err(FcError::Framing),
            }
        }
        Ok(out)
    };
    let Some(OrderedSet::Sof(sof)) = OrderedSet::from_tail(tail3(sof_at)?) else {
        return Err(FcError::Framing);
    };
    let Some(OrderedSet::Eof(eof)) = OrderedSet::from_tail(tail3(eof_at)?) else {
        return Err(FcError::Framing);
    };
    let mut body = Vec::with_capacity(eof_at - 4);
    for &(_, b) in &bytes[4..eof_at] {
        match b {
            Byte8::Data(d) => body.push(d),
            Byte8::Special(_) => return Err(FcError::Framing),
        }
    }
    if body.len() < FcHeader::LEN + 4 {
        return Err(FcError::Framing);
    }
    if !crc32::verify(&body) {
        return Err(FcError::BadCrc);
    }
    let header_bytes: [u8; 24] = body[..24].try_into().map_err(|_| FcError::Framing)?;
    let header = FcHeader::decode(&header_bytes);
    let payload = SharedBytes::from(&body[24..body.len() - 4]);
    Ok((
        FcFrame {
            sof,
            header,
            payload,
            eof,
        },
        eof_at + 4,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FcFrame {
        FcFrame::data(
            FcAddress::new(0x010203),
            FcAddress::new(0x0A0B0C),
            0,
            b"fibre channel payload".to_vec(),
        )
    }

    #[test]
    fn header_roundtrip() {
        let h = FcHeader {
            r_ctl: 0x22,
            d_id: FcAddress::new(0xABCDEF),
            s_id: FcAddress::new(0x123456),
            type_field: 0x08,
            seq_id: 9,
            seq_cnt: 1234,
            ox_id: 0xBEEF,
            rx_id: 0xCAFE,
        };
        assert_eq!(FcHeader::decode(&h.encode()), h);
    }

    #[test]
    fn frame_line_roundtrip() {
        let frame = sample();
        let mut enc = Encoder::new();
        let line = frame.to_line(&mut enc).unwrap();
        let mut dec = Decoder::new();
        let (decoded, consumed) = decode_line(&line, &mut dec).unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(consumed, line.len());
    }

    #[test]
    fn multiple_frames_share_disparity() {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        for i in 0..5u16 {
            let frame = FcFrame::data(
                FcAddress::new(1),
                FcAddress::new(2),
                i,
                vec![i as u8; 17 + i as usize],
            );
            let line = frame.to_line(&mut enc).unwrap();
            let (decoded, _) = decode_line(&line, &mut dec).unwrap();
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn corrupted_body_byte_is_crc_error() {
        let frame = sample();
        let mut body = frame.body();
        body[24 + 3] ^= 0x01; // payload corruption without CRC fix
        let line = frame.line_with_body(&body, &mut Encoder::new()).unwrap();
        let mut dec = Decoder::new();
        assert_eq!(decode_line(&line, &mut dec), Err(FcError::BadCrc));
        // Resealed, the same corruption decodes as a valid frame.
        crc32::reseal(&mut body);
        let line = frame.line_with_body(&body, &mut Encoder::new()).unwrap();
        let (rx, _) = decode_line(&line, &mut Decoder::new()).unwrap();
        assert_eq!(rx.payload[3], frame.payload[3] ^ 0x01);
    }

    #[test]
    fn corrupted_line_code_detected() {
        let frame = sample();
        let mut enc = Encoder::new();
        let mut line = frame.to_line(&mut enc).unwrap();
        line[10] = 0x3FF; // never a valid code
        let mut dec = Decoder::new();
        assert_eq!(decode_line(&line, &mut dec), Err(FcError::LineCode));
    }

    #[test]
    fn missing_eof_is_framing_error() {
        let frame = sample();
        let mut enc = Encoder::new();
        let line = frame.to_line(&mut enc).unwrap();
        let mut dec = Decoder::new();
        assert_eq!(
            decode_line(&line[..line.len() - 4], &mut dec),
            Err(FcError::Framing)
        );
    }

    #[test]
    fn payload_limit_enforced() {
        let mut frame = sample();
        frame.payload = vec![0; 2113].into();
        let mut enc = Encoder::new();
        assert_eq!(frame.to_line(&mut enc), Err(FcError::PayloadTooLong));
    }

    #[test]
    fn ordered_sets_distinct_and_recognizable() {
        for os in OrderedSet::ALL {
            let chars = os.chars();
            assert_eq!(chars[0], netfi_phy::b8b10::K28_5);
            let tail = [
                match chars[1] { Byte8::Data(d) => d, _ => panic!() },
                match chars[2] { Byte8::Data(d) => d, _ => panic!() },
                match chars[3] { Byte8::Data(d) => d, _ => panic!() },
            ];
            assert_eq!(OrderedSet::from_tail(tail), Some(os));
        }
    }

    #[test]
    fn sof_choice_tracks_sequence_position() {
        assert_eq!(FcFrame::data(FcAddress(1), FcAddress(2), 0, vec![]).sof, Sof::Initiate3);
        assert_eq!(FcFrame::data(FcAddress(1), FcAddress(2), 3, vec![]).sof, Sof::Normal3);
    }
}
