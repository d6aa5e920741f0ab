//! The serial command protocol: UART → command decoder FSM. (The paper's
//! 16-bit SPI hop between the UART chip and the FPGA carries these bytes
//! unchanged, so the model feeds them to the decoder directly.)
//!
//! "In a typical fault injection campaign, the user uploads a series of
//! commands to the Command Decoder via a standard serial interface"
//! (§3.3). "The command decoder is a large finite-state machine (FSM),
//! which receives data from the communication handler and applies
//! configuration information to the injector circuitry. It also generates
//! error and acknowledgment signals that are interpreted by the output
//! generator for configuration feedback."
//!
//! The ASCII command language (one command per line, terminated by `\n` or
//! `;`):
//!
//! | Command | Meaning |
//! |---|---|
//! | `DA` / `DB` / `D*` | select direction A→B, B→A, or both |
//! | `M0` / `M1` / `MO` | match mode off / on / once |
//! | `Cxxxxxxxx` | compare data (8 hex digits) |
//! | `Kxxxxxxxx` | compare mask |
//! | `T` / `R` | corrupt mode toggle / replace |
//! | `Vxxxxxxxx` | corrupt data |
//! | `Xxxxxxxx…` | corrupt mask (8 hex digits) |
//! | `G0` / `G1` | CRC recompute off / on |
//! | `Sffmmtt` | control swap: from, mask, to (2 hex digits each) |
//! | `s` | control injection off |
//! | `Nxxxxxxxx` | random-SEU threshold out of 2³² (0 disables) |
//! | `L0` / `L1` | full-traffic capture off / on |
//! | `I` | inject now |
//! | `A` | re-arm the `once` latch |
//! | `Q` | query statistics |
//! | `Z` | zero statistics |
//!
//! The output generator answers `+` (ack), `?` (error), or a text report
//! for queries.

use std::error::Error;
use std::fmt;

use crate::corrupt::CorruptMode;
use crate::trigger::MatchMode;

/// Which direction(s) a configuration command applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirSelect {
    /// The A→B channel only.
    A,
    /// The B→A channel only.
    B,
    /// Both channels.
    #[default]
    Both,
}

/// A decoded configuration command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Select the direction subsequent commands apply to.
    SelectDirection(DirSelect),
    /// Set the match mode.
    MatchMode(MatchMode),
    /// Set the 32-bit compare data.
    CompareData(u32),
    /// Set the 32-bit compare mask.
    CompareMask(u32),
    /// Set the corruption mode.
    CorruptMode(CorruptMode),
    /// Set the 32-bit corrupt data.
    CorruptData(u32),
    /// Set the 32-bit corrupt mask.
    CorruptMask(u32),
    /// Enable/disable CRC-8 recomputation.
    CrcRecompute(bool),
    /// Install a control-symbol swap (from, mask, to).
    ControlSwap {
        /// Code to match.
        from: u8,
        /// Match mask.
        mask: u8,
        /// Replacement code.
        to: u8,
    },
    /// Remove the control-symbol injection.
    ControlOff,
    /// Set the random-SEU threshold (numerator over 2³²; 0 disables).
    RandomRate(u32),
    /// Enable/disable full-traffic capture into the SDRAM model.
    TrafficLog(bool),
    /// Force one injection on the next segment.
    InjectNow,
    /// Re-arm the `once` latch.
    Rearm,
    /// Ask the output generator for statistics.
    QueryStats,
    /// Zero the statistics counters.
    ResetStats,
}

/// A command the decoder could not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandError {
    line: String,
}

impl CommandError {
    /// The offending line.
    pub fn line(&self) -> &str {
        &self.line
    }
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unrecognized command {:?}", self.line)
    }
}

impl Error for CommandError {}

/// A hex field is exactly `digits` ASCII hex digits: no sign, no spaces.
fn parse_hex(s: &str, digits: usize) -> Option<u32> {
    if s.len() != digits || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u32::from_str_radix(s, 16).ok()
}

/// Parses one command line (without terminator). The line is exactly the
/// command: no surrounding whitespace.
///
/// # Errors
///
/// [`CommandError`] echoing the unrecognized line.
pub fn parse_command(line: &str) -> Result<Command, CommandError> {
    let err = || CommandError {
        line: line.to_string(),
    };
    let mut chars = line.chars();
    let head = chars.next().ok_or_else(err)?;
    let rest = chars.as_str();
    let cmd = match head {
        'D' => match rest {
            "A" => Command::SelectDirection(DirSelect::A),
            "B" => Command::SelectDirection(DirSelect::B),
            "*" => Command::SelectDirection(DirSelect::Both),
            _ => return Err(err()),
        },
        'M' => match rest {
            "0" => Command::MatchMode(MatchMode::Off),
            "1" => Command::MatchMode(MatchMode::On),
            "O" => Command::MatchMode(MatchMode::Once),
            _ => return Err(err()),
        },
        'C' => Command::CompareData(parse_hex(rest, 8).ok_or_else(err)?),
        'K' => Command::CompareMask(parse_hex(rest, 8).ok_or_else(err)?),
        'T' if rest.is_empty() => Command::CorruptMode(CorruptMode::Toggle),
        'R' if rest.is_empty() => Command::CorruptMode(CorruptMode::Replace),
        'V' => Command::CorruptData(parse_hex(rest, 8).ok_or_else(err)?),
        'X' => Command::CorruptMask(parse_hex(rest, 8).ok_or_else(err)?),
        'G' => match rest {
            "0" => Command::CrcRecompute(false),
            "1" => Command::CrcRecompute(true),
            _ => return Err(err()),
        },
        'S' => {
            let v = parse_hex(rest, 6).ok_or_else(err)?;
            Command::ControlSwap {
                from: (v >> 16) as u8,
                mask: (v >> 8) as u8,
                to: v as u8,
            }
        }
        's' if rest.is_empty() => Command::ControlOff,
        'N' => Command::RandomRate(parse_hex(rest, 8).ok_or_else(err)?),
        'L' => match rest {
            "0" => Command::TrafficLog(false),
            "1" => Command::TrafficLog(true),
            _ => return Err(err()),
        },
        'I' if rest.is_empty() => Command::InjectNow,
        'A' if rest.is_empty() => Command::Rearm,
        'Q' if rest.is_empty() => Command::QueryStats,
        'Z' if rest.is_empty() => Command::ResetStats,
        _ => return Err(err()),
    };
    Ok(cmd)
}

/// Streaming line assembler: feed serial bytes, get commands out at each
/// terminator.
#[derive(Debug, Default)]
pub struct CommandDecoder {
    line: Vec<u8>,
}

netfi_sim::clone_in_place!(CommandDecoder { line });

impl CommandDecoder {
    /// Creates an empty decoder.
    pub fn new() -> CommandDecoder {
        CommandDecoder::default()
    }

    /// Feeds one serial byte. Returns a parse result when a line
    /// terminator (`\n`, `\r` or `;`) completes a non-empty line.
    pub fn feed(&mut self, byte: u8) -> Option<Result<Command, CommandError>> {
        match byte {
            b'\n' | b'\r' | b';' => {
                if self.line.is_empty() {
                    return None;
                }
                let parsed = parse_command(&String::from_utf8_lossy(&self.line));
                self.line.clear();
                Some(parsed)
            }
            _ => {
                // Bound the line buffer: a runaway stream without
                // terminators must not grow memory.
                if self.line.len() < 64 {
                    self.line.push(byte);
                }
                None
            }
        }
    }
}

/// Appends a command's wire syntax — the line, without its terminator —
/// to `out` (for campaign scripting). Writes the bytes in place: a whole
/// programming script renders into one buffer.
pub fn write_command(cmd: &Command, out: &mut Vec<u8>) {
    let text: &[u8] = match *cmd {
        Command::SelectDirection(DirSelect::A) => b"DA",
        Command::SelectDirection(DirSelect::B) => b"DB",
        Command::SelectDirection(DirSelect::Both) => b"D*",
        Command::MatchMode(MatchMode::Off) => b"M0",
        Command::MatchMode(MatchMode::On) => b"M1",
        Command::MatchMode(MatchMode::Once) => b"MO",
        Command::CompareData(v) => return write_hex(out, b'C', v, 8),
        Command::CompareMask(v) => return write_hex(out, b'K', v, 8),
        Command::CorruptMode(CorruptMode::Toggle) => b"T",
        Command::CorruptMode(CorruptMode::Replace) => b"R",
        Command::CorruptData(v) => return write_hex(out, b'V', v, 8),
        Command::CorruptMask(v) => return write_hex(out, b'X', v, 8),
        Command::CrcRecompute(false) => b"G0",
        Command::CrcRecompute(true) => b"G1",
        Command::ControlSwap { from, mask, to } => {
            return write_hex(out, b'S', u32::from_be_bytes([0, from, mask, to]), 6)
        }
        Command::ControlOff => b"s",
        Command::RandomRate(v) => return write_hex(out, b'N', v, 8),
        Command::TrafficLog(false) => b"L0",
        Command::TrafficLog(true) => b"L1",
        Command::InjectNow => b"I",
        Command::Rearm => b"A",
        Command::QueryStats => b"Q",
        Command::ResetStats => b"Z",
    };
    out.extend_from_slice(text);
}

/// Appends `tag` and the low `digits` hex digits of `value`, upper case,
/// most significant first — the fields [`parse_hex`] reads back.
fn write_hex(out: &mut Vec<u8>, tag: u8, value: u32, digits: u32) {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    out.push(tag);
    for d in (0..digits).rev() {
        out.push(HEX[(value >> (4 * d)) as usize & 0xF]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every command of the language next to its wire syntax.
    const VOCABULARY: [(&str, Command); 24] = [
        ("DA", Command::SelectDirection(DirSelect::A)),
        ("DB", Command::SelectDirection(DirSelect::B)),
        ("D*", Command::SelectDirection(DirSelect::Both)),
        ("M0", Command::MatchMode(MatchMode::Off)),
        ("M1", Command::MatchMode(MatchMode::On)),
        ("MO", Command::MatchMode(MatchMode::Once)),
        ("C18180000", Command::CompareData(0x1818_0000)),
        ("KFFFF0000", Command::CompareMask(0xFFFF_0000)),
        ("T", Command::CorruptMode(CorruptMode::Toggle)),
        ("R", Command::CorruptMode(CorruptMode::Replace)),
        ("V19180000", Command::CorruptData(0x1918_0000)),
        ("XFFFF0000", Command::CorruptMask(0xFFFF_0000)),
        ("G0", Command::CrcRecompute(false)),
        ("G1", Command::CrcRecompute(true)),
        (
            "S0FFF0C",
            Command::ControlSwap {
                from: 0x0F,
                mask: 0xFF,
                to: 0x0C,
            },
        ),
        ("s", Command::ControlOff),
        ("N000A0B0C", Command::RandomRate(0x000A_0B0C)),
        ("L0", Command::TrafficLog(false)),
        ("L1", Command::TrafficLog(true)),
        ("I", Command::InjectNow),
        ("A", Command::Rearm),
        ("Q", Command::QueryStats),
        ("Z", Command::ResetStats),
        ("CDEADBEEF", Command::CompareData(0xDEAD_BEEF)),
    ];

    #[test]
    fn parses_the_full_vocabulary() {
        for (text, expected) in VOCABULARY {
            assert_eq!(parse_command(text), Ok(expected), "{text}");
        }
    }

    #[test]
    fn writes_the_full_vocabulary() {
        let mut out = b"prior".to_vec();
        for (text, cmd) in VOCABULARY {
            out.truncate(5);
            write_command(&cmd, &mut out);
            assert_eq!(&out[..5], b"prior", "{cmd:?} overwrote the buffer");
            assert_eq!(&out[5..], text.as_bytes(), "{cmd:?}");
        }
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "D", "DX", "M2", "C123", "CZZZZZZZZ", "S0F0C", "foo", "I2"] {
            assert!(parse_command(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn line_noise_and_signed_hex_fields_are_errors() {
        let mut dec = CommandDecoder::new();
        let out: Vec<_> = [b'S', 0xFF, 0xFF, b'\n'].iter().filter_map(|&b| dec.feed(b)).collect();
        assert!(matches!(out.as_slice(), [Err(_)]), "{out:?}");
        for bad in ["C+1234567", "S+1+2+3", "K-0000001", "N 1234567", " M1", "M1 "] {
            assert!(parse_command(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn decoder_assembles_lines() {
        let mut dec = CommandDecoder::new();
        let mut results = Vec::new();
        for &b in b"M1\nC18180000;V19180000\n" {
            if let Some(r) = dec.feed(b) {
                results.push(r);
            }
        }
        assert_eq!(
            results,
            vec![
                Ok(Command::MatchMode(MatchMode::On)),
                Ok(Command::CompareData(0x1818_0000)),
                Ok(Command::CorruptData(0x1918_0000)),
            ]
        );
    }

    #[test]
    fn decoder_skips_blank_lines_and_reports_errors() {
        let mut dec = CommandDecoder::new();
        assert_eq!(dec.feed(b'\n'), None);
        assert_eq!(dec.feed(b';'), None);
        for &b in b"nope" {
            assert_eq!(dec.feed(b), None);
        }
        let err = dec.feed(b'\n').unwrap().unwrap_err();
        assert_eq!(err.line(), "nope");
    }

    #[test]
    fn decoder_bounds_runaway_lines() {
        let mut dec = CommandDecoder::new();
        for _ in 0..10_000 {
            assert_eq!(dec.feed(b'x'), None);
        }
        // Still functional after the flood.
        assert!(dec.feed(b'\n').unwrap().is_err());
        for &b in b"Q" {
            dec.feed(b);
        }
        assert_eq!(dec.feed(b'\n'), Some(Ok(Command::QueryStats)));
    }
}
