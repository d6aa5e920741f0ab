//! The injector's serial configuration path.
//!
//! The paper off-loads the RS-232 UART to a separate chip, and the FPGA's
//! communications handler receives the 8-bit ASCII command codes from it
//! (§3.3). This module models the RS-232 hop: [`UartConfig`] /
//! [`UartFrame`] give its framing (start bit, 8 data bits, optional parity,
//! stop bits) with timing, framing-error and parity-error detection. The
//! device itself decodes the command bytes directly.

use std::error::Error;
use std::fmt;

use netfi_sim::SimDuration;

/// Parity setting for the UART.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parity {
    /// No parity bit.
    #[default]
    None,
    /// Parity bit makes the number of ones even.
    Even,
    /// Parity bit makes the number of ones odd.
    Odd,
}

/// RS-232 UART configuration.
///
/// # Example
///
/// ```
/// use netfi_phy::serial::UartConfig;
/// let uart = UartConfig::rs232_115200();
/// // 1 start + 8 data + 1 stop = 10 bit times per byte.
/// assert_eq!(uart.bits_per_frame(), 10);
/// assert_eq!(uart.frame_duration().as_ps(), 86_805_556);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UartConfig {
    baud: u32,
    parity: Parity,
    stop_bits: u8,
}

impl UartConfig {
    /// Creates a UART configuration.
    ///
    /// # Panics
    ///
    /// Panics if `baud` is zero or `stop_bits` is not 1 or 2.
    pub fn new(baud: u32, parity: Parity, stop_bits: u8) -> UartConfig {
        assert!(baud > 0, "baud must be non-zero");
        assert!(stop_bits == 1 || stop_bits == 2, "stop bits must be 1 or 2");
        UartConfig {
            baud,
            parity,
            stop_bits,
        }
    }

    /// The classic 115200-8-N-1 configuration used by the prototype.
    pub fn rs232_115200() -> UartConfig {
        UartConfig::new(115_200, Parity::None, 1)
    }

    /// Total bit times per framed byte.
    pub fn bits_per_frame(&self) -> u32 {
        1 + 8
            + match self.parity {
                Parity::None => 0,
                _ => 1,
            }
            + self.stop_bits as u32
    }

    /// Wire time for one framed byte.
    pub fn frame_duration(&self) -> SimDuration {
        SimDuration::from_bits(self.bits_per_frame() as u64, self.baud as u64)
    }

    /// Frames `byte` into line bits (start bit first).
    pub fn frame(&self, byte: u8) -> UartFrame {
        let mut bits = Vec::with_capacity(self.bits_per_frame() as usize);
        bits.push(false); // start bit: space
        for i in 0..8 {
            bits.push(byte & (1 << i) != 0); // LSB first
        }
        match self.parity {
            Parity::None => {}
            Parity::Even => bits.push(byte.count_ones() % 2 == 1),
            Parity::Odd => bits.push(byte.count_ones().is_multiple_of(2)),
        }
        // Stop bit(s): mark.
        bits.extend(std::iter::repeat_n(true, self.stop_bits as usize));
        UartFrame { bits }
    }

    /// Decodes line bits back into a byte.
    ///
    /// # Errors
    ///
    /// - [`UartError::Framing`] if the start/stop bits are malformed or the
    ///   frame has the wrong length.
    /// - [`UartError::Parity`] if the parity bit does not check.
    pub fn deframe(&self, frame: &UartFrame) -> Result<u8, UartError> {
        let bits = &frame.bits;
        if bits.len() != self.bits_per_frame() as usize {
            return Err(UartError::Framing);
        }
        if bits[0] {
            return Err(UartError::Framing); // start bit must be space
        }
        let mut byte = 0u8;
        for i in 0..8 {
            if bits[1 + i] {
                byte |= 1 << i;
            }
        }
        let mut idx = 9;
        match self.parity {
            Parity::None => {}
            Parity::Even => {
                let expect = byte.count_ones() % 2 == 1;
                if bits[idx] != expect {
                    return Err(UartError::Parity);
                }
                idx += 1;
            }
            Parity::Odd => {
                let expect = byte.count_ones().is_multiple_of(2);
                if bits[idx] != expect {
                    return Err(UartError::Parity);
                }
                idx += 1;
            }
        }
        for &stop in &bits[idx..] {
            if !stop {
                return Err(UartError::Framing); // stop bit must be mark
            }
        }
        Ok(byte)
    }
}

/// A framed byte on the RS-232 line, start bit first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UartFrame {
    bits: Vec<bool>,
}

impl UartFrame {
    /// Flips line bit `index` (for fault-injection tests).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn flip_bit(&mut self, index: usize) {
        let bit = &mut self.bits[index];
        *bit = !*bit;
    }
}

/// UART reception errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UartError {
    /// Start or stop bits malformed.
    Framing,
    /// Parity check failed.
    Parity,
}

impl fmt::Display for UartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UartError::Framing => f.write_str("uart framing error"),
            UartError::Parity => f.write_str("uart parity error"),
        }
    }
}

impl Error for UartError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_all_bytes_all_parities() {
        for parity in [Parity::None, Parity::Even, Parity::Odd] {
            let uart = UartConfig::new(9600, parity, 1);
            for b in 0..=255u8 {
                let frame = uart.frame(b);
                assert_eq!(uart.deframe(&frame), Ok(b), "byte {b:#04x} {parity:?}");
            }
        }
    }

    #[test]
    fn two_stop_bits_roundtrip() {
        let uart = UartConfig::new(9600, Parity::Even, 2);
        let frame = uart.frame(0x5A);
        assert_eq!(frame.bits.len(), 12);
        assert_eq!(uart.deframe(&frame), Ok(0x5A));
    }

    #[test]
    fn corrupt_start_bit_is_framing_error() {
        let uart = UartConfig::rs232_115200();
        let mut frame = uart.frame(0x41);
        frame.flip_bit(0);
        assert_eq!(uart.deframe(&frame), Err(UartError::Framing));
    }

    #[test]
    fn corrupt_stop_bit_is_framing_error() {
        let uart = UartConfig::rs232_115200();
        let mut frame = uart.frame(0x41);
        let last = frame.bits.len() - 1;
        frame.flip_bit(last);
        assert_eq!(uart.deframe(&frame), Err(UartError::Framing));
    }

    #[test]
    fn corrupt_data_bit_is_parity_error_with_parity() {
        let uart = UartConfig::new(115_200, Parity::Even, 1);
        let mut frame = uart.frame(0x41);
        frame.flip_bit(3); // a data bit
        assert_eq!(uart.deframe(&frame), Err(UartError::Parity));
    }

    #[test]
    fn corrupt_data_bit_is_silent_without_parity() {
        let uart = UartConfig::rs232_115200();
        let mut frame = uart.frame(0x41);
        frame.flip_bit(1); // LSB data bit
        assert_eq!(uart.deframe(&frame), Ok(0x40));
    }

    #[test]
    fn wrong_length_rejected() {
        let tx = UartConfig::new(9600, Parity::None, 2);
        let rx = UartConfig::new(9600, Parity::None, 1);
        let frame = tx.frame(0x00);
        assert_eq!(rx.deframe(&frame), Err(UartError::Framing));
    }

    #[test]
    fn timing_scales_with_baud() {
        let slow = UartConfig::new(9600, Parity::None, 1);
        let fast = UartConfig::rs232_115200();
        assert!(slow.frame_duration() > fast.frame_duration());
        // 10 bits at 9600 baud ≈ 1.0417 ms.
        let ns = slow.frame_duration().as_ns_f64();
        assert!((ns - 1_041_666.7).abs() < 1.0, "ns = {ns}");
    }

    #[test]
    #[should_panic(expected = "stop bits")]
    fn invalid_stop_bits_rejected() {
        let _ = UartConfig::new(9600, Parity::None, 3);
    }
}
