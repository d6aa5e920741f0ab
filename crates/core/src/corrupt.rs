//! The corruption unit (paper §3.3, "Injector Control Inputs").
//!
//! "Corrupt mode has two options: toggle and replace. In toggle mode, the
//! bits of the corrupt data vector are toggled, i.e., errors in the data
//! stream correspond to the bit positions in logic one of the corrupt data
//! vector. In replace mode, the correct data is replaced by the data in the
//! corrupt data vector … while applying the corrupt mask vector and
//! allowing only selected bits of the corrupt data vector to replace the
//! correct data; other bits pass unchanged."

// netfi-lint: deny(hot-path-alloc)
//
// The corrupt unit mutates frame bytes in place; it must never allocate.

/// Corruption mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorruptMode {
    /// XOR the corrupt-data vector into the stream.
    #[default]
    Toggle,
    /// Replace masked bits with the corrupt-data vector.
    Replace,
}

/// The 32-bit corruption unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CorruptUnit {
    /// Toggle or replace.
    pub mode: CorruptMode,
    /// The corrupt-data vector.
    pub corrupt_data: u32,
    /// In replace mode, which bits are replaced (1 = replace). Ignored in
    /// toggle mode.
    pub corrupt_mask: u32,
}

impl CorruptUnit {
    /// A unit that toggles the bits set in `corrupt_data`.
    pub fn toggle(corrupt_data: u32) -> CorruptUnit {
        CorruptUnit {
            mode: CorruptMode::Toggle,
            corrupt_data,
            corrupt_mask: 0,
        }
    }

    /// A unit that replaces the bits selected by `corrupt_mask` with
    /// `corrupt_data`.
    pub fn replace(corrupt_data: u32, corrupt_mask: u32) -> CorruptUnit {
        CorruptUnit {
            mode: CorruptMode::Replace,
            corrupt_data,
            corrupt_mask,
        }
    }

    /// Applies the corruption to a 32-bit window.
    pub fn apply(&self, window: u32) -> u32 {
        match self.mode {
            CorruptMode::Toggle => window ^ self.corrupt_data,
            CorruptMode::Replace => {
                (window & !self.corrupt_mask) | (self.corrupt_data & self.corrupt_mask)
            }
        }
    }

    /// `true` if the corruption leaves every window as it is: a toggle of
    /// no bits, or a replace of no bits (the power-on default, toggle 0).
    pub(crate) fn is_identity(&self) -> bool {
        match self.mode {
            CorruptMode::Toggle => self.corrupt_data == 0,
            CorruptMode::Replace => self.corrupt_mask == 0,
        }
    }

    /// Applies the corruption to four big-endian bytes at `offset` in a
    /// buffer (the window position found by the compare unit). Bytes past
    /// the end of the buffer are left untouched.
    pub fn apply_at(&self, bytes: &mut [u8], offset: usize) {
        let mut window = [0u8; 4];
        for (k, w) in window.iter_mut().enumerate() {
            if let Some(&b) = bytes.get(offset + k) {
                *w = b;
            }
        }
        let corrupted = self.apply(u32::from_be_bytes(window)).to_be_bytes();
        for (k, &c) in corrupted.iter().enumerate() {
            if let Some(b) = bytes.get_mut(offset + k) {
                *b = c;
            }
        }
    }
}

/// An 8-bit corruption unit for control symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlCorrupt {
    /// Toggle or replace.
    pub mode: CorruptMode,
    /// The corrupt-data vector.
    pub corrupt_code: u8,
    /// In replace mode, which bits are replaced.
    pub corrupt_mask: u8,
}

impl ControlCorrupt {
    /// A unit that rewrites a control code to exactly `code`.
    pub(crate) fn replace_with(code: u8) -> ControlCorrupt {
        ControlCorrupt {
            mode: CorruptMode::Replace,
            corrupt_code: code,
            corrupt_mask: 0xFF,
        }
    }

    /// Applies the corruption to a control code.
    pub fn apply(&self, code: u8) -> u8 {
        match self.mode {
            CorruptMode::Toggle => code ^ self.corrupt_code,
            CorruptMode::Replace => {
                (code & !self.corrupt_mask) | (self.corrupt_code & self.corrupt_mask)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggle_flips_selected_bits() {
        let u = CorruptUnit::toggle(0x0000_0101);
        assert_eq!(u.apply(0x0000_0000), 0x0000_0101);
        assert_eq!(u.apply(0xFFFF_FFFF), 0xFFFF_FEFE);
        // Toggle twice restores.
        assert_eq!(u.apply(u.apply(0x1234_5678)), 0x1234_5678);
    }

    #[test]
    fn replace_respects_mask() {
        // The paper's scenario: replace 0x1818 with 0x1918 in the top half.
        let u = CorruptUnit::replace(0x1918_0000, 0xFFFF_0000);
        assert_eq!(u.apply(0x1818_ABCD), 0x1918_ABCD);
        // Unmasked bits of corrupt_data are ignored.
        let u2 = CorruptUnit::replace(0xFFFF_FFFF, 0x0000_00FF);
        assert_eq!(u2.apply(0x12345600), 0x123456FF);
    }

    #[test]
    fn identity_units_change_no_window() {
        for (unit, identity) in [
            (CorruptUnit::default(), true),
            (CorruptUnit::toggle(0), true),
            (CorruptUnit::replace(0xDEAD_BEEF, 0), true),
            (CorruptUnit::toggle(0x0100_0000), false),
            (CorruptUnit::replace(0, 0x0000_0001), false),
        ] {
            assert_eq!(unit.is_identity(), identity, "{unit:?}");
            if identity {
                for window in [0, 0x1234_5678, u32::MAX] {
                    assert_eq!(unit.apply(window), window, "{unit:?}");
                }
            }
        }
    }

    #[test]
    fn apply_at_offset() {
        let u = CorruptUnit::replace(0x1918_0000, 0xFFFF_0000);
        let mut data = vec![0x00, 0x18, 0x18, 0x55, 0x66];
        u.apply_at(&mut data, 1);
        assert_eq!(data, vec![0x00, 0x19, 0x18, 0x55, 0x66]);
    }

    #[test]
    fn apply_at_end_of_buffer_is_safe() {
        let u = CorruptUnit::toggle(0xFF00_0000);
        let mut data = vec![0xAA, 0xBB];
        u.apply_at(&mut data, 1);
        assert_eq!(data, vec![0xAA, 0x44]);
        // Offset beyond the end: nothing happens.
        let mut d2 = vec![0x01];
        u.apply_at(&mut d2, 5);
        assert_eq!(d2, vec![0x01]);
    }

    #[test]
    fn control_corrupt_modes() {
        let rep = ControlCorrupt::replace_with(0x03);
        assert_eq!(rep.apply(0x0F), 0x03);
        let tog = ControlCorrupt {
            mode: CorruptMode::Toggle,
            corrupt_code: 0x0C,
            corrupt_mask: 0,
        };
        assert_eq!(tog.apply(0x0F), 0x03); // STOP -> GO by toggling two bits
    }
}
