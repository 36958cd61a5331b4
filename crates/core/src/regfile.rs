//! Banked register files.
//!
//! The MIB machine has one register-file bank per network lane. Each bank
//! has a single read port (multiplier stage) and a single write port
//! (writeback stage) per cycle — the port constraint behind the structural
//! hazards of Section IV.A. The banks here are plain storage; port
//! scheduling is enforced by instruction merging and verified by the
//! machine.

use crate::{MibError, Result};

/// `C` register-file banks of equal depth. Two register files are equal
/// when every word has the same bits: a NaN equals itself, and `0.0`
/// differs from `-0.0`.
#[derive(Debug, Clone)]
pub struct RegisterFiles {
    /// One address-major allocation: word `addr` of bank `bank` is at
    /// `addr * width + bank`, so one slot's lanes touch adjacent words.
    words: Vec<f64>,
    width: usize,
    depth: usize,
}

impl RegisterFiles {
    /// Allocates `width` banks of `depth` words, zero-initialized.
    pub fn new(width: usize, depth: usize) -> Self {
        RegisterFiles {
            words: vec![0.0; width * depth],
            width,
            depth,
        }
    }

    /// Number of banks (`C`).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Words per bank.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Reads `bank[addr]`.
    ///
    /// # Errors
    ///
    /// Returns [`MibError::AddressOutOfRange`] for bad addresses.
    pub fn read(&self, bank: usize, addr: usize) -> Result<f64> {
        Ok(self.words[self.index(bank, addr)?])
    }

    /// Writes `bank[addr] = value`.
    ///
    /// # Errors
    ///
    /// Returns [`MibError::AddressOutOfRange`] for bad addresses.
    pub fn write(&mut self, bank: usize, addr: usize, value: f64) -> Result<()> {
        let i = self.index(bank, addr)?;
        self.words[i] = value;
        Ok(())
    }

    /// Every word, `bank[addr]` at `addr * width + bank`.
    pub(crate) fn words_mut(&mut self) -> &mut [f64] {
        &mut self.words
    }

    /// Clears every bank to zero.
    pub fn clear(&mut self) {
        self.words.fill(0.0);
    }

    fn index(&self, bank: usize, addr: usize) -> Result<usize> {
        if bank >= self.width || addr >= self.depth {
            return Err(MibError::AddressOutOfRange {
                bank,
                addr,
                depth: self.depth,
            });
        }
        Ok(addr * self.width + bank)
    }
}

impl PartialEq for RegisterFiles {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width
            && self.depth == other.depth
            && self
                .words
                .iter()
                .zip(&other.words)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for RegisterFiles {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut r = RegisterFiles::new(4, 8);
        r.write(2, 3, 1.5).unwrap();
        assert_eq!(r.read(2, 3).unwrap(), 1.5);
        assert_eq!(r.read(2, 4).unwrap(), 0.0);
    }

    #[test]
    fn bad_addresses_rejected() {
        let mut r = RegisterFiles::new(2, 4);
        assert!(r.read(2, 0).is_err());
        assert!(r.read(0, 4).is_err());
        assert!(r.write(0, 9, 1.0).is_err());
    }

    #[test]
    fn equality_is_bitwise() {
        let mut a = RegisterFiles::new(2, 2);
        a.write(0, 1, f64::NAN).unwrap();
        let mut b = a.clone();
        assert_eq!(a, b, "a NaN word equals itself");
        b.write(1, 1, -0.0).unwrap();
        assert_ne!(a, b, "-0.0 is not 0.0");
        a.write(1, 1, -0.0).unwrap();
        assert_eq!(a, b);
        assert_ne!(RegisterFiles::new(2, 2), RegisterFiles::new(1, 4));
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut r = RegisterFiles::new(2, 2);
        r.write(1, 1, 9.0).unwrap();
        r.clear();
        assert_eq!(r.read(1, 1).unwrap(), 0.0);
    }
}
