//! Assembled program images.

use std::collections::BTreeMap;

/// An assembled image: sparse bytes plus the symbol table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Image {
    bytes: BTreeMap<u16, u8>,
    /// All defined symbols (labels and `.equ` constants).
    pub symbols: BTreeMap<String, u16>,
}

impl Image {
    /// Empty image.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes one byte (assembler internal).
    pub(crate) fn put_byte(&mut self, addr: u16, b: u8) -> bool {
        self.bytes.insert(addr, b).is_none()
    }

    /// Writes a little-endian word (assembler internal). Returns false if
    /// either byte collides with already-emitted data.
    pub(crate) fn put_word(&mut self, addr: u16, w: u16) -> bool {
        let a = self.put_byte(addr, w as u8);
        let b = self.put_byte(addr.wrapping_add(1), (w >> 8) as u8);
        a && b
    }

    /// Looks up a symbol.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<u16> {
        self.symbols.get(name).copied()
    }

    /// Total emitted bytes — the paper's Fig. 6(a) "code size" metric.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Lowest and highest emitted addresses, or `None` for an empty image.
    #[must_use]
    pub fn extent(&self) -> Option<(u16, u16)> {
        let lo = *self.bytes.keys().next()?;
        let hi = *self.bytes.keys().next_back()?;
        Some((lo, hi))
    }

    /// The extent of the contiguous byte run containing `from` — e.g. the ER
    /// segment of an operation, independent of other segments (tables,
    /// caller stubs) elsewhere in the image.
    #[must_use]
    pub fn contiguous_extent(&self, from: u16) -> Option<(u16, u16)> {
        self.bytes.get(&from)?;
        let mut lo = from;
        while lo > 0 && self.bytes.contains_key(&(lo - 1)) {
            lo -= 1;
        }
        let mut hi = from;
        while hi < u16::MAX && self.bytes.contains_key(&(hi + 1)) {
            hi += 1;
        }
        Some((lo, hi))
    }

    /// The bytes of the contiguous run containing `from`, as a dense vector
    /// (used to hand the verifier the expected ER contents).
    #[must_use]
    pub fn contiguous_bytes(&self, from: u16) -> Option<Vec<u8>> {
        let (lo, hi) = self.contiguous_extent(from)?;
        Some((lo..=hi).map(|a| self.bytes[&a]).collect())
    }

    /// Iterator over emitted `(addr, byte)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, u8)> + '_ {
        self.bytes.iter().map(|(a, b)| (*a, *b))
    }

    /// The contiguous run of words starting at `addr` (stops at the first
    /// gap). Useful in tests and docs.
    #[must_use]
    pub fn words_at(&self, addr: u16) -> Vec<u16> {
        let mut out = Vec::new();
        let mut a = addr;
        while let (Some(lo), Some(hi)) = (self.bytes.get(&a), self.bytes.get(&a.wrapping_add(1))) {
            out.push(u16::from(*lo) | (u16::from(*hi) << 8));
            a = a.wrapping_add(2);
        }
        out
    }

    /// The image as maximal contiguous `(start, bytes)` runs.
    ///
    /// Repeated loading (the DIALED verifier re-images its RAM for every
    /// proof) should go through precomputed runs — bulk copies — rather
    /// than walking the sparse byte map each time.
    #[must_use]
    pub fn runs(&self) -> Vec<(u16, Vec<u8>)> {
        let mut runs: Vec<(u16, Vec<u8>)> = Vec::new();
        for (&a, &b) in &self.bytes {
            match runs.last_mut() {
                Some((start, bytes)) if u32::from(*start) + bytes.len() as u32 == u32::from(a) => {
                    bytes.push(b);
                }
                _ => runs.push((a, vec![b])),
            }
        }
        runs
    }

    /// Loads into a [`msp430::platform::Platform`].
    pub fn load_into_platform(&self, platform: &mut msp430::platform::Platform) {
        for (a, b) in &self.bytes {
            platform.load_bytes(*a, &[*b]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_emission_and_extent() {
        let mut img = Image::new();
        assert!(img.put_word(0xE000, 0x1234));
        assert!(img.put_word(0xE002, 0xABCD));
        assert_eq!(img.size_bytes(), 4);
        assert_eq!(img.extent(), Some((0xE000, 0xE003)));
        assert_eq!(img.words_at(0xE000), vec![0x1234, 0xABCD]);
    }

    #[test]
    fn collision_detected() {
        let mut img = Image::new();
        assert!(img.put_word(0xE000, 1));
        assert!(!img.put_word(0xE001, 2), "overlap must be flagged");
    }

    #[test]
    fn words_at_stops_at_gap() {
        let mut img = Image::new();
        img.put_word(0xE000, 7);
        img.put_word(0xE004, 9);
        assert_eq!(img.words_at(0xE000), vec![7]);
    }
}
