//! Bus abstraction, bus-access records, and flat RAM.
//!
//! The CPU talks to any [`Bus`]. Every *data* access the CPU makes is
//! *also* reported architecturally in the [`crate::cpu::Step`] record as a
//! list of [`Access`]es — this is the signal stream that the APEX monitor
//! (and any other "hardware" attached next to the core) observes,
//! mirroring the wires the real monitor taps on the openMSP430.
//! Instruction fetches are implied by `Step::pc`/`Step::insn` and are not
//! recorded individually.
//!
//! [`Ram`] tracks a write generation per 1 KiB page, bumped by every
//! mutation. Caches validate against it, and [`Ram::reset_to`] uses it to
//! reload an image cheaply: given the same image tag as the previous reset,
//! it recomposes only the pages written since, so re-imaging between proofs
//! of one operation costs the pages a proof dirtied, not 64 KiB.

use serde::{Deserialize, Serialize};
use std::fmt;

/// What kind of bus access occurred.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum AccessKind {
    /// Instruction-stream fetch (opcode or extension word). The CPU core
    /// no longer emits these — fetches are implied by the executed
    /// instruction — but the kind remains for external bus masters and
    /// wire-format compatibility.
    Fetch,
    /// Data read.
    Read,
    /// Data write.
    Write,
}

/// One bus access: address, kind, transferred value and width.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Access {
    /// Bus address (word accesses are aligned, bit 0 clear).
    pub addr: u16,
    /// Fetch / read / write.
    pub kind: AccessKind,
    /// The value transferred (byte accesses use the low 8 bits).
    pub value: u16,
    /// True for 16-bit accesses.
    pub word: bool,
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind {
            AccessKind::Fetch => "F",
            AccessKind::Read => "R",
            AccessKind::Write => "W",
        };
        let w = if self.word { "w" } else { "b" };
        write!(f, "{k}{w} {:#06x}={:#06x}", self.addr, self.value)
    }
}

/// Upper bound on recorded data accesses per instruction.
///
/// The worst case is a Format I instruction with memory source and memory
/// destination (source read, destination read, destination write) or an
/// interrupt entry (two stack pushes, one vector read) — three accesses.
/// One slot of headroom is kept for defence.
pub const MAX_STEP_ACCESSES: usize = 4;

/// An inline, fixed-capacity buffer of the bus accesses of one step.
///
/// Replaces the heap-allocated `Vec<Access>` the hot emulation loop used
/// to allocate per instruction: a [`crate::cpu::Step`] now embeds its
/// accesses, so steady-state replay via [`crate::cpu::Cpu::step_block_into`]
/// performs zero heap allocations. Dereferences to `[Access]`, so all
/// slice iteration/indexing idioms keep working.
#[derive(Clone, Copy, Debug)]
pub struct AccessBuf {
    len: u8,
    buf: [Access; MAX_STEP_ACCESSES],
}

impl Default for AccessBuf {
    fn default() -> Self {
        const EMPTY: Access = Access { addr: 0, kind: AccessKind::Fetch, value: 0, word: false };
        Self { len: 0, buf: [EMPTY; MAX_STEP_ACCESSES] }
    }
}

impl AccessBuf {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one access.
    ///
    /// # Panics
    ///
    /// Panics if the architectural bound [`MAX_STEP_ACCESSES`] is exceeded
    /// — which would mean the CPU model emitted an impossible bus pattern.
    #[inline]
    pub fn push(&mut self, access: Access) {
        self.buf[usize::from(self.len)] = access;
        self.len += 1;
    }

    /// Drops all recorded accesses.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The recorded accesses, in bus order.
    #[must_use]
    #[inline]
    pub fn as_slice(&self) -> &[Access] {
        &self.buf[..usize::from(self.len)]
    }
}

impl std::ops::Deref for AccessBuf {
    type Target = [Access];

    fn deref(&self) -> &[Access] {
        self.as_slice()
    }
}

/// Only the live prefix participates in equality; stale slots are ignored.
impl PartialEq for AccessBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for AccessBuf {}

impl<'a> IntoIterator for &'a AccessBuf {
    type Item = &'a Access;
    type IntoIter = std::slice::Iter<'a, Access>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

// On the wire an `AccessBuf` is just its live accesses; with the offline
// serde stand-in these are marker impls.
impl Serialize for AccessBuf {}

impl<'de> Deserialize<'de> for AccessBuf {}

/// Size of one write-generation page (see [`Bus::page_generation`]).
pub const GEN_PAGE_BYTES: usize = 1024;

/// Number of write-generation pages covering the address space.
pub const GEN_PAGES: usize = 0x1_0000 / GEN_PAGE_BYTES;

/// A 16-bit little-endian memory bus.
///
/// Word accesses are always even-aligned: implementations must ignore bit 0
/// of the address (as the MSP430 bus does).
pub trait Bus {
    /// Reads one byte.
    fn read_byte(&mut self, addr: u16) -> u8;
    /// Writes one byte.
    fn write_byte(&mut self, addr: u16, value: u8);

    /// Write-generation stamp `(bus id, generation)` for the 1 KiB page
    /// containing `addr`, if this bus tracks one.
    ///
    /// The contract making stamps sound for caching: the id is unique per
    /// bus instance for the lifetime of the process, and the generation is
    /// bumped on **every** mutation of any byte in the page, through any
    /// path. A matching stamp therefore proves the page's bytes are
    /// unchanged since the stamp was taken, letting a superblock be reused
    /// without re-reading its encoding words. The default — `None` — means
    /// "untracked": no block forms there, and every step decodes afresh.
    fn page_generation(&self, _addr: u16) -> Option<(u64, u64)> {
        None
    }

    /// Reads an aligned little-endian word.
    #[inline]
    fn read_word(&mut self, addr: u16) -> u16 {
        let a = addr & !1;
        u16::from(self.read_byte(a)) | (u16::from(self.read_byte(a.wrapping_add(1))) << 8)
    }

    /// Writes an aligned little-endian word.
    #[inline]
    fn write_word(&mut self, addr: u16, value: u16) {
        let a = addr & !1;
        self.write_byte(a, value as u8);
        self.write_byte(a.wrapping_add(1), (value >> 8) as u8);
    }
}

/// Flat 64 KiB RAM with no peripherals — the simplest possible [`Bus`],
/// useful for ISA tests and fuzzing. Use [`crate::platform::Platform`] for
/// the full device.
///
/// The backing store is a fixed-size boxed array, so indexing with a
/// `u16`-derived offset is provably in bounds — the emulation fast path
/// pays no bounds checks on memory traffic. Every mutation bumps the
/// write-generation of its 1 KiB page (see [`Bus::page_generation`]).
pub struct Ram {
    bytes: Box<[u8; 0x1_0000]>,
    gens: Box<[u64; GEN_PAGES]>,
    /// Process-unique bus identity; a clone is a *different* bus.
    id: u64,
    /// The image tag of the last [`Ram::reset_to`] and every page's
    /// generation right after it.
    last_reset: Option<(u64, Box<[u64; GEN_PAGES]>)>,
}

/// A cloned RAM is an independent bus: it copies the bytes but gets a
/// fresh identity, so generation stamps taken against the original can
/// never validate mutated pages of the clone (or vice versa). It also
/// forgets the last reset, so its first [`Ram::reset_to`] is a full one.
impl Clone for Ram {
    fn clone(&self) -> Self {
        Self {
            bytes: self.bytes.clone(),
            gens: self.gens.clone(),
            id: fresh_bus_id(),
            last_reset: None,
        }
    }
}

/// Source of process-unique bus ids for generation stamps.
static NEXT_BUS_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

pub(crate) fn fresh_bus_id() -> u64 {
    NEXT_BUS_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

impl fmt::Debug for Ram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ram {{ 64 KiB }}")
    }
}

impl Default for Ram {
    fn default() -> Self {
        Self::new()
    }
}

impl Ram {
    /// All-zero memory.
    #[must_use]
    pub fn new() -> Self {
        Self {
            bytes: Box::new([0; 0x1_0000]),
            gens: Box::new([0; GEN_PAGES]),
            id: fresh_bus_id(),
            last_reset: None,
        }
    }

    #[inline]
    fn bump(&mut self, addr: u16) {
        self.gens[usize::from(addr) / GEN_PAGE_BYTES] += 1;
    }

    fn bump_all(&mut self) {
        for g in self.gens.iter_mut() {
            *g += 1;
        }
    }

    /// Copies `words` little-endian starting at `addr`.
    pub fn load_words(&mut self, addr: u16, words: &[u16]) {
        let mut a = addr;
        for w in words {
            self.bytes[usize::from(a)] = *w as u8;
            self.bytes[usize::from(a.wrapping_add(1))] = (*w >> 8) as u8;
            self.bump(a);
            self.bump(a.wrapping_add(1));
            a = a.wrapping_add(2);
        }
    }

    /// Copies raw bytes starting at `addr` (wrapping at the top of memory).
    pub fn load_bytes(&mut self, addr: u16, bytes: &[u8]) {
        let start = usize::from(addr);
        if let Some(dst) = self.bytes.get_mut(start..start + bytes.len()) {
            dst.copy_from_slice(bytes);
        } else {
            for (i, b) in bytes.iter().enumerate() {
                self.bytes[usize::from(addr.wrapping_add(i as u16))] = *b;
            }
        }
        // Stamp every generation page the span touched.
        for (i, _) in bytes.iter().enumerate().step_by(GEN_PAGE_BYTES) {
            self.bump(addr.wrapping_add(i as u16));
        }
        if let Some(last) = bytes.len().checked_sub(1) {
            self.bump(addr.wrapping_add(last as u16));
        }
    }

    /// Borrow of the full 64 KiB backing store.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..]
    }

    /// Zeroes all of memory in place, reusing the allocation (for callers
    /// that recycle one `Ram` across many runs, e.g. batch verification).
    pub fn clear(&mut self) {
        self.bytes.fill(0);
        self.bump_all();
    }

    /// Resets memory to zeros overlaid with `runs` — equivalent to
    /// [`Self::clear`] followed by [`Self::load_bytes`] per run — and
    /// returns how many pages it rewrote.
    ///
    /// `tag` names the image `runs` describe: callers must never pass the
    /// same tag with different runs. When `tag` matches the previous reset,
    /// only pages whose write generation moved since then are recomposed —
    /// every other page still holds exactly that image, because every
    /// mutation of a page bumps its generation (the
    /// [`Bus::page_generation`] contract). Any other tag, and the first
    /// reset of a new or cloned `Ram`, recomposes every page.
    ///
    /// Either way, only pages whose content actually changes get a new
    /// generation. Callers that reload the *same* image between runs (batch
    /// verification replaying one operation) keep their code pages'
    /// generations stable, so generation-validated caches stay warm.
    ///
    /// Runs must not wrap the top of memory.
    pub fn reset_to<'a, I>(&mut self, tag: u64, runs: I) -> usize
    where
        I: IntoIterator<Item = (u16, &'a [u8])>,
        I::IntoIter: Clone,
    {
        let since = match &self.last_reset {
            Some((last, gens)) if *last == tag => Some(gens),
            _ => None,
        };
        // Compose the desired content page by page on the stack and diff
        // against the live page, so an unchanged page is never stamped.
        let runs = runs.into_iter();
        let mut desired = [0u8; GEN_PAGE_BYTES];
        let mut rewritten = 0;
        for page in 0..GEN_PAGES {
            if since.is_some_and(|gens| gens[page] == self.gens[page]) {
                continue;
            }
            let base = page * GEN_PAGE_BYTES;
            desired.fill(0);
            for (start, bytes) in runs.clone() {
                let start = usize::from(start);
                let end = start + bytes.len();
                if start < base + GEN_PAGE_BYTES && end > base {
                    let lo = start.max(base);
                    let hi = end.min(base + GEN_PAGE_BYTES);
                    desired[lo - base..hi - base].copy_from_slice(&bytes[lo - start..hi - start]);
                }
            }
            let cur = &mut self.bytes[base..base + GEN_PAGE_BYTES];
            if cur != desired {
                cur.copy_from_slice(&desired);
                self.gens[page] += 1;
                rewritten += 1;
            }
        }
        match &mut self.last_reset {
            Some((last, gens)) => {
                *last = tag;
                gens.copy_from_slice(&self.gens[..]);
            }
            None => self.last_reset = Some((tag, self.gens.clone())),
        }
        rewritten
    }
}

impl Bus for Ram {
    #[inline]
    fn read_byte(&mut self, addr: u16) -> u8 {
        self.bytes[usize::from(addr)]
    }

    #[inline]
    fn write_byte(&mut self, addr: u16, value: u8) {
        self.bytes[usize::from(addr)] = value;
        self.bump(addr);
    }

    // Word access straight off the backing store: the emulation fast path
    // is fetch/word-traffic dominated, and the default byte-wise impl costs
    // two bounds checks and a shift per word.
    #[inline]
    fn read_word(&mut self, addr: u16) -> u16 {
        let a = usize::from(addr & !1);
        u16::from_le_bytes([self.bytes[a], self.bytes[a + 1]])
    }

    #[inline]
    fn write_word(&mut self, addr: u16, value: u16) {
        let a = usize::from(addr & !1);
        let [lo, hi] = value.to_le_bytes();
        self.bytes[a] = lo;
        self.bytes[a + 1] = hi;
        // An aligned word never straddles a generation page.
        self.gens[a / GEN_PAGE_BYTES] += 1;
    }

    #[inline]
    fn page_generation(&self, addr: u16) -> Option<(u64, u64)> {
        Some((self.id, self.gens[usize::from(addr) / GEN_PAGE_BYTES]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_are_little_endian_and_aligned() {
        let mut r = Ram::new();
        r.write_word(0x0203, 0xBEEF); // bit 0 ignored → 0x0202
        assert_eq!(r.read_byte(0x0202), 0xEF);
        assert_eq!(r.read_byte(0x0203), 0xBE);
        assert_eq!(r.read_word(0x0202), 0xBEEF);
        assert_eq!(r.read_word(0x0203), 0xBEEF);
    }

    #[test]
    fn load_words_round_trip() {
        let mut r = Ram::new();
        r.load_words(0xE000, &[0x1234, 0xABCD]);
        assert_eq!(r.read_word(0xE000), 0x1234);
        assert_eq!(r.read_word(0xE002), 0xABCD);
    }

    #[test]
    fn wraparound_at_top_of_memory() {
        let mut r = Ram::new();
        r.load_bytes(0xFFFF, &[0xAA, 0xBB]);
        assert_eq!(r.read_byte(0xFFFF), 0xAA);
        assert_eq!(r.read_byte(0x0000), 0xBB);
    }

    #[test]
    fn access_display() {
        let a = Access { addr: 0x200, kind: AccessKind::Write, value: 0x42, word: false };
        assert_eq!(a.to_string(), "Wb 0x0200=0x0042");
    }

    #[test]
    fn reset_to_preserves_generations_of_unchanged_pages() {
        let image: [(u16, &[u8]); 2] = [(0xE000, &[0x0A, 0x5A, 0xFA, 0x3F]), (0x0200, &[7, 7])];
        let mut r = Ram::new();
        r.reset_to(1, image.iter().copied());
        let code_gen = r.page_generation(0xE000).unwrap();
        let data_gen = r.page_generation(0x0200).unwrap();

        // Dirty the data page (emulated stores), then reload the same image:
        // the data page's content changes back, so its generation moves; the
        // untouched code page keeps its stamp.
        r.write_word(0x0210, 0xBEEF);
        r.reset_to(1, image.iter().copied());
        assert_eq!(r.page_generation(0xE000).unwrap(), code_gen, "unchanged page restamped");
        assert_ne!(r.page_generation(0x0200).unwrap(), data_gen, "changed page kept its stamp");
        assert_eq!(r.read_word(0x0210), 0, "reset must clear dirtied bytes");
        assert_eq!(r.read_word(0xE000), 0x5A0A);
        assert_eq!(r.read_word(0x0200), 0x0707);

        // Self-modified *code* is restored and restamped.
        r.write_word(0xE000, 0x4343);
        r.reset_to(1, image.iter().copied());
        assert_ne!(r.page_generation(0xE000).unwrap(), code_gen);
        assert_eq!(r.read_word(0xE000), 0x5A0A);

        // Equivalence with clear + load_bytes, minus the stamp churn.
        let mut fresh = Ram::new();
        fresh.clear();
        for (start, bytes) in image {
            fresh.load_bytes(start, bytes);
        }
        assert_eq!(r.as_slice(), fresh.as_slice());
    }

    const IMAGE: [(u16, &[u8]); 3] =
        [(0x0200, &[7, 7, 7]), (0xE000, &[0x0A, 0x5A, 0xFA, 0x3F]), (0xE3FE, &[1, 2, 3, 4])];

    /// What a reset to `image` must produce: `clear` + `load_bytes`.
    fn composed(image: &[(u16, &[u8])]) -> Ram {
        let mut fresh = Ram::new();
        fresh.clear();
        for (start, bytes) in image {
            fresh.load_bytes(*start, bytes);
        }
        fresh
    }

    type Mutation = fn(&mut Ram);

    #[test]
    fn tagged_reset_restores_every_mutation_path() {
        let mutations: [(&str, Mutation); 7] = [
            ("write_byte", |r| r.write_byte(0x0901, 0xAA)),
            ("write_word", |r| r.write_word(0x0200, 0xBEEF)),
            ("load_bytes", |r| r.load_bytes(0x03FE, &[9; 6])),
            ("load_words", |r| r.load_words(0xFFFE, &[0x1234, 0x5678])),
            ("clear", Ram::clear),
            // The verifier's input injection: a store into a code page.
            ("code store", |r| r.write_word(0xE002, 0x4303)),
            ("nothing", |_| {}),
        ];
        let want = composed(&IMAGE);
        for (label, mutate) in mutations {
            let mut r = Ram::new();
            r.reset_to(1, IMAGE);
            assert_eq!(r.as_slice(), want.as_slice(), "{label}: first reset");
            for _ in 0..2 {
                mutate(&mut r);
                r.reset_to(1, IMAGE);
                assert_eq!(r.as_slice(), want.as_slice(), "{label}: tagged reset");
            }
        }
    }

    #[test]
    fn tagged_reset_skips_only_untouched_pages() {
        let mut r = Ram::new();
        assert_eq!(r.reset_to(1, IMAGE), 3, "image pages written on a fresh RAM");
        assert_eq!(r.reset_to(1, IMAGE), 0);
        r.write_word(0x0202, 0);
        r.write_byte(0x7000, 1);
        assert_eq!(r.reset_to(1, IMAGE), 2, "exactly the two dirtied pages");
    }

    #[test]
    fn a_different_tag_resets_in_full() {
        // Tag 2 names a different image: a page untouched since the tag-1
        // reset must still be recomposed.
        let other: [(u16, &[u8]); 1] = [(0xE000, &[0x03, 0x43])];
        let mut r = Ram::new();
        r.reset_to(1, IMAGE);
        r.reset_to(2, other);
        assert_eq!(r.as_slice(), composed(&other).as_slice());
    }

    #[test]
    fn a_cloned_ram_never_skips() {
        // Reusing the original's tag for a different image would leave the
        // untouched pages stale if the clone inherited the reset record.
        let other: [(u16, &[u8]); 1] = [(0xE000, &[0x03, 0x43])];
        let mut r = Ram::new();
        r.reset_to(1, IMAGE);
        let mut c = r.clone();
        c.reset_to(1, other);
        assert_eq!(c.as_slice(), composed(&other).as_slice());
    }
}
