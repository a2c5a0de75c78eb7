//! The full simulated device: CPU-visible bus with RAM, flash and
//! peripherals, plus an external DMA port.
//!
//! [`Platform`] implements [`Bus`]; addresses below `0x0200` dispatch to the
//! peripheral models, everything else hits the flat backing store. The
//! memory-map [`Region`](crate::layout::Region) of any address can be
//! queried, which the APEX monitor uses to classify accesses.

use crate::layout::{mmio, MemoryMap};
use crate::mem::{fresh_bus_id, Access, AccessKind, Bus, GEN_PAGES, GEN_PAGE_BYTES};
use crate::periph::{Adc, Dma, Gpio, Timer, Uart};

/// A complete MSP430 device (memory + peripherals).
///
/// Like [`crate::mem::Ram`], the backing store is a fixed-size boxed array
/// so `u16`-indexed access compiles without bounds checks, and every
/// memory mutation bumps its 1 KiB page's write generation (peripheral
/// pages report no generation, so code there always runs on plain decode).
#[derive(Debug)]
pub struct Platform {
    bytes: Box<[u8; 0x1_0000]>,
    gens: Box<[u64; GEN_PAGES]>,
    id: u64,
    /// The physical memory map.
    pub map: MemoryMap,
    /// GPIO block.
    pub gpio: Gpio,
    /// UART ("network" interface of the applications).
    pub uart: Uart,
    /// ADC (sensor interface).
    pub adc: Adc,
    /// Timer A.
    pub timer: Timer,
}

/// A cloned platform is an independent bus: fresh identity, so generation
/// stamps can never cross instances (see [`Bus::page_generation`]).
impl Clone for Platform {
    fn clone(&self) -> Self {
        Self {
            bytes: self.bytes.clone(),
            gens: self.gens.clone(),
            id: fresh_bus_id(),
            map: self.map,
            gpio: self.gpio.clone(),
            uart: self.uart.clone(),
            adc: self.adc.clone(),
            timer: self.timer.clone(),
        }
    }
}

impl Default for Platform {
    fn default() -> Self {
        Self::new()
    }
}

impl Platform {
    /// A device with zeroed memory and idle peripherals.
    #[must_use]
    pub fn new() -> Self {
        Self {
            bytes: Box::new([0; 0x1_0000]),
            gens: Box::new([0; GEN_PAGES]),
            id: fresh_bus_id(),
            map: MemoryMap::default(),
            gpio: Gpio::default(),
            uart: Uart::default(),
            adc: Adc::default(),
            timer: Timer::default(),
        }
    }

    #[inline]
    fn bump(&mut self, addr: u16) {
        self.gens[usize::from(addr) / GEN_PAGE_BYTES] += 1;
    }

    /// Copies `words` little-endian starting at `addr` (program loading).
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

    /// Reads a word without peripheral side effects (attestation hashing,
    /// verifier inspection). Peripheral addresses read as zero.
    #[must_use]
    pub fn peek_word(&self, addr: u16) -> u16 {
        let a = addr & !1;
        if a < 0x0200 {
            return 0;
        }
        u16::from(self.bytes[usize::from(a)])
            | (u16::from(self.bytes[usize::from(a.wrapping_add(1))]) << 8)
    }

    /// Reads a byte without peripheral side effects.
    #[must_use]
    pub fn peek_byte(&self, addr: u16) -> u8 {
        if addr < 0x0200 {
            return 0;
        }
        self.bytes[usize::from(addr)]
    }

    /// Borrows a memory range (no peripheral dispatch) — used by SW-Att to
    /// hash attested regions exactly as stored.
    #[must_use]
    pub fn mem_range(&self, start: u16, end_inclusive: u16) -> &[u8] {
        &self.bytes[usize::from(start)..=usize::from(end_inclusive)]
    }

    /// Advances time-dependent peripherals by `cycles`.
    pub fn advance(&mut self, cycles: u32) {
        self.timer.advance(cycles);
    }

    /// Performs a DMA transfer as an external bus master, returning the bus
    /// events it generated so monitors can observe them.
    pub fn dma_transfer(&mut self, dma: &Dma) -> Vec<Access> {
        let mut events = Vec::with_capacity(dma.data.len());
        for (i, b) in dma.data.iter().enumerate() {
            let addr = dma.dst.wrapping_add(i as u16);
            self.write_byte(addr, *b);
            events.push(Access {
                addr,
                kind: AccessKind::Write,
                value: u16::from(*b),
                word: false,
            });
        }
        events
    }

    fn periph_read(&mut self, addr: u16) -> u8 {
        match addr {
            mmio::P1IN => self.gpio.p1.input,
            mmio::P1OUT => self.gpio.p1.output,
            mmio::P1DIR => self.gpio.p1.dir,
            mmio::P2IN => self.gpio.p2.input,
            mmio::P2OUT => self.gpio.p2.output,
            mmio::P2DIR => self.gpio.p2.dir,
            mmio::P3IN => self.gpio.p3.input,
            mmio::P3OUT => self.gpio.p3.output,
            mmio::P3DIR => self.gpio.p3.dir,
            // Reads *peek* (instrumented code re-reads every input
            // address); the program acks by writing RXBUF, which pops.
            mmio::UART_RXBUF => self.uart.peek_rx(),
            mmio::UART_STAT => self.uart.status(),
            mmio::ADC_MEM => self.adc.result as u8,
            a if a == mmio::ADC_MEM + 1 => (self.adc.result >> 8) as u8,
            // TA_R returns the value latched by writing 1 to TA_CTL, so a
            // read is idempotent within a run (required for re-reads by
            // instrumentation).
            mmio::TA_R => self.timer.latched as u8,
            a if a == mmio::TA_R + 1 => (self.timer.latched >> 8) as u8,
            _ => 0,
        }
    }

    fn periph_write(&mut self, addr: u16, v: u8) {
        match addr {
            mmio::P1OUT => self.gpio.p1.output = v,
            mmio::P1DIR => self.gpio.p1.dir = v,
            mmio::P2OUT => self.gpio.p2.output = v,
            mmio::P2DIR => self.gpio.p2.dir = v,
            mmio::P3OUT => self.gpio.p3.output = v,
            mmio::P3DIR => self.gpio.p3.dir = v,
            mmio::UART_TXBUF => self.uart.tx.push(v),
            mmio::UART_RXBUF => {
                // Ack: advance the RX FIFO.
                let _ = self.uart.pop_rx();
            }
            mmio::ADC_CTL if v & 1 != 0 => self.adc.convert(),
            mmio::TA_CTL => {
                if v == 0 {
                    self.timer.clear();
                } else if v & 1 != 0 {
                    self.timer.latch();
                }
            }
            _ => {}
        }
    }
}

impl Bus for Platform {
    fn read_byte(&mut self, addr: u16) -> u8 {
        if addr < 0x0200 {
            self.periph_read(addr)
        } else {
            self.bytes[usize::from(addr)]
        }
    }

    #[inline]
    fn write_byte(&mut self, addr: u16, value: u8) {
        if addr < 0x0200 {
            self.periph_write(addr, value);
        } else {
            self.bytes[usize::from(addr)] = value;
            self.bump(addr);
        }
    }

    // Non-peripheral word access straight off the backing store (an aligned
    // word at ≥ 0x0200 cannot straddle the peripheral window); peripheral
    // words keep the byte-wise dispatch.
    #[inline]
    fn read_word(&mut self, addr: u16) -> u16 {
        let a = usize::from(addr & !1);
        if a < 0x0200 {
            let lo = self.periph_read(a as u16);
            let hi = self.periph_read(a as u16 + 1);
            u16::from_le_bytes([lo, hi])
        } else {
            u16::from_le_bytes([self.bytes[a], self.bytes[a + 1]])
        }
    }

    #[inline]
    fn write_word(&mut self, addr: u16, value: u16) {
        let a = usize::from(addr & !1);
        let [lo, hi] = value.to_le_bytes();
        if a < 0x0200 {
            self.periph_write(a as u16, lo);
            self.periph_write(a as u16 + 1, hi);
        } else {
            self.bytes[a] = lo;
            self.bytes[a + 1] = hi;
            // An aligned word never straddles a generation page.
            self.gens[a / GEN_PAGE_BYTES] += 1;
        }
    }

    /// Peripheral state (page 0) has no byte-level generation — reads there
    /// can have device semantics — so only plain-memory pages report one.
    #[inline]
    fn page_generation(&self, addr: u16) -> Option<(u64, u64)> {
        let page = usize::from(addr) / GEN_PAGE_BYTES;
        if page == 0 {
            return None;
        }
        Some((self.id, self.gens[page]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpio_round_trip() {
        let mut p = Platform::new();
        p.write_byte(mmio::P3OUT, 0x1);
        assert_eq!(p.gpio.p3.output, 0x1);
        assert_eq!(p.read_byte(mmio::P3OUT), 0x1);
        p.gpio.p1.input = 0xA5;
        assert_eq!(p.read_byte(mmio::P1IN), 0xA5);
    }

    #[test]
    fn uart_rx_peeks_on_read_pops_on_ack() {
        let mut p = Platform::new();
        p.uart.feed(&[0x11, 0x22]);
        assert_eq!(p.read_byte(mmio::UART_STAT) & 1, 1);
        // Reads are idempotent (instrumentation re-reads inputs).
        assert_eq!(p.read_byte(mmio::UART_RXBUF), 0x11);
        assert_eq!(p.read_byte(mmio::UART_RXBUF), 0x11);
        p.write_byte(mmio::UART_RXBUF, 0); // ack
        assert_eq!(p.read_byte(mmio::UART_RXBUF), 0x22);
        p.write_byte(mmio::UART_RXBUF, 0);
        assert_eq!(p.read_byte(mmio::UART_STAT) & 1, 0);
    }

    #[test]
    fn adc_conversion_via_ctl() {
        let mut p = Platform::new();
        p.adc.feed(&[0x0123]);
        p.write_byte(mmio::ADC_CTL, 1);
        assert_eq!(p.read_word(mmio::ADC_MEM), 0x0123);
    }

    #[test]
    fn timer_latches_on_ctl_write() {
        let mut p = Platform::new();
        p.advance(0x105);
        assert_eq!(p.read_word(mmio::TA_R), 0, "unlatched");
        p.write_byte(mmio::TA_CTL, 1);
        assert_eq!(p.read_word(mmio::TA_R), 0x105);
        p.advance(10);
        assert_eq!(p.read_word(mmio::TA_R), 0x105, "stable until next latch");
        p.write_byte(mmio::TA_CTL, 0);
        p.write_byte(mmio::TA_CTL, 1);
        assert_eq!(p.read_word(mmio::TA_R), 0);
    }

    #[test]
    fn peek_has_no_side_effects() {
        let mut p = Platform::new();
        p.uart.feed(&[0x99]);
        assert_eq!(p.peek_byte(mmio::UART_RXBUF), 0);
        assert_eq!(p.uart.rx_available(), 1, "peek must not pop the FIFO");
        p.load_words(0x0300, &[0xBEEF]);
        assert_eq!(p.peek_word(0x0300), 0xBEEF);
    }

    #[test]
    fn dma_writes_and_reports_events() {
        let mut p = Platform::new();
        let ev = p.dma_transfer(&Dma { dst: 0x0400, data: vec![0xAA, 0xBB] });
        assert_eq!(ev.len(), 2);
        assert_eq!(p.peek_byte(0x0400), 0xAA);
        assert_eq!(p.peek_byte(0x0401), 0xBB);
        assert_eq!(ev[0].kind, AccessKind::Write);
    }
}
