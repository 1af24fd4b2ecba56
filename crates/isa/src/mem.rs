//! Sparse byte-addressable data memory image.

use std::collections::HashMap;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// A sparse, paged, little-endian memory image.
///
/// Unwritten memory reads as zero. Pages are 4 KiB and allocated on first
/// write, so images covering scattered gigabyte-scale address ranges stay
/// small. A multi-byte access wraps around the top of the address space,
/// as the interpreter's effective-address computation does.
///
/// # Examples
///
/// ```
/// use mds_isa::MemImage;
///
/// let mut m = MemImage::new();
/// m.write_u32(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u32(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u8(0x1000), 0xef); // little-endian
/// assert_eq!(m.read_u64(0x9999_0000), 0); // untouched memory is zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemImage {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl MemImage {
    /// Creates an empty (all-zero) memory image.
    pub fn new() -> MemImage {
        MemImage::default()
    }

    /// Number of 4 KiB pages currently allocated.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        page[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads `size` bytes (1, 2, 4 or 8) little-endian, zero-extended to `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4 or 8.
    pub fn read(&self, addr: u64, size: u8) -> u64 {
        assert!(
            matches!(size, 1 | 2 | 4 | 8),
            "unsupported access size {size}"
        );
        let mut v = 0u64;
        for i in 0..size as u64 {
            v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    /// Writes the low `size` bytes (1, 2, 4 or 8) of `value`, little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4 or 8.
    pub fn write(&mut self, addr: u64, size: u8, value: u64) {
        assert!(
            matches!(size, 1 | 2 | 4 | 8),
            "unsupported access size {size}"
        );
        for i in 0..size as u64 {
            self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// Reads a 16-bit little-endian value.
    pub fn read_u16(&self, addr: u64) -> u16 {
        self.read(addr, 2) as u16
    }

    /// Reads a 32-bit little-endian value.
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.read(addr, 4) as u32
    }

    /// Reads a 64-bit little-endian value.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read(addr, 8)
    }

    /// Writes a 16-bit little-endian value.
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        self.write(addr, 2, value as u64);
    }

    /// Writes a 32-bit little-endian value.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write(addr, 4, value as u64);
    }

    /// Writes a 64-bit little-endian value.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write(addr, 8, value);
    }

    /// Writes an `f64` as its bit pattern.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Reads an `f64` from its bit pattern.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Copies a byte slice into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = MemImage::new();
        assert_eq!(m.read_u64(0), 0);
        assert_eq!(m.read_u8(u64::MAX - 8), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn little_endian_round_trip() {
        let mut m = MemImage::new();
        m.write_u32(0x100, 0x0403_0201);
        assert_eq!(m.read_u8(0x100), 0x01);
        assert_eq!(m.read_u8(0x103), 0x04);
        assert_eq!(m.read_u16(0x100), 0x0201);
        assert_eq!(m.read_u32(0x100), 0x0403_0201);
    }

    #[test]
    fn cross_page_access() {
        let mut m = MemImage::new();
        let addr = PAGE_SIZE as u64 - 4; // straddles the first page boundary
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn access_wraps_around_the_top_of_the_address_space() {
        let mut m = MemImage::new();
        m.write_u64(u64::MAX - 3, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u32(u64::MAX - 3), 0x5566_7788);
        assert_eq!(m.read_u32(0), 0x1122_3344);
        assert_eq!(m.read_u64(u64::MAX - 3), 0x1122_3344_5566_7788);
    }

    #[test]
    fn partial_overwrite() {
        let mut m = MemImage::new();
        m.write_u64(0x200, u64::MAX);
        m.write_u8(0x203, 0);
        assert_eq!(m.read_u64(0x200), 0xffff_ffff_00ff_ffff);
    }

    #[test]
    fn f64_round_trip() {
        let mut m = MemImage::new();
        m.write_f64(0x80, 3.25);
        assert_eq!(m.read_f64(0x80), 3.25);
    }

    #[test]
    fn write_bytes_copies() {
        let mut m = MemImage::new();
        m.write_bytes(0x10, &[1, 2, 3]);
        assert_eq!(m.read_u8(0x10), 1);
        assert_eq!(m.read_u8(0x12), 3);
    }

    #[test]
    #[should_panic]
    fn bad_size_panics() {
        let m = MemImage::new();
        let _ = m.read(0, 3);
    }
}
