//! The paged data file format (`store.pages`).
//!
//! The file is an array of fixed-size pages. Every page carries a 32-byte
//! header whose first field is an FNV-1a-64 checksum over the *rest of the
//! page* (header fields after the checksum, plus the full payload area), so
//! a flipped bit anywhere in the page is detected on read. The header also
//! repeats the page's own number — a write directed at the wrong offset is
//! detected the same way a corrupt one is.
//!
//! Layout (little-endian):
//!
//! ```text
//! offset  size  field
//!      0     8  checksum   fnv1a64(bytes[8..PAGE_SIZE])
//!      8     4  magic      "LCPG" (0x4750_434c)
//!     12     4  page_no    this page's index in the file
//!     16     1  kind       0 free · 1 blob head · 2 blob continuation
//!     17     1  reserved
//!     18     2  payload_len bytes of payload in use
//!     20     4  next_page  next page of the blob chain (u32::MAX = none)
//!     24     8  blob_id    owning blob
//!     32  4064  payload
//! ```

use crate::StoreError;
use lcdb_exec::hash::fnv1a64;

/// Size of every page in the data file.
pub const PAGE_SIZE: usize = 4096;
/// Bytes of header at the start of every page.
pub const PAGE_HEADER: usize = 32;
/// Usable payload bytes per page.
pub const PAGE_PAYLOAD: usize = PAGE_SIZE - PAGE_HEADER;
/// Sentinel for "no next page".
pub const NO_PAGE: u32 = u32::MAX;

const PAGE_MAGIC: u32 = 0x4750_434c; // "LCPG"

/// Page kind: the head page of a blob chain.
pub const KIND_HEAD: u8 = 1;
/// Page kind: a continuation page of a blob chain.
pub const KIND_CONT: u8 = 2;

/// A decoded page header plus its payload bytes.
pub struct Page {
    pub kind: u8,
    pub next: u32,
    pub blob_id: u64,
    pub payload: Vec<u8>,
}

/// Encode one page image. `payload` must fit in [`PAGE_PAYLOAD`].
pub fn encode_page(no: u32, kind: u8, next: u32, blob_id: u64, payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= PAGE_PAYLOAD);
    let mut buf = vec![0u8; PAGE_SIZE];
    buf[8..12].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
    buf[12..16].copy_from_slice(&no.to_le_bytes());
    buf[16] = kind;
    buf[18..20].copy_from_slice(&(payload.len() as u16).to_le_bytes());
    buf[20..24].copy_from_slice(&next.to_le_bytes());
    buf[24..32].copy_from_slice(&blob_id.to_le_bytes());
    buf[PAGE_HEADER..PAGE_HEADER + payload.len()].copy_from_slice(payload);
    let sum = fnv1a64(&buf[8..]);
    buf[0..8].copy_from_slice(&sum.to_le_bytes());
    buf
}

fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Decode and checksum-verify a page image read from page slot `no`.
///
/// A checksum, magic, or self-identification failure is a
/// [`StoreError::CorruptPage`]; the caller quarantines the page.
pub fn decode_page(no: u32, buf: &[u8]) -> Result<Page, StoreError> {
    if buf.len() != PAGE_SIZE {
        return Err(StoreError::Truncated {
            file: "pages",
            offset: no as u64 * PAGE_SIZE as u64 + buf.len() as u64,
            context: "page image",
        });
    }
    let expected = le_u64(&buf[0..8]);
    let found = fnv1a64(&buf[8..]);
    if expected != found {
        return Err(StoreError::CorruptPage { page: no, expected, found });
    }
    let magic = le_u32(&buf[8..12]);
    let stored_no = le_u32(&buf[12..16]);
    if magic != PAGE_MAGIC || stored_no != no {
        // Checksum-valid but not the page we asked for: a misdirected
        // write. Surface it as corruption of slot `no`.
        return Err(StoreError::CorruptPage { page: no, expected, found: !found });
    }
    let kind = buf[16];
    let payload_len = le_u16(&buf[18..20]);
    if payload_len as usize > PAGE_PAYLOAD {
        return Err(StoreError::Malformed {
            context: "page payload length",
            message: format!("page {no} claims {payload_len} payload bytes"),
        });
    }
    Ok(Page {
        kind,
        next: le_u32(&buf[20..24]),
        blob_id: le_u64(&buf[24..32]),
        payload: buf[PAGE_HEADER..PAGE_HEADER + payload_len as usize].to_vec(),
    })
}

/// Number of pages needed to hold `len` payload bytes (at least one).
pub fn pages_for(len: usize) -> usize {
    len.div_ceil(PAGE_PAYLOAD).max(1)
}

/// True if every byte of the image is zero — an unwritten hole left by a
/// file extension, distinct from a torn or rotted page.
pub fn is_zero_page(buf: &[u8]) -> bool {
    buf.iter().all(|&b| b == 0)
}
