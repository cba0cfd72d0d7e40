//! Versioned, checksummed on-disk CSR container.
//!
//! The serve crate's `SimMassIndex` is the one release artifact of the
//! offline pipeline that goes to disk. [`CsrArtifact::open`] reads the
//! whole file into one 8-byte-aligned heap buffer, verifies it, and
//! then hands out rows zero-copy from that buffer.
//!
//! # Layout (version 2, all integers little-endian)
//!
//! ```text
//! [ header  | 96 bytes, fixed                                     ]
//! [ offsets | (num_rows + 1) × u64    — CSR exclusive prefix sums ]
//! [ vals    | num_entries × f64       — values, row-major         ]
//! [ cols    | num_entries × u32       — column ids, row-major     ]
//! [ pad     | 0 or 4 zero bytes       — file length is × 8        ]
//! ```
//!
//! Header fields, in order:
//!
//! | bytes  | field       | contents                                      |
//! |--------|-------------|-----------------------------------------------|
//! | 0..8   | magic       | `b"SRCSRART"`                                 |
//! | 8..16  | endian tag  | `0x0102030405060708` as a native-endian store |
//! | 16..20 | version     | `2`                                           |
//! | 20..24 | kind        | `2` = sim-mass index (the only kind)          |
//! | 24..28 | value kind  | `1` = f64 (the only width)                    |
//! | 28..32 | (reserved)  | zero                                          |
//! | 32..40 | num_rows    | u64                                           |
//! | 40..48 | num_entries | u64                                           |
//! | 48..56 | meta        | the index's cluster count                     |
//! | 56..64 | offsets_off | byte offset of the offsets section            |
//! | 64..72 | vals_off    | byte offset of the vals section               |
//! | 72..80 | cols_off    | byte offset of the cols section               |
//! | 80..88 | file_len    | total file length in bytes                    |
//! | 88..96 | checksum    | [`checksum`] of the file, these 8 bytes as 0  |
//!
//! Every section offset is a multiple of 8, so the 8-byte-aligned read
//! buffer can reinterpret each section as `&[u64]` / `&[f64]` /
//! `&[u32]` in place. The endian tag makes a file written on a
//! big-endian machine fail loudly on open instead of decoding garbage.
//! Unknown versions, kinds and value kinds (the retired f32 width was
//! value kind `2`) are rejected with explicit errors, and so is any file
//! whose checksum does not match: a flipped mass bit or header field
//! fails the open instead of serving wrong answers.
//!
//! [`StreamingCsrWriter`] is the one writer, with bounded memory: rows
//! are appended one at a time, values stream straight to their final
//! file position (the offsets section size is known from `num_rows` up
//! front), columns stream to a scratch file whose final position depends
//! on the still-unknown entry count, and `finish()` splices everything
//! together, back-patches the header and then reads the file back once
//! to stamp its checksum. Peak writer memory is the offsets array
//! (O(rows)) plus two small I/O buffers, never O(entries).
//!
//! The writer never touches the target file until the new artifact is
//! complete: it builds the file under a sibling temp name, fsyncs it,
//! and `rename(2)`s it over the target. A reader that opened the old
//! artifact holds its own copy of the bytes, and a crashed write leaves
//! the old file in place.

use std::ffi::OsString;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic for the artifact container.
pub const ARTIFACT_MAGIC: &[u8; 8] = b"SRCSRART";
/// Current (and only) container version. Version 1 files carry no
/// checksum and fail the open.
pub const ARTIFACT_VERSION: u32 = 2;
/// Byte-order probe stored in the header; reads back as written only
/// when writer and reader agree on endianness.
const ENDIAN_TAG: u64 = 0x0102_0304_0506_0708;
/// The kind word of a sim-mass index, the one artifact kind.
const KIND_SIM_MASS: u32 = 2;
/// Fixed header size; also the file offset of the offsets section.
pub const HEADER_LEN: usize = 96;
/// Byte offset of the checksum word in the header.
const CHECKSUM_OFF: usize = 88;
/// Buffered-write granularity for the streaming writer (a multiple of
/// 8, so the checksum pass reads whole words).
const WRITE_CHUNK_BYTES: usize = 64 * 1024;

/// Storage width of the value section: full-precision f64, so serving
/// an opened artifact is bit-identical to the in-RAM build. It has one
/// variant; `SimMassIndex::write_artifact` still takes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueKind {
    /// Full-precision values, value kind `1` in the header.
    F64,
}

/// The header's value-kind word for f64 values, the only width.
const VALUE_KIND_F64: u32 = 1;

/// Parsed container header. See the module docs for the byte layout.
#[derive(Clone, Copy, Debug)]
pub struct ArtifactHeader {
    /// Number of CSR rows.
    pub num_rows: u64,
    /// Number of stored entries.
    pub num_entries: u64,
    /// The index's cluster count.
    pub meta: u64,
    /// Byte offset of the offsets section.
    pub offsets_off: u64,
    /// Byte offset of the vals section.
    pub vals_off: u64,
    /// Byte offset of the cols section.
    pub cols_off: u64,
    /// Total file length in bytes.
    pub file_len: u64,
    /// The stored [`checksum`] of the file.
    pub checksum: u64,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Round `len` up to the next multiple of 8.
fn align8(len: u64) -> u64 {
    len.div_ceil(8) * 8
}

impl ArtifactHeader {
    /// Compute the section layout for a matrix of the given shape. The
    /// offsets section always starts right after the header; vals and
    /// cols follow, each 8-byte aligned since every value is 8 bytes.
    /// The checksum is left zero.
    fn layout(num_rows: u64, num_entries: u64, meta: u64) -> ArtifactHeader {
        let offsets_off = HEADER_LEN as u64;
        let vals_off = offsets_off + (num_rows + 1) * 8;
        let cols_off = vals_off + num_entries * 8;
        let file_len = align8(cols_off + num_entries * 4);
        ArtifactHeader {
            num_rows,
            num_entries,
            meta,
            offsets_off,
            vals_off,
            cols_off,
            file_len,
            checksum: 0,
        }
    }

    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0..8].copy_from_slice(ARTIFACT_MAGIC);
        h[8..16].copy_from_slice(&ENDIAN_TAG.to_ne_bytes());
        h[16..20].copy_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        h[20..24].copy_from_slice(&KIND_SIM_MASS.to_le_bytes());
        h[24..28].copy_from_slice(&VALUE_KIND_F64.to_le_bytes());
        h[32..40].copy_from_slice(&self.num_rows.to_le_bytes());
        h[40..48].copy_from_slice(&self.num_entries.to_le_bytes());
        h[48..56].copy_from_slice(&self.meta.to_le_bytes());
        h[56..64].copy_from_slice(&self.offsets_off.to_le_bytes());
        h[64..72].copy_from_slice(&self.vals_off.to_le_bytes());
        h[72..80].copy_from_slice(&self.cols_off.to_le_bytes());
        h[80..88].copy_from_slice(&self.file_len.to_le_bytes());
        h[88..96].copy_from_slice(&self.checksum.to_le_bytes());
        h
    }

    fn parse(bytes: &[u8]) -> io::Result<ArtifactHeader> {
        if bytes.len() < HEADER_LEN {
            return Err(bad("file too short for an artifact header"));
        }
        if &bytes[0..8] != ARTIFACT_MAGIC {
            return Err(bad("not a socialrec CSR artifact (bad magic)"));
        }
        let u64_at = |off: usize| {
            u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8-byte header field"))
        };
        let u32_at = |off: usize| {
            u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4-byte header field"))
        };
        if u64::from_ne_bytes(bytes[8..16].try_into().expect("endian tag")) != ENDIAN_TAG {
            return Err(bad("artifact written with a different byte order"));
        }
        let version = u32_at(16);
        if version != ARTIFACT_VERSION {
            return Err(bad(format!(
                "unsupported artifact version {version} (this reader understands \
                 version {ARTIFACT_VERSION})"
            )));
        }
        if u32_at(20) != KIND_SIM_MASS {
            return Err(bad(format!("artifact kind {} is not a sim-mass index", u32_at(20))));
        }
        if u32_at(24) != VALUE_KIND_F64 {
            return Err(bad(format!(
                "unsupported artifact value kind {} (this reader understands value kind \
                 {VALUE_KIND_F64}, f64)",
                u32_at(24)
            )));
        }
        Ok(ArtifactHeader {
            num_rows: u64_at(32),
            num_entries: u64_at(40),
            meta: u64_at(48),
            offsets_off: u64_at(56),
            vals_off: u64_at(64),
            cols_off: u64_at(72),
            file_len: u64_at(80),
            checksum: u64_at(CHECKSUM_OFF),
        })
    }
}

/// The artifact checksum of a file, given as its `u64` words as stored
/// (little-endian), with the checksum word (bytes 88..96) read as zero.
///
/// Word `i` feeds lane `i % 4` through an xxHash64-style round, so the
/// four dependency chains overlap in the CPU; the lanes and the word
/// count then fold into one avalanched `u64`. Each round is a bijection
/// in both the lane and the word, so a file that differs from the
/// checksummed one in a single word never matches.
pub fn checksum(file: &[u64]) -> u64 {
    let split = file.len().min(HEADER_LEN / 8);
    let mut header = [0u64; HEADER_LEN / 8];
    header[..split].copy_from_slice(&file[..split]);
    header[CHECKSUM_OFF / 8] = 0;
    let mut sum = Checksum::default();
    sum.update(&header[..split]);
    sum.update(&file[split..]);
    sum.finish()
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// Running state of [`checksum`], fed in file order.
#[derive(Clone, Copy, Debug, Default)]
struct Checksum {
    lanes: [u64; 4],
    words: u64,
}

impl Checksum {
    /// Fold the file's next `words`, as stored. Every call but the last
    /// passes a multiple of 4 words, so word `i` lands in lane `i % 4`.
    fn update(&mut self, words: &[u64]) {
        debug_assert_eq!(self.words % 4, 0, "only the last update may end mid-stripe");
        let round = |lane: u64, w: u64| {
            lane.wrapping_add(u64::from_le(w).wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
        };
        let mut lanes = self.lanes;
        let mut stripes = words.chunks_exact(4);
        for stripe in &mut stripes {
            for (lane, &w) in lanes.iter_mut().zip(stripe) {
                *lane = round(*lane, w);
            }
        }
        for (lane, &w) in lanes.iter_mut().zip(stripes.remainder()) {
            *lane = round(*lane, w);
        }
        self.lanes = lanes;
        self.words += words.len() as u64;
    }

    fn finish(&self) -> u64 {
        let mut h = self.lanes.iter().fold(self.words, |h, &lane| {
            (h.rotate_left(27) ^ lane).wrapping_mul(P1).wrapping_add(P2)
        });
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P1);
        h ^ (h >> 32)
    }
}

/// Reinterpret an 8-byte-aligned byte slice as a slice of `T`.
///
/// Callers guarantee `T` is a plain-old-data type with no invalid bit
/// patterns (`u64`, `u32`, `f64` here), that `bytes.len()` is a
/// multiple of `size_of::<T>()`, and that the base pointer satisfies
/// `T`'s alignment — all enforced by the section validation in
/// [`CsrArtifact::open`] plus the `u64` read buffer's alignment, and
/// re-checked by the debug asserts.
fn cast_section<T>(bytes: &[u8]) -> &[T] {
    debug_assert_eq!(bytes.len() % std::mem::size_of::<T>(), 0);
    debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<T>(), 0);
    // SAFETY: length divisibility and alignment hold per above; the
    // target types have no invalid bit patterns.
    unsafe {
        std::slice::from_raw_parts(
            bytes.as_ptr() as *const T,
            bytes.len() / std::mem::size_of::<T>(),
        )
    }
}

/// The bytes of an 8-byte-aligned word buffer.
fn as_bytes(words: &[u64]) -> &[u8] {
    // SAFETY: an initialized u64 buffer is a valid byte buffer of eight
    // times its length.
    unsafe { std::slice::from_raw_parts(words.as_ptr() as *const u8, words.len() * 8) }
}

/// A validated, read-only artifact held in memory. Rows are served
/// zero-copy out of the read buffer.
pub struct CsrArtifact {
    /// The file's bytes, in `u64` words so the buffer is 8-byte
    /// aligned; the file length is a multiple of 8.
    words: Vec<u64>,
    header: ArtifactHeader,
}

impl CsrArtifact {
    /// Read `path` into memory and validate it: header, length,
    /// checksum, section bounds and offsets. A file that fails any
    /// check gives an [`io::ErrorKind::InvalidData`] error.
    pub fn open(path: &Path) -> io::Result<CsrArtifact> {
        let mut file = File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| bad("artifact too large for the address space"))?;
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: a u64 buffer of ceil(len/8) words holds at least `len`
        // bytes, and u64 has no invalid byte patterns.
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, words.len() * 8)
        };
        file.read_exact(&mut bytes[..len])?;
        if len % 8 != 0 {
            return Err(bad(format!("artifact length {len} is not a multiple of 8")));
        }
        Self::from_words(words)
    }

    /// Validate a file's bytes, held as `u64` words.
    fn from_words(words: Vec<u64>) -> io::Result<CsrArtifact> {
        let bytes = as_bytes(&words);
        let header = ArtifactHeader::parse(bytes)?;
        let len = bytes.len() as u64;
        if header.file_len != len {
            return Err(bad(format!(
                "artifact truncated or padded: header says {} bytes, file has {len}",
                header.file_len
            )));
        }
        if checksum(&words) != header.checksum {
            return Err(bad("artifact checksum mismatch: the file is corrupt"));
        }
        for (name, off) in
            [("offsets", header.offsets_off), ("vals", header.vals_off), ("cols", header.cols_off)]
        {
            if off % 8 != 0 {
                return Err(bad(format!("{name} section misaligned (offset {off})")));
            }
        }
        // Corrupt counts must not overflow the section arithmetic.
        let section_end =
            |off: u64, count: Option<u64>, width: u64| count?.checked_mul(width)?.checked_add(off);
        let (Some(offsets_end), Some(vals_end), Some(cols_end)) = (
            section_end(header.offsets_off, header.num_rows.checked_add(1), 8),
            section_end(header.vals_off, Some(header.num_entries), 8),
            section_end(header.cols_off, Some(header.num_entries), 4),
        ) else {
            return Err(bad("artifact section sizes overflow"));
        };
        if header.offsets_off < HEADER_LEN as u64
            || offsets_end > header.vals_off
            || vals_end > header.cols_off
            || cols_end > len
        {
            return Err(bad("artifact sections overlap or run past end of file"));
        }
        let art = CsrArtifact { words, header };
        let offsets = art.offsets();
        if offsets.first() != Some(&0) || offsets.last() != Some(&art.header.num_entries) {
            return Err(bad("corrupt offsets: bad first/last entry"));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(bad("corrupt offsets: not monotone"));
        }
        Ok(art)
    }

    /// The parsed header.
    pub fn header(&self) -> &ArtifactHeader {
        &self.header
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.header.num_rows as usize
    }

    fn section(&self, off: u64, len_bytes: u64) -> &[u8] {
        &as_bytes(&self.words)[off as usize..(off + len_bytes) as usize]
    }

    /// The CSR offsets section: `num_rows + 1` exclusive prefix sums.
    pub fn offsets(&self) -> &[u64] {
        cast_section(self.section(self.header.offsets_off, (self.header.num_rows + 1) * 8))
    }

    /// The column-id section, row-major.
    pub fn cols(&self) -> &[u32] {
        cast_section(self.section(self.header.cols_off, self.header.num_entries * 4))
    }

    /// The value section, row-major.
    pub fn vals(&self) -> &[f64] {
        cast_section(self.section(self.header.vals_off, self.header.num_entries * 8))
    }

    /// Element range `[lo, hi)` of row `r` (bounds-checked by the
    /// offsets slice indexing).
    #[inline]
    pub fn row_range(&self, r: usize) -> (usize, usize) {
        let offsets = self.offsets();
        (offsets[r] as usize, offsets[r + 1] as usize)
    }
}

impl std::fmt::Debug for CsrArtifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrArtifact")
            .field("num_rows", &self.header.num_rows)
            .field("num_entries", &self.header.num_entries)
            .finish()
    }
}

/// Bounded-memory artifact writer: see the module docs for the
/// protocol. Rows must be pushed in ascending order, exactly
/// `num_rows` of them, then [`finish`](StreamingCsrWriter::finish)
/// called. Until `finish` renames the new file over the target, the
/// target keeps its previous contents, so dropping the writer (or
/// crashing) leaves the old artifact in place next to stray `.tmp`
/// siblings.
pub struct StreamingCsrWriter {
    path: PathBuf,
    file: File,
    file_tmp_path: PathBuf,
    cols_tmp: File,
    cols_tmp_path: PathBuf,
    meta: u64,
    num_rows: usize,
    offsets: Vec<u64>,
    entries: u64,
    vals_buf: Vec<u8>,
    cols_buf: Vec<u8>,
}

impl StreamingCsrWriter {
    /// Start writing an artifact for a matrix with `num_rows` rows.
    pub fn create(path: &Path, meta: u64, num_rows: usize) -> io::Result<StreamingCsrWriter> {
        let file_tmp_path = sibling(path, ".tmp");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&file_tmp_path)?;
        // Values stream straight to their final position — everything
        // before them (header + offsets) has a size known up front.
        let vals_off = HEADER_LEN as u64 + (num_rows as u64 + 1) * 8;
        file.seek(SeekFrom::Start(vals_off))?;
        let cols_tmp_path = sibling(path, ".cols.tmp");
        let cols_tmp = File::create(&cols_tmp_path)?;
        let mut offsets = Vec::with_capacity(num_rows + 1);
        offsets.push(0u64);
        Ok(StreamingCsrWriter {
            path: path.to_path_buf(),
            file,
            file_tmp_path,
            cols_tmp,
            cols_tmp_path,
            meta,
            num_rows,
            offsets,
            entries: 0,
            vals_buf: Vec::with_capacity(WRITE_CHUNK_BYTES),
            cols_buf: Vec::with_capacity(WRITE_CHUNK_BYTES),
        })
    }

    /// Append the next row.
    pub fn push_row(&mut self, cols: &[u32], vals: &[f64]) -> io::Result<()> {
        assert_eq!(cols.len(), vals.len(), "cols and vals must be parallel");
        assert!(self.offsets.len() <= self.num_rows, "more rows pushed than declared");
        for &x in vals {
            self.vals_buf.extend_from_slice(&x.to_le_bytes());
        }
        for &c in cols {
            self.cols_buf.extend_from_slice(&c.to_le_bytes());
        }
        if self.vals_buf.len() >= WRITE_CHUNK_BYTES {
            self.file.write_all(&self.vals_buf)?;
            self.vals_buf.clear();
        }
        if self.cols_buf.len() >= WRITE_CHUNK_BYTES {
            self.cols_tmp.write_all(&self.cols_buf)?;
            self.cols_buf.clear();
        }
        self.entries += cols.len() as u64;
        self.offsets.push(self.entries);
        Ok(())
    }

    /// Splice the sections together, back-patch the header and offsets,
    /// stamp the checksum, fsync, and rename the finished file over the
    /// target (then fsync its directory); the column scratch file is
    /// removed.
    pub fn finish(mut self) -> io::Result<()> {
        assert_eq!(
            self.offsets.len(),
            self.num_rows + 1,
            "finish called after {} of {} rows",
            self.offsets.len() - 1,
            self.num_rows
        );
        self.file.write_all(&self.vals_buf)?;
        self.cols_tmp.write_all(&self.cols_buf)?;
        self.cols_tmp.flush()?;

        let header = ArtifactHeader::layout(self.num_rows as u64, self.entries, self.meta);
        // The cols section starts where the vals end: append the cols
        // scratch file, then the final alignment pad.
        let mut cols_src = File::open(&self.cols_tmp_path)?;
        let mut buf = vec![0u8; WRITE_CHUNK_BYTES];
        loop {
            let n = cols_src.read(&mut buf)?;
            if n == 0 {
                break;
            }
            self.file.write_all(&buf[..n])?;
        }
        let cols_end = header.cols_off + self.entries * 4;
        self.file.write_all(&vec![0u8; (header.file_len - cols_end) as usize])?;

        // Back-patch the header (checksum still zero) and the offsets.
        self.file.seek(SeekFrom::Start(0))?;
        let mut front = BufWriter::with_capacity(WRITE_CHUNK_BYTES, &mut self.file);
        front.write_all(&header.encode())?;
        for &o in &self.offsets {
            front.write_all(&o.to_le_bytes())?;
        }
        front.flush()?;
        drop(front);

        // Read the whole file back once for its checksum; the header's
        // checksum word is still zero, as the checksum reads it.
        self.file.seek(SeekFrom::Start(0))?;
        let mut sum = Checksum::default();
        let mut words = Vec::with_capacity(WRITE_CHUNK_BYTES / 8);
        let mut left = header.file_len as usize;
        while left > 0 {
            let chunk = &mut buf[..left.min(WRITE_CHUNK_BYTES)];
            self.file.read_exact(chunk)?;
            words.clear();
            words.extend(
                chunk
                    .chunks_exact(8)
                    .map(|w| u64::from_ne_bytes(w.try_into().expect("8-byte word"))),
            );
            sum.update(&words);
            left -= chunk.len();
        }
        self.file.seek(SeekFrom::Start(CHECKSUM_OFF as u64))?;
        self.file.write_all(&sum.finish().to_le_bytes())?;

        self.file.sync_all()?;
        drop(self.file);
        drop(self.cols_tmp);
        std::fs::remove_file(&self.cols_tmp_path)?;
        std::fs::rename(&self.file_tmp_path, &self.path)?;
        sync_parent_dir(&self.path)
    }
}

/// fsync the directory holding `path`, so that a rename into it
/// survives a crash.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()
}

#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> io::Result<()> {
    Ok(())
}

/// `path` with `suffix` appended to its file name. The writer's scratch
/// files sit in the target's directory, so the final rename never
/// crosses a file system.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().map(OsString::from).unwrap_or_default();
    name.push(suffix);
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("socialrec-artifact-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.srart", std::process::id()))
    }

    /// Deterministic ragged test matrix: row r has `r % 5` entries
    /// (rows 0, 5, 10, … empty), mixed-magnitude values.
    fn demo_csr(rows: usize) -> (Vec<u64>, Vec<u32>, Vec<f64>) {
        let mut offsets = vec![0u64];
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for r in 0..rows {
            for k in 0..r % 5 {
                let h = (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k as u64);
                cols.push(h as u32 % 1000);
                vals.push((h >> 11) as f64 * 1.25e-7 + 0.5);
            }
            offsets.push(cols.len() as u64);
        }
        (offsets, cols, vals)
    }

    /// Write a CSR held in flat arrays through the streaming writer.
    fn write_flat(path: &Path, meta: u64, offsets: &[u64], cols: &[u32], vals: &[f64]) {
        let mut w = StreamingCsrWriter::create(path, meta, offsets.len() - 1).unwrap();
        for row in offsets.windows(2) {
            let (a, b) = (row[0] as usize, row[1] as usize);
            w.push_row(&cols[a..b], &vals[a..b]).unwrap();
        }
        w.finish().unwrap();
    }

    /// The bytes of a demo artifact with `rows` rows.
    fn demo_bytes(rows: usize) -> Vec<u8> {
        let (offsets, cols, vals) = demo_csr(rows);
        let path = temp_path(&format!("demo-{rows}"));
        write_flat(&path, 1000, &offsets, &cols, &vals);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    fn open_bytes(bytes: &[u8]) -> io::Result<CsrArtifact> {
        assert_eq!(bytes.len() % 8, 0);
        CsrArtifact::from_words(
            bytes.chunks_exact(8).map(|w| u64::from_ne_bytes(w.try_into().unwrap())).collect(),
        )
    }

    /// Rows round-trip bit for bit, including a matrix whose values and
    /// columns each fill more than one write chunk.
    #[test]
    fn roundtrip_is_bit_identical() {
        for rows in [57, 10_000] {
            let (offsets, cols, vals) = demo_csr(rows);
            if rows > 57 {
                assert!(vals.len() * 8 > WRITE_CHUNK_BYTES && cols.len() * 4 > WRITE_CHUNK_BYTES);
            }
            let path = temp_path(&format!("roundtrip-{rows}"));
            write_flat(&path, 42, &offsets, &cols, &vals);
            let art = CsrArtifact::open(&path).unwrap();
            assert_eq!(art.header().meta, 42);
            assert_eq!(art.offsets(), offsets.as_slice());
            assert_eq!(art.cols(), cols.as_slice());
            let got = art.vals();
            assert_eq!(got.len(), vals.len());
            for (a, b) in got.iter().zip(&vals) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn empty_matrix_and_empty_rows() {
        let path = temp_path("empty");
        write_flat(&path, 0, &[0], &[], &[]);
        let art = CsrArtifact::open(&path).unwrap();
        assert_eq!(art.num_rows(), 0);
        assert_eq!(art.header().num_entries, 0);
        assert_eq!(art.offsets(), &[0]);
        std::fs::remove_file(&path).ok();

        // All-empty rows still produce a valid (rows + 1)-offset file.
        let path = temp_path("all-empty-rows");
        write_flat(&path, 0, &[0, 0, 0, 0], &[], &[]);
        let art = CsrArtifact::open(&path).unwrap();
        assert_eq!(art.num_rows(), 3);
        assert_eq!(art.row_range(1), (0, 0));
        std::fs::remove_file(&path).ok();
    }

    /// Re-stamp the checksum of edited artifact bytes, so that a test
    /// reaches the checks behind it, as a crafted file would.
    fn restamp(bytes: &mut [u8]) {
        let words: Vec<u64> =
            bytes.chunks_exact(8).map(|w| u64::from_ne_bytes(w.try_into().unwrap())).collect();
        bytes[CHECKSUM_OFF..CHECKSUM_OFF + 8].copy_from_slice(&checksum(&words).to_le_bytes());
    }

    /// Overwrite the `u64` word at byte `off`.
    fn set_u64(bytes: &mut [u8], off: usize, v: u64) {
        bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Each check fails with its own message. The header checks and a
    /// truncation fail ahead of the checksum. The checksum is no defence
    /// against a crafted file, so the structural checks behind it are
    /// driven with the checksum re-stamped: section-size overflow,
    /// misalignment, each way a section can overlap another or run past
    /// the end, and corrupt offsets.
    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let good = demo_bytes(20);
        let path = temp_path("tamper");
        let check = |mutate: &dyn Fn(&mut Vec<u8>), restamped: bool, want: &str| {
            let mut bytes = good.clone();
            mutate(&mut bytes);
            if restamped {
                restamp(&mut bytes);
            }
            std::fs::write(&path, &bytes).unwrap();
            let e = CsrArtifact::open(&path).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
            assert!(e.to_string().contains(want), "{want}: {e}");
        };
        let check_rejected = |mutate: &dyn Fn(&mut Vec<u8>), want: &str| check(mutate, false, want);
        let check_restamped = |mutate: &dyn Fn(&mut Vec<u8>), want: &str| check(mutate, true, want);
        check_rejected(&|b| b[0] = b'X', "bad magic");
        check_rejected(&|b| b[16] = 99, "version 99");
        check_rejected(&|b| b[16] = 1, "version 1");
        // Kind 1 was the similarity matrix.
        check_rejected(&|b| b[20] = 1, "kind 1 is not a sim-mass index");
        check_rejected(&|b| b[24] = 9, "value kind 9");
        // Value kind 2 was the retired f32 width: a file written with it
        // fails closed on the header, even with a valid checksum.
        check_restamped(&|b| b[24] = 2, "value kind 2");
        check_rejected(&|b| b[8] = 0xFF, "byte order");
        check_rejected(&|b| b.truncate(b.len() - 8), "truncated");
        check_rejected(&|b| b.truncate(b.len() - 3), "not a multiple of 8");
        check_rejected(&|b| b.truncate(40), "too short");
        check_rejected(&|b| set_u64(b, HEADER_LEN, 9), "checksum");

        let word = |off: usize| u64::from_le_bytes(good[off..off + 8].try_into().unwrap());
        let (num_entries, vals_off, cols_off) = (word(40), word(64), word(72));
        check_restamped(&|b| set_u64(b, 32, u64::MAX), "section sizes overflow");
        check_restamped(&|b| set_u64(b, 40, u64::MAX), "section sizes overflow");
        check_restamped(&|b| set_u64(b, 56, HEADER_LEN as u64 + 4), "offsets section misaligned");
        check_restamped(&|b| set_u64(b, 64, vals_off + 4), "vals section misaligned");
        check_restamped(&|b| set_u64(b, 72, cols_off + 4), "cols section misaligned");
        // One overlap at a time: offsets into the header, offsets into
        // vals, vals into cols, cols past the end of the file.
        let overlap = "sections overlap or run past end of file";
        check_restamped(&|b| set_u64(b, 56, HEADER_LEN as u64 - 8), overlap);
        check_restamped(&|b| set_u64(b, 64, vals_off - 8), overlap);
        check_restamped(&|b| set_u64(b, 72, cols_off - 8), overlap);
        check_restamped(&|b| set_u64(b, 72, cols_off + 8), overlap);
        check_restamped(&|b| set_u64(b, HEADER_LEN, 9), "bad first/last entry");
        // The last offset sits just before the vals section.
        check_restamped(&|b| set_u64(b, vals_off as usize - 8, num_entries + 1), "bad first/last");
        check_restamped(
            &|b| {
                // Swap two interior offsets to break monotonicity.
                set_u64(b, HEADER_LEN + 16, 100);
                set_u64(b, HEADER_LEN + 24, 1);
            },
            "not monotone",
        );
        std::fs::remove_file(&path).ok();
        assert!(CsrArtifact::open(&path).is_err(), "a missing file opened");
    }

    /// The stored checksum is [`checksum`] of the file with its own word
    /// zeroed, and flipping any one bit anywhere in the file — header,
    /// offsets, values, columns, padding or the checksum itself —
    /// fails the open.
    #[test]
    fn every_flipped_bit_fails_the_open() {
        let good = demo_bytes(9);
        let art = open_bytes(&good).unwrap();
        assert_eq!(art.header().checksum, checksum(&art.words));
        for at in 0..good.len() {
            for bit in 0..8 {
                let mut bytes = good.clone();
                bytes[at] ^= 1 << bit;
                assert!(open_bytes(&bytes).is_err(), "byte {at} bit {bit} opened");
            }
        }
    }

    /// A rewrite replaces the file by rename: a reader that opened the
    /// old artifact keeps reading the old values, a fresh open reads the
    /// new ones, and no scratch file is left behind.
    #[test]
    fn rewrite_leaves_an_open_artifact_on_the_old_file() {
        let (offsets, cols, vals) = demo_csr(40);
        let path = temp_path("rewrite");
        let write = |vals: &[f64]| write_flat(&path, 0, &offsets, &cols, vals);
        write(&vals);
        let old = CsrArtifact::open(&path).unwrap();
        let new_vals: Vec<f64> = vals.iter().map(|x| x + 1.0).collect();
        write(&new_vals);
        assert_eq!(old.vals(), vals.as_slice(), "old artifact changed");
        let fresh = CsrArtifact::open(&path).unwrap();
        assert_eq!(fresh.offsets(), offsets.as_slice());
        assert_eq!(fresh.vals(), new_vals.as_slice());
        assert!(!sibling(&path, ".tmp").exists());
        assert!(!sibling(&path, ".cols.tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sections_are_eight_byte_aligned_for_odd_entry_counts() {
        // 3 entries: 24 bytes of values end 8-aligned, so the cols follow
        // them directly; 12 bytes of cols need 4 bytes of end padding.
        let offsets = vec![0u64, 1, 3];
        let cols = vec![5u32, 1, 9];
        let vals = vec![0.5f64, 0.25, 0.125];
        let path = temp_path("align-odd");
        write_flat(&path, 16, &offsets, &cols, &vals);
        let art = CsrArtifact::open(&path).unwrap();
        let header = art.header();
        assert_eq!(header.cols_off, header.vals_off + 24);
        assert_eq!(header.file_len, header.cols_off + 16);
        assert_eq!(header.file_len, std::fs::metadata(&path).unwrap().len());
        assert_eq!(art.cols(), cols.as_slice());
        assert_eq!(art.vals(), vals.as_slice());
        std::fs::remove_file(&path).ok();
    }
}
