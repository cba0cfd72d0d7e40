//! Versioned, mmap-able on-disk CSR container.
//!
//! One file format carries both release artifacts of the offline
//! pipeline — the [`SimilarityMatrix`](crate::SimilarityMatrix) and the
//! serve crate's `SimMassIndex` — so the serving tier can map either
//! straight from disk and read rows zero-copy (see [`crate::mmap`]).
//!
//! # Layout (version 1, all integers little-endian)
//!
//! ```text
//! [ header  | 96 bytes, fixed                                     ]
//! [ offsets | (num_rows + 1) × u64    — CSR exclusive prefix sums ]
//! [ vals    | num_entries × (8 | 4)   — f64 or f32 per value_kind ]
//! [ pad     | 0..7 zero bytes         — realign to 8              ]
//! [ cols    | num_entries × u32       — column ids, row-major     ]
//! [ pad     | 0..7 zero bytes         — file length is × 8        ]
//! ```
//!
//! Header fields, in order:
//!
//! | bytes  | field       | contents                                      |
//! |--------|-------------|-----------------------------------------------|
//! | 0..8   | magic       | `b"SRCSRART"`                                 |
//! | 8..16  | endian tag  | `0x0102030405060708` as a native-endian store |
//! | 16..20 | version     | `1`                                           |
//! | 20..24 | kind        | 1 = similarity, 2 = sim-mass                  |
//! | 24..28 | value kind  | 1 = f64, 2 = f32                              |
//! | 28..32 | (reserved)  | zero                                          |
//! | 32..40 | num_rows    | u64                                           |
//! | 40..48 | num_entries | u64                                           |
//! | 48..56 | meta        | kind-specific (measure name / num_clusters)   |
//! | 56..64 | offsets_off | byte offset of the offsets section            |
//! | 64..72 | vals_off    | byte offset of the vals section               |
//! | 72..80 | cols_off    | byte offset of the cols section               |
//! | 80..88 | file_len    | total file length in bytes                    |
//! | 88..96 | (reserved)  | zero                                          |
//!
//! Every section offset is a multiple of 8, so a buffer whose base is
//! 8-byte aligned (guaranteed by [`MappedBytes`]) can reinterpret each
//! section as `&[u64]` / `&[f64]` / `&[u32]` / `&[f32]` in place. The
//! endian tag makes a file written on a big-endian machine fail loudly
//! on open instead of decoding garbage. Unknown versions and kinds are
//! rejected with explicit errors so future revisions can evolve the
//! format without old readers mis-parsing new files.
//!
//! Writing comes in two shapes: [`write_csr_artifact`] for matrices
//! already materialized in RAM, and [`StreamingCsrWriter`] for the
//! bounded-memory build path — rows are appended one at a time, values
//! stream straight to their final file position (the offsets section
//! size is known from `num_rows` up front), columns stream to a scratch
//! file whose final position depends on the still-unknown entry count,
//! and `finish()` splices everything together and back-patches the
//! header. Peak writer memory is the offsets array (O(rows)) plus two
//! small I/O buffers, never O(entries).
//!
//! The writer never touches the target file until the new artifact is
//! complete: it builds the file under a sibling temp name, fsyncs it,
//! and `rename(2)`s it over the target. A reader that has the old
//! artifact mapped keeps its own inode and reads the old rows until it
//! reopens the path; rewriting in place would change, or truncate, the
//! pages under its mapping.

use crate::mmap::MappedBytes;
use std::ffi::OsString;
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic for the artifact container.
pub const ARTIFACT_MAGIC: &[u8; 8] = b"SRCSRART";
/// Current (and only) container version.
pub const ARTIFACT_VERSION: u32 = 1;
/// Byte-order probe stored in the header; reads back as written only
/// when writer and reader agree on endianness.
const ENDIAN_TAG: u64 = 0x0102_0304_0506_0708;
/// Fixed header size; also the file offset of the offsets section.
pub const HEADER_LEN: usize = 96;
/// Buffered-write granularity for the streaming writer.
const WRITE_CHUNK_BYTES: usize = 64 * 1024;

/// Which release artifact a container file holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A `SimilarityMatrix`: cols are neighbor user ids, `meta` packs
    /// the measure name (NUL-padded ASCII, little-endian byte order).
    Similarity,
    /// A `SimMassIndex`: cols are cluster ids, `meta` is `num_clusters`.
    SimMass,
}

impl ArtifactKind {
    fn to_u32(self) -> u32 {
        match self {
            ArtifactKind::Similarity => 1,
            ArtifactKind::SimMass => 2,
        }
    }

    fn from_u32(v: u32) -> Option<ArtifactKind> {
        match v {
            1 => Some(ArtifactKind::Similarity),
            2 => Some(ArtifactKind::SimMass),
            _ => None,
        }
    }
}

/// Storage width of the value section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueKind {
    /// Full-precision values: serving is bit-identical to the in-RAM
    /// build.
    F64,
    /// Compact values: each f64 is rounded to the nearest f32 at write
    /// time (IEEE round-to-nearest-even). Reading widens exactly, so
    /// serving from an f32 artifact is bit-identical to serving the
    /// in-RAM matrix with every value pre-rounded through f32 — the
    /// documented DESIGN.md §6e relaxation.
    F32,
}

impl ValueKind {
    /// Bytes per stored value.
    pub fn value_size(self) -> usize {
        match self {
            ValueKind::F64 => 8,
            ValueKind::F32 => 4,
        }
    }

    fn to_u32(self) -> u32 {
        match self {
            ValueKind::F64 => 1,
            ValueKind::F32 => 2,
        }
    }

    fn from_u32(v: u32) -> Option<ValueKind> {
        match v {
            1 => Some(ValueKind::F64),
            2 => Some(ValueKind::F32),
            _ => None,
        }
    }
}

/// Parsed container header. See the module docs for the byte layout.
#[derive(Clone, Copy, Debug)]
pub struct ArtifactHeader {
    /// Container version (currently always [`ARTIFACT_VERSION`]).
    pub version: u32,
    /// Which artifact the file holds.
    pub kind: ArtifactKind,
    /// Storage width of the value section.
    pub value_kind: ValueKind,
    /// Number of CSR rows.
    pub num_rows: u64,
    /// Number of stored entries.
    pub num_entries: u64,
    /// Kind-specific word (measure name / cluster count).
    pub meta: u64,
    /// Byte offset of the offsets section.
    pub offsets_off: u64,
    /// Byte offset of the vals section.
    pub vals_off: u64,
    /// Byte offset of the cols section.
    pub cols_off: u64,
    /// Total file length in bytes.
    pub file_len: u64,
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
    /// cols follow, each 8-byte aligned.
    fn layout(
        kind: ArtifactKind,
        value_kind: ValueKind,
        num_rows: u64,
        num_entries: u64,
        meta: u64,
    ) -> ArtifactHeader {
        let offsets_off = HEADER_LEN as u64;
        let vals_off = offsets_off + (num_rows + 1) * 8;
        let cols_off = align8(vals_off + num_entries * value_kind.value_size() as u64);
        let file_len = align8(cols_off + num_entries * 4);
        ArtifactHeader {
            version: ARTIFACT_VERSION,
            kind,
            value_kind,
            num_rows,
            num_entries,
            meta,
            offsets_off,
            vals_off,
            cols_off,
            file_len,
        }
    }

    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0..8].copy_from_slice(ARTIFACT_MAGIC);
        h[8..16].copy_from_slice(&ENDIAN_TAG.to_ne_bytes());
        h[16..20].copy_from_slice(&self.version.to_le_bytes());
        h[20..24].copy_from_slice(&self.kind.to_u32().to_le_bytes());
        h[24..28].copy_from_slice(&self.value_kind.to_u32().to_le_bytes());
        h[32..40].copy_from_slice(&self.num_rows.to_le_bytes());
        h[40..48].copy_from_slice(&self.num_entries.to_le_bytes());
        h[48..56].copy_from_slice(&self.meta.to_le_bytes());
        h[56..64].copy_from_slice(&self.offsets_off.to_le_bytes());
        h[64..72].copy_from_slice(&self.vals_off.to_le_bytes());
        h[72..80].copy_from_slice(&self.cols_off.to_le_bytes());
        h[80..88].copy_from_slice(&self.file_len.to_le_bytes());
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
        let kind = ArtifactKind::from_u32(u32_at(20))
            .ok_or_else(|| bad(format!("unknown artifact kind {}", u32_at(20))))?;
        let value_kind = ValueKind::from_u32(u32_at(24))
            .ok_or_else(|| bad(format!("unknown artifact value kind {}", u32_at(24))))?;
        Ok(ArtifactHeader {
            version,
            kind,
            value_kind,
            num_rows: u64_at(32),
            num_entries: u64_at(40),
            meta: u64_at(48),
            offsets_off: u64_at(56),
            vals_off: u64_at(64),
            cols_off: u64_at(72),
            file_len: u64_at(80),
        })
    }
}

/// Pack a measure name (≤ 8 ASCII bytes) into the header meta word.
pub fn pack_measure_name(name: &str) -> u64 {
    let mut b = [0u8; 8];
    let take = name.len().min(8);
    b[..take].copy_from_slice(&name.as_bytes()[..take]);
    u64::from_le_bytes(b)
}

/// Recover a measure name packed by [`pack_measure_name`].
pub fn unpack_measure_name(meta: u64) -> String {
    let b = meta.to_le_bytes();
    let end = b.iter().position(|&c| c == 0).unwrap_or(8);
    String::from_utf8_lossy(&b[..end]).into_owned()
}

/// Reinterpret an 8-byte-aligned byte slice as a slice of `T`.
///
/// Callers guarantee `T` is a plain-old-data type with no invalid bit
/// patterns (`u64`, `u32`, `f64`, `f32` here), that `bytes.len()` is a
/// multiple of `size_of::<T>()`, and that the base pointer satisfies
/// `T`'s alignment — all enforced by the section validation in
/// [`CsrArtifact::from_bytes`] plus [`MappedBytes`]'s alignment
/// guarantee, and re-checked by the debug asserts.
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

/// A validated, read-only view of an artifact file. Rows are served
/// zero-copy out of the backing buffer (mapped or owned; see
/// [`MappedBytes`]).
pub struct CsrArtifact {
    bytes: MappedBytes,
    header: ArtifactHeader,
}

impl CsrArtifact {
    /// Open and validate `path`, memory-mapping where supported.
    pub fn open(path: &Path) -> io::Result<CsrArtifact> {
        Self::from_bytes(MappedBytes::open(path)?)
    }

    /// Open and validate `path` through the heap-copy backing — used by
    /// tests to prove the mapped and owned paths serve identical rows.
    pub fn open_owned(path: &Path) -> io::Result<CsrArtifact> {
        Self::from_bytes(MappedBytes::open_owned(path)?)
    }

    /// Validate a raw buffer as an artifact.
    pub fn from_bytes(bytes: MappedBytes) -> io::Result<CsrArtifact> {
        let header = ArtifactHeader::parse(bytes.bytes())?;
        let len = bytes.len() as u64;
        if header.file_len != len {
            return Err(bad(format!(
                "artifact truncated or padded: header says {} bytes, file has {len}",
                header.file_len
            )));
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
            section_end(
                header.vals_off,
                Some(header.num_entries),
                header.value_kind.value_size() as u64,
            ),
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
        let art = CsrArtifact { bytes, header };
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

    /// Number of stored entries.
    pub fn num_entries(&self) -> usize {
        self.header.num_entries as usize
    }

    /// Whether the backing buffer is a live file mapping.
    pub fn is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }

    fn section(&self, off: u64, len_bytes: u64) -> &[u8] {
        &self.bytes.bytes()[off as usize..(off + len_bytes) as usize]
    }

    /// The CSR offsets section: `num_rows + 1` exclusive prefix sums.
    pub fn offsets(&self) -> &[u64] {
        cast_section(self.section(self.header.offsets_off, (self.header.num_rows + 1) * 8))
    }

    /// The column-id section, row-major.
    pub fn cols(&self) -> &[u32] {
        cast_section(self.section(self.header.cols_off, self.header.num_entries * 4))
    }

    /// The value section as f64, when stored at full precision.
    pub fn vals_f64(&self) -> Option<&[f64]> {
        match self.header.value_kind {
            ValueKind::F64 => {
                Some(cast_section(self.section(self.header.vals_off, self.header.num_entries * 8)))
            }
            ValueKind::F32 => None,
        }
    }

    /// The value section as f32, when stored compactly.
    pub fn vals_f32(&self) -> Option<&[f32]> {
        match self.header.value_kind {
            ValueKind::F64 => None,
            ValueKind::F32 => {
                Some(cast_section(self.section(self.header.vals_off, self.header.num_entries * 4)))
            }
        }
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
            .field("kind", &self.header.kind)
            .field("value_kind", &self.header.value_kind)
            .field("num_rows", &self.header.num_rows)
            .field("num_entries", &self.header.num_entries)
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// Write a fully materialized CSR matrix as an artifact file in one
/// pass. `vals` are quantized to f32 when `value_kind` is
/// [`ValueKind::F32`] (see that variant's contract).
pub fn write_csr_artifact(
    path: &Path,
    kind: ArtifactKind,
    value_kind: ValueKind,
    meta: u64,
    offsets: &[u64],
    cols: &[u32],
    vals: &[f64],
) -> io::Result<()> {
    assert!(!offsets.is_empty(), "offsets must hold num_rows + 1 entries");
    assert_eq!(cols.len(), vals.len(), "cols and vals must be parallel");
    assert_eq!(*offsets.last().expect("non-empty") as usize, vals.len(), "offsets/vals mismatch");
    let num_rows = offsets.len() - 1;
    let mut w = StreamingCsrWriter::create(path, kind, value_kind, meta, num_rows)?;
    for r in 0..num_rows {
        let (a, b) = (offsets[r] as usize, offsets[r + 1] as usize);
        w.push_row(&cols[a..b], &vals[a..b])?;
    }
    w.finish()
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
    kind: ArtifactKind,
    value_kind: ValueKind,
    meta: u64,
    num_rows: usize,
    offsets: Vec<u64>,
    entries: u64,
    vals_buf: Vec<u8>,
    cols_buf: Vec<u8>,
}

impl StreamingCsrWriter {
    /// Start writing an artifact for a matrix with `num_rows` rows.
    pub fn create(
        path: &Path,
        kind: ArtifactKind,
        value_kind: ValueKind,
        meta: u64,
        num_rows: usize,
    ) -> io::Result<StreamingCsrWriter> {
        let file_tmp_path = sibling(path, ".tmp");
        let mut file = File::create(&file_tmp_path)?;
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
            kind,
            value_kind,
            meta,
            num_rows,
            offsets,
            entries: 0,
            vals_buf: Vec::with_capacity(WRITE_CHUNK_BYTES),
            cols_buf: Vec::with_capacity(WRITE_CHUNK_BYTES),
        })
    }

    /// Append the next row. `vals` are quantized per the writer's
    /// [`ValueKind`].
    pub fn push_row(&mut self, cols: &[u32], vals: &[f64]) -> io::Result<()> {
        assert_eq!(cols.len(), vals.len(), "cols and vals must be parallel");
        assert!(self.offsets.len() <= self.num_rows, "more rows pushed than declared");
        match self.value_kind {
            ValueKind::F64 => {
                for &x in vals {
                    self.vals_buf.extend_from_slice(&x.to_le_bytes());
                }
            }
            ValueKind::F32 => {
                for &x in vals {
                    self.vals_buf.extend_from_slice(&(x as f32).to_le_bytes());
                }
            }
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
    /// fsync, and rename the finished file over the target (then fsync
    /// its directory); the column scratch file is removed.
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

        let header = ArtifactHeader::layout(
            self.kind,
            self.value_kind,
            self.num_rows as u64,
            self.entries,
            self.meta,
        );
        // Pad the vals section out to the cols offset, then append the
        // cols scratch file and the final alignment pad.
        let vals_end = header.vals_off + self.entries * self.value_kind.value_size() as u64;
        self.file.write_all(&vec![0u8; (header.cols_off - vals_end) as usize])?;
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

        // Back-patch the header and the offsets section.
        self.file.seek(SeekFrom::Start(0))?;
        let mut front = BufWriter::with_capacity(WRITE_CHUNK_BYTES, &mut self.file);
        front.write_all(&header.encode())?;
        for &o in &self.offsets {
            front.write_all(&o.to_le_bytes())?;
        }
        front.flush()?;
        drop(front);
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

    #[test]
    fn one_shot_roundtrip_f64_bit_identical() {
        let (offsets, cols, vals) = demo_csr(57);
        let path = temp_path("roundtrip-f64");
        write_csr_artifact(
            &path,
            ArtifactKind::Similarity,
            ValueKind::F64,
            pack_measure_name("CN"),
            &offsets,
            &cols,
            &vals,
        )
        .unwrap();
        for art in [CsrArtifact::open(&path).unwrap(), CsrArtifact::open_owned(&path).unwrap()] {
            assert_eq!(art.header().kind, ArtifactKind::Similarity);
            assert_eq!(unpack_measure_name(art.header().meta), "CN");
            assert_eq!(art.offsets(), offsets.as_slice());
            assert_eq!(art.cols(), cols.as_slice());
            let got = art.vals_f64().unwrap();
            assert!(art.vals_f32().is_none());
            assert_eq!(got.len(), vals.len());
            for (a, b) in got.iter().zip(&vals) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn f32_artifact_quantizes_round_to_nearest() {
        let (offsets, cols, vals) = demo_csr(40);
        let path = temp_path("roundtrip-f32");
        write_csr_artifact(
            &path,
            ArtifactKind::SimMass,
            ValueKind::F32,
            64, // num_clusters
            &offsets,
            &cols,
            &vals,
        )
        .unwrap();
        let art = CsrArtifact::open(&path).unwrap();
        assert_eq!(art.header().meta, 64);
        let got = art.vals_f32().unwrap();
        assert!(art.vals_f64().is_none());
        for (a, b) in got.iter().zip(&vals) {
            assert_eq!(a.to_bits(), (*b as f32).to_bits(), "quantization must be x as f32");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streaming_writer_matches_one_shot_byte_for_byte() {
        let (offsets, cols, vals) = demo_csr(63);
        let p1 = temp_path("stream-a");
        let p2 = temp_path("stream-b");
        write_csr_artifact(&p1, ArtifactKind::SimMass, ValueKind::F32, 7, &offsets, &cols, &vals)
            .unwrap();
        // Hand-driven streaming with uneven row batches.
        let mut w =
            StreamingCsrWriter::create(&p2, ArtifactKind::SimMass, ValueKind::F32, 7, 63).unwrap();
        for r in 0..63 {
            let (a, b) = (offsets[r] as usize, offsets[r + 1] as usize);
            w.push_row(&cols[a..b], &vals[a..b]).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn empty_matrix_and_empty_rows() {
        let path = temp_path("empty");
        write_csr_artifact(&path, ArtifactKind::Similarity, ValueKind::F64, 0, &[0], &[], &[])
            .unwrap();
        let art = CsrArtifact::open(&path).unwrap();
        assert_eq!(art.num_rows(), 0);
        assert_eq!(art.num_entries(), 0);
        assert_eq!(art.offsets(), &[0]);
        std::fs::remove_file(&path).ok();

        // All-empty rows still produce a valid (rows + 1)-offset file.
        let path = temp_path("all-empty-rows");
        write_csr_artifact(
            &path,
            ArtifactKind::Similarity,
            ValueKind::F64,
            0,
            &[0, 0, 0, 0],
            &[],
            &[],
        )
        .unwrap();
        let art = CsrArtifact::open(&path).unwrap();
        assert_eq!(art.num_rows(), 3);
        assert_eq!(art.row_range(1), (0, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let (offsets, cols, vals) = demo_csr(20);
        let path = temp_path("tamper");
        write_csr_artifact(
            &path,
            ArtifactKind::Similarity,
            ValueKind::F64,
            0,
            &offsets,
            &cols,
            &vals,
        )
        .unwrap();
        let good = std::fs::read(&path).unwrap();

        let check_rejected = |mutate: &dyn Fn(&mut Vec<u8>), what: &str| {
            let mut bytes = good.clone();
            mutate(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            assert!(CsrArtifact::open(&path).is_err(), "must reject: {what}");
        };
        check_rejected(&|b| b[0] = b'X', "bad magic");
        check_rejected(&|b| b[16] = 99, "future version");
        check_rejected(&|b| b[20] = 77, "unknown kind");
        check_rejected(&|b| b[24] = 9, "unknown value kind");
        check_rejected(&|b| b[8] = 0xFF, "wrong endianness");
        check_rejected(
            &|b| {
                let l = b.len();
                b.truncate(l - 8);
            },
            "truncated file",
        );
        check_rejected(
            &|b| b[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(&9u64.to_le_bytes()),
            "offsets[0] != 0",
        );
        check_rejected(
            &|b| {
                // Swap two interior offsets to break monotonicity.
                b[HEADER_LEN + 16..HEADER_LEN + 24].copy_from_slice(&100u64.to_le_bytes());
                b[HEADER_LEN + 24..HEADER_LEN + 32].copy_from_slice(&1u64.to_le_bytes());
            },
            "non-monotone offsets",
        );

        std::fs::remove_file(&path).ok();
    }

    /// A rewrite replaces the file by rename: a reader holding the old
    /// mapping keeps reading the old values, a fresh open reads the new
    /// ones, and no scratch file is left behind.
    #[test]
    fn rewrite_leaves_live_mapping_on_the_old_file() {
        let (offsets, cols, vals) = demo_csr(40);
        let path = temp_path("rewrite");
        let write = |vals: &[f64]| {
            write_csr_artifact(
                &path,
                ArtifactKind::Similarity,
                ValueKind::F64,
                0,
                &offsets,
                &cols,
                vals,
            )
            .unwrap()
        };
        write(&vals);
        let old = CsrArtifact::open(&path).unwrap();
        let new_vals: Vec<f64> = vals.iter().map(|x| x + 1.0).collect();
        write(&new_vals);
        assert_eq!(old.vals_f64().unwrap(), vals.as_slice(), "old mapping changed");
        let fresh = CsrArtifact::open(&path).unwrap();
        assert_eq!(fresh.offsets(), offsets.as_slice());
        assert_eq!(fresh.vals_f64().unwrap(), new_vals.as_slice());
        assert!(!sibling(&path, ".tmp").exists());
        assert!(!sibling(&path, ".cols.tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn measure_name_packing() {
        for name in ["CN", "GD", "AA", "KZ", "??", ""] {
            assert_eq!(unpack_measure_name(pack_measure_name(name)), name);
        }
        // Over-long names truncate to 8 bytes rather than failing.
        assert_eq!(unpack_measure_name(pack_measure_name("ABCDEFGHIJ")), "ABCDEFGH");
    }

    #[test]
    fn sections_are_eight_byte_aligned_for_odd_entry_counts() {
        // 3 entries of f32 = 12 bytes: cols must be pushed to the next
        // 8-byte boundary.
        let offsets = vec![0u64, 1, 3];
        let cols = vec![5u32, 1, 9];
        let vals = vec![0.5f64, 0.25, 0.125];
        let path = temp_path("align-odd");
        write_csr_artifact(
            &path,
            ArtifactKind::SimMass,
            ValueKind::F32,
            16,
            &offsets,
            &cols,
            &vals,
        )
        .unwrap();
        let art = CsrArtifact::open(&path).unwrap();
        assert_eq!(art.header().cols_off % 8, 0);
        assert_eq!(art.header().file_len % 8, 0);
        assert_eq!(art.cols(), cols.as_slice());
        assert_eq!(art.vals_f32().unwrap(), &[0.5f32, 0.25, 0.125]);
        std::fs::remove_file(&path).ok();
    }
}
