//! Rows of `f64` that each start on a 64-byte cache line.
//!
//! The serving fold (`socialrec_serve::kernel`) streams release rows
//! into destination rows with 32-byte vector loads and stores. A load
//! that starts off a 32-byte boundary can straddle two cache lines, and
//! where a buffer starts is up to the allocator: glibc hands out 16-byte
//! aligned blocks. [`AlignedRows`] takes that choice away from it. It
//! over-allocates by seven slots, starts row 0 at the first 64-byte
//! boundary inside the allocation, and pads every row's stride to a
//! multiple of eight slots, so every row starts on a line whatever the
//! allocator returned and whatever the row width.
//!
//! The alignment costs no `unsafe`: the offset of the first boundary
//! comes from [`pointer::align_offset`](primitive@pointer). Where the
//! platform cannot give one the offset falls back to 0, which costs
//! speed and never correctness: every accessor goes through the same
//! offset and stride.

use rayon::prelude::*;

/// Bytes per cache line: the boundary every row starts on.
const LINE: usize = 64;

/// `f64` slots per cache line. Row strides are rounded up to a multiple
/// of it.
const LANES: usize = LINE / std::mem::size_of::<f64>();

/// A `rows × width` row-major matrix of `f64` whose every row starts on
/// a 64-byte boundary. The `stride − width` padding slots after each row
/// hold 0.0 unless written through [`as_mut_slice`](Self::as_mut_slice).
#[derive(Debug, Default)]
pub struct AlignedRows {
    /// The allocation: `offset` leading slots, then `rows × stride`.
    buf: Vec<f64>,
    /// Index of row 0 in `buf`: the allocation's first 64-byte boundary.
    offset: usize,
    rows: usize,
    width: usize,
    stride: usize,
}

/// `width` rounded up to a multiple of [`LANES`].
fn stride_for(width: usize) -> usize {
    width.div_ceil(LANES) * LANES
}

/// Index of the first 64-byte boundary in `buf`'s allocation, or 0
/// where the platform cannot give one.
fn first_line(buf: &[f64]) -> usize {
    match buf.as_ptr().align_offset(LINE) {
        skip if skip < LANES => skip,
        _ => 0,
    }
}

impl AlignedRows {
    /// `rows` rows of `width` zeros. The allocation comes zeroed from
    /// the allocator, which writes no zeros into fresh pages.
    pub fn zeroed(rows: usize, width: usize) -> AlignedRows {
        let stride = stride_for(width);
        let len = rows * stride;
        if len == 0 {
            return AlignedRows { buf: Vec::new(), offset: 0, rows, width, stride };
        }
        let mut buf = vec![0.0; len + LANES - 1];
        let offset = first_line(&buf);
        buf.truncate(offset + len);
        AlignedRows { buf, offset, rows, width, stride }
    }

    /// Reshape to `rows × width` for a caller that writes every row in
    /// full before it reads one. The allocation is reused when it is
    /// large enough (row 0 stays on the same boundary) and replaced by a
    /// zeroed one when it is not. Row values are left as the buffer held
    /// them, and only the padding is zeroed, so a reused destination
    /// costs no pass over its rows.
    pub fn reshape(&mut self, rows: usize, width: usize) {
        let stride = stride_for(width);
        if self.buf.capacity() < self.offset + rows * stride {
            *self = AlignedRows::zeroed(rows, width);
            return;
        }
        self.buf.resize(self.offset + rows * stride, 0.0);
        (self.rows, self.width, self.stride) = (rows, width, stride);
        if stride > width {
            for row in self.as_mut_slice().chunks_exact_mut(stride) {
                row[width..].fill(0.0);
            }
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Slots per row that hold values.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Slots from one row's start to the next: [`width`](Self::width)
    /// rounded up to a multiple of eight.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Row `r`, [`width`](Self::width) slots long.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.as_slice()[r * self.stride..][..self.width]
    }

    /// Row `r`, mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let (stride, width) = (self.stride, self.width);
        &mut self.as_mut_slice()[r * stride..][..width]
    }

    /// `f(r, row r)` for every row, rows in parallel (none when the
    /// width is 0).
    pub fn par_for_each_row(&mut self, f: impl Fn(usize, &mut [f64]) + Sync) {
        let (stride, width) = (self.stride.max(1), self.width);
        self.as_mut_slice()
            .par_chunks_mut(stride)
            .enumerate()
            .for_each(|(r, row)| f(r, &mut row[..width]));
    }

    /// The whole padded matrix, row 0 first: `rows × stride` slots.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.buf[self.offset..]
    }

    /// The whole padded matrix, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.buf[self.offset..]
    }
}

/// A clone is a new allocation, so it finds its own boundary, then
/// copies the padded matrix once (no zero-fill first).
impl Clone for AlignedRows {
    fn clone(&self) -> AlignedRows {
        let values = self.as_slice();
        let mut buf = Vec::with_capacity(values.len() + LANES - 1);
        let offset = first_line(&buf);
        buf.resize(offset, 0.0);
        buf.extend_from_slice(values);
        AlignedRows { buf, offset, ..*self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn starts_on_a_line(row: &[f64]) -> bool {
        (row.as_ptr() as usize).is_multiple_of(LINE)
    }

    #[test]
    fn rows_start_on_lines_and_padding_is_zero() {
        for width in 0..=2 * LANES + 1 {
            for rows in 0..4 {
                let mut m = AlignedRows::zeroed(rows, width);
                assert_eq!(m.stride() % LANES, 0);
                assert!(m.stride() >= width && m.stride() < width + LANES);
                assert_eq!(m.as_slice().len(), rows * m.stride());
                m.par_for_each_row(|r, row| row.fill(r as f64 + 1.0));
                let copy = m.clone();
                for side in [&m, &copy] {
                    for r in 0..rows {
                        let row = side.row(r);
                        assert_eq!(row.len(), width);
                        assert!(width == 0 || starts_on_a_line(row), "w={width} r={r}");
                        assert!(row.iter().all(|&x| x == r as f64 + 1.0));
                        let pad = &side.as_slice()[r * side.stride()..][width..side.stride()];
                        assert!(pad.iter().all(|&x| x == 0.0));
                    }
                }
            }
        }
    }

    #[test]
    fn reshape_reuses_a_large_enough_allocation_and_zeroes_the_padding() {
        let mut m = AlignedRows::zeroed(4, 40);
        m.as_mut_slice().fill(2.5);
        let base = m.as_slice().as_ptr();
        m.reshape(3, 37);
        assert_eq!(m.as_slice().as_ptr(), base, "a smaller shape keeps the allocation");
        assert_eq!((m.rows(), m.width(), m.stride()), (3, 37, 40));
        for r in 0..3 {
            assert!(m.row(r).iter().all(|&x| x == 2.5), "row values are kept");
            assert!(m.as_slice()[r * 40..][37..40].iter().all(|&x| x == 0.0));
        }
        m.reshape(9, 100);
        assert!(starts_on_a_line(m.row(8)));
        assert_eq!(m.as_slice().len(), 9 * 104);
        assert!(m.as_slice().iter().all(|&x| x == 0.0), "a new allocation comes zeroed");
        let mut empty = AlignedRows::default();
        empty.reshape(1, 3);
        assert!(starts_on_a_line(empty.row(0)));
    }
}
