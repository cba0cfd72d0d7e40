//! Streaming similarity build: graph → artifact file in bounded memory.
//!
//! [`SimilarityMatrix::build`] stages the whole CSR matrix in RAM —
//! fine up to a few hundred thousand users, but the million-user data
//! path needs the build to spill completed rows to disk as it goes.
//! [`write_similarity_artifact_streaming`] computes rows in macro-chunks:
//! each chunk is filled in parallel (per-worker dense scratch from
//! [`crate::scratch`], pooled and reused across chunks), then its rows
//! are appended in ascending order to a [`StreamingCsrWriter`]. Peak
//! memory is one chunk of rows plus per-worker scratch plus the O(rows)
//! offsets array inside the writer — never O(total entries).
//!
//! Row content is identical to the in-RAM build: both call
//! `similarity_set` once per user and the writer preserves row order,
//! so the emitted artifact is byte-for-byte the file
//! [`SimilarityMatrix::write_artifact`] would produce from the
//! materialized matrix (the equivalence tests below pin this across
//! chunk sizes).
//!
//! [`SimilarityMatrix`]: crate::SimilarityMatrix
//! [`SimilarityMatrix::build`]: crate::SimilarityMatrix::build
//! [`SimilarityMatrix::write_artifact`]: crate::SimilarityMatrix::write_artifact

use crate::artifact::{pack_measure_name, ArtifactKind, StreamingCsrWriter, ValueKind};
use crate::scratch::SimScratch;
use crate::Similarity;
use rayon::prelude::*;
use socialrec_graph::{SocialGraph, UserId};
use std::io;
use std::path::Path;
use std::sync::Mutex;

/// Default rows per macro-chunk: large enough to amortize the parallel
/// fan-out and keep sequential disk writes long, small enough that a
/// chunk of dense-ish rows stays tens of megabytes.
pub const DEFAULT_STREAM_CHUNK_ROWS: usize = 8192;

/// What a streaming build produced, for logging and bench reports.
#[derive(Clone, Copy, Debug)]
pub struct StreamBuildStats {
    /// Rows written (== graph users).
    pub num_rows: usize,
    /// Total similarity entries written.
    pub num_entries: u64,
    /// Macro-chunks processed.
    pub chunks: usize,
}

/// Build every user's similarity set and stream it into an artifact at
/// `path`, holding at most one macro-chunk of rows in memory. See the
/// module docs; `chunk_rows = 0` selects [`DEFAULT_STREAM_CHUNK_ROWS`].
pub fn write_similarity_artifact_streaming<S: Similarity + ?Sized>(
    g: &SocialGraph,
    measure: &S,
    path: &Path,
    value_kind: ValueKind,
    chunk_rows: usize,
) -> io::Result<StreamBuildStats> {
    let n = g.num_users();
    let chunk_rows = if chunk_rows == 0 { DEFAULT_STREAM_CHUNK_ROWS } else { chunk_rows };
    let _span = socialrec_obs::span!("sim.stream_build", users = n);
    let mut writer = StreamingCsrWriter::create(
        path,
        ArtifactKind::Similarity,
        value_kind,
        pack_measure_name(measure.name()),
        n,
    )?;

    // Scratch is O(users) per worker; pool it so each worker allocates
    // once for the whole build, not once per chunk.
    type Workspace = (SimScratch, Vec<(UserId, f64)>);
    let pool: Mutex<Vec<Workspace>> = Mutex::new(Vec::new());

    let mut entries = 0u64;
    let num_chunks = n.div_ceil(chunk_rows.max(1)).max(if n == 0 { 0 } else { 1 });
    for c in 0..num_chunks {
        let lo = c * chunk_rows;
        let hi = ((c + 1) * chunk_rows).min(n);
        let _span = socialrec_obs::span!("sim.stream_chunk", rows = hi - lo);

        // Sub-split the chunk so the dynamic scheduler can balance
        // skewed rows across workers.
        let workers = rayon::current_num_threads().max(1);
        let sub = (hi - lo).div_ceil(workers * 4).max(16);
        let ranges: Vec<(usize, usize)> =
            (lo..hi).step_by(sub).map(|a| (a, (a + sub).min(hi))).collect();

        // Fill sub-ranges in parallel into split column/value buffers,
        // rows ascending within each.
        let pieces: Vec<(Vec<u64>, Vec<u32>, Vec<f64>)> = ranges
            .par_iter()
            .map(|&(a, b)| {
                let (mut scratch, mut row) = pool
                    .lock()
                    .expect("scratch pool")
                    .pop()
                    .unwrap_or_else(|| (SimScratch::new(n), Vec::new()));
                let mut lens = Vec::with_capacity(b - a);
                let mut cols = Vec::new();
                let mut vals = Vec::new();
                for u in a..b {
                    measure.similarity_set(g, UserId(u as u32), &mut scratch, &mut row);
                    cols.extend(row.iter().map(|&(v, _)| v.0));
                    vals.extend(row.iter().map(|&(_, s)| s));
                    lens.push(row.len() as u64);
                }
                pool.lock().expect("scratch pool").push((scratch, row));
                (lens, cols, vals)
            })
            .collect();

        // Sub-ranges were generated in ascending row order, so pushing
        // them in sequence preserves the global row order.
        for (lens, cols, vals) in &pieces {
            let mut at = 0usize;
            for &len in lens {
                let len = len as usize;
                writer.push_row(&cols[at..at + len], &vals[at..at + len])?;
                at += len;
                entries += len as u64;
            }
        }
    }
    writer.finish()?;
    Ok(StreamBuildStats { num_rows: n, num_entries: entries, chunks: num_chunks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Measure, SimilarityMatrix};
    use socialrec_graph::generate::{planted_communities, CommunityGraphConfig};

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("socialrec-stream-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.srart", std::process::id()))
    }

    #[test]
    fn streaming_build_matches_materialized_write_byte_for_byte() {
        let g = planted_communities(&CommunityGraphConfig {
            num_users: 233, // prime: no chunk size divides evenly
            num_communities: 4,
            seed: 31,
            ..Default::default()
        })
        .graph;
        let measure = Measure::CommonNeighbors;
        let reference = temp_path("ref");
        SimilarityMatrix::build(&g, &measure).write_artifact(&reference, ValueKind::F64).unwrap();
        let want = std::fs::read(&reference).unwrap();
        for chunk_rows in [1, 7, 64, 233, 1000, 0] {
            let p = temp_path(&format!("stream-{chunk_rows}"));
            let stats =
                write_similarity_artifact_streaming(&g, &measure, &p, ValueKind::F64, chunk_rows)
                    .unwrap();
            assert_eq!(stats.num_rows, 233);
            assert_eq!(
                std::fs::read(&p).unwrap(),
                want,
                "streaming chunk_rows={chunk_rows} diverged from materialized write"
            );
            std::fs::remove_file(&p).ok();
        }
        std::fs::remove_file(&reference).ok();
    }

    #[test]
    fn streaming_f32_matches_materialized_f32() {
        let g = planted_communities(&CommunityGraphConfig {
            num_users: 90,
            seed: 7,
            ..Default::default()
        })
        .graph;
        let measure = Measure::AdamicAdar;
        let reference = temp_path("ref-f32");
        SimilarityMatrix::build(&g, &measure).write_artifact(&reference, ValueKind::F32).unwrap();
        let p = temp_path("stream-f32");
        write_similarity_artifact_streaming(&g, &measure, &p, ValueKind::F32, 13).unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), std::fs::read(&reference).unwrap());
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(&reference).ok();
    }

    #[test]
    fn empty_graph_streams_a_valid_artifact() {
        let g = socialrec_graph::social::social_graph_from_edges(0, &[]).unwrap();
        let p = temp_path("empty");
        let stats = write_similarity_artifact_streaming(
            &g,
            &Measure::CommonNeighbors,
            &p,
            ValueKind::F64,
            0,
        )
        .unwrap();
        assert_eq!(stats.num_rows, 0);
        assert_eq!(stats.num_entries, 0);
        let art = crate::artifact::CsrArtifact::open(&p).unwrap();
        assert_eq!(art.num_rows(), 0);
        std::fs::remove_file(&p).ok();
    }
}
