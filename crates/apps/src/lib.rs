//! # taureau-apps
//!
//! The application workloads *Le Taureau* surveys, built on the
//! workspace's serverless stack (FaaS + Jiffy + Pulsar + orchestration):
//!
//! | Module | Paper section | What it reproduces |
//! |--------|---------------|--------------------|
//! | [`etl`] | §3.1 Data Processing | extract→transform→load over FaaS with Jiffy state |
//! | [`web`] | §3.1 Web Applications | static content + event-driven dynamic handlers |
//! | [`iot`] | §3.1 Internet of Things | device-registration functions over a serverless registry |
//! | [`graph`] | §5.1 Graph Processing (Toader et al.) | Pregel over FaaS workers with a memory engine (Jiffy) |
//! | [`matmul`] | §5.1 Matrix Multiplication (Werner et al.) | distributed Strassen & blocked matmul with ephemeral intermediates |
//! | [`ml`] | §5.2 Machine Learning | parameter-server training, hyperparameter search, coded straggler mitigation (Gupta et al.) |
//! | [`montecarlo`] | §5 "massively parallel" | fan-out π estimation and option pricing |
//! | [`seqcompare`] | §5.1 Sequence Comparison (Niu et al.) | all-pairs Smith–Waterman fan-out |
//! | [`streaming`] | §5.1 real-time analytics | event-time windowed operators as Pulsar functions |
//! | [`video`] | §5.1 Video (ExCamera/Sprocket) | chunked encoding pipeline with inter-chunk state |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod etl;
pub mod graph;
pub mod iot;
pub mod matmul;
pub mod ml;
pub mod montecarlo;
pub mod seqcompare;
pub mod streaming;
pub mod video;
pub mod web;

use bytes::BufMut;
use taureau_core::wire::Reader;

/// A running `(count, sum)` aggregate as a KV value, `count u64 | sum
/// f64` little-endian: ETL's per-category totals and IoT's device stats.
fn put_count_sum(count: u64, sum: f64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.put_u64_le(count);
    out.put_u64_le(sum.to_bits());
    out
}

/// Parse of [`put_count_sum`].
fn read_count_sum(bytes: &[u8]) -> Option<(u64, f64)> {
    Reader::read_all(bytes, |r| Some((r.u64()?, f64::from_bits(r.u64()?))))
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;
    use crate::matmul::Matrix;
    use crate::video::{decode_chunk, encode_chunk};

    proptest! {
        /// Arbitrary and damaged bytes never panic the apps' decoders, and
        /// what one accepts round-trips: the fixed-width codecs re-encode
        /// it to the same bytes, and a video chunk (whose run-length code
        /// has many spellings) re-encodes to bytes that decode to the same
        /// frames.
        #[test]
        fn hostile_app_bytes_decode_to_nothing_or_round_trip(
            raw in vec(any::<u8>(), 0..96),
            shape in (0u32..4, 0u32..4),
            frames in vec(vec(any::<u8>(), 4), 0..4),
            cut in any::<usize>(),
            flip_at in any::<usize>(),
            flip_mask in 1u8..=255,
        ) {
            let mut matrix = shape.0.to_le_bytes().to_vec();
            matrix.extend(shape.1.to_le_bytes());
            matrix.extend(&raw);
            // Cut where the header says the cells end, and where `cut` says.
            let cells = 8 + 8 * (shape.0 * shape.1) as usize;
            let whole = &matrix[..cells.min(matrix.len())];
            let cut_matrix = &matrix[..cut % (matrix.len() + 1)];
            let pair = &raw[..16.min(raw.len())];
            for bytes in [&raw[..], &matrix[..], whole, cut_matrix, pair] {
                if let Some(m) = Matrix::from_bytes(bytes) {
                    prop_assert_eq!(m.to_bytes(), bytes);
                }
                if let Some((count, sum)) = read_count_sum(bytes) {
                    prop_assert_eq!(put_count_sum(count, sum), bytes);
                }
            }

            let reference = vec![1, 2, 3, 4];
            let chunk = encode_chunk(&frames, &reference);
            prop_assert_eq!(decode_chunk(&chunk, &reference), Some(frames));
            let mut flipped = chunk.clone();
            if !flipped.is_empty() {
                flipped[flip_at % chunk.len()] ^= flip_mask;
            }
            for bytes in [&raw[..], &chunk[..cut % (chunk.len() + 1)], &flipped[..]] {
                if let Some(decoded) = decode_chunk(bytes, &reference) {
                    let again = encode_chunk(&decoded, &reference);
                    prop_assert_eq!(decode_chunk(&again, &reference), Some(decoded));
                }
            }
        }
    }
}
