//! Serverless video processing (§5.1, Video).
//!
//! ExCamera's insight: split a video into chunks, encode chunks in
//! parallel on thousands of tiny serverless workers, and hand the small
//! amount of *inter-chunk state* (the reference frame at each boundary)
//! through fast ephemeral storage. This module reproduces the pattern at
//! laptop scale:
//!
//! - a synthetic "video" with temporal redundancy (so delta-encoding has
//!   something to exploit);
//! - a real codec: per-frame delta vs. the previous frame + run-length
//!   encoding (lossless);
//! - [`encode_serverless`]: one FaaS invocation per chunk, reading its
//!   frames and *the previous chunk's last frame* from Jiffy, writing the
//!   encoded chunk back — then a driver concatenates and verifies.
//!
//! The speedup claim is about the critical path: serial encode time is the
//! sum of chunk times; parallel is the max (plus assembly), which the
//! outcome reports.

use std::sync::Arc;
use std::time::Duration;

use taureau_faas::{FaasPlatform, FunctionSpec};
use taureau_jiffy::Jiffy;
use taureau_orchestration::frame::{pack, unpack};

/// A frame of `width × height` single-channel pixels.
pub(crate) type Frame = Vec<u8>;

/// Generate `frames` frames with strong temporal redundancy: a noisy
/// background that mostly persists, with a moving block.
pub fn synthetic_video(frames: usize, width: usize, height: usize, seed: u64) -> Vec<Frame> {
    use rand::Rng;
    let mut rng = taureau_core::rng::det_rng(seed);
    let mut base: Frame = (0..width * height)
        .map(|_| rng.gen_range(0..32u8))
        .collect();
    let mut out = Vec::with_capacity(frames);
    for f in 0..frames {
        // A few background pixels flicker…
        for _ in 0..(width * height / 100).max(1) {
            let i = rng.gen_range(0..base.len());
            base[i] = rng.gen_range(0..32);
        }
        let mut frame = base.clone();
        // …and a bright square moves across.
        let bx = (f * 2) % width.max(1);
        for dy in 0..(height / 4).max(1) {
            for dx in 0..(width / 4).max(1) {
                let x = (bx + dx) % width;
                let y = (height / 3 + dy) % height;
                frame[y * width + x] = 255;
            }
        }
        out.push(frame);
    }
    out
}

// --- Codec ---------------------------------------------------------------

/// RLE over bytes: `(count, value)` pairs with count ≤ 255.
fn rle_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut iter = data.iter().peekable();
    while let Some(&v) = iter.next() {
        let mut run = 1u8;
        while run < u8::MAX {
            match iter.peek() {
                Some(&&next) if next == v => {
                    iter.next();
                    run += 1;
                }
                _ => break,
            }
        }
        out.push(run);
        out.push(v);
    }
    out
}

fn rle_decode(data: &[u8]) -> Option<Vec<u8>> {
    if !data.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::new();
    for pair in data.chunks_exact(2) {
        out.extend(std::iter::repeat_n(pair[1], pair[0] as usize));
    }
    Some(out)
}

/// Encode a chunk of frames against a reference frame (the previous
/// chunk's last frame; all-zero for the first chunk). Each frame is
/// delta-encoded against its predecessor and RLE-compressed, and the
/// chunk is the fan-in frame of those runs: `[frame_count u32] ([len
/// u32][rle bytes])*`.
pub(crate) fn encode_chunk(frames: &[Frame], reference: &Frame) -> Vec<u8> {
    let mut prev = reference;
    let runs: Vec<Vec<u8>> = frames
        .iter()
        .map(|frame| {
            let delta: Vec<u8> = frame
                .iter()
                .zip(prev)
                .map(|(a, b)| a.wrapping_sub(*b))
                .collect();
            prev = frame;
            rle_encode(&delta)
        })
        .collect();
    pack(&runs)
}

/// Decode a chunk back to raw frames given the same reference frame.
pub(crate) fn decode_chunk(bytes: &[u8], reference: &Frame) -> Option<Vec<Frame>> {
    let mut prev = reference.clone();
    let mut frames = Vec::new();
    for run in unpack(bytes)? {
        let delta = rle_decode(&run)?;
        if delta.len() != prev.len() {
            return None;
        }
        let frame: Frame = delta
            .iter()
            .zip(&prev)
            .map(|(d, p)| p.wrapping_add(*d))
            .collect();
        prev = frame.clone();
        frames.push(frame);
    }
    Some(frames)
}

// --- Serverless pipeline --------------------------------------------------

/// Outcome of the serverless encode.
#[derive(Debug)]
pub struct EncodeOutcome {
    /// Encoded bytes per chunk, in order (shared with the Jiffy file
    /// blocks they were read from).
    pub(crate) chunks: Vec<bytes::Bytes>,
    /// Raw input bytes.
    pub(crate) raw_bytes: u64,
    /// Total encoded bytes.
    pub encoded_bytes: u64,
    /// Per-chunk simulated encode times.
    pub(crate) chunk_times: Vec<Duration>,
    /// FaaS invocations used.
    pub invocations: u64,
}

impl EncodeOutcome {
    /// Compression ratio (raw / encoded).
    pub fn compression_ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.encoded_bytes.max(1) as f64
    }

    /// Serial critical path: sum of chunk times (one worker).
    pub fn serial_time(&self) -> Duration {
        self.chunk_times.iter().sum()
    }

    /// Parallel critical path: slowest chunk (ExCamera's fan-out win).
    pub fn parallel_time(&self) -> Duration {
        self.chunk_times.iter().max().copied().unwrap_or_default()
    }
}

/// Encode a video on the serverless stack: frames staged in Jiffy, one
/// invocation per `chunk_size`-frame chunk, boundary reference frames
/// handed off through Jiffy (the ephemeral inter-task state).
pub fn encode_serverless(
    platform: &FaasPlatform,
    jiffy: &Jiffy,
    video: Arc<Vec<Frame>>,
    chunk_size: usize,
    compute_per_frame: Duration,
    job: &str,
) -> EncodeOutcome {
    assert!(chunk_size >= 1 && !video.is_empty());
    let n_chunks = video.len().div_ceil(chunk_size);
    let frame_len = video[0].len();

    // Stage boundary reference frames: chunk i's reference is the last
    // frame of chunk i-1 (zeros for chunk 0) — the inter-chunk state.
    for c in 0..n_chunks {
        let reference: Frame = if c == 0 {
            vec![0u8; frame_len]
        } else {
            video[c * chunk_size - 1].clone()
        };
        let f = jiffy
            .create_file(format!("/{job}/ref/{c}").as_str())
            .expect("stage reference frame");
        f.append(&reference).expect("write reference");
    }

    let fn_name = format!("video-encode-{job}");
    let vid = Arc::clone(&video);
    let jf = jiffy.clone();
    let job_owned = job.to_string();
    let _ = platform.deregister(&fn_name);
    platform
        .register(FunctionSpec::new(&fn_name, "video", move |ctx| {
            let c: usize = ctx
                .payload_str()
                .and_then(|s| s.parse().ok())
                .ok_or("bad chunk id")?;
            let lo = c * chunk_size;
            let hi = ((c + 1) * chunk_size).min(vid.len());
            let reference = jf
                .open_file(format!("/{job_owned}/ref/{c}").as_str())
                .and_then(|f| f.contents())
                .map_err(|e| e.to_string())?;
            let encoded = encode_chunk(&vid[lo..hi], &reference.to_vec());
            let out = jf
                .create_file(format!("/{job_owned}/out/{c}").as_str())
                .map_err(|e| e.to_string())?;
            out.append(&encoded).map_err(|e| e.to_string())?;
            ctx.burn(compute_per_frame * (hi - lo) as u32);
            Ok(Vec::new())
        }))
        .expect("register encoder");

    let mut chunk_times = Vec::with_capacity(n_chunks);
    let mut invocations = 0u64;
    for c in 0..n_chunks {
        let r = platform
            .invoke(&fn_name, c.to_string().into_bytes())
            .expect("chunk invocation");
        invocations += 1;
        chunk_times.push(r.exec_duration);
    }

    let chunks: Vec<bytes::Bytes> = (0..n_chunks)
        .map(|c| {
            jiffy
                .open_file(format!("/{job}/out/{c}").as_str())
                .and_then(|f| f.contents())
                .expect("read encoded chunk")
        })
        .collect();
    let encoded_bytes = chunks.iter().map(|c| c.len() as u64).sum();
    let _ = platform.deregister(&fn_name);
    let _ = jiffy.remove_namespace(format!("/{job}").as_str());
    EncodeOutcome {
        chunks,
        raw_bytes: (video.len() * frame_len) as u64,
        encoded_bytes,
        chunk_times,
        invocations,
    }
}

/// Decode the chunked output back to frames (the verification path).
pub fn decode_all(
    outcome: &EncodeOutcome,
    video_len: usize,
    chunk_size: usize,
    frame_len: usize,
    original: &[Frame],
) -> Option<Vec<Frame>> {
    let mut frames = Vec::with_capacity(video_len);
    for (c, chunk) in outcome.chunks.iter().enumerate() {
        let reference: Frame = if c == 0 {
            vec![0u8; frame_len]
        } else {
            original[c * chunk_size - 1].clone()
        };
        frames.extend(decode_chunk(chunk, &reference)?);
    }
    Some(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taureau_core::clock::VirtualClock;
    use taureau_faas::PlatformConfig;
    use taureau_jiffy::{Jiffy, JiffyConfig};

    fn setup() -> (FaasPlatform, Jiffy) {
        let clock = VirtualClock::shared();
        (
            FaasPlatform::new(PlatformConfig::deterministic(), clock.clone()),
            Jiffy::new(JiffyConfig::default(), clock),
        )
    }

    #[test]
    fn rle_roundtrip() {
        for data in [
            Vec::new(),
            vec![0u8; 1000],
            vec![1, 2, 3, 4, 5],
            vec![7u8; 300], // run longer than u8::MAX
        ] {
            assert_eq!(rle_decode(&rle_encode(&data)), Some(data));
        }
        assert_eq!(rle_decode(&[1]), None);
    }

    #[test]
    fn chunk_codec_lossless() {
        let video = synthetic_video(10, 32, 24, 1);
        let reference = vec![0u8; 32 * 24];
        let enc = encode_chunk(&video, &reference);
        let dec = decode_chunk(&enc, &reference).unwrap();
        assert_eq!(dec, video);
    }

    #[test]
    fn redundant_video_compresses() {
        let video = synthetic_video(30, 64, 48, 2);
        let reference = vec![0u8; 64 * 48];
        let enc = encode_chunk(&video, &reference);
        let raw = 30 * 64 * 48;
        assert!(
            enc.len() < raw / 2,
            "encoded {} of raw {raw} — no compression win",
            enc.len()
        );
    }

    #[test]
    fn serverless_encode_is_lossless_end_to_end() {
        let (platform, jiffy) = setup();
        let video = Arc::new(synthetic_video(24, 32, 24, 3));
        let out = encode_serverless(
            &platform,
            &jiffy,
            Arc::clone(&video),
            6,
            Duration::from_millis(10),
            "vtest",
        );
        assert_eq!(out.invocations, 4);
        let decoded = decode_all(&out, video.len(), 6, 32 * 24, &video).unwrap();
        assert_eq!(decoded, *video);
        assert!(!jiffy.exists("/vtest"));
    }

    #[test]
    fn parallel_critical_path_beats_serial() {
        let (platform, jiffy) = setup();
        let video = Arc::new(synthetic_video(40, 16, 16, 4));
        let out = encode_serverless(
            &platform,
            &jiffy,
            video,
            5,
            Duration::from_millis(20),
            "ptest",
        );
        // 8 chunks of 5 frames at 20 ms/frame: serial 800 ms, parallel
        // ~100 ms.
        assert!(out.serial_time() >= out.parallel_time() * 7);
    }

    #[test]
    fn uneven_final_chunk_handled() {
        let (platform, jiffy) = setup();
        let video = Arc::new(synthetic_video(10, 8, 8, 5));
        let out = encode_serverless(
            &platform,
            &jiffy,
            Arc::clone(&video),
            4, // chunks of 4, 4, 2
            Duration::from_millis(1),
            "uneven",
        );
        assert_eq!(out.invocations, 3);
        let decoded = decode_all(&out, video.len(), 4, 64, &video).unwrap();
        assert_eq!(decoded, *video);
    }

    #[test]
    fn compression_ratio_reported() {
        let (platform, jiffy) = setup();
        let video = Arc::new(synthetic_video(20, 32, 32, 6));
        let out = encode_serverless(
            &platform,
            &jiffy,
            video,
            5,
            Duration::from_millis(1),
            "ratio",
        );
        assert!(
            out.compression_ratio() > 1.5,
            "ratio {}",
            out.compression_ratio()
        );
    }
}
