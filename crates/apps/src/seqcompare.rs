//! Serverless sequence comparison (§5.1, Sequence comparison).
//!
//! "Niu et al. illustrate the use of serverless to carry out an all-to-all
//! pairwise comparison among all unique human proteins." Pairwise scoring
//! is Smith–Waterman local alignment; the all-pairs job fans out one FaaS
//! invocation per sequence pair, with the sequence corpus staged in Jiffy
//! and scores written back as ephemeral state.

use std::sync::Arc;

use taureau_faas::{FaasPlatform, FunctionSpec};
use taureau_jiffy::Jiffy;

/// Smith–Waterman local alignment score with linear gap penalty.
pub fn smith_waterman(a: &[u8], b: &[u8], match_s: i32, mismatch: i32, gap: i32) -> i32 {
    assert!(match_s > 0 && mismatch <= 0 && gap <= 0);
    let n = a.len();
    let m = b.len();
    if n == 0 || m == 0 {
        return 0;
    }
    // One-row DP.
    let mut prev = vec![0i32; m + 1];
    let mut best = 0;
    for i in 1..=n {
        let mut diag = 0; // prev[j-1] from the previous row
        for j in 1..=m {
            let up = prev[j];
            let sub = diag
                + if a[i - 1] == b[j - 1] {
                    match_s
                } else {
                    mismatch
                };
            let score = 0.max(sub).max(up + gap).max(prev[j - 1] + gap);
            diag = prev[j];
            prev[j] = score;
            best = best.max(score);
        }
        // Reset row start: prev[0] stays 0 (local alignment).
        // `diag` handling above consumed the old prev values correctly
        // because prev[j-1] was updated before being read as the left cell.
        let _ = diag;
    }
    best
}

/// Generate `n` random protein-ish sequences over the 20-letter alphabet,
/// with some shared motifs so similarity structure exists.
pub fn synthetic_proteins(n: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
    use rand::Rng;
    const AA: &[u8] = b"ACDEFGHIKLMNPQRSTVWY";
    let mut rng = taureau_core::rng::det_rng(seed);
    let motif: Vec<u8> = (0..len / 4)
        .map(|_| AA[rng.gen_range(0..AA.len())])
        .collect();
    (0..n)
        .map(|i| {
            let mut s: Vec<u8> = (0..len).map(|_| AA[rng.gen_range(0..AA.len())]).collect();
            // Even-indexed sequences share the motif (one "family").
            if i % 2 == 0 && len >= motif.len() {
                let at = rng.gen_range(0..=len - motif.len());
                s[at..at + motif.len()].copy_from_slice(&motif);
            }
            s
        })
        .collect()
}

/// Result of the all-pairs job.
#[derive(Debug)]
pub struct AllPairsOutcome {
    /// Upper-triangle scores: `scores[i][j - i - 1]` is the score of
    /// `(i, j)` for `j > i`.
    pub(crate) scores: Vec<Vec<i32>>,
    /// FaaS invocations used.
    pub invocations: u64,
}

impl AllPairsOutcome {
    /// Score of an unordered pair.
    pub fn score(&self, i: usize, j: usize) -> i32 {
        assert_ne!(i, j);
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        self.scores[lo][hi - lo - 1]
    }

    /// The `k` highest-scoring pairs, descending.
    pub fn top_pairs(&self, k: usize) -> Vec<(usize, usize, i32)> {
        let mut all: Vec<(usize, usize, i32)> = self
            .scores
            .iter()
            .enumerate()
            .flat_map(|(i, row)| {
                row.iter()
                    .enumerate()
                    .map(move |(off, &s)| (i, i + off + 1, s))
            })
            .collect();
        all.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }
}

/// Run the all-to-all comparison as a serverless job: sequences staged in
/// Jiffy, one invocation per pair.
pub fn all_pairs_serverless(
    platform: &FaasPlatform,
    jiffy: &Jiffy,
    sequences: Arc<Vec<Vec<u8>>>,
    job: &str,
) -> AllPairsOutcome {
    let n = sequences.len();
    assert!(n >= 2);
    // Stage the corpus as ephemeral state (as Niu et al. stage FASTA
    // shards in object storage).
    let corpus = jiffy
        .create_kv(format!("/{job}/corpus").as_str(), 2)
        .expect("stage corpus");
    for (i, s) in sequences.iter().enumerate() {
        corpus
            .put(&(i as u32).to_le_bytes(), s)
            .expect("stage sequence");
    }
    let fn_name = format!("seqcmp-{job}");
    let jf = jiffy.clone();
    let job_owned = job.to_string();
    let _ = platform.deregister(&fn_name);
    platform
        .register(FunctionSpec::new(&fn_name, "bio", move |ctx| {
            let text = ctx.payload_str().ok_or("bad payload")?;
            let (i, j) = text
                .split_once(',')
                .and_then(|(a, b)| Some((a.parse::<u32>().ok()?, b.parse::<u32>().ok()?)))
                .ok_or("bad pair")?;
            let corpus = jf
                .open_kv(format!("/{job_owned}/corpus").as_str())
                .map_err(|e| e.to_string())?;
            let a = corpus
                .get(&i.to_le_bytes())
                .map_err(|e| e.to_string())?
                .ok_or("missing sequence")?;
            let b = corpus
                .get(&j.to_le_bytes())
                .map_err(|e| e.to_string())?
                .ok_or("missing sequence")?;
            let score = smith_waterman(&a, &b, 2, -1, -1);
            Ok(score.to_le_bytes().to_vec())
        }))
        .expect("register seqcmp worker");

    let mut scores = Vec::with_capacity(n);
    let mut invocations = 0u64;
    for i in 0..n {
        let mut row = Vec::with_capacity(n - i - 1);
        for j in i + 1..n {
            let r = platform
                .invoke(&fn_name, format!("{i},{j}").into_bytes())
                .expect("pair invocation");
            invocations += 1;
            row.push(i32::from_le_bytes(
                r.output[..].try_into().expect("4 bytes"),
            ));
        }
        scores.push(row);
    }
    let _ = platform.deregister(&fn_name);
    let _ = jiffy.remove_namespace(format!("/{job}").as_str());
    AllPairsOutcome {
        scores,
        invocations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taureau_core::clock::VirtualClock;
    use taureau_faas::PlatformConfig;
    use taureau_jiffy::JiffyConfig;

    fn sw(a: &[u8], b: &[u8]) -> i32 {
        smith_waterman(a, b, 2, -1, -1)
    }

    #[test]
    fn identical_sequences_score_full_match() {
        assert_eq!(sw(b"ACGT", b"ACGT"), 8);
        assert_eq!(sw(b"A", b"A"), 2);
    }

    #[test]
    fn disjoint_sequences_score_low() {
        // Local alignment floor is 0; a single accidental match scores 2.
        assert!(sw(b"AAAA", b"TTTT") <= 2);
        assert_eq!(sw(b"", b"ACGT"), 0);
    }

    #[test]
    fn substring_found_locally() {
        // "CGT" embedded in noise on both sides.
        assert_eq!(sw(b"AACGTAA", b"TTCGTTT"), 6);
    }

    #[test]
    fn gap_handling_known_case() {
        // "ACGT" vs "ACT": align ACT with one gap (A C - T): 3 matches
        // (6) minus one gap (-1) = 5, or just "AC" = 4; best is 5.
        assert_eq!(sw(b"ACGT", b"ACT"), 5);
    }

    #[test]
    fn symmetric() {
        let (a, b) = (b"MKVLAA".as_slice(), b"KVLWAA".as_slice());
        assert_eq!(sw(a, b), sw(b, a));
    }

    #[test]
    fn all_pairs_serverless_matches_local() {
        let clock = VirtualClock::shared();
        let platform = FaasPlatform::new(PlatformConfig::deterministic(), clock.clone());
        let jiffy = Jiffy::new(JiffyConfig::default(), clock);
        let seqs = Arc::new(synthetic_proteins(6, 40, 1));
        let out = all_pairs_serverless(&platform, &jiffy, Arc::clone(&seqs), "aptest");
        assert_eq!(out.invocations, 15); // C(6,2)
        for i in 0..6 {
            for j in i + 1..6 {
                assert_eq!(out.score(i, j), sw(&seqs[i], &seqs[j]), "pair ({i},{j})");
            }
        }
        assert!(!jiffy.exists("/aptest"));
    }

    #[test]
    fn family_members_score_higher() {
        // Even-indexed sequences share a motif; the top pair should be an
        // even-even pair.
        let clock = VirtualClock::shared();
        let platform = FaasPlatform::new(PlatformConfig::deterministic(), clock.clone());
        let jiffy = Jiffy::new(JiffyConfig::default(), clock);
        let seqs = Arc::new(synthetic_proteins(8, 60, 2));
        let out = all_pairs_serverless(&platform, &jiffy, seqs, "famtest");
        let (i, j, _) = out.top_pairs(1)[0];
        assert!(i % 2 == 0 && j % 2 == 0, "top pair ({i},{j}) not in family");
    }
}
