//! Hierarchical namespace paths.
//!
//! Jiffy exposes state under filesystem-like paths: `/app/stage/shard-3`.
//! The first component identifies the *application* (the isolation and
//! quota domain); deeper components capture the task/sub-task structure the
//! paper's hierarchical namespaces are designed around.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// A normalized, absolute namespace path.
///
/// One shared buffer holds the whole path, so parsing costs one
/// allocation however deep the path is and a clone is a refcount bump.
/// Equality, ordering and hashing are those of the segment list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JPath {
    /// Every segment preceded by one `/` and nothing else: `"/app/task"`,
    /// `""` for the root. Segments are never empty and never hold a `/`,
    /// so equal paths have equal text.
    text: Arc<str>,
}

/// Append `raw`'s non-empty `/`-separated pieces to `text` as segments.
fn push_segments(text: &mut String, raw: &str) {
    for seg in raw.split('/').filter(|seg| !seg.is_empty()) {
        text.push('/');
        text.push_str(seg);
    }
}

impl JPath {
    /// Parse a path like `"/app/stage/task"`. Empty segments are dropped,
    /// so `"/a//b/"` equals `"/a/b"`.
    pub fn parse(s: &str) -> Self {
        // Callers format paths far more often than they type them: text
        // that is already normal is copied once, straight into the buffer.
        let normal = s.is_empty() || (s.starts_with('/') && !s.ends_with('/') && !s.contains("//"));
        if normal {
            return Self { text: Arc::from(s) };
        }
        Self::from_segments([s])
    }

    /// Build from segments. A segment is normalized like [`parse`]d text:
    /// an empty one is dropped and one holding a `/` counts as several.
    ///
    /// [`parse`]: Self::parse
    pub(crate) fn from_segments<I, S>(iter: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut text = String::new();
        for seg in iter {
            push_segments(&mut text, seg.as_ref());
        }
        Self { text: text.into() }
    }

    /// The path as text: `"/app/stage/task"`, `"/"` for the root.
    pub fn as_str(&self) -> &str {
        if self.text.is_empty() {
            "/"
        } else {
            &self.text
        }
    }

    /// Path segments, first to last.
    pub(crate) fn segments(&self) -> impl Iterator<Item = &str> + Clone {
        // The text before the first `/` is empty, for the root too.
        self.text.split('/').skip(1)
    }

    /// Number of segments (0 for root).
    pub(crate) fn depth(&self) -> usize {
        self.text.bytes().filter(|&b| b == b'/').count()
    }

    /// Whether this is the root path.
    pub(crate) fn is_root(&self) -> bool {
        self.text.is_empty()
    }

    /// The application (first segment), if any. This is the isolation
    /// domain for quotas and scaling.
    pub(crate) fn app(&self) -> Option<&str> {
        self.segments().next()
    }

    /// Whether `self` is `other` or an ancestor of `other`.
    pub(crate) fn is_prefix_of(&self, other: &JPath) -> bool {
        // A shared text prefix is a path prefix only where it ends on a
        // segment boundary: `/app` is no ancestor of `/application`.
        other.text.starts_with(&*self.text)
            && matches!(
                other.text.as_bytes().get(self.text.len()),
                None | Some(b'/')
            )
    }

    /// Last segment, if any.
    pub(crate) fn name(&self) -> Option<&str> {
        self.text.rsplit('/').next().filter(|seg| !seg.is_empty())
    }
}

// Segment by segment, as the derived impls on a `Vec<String>` of segments
// were: byte order on the text would sort `/a/b` after `/a-b`.
impl Ord for JPath {
    fn cmp(&self, other: &Self) -> Ordering {
        self.segments().cmp(other.segments())
    }
}

impl PartialOrd for JPath {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for JPath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.depth().hash(state);
        for seg in self.segments() {
            seg.hash(state);
        }
    }
}

impl fmt::Display for JPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for JPath {
    fn from(s: &str) -> Self {
        JPath::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let p = JPath::parse("/app/stage/task");
        assert_eq!(p.to_string(), "/app/stage/task");
        assert_eq!(p.depth(), 3);
        assert_eq!(p.app(), Some("app"));
        assert_eq!(p.name(), Some("task"));
    }

    #[test]
    fn normalization_drops_empty_segments() {
        assert_eq!(JPath::parse("//a///b/"), JPath::parse("/a/b"));
        assert_eq!(JPath::parse(""), JPath::parse("/"));
        assert_eq!(JPath::parse("/").to_string(), "/");
    }

    #[test]
    fn prefix_relation() {
        let a = JPath::parse("/app");
        let b = JPath::parse("/app/task");
        assert!(a.is_prefix_of(&b));
        assert!(a.is_prefix_of(&a));
        assert!(!b.is_prefix_of(&a));
        assert!(JPath::parse("/").is_prefix_of(&b));
        // Sibling with shared name prefix is not a path prefix.
        let c = JPath::parse("/application");
        assert!(!a.is_prefix_of(&c));
    }

    #[test]
    fn segments_from_any_spelling() {
        let p = JPath::from_segments(["app", "", "stage/task"]);
        assert_eq!(p, JPath::parse("/app/stage/task"));
        assert_eq!(p.segments().collect::<Vec<_>>(), ["app", "stage", "task"]);
        assert_eq!(JPath::parse("/").segments().count(), 0);
        assert_eq!(JPath::parse("/").as_str(), "/");
        assert_eq!(
            (JPath::parse("/").app(), JPath::parse("/").name()),
            (None, None)
        );
        assert_eq!(JPath::parse("a/b"), JPath::parse("/a/b"));
    }

    /// The one-buffer representation orders and hashes exactly as the
    /// list of segment strings it replaced.
    #[test]
    fn order_and_hash_are_those_of_the_segment_list() {
        use std::collections::hash_map::DefaultHasher;

        fn hash_of(v: &impl Hash) -> u64 {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        }
        let texts = [
            "/", "/a", "/a/b", "/a-b", "/a/b/c", "/a!", "/a0/b", "/ab", "/b", "/a/", "/a//c",
        ];
        let lists: Vec<Vec<String>> = texts
            .iter()
            .map(|t| {
                let segs = t.split('/').filter(|s| !s.is_empty());
                segs.map(str::to_string).collect()
            })
            .collect();
        for (a, la) in texts.iter().zip(&lists) {
            let pa = JPath::parse(a);
            assert_eq!(hash_of(&pa), hash_of(la), "{a}");
            for (b, lb) in texts.iter().zip(&lists) {
                let pb = JPath::parse(b);
                assert_eq!(pa.cmp(&pb), la.cmp(lb), "{a} vs {b}");
                assert_eq!(pa == pb, la == lb, "{a} vs {b}");
            }
        }
    }
}
