//! The hierarchical namespace tree — Jiffy's second core insight.
//!
//! Instead of one global address space (which would force whole-cluster
//! re-partitioning whenever any application scales), state lives in a tree
//! of namespaces: `/app/stage/task`. Each namespace can hold one data
//! object ([`crate::data`]) and any number of child namespaces. Scaling an
//! object re-partitions *only that object*; removing a namespace reclaims
//! exactly its sub-tree's blocks.

use std::collections::BTreeMap;

use crate::data::ObjectState;
use crate::error::{JiffyError, Result};
use crate::path::JPath;

/// One node in the namespace tree.
#[derive(Debug, Default)]
pub struct NsNode {
    /// Child namespaces by name.
    pub children: BTreeMap<String, NsNode>,
    /// The data object stored at this namespace, if any.
    pub object: Option<ObjectState>,
}

impl NsNode {
    /// Visit every object in this sub-tree mutably (depth-first), stopping
    /// at the first error.
    pub fn for_each_object_mut(
        &mut self,
        f: &mut dyn FnMut(&mut ObjectState) -> Result<()>,
    ) -> Result<()> {
        if let Some(obj) = &mut self.object {
            f(obj)?;
        }
        for child in self.children.values_mut() {
            child.for_each_object_mut(f)?;
        }
        Ok(())
    }

    /// Drain all objects out of this sub-tree (for block reclamation).
    pub fn drain_objects(&mut self, out: &mut Vec<ObjectState>) {
        if let Some(obj) = self.object.take() {
            out.push(obj);
        }
        for child in self.children.values_mut() {
            child.drain_objects(out);
        }
        self.children.clear();
    }
}

/// The namespace tree rooted at `/`.
#[derive(Debug, Default)]
pub struct NamespaceTree {
    root: NsNode,
}

impl NamespaceTree {
    /// Empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a namespace exists.
    pub fn exists(&self, path: &JPath) -> bool {
        self.get(path).is_ok()
    }

    /// Get a node.
    pub fn get(&self, path: &JPath) -> Result<&NsNode> {
        let mut cur = &self.root;
        for seg in path.segments() {
            cur = cur
                .children
                .get(seg)
                .ok_or_else(|| JiffyError::NotFound(path.clone()))?;
        }
        Ok(cur)
    }

    /// Get a node mutably.
    pub fn get_mut(&mut self, path: &JPath) -> Result<&mut NsNode> {
        let mut cur = &mut self.root;
        for seg in path.segments() {
            cur = cur
                .children
                .get_mut(seg)
                .ok_or_else(|| JiffyError::NotFound(path.clone()))?;
        }
        Ok(cur)
    }

    /// Create a namespace, creating intermediate namespaces as needed
    /// (mkdir -p semantics — what serverless tasks spawning sub-tasks want).
    ///
    /// # Errors
    /// [`JiffyError::AlreadyExists`] if the exact path already exists.
    pub fn create(&mut self, path: &JPath) -> Result<()> {
        match self.get_or_create(path) {
            (_, true) => Ok(()),
            (_, false) => Err(JiffyError::AlreadyExists(path.clone())),
        }
    }

    /// The node at `path`, made (with its missing ancestors) if absent,
    /// and whether this call made it — one walk. The root always exists.
    pub fn get_or_create(&mut self, path: &JPath) -> (&mut NsNode, bool) {
        let mut cur = &mut self.root;
        let mut created = false;
        for seg in path.segments() {
            // A name is copied only for a node that is really new.
            if !cur.children.contains_key(seg) {
                cur.children.insert(seg.to_string(), NsNode::default());
                created = true;
            }
            cur = cur.children.get_mut(seg).expect("present or just inserted");
        }
        (cur, created)
    }

    /// Remove a namespace sub-tree, returning all objects it contained so
    /// the caller can free their blocks.
    pub fn remove(&mut self, path: &JPath) -> Result<Vec<ObjectState>> {
        let not_found = || JiffyError::NotFound(path.clone());
        let name = path.name().ok_or_else(not_found)?;
        let mut parent = &mut self.root;
        for seg in path.segments().take(path.depth() - 1) {
            parent = parent.children.get_mut(seg).ok_or_else(not_found)?;
        }
        let mut node = parent.children.remove(name).ok_or_else(not_found)?;
        let mut objs = Vec::new();
        node.drain_objects(&mut objs);
        Ok(objs)
    }

    /// Visit every object in the tree mutably, stopping at the first error.
    pub fn for_each_object_mut(
        &mut self,
        mut f: impl FnMut(&mut ObjectState) -> Result<()>,
    ) -> Result<()> {
        self.root.for_each_object_mut(&mut f)
    }

    /// List immediate children of a namespace.
    pub fn list(&self, path: &JPath) -> Result<Vec<String>> {
        Ok(self.get(path)?.children.keys().cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_with_intermediates() {
        let mut t = NamespaceTree::new();
        t.create(&JPath::parse("/a/b/c")).unwrap();
        assert!(t.exists(&JPath::parse("/a")));
        assert!(t.exists(&JPath::parse("/a/b")));
        assert!(t.exists(&JPath::parse("/a/b/c")));
        assert!(!t.exists(&JPath::parse("/a/x")));
    }

    #[test]
    fn duplicate_create_fails() {
        let mut t = NamespaceTree::new();
        t.create(&JPath::parse("/a/b")).unwrap();
        assert!(matches!(
            t.create(&JPath::parse("/a/b")),
            Err(JiffyError::AlreadyExists(_))
        ));
        // But a sibling and a deeper child are fine.
        t.create(&JPath::parse("/a/c")).unwrap();
        t.create(&JPath::parse("/a/b/d")).unwrap();
    }

    #[test]
    fn remove_subtree() {
        let mut t = NamespaceTree::new();
        t.create(&JPath::parse("/a/b/c")).unwrap();
        t.create(&JPath::parse("/a/b/d")).unwrap();
        let objs = t.remove(&JPath::parse("/a/b")).unwrap();
        assert!(objs.is_empty()); // no data objects yet
        assert!(t.exists(&JPath::parse("/a")));
        assert!(!t.exists(&JPath::parse("/a/b")));
        assert!(!t.exists(&JPath::parse("/a/b/c")));
    }

    #[test]
    fn remove_missing_fails() {
        let mut t = NamespaceTree::new();
        assert!(matches!(
            t.remove(&JPath::parse("/ghost")),
            Err(JiffyError::NotFound(_))
        ));
    }

    #[test]
    fn list_children_sorted() {
        let mut t = NamespaceTree::new();
        t.create(&JPath::parse("/app/z")).unwrap();
        t.create(&JPath::parse("/app/a")).unwrap();
        assert_eq!(
            t.list(&JPath::parse("/app")).unwrap(),
            vec!["a".to_string(), "z".to_string()]
        );
    }

    #[test]
    fn root_cannot_be_created_or_removed() {
        let mut t = NamespaceTree::new();
        assert!(t.create(&JPath::root()).is_err());
        assert!(t.remove(&JPath::root()).is_err());
    }
}
