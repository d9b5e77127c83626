//! Hierarchical configuration state (§4.1.1).
//!
//! Configuration state is organized as a hierarchy of keys and values:
//! each key is associated with either an unordered set of sub-keys or an
//! ordered list of values; each value is a single unit of configuration
//! (one firewall rule, one tuning parameter, ...). The exact hierarchy and
//! value syntax is unique to each middlebox; this module provides the
//! shared container and the `get`/`set`/`del` semantics, including the
//! `"*"` wildcard used by control applications to clone whole
//! configurations (`values = readConfig(OrigDec, "*")`).

use std::collections::BTreeMap;

use crate::error::{Error, Result};

/// A path in the configuration hierarchy, e.g. `"rules/http/0"` or the
/// whole-tree wildcard `"*"`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HierarchicalKey(Vec<String>);

impl HierarchicalKey {
    /// Parse a `/`-separated path. `"*"` (or `""`) denotes the root,
    /// i.e. the entire configuration.
    pub fn parse(s: &str) -> Self {
        if s == "*" || s.is_empty() {
            return HierarchicalKey(Vec::new());
        }
        HierarchicalKey(s.split('/').map(str::to_owned).collect())
    }

    /// The root key, matching the entire hierarchy.
    pub fn root() -> Self {
        HierarchicalKey(Vec::new())
    }

    /// Path segments, outermost first.
    pub fn segments(&self) -> &[String] {
        &self.0
    }

    /// True for the root (`"*"`) key.
    pub fn is_root(&self) -> bool {
        self.0.is_empty()
    }

    /// The key with these segments, outermost first.
    pub(crate) fn from_segments(segments: Vec<String>) -> Self {
        HierarchicalKey(segments)
    }

    /// Append a segment, producing a child key.
    pub fn child(&self, seg: &str) -> Self {
        let mut v = self.0.clone();
        v.push(seg.to_owned());
        HierarchicalKey(v)
    }
}

impl std::fmt::Display for HierarchicalKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.is_empty() {
            write!(f, "*")
        } else {
            write!(f, "{}", self.0.join("/"))
        }
    }
}

/// A single unit of configuration state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigValue {
    /// Free-form string (rule text, mode names, ...).
    Str(String),
    /// Integer parameter (cache sizes, thresholds, counts, ...).
    Int(i64),
    /// Boolean toggle.
    Bool(bool),
}

impl ConfigValue {
    /// Interpret as an integer if possible.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ConfigValue::Int(i) => Some(*i),
            ConfigValue::Str(s) => s.parse().ok(),
            ConfigValue::Bool(b) => Some(i64::from(*b)),
        }
    }

    /// Interpret as a string slice if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ConfigValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl std::fmt::Display for ConfigValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigValue::Str(s) => write!(f, "{s}"),
            ConfigValue::Int(i) => write!(f, "{i}"),
            ConfigValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<&str> for ConfigValue {
    fn from(s: &str) -> Self {
        ConfigValue::Str(s.to_owned())
    }
}
impl From<String> for ConfigValue {
    fn from(s: String) -> Self {
        ConfigValue::Str(s)
    }
}
impl From<i64> for ConfigValue {
    fn from(i: i64) -> Self {
        ConfigValue::Int(i)
    }
}
impl From<bool> for ConfigValue {
    fn from(b: bool) -> Self {
        ConfigValue::Bool(b)
    }
}

/// One node in the configuration hierarchy: either an interior node with
/// named sub-keys, or a leaf holding an ordered list of values.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
enum Node {
    #[default]
    Empty,
    Interior(BTreeMap<String, Node>),
    Leaf(Vec<ConfigValue>),
}

/// A middlebox's complete configuration state.
///
/// Supports the three southbound operations of §4.1.1 — [`get`],
/// [`set`], [`del`] — plus [`flatten`]/[`apply_flat`] which implement the
/// whole-tree clone used by the `readConfig(_, "*")` →
/// `writeConfig(_, "*", values)` idiom of §6.
///
/// [`get`]: ConfigTree::get
/// [`set`]: ConfigTree::set
/// [`del`]: ConfigTree::del
/// [`flatten`]: ConfigTree::flatten
/// [`apply_flat`]: ConfigTree::apply_flat
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConfigTree {
    root: Node,
}

impl ConfigTree {
    /// An empty configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read the ordered values at `key`. For interior or root keys this
    /// returns all values in the subtree in flattened order. Returns
    /// `None` if the key does not exist.
    pub fn get(&self, key: &HierarchicalKey) -> Option<Vec<ConfigValue>> {
        let node = self.find(key)?;
        let mut out = Vec::new();
        collect(node, &mut out);
        Some(out)
    }

    /// Read the values at exactly this leaf; `None` if absent or interior.
    pub fn get_leaf(&self, key: &HierarchicalKey) -> Option<&[ConfigValue]> {
        match self.find(key)? {
            Node::Leaf(v) => Some(v),
            _ => None,
        }
    }

    /// Replace the ordered values at `key`, creating intermediate nodes as
    /// needed. Setting the root key is not allowed (the root is always an
    /// interior node); use [`apply_flat`](ConfigTree::apply_flat) instead.
    pub fn set(&mut self, key: &HierarchicalKey, values: Vec<ConfigValue>) {
        assert!(!key.is_root(), "cannot set values at the root; use apply_flat");
        let mut node = &mut self.root;
        for seg in key.segments() {
            let map = match node {
                Node::Interior(m) => m,
                _ => {
                    *node = Node::Interior(BTreeMap::new());
                    match node {
                        Node::Interior(m) => m,
                        _ => unreachable!(),
                    }
                }
            };
            node = map.entry(seg.clone()).or_default();
        }
        *node = Node::Leaf(values);
    }

    /// Remove the subtree at `key`. Deleting the root clears the whole
    /// configuration. Returns true if something was removed.
    pub fn del(&mut self, key: &HierarchicalKey) -> bool {
        if key.is_root() {
            let was_empty = matches!(self.root, Node::Empty);
            self.root = Node::Empty;
            return !was_empty;
        }
        let (last, parents) = key.segments().split_last().unwrap();
        let mut node = &mut self.root;
        for seg in parents {
            match node {
                Node::Interior(m) => match m.get_mut(seg) {
                    Some(n) => node = n,
                    None => return false,
                },
                _ => return false,
            }
        }
        match node {
            Node::Interior(m) => m.remove(last).is_some(),
            _ => false,
        }
    }

    /// The southbound `getConfig` (§4.1.1): the root key reads the whole
    /// hierarchy flattened, any other key the values under it as one
    /// pair; a key that does not exist is [`Error::NoSuchConfigKey`].
    pub fn read(&self, key: &HierarchicalKey) -> Result<Vec<(HierarchicalKey, Vec<ConfigValue>)>> {
        if key.is_root() {
            return Ok(self.flatten());
        }
        match self.get(key) {
            Some(v) => Ok(vec![(key.clone(), v)]),
            None => Err(Error::NoSuchConfigKey(key.to_string())),
        }
    }

    /// The southbound `delConfig`: [`del`](ConfigTree::del), with a key
    /// that removed nothing reported as [`Error::NoSuchConfigKey`].
    pub fn remove(&mut self, key: &HierarchicalKey) -> Result<()> {
        if self.del(key) {
            Ok(())
        } else {
            Err(Error::NoSuchConfigKey(key.to_string()))
        }
    }

    /// Enumerate the immediate sub-keys of an interior node.
    pub fn subkeys(&self, key: &HierarchicalKey) -> Vec<String> {
        match self.find(key) {
            Some(Node::Interior(m)) => m.keys().cloned().collect(),
            _ => Vec::new(),
        }
    }

    /// Flatten the whole tree to `(key, values)` pairs — the wire form of
    /// `readConfig(_, "*")`.
    pub fn flatten(&self) -> Vec<(HierarchicalKey, Vec<ConfigValue>)> {
        let mut out = Vec::new();
        flatten_into(&self.root, HierarchicalKey::root(), &mut out);
        out
    }

    /// Apply flattened `(key, values)` pairs — the wire form of
    /// `writeConfig(_, "*", values)`. Existing keys are overwritten;
    /// keys absent from `pairs` are left untouched.
    pub fn apply_flat(&mut self, pairs: &[(HierarchicalKey, Vec<ConfigValue>)]) {
        for (k, v) in pairs {
            self.set(k, v.clone());
        }
    }

    /// Total number of leaf values in the tree.
    pub fn len(&self) -> usize {
        let mut out = Vec::new();
        collect(&self.root, &mut out);
        out.len()
    }

    /// True if the tree holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn find(&self, key: &HierarchicalKey) -> Option<&Node> {
        let mut node = &self.root;
        for seg in key.segments() {
            match node {
                Node::Interior(m) => node = m.get(seg)?,
                _ => return None,
            }
        }
        Some(node)
    }
}

fn collect(node: &Node, out: &mut Vec<ConfigValue>) {
    match node {
        Node::Empty => {}
        Node::Leaf(v) => out.extend(v.iter().cloned()),
        Node::Interior(m) => {
            for child in m.values() {
                collect(child, out);
            }
        }
    }
}

fn flatten_into(
    node: &Node,
    prefix: HierarchicalKey,
    out: &mut Vec<(HierarchicalKey, Vec<ConfigValue>)>,
) {
    match node {
        Node::Empty => {}
        Node::Leaf(v) => out.push((prefix, v.clone())),
        Node::Interior(m) => {
            for (seg, child) in m {
                flatten_into(child, prefix.child(seg), out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> HierarchicalKey {
        HierarchicalKey::parse(s)
    }

    #[test]
    fn set_get_roundtrip() {
        let mut t = ConfigTree::new();
        t.set(&key("rules/http"), vec!["allow 80".into(), "deny 8080".into()]);
        assert_eq!(
            t.get_leaf(&key("rules/http")).unwrap(),
            &[ConfigValue::from("allow 80"), ConfigValue::from("deny 8080")]
        );
    }

    #[test]
    fn get_interior_collects_subtree() {
        let mut t = ConfigTree::new();
        t.set(&key("rules/http"), vec!["a".into()]);
        t.set(&key("rules/dns"), vec!["b".into()]);
        t.set(&key("params/cache_size"), vec![500i64.into()]);
        let all = t.get(&key("rules")).unwrap();
        assert_eq!(all.len(), 2);
        let root = t.get(&HierarchicalKey::root()).unwrap();
        assert_eq!(root.len(), 3);
    }

    #[test]
    fn wildcard_parse_is_root() {
        assert!(key("*").is_root());
        assert_eq!(key("a/b").segments(), &["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn del_removes_subtree() {
        let mut t = ConfigTree::new();
        t.set(&key("rules/http"), vec!["a".into()]);
        t.set(&key("rules/dns"), vec!["b".into()]);
        assert!(t.del(&key("rules/http")));
        assert!(t.get(&key("rules/http")).is_none());
        assert_eq!(t.len(), 1);
        assert!(!t.del(&key("rules/http")));
    }

    #[test]
    fn del_root_clears_all() {
        let mut t = ConfigTree::new();
        t.set(&key("a"), vec![1i64.into()]);
        assert!(t.del(&HierarchicalKey::root()));
        assert!(t.is_empty());
    }

    #[test]
    fn read_and_remove_report_missing_keys() {
        let mut t = ConfigTree::new();
        t.set(&key("rules/http"), vec!["a".into()]);
        t.set(&key("params/n"), vec![7i64.into()]);
        assert_eq!(t.read(&HierarchicalKey::root()).unwrap(), t.flatten());
        assert_eq!(
            t.read(&key("rules")).unwrap(),
            vec![(key("rules"), vec![ConfigValue::from("a")])]
        );
        assert_eq!(t.read(&key("nope")), Err(Error::NoSuchConfigKey("nope".into())));
        assert_eq!(t.remove(&key("rules/http")), Ok(()));
        assert_eq!(t.remove(&key("rules/http")), Err(Error::NoSuchConfigKey("rules/http".into())));
    }

    #[test]
    fn clone_via_flatten_apply() {
        let mut src = ConfigTree::new();
        src.set(&key("rules/http"), vec!["a".into()]);
        src.set(&key("params/n"), vec![7i64.into()]);
        let mut dst = ConfigTree::new();
        dst.apply_flat(&src.flatten());
        assert_eq!(src, dst);
    }

    #[test]
    fn set_overwrites_leaf() {
        let mut t = ConfigTree::new();
        t.set(&key("p"), vec![1i64.into()]);
        t.set(&key("p"), vec![2i64.into()]);
        assert_eq!(t.get_leaf(&key("p")).unwrap(), &[ConfigValue::Int(2)]);
    }

    #[test]
    fn subkeys_enumerates_children() {
        let mut t = ConfigTree::new();
        t.set(&key("rules/http"), vec!["a".into()]);
        t.set(&key("rules/dns"), vec!["b".into()]);
        assert_eq!(t.subkeys(&key("rules")), vec!["dns".to_owned(), "http".to_owned()]);
    }
}
