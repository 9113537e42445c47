//! A persistent ordered map: a path-copying B+-tree with `Arc` nodes.
//!
//! [`PMap`] is the structural-sharing backbone of the store. Cloning a
//! map bumps one reference count, so it is O(1) whatever the size. A
//! mutation goes through [`Arc::make_mut`] on every node from the root
//! to the leaf it touches: a node only this map owns is changed in
//! place, and a node still shared with another clone is copied first.
//! So a clone and its original diverge by O(log N) copied nodes per
//! write, and a map built by one owner (a bulk load, a recovery) costs
//! about what a `BTreeMap` does.
//!
//! Entries live in the leaves, sorted by key. Branches hold separator
//! keys: `keys[i]` is greater than every key under `children[i]` and at
//! most every key under `children[i + 1]`. Every leaf sits at the same
//! depth, and every node but the root holds between `B / 4` and `B`
//! entries (leaves) or children (branches), `B` being the fan-out. An
//! overfull node splits in half, except when the entry (or child) that
//! overfilled it went to its end: then the new right node takes only
//! `B / 4`, so maps filled in key order — object ids, insertion
//! sequence numbers — end up about three quarters full, not half.
//! Iteration is in key order, so it is deterministic; nothing is hashed.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::mem;
use std::sync::Arc;

#[derive(Clone)]
enum Node<K, V> {
    Leaf(Vec<(K, V)>),
    Branch(Branch<K, V>),
}

#[derive(Clone)]
struct Branch<K, V> {
    /// One separator between each pair of adjacent children.
    keys: Vec<K>,
    children: Vec<Arc<Node<K, V>>>,
}

impl<K, V> Node<K, V> {
    /// Entries of a leaf, children of a branch.
    fn size(&self) -> usize {
        match self {
            Node::Leaf(entries) => entries.len(),
            Node::Branch(b) => b.children.len(),
        }
    }
}

/// A persistent ordered map. See the [module docs](self).
///
/// `B` is the fan-out: the most entries in a leaf and the most
/// children of a branch. A write to a shared map copies about `B`
/// entries per level, and a build allocates a node per `3B / 4`
/// appended entries. The default, 512, was picked by measurement on a
/// 2-vCPU x86-64 machine against 32, 128 and 256. Warm lookups and the
/// `query_optimization` benches came out level at every fan-out. Fewer,
/// larger nodes made builds cheaper: the 60k-object fixture behind
/// e2ebench's `integrate_batch` `setup_s` took a median 0.091 s at 128,
/// 0.074 s at 256 and 0.062 s at 512, against 0.081 s for the
/// `BTreeMap`s this replaced, and 10k in-place updates
/// (`durability/writes_off`) took 14 ms at 32 against 8 ms at 128.
/// A one-object MVCC commit at 100k objects grows with the fan-out —
/// about 8 µs at 32, 10 µs at 128, 21–30 µs at 512 — and stays far
/// below the 86 ms the unshared maps took. The node-invariant oracle
/// runs mostly at a fan-out of 8, where a few hundred keys already make
/// trees four levels deep.
pub struct PMap<K, V, const B: usize = 512> {
    root: Option<Arc<Node<K, V>>>,
    len: usize,
}

impl<K, V, const B: usize> Clone for PMap<K, V, B> {
    /// O(1): the clone shares every node with `self`.
    fn clone(&self) -> Self {
        PMap {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<K, V, const B: usize> Default for PMap<K, V, B> {
    fn default() -> Self {
        PMap::new()
    }
}

/// Searches narrow a node down to at most this many candidates by
/// halving, then scan them in order. A node spans kilobytes and each
/// halving step waits on the load before it, while the final scan's
/// loads do not depend on each other and its exit branch predicts
/// well. Measured on a 2-vCPU x86-64 machine, warm random lookups in
/// an id-keyed map of 10k–100k entries took about as long as a
/// `BTreeMap`'s this way, against about twice as long with std's
/// binary search over whole nodes.
const SCAN: usize = 8;

/// The start of a run of at most [`SCAN`] sorted `items` that holds
/// both the first item whose key is at least `q` and the first whose
/// key exceeds it (or the end).
fn narrow<T, Q>(items: &[T], q: &Q, key: impl Fn(&T) -> &Q) -> usize
where
    Q: Ord + ?Sized,
{
    let (mut lo, mut len) = (0, items.len());
    while len > SCAN {
        let half = len / 2;
        if items.get(lo + half).is_some_and(|it| key(it) <= q) {
            lo += half;
        }
        len -= half;
    }
    lo
}

/// Where `q` sits among a leaf's sorted entries.
fn leaf_search<K, V, Q>(entries: &[(K, V)], q: &Q) -> Result<usize, usize>
where
    K: Borrow<Q>,
    Q: Ord + ?Sized,
{
    let lo = narrow(entries, q, |(k, _)| k.borrow());
    for (i, (k, _)) in entries.iter().enumerate().skip(lo) {
        match q.cmp(k.borrow()) {
            Ordering::Greater => {}
            Ordering::Equal => return Ok(i),
            Ordering::Less => return Err(i),
        }
    }
    Err(entries.len())
}

/// The child of a branch whose key range holds `q`.
fn child_index<K, Q>(keys: &[K], q: &Q) -> usize
where
    K: Borrow<Q>,
    Q: Ord + ?Sized,
{
    let lo = narrow(keys, q, |k| k.borrow());
    keys.iter()
        .skip(lo)
        .position(|s| q < s.borrow())
        .map_or(keys.len(), |i| lo + i)
}

impl<K, V, const B: usize> PMap<K, V, B> {
    /// An empty map. Allocates nothing.
    pub const fn new() -> Self {
        const {
            assert!(
                B >= 8,
                "a PMap fan-out below 8 leaves nodes no minimum size"
            )
        };
        PMap { root: None, len: 0 }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries in key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            stack: self
                .root
                .as_ref()
                .map(|r| vec![std::slice::from_ref(r).iter()])
                .unwrap_or_default(),
            leaf: Default::default(),
            remaining: self.len,
        }
    }

    /// The keys in order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// The values in key order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }
}

impl<K: Ord, V, const B: usize> PMap<K, V, B> {
    /// The value under `q`, if any.
    pub fn get<Q>(&self, q: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut node = &**self.root.as_ref()?;
        loop {
            match node {
                Node::Leaf(entries) => {
                    let i = leaf_search(entries, q).ok()?;
                    return entries.get(i).map(|(_, v)| v);
                }
                Node::Branch(b) => node = &**b.children.get(child_index(&b.keys, q))?,
            }
        }
    }

    /// True when `q` has an entry.
    pub fn contains_key<Q>(&self, q: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.get(q).is_some()
    }
}

impl<K: Ord + Clone, V: Clone, const B: usize> PMap<K, V, B> {
    /// The value under `q`, mutably. Copies the shared nodes on the
    /// path to it, so the change is invisible to every clone.
    pub fn get_mut<Q>(&mut self, q: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        if !self.contains_key(q) {
            return None;
        }
        let mut node = Arc::make_mut(self.root.as_mut()?);
        loop {
            match node {
                Node::Leaf(entries) => {
                    let i = leaf_search(entries, q).ok()?;
                    return entries.get_mut(i).map(|(_, v)| v);
                }
                Node::Branch(b) => {
                    let i = child_index(&b.keys, q);
                    node = Arc::make_mut(b.children.get_mut(i)?);
                }
            }
        }
    }

    /// Inserts `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let Some(root) = &mut self.root else {
            self.root = Some(Arc::new(Node::Leaf(vec![(key, value)])));
            self.len = 1;
            return None;
        };
        let (old, split) = insert_rec::<K, V, B>(root, key, value);
        if let Some((sep, right)) = split {
            let left = Arc::clone(root);
            *root = Arc::new(Node::Branch(Branch {
                keys: vec![sep],
                children: vec![left, right],
            }));
        }
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes the entry under `q`, returning its value. A miss copies
    /// nothing.
    pub fn remove<Q>(&mut self, q: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        if !self.contains_key(q) {
            return None;
        }
        let root = self.root.as_mut()?;
        let removed = remove_rec::<K, V, Q, B>(root, q)?;
        self.len -= 1;
        // A branch root left with one child hands the root down.
        let only_child = match &**root {
            Node::Branch(b) if b.children.len() == 1 => b.children.first().cloned(),
            _ => None,
        };
        if let Some(child) = only_child {
            *root = child;
        }
        if self.len == 0 {
            self.root = None;
        }
        Some(removed)
    }
}

/// A node split off to the right, with the separator that goes above it.
type Split<K, V> = Option<(K, Arc<Node<K, V>>)>;

fn insert_rec<K: Ord + Clone, V: Clone, const B: usize>(
    node: &mut Arc<Node<K, V>>,
    key: K,
    value: V,
) -> (Option<V>, Split<K, V>) {
    // Keys past the last entry or separator — appends, the common case
    // for ids and sequence numbers — are placed by one comparison.
    match Arc::make_mut(node) {
        Node::Leaf(entries) => {
            let at = match entries.last() {
                Some((last, _)) if *last < key => Err(entries.len()),
                _ => leaf_search(entries, &key),
            };
            match at {
                Ok(i) => (
                    entries.get_mut(i).map(|(_, v)| mem::replace(v, value)),
                    None,
                ),
                Err(i) => {
                    let append = i == entries.len();
                    entries.insert(i, (key, value));
                    (None, split_leaf::<K, V, B>(entries, append))
                }
            }
        }
        Node::Branch(b) => {
            let i = match b.keys.last() {
                Some(last) if *last <= key => b.keys.len(),
                _ => child_index(&b.keys, &key),
            };
            // A branch has one more child than separators, so `i` is in
            // range.
            let Some(child) = b.children.get_mut(i) else {
                return (None, None);
            };
            let (old, split) = insert_rec::<K, V, B>(child, key, value);
            let append = i + 1 == b.children.len();
            if let Some((sep, right)) = split {
                b.keys.insert(i, sep);
                b.children.insert(i + 1, right);
            }
            (old, split_branch::<K, V, B>(b, append))
        }
    }
}

/// The fewest entries (leaf) or children (branch) a node other than
/// the root holds.
const fn min_size(b: usize) -> usize {
    b / 4
}

/// Where an overfull node of `len` splits: in half, or — when it
/// overflowed at its end — leaving only the minimum on the right.
const fn split_point(len: usize, b: usize, append: bool) -> usize {
    if append {
        len - min_size(b)
    } else {
        len / 2
    }
}

/// Splits an overfull leaf. The new right leaf is allocated at full
/// size once, so appends to it never reallocate.
fn split_leaf<K: Clone, V, const B: usize>(entries: &mut Vec<(K, V)>, append: bool) -> Split<K, V> {
    if entries.len() <= B {
        return None;
    }
    let mut right = Vec::with_capacity(B + 1);
    right.extend(entries.drain(split_point(entries.len(), B, append)..));
    let sep = right.first()?.0.clone();
    Some((sep, Arc::new(Node::Leaf(right))))
}

/// Splits an overfull branch; the separator at the split moves up.
fn split_branch<K, V, const B: usize>(b: &mut Branch<K, V>, append: bool) -> Split<K, V> {
    if b.children.len() <= B {
        return None;
    }
    let mid = split_point(b.children.len(), B, append);
    let children = b.children.split_off(mid);
    let keys = b.keys.split_off(mid);
    let sep = b.keys.pop()?;
    Some((sep, Arc::new(Node::Branch(Branch { keys, children }))))
}

fn remove_rec<K, V, Q, const B: usize>(node: &mut Arc<Node<K, V>>, q: &Q) -> Option<V>
where
    K: Ord + Clone + Borrow<Q>,
    V: Clone,
    Q: Ord + ?Sized,
{
    match Arc::make_mut(node) {
        Node::Leaf(entries) => {
            let i = leaf_search(entries, q).ok()?;
            Some(entries.remove(i).1)
        }
        Node::Branch(b) => {
            let i = child_index(&b.keys, q);
            let removed = remove_rec::<K, V, Q, B>(b.children.get_mut(i)?, q)?;
            if b.children.get(i).is_some_and(|c| c.size() < min_size(B)) {
                rebalance::<K, V, B>(b, i);
            }
            Some(removed)
        }
    }
}

/// Restores the minimum size of `b.children[i]`, one short after a
/// removal, from its left sibling (or its right one, for the first
/// child): the two merge when they fit in one node, otherwise the
/// sibling lends it one entry or child.
fn rebalance<K: Clone, V: Clone, const B: usize>(b: &mut Branch<K, V>, i: usize) {
    let l = i.saturating_sub(1);
    let (Some(left), Some(right)) = (b.children.get(l), b.children.get(l + 1)) else {
        return;
    };
    let (left_size, right_size) = (left.size(), right.size());
    if left_size + right_size <= B {
        let sep = b.keys.remove(l);
        let right = b.children.remove(l + 1);
        let right = Arc::try_unwrap(right).unwrap_or_else(|shared| (*shared).clone());
        let Some(left) = b.children.get_mut(l) else {
            return;
        };
        match (Arc::make_mut(left), right) {
            (Node::Leaf(le), Node::Leaf(re)) => le.extend(re),
            (Node::Branch(lb), Node::Branch(rb)) => {
                lb.keys.push(sep);
                lb.keys.extend(rb.keys);
                lb.children.extend(rb.children);
            }
            // Siblings sit at the same depth.
            _ => {}
        }
        return;
    }
    let (lp, rp) = b.children.split_at_mut(l + 1);
    let (Some(left), Some(right), Some(sep)) = (lp.last_mut(), rp.first_mut(), b.keys.get_mut(l))
    else {
        return;
    };
    match (Arc::make_mut(left), Arc::make_mut(right)) {
        (Node::Leaf(le), Node::Leaf(re)) if left_size < right_size => {
            le.push(re.remove(0));
            if let Some((k, _)) = re.first() {
                *sep = k.clone();
            }
        }
        (Node::Leaf(le), Node::Leaf(re)) => {
            if let Some(e) = le.pop() {
                *sep = e.0.clone();
                re.insert(0, e);
            }
        }
        (Node::Branch(lb), Node::Branch(rb)) if left_size < right_size => {
            lb.keys.push(mem::replace(sep, rb.keys.remove(0)));
            lb.children.push(rb.children.remove(0));
        }
        (Node::Branch(lb), Node::Branch(rb)) => {
            if let (Some(k), Some(c)) = (lb.keys.pop(), lb.children.pop()) {
                rb.keys.insert(0, mem::replace(sep, k));
                rb.children.insert(0, c);
            }
        }
        _ => {}
    }
}

/// In-order iterator over a [`PMap`]'s entries.
pub struct Iter<'a, K, V> {
    /// Unvisited children of each branch on the path to `leaf`.
    stack: Vec<std::slice::Iter<'a, Arc<Node<K, V>>>>,
    leaf: std::slice::Iter<'a, (K, V)>,
    remaining: usize,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((k, v)) = self.leaf.next() {
                self.remaining -= 1;
                return Some((k, v));
            }
            let next = self.stack.last_mut()?.next();
            match next.map(|c| &**c) {
                None => {
                    self.stack.pop();
                }
                Some(Node::Leaf(entries)) => self.leaf = entries.iter(),
                Some(Node::Branch(b)) => self.stack.push(b.children.iter()),
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<K, V> ExactSizeIterator for Iter<'_, K, V> {}

impl<'a, K, V, const B: usize> IntoIterator for &'a PMap<K, V, B> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<K: PartialEq, V: PartialEq, const B: usize> PartialEq for PMap<K, V, B> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<K: Eq, V: Eq, const B: usize> Eq for PMap<K, V, B> {}

impl<K: fmt::Debug, V: fmt::Debug, const B: usize> fmt::Debug for PMap<K, V, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
impl<K: Ord, V, const B: usize> PMap<K, V, B> {
    /// Checks the tree's structural invariants: uniform leaf depth,
    /// node sizes within `[B / 4, B]` (the root excepted), sorted leaves,
    /// separators that bound their children, and an exact `len`.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        let Some(root) = &self.root else {
            return if self.len == 0 {
                Ok(())
            } else {
                Err(format!("no root but len {}", self.len))
            };
        };
        let mut leaf_depth = None;
        let count = check_node::<K, V, B>(root, true, 0, &mut leaf_depth, None, None)?;
        if count != self.len {
            return Err(format!("len {} but {count} entries", self.len));
        }
        Ok(())
    }

    /// Number of nodes reachable from the root.
    pub(crate) fn node_count(&self) -> usize {
        fn count<K, V>(n: &Node<K, V>) -> usize {
            match n {
                Node::Leaf(_) => 1,
                Node::Branch(b) => 1 + b.children.iter().map(|c| count(c)).sum::<usize>(),
            }
        }
        self.root.as_deref().map_or(0, count)
    }

    /// Number of nodes of `self` that `other` shares (same allocation).
    pub(crate) fn shared_nodes(&self, other: &Self) -> usize {
        fn collect<K, V>(n: &Arc<Node<K, V>>, out: &mut Vec<*const Node<K, V>>) {
            out.push(Arc::as_ptr(n));
            if let Node::Branch(b) = &**n {
                for c in &b.children {
                    collect(c, out);
                }
            }
        }
        let (mut mine, mut theirs) = (Vec::new(), Vec::new());
        if let Some(r) = &self.root {
            collect(r, &mut mine);
        }
        if let Some(r) = &other.root {
            collect(r, &mut theirs);
        }
        theirs.sort_unstable();
        mine.iter()
            .filter(|p| theirs.binary_search(p).is_ok())
            .count()
    }
}

/// Checks one subtree whose keys must lie in `[lo, hi)`; returns its
/// entry count.
#[cfg(test)]
fn check_node<K: Ord, V, const B: usize>(
    node: &Node<K, V>,
    is_root: bool,
    depth: usize,
    leaf_depth: &mut Option<usize>,
    lo: Option<&K>,
    hi: Option<&K>,
) -> Result<usize, String> {
    let size = node.size();
    let floor = match (is_root, node) {
        (true, Node::Leaf(_)) => 1,
        (true, Node::Branch(_)) => 2,
        (false, _) => min_size(B),
    };
    if size < floor || size > B {
        return Err(format!("node at depth {depth} has size {size}"));
    }
    let in_range = |k: &K| lo.is_none_or(|lo| lo <= k) && hi.is_none_or(|hi| k < hi);
    match node {
        Node::Leaf(entries) => {
            if *leaf_depth.get_or_insert(depth) != depth {
                return Err(format!("leaf at depth {depth}, expected {leaf_depth:?}"));
            }
            if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!("unsorted leaf at depth {depth}"));
            }
            if !entries.iter().all(|(k, _)| in_range(k)) {
                return Err(format!("leaf key outside its separators at depth {depth}"));
            }
            Ok(entries.len())
        }
        Node::Branch(b) => {
            if b.keys.len() + 1 != b.children.len() {
                return Err(format!(
                    "branch with {} keys and {} children",
                    b.keys.len(),
                    b.children.len()
                ));
            }
            if !b.keys.windows(2).all(|w| w[0] < w[1]) || !b.keys.iter().all(in_range) {
                return Err(format!("bad separators at depth {depth}"));
            }
            let mut total = 0;
            for (j, child) in b.children.iter().enumerate() {
                let clo = if j == 0 { lo } else { b.keys.get(j - 1) };
                let chi = b.keys.get(j).or(hi);
                total += check_node::<K, V, B>(child, false, depth + 1, leaf_depth, clo, chi)?;
            }
            Ok(total)
        }
    }
}

#[cfg(test)]
mod tests;
