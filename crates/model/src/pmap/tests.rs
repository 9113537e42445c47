//! Differential oracle for [`PMap`]: random `insert`/`remove`/`get_mut`
//! sequences, with clones taken at random points, run against a
//! `BTreeMap` model. Every clone kept along the way must still equal
//! the model taken with it at the end (persistence), iteration order
//! and `len` must match, and the node invariants must hold. Most cases
//! run at a fan-out of 8, where a few hundred keys make trees four and
//! more levels deep, so splits, merges and borrows happen at every
//! level; the rest run at fan-out 32, where searches halve a node
//! before they scan it, and at the default fan-out.

use std::collections::BTreeMap;

use proptest::prelude::*;

use super::PMap;

/// One step of a script: `kind % 10` picks the operation (0–4 insert,
/// 5–7 remove, 8 `get_mut`, 9 keep a clone), `key % keys` the key.
type Step = (u8, u32, u32);

/// The fan-out that makes deep trees from few keys.
const SMALL: usize = 8;

/// The default fan-out. `default_is_the_default` fails to compile when
/// the two disagree.
const DEFAULT: usize = 512;

#[test]
fn default_is_the_default() {
    let map: PMap<u32, u32> = PMap::<u32, u32, DEFAULT>::new();
    assert!(map.is_empty());
}

/// A map, its model, and the clones kept along the way with theirs.
struct Run<const B: usize> {
    map: PMap<u32, u32, B>,
    model: BTreeMap<u32, u32>,
    kept: Vec<(PMap<u32, u32, B>, BTreeMap<u32, u32>)>,
}

impl<const B: usize> Run<B> {
    fn new() -> Self {
        Run {
            map: PMap::new(),
            model: BTreeMap::new(),
            kept: Vec::new(),
        }
    }

    fn step(&mut self, (kind, key, val): Step, keys: u32) -> Result<(), String> {
        let k = key % keys;
        match kind % 10 {
            0..=4 => {
                let (got, want) = (self.map.insert(k, val), self.model.insert(k, val));
                if got != want {
                    return Err(format!("insert {k}: {got:?} != {want:?}"));
                }
            }
            5..=7 => {
                let (got, want) = (self.map.remove(&k), self.model.remove(&k));
                if got != want {
                    return Err(format!("remove {k}: {got:?} != {want:?}"));
                }
            }
            8 => {
                let got = self.map.get_mut(&k).map(|v| {
                    *v = v.wrapping_add(val);
                    *v
                });
                let want = self.model.get_mut(&k).map(|v| {
                    *v = v.wrapping_add(val);
                    *v
                });
                if got != want {
                    return Err(format!("get_mut {k}: {got:?} != {want:?}"));
                }
            }
            _ => self.kept.push((self.map.clone(), self.model.clone())),
        }
        let (got, want) = (self.map.get(&k), self.model.get(&k));
        if got != want || self.map.contains_key(&k) != want.is_some() {
            return Err(format!("get {k}: {got:?} != {want:?}"));
        }
        if self.map.len() != self.model.len() {
            return Err(format!("len {} != {}", self.map.len(), self.model.len()));
        }
        Ok(())
    }

    /// The live map and every kept clone equal their models, and hold
    /// the node invariants.
    fn verify(&self) -> Result<(), String> {
        let all =
            std::iter::once((&self.map, &self.model)).chain(self.kept.iter().map(|(m, o)| (m, o)));
        for (i, (map, model)) in all.enumerate() {
            map.check_invariants()
                .map_err(|e| format!("map {i}: invariant: {e}"))?;
            if map.len() != model.len() {
                return Err(format!("map {i}: len {} != {}", map.len(), model.len()));
            }
            if !map.iter().eq(model.iter()) {
                return Err(format!("map {i}: entries differ from its model"));
            }
            if map.iter().len() != model.len() || map.keys().len() != model.len() {
                return Err(format!("map {i}: iterator length"));
            }
        }
        Ok(())
    }
}

/// Runs `steps` after inserting `prefix`, also keeping a clone after
/// the prefix and after every `keep_every` steps.
fn run<const B: usize>(
    prefix: impl IntoIterator<Item = u32>,
    steps: &[Step],
    keys: u32,
    keep_every: usize,
) -> Result<Run<B>, String> {
    let mut r = Run::new();
    for k in prefix {
        r.map.insert(k, k);
        r.model.insert(k, k);
    }
    r.verify()?;
    r.kept.push((r.map.clone(), r.model.clone()));
    for (i, &s) in steps.iter().enumerate() {
        r.step(s, keys)?;
        if (i + 1) % keep_every == 0 {
            r.kept.push((r.map.clone(), r.model.clone()));
        }
    }
    r.verify()?;
    Ok(r)
}

/// Depth of the tree (0 for an empty map).
fn depth<const B: usize>(map: &PMap<u32, u32, B>) -> usize {
    let mut d = 0;
    let mut node = map.root.as_deref();
    while let Some(n) = node {
        d += 1;
        node = match n {
            super::Node::Leaf(_) => None,
            super::Node::Branch(b) => b.children.first().map(|c| &**c),
        };
    }
    d
}

/// `n` distinct keys in a scrambled order (a multiplicative
/// permutation of `0..n` modulo a prime above it).
fn scrambled(n: u32) -> impl Iterator<Item = u32> {
    const P: u64 = 1_000_003;
    (0..P)
        .map(|i| ((i * 7919) % P) as u32)
        .filter(move |&k| k < n)
        .take(n as usize)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Small key spaces at fan-out 8: roots split and collapse, nodes
    /// merge and borrow at every level, clones pin every intermediate
    /// version.
    #[test]
    fn small_fanout_maps_match_the_model(
        steps in prop::collection::vec((0u8..10, 0u32..400, 0u32..1000), 0..600),
        keys in 1u32..400,
    ) {
        let r = run::<SMALL>(std::iter::empty(), &steps, keys, usize::MAX)
            .map_err(TestCaseError::fail)?;
        prop_assert!(r.map.len() <= keys as usize);
    }

    /// Fan-out 32: nodes large enough that searches halve before they
    /// scan, on trees three levels deep.
    #[test]
    fn mid_fanout_maps_match_the_model(
        steps in prop::collection::vec((0u8..10, 0u32..4_000, 0u32..1000), 0..800),
        n in 0u32..4_000,
    ) {
        run::<32>(scrambled(n), &steps, n.max(1), 200).map_err(TestCaseError::fail)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fan-out 128 on three-level trees and the default on two-level
    /// ones, built in scrambled order, then edited with a clone kept
    /// every 256 steps (the step kinds leave out the random clone: each
    /// one would copy the whole model).
    #[test]
    fn wide_fanout_maps_match_the_model(
        n in 20_000u32..45_000,
        steps in prop::collection::vec((0u8..9, 0u32..45_000, 0u32..1000), 500..2000),
    ) {
        let r = run::<128>(scrambled(n), &steps, n, 256).map_err(TestCaseError::fail)?;
        prop_assert!(r.kept.first().is_some_and(|(m, _)| depth(m) == 3));
        let r = run::<DEFAULT>(scrambled(n), &steps, n, 256).map_err(TestCaseError::fail)?;
        prop_assert!(r.kept.first().is_some_and(|(m, _)| depth(m) == 2));
    }
}

/// Builds `n` scrambled keys one insert at a time, checks the depth,
/// then removes them all (checking the invariants along the way) while
/// a clone of the full map stays untouched.
fn build_and_drain<const B: usize>(n: u32, min_depth: usize) {
    let mut map: PMap<u32, u32, B> = PMap::new();
    for k in scrambled(n) {
        map.insert(k, k);
    }
    assert_eq!(map.len(), n as usize);
    assert!(depth(&map) >= min_depth, "depth {}", depth(&map));
    assert_eq!(map.check_invariants(), Ok(()));
    let full = map.clone();
    for (i, k) in scrambled(n).enumerate() {
        assert_eq!(map.remove(&k), Some(k));
        if i % 997 == 0 {
            assert_eq!(map.check_invariants(), Ok(()));
        }
    }
    assert!(map.is_empty());
    assert_eq!(depth(&map), 0);
    assert_eq!(map.check_invariants(), Ok(()));
    // The clone taken at full size never noticed.
    assert_eq!(full.check_invariants(), Ok(()));
    assert!(full
        .iter()
        .map(|(k, v)| (*k, *v))
        .eq((0..n).map(|k| (k, k))));
}

#[test]
fn deep_trees_build_and_drain_to_empty() {
    build_and_drain::<SMALL>(20_000, 5);
    build_and_drain::<128>(40_000, 3);
    build_and_drain::<DEFAULT>(40_000, 2);
}

#[test]
fn a_write_to_a_clone_copies_one_path() {
    let mut map: PMap<u32, u32> = PMap::new();
    for k in 0..100_000 {
        map.insert(k, k);
    }
    let mut copy = map.clone();
    assert_eq!(copy.shared_nodes(&map), map.node_count());
    copy.insert(50_000, 7);
    let d = depth(&map);
    assert_eq!(copy.shared_nodes(&map), map.node_count() - d);
    assert_eq!(map.get(&50_000), Some(&50_000));
    assert_eq!(copy.get(&50_000), Some(&7));
    if let Some(v) = copy.get_mut(&50_001) {
        *v = 8;
    }
    assert_eq!(copy.get(&50_001), Some(&8));
    copy.remove(&50_002);
    assert_eq!(map.len(), 100_000);
    assert_eq!(map.get(&50_001), Some(&50_001));
    assert_eq!(map.get(&50_002), Some(&50_002));
    // A miss copies nothing.
    let mut miss = map.clone();
    assert_eq!(miss.remove(&200_000), None);
    assert!(miss.get_mut(&200_000).is_none());
    assert_eq!(miss.shared_nodes(&map), map.node_count());
}

#[test]
fn borrowed_lookups_and_debug_like_a_map() {
    let mut m: PMap<Vec<u32>, &str> = PMap::new();
    m.insert(vec![2, 1], "b");
    m.insert(vec![1, 9], "a");
    assert_eq!(m.get(&[1, 9][..]), Some(&"a"));
    assert!(m.contains_key(&[2, 1][..]));
    assert!(!m.contains_key(&[3][..]));
    let model: BTreeMap<Vec<u32>, &str> = m.iter().map(|(k, v)| (k.clone(), *v)).collect();
    assert_eq!(format!("{m:?}"), format!("{model:?}"));
    let mut s: PMap<String, u8> = PMap::new();
    s.insert("x".to_string(), 1);
    assert_eq!(s.get("x"), Some(&1));
    assert_eq!(format!("{:?}", PMap::<u8, u8>::new()), "{}");
}

#[test]
fn appends_fill_leaves_three_quarters() {
    let mut map: PMap<u32, u32> = PMap::new();
    for k in 0..100_000 {
        map.insert(k, k);
    }
    assert_eq!(map.check_invariants(), Ok(()));
    // Each append split leaves 385 of 513 entries behind: about 260
    // leaves, against about 390 for even splits.
    assert!(map.node_count() < 100_000 / 360, "{}", map.node_count());
}
