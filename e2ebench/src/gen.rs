//! Conflict-bearing input generation. `synthetic_fixture` and
//! `synthetic_store` are used unchanged; everything that makes the
//! inputs produce §5 conflicts lives here, on top of their output.

use interop_bench::{synthetic_fixture, SyntheticConfig};
use interop_core::fixtures::Fixture;
use interop_model::{ObjectId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Conditional constraints per side in every fixture of the benchmark.
pub const CONSTRAINTS_PER_SIDE: usize = 4;

/// Share of matched remote objects whose `grade` (and `score`) the
/// generator redraws. Matched pairs otherwise agree on `grade` (it is
/// fused by `any`), and the §5 instance check then finds nothing, so the
/// repair phase never runs.
pub const PERTURBED_SHARE: f64 = 0.05;

/// The lowest `score` the local catalog allows for `grade`
/// (`grade = i ⇒ score ≥ i mod 4 + 1` for the constrained grades).
pub fn local_floor(grade: i64) -> i64 {
    if (grade as usize) < CONSTRAINTS_PER_SIDE {
        grade % 4 + 1
    } else {
        1
    }
}

/// The lowest `score` the remote catalog allows for `grade`
/// (`grade = i ⇒ score ≥ i mod 8 + 2`).
pub fn remote_floor(grade: i64) -> i64 {
    if (grade as usize) < CONSTRAINTS_PER_SIDE {
        grade % 8 + 2
    } else {
        1
    }
}

/// The remote `score` range is `1..=10`.
pub const REMOTE_SCORE_MAX: i64 = 10;

/// Grades the generator draws from (`synthetic_fixture` uses `0..8`).
pub const GRADES: std::ops::Range<i64> = 0..8;

/// A matched remote object and its local partner.
#[derive(Clone, Copy, Debug)]
pub struct Pair {
    /// The local object.
    pub local: ObjectId,
    /// The remote object sharing its key.
    pub remote: ObjectId,
}

/// A two-database fixture with conflicts, plus what was done to it.
pub struct ConflictFixture {
    /// The sources, catalogs and spec.
    pub fixture: Fixture,
    /// Every matched pair, in remote-id order.
    pub pairs: Vec<Pair>,
    /// How many matched remote objects were redrawn.
    pub perturbed: usize,
}

/// `synthetic_fixture` with match ratio 0.5 and four constraints per
/// side, then [`PERTURBED_SHARE`] of the matched remote objects redrawn:
/// a new `grade`, and a `score` that grade's remote constraint allows,
/// so both sources keep satisfying their own catalogs. `any` keeps the
/// local grade in the view, so the averaged score can fall below the
/// bound derived for that grade: a §5 instance violation.
pub fn conflict_fixture(local_n: usize, remote_n: usize, seed: u64) -> ConflictFixture {
    let mut fixture = synthetic_fixture(SyntheticConfig {
        local_n,
        remote_n,
        match_ratio: 0.5,
        constraints_per_side: CONSTRAINTS_PER_SIDE,
        seed,
    });
    let local_by_key: std::collections::HashMap<String, ObjectId> = fixture
        .local_db
        .objects()
        .map(|o| (key_of(o.get(&"key".into())), o.id))
        .collect();
    let pairs: Vec<Pair> = fixture
        .remote_db
        .objects()
        .filter_map(|o| {
            let local = *local_by_key.get(&key_of(o.get(&"key".into())))?;
            Some(Pair {
                local,
                remote: o.id,
            })
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut perturbed = 0;
    for p in &pairs {
        if !rng.gen_bool(PERTURBED_SHARE) {
            continue;
        }
        let obj = fixture.remote_db.object(p.remote).expect("paired object");
        let grade = int_of(obj.get(&"grade".into()));
        let choices: Vec<i64> = GRADES.filter(|&g| g != grade).collect();
        let g = choices[rng.gen_range(0..choices.len())];
        let score = rng.gen_range(remote_floor(g)..=REMOTE_SCORE_MAX);
        for (attr, v) in [("grade", g), ("score", score)] {
            fixture
                .remote_db
                .update(p.remote, attr, Value::Int(v))
                .expect("in-schema update");
        }
        perturbed += 1;
    }
    ConflictFixture {
        fixture,
        pairs,
        perturbed,
    }
}

/// The integer inside `v` (the generated attributes are never null).
pub fn int_of(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("expected an integer attribute, found {other:?}"),
    }
}

fn key_of(v: &Value) -> String {
    match v {
        Value::Str(s) => s.to_string(),
        other => panic!("expected a string key, found {other:?}"),
    }
}
