//! # interop-model
//!
//! Data-model substrate for the instance-based database-interoperation
//! library reproducing Vermeer & Apers, *The Role of Integrity Constraints
//! in Database Interoperation* (VLDB 1996).
//!
//! This crate defines the object-oriented data model the paper assumes:
//! typed attributes, classes arranged in an `isa` hierarchy, objects with
//! attribute valuations, and databases holding class extents. It knows
//! nothing about constraints or integration — those live in the crates
//! layered on top (`interop-constraint`, `interop-spec`, ...).
//!
//! The model mirrors the TM specification language \[BBZ93\] used by the
//! paper closely enough that Figure 1 of the paper can be represented
//! loss-lessly: attribute types include ranges (`1..5`), set types
//! (`Pstring`), and object references (`publisher : Publisher`).
//!
//! # Invariants
//!
//! Everything above this crate leans on:
//!
//! * **[`R64`] is NaN-free** — construction rejects NaN, so the whole
//!   value space is totally ordered (`Ord`) and hashes consistently with
//!   `Eq` (`-0.0` normalised to `0.0`). The constraint domain algebra,
//!   the storage layer's sorted indexes, and every hashed collection of
//!   [`Value`]s depend on this.
//! * **Strings are refcounted** (`Value::Str(Arc<str>)`): cloning a
//!   value never copies a buffer, which is what makes value fusion and
//!   posting-list construction cheap in `interop-merge`/`-storage`.
//! * **Extents are extension-closed** — [`Database::extension`] reports
//!   subclass instances along with the class's own. Ids come back in
//!   per-class insertion order (parent extent first), **not** sorted:
//!   callers feeding them into ordered set operations such as
//!   [`intersect_sorted`] sort first, as the storage executor does.
//! * **Object ids are space-tagged** ([`ObjectId`]`(space, serial)`):
//!   ids from different databases can never collide, and the merge phase
//!   allocates global objects in its own space.
//! * **[`PMap`] clones are O(1) and its order is deterministic** — the
//!   persistent B+-tree behind a [`Database`]'s objects and extents
//!   (and the storage layer's key indexes and MVCC versions) shares
//!   every node with its clones and copies only the root-to-leaf paths
//!   a write touches; it iterates in key order and hashes nothing. So
//!   cloning a database is O(1) in its size, and no clone ever sees
//!   another's writes.
//! * **Typechecking is schema-driven**: a [`Database`] rejects objects
//!   whose attribute valuations do not fit the declared types, so code
//!   holding a populated database may assume well-typed values.
//!
//! # Example
//!
//! ```
//! use interop_model::{ClassDef, Database, Schema, Type, Value};
//!
//! let schema = Schema::new(
//!     "Shop",
//!     vec![
//!         ClassDef::new("Item").attr("price", Type::Real),
//!         ClassDef::new("Book").isa("Item").attr("isbn", Type::Str),
//!     ],
//! )
//! .unwrap();
//! let mut db = Database::new(schema, 1);
//! let book = db
//!     .create("Book", vec![("price", 12.5.into()), ("isbn", "X".into())])
//!     .unwrap();
//! // Extension closure: the Book is in Item's extension.
//! assert_eq!(db.extension(&"Item".into()), vec![book]);
//! // Int(3) and Real(3.0) compare equal numerically via R64.
//! assert_eq!(Value::int(3).as_num(), Value::real(3.0).as_num());
//! ```

pub mod algo;
pub mod database;
pub mod error;
pub mod fx;
pub mod ident;
pub mod object;
pub mod pmap;
pub mod schema;
pub mod types;
pub mod value;

pub use algo::intersect_sorted;
pub use database::Database;
pub use error::ModelError;
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ident::{AttrName, ClassName, DbName};
pub use object::{Object, ObjectId};
pub use pmap::PMap;
pub use schema::{AttrDef, ClassDef, Schema};
pub use types::Type;
pub use value::{Value, R64};

/// Convenient `Result` alias used across the model crate.
pub type Result<T> = std::result::Result<T, ModelError>;
