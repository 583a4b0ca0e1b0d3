//! # tenet-isl
//!
//! A from-scratch integer set library (Presburger sets and relations)
//! providing the substrate that the original TENET implementation obtained
//! from ISL and the Barvinok counting library.
//!
//! The crate models **bounded, non-parametric** integer sets and binary
//! relations constrained by affine equalities/inequalities over integer
//! variables, extended with *div* columns (`floor(expr/d)`) so that
//! quasi-affine dataflows (`i mod 8`, `floor(i/8)`) are first-class.
//!
//! Supported operations mirror the ISL entry points cited in the paper
//! (Section V-C):
//!
//! | paper / ISL                      | here                       |
//! |----------------------------------|----------------------------|
//! | `isl_union_map` structures       | [`Map`], [`Set`]           |
//! | `isl_union_map_reverse`          | [`Map::reverse`]           |
//! | `isl_union_map_apply_range`      | [`Map::apply_range`]       |
//! | `isl_union_map_card` + Barvinok  | [`Map::card`], [`Set::card`] |
//! | intersection / subtraction      | [`Map::intersect`], [`Map::subtract`] |
//!
//! # Example
//!
//! The Figure 3 dataflow of the paper, directly in its notation:
//!
//! ```
//! use tenet_isl::Map;
//!
//! let theta = Map::parse(
//!     "{ S[i,j,k] -> PE[i, j] : 0 <= i < 2 and 0 <= j < 2 and 0 <= k < 4 }",
//! )?;
//! assert_eq!(theta.card()?, 16);
//! let pes = theta.range()?;
//! assert_eq!(pes.card()?, 4);
//! # Ok::<(), tenet_isl::Error>(())
//! ```
//!
//! # Exactness
//!
//! Every operation is exact: projection uses equality substitution,
//! modular reduction, unit-coefficient Fourier–Motzkin and (for bounded
//! variables) finite splitting; composition through a disjunct that is the
//! graph of an integer affine function of its inputs substitutes that
//! function instead of projecting (isl's preimage by an affine function);
//! counting uses bijective equality elimination,
//! independent-component factoring, closed forms, and enumeration with
//! bound propagation. All row arithmetic is checked, not only
//! composition's: each constraint-row operation (combination, value at a
//! point, negation, div brackets, the constant of two cancelling rows,
//! gcd normalization) has one implementation, and a coefficient or value
//! that would leave its integer type is reported as [`Error::Overflow`]
//! rather than wrapped. Unbounded sets are rejected with
//! [`Error::Unbounded`] rather than silently approximated.
//!
//! # Performance layer
//!
//! Four mechanisms make the substrate fast without giving up exactness:
//!
//! * **Inline constraint rows, shared spaces.** Rows are a small-vector
//!   type (`row::Row`) storing up to 16 coefficients inline: TENET
//!   relations rarely exceed that many columns, so row copies are
//!   `memcpy`s and the hot paths allocate almost nothing. Rows hash and
//!   compare element-wise, giving [`BasicMap`] and [`Map`] cheap
//!   structural equality and hashing. Spaces (the dim-name tuples) are
//!   shared behind `Arc`, so copying a disjunct never re-allocates a
//!   string, and a [`Map`] is a reference-counted handle that caches its
//!   structural hash, so the memo stores, pools and returns relations
//!   without copying or re-hashing them.
//!
//! * **A shared operation memo ([`cache`]).** `apply_range`,
//!   `intersect`, `subtract`, projection, `card`, `is_empty`, parsing,
//!   the max-utilization slice sweep, and `reverse` and `union` of all
//!   but small relations consult a process-wide, thread-safe memo table
//!   keyed by the operand relations' *pooled* handles. The pool holds one
//!   handle per distinct relation and compares with full structural
//!   equality (never hash alone), so a hit replays exactly the value the
//!   uncached computation would produce — results are bit-identical by
//!   construction, which the `tests/fastpath.rs` property suite verifies
//!   end to end. A memoized map result goes through the same pool, so it
//!   shares one allocation with its later uses as an operand and with
//!   every hit that returns it. DSE sweeps, whose candidates share access
//!   maps and intermediate relations, amortize much of their relational
//!   work this way (`isl.memo_hit_ratio` is 0.75 on the benchmark's
//!   `dse_conv` sweep).
//!
//! * **Composition by substitution.** [`Map::apply_range`] composes each
//!   disjunct pair whose left side is an affine-function graph (no divs,
//!   every output pinned by one ±1 equality, all other constraints on the
//!   inputs) by substituting the function into the right side's rows and
//!   div numerators, written straight at the result width. The spacetime
//!   maps of TENET's reuse analysis are unions of such translations, so
//!   every `M⁻¹ ∘ A_{D,F}` is one pass over the rows instead of a
//!   projection per disjunct over a layout too wide for inline rows.
//!   Other pairs take the projection ladder.
//!
//! * **Closed-form counting shortcuts.** Before recursing, the counter
//!   normalizes the system and dispatches the dominant shapes directly:
//!   functional mod/floor windows are projected away with an exact
//!   multiplicative factor, axis-aligned boxes multiply interval widths,
//!   box ∩ halfspace/slab prisms (skewed time-stamps) reduce to
//!   Euclidean floor-sums in `O(log)` per closed-form dimension, and
//!   box ∩ k≥2 independent slab directions (zonotope-like shapes) split
//!   on a small variable set so every slab but one collapses to interval
//!   constraints and the last closes with floor-sums. Shapes outside
//!   these families fall back to the original exact recursive enumerator;
//!   nothing is approximated. [`fast_path_stats`] exposes dispatch
//!   counters so CI can assert the shortcuts are actually taken.
//!   Counting and enumeration run on the caller's thread; parallelism
//!   belongs to the callers, `tenet_dse::explore_parallel` and the
//!   serving pools.

#![warn(missing_docs)]

mod basic;
pub mod cache;
mod coalesce;
mod count;
mod error;
mod fmt;
mod map;
mod parse;
mod project;
mod row;
mod set;
mod space;
pub mod value;

pub use basic::{BasicMap, DivDef};
pub use cache::{AttachGuard, CacheStats, CounterHandle};
pub use count::{fast_path_stats, CountStats};
pub use error::{Error, Result};
pub use map::Map;
pub use set::Set;
pub use space::{Space, Tuple};
