//! A minimal property-testing harness with internal (choice-stream)
//! shrinking.
//!
//! # Model
//!
//! Generators ([`Gen`]) draw raw 64-bit choices from a [`Source`]. During a
//! normal run the source forwards a seeded [`Rng`] and records every raw
//! draw. When a case fails, the harness shrinks the *recorded choice
//! stream* — halving individual choices and zeroing chunks (truncation) —
//! and replays the generator over the mutated stream. Because every
//! combinator (maps, flat-maps, collections) is a pure function of the
//! stream, shrinking composes through all of them for free: halving the
//! choice that produced a collection length truncates the collection,
//! halving the choice behind an integer halves its offset from the range's
//! lower bound.
//!
//! # Controls
//!
//! * `MBR_TEST_CASES` — cases per property (default 64; per-property
//!   overrides in [`props!`] still respect a larger env value),
//! * `MBR_TEST_SEED` — base seed (default fixed), printed on failure.
//!
//! A failure report names the property, the case index, the per-case seed,
//! the shrunken counterexample, and the exact `MBR_TEST_SEED=…` incantation
//! that reproduces it as case 0.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use crate::rng::{splitmix64, RandomBits, Rng, SampleRange};

// ---------------------------------------------------------------------
// Source: recorded / replayed choice streams
// ---------------------------------------------------------------------

/// The draw source generators consume: a seeded RNG whose raw draws are
/// recorded, or a mutated recording being replayed (missing positions read
/// as zero, which is the fully-shrunk choice).
pub struct Source {
    rng: Rng,
    replay: Option<Vec<u64>>,
    pos: usize,
    record: Vec<u64>,
}

impl Source {
    /// A recording source seeded with `seed`.
    pub fn recording(seed: u64) -> Self {
        Source {
            rng: Rng::seed_from_u64(seed),
            replay: None,
            pos: 0,
            record: Vec::new(),
        }
    }

    /// A source that replays `choices`, yielding 0 past the end.
    pub fn replaying(choices: Vec<u64>, seed: u64) -> Self {
        Source {
            rng: Rng::seed_from_u64(seed),
            replay: Some(choices),
            pos: 0,
            record: Vec::new(),
        }
    }

    /// The raw choices actually consumed by the last generation.
    pub fn into_choices(self) -> Vec<u64> {
        self.record
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        crate::rng::f64_from_bits(self.next_u64())
    }

    /// Uniform draw from an integer or float range (see
    /// [`Rng::gen_range`]).
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }
}

impl RandomBits for Source {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let raw = match &self.replay {
            Some(choices) if self.pos < choices.len() => choices[self.pos],
            Some(_) => 0,
            None => self.rng.u64(),
        };
        self.pos += 1;
        self.record.push(raw);
        raw
    }
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// A value generator over a [`Source`].
pub trait Gen {
    /// The generated value type (`Debug` so counterexamples print).
    type Value: fmt::Debug;

    /// Draws one value.
    fn generate(&self, src: &mut Source) -> Self::Value;

    /// Maps generated values through `f` (shrinking still works: it happens
    /// on the underlying choice stream, not the mapped value). Named like
    /// proptest's combinator so migrated call sites read identically, and
    /// so `Range`'s `Iterator::map` stays unambiguous.
    fn prop_map<U: fmt::Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { base: self, f }
    }

    /// Builds a second generator from each generated value and draws from
    /// it (the monadic bind).
    fn prop_flat_map<G: Gen, F: Fn(Self::Value) -> G>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { base: self, f }
    }
}

/// See [`Gen::prop_map`].
pub struct Map<G, F> {
    base: G,
    f: F,
}

impl<G: Gen, U: fmt::Debug, F: Fn(G::Value) -> U> Gen for Map<G, F> {
    type Value = U;
    fn generate(&self, src: &mut Source) -> U {
        (self.f)(self.base.generate(src))
    }
}

/// See [`Gen::prop_flat_map`].
pub struct FlatMap<G, F> {
    base: G,
    f: F,
}

impl<G: Gen, H: Gen, F: Fn(G::Value) -> H> Gen for FlatMap<G, F> {
    type Value = H::Value;
    fn generate(&self, src: &mut Source) -> H::Value {
        (self.f)(self.base.generate(src)).generate(src)
    }
}

impl<T> Gen for core::ops::Range<T>
where
    core::ops::Range<T>: SampleRange<Output = T> + Clone,
    T: fmt::Debug,
{
    type Value = T;
    fn generate(&self, src: &mut Source) -> T {
        self.clone().sample(src)
    }
}

impl<T> Gen for core::ops::RangeInclusive<T>
where
    core::ops::RangeInclusive<T>: SampleRange<Output = T> + Clone,
    T: fmt::Debug,
{
    type Value = T;
    fn generate(&self, src: &mut Source) -> T {
        self.clone().sample(src)
    }
}

macro_rules! impl_gen_tuple {
    ($($g:ident.$idx:tt),+) => {
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);
            fn generate(&self, src: &mut Source) -> Self::Value {
                ($(self.$idx.generate(src),)+)
            }
        }
    };
}

impl_gen_tuple!(A.0);
impl_gen_tuple!(A.0, B.1);
impl_gen_tuple!(A.0, B.1, C.2);
impl_gen_tuple!(A.0, B.1, C.2, D.3);
impl_gen_tuple!(A.0, B.1, C.2, D.3, E.4);
impl_gen_tuple!(A.0, B.1, C.2, D.3, E.4, F.5);
impl_gen_tuple!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
impl_gen_tuple!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);

/// Always generates a clone of `value` (replaces `Just`).
pub fn just<T: Clone + fmt::Debug>(value: T) -> Just<T> {
    Just(value)
}

/// See [`just`].
pub struct Just<T>(T);

impl<T: Clone + fmt::Debug> Gen for Just<T> {
    type Value = T;
    fn generate(&self, _src: &mut Source) -> T {
        self.0.clone()
    }
}

/// Any `u64`, uniformly (replaces `any::<u64>()`).
pub fn any_u64() -> AnyU64 {
    AnyU64
}

/// See [`any_u64`].
pub struct AnyU64;

impl Gen for AnyU64 {
    type Value = u64;
    fn generate(&self, src: &mut Source) -> u64 {
        src.next_u64()
    }
}

/// A `Vec` whose length is drawn from `len` and whose elements come from
/// `elem` (replaces `prop::collection::vec`).
pub fn vec_of<G, L>(elem: G, len: L) -> VecOf<G, L>
where
    G: Gen,
    L: SampleRange<Output = usize> + Clone,
{
    VecOf { elem, len }
}

/// See [`vec_of`].
pub struct VecOf<G, L> {
    elem: G,
    len: L,
}

impl<G, L> Gen for VecOf<G, L>
where
    G: Gen,
    L: SampleRange<Output = usize> + Clone,
{
    type Value = Vec<G::Value>;
    fn generate(&self, src: &mut Source) -> Vec<G::Value> {
        let n = src.gen_range(self.len.clone());
        (0..n).map(|_| self.elem.generate(src)).collect()
    }
}

/// A `BTreeSet` with a target size drawn from `len` (replaces
/// `prop::collection::btree_set`). Duplicates are retried a bounded number
/// of times, so tight element ranges may yield smaller sets.
pub fn btree_set_of<G, L>(elem: G, len: L) -> BTreeSetOf<G, L>
where
    G: Gen,
    G::Value: Ord,
    L: SampleRange<Output = usize> + Clone,
{
    BTreeSetOf { elem, len }
}

/// See [`btree_set_of`].
pub struct BTreeSetOf<G, L> {
    elem: G,
    len: L,
}

impl<G, L> Gen for BTreeSetOf<G, L>
where
    G: Gen,
    G::Value: Ord,
    L: SampleRange<Output = usize> + Clone,
{
    type Value = BTreeSet<G::Value>;
    fn generate(&self, src: &mut Source) -> BTreeSet<G::Value> {
        let target = src.gen_range(self.len.clone());
        let mut set = BTreeSet::new();
        let mut attempts = 0usize;
        while set.len() < target && attempts < target * 10 + 10 {
            set.insert(self.elem.generate(src));
            attempts += 1;
        }
        set
    }
}

/// An arbitrary string of `len` characters: mostly printable ASCII, with
/// control characters and non-ASCII scalars mixed in (replaces the
/// `".{0,n}"` regex strategy for parser-robustness tests).
pub fn string_any<L>(len: L) -> AnyString<L>
where
    L: SampleRange<Output = usize> + Clone,
{
    AnyString { len }
}

/// See [`string_any`].
pub struct AnyString<L> {
    len: L,
}

impl<L> Gen for AnyString<L>
where
    L: SampleRange<Output = usize> + Clone,
{
    type Value = String;
    fn generate(&self, src: &mut Source) -> String {
        let n = src.gen_range(self.len.clone());
        let mut s = String::with_capacity(n);
        for _ in 0..n {
            let class = src.gen_range(0u32..100);
            let c = if class < 70 {
                char::from(src.gen_range(0x20u8..0x7F))
            } else if class < 82 {
                *['\n', '\t', '\r', ' ', '"', '{', '}']
                    .get(src.gen_range(0usize..7))
                    .expect("in range")
            } else if class < 92 {
                char::from(src.gen_range(0u8..0x20))
            } else {
                // Any Unicode scalar; resample the surrogate gap away.
                let raw = src.gen_range(0u32..0x11_0000);
                char::from_u32(raw).unwrap_or('\u{FFFD}')
            };
            s.push(c);
        }
        s
    }
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

/// Runner configuration; see [`Config::from_env`].
#[derive(Clone, Debug)]
pub struct Config {
    /// Cases to run per property.
    pub cases: u32,
    /// Base seed; per-case seeds derive from it.
    pub seed: u64,
    /// Budget of extra test executions spent shrinking a failure.
    pub shrink_budget: u32,
}

/// The default base seed (spells "mbrtest!"). Fixed so `cargo test` is
/// reproducible run-to-run and machine-to-machine.
pub const DEFAULT_SEED: u64 = 0x6d62_7274_6573_7421;

/// Default cases per property.
pub const DEFAULT_CASES: u32 = 64;

impl Config {
    /// Reads `MBR_TEST_CASES` and `MBR_TEST_SEED` (decimal or `0x…` hex),
    /// falling back to [`DEFAULT_CASES`] / [`DEFAULT_SEED`].
    pub fn from_env() -> Config {
        Config {
            cases: env_u64("MBR_TEST_CASES").map_or(DEFAULT_CASES, |v| v.max(1) as u32),
            seed: env_u64("MBR_TEST_SEED").unwrap_or(DEFAULT_SEED),
            shrink_budget: 2048,
        }
    }

    /// Like [`Config::from_env`], but a property asked for `cases` itself;
    /// an explicit `MBR_TEST_CASES` still wins.
    pub fn from_env_with_cases(cases: u32) -> Config {
        let mut cfg = Config::from_env();
        if env_u64("MBR_TEST_CASES").is_none() {
            cfg.cases = cases.max(1);
        }
        cfg
    }
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("{name} must be an integer, got `{raw}`"),
    }
}

/// Panic payload of [`prop_assume!`]: the case is discarded, not failed.
pub struct Discard;

enum Outcome {
    Pass,
    Discard,
    Fail(String),
}

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

fn run_one<V>(test: &impl Fn(V), value: V) -> Outcome {
    QUIET.with(|q| q.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(|| test(value)));
    QUIET.with(|q| q.set(false));
    match result {
        Ok(()) => Outcome::Pass,
        Err(payload) if payload.is::<Discard>() => Outcome::Discard,
        Err(payload) => Outcome::Fail(panic_message(payload)),
    }
}

/// Runs `test` against `cfg.cases` generated values, shrinking and
/// reporting the first failure. This is what [`props!`] expands to; call it
/// directly for programmatic properties.
///
/// # Panics
///
/// Panics (failing the enclosing `#[test]`) if any case fails after
/// shrinking, with a deterministic reproduction recipe.
pub fn run<G: Gen>(name: &str, cfg: &Config, gen: G, test: impl Fn(G::Value)) {
    install_quiet_hook();
    let mut executed = 0u32;
    let mut discarded = 0u32;
    let mut attempt = 0u64;
    while executed < cfg.cases {
        let case_seed = if attempt == 0 {
            cfg.seed
        } else {
            let mut st = cfg.seed.wrapping_add(attempt);
            splitmix64(&mut st)
        };
        attempt += 1;
        let mut src = Source::recording(case_seed);
        let value = gen.generate(&mut src);
        match run_one(&test, value) {
            Outcome::Pass => executed += 1,
            Outcome::Discard => {
                discarded += 1;
                assert!(
                    discarded < cfg.cases.saturating_mul(20).max(1_000),
                    "property `{name}`: too many prop_assume! discards \
                     ({discarded}); loosen the generator"
                );
            }
            Outcome::Fail(msg) => {
                let choices = src.into_choices();
                let (min_choices, min_msg) = shrink(&gen, &test, choices, case_seed, cfg);
                let mut redo = Source::replaying(min_choices, case_seed);
                let min_value = gen.generate(&mut redo);
                panic!(
                    "property `{name}` failed at case {executed} \
                     (seed {case_seed:#x})\n\
                     minimal counterexample: {min_value:?}\n\
                     failure: {min_msg}\n\
                     reproduce: MBR_TEST_SEED={case_seed:#x} MBR_TEST_CASES=1 \
                     cargo test {name}\n\
                     (original failure before shrinking: {msg})"
                );
            }
        }
    }
}

/// Shrinks a failing choice stream by zeroing chunks (truncation) and
/// halving individual choices, keeping any mutation that still fails.
fn shrink<G: Gen>(
    gen: &G,
    test: &impl Fn(G::Value),
    mut current: Vec<u64>,
    seed: u64,
    cfg: &Config,
) -> (Vec<u64>, String) {
    let mut message = String::new();
    let mut budget = cfg.shrink_budget;

    let try_candidate = |candidate: Vec<u64>, budget: &mut u32| -> Option<(Vec<u64>, String)> {
        if *budget == 0 {
            return None;
        }
        *budget -= 1;
        let mut src = Source::replaying(candidate, seed);
        let value = gen.generate(&mut src);
        match run_one(test, value) {
            // Canonicalize to the choices actually consumed, so later
            // passes work on the shrunk structure.
            Outcome::Fail(msg) => Some((src.into_choices(), msg)),
            _ => None,
        }
    };

    let mut improved = true;
    while improved && budget > 0 {
        improved = false;

        // Truncation: zero progressively smaller suffixes and chunks. An
        // accepted candidate may consume fewer choices (zeroing a length
        // shortens a collection), so the bounds track `current` as it is.
        let mut chunk = current.len() / 2;
        while chunk >= 1 && budget > 0 {
            let mut start = 0;
            while start < current.len() && budget > 0 {
                let end = (start + chunk).min(current.len());
                if current[start..end].iter().any(|&c| c != 0) {
                    let mut cand = current.clone();
                    for c in &mut cand[start..end] {
                        *c = 0;
                    }
                    if let Some((next, msg)) = try_candidate(cand, &mut budget) {
                        current = next;
                        message = msg;
                        improved = true;
                    }
                }
                start += chunk;
            }
            chunk /= 2;
        }

        // Per-position descent: binary-search each choice down to the
        // smallest value that still fails (halving first, then homing in
        // on the pass/fail boundary).
        for i in 0..current.len() {
            if i >= current.len() {
                break;
            }
            if current[i] == 0 || budget == 0 {
                continue;
            }
            let mut cand = current.clone();
            cand[i] = 0;
            if let Some((next, msg)) = try_candidate(cand, &mut budget) {
                current = next;
                message = msg;
                improved = true;
                continue;
            }
            let (mut lo, mut hi) = (0u64, current[i]);
            let mut best: Option<(Vec<u64>, String)> = None;
            while lo + 1 < hi && budget > 0 {
                let mid = lo + (hi - lo) / 2;
                let mut cand = current.clone();
                cand[i] = mid;
                match try_candidate(cand, &mut budget) {
                    Some(ok) => {
                        hi = mid;
                        best = Some(ok);
                    }
                    None => lo = mid,
                }
            }
            if let Some((next, msg)) = best {
                current = next;
                message = msg;
                improved = true;
            }
        }
    }

    if message.is_empty() {
        // Nothing shrank; re-derive the message from the original stream.
        let mut src = Source::replaying(current.clone(), seed);
        let value = gen.generate(&mut src);
        if let Outcome::Fail(msg) = run_one(test, value) {
            message = msg;
        }
    }
    (current, message)
}

// ---------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------

/// Declares property tests, proptest-style:
///
/// ```
/// mbr_test::props! {
///     cases = 32;  // optional per-block default; MBR_TEST_CASES overrides
///
///     /// Addition commutes.
///     fn add_commutes(a in 0i64..1000, b in 0i64..1000) {
///         mbr_test::prop_assert_eq!(a + b, b + a);
///     }
/// }
/// # fn main() {}
/// ```
///
/// Each `fn` becomes a `#[test]` that runs the body against generated
/// bindings; patterns are allowed on the left of `in`.
#[macro_export]
macro_rules! props {
    (cases = $cases:expr; $($rest:tt)*) => {
        $crate::__props_internal! { ($crate::check::Config::from_env_with_cases($cases)) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__props_internal! { ($crate::check::Config::from_env()) $($rest)* }
    };
}

/// Implementation detail of [`props!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __props_internal {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat_param in $gen:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            $crate::check::run(
                stringify!($name),
                &$cfg,
                ($($gen,)+),
                |($($pat,)+)| $body,
            );
        }
        $crate::__props_internal! { ($cfg) $($rest)* }
    };
}

/// `assert!` inside a property (kept for proptest-migration familiarity).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Discards the current case (does not count toward the case budget) when
/// the condition is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            ::std::panic::panic_any($crate::check::Discard);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let gen = vec_of(0i64..1000, 0usize..20);
        let mut a = Source::recording(99);
        let mut b = Source::recording(99);
        assert_eq!(gen.generate(&mut a), gen.generate(&mut b));
    }

    #[test]
    fn replay_reproduces_recorded_value() {
        let gen = (0i64..500, vec_of(0u32..9, 1usize..8));
        let mut rec = Source::recording(5);
        let original = gen.generate(&mut rec);
        let mut rep = Source::replaying(rec.into_choices(), 5);
        assert_eq!(gen.generate(&mut rep), original);
    }

    #[test]
    fn zero_choices_hit_range_lower_bounds() {
        let gen = (10i64..90, 5usize..=7, vec_of(3u32..40, 2usize..9));
        let mut src = Source::replaying(Vec::new(), 0);
        let (a, b, v) = gen.generate(&mut src);
        assert_eq!(a, 10);
        assert_eq!(b, 5);
        assert_eq!(v, vec![3, 3]);
    }

    #[test]
    fn shrinking_minimizes_a_threshold_failure() {
        // Property "v < 600" fails for v in 600..1000; the minimal stream
        // should land near the smallest failing value.
        let gen = 0i64..1000;
        let cfg = Config {
            cases: 200,
            seed: DEFAULT_SEED,
            shrink_budget: 512,
        };
        install_quiet_hook();
        QUIET.with(|q| q.set(true));
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            run("threshold", &cfg, gen, |v| assert!(v < 600));
        }));
        QUIET.with(|q| q.set(false));
        let msg = panic_message(result.expect_err("must fail"));
        assert!(
            msg.contains("minimal counterexample: 600"),
            "shrink should reach exactly 600: {msg}"
        );
        assert!(msg.contains("MBR_TEST_SEED="), "repro recipe: {msg}");
    }

    #[test]
    fn shrinking_truncates_collections() {
        let gen = vec_of(0i64..100, 0usize..40);
        let cfg = Config {
            cases: 50,
            seed: DEFAULT_SEED,
            shrink_budget: 1024,
        };
        install_quiet_hook();
        QUIET.with(|q| q.set(true));
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            run("truncate", &cfg, gen, |v: Vec<i64>| assert!(v.len() < 10));
        }));
        QUIET.with(|q| q.set(false));
        let msg = panic_message(result.expect_err("must fail"));
        // Minimal failing vec has exactly 10 elements, all shrunk to 0.
        assert!(
            msg.contains("minimal counterexample: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]"),
            "got: {msg}"
        );
    }

    #[test]
    fn shrinking_survives_a_choice_stream_that_shortens() {
        // Zeroing the length choice drops the vec to its 3-element minimum,
        // so the accepted stream is shorter than the pass that tried it.
        let gen = vec_of(0i64..100, 3usize..40);
        let cfg = Config {
            cases: 1,
            seed: DEFAULT_SEED,
            shrink_budget: 1024,
        };
        install_quiet_hook();
        QUIET.with(|q| q.set(true));
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            run("shorten", &cfg, gen, |v: Vec<i64>| assert!(v.len() < 3));
        }));
        QUIET.with(|q| q.set(false));
        let msg = panic_message(result.expect_err("must fail"));
        assert!(
            msg.contains("minimal counterexample: [0, 0, 0]"),
            "got: {msg}"
        );
    }

    #[test]
    fn discards_do_not_consume_cases() {
        let counted = std::cell::Cell::new(0u32);
        let cfg = Config {
            cases: 10,
            seed: 1,
            shrink_budget: 16,
        };
        run("discarding", &cfg, 0u32..100, |v| {
            crate::prop_assume!(v % 2 == 0);
            counted.set(counted.get() + 1);
        });
        assert_eq!(counted.get(), 10, "10 non-discarded cases must run");
    }

    #[test]
    fn flat_map_and_btree_set_generate_consistent_shapes() {
        let gen = (2usize..7).prop_flat_map(|n| {
            (
                just(n),
                vec_of(btree_set_of(0usize..7, 1usize..=4), 1usize..10),
            )
        });
        let mut src = Source::recording(123);
        for _ in 0..50 {
            let (n, sets) = gen.generate(&mut src);
            assert!((2..7).contains(&n));
            assert!((1..10).contains(&sets.len()));
            for s in &sets {
                assert!((1..=4).contains(&s.len()));
            }
        }
    }

    #[test]
    fn string_any_respects_length() {
        let gen = string_any(0usize..50);
        let mut src = Source::recording(7);
        for _ in 0..100 {
            let s = gen.generate(&mut src);
            assert!(s.chars().count() < 50);
        }
    }
}
