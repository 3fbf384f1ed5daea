//! The one place that decides how a value is spelled in JSON and what
//! an absent key means.
//!
//! Every format this crate both writes and reads — run-directory files
//! and wire frames alike — is a `record!` row list in the module that
//! owns the struct: one row per key, in encode order, naming the key's
//! [`Codec`] and its presence rule. Encode and decode are both derived
//! from that list, so they cannot drift apart and bytes cannot reorder.
//!
//! The four presence rules, as written in a row:
//!
//! ```text
//! key: C;                 required
//! key: C = d;             `d` when absent or null
//! key: C = d, omit;       `d` when absent or null; not written when `d`
//! key: C = d, absent;     `d` when absent; null goes to the codec
//! ```
//!
//! Every decode error reads `<context> '<key>': expected <what>`; a
//! nested record prefixes its own context, giving a path to the key.
//! Checking that decoded values make *sense* (known names, ranges) is
//! each type's own post-decode step, not the codec's.

use std::marker::PhantomData;

use ga::{CrossoverKind, GeneKind};
use jit::Scenario;
use tuner::Goal;
use workloads::{DriftKind, DriftPos};

use crate::job::{goal_by_name, scenario_by_name, scenario_name};
use crate::json::{u64_from_json, u64_to_json, Json};

/// One value's JSON spelling.
pub trait Codec {
    /// The Rust value being spelled.
    type T;
    /// Completes the sentence "expected …" in decode errors.
    const WHAT: &'static str;
    /// Writes the value.
    fn enc(v: &Self::T) -> Json;
    /// Reads the value back.
    ///
    /// # Errors
    /// `expected <what>`, prefixed with the path to a nested key.
    fn dec(j: &Json) -> Result<Self::T, String>;
}

/// Decodes the value found under `key`, naming the key in the error.
fn at<C: Codec>(j: &Json, ctx: &str, key: &str) -> Result<C::T, String> {
    C::dec(j).map_err(|e| format!("{ctx} '{key}': {e}"))
}

/// A required key.
///
/// # Errors
/// The key is absent or its value does not decode.
pub fn required<C: Codec>(j: &Json, ctx: &str, key: &str) -> Result<C::T, String> {
    optional::<C>(j, ctx, key, true)?.ok_or_else(|| format!("{ctx} '{key}': expected {}", C::WHAT))
}

/// An optional key: `None` when absent (and, unless `null_is_a_value`,
/// when `null`), so the caller can substitute the row's default.
///
/// # Errors
/// The key is present and its value does not decode.
pub fn optional<C: Codec>(
    j: &Json,
    ctx: &str,
    key: &str,
    null_is_a_value: bool,
) -> Result<Option<C::T>, String> {
    match j.get(key) {
        None => Ok(None),
        Some(Json::Null) if !null_is_a_value => Ok(None),
        Some(x) => at::<C>(x, ctx, key).map(Some),
    }
}

/// Encodes an `f64` that may be non-finite (JSON has no literal for
/// those; `best_fitness` is `+inf` before the first generation).
#[must_use]
pub fn f64_to_json(x: f64) -> Json {
    if x.is_finite() {
        Json::Num(x)
    } else if x.is_nan() {
        Json::Str("nan".into())
    } else if x > 0.0 {
        Json::Str("inf".into())
    } else {
        Json::Str("-inf".into())
    }
}

/// Decodes [`f64_to_json`]'s encoding.
#[must_use]
pub fn f64_from_json(v: &Json) -> Option<f64> {
    match v {
        Json::Str(s) => match s.as_str() {
            "inf" => Some(f64::INFINITY),
            "-inf" => Some(f64::NEG_INFINITY),
            "nan" => Some(f64::NAN),
            _ => None,
        },
        _ => v.as_f64(),
    }
}

/// The scalar and fixed-shape encodings: per entry a unit type, its
/// value type, its "expected …" phrase, and the two directions.
macro_rules! leaves {
    ($($(#[$doc:meta])* $name:ident: $t:ty, $what:literal, $enc:expr, $dec:expr;)+) => {$(
        $(#[$doc])*
        pub struct $name;
        impl Codec for $name {
            type T = $t;
            const WHAT: &'static str = $what;
            fn enc(v: &$t) -> Json {
                let enc: fn(&$t) -> Json = $enc;
                enc(v)
            }
            fn dec(j: &Json) -> Result<$t, String> {
                let dec: fn(&Json) -> Option<$t> = $dec;
                dec(j).ok_or_else(|| concat!("expected ", $what).to_string())
            }
        }
    )+};
}

leaves! {
    /// A `usize` count or index, as a JSON integer.
    Int: usize, "a non-negative integer", |v| Json::Int(*v as i64), Json::as_usize;
    /// An `i64`, as a JSON integer.
    I64: i64, "an integer", |v| Json::Int(*v), Json::as_i64;
    /// A `u32`, as a JSON integer.
    U32: u32, "a 32-bit non-negative integer",
    |v| Json::Int(i64::from(*v)),
    |j| u32::try_from(j.as_u64()?).ok();
    /// A `u64`, as a decimal string so no reader clips it to 53 bits; a
    /// plain non-negative integer decodes too.
    U64: u64, "a u64 (decimal string or integer)", |v| u64_to_json(*v), u64_from_json;
    /// An `f64` that may be non-finite: `"inf"` / `"-inf"` / `"nan"`.
    F64: f64, "a number or \"inf\"/\"-inf\"/\"nan\"", |v| f64_to_json(*v), f64_from_json;
    /// A finite `f64`, as a plain JSON number.
    Num: f64, "a finite number", |v| Json::Num(*v), |j| j.as_f64().filter(|x| x.is_finite());
    /// A boolean.
    Bool: bool, "a boolean", |v| Json::Bool(*v), Json::as_bool;
    /// A string.
    Str: String, "a string", |v| Json::Str(v.clone()), |j| j.as_str().map(str::to_string);
    /// A genome: an array of integer genes.
    Genome: Vec<i64>, "an integer array",
    |g| Genome::of(g),
    |j| j.as_arr()?.iter().map(Json::as_i64).collect();
    /// One gene's inclusive `[lo,hi]` bounds.
    Bound: (i64, i64), "a [lo,hi] integer pair",
    |&(lo, hi)| Json::Arr(vec![Json::Int(lo), Json::Int(hi)]),
    |j| match j.as_arr()? {
        [lo, hi, ..] => Some((lo.as_i64()?, hi.as_i64()?)),
        _ => None,
    };
    /// A scored genome: `[genome, fitness]`.
    Scored: (Vec<i64>, f64), "a [genome,fitness] pair",
    |(g, f)| Json::Arr(vec![Genome::of(g), f64_to_json(*f)]),
    |j| match j.as_arr()? {
        [g, f, ..] => Some((Genome::dec(g).ok()?, f64_from_json(f)?)),
        _ => None,
    };
    /// Raw xoshiro256** state.
    RngState: [u64; 4], "4 u64 words",
    |s| Json::Arr(s.iter().map(|&w| u64_to_json(w)).collect()),
    |j| {
        let words: Option<Vec<u64>> = j.as_arr()?.iter().map(u64_from_json).collect();
        words?.try_into().ok()
    };
    /// A workload position: `[phase,num,den]`, a fraction `num/den < 1`
    /// of the way from `phase` to the next.
    Pos: DriftPos, "[phase,num,den] with num < den",
    |p| Json::Arr([p.phase, p.num, p.den].iter().map(U32::enc).collect()),
    |j| match j.as_arr()? {
        [phase, num, den] => {
            let pos = DriftPos {
                phase: U32::dec(phase).ok()?,
                num: U32::dec(num).ok()?,
                den: U32::dec(den).ok()?,
            };
            (pos.num < pos.den).then_some(pos)
        }
        _ => None,
    };
    /// Per-gene kinds as a code string, one char per gene (`"ibc…"`).
    Kinds: Vec<GeneKind>, "a string of gene-kind codes",
    |kinds| Json::Str(kinds.iter().map(|k| k.code()).collect()),
    |j| j.as_str()?.chars().map(GeneKind::from_code).collect();
    /// A compilation scenario, by wire name.
    ScenarioName: Scenario, "opt|adapt",
    |s| Json::Str(scenario_name(*s).into()),
    |j| scenario_by_name(j.as_str()?).ok();
    /// A tuning goal, by the paper's label.
    GoalName: Goal, "run|tot|bal",
    |g| Json::Str(g.label().into()),
    |j| goal_by_name(j.as_str()?).ok();
    /// A crossover operator, by name.
    Crossover: CrossoverKind, "one-point|two-point|uniform|mixed",
    |k| Json::Str(k.name().into()),
    |j| CrossoverKind::from_name(j.as_str()?);
    /// A drift-schedule shape, by name.
    Drift: DriftKind, "step|ramp|cyclic",
    |k| Json::Str(k.name().into()),
    |j| DriftKind::by_name(j.as_str()?);
}

impl Genome {
    /// The genome encoder for borrowed genes (encode-only response
    /// bodies hold slices, not `Vec`s).
    #[must_use]
    pub fn of(genes: &[i64]) -> Json {
        Json::Arr(genes.iter().map(|&g| Json::Int(g)).collect())
    }
}

/// An array of `X`.
pub struct List<X>(PhantomData<X>);

impl<X: Codec> Codec for List<X> {
    type T = Vec<X::T>;
    const WHAT: &'static str = "an array";
    fn enc(v: &Self::T) -> Json {
        Json::Arr(v.iter().map(X::enc).collect())
    }
    fn dec(j: &Json) -> Result<Self::T, String> {
        j.as_arr()
            .ok_or("expected an array")?
            .iter()
            .map(X::dec)
            .collect()
    }
}

/// `X`, or `null` for `None`.
pub struct Nullable<X>(PhantomData<X>);

impl<X: Codec> Codec for Nullable<X> {
    type T = Option<X::T>;
    const WHAT: &'static str = X::WHAT;
    fn enc(v: &Self::T) -> Json {
        v.as_ref().map_or(Json::Null, X::enc)
    }
    fn dec(j: &Json) -> Result<Self::T, String> {
        match j {
            Json::Null => Ok(None),
            _ => X::dec(j).map(Some),
        }
    }
}

/// An object whose keys are data (metric names), in order.
pub struct Map<X>(PhantomData<X>);

impl<X: Codec> Codec for Map<X> {
    type T = Vec<(String, X::T)>;
    const WHAT: &'static str = "an object";
    fn enc(v: &Self::T) -> Json {
        Json::Obj(v.iter().map(|(k, x)| (k.clone(), X::enc(x))).collect())
    }
    fn dec(j: &Json) -> Result<Self::T, String> {
        let Json::Obj(pairs) = j else {
            return Err("expected an object".into());
        };
        pairs
            .iter()
            .map(|(k, x)| Ok((k.clone(), at::<X>(x, "entry", k)?)))
            .collect()
    }
}

/// Declares a struct's (or tuple's) JSON object once: a unit type named
/// `$name` whose [`Codec`] impl encodes the rows in order and decodes
/// them by the presence rules in the module docs. A row's default may
/// name any earlier row. `$name::rows` gives the encoded pairs, for a
/// caller that wraps them (a tag, an envelope); `$name::DOC` is the
/// type's name and `[key, default, rule]` per optional row, which a
/// test holds the Formats table in DESIGN.md to.
macro_rules! record {
    ($(#[$doc:meta])* $vis:vis $name:ident: ($($t:ty),+) = $ctx:literal {
        $($f:ident: $c:ty $(= $d:expr $(, $rule:ident)?)?;)+
    }) => {
        record!(@impl $(#[$doc])* $vis $name, ($($t),+), $ctx, (($($f),+)),
            $($f: $c $(= $d $(, $rule)?)?;)+);
    };
    ($(#[$doc:meta])* $vis:vis $name:ident: $($t:ident)::+ = $ctx:literal {
        $($f:ident: $c:ty $(= $d:expr $(, $rule:ident)?)?;)+
    }) => {
        record!(@impl $(#[$doc])* $vis $name, $($t)::+, $ctx, ($($t)::+ { $($f),+ }),
            $($f: $c $(= $d $(, $rule)?)?;)+);
    };
    (@impl $(#[$doc:meta])* $vis:vis $name:ident, $t:ty, $ctx:literal, $shape:tt,
        $($f:ident: $c:ty $(= $d:expr $(, $rule:ident)?)?;)+) => {
        $(#[$doc])*
        $vis struct $name;
        #[allow(unused_parens)]
        impl $name {
            #[cfg(test)]
            #[allow(dead_code)] // read only for records that have optional rows
            $vis const DOC: (&'static str, &'static [[&'static str; 3]]) = (stringify!($t),
                &[$($([stringify!($f), stringify!($d), stringify!($($rule)?)],)?)+]);
            $vis fn rows(v: &$t) -> Vec<(&'static str, $crate::json::Json)> {
                let $shape = v;
                [$(record!(@put $f, $c $(, $d $(, $rule)?)?)),+].into_iter().flatten().collect()
            }
        }
        #[allow(unused_parens)]
        impl $crate::codec::Codec for $name {
            type T = $t;
            const WHAT: &'static str = "an object";
            fn enc(v: &$t) -> $crate::json::Json {
                $crate::json::Json::obj(Self::rows(v))
            }
            fn dec(j: &$crate::json::Json) -> Result<$t, String> {
                $(let $f = record!(@take j, $ctx, $f, $c $(, $d $(, $rule)?)?);)+
                Ok($shape)
            }
        }
    };
    (@put $f:ident, $c:ty, $d:expr, omit) => {
        (*$f != $d).then(|| record!(@pair $f, $c))
    };
    (@put $f:ident, $c:ty $(, $d:expr $(, absent)?)?) => {
        Some(record!(@pair $f, $c))
    };
    (@pair $f:ident, $c:ty) => {
        (stringify!($f), <$c as $crate::codec::Codec>::enc($f))
    };
    (@take $j:ident, $ctx:literal, $f:ident, $c:ty) => {
        $crate::codec::required::<$c>($j, $ctx, stringify!($f))?
    };
    (@take $j:ident, $ctx:literal, $f:ident, $c:ty, $d:expr $(, omit)?) => {
        $crate::codec::optional::<$c>($j, $ctx, stringify!($f), false)?.unwrap_or_else(|| $d)
    };
    (@take $j:ident, $ctx:literal, $f:ident, $c:ty, $d:expr, absent) => {
        $crate::codec::optional::<$c>($j, $ctx, stringify!($f), true)?.unwrap_or_else(|| $d)
    };
}
pub(crate) use record;
