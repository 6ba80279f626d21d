//! The artefact contract: each validated-and-diffed document kind has one
//! owner type, a `record!` whose fields are the document's keys in
//! emission order — one field table drives its emitter
//! ([`Schema::to_json`]) and decoder ([`Schema::from_json`]), and
//! [`Artifact::verify`] adds the identities the document promises:
//!
//! | artefact | owner |
//! |---|---|
//! | `BENCH_sweep.json` breakdowns | [`SweepBreakdowns`](crate::breakdown::SweepBreakdowns) |
//! | `HEATMAP_<preset>.json` | [`HeatmapDoc`](crate::attribution::HeatmapDoc) |
//! | `METRICS_<name>.json` | [`MetricsDoc`](crate::host::MetricsDoc) |
//!
//! `bench_check`, `sortmid-diff` and the regression gate all decode
//! through these types, and the differs in [`crate::diff`] compare the
//! decoded values. [`ArtifactKind::of`] is the one place an artefact's
//! kind is read, from its file name.

use sortmid_devharness::json::Json;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::Path;

/// A value with a JSON form.
pub trait Schema: Sized {
    /// The value as JSON.
    fn to_json(&self) -> Json;

    /// Decodes the value.
    ///
    /// # Errors
    ///
    /// Returns the path of the first missing, mistyped or overflowing
    /// field (e.g. `spans[3]: missing 'dur_ns'`).
    fn from_json(value: &Json) -> Result<Self, String>;

    /// The error for a record field of this type that is absent.
    fn missing(key: &str) -> String {
        format!("missing '{key}'")
    }
}

/// A decoded artefact document.
pub trait Artifact: Schema {
    /// Every violated identity of the document; empty when consistent.
    fn verify(&self) -> Vec<String>;
}

/// Declares a record: a struct whose fields emit and decode as a JSON
/// object with the same keys in declaration order, plus an optional
/// `check` the decoder applies to the decoded value. The using crate
/// needs `sortmid-devharness` (for its `Json`).
#[macro_export]
macro_rules! record {
    (
        $(#[$meta:meta])*
        pub struct $name:ident { $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)* }
        $(check $check:expr;)?
    ) => {
        $(#[$meta])*
        pub struct $name { $($(#[$fmeta])* pub $field: $ty,)* }

        impl $crate::artifact::Schema for $name {
            fn to_json(&self) -> ::sortmid_devharness::json::Json {
                ::sortmid_devharness::json::Json::obj([
                    $((stringify!($field), $crate::artifact::Schema::to_json(&self.$field)),)*
                ])
            }

            fn from_json(doc: &::sortmid_devharness::json::Json) -> Result<Self, String> {
                let value = $name {
                    $($field: $crate::artifact::member(doc, stringify!($field))?,)*
                };
                $(($check)(&value)?;)?
                Ok(value)
            }
        }
    };
}

/// Decodes the member `doc[key]`, naming `key` in any error.
///
/// # Errors
///
/// Returns the missing or mistyped path under `key`.
pub fn member<T: Schema>(doc: &Json, key: &str) -> Result<T, String> {
    let value = doc.get(key).ok_or_else(|| T::missing(key))?;
    T::from_json(value).map_err(|e| within(key, e))
}

/// Prefixes a decode error with one path segment (`spans`, `[3]`, ...).
fn within(segment: impl Display, e: String) -> String {
    if e.starts_with('[') {
        format!("{segment}{e}")
    } else {
        format!("{segment}: {e}")
    }
}

/// `Schema` for a JSON scalar: how to emit it, and how to read it back.
macro_rules! scalar {
    ($ty:ty, $what:literal, $emit:expr, $read:expr) => {
        impl Schema for $ty {
            fn to_json(&self) -> Json {
                $emit(self)
            }

            fn from_json(value: &Json) -> Result<$ty, String> {
                $read(value).ok_or_else(|| concat!("not ", $what).to_string())
            }
        }
    };
}

scalar!(u64, "an unsigned integer", |v: &u64| Json::U64(*v), Json::as_u64);
scalar!(usize, "an index", |v: &usize| Json::U64(*v as u64), |v: &Json| {
    v.as_u64()?.try_into().ok()
});
scalar!(i64, "an integer", |v: &i64| Json::I64(*v), Json::as_i64);
scalar!(bool, "a boolean", |v: &bool| Json::Bool(*v), Json::as_bool);
scalar!(f64, "a number", |v: &f64| Json::F64(*v), Json::as_f64);
scalar!(String, "a string", Json::str, |v: &Json| v.as_str().map(str::to_string));

/// `null` when absent.
impl<T: Schema> Schema for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }

    fn from_json(value: &Json) -> Result<Option<T>, String> {
        match value {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: Schema> Schema for Vec<T> {
    fn to_json(&self) -> Json {
        Json::arr(self.iter().map(T::to_json))
    }

    fn from_json(value: &Json) -> Result<Vec<T>, String> {
        value
            .as_arr()
            .ok_or("not an array")?
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| within(format_args!("[{i}]"), e)))
            .collect()
    }
}

/// A fixed-length array.
impl<const N: usize> Schema for [u64; N] {
    fn to_json(&self) -> Json {
        Json::arr(self.map(Json::U64))
    }

    fn from_json(value: &Json) -> Result<[u64; N], String> {
        let items: Vec<u64> = Schema::from_json(value)?;
        let len = items.len();
        items.try_into().map_err(|_| format!("expected {N} integers, found {len}"))
    }
}

/// A pair, as a two-element array.
impl<A: Schema, B: Schema> Schema for (A, B) {
    fn to_json(&self) -> Json {
        Json::arr([self.0.to_json(), self.1.to_json()])
    }

    fn from_json(value: &Json) -> Result<(A, B), String> {
        match value.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err("not a pair".to_string()),
        }
    }
}

/// An object keyed by name.
impl<T: Schema> Schema for BTreeMap<String, T> {
    fn to_json(&self) -> Json {
        Json::obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())))
    }

    fn from_json(value: &Json) -> Result<BTreeMap<String, T>, String> {
        let Json::Obj(members) = value else {
            return Err("not an object".to_string());
        };
        members
            .iter()
            .map(|(k, v)| {
                let v = T::from_json(v).map_err(|e| within(format_args!("['{k}']"), e))?;
                Ok((k.clone(), v))
            })
            .collect()
    }
}

/// The artefact families, named by their file-name prefix: `BENCH_`
/// suites (the `sweep` suite carries
/// [`SweepBreakdowns`](crate::breakdown::SweepBreakdowns)), `TRACE_`
/// Chrome-trace timelines, `HEATMAP_` spatial attribution, `METRICS_`
/// host profiles and `DIFF_` diffs and gate verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    Bench,
    Trace,
    Heatmap,
    Metrics,
    Diff,
}

impl ArtifactKind {
    /// The kind of the artefact file at `path` from its name
    /// (`BENCH_*.json`, `TRACE_*.json`, ...); `None` for any other file.
    pub fn of(path: &Path) -> Option<ArtifactKind> {
        let name = path.file_name()?.to_str()?.strip_suffix(".json")?;
        [
            ("BENCH_", ArtifactKind::Bench),
            ("TRACE_", ArtifactKind::Trace),
            ("HEATMAP_", ArtifactKind::Heatmap),
            ("METRICS_", ArtifactKind::Metrics),
            ("DIFF_", ArtifactKind::Diff),
        ]
        .into_iter()
        .find_map(|(prefix, kind)| name.starts_with(prefix).then_some(kind))
    }
}

/// Exact signed change `cur - base`.
///
/// # Errors
///
/// Names `what` when the change does not fit an `i64`.
pub(crate) fn delta(cur: u64, base: u64, what: impl Display) -> Result<i64, String> {
    i64::try_from(cur as i128 - base as i128)
        .map_err(|_| format!("{what}: delta {base} -> {cur} does not fit i64"))
}

/// Sum of `values`, `None` on `u64` overflow.
pub(crate) fn checked_sum(values: impl IntoIterator<Item = u64>) -> Option<u64> {
    values.into_iter().try_fold(0u64, u64::checked_add)
}

#[cfg(test)]
mod tests {
    use super::*;

    record! {
        /// A test record.
        #[derive(Debug, PartialEq)]
        pub struct Row {
            pub name: String,
            pub parent: Option<u64>,
            pub cells: Vec<[u64; 2]>,
        }
        check |r: &Row| if r.name.is_empty() { Err("empty name".to_string()) } else { Ok(()) };
    }

    #[test]
    fn kind_comes_from_the_file_name_prefix() {
        let kind = |p: &str| ArtifactKind::of(Path::new(p));
        assert_eq!(kind("BENCH_baseline.json"), Some(ArtifactKind::Bench));
        assert_eq!(kind("out/HEATMAP_tiny.json"), Some(ArtifactKind::Heatmap));
        assert_eq!(kind("METRICS_sweep.json"), Some(ArtifactKind::Metrics));
        assert_eq!(kind("TRACE_tiny.json"), Some(ArtifactKind::Trace));
        assert_eq!(kind("DIFF_gate.json"), Some(ArtifactKind::Diff));
        assert_eq!(kind("BENCHMARK.json"), None);
        assert_eq!(kind("BENCH_sweep.ppm"), None);
    }

    #[test]
    fn delta_names_the_field_when_it_does_not_fit() {
        assert_eq!(delta(5, 7, "x"), Ok(-2));
        let e = delta(u64::MAX, 0, "counter 'c'").unwrap_err();
        assert!(e.contains("counter 'c'") && e.contains("does not fit i64"), "{e}");
        assert_eq!(checked_sum([u64::MAX, 1]), None);
    }

    #[test]
    fn records_round_trip_and_name_the_failing_path() {
        let text = r#"{"name":"a","parent":null,"cells":[[1,2],[3,4]]}"#;
        let row = Row::from_json(&Json::parse(text).unwrap()).unwrap();
        assert_eq!(row.cells, vec![[1, 2], [3, 4]]);
        assert_eq!(row.to_json().render(), text);
        let err = |text: &str| Row::from_json(&Json::parse(text).unwrap()).unwrap_err();
        assert_eq!(err(r#"{"name":"a","parent":1}"#), "missing 'cells'");
        assert_eq!(
            err(r#"{"name":"a","parent":-1,"cells":[]}"#),
            "parent: not an unsigned integer"
        );
        assert_eq!(
            err(r#"{"name":"a","parent":1,"cells":[[1,2],[3]]}"#),
            "cells[1]: expected 2 integers, found 1"
        );
        assert_eq!(err(r#"{"name":"","parent":1,"cells":[]}"#), "empty name");
    }
}
