//! User-defined functions (black boxes).
//!
//! "It may not be possible to completely expose the functionality of a
//! module using Pig Latin … In this case, coarse-grained provenance must
//! be assumed for the UDF portion" (§1). A UDF is an opaque Rust
//! closure; the engine records a black-box provenance node over the
//! UDF's inputs, exactly as the paper prescribes for `CalcBid`.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lipstick_nrel::{Schema, Value};

use crate::error::{PigError, Result};

/// The UDF implementation signature: values in, one value out (commonly
/// a [`lipstick_nrel::Bag`] that the caller FLATTENs).
pub type UdfFn = dyn Fn(&[Value]) -> std::result::Result<Value, String> + Send + Sync;

/// A registered UDF.
pub struct UdfDef {
    /// Name used in Pig Latin scripts (case-sensitive).
    pub name: String,
    /// If true the black-box node is a v-node (the UDF computes a value
    /// embedded in tuples, like `CalcBid`'s bid amount); if false it is
    /// a p-node (the UDF derives tuples).
    pub returns_value: bool,
    /// Schema of the tuples inside a returned bag, used by the planner
    /// to type `FLATTEN(udf(…))` output.
    pub output_schema: Option<Schema>,
    func: Box<UdfFn>,
}

impl UdfDef {
    /// Invoke the UDF.
    pub fn call(&self, args: &[Value]) -> Result<Value> {
        (self.func)(args).map_err(|message| PigError::Udf {
            name: self.name.clone(),
            message,
        })
    }
}

impl fmt::Debug for UdfDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UdfDef")
            .field("name", &self.name)
            .field("returns_value", &self.returns_value)
            .field("output_schema", &self.output_schema)
            .finish_non_exhaustive()
    }
}

/// Registry of UDFs available to a program.
///
/// A compiled plan depends on the UDF names, kinds and output schemas it
/// was compiled against, so every registry carries an [`id`]: unique in
/// the process, drawn at creation and drawn again by every
/// [`register`]. Two registries never share an id, and an id is never
/// reused, so a plan cache keyed on it cannot serve a stale plan.
///
/// [`id`]: UdfRegistry::id
/// [`register`]: UdfRegistry::register
#[derive(Debug)]
pub struct UdfRegistry {
    map: HashMap<String, Arc<UdfDef>>,
    id: u64,
}

/// Source of registry ids. `Relaxed` suffices: an id publishes no other
/// data, and `fetch_add` alone makes each one unique.
fn next_registry_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Default for UdfRegistry {
    fn default() -> Self {
        UdfRegistry {
            map: HashMap::new(),
            id: next_registry_id(),
        }
    }
}

impl UdfRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        UdfRegistry::default()
    }

    /// This registry's identity: the same value for as long as its
    /// definitions stay as they are.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Register a UDF. Re-registering a name replaces the previous
    /// definition. Either way the registry gets a fresh [`id`](Self::id).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        returns_value: bool,
        output_schema: Option<Schema>,
        func: impl Fn(&[Value]) -> std::result::Result<Value, String> + Send + Sync + 'static,
    ) {
        let name = name.into();
        self.map.insert(
            name.clone(),
            Arc::new(UdfDef {
                name,
                returns_value,
                output_schema,
                func: Box::new(func),
            }),
        );
        self.id = next_registry_id();
    }

    /// Look up a UDF by name.
    pub fn get(&self, name: &str) -> Result<&Arc<UdfDef>> {
        self.map
            .get(name)
            .ok_or_else(|| PigError::UnknownUdf(name.to_string()))
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.map.keys().map(String::as_str).collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lipstick_nrel::{bag, tuple, DataType};

    #[test]
    fn register_and_call() {
        let mut reg = UdfRegistry::new();
        reg.register("Double", true, None, |args| {
            let v = args[0].as_f64().map_err(|e| e.to_string())?;
            Ok(Value::Float(v * 2.0))
        });
        let udf = reg.get("Double").unwrap();
        assert_eq!(udf.call(&[Value::Int(4)]).unwrap(), Value::Float(8.0));
    }

    #[test]
    fn udf_errors_are_wrapped() {
        let mut reg = UdfRegistry::new();
        reg.register("Boom", false, None, |_| Err("kaput".to_string()));
        let err = reg.get("Boom").unwrap().call(&[]).unwrap_err();
        assert!(matches!(err, PigError::Udf { ref name, .. } if name == "Boom"));
        assert!(err.to_string().contains("kaput"));
    }

    #[test]
    fn unknown_udf() {
        let reg = UdfRegistry::new();
        assert!(matches!(
            reg.get("Nope"),
            Err(PigError::UnknownUdf(ref n)) if n == "Nope"
        ));
    }

    #[test]
    fn declared_schema_is_preserved() {
        let mut reg = UdfRegistry::new();
        let schema = Schema::named(&[("BidId", DataType::Str), ("Amount", DataType::Float)]);
        reg.register("CalcBid", true, Some(schema.clone()), |_| {
            Ok(Value::Bag(bag![tuple!["B1", 20_000.0f64]]))
        });
        assert_eq!(
            reg.get("CalcBid").unwrap().output_schema.as_ref(),
            Some(&schema)
        );
    }

    #[test]
    fn ids_are_unique_and_change_on_register() {
        let mut a = UdfRegistry::new();
        let b = UdfRegistry::default();
        assert_ne!(a.id(), b.id());
        let before = a.id();
        a.register("f", true, None, |_| Ok(Value::Null));
        assert_ne!(a.id(), before);
        assert_ne!(a.id(), b.id());
        assert_eq!(a.id(), a.id());
    }

    #[test]
    fn names_are_sorted() {
        let mut reg = UdfRegistry::new();
        reg.register("b", true, None, |_| Ok(Value::Null));
        reg.register("a", true, None, |_| Ok(Value::Null));
        assert_eq!(reg.names(), vec!["a", "b"]);
    }
}
