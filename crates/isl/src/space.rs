//! Spaces: named tuples describing the domain and range of a relation.
//!
//! [`BasicMap`](crate::BasicMap) and the value behind a
//! [`Map`](crate::Map) handle hold their space behind an `Arc`, so copying
//! a disjunct (which every splitting, subtracting and coalescing operation
//! does constantly) bumps a reference count instead of re-allocating the
//! dim-name strings. `Space` itself stays a plain value type: constructors
//! take it by value and wrap it; mutation inside the isl crate goes
//! through `Arc::make_mut` (clone-on-write).

use std::fmt;

/// A named tuple of dimensions, e.g. `S[i, j, k]` or `PE[p0, p1]`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Tuple {
    /// Optional tuple name (`S`, `PE`, ...). Anonymous tuples print as `[...]`.
    pub name: Option<String>,
    /// Dimension names, unique within the tuple.
    pub dims: Vec<String>,
}

impl Tuple {
    /// Creates a named tuple.
    ///
    /// ```
    /// let t = tenet_isl::Tuple::new("S", ["i", "j"]);
    /// assert_eq!(t.dims.len(), 2);
    /// ```
    pub fn new<N, D, I>(name: N, dims: I) -> Self
    where
        N: Into<String>,
        D: Into<String>,
        I: IntoIterator<Item = D>,
    {
        Tuple {
            name: Some(name.into()),
            dims: dims.into_iter().map(Into::into).collect(),
        }
    }

    /// Creates an anonymous tuple with the given dimension names.
    pub fn anon<D: Into<String>, I: IntoIterator<Item = D>>(dims: I) -> Self {
        Tuple {
            name: None,
            dims: dims.into_iter().map(Into::into).collect(),
        }
    }

    /// Number of dimensions in the tuple.
    pub fn len(&self) -> usize {
        self.dims.len()
    }

    /// Whether the tuple has zero dimensions.
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// Structural compatibility: same arity (names may differ).
    pub fn is_compatible(&self, other: &Tuple) -> bool {
        self.dims.len() == other.dims.len()
    }
}

// Hashing a tuple deliberately ignores the name strings: every fresh
// relation that reaches the memo table is hashed (once; its `Map` handle
// caches the hash), and hashing dimension names would dominate that walk.
// Equal tuples still hash equal (the contract), and the memo table always
// confirms candidates with full `Eq`, so same-arity tuples colliding
// costs at most a bucket walk.
impl std::hash::Hash for Tuple {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name.is_some().hash(state);
        self.dims.len().hash(state);
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(n) = &self.name {
            write!(f, "{n}")?;
        }
        write!(f, "[{}]", self.dims.join(", "))
    }
}

/// The space of a relation: an input tuple and an output tuple.
///
/// A *set* is represented as a relation with an empty input tuple.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Space {
    /// Domain tuple.
    pub input: Tuple,
    /// Range tuple.
    pub output: Tuple,
}

impl Space {
    /// A map space `input -> output`.
    pub fn map(input: Tuple, output: Tuple) -> Self {
        Space { input, output }
    }

    /// A set space (empty input tuple).
    pub fn set(tuple: Tuple) -> Self {
        Space {
            input: Tuple::default(),
            output: tuple,
        }
    }

    /// Number of input dimensions.
    pub fn n_in(&self) -> usize {
        self.input.len()
    }

    /// Number of output dimensions.
    pub fn n_out(&self) -> usize {
        self.output.len()
    }

    /// Structural compatibility: same arities on both sides.
    pub fn is_compatible(&self, other: &Space) -> bool {
        self.input.is_compatible(&other.input) && self.output.is_compatible(&other.output)
    }

    /// The reversed space (`output -> input`).
    pub fn reversed(&self) -> Space {
        Space {
            input: self.output.clone(),
            output: self.input.clone(),
        }
    }
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.input.is_empty() && self.input.name.is_none() {
            write!(f, "{}", self.output)
        } else {
            write!(f, "{} -> {}", self.input, self.output)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_display() {
        let t = Tuple::new("S", ["i", "j"]);
        assert_eq!(t.to_string(), "S[i, j]");
        let a = Tuple::anon(["x"]);
        assert_eq!(a.to_string(), "[x]");
    }

    #[test]
    fn space_reverse() {
        let s = Space::map(Tuple::new("S", ["i"]), Tuple::new("PE", ["p"]));
        let r = s.reversed();
        assert_eq!(r.input.name.as_deref(), Some("PE"));
        assert_eq!(r.output.name.as_deref(), Some("S"));
    }

    #[test]
    fn compatibility_ignores_names() {
        let a = Space::map(Tuple::new("S", ["i"]), Tuple::new("T", ["t"]));
        let b = Space::map(Tuple::new("X", ["a"]), Tuple::new("Y", ["b"]));
        assert!(a.is_compatible(&b));
    }
}
