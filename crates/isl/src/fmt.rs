//! Pretty-printing of basic maps, maps, and sets in the same textual
//! notation accepted by the parser, so that printing and re-parsing
//! round-trips semantically.

use crate::basic::{BasicMap, Row};
use crate::map::Map;
use crate::set::Set;
use std::fmt;

/// Returns the display name of a visible variable column.
fn col_name(bm: &BasicMap, col: usize) -> String {
    let n_in = bm.n_in();
    if col < n_in {
        bm.space().input.dims[col].clone()
    } else {
        bm.space().output.dims[col - n_in].clone()
    }
}

/// Renders a div column as `floor((expr)/den)`.
fn div_expr(bm: &BasicMap, d: usize) -> String {
    let def = &bm.divs[d];
    format!("floor(({})/{})", expr(bm, &def.num), def.den)
}

/// Renders a row as an affine expression.
fn expr(bm: &BasicMap, row: &Row) -> String {
    let mut parts: Vec<String> = Vec::new();
    let div0 = bm.div0();
    let k = bm.konst();
    for (i, &c) in row.iter().enumerate() {
        if c == 0 || i == k {
            continue;
        }
        let name = if i < div0 {
            col_name(bm, i)
        } else {
            div_expr(bm, i - div0)
        };
        let term = match c {
            1 => name,
            -1 => format!("-{name}"),
            _ => format!("{c}*{name}"),
        };
        parts.push(term);
    }
    if row[k] != 0 || parts.is_empty() {
        parts.push(format!("{}", row[k]));
    }
    let mut out = String::new();
    for (i, p) in parts.iter().enumerate() {
        if i == 0 {
            out.push_str(p);
        } else if let Some(stripped) = p.strip_prefix('-') {
            out.push_str(" - ");
            out.push_str(stripped);
        } else {
            out.push_str(" + ");
            out.push_str(p);
        }
    }
    out
}

/// Renders the body (tuples and constraints) of one basic map.
fn body(bm: &BasicMap) -> String {
    let mut s = String::new();
    if bm.n_in() > 0 || bm.space().input.name.is_some() {
        s.push_str(&bm.space().input.to_string());
        s.push_str(" -> ");
    }
    s.push_str(&bm.space().output.to_string());
    let mut cons: Vec<String> = Vec::new();
    for r in &bm.eqs {
        cons.push(format!("{} = 0", expr(bm, r)));
    }
    for r in &bm.ineqs {
        cons.push(format!("{} >= 0", expr(bm, r)));
    }
    if !cons.is_empty() {
        s.push_str(" : ");
        s.push_str(&cons.join(" and "));
    }
    s
}

impl fmt::Display for BasicMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{ {} }}", body(self))
    }
}

impl fmt::Display for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.basics().is_empty() {
            // An empty relation: print an unsatisfiable constraint.
            return write!(f, "{{ {} : 1 = 0 }}", self.space().output);
        }
        let parts: Vec<String> = self.basics().iter().map(body).collect();
        write!(f, "{{ {} }}", parts.join("; "))
    }
}

impl fmt::Display for Set {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_map())
    }
}

#[cfg(test)]
mod tests {
    use crate::{Map, Set};

    #[test]
    fn roundtrip_box() {
        let s = Set::parse("{ S[i, j] : 0 <= i < 4 and 0 <= j < 3 }").unwrap();
        let printed = s.to_string();
        let re = Set::parse(&printed).unwrap();
        assert!(s.is_equal(&re).unwrap(), "printed: {printed}");
    }

    #[test]
    fn roundtrip_with_divs() {
        let m = Map::parse("{ S[i, j] -> PE[i mod 8, floor(j/4)] : 0 <= i < 16 and 0 <= j < 8 }")
            .unwrap();
        let printed = m.to_string();
        let re = Map::parse(&printed).unwrap();
        assert!(m.is_equal(&re).unwrap(), "printed: {printed}");
    }

    #[test]
    fn roundtrip_union() {
        let s = Set::parse("{ A[i] : 0 <= i < 2 or 5 <= i < 9 }").unwrap();
        let printed = s.to_string();
        let re = Set::parse(&printed).unwrap();
        assert!(s.is_equal(&re).unwrap(), "printed: {printed}");
    }

    #[test]
    fn empty_prints_unsat() {
        let s = Set::parse("{ A[i] : 0 <= i < 4 }").unwrap();
        let e = s.subtract(&s).unwrap();
        let printed = e.to_string();
        let re = Set::parse(&printed).unwrap();
        assert!(re.is_empty().unwrap(), "printed: {printed}");
    }
}
