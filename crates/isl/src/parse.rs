//! Parser for the ISL-style textual notation used throughout the paper,
//! e.g.:
//!
//! ```text
//! { S[i,j,k] -> PE[i mod 8, j mod 8] : 0 <= i < 64 and 0 <= j < 64 }
//! { S[k,c,ox,oy,rx,ry] -> T[floor(k/8), floor(c/8), oy, k mod 8 + c mod 8 + ox] }
//! ```
//!
//! Supported expressions are integer-affine combinations of dimensions plus
//! `floor(e / d)` (alias `fl(e / d)`) and `e mod d` / `e % d` with positive
//! literal divisors. Conditions are comparison chains joined by `and`, with
//! `or` and `;` producing unions.

use crate::basic::BasicMap;
use crate::map::Map;
use crate::set::Set;
use crate::space::{Space, Tuple};
use crate::{Error, Result};
use std::collections::HashMap;

// ---------------------------------------------------------------- lexer --

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    LBrace,
    RBrace,
    LBrack,
    RBrack,
    LParen,
    RParen,
    Comma,
    Arrow,
    Colon,
    Semi,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Lt,
    Le,
    EqEq,
    Ge,
    Gt,
    And,
    Or,
    Mod,
    Floor,
}

fn lex(text: &str) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let bytes: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '{' => {
                out.push(Tok::LBrace);
                i += 1;
            }
            '}' => {
                out.push(Tok::RBrace);
                i += 1;
            }
            '[' => {
                out.push(Tok::LBrack);
                i += 1;
            }
            ']' => {
                out.push(Tok::RBrack);
                i += 1;
            }
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            ',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            ':' => {
                out.push(Tok::Colon);
                i += 1;
            }
            ';' => {
                out.push(Tok::Semi);
                i += 1;
            }
            '+' => {
                out.push(Tok::Plus);
                i += 1;
            }
            '*' => {
                out.push(Tok::Star);
                i += 1;
            }
            '/' => {
                out.push(Tok::Slash);
                i += 1;
            }
            '%' => {
                out.push(Tok::Percent);
                i += 1;
            }
            '-' => {
                if i + 1 < bytes.len() && bytes[i + 1] == '>' {
                    out.push(Tok::Arrow);
                    i += 2;
                } else {
                    out.push(Tok::Minus);
                    i += 1;
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == '=' {
                    out.push(Tok::Le);
                    i += 2;
                } else {
                    out.push(Tok::Lt);
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == '=' {
                    out.push(Tok::Ge);
                    i += 2;
                } else {
                    out.push(Tok::Gt);
                    i += 1;
                }
            }
            '=' => {
                if i + 1 < bytes.len() && bytes[i + 1] == '=' {
                    i += 2;
                } else {
                    i += 1;
                }
                out.push(Tok::EqEq);
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let s: String = bytes[start..i].iter().collect();
                let v: i64 = s
                    .parse()
                    .map_err(|_| Error::Parse(format!("integer literal out of range: {s}")))?;
                out.push(Tok::Int(v));
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_' || bytes[i] == '\'')
                {
                    i += 1;
                }
                let s: String = bytes[start..i].iter().collect();
                match s.as_str() {
                    "and" => out.push(Tok::And),
                    "or" => out.push(Tok::Or),
                    "mod" => out.push(Tok::Mod),
                    "floor" | "fl" | "floord" => out.push(Tok::Floor),
                    _ => out.push(Tok::Ident(s)),
                }
            }
            _ => return Err(Error::Parse(format!("unexpected character `{c}`"))),
        }
    }
    Ok(out)
}

// ----------------------------------------------------------------- AST ---

#[derive(Debug, Clone)]
enum EAst {
    Int(i64),
    Var(String),
    Neg(Box<EAst>),
    Add(Box<EAst>, Box<EAst>),
    Sub(Box<EAst>, Box<EAst>),
    Mul(Box<EAst>, Box<EAst>),
    Floor(Box<EAst>, Box<EAst>),
    Mod(Box<EAst>, Box<EAst>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmp {
    Lt,
    Le,
    Eq,
    Ge,
    Gt,
}

#[derive(Debug, Clone)]
struct Chain {
    items: Vec<EAst>,
    ops: Vec<Cmp>,
}

/// One `or`-branch: a conjunction of chains.
type Conj = Vec<Chain>;

#[derive(Debug, Clone)]
struct DisjunctAst {
    in_tuple: Option<(Option<String>, Vec<EAst>)>,
    out_tuple: (Option<String>, Vec<EAst>),
    branches: Vec<Conj>, // at least one (empty = no condition)
}

// --------------------------------------------------------------- parser --

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| Error::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, t: Tok) -> Result<()> {
        let got = self.next()?;
        if got != t {
            return Err(Error::Parse(format!("expected {t:?}, found {got:?}")));
        }
        Ok(())
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_relation(&mut self) -> Result<Vec<DisjunctAst>> {
        self.expect(Tok::LBrace)?;
        let mut out = Vec::new();
        loop {
            out.push(self.parse_disjunct()?);
            if self.eat(&Tok::Semi) {
                continue;
            }
            break;
        }
        self.expect(Tok::RBrace)?;
        if self.pos != self.toks.len() {
            return Err(Error::Parse("trailing input after `}`".into()));
        }
        Ok(out)
    }

    fn parse_disjunct(&mut self) -> Result<DisjunctAst> {
        let first = self.parse_tuple()?;
        let (in_tuple, out_tuple) = if self.eat(&Tok::Arrow) {
            let second = self.parse_tuple()?;
            (Some(first), second)
        } else {
            (None, first)
        };
        let mut branches = vec![Vec::new()];
        if self.eat(&Tok::Colon) {
            branches = self.parse_or()?;
        }
        Ok(DisjunctAst {
            in_tuple,
            out_tuple,
            branches,
        })
    }

    fn parse_tuple(&mut self) -> Result<(Option<String>, Vec<EAst>)> {
        let name = match self.peek() {
            Some(Tok::Ident(_)) => {
                if let Tok::Ident(n) = self.next()? {
                    Some(n)
                } else {
                    unreachable!()
                }
            }
            _ => None,
        };
        self.expect(Tok::LBrack)?;
        let mut entries = Vec::new();
        if self.peek() != Some(&Tok::RBrack) {
            loop {
                entries.push(self.parse_expr()?);
                if self.eat(&Tok::Comma) {
                    continue;
                }
                break;
            }
        }
        self.expect(Tok::RBrack)?;
        Ok((name, entries))
    }

    fn parse_or(&mut self) -> Result<Vec<Conj>> {
        let mut out = vec![self.parse_and()?];
        while self.eat(&Tok::Or) {
            out.push(self.parse_and()?);
        }
        Ok(out)
    }

    fn parse_and(&mut self) -> Result<Conj> {
        let mut out = vec![self.parse_chain()?];
        while self.eat(&Tok::And) {
            out.push(self.parse_chain()?);
        }
        Ok(out)
    }

    fn parse_chain(&mut self) -> Result<Chain> {
        let mut items = vec![self.parse_expr()?];
        let mut ops = Vec::new();
        loop {
            let op = match self.peek() {
                Some(Tok::Lt) => Cmp::Lt,
                Some(Tok::Le) => Cmp::Le,
                Some(Tok::EqEq) => Cmp::Eq,
                Some(Tok::Ge) => Cmp::Ge,
                Some(Tok::Gt) => Cmp::Gt,
                _ => break,
            };
            self.pos += 1;
            ops.push(op);
            items.push(self.parse_expr()?);
        }
        if ops.is_empty() {
            return Err(Error::Parse("expected a comparison operator".into()));
        }
        Ok(Chain { items, ops })
    }

    fn parse_expr(&mut self) -> Result<EAst> {
        let mut lhs = self.parse_term()?;
        loop {
            if self.eat(&Tok::Plus) {
                let rhs = self.parse_term()?;
                lhs = EAst::Add(Box::new(lhs), Box::new(rhs));
            } else if self.eat(&Tok::Minus) {
                let rhs = self.parse_term()?;
                lhs = EAst::Sub(Box::new(lhs), Box::new(rhs));
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    fn parse_term(&mut self) -> Result<EAst> {
        let mut lhs = self.parse_postfix()?;
        loop {
            if self.eat(&Tok::Star) {
                let rhs = self.parse_postfix()?;
                lhs = EAst::Mul(Box::new(lhs), Box::new(rhs));
            } else if matches!(
                self.peek(),
                Some(Tok::Ident(_)) | Some(Tok::LParen) | Some(Tok::Floor)
            ) {
                // Implicit multiplication, e.g. `2 j` or `8 floor(i/8)`
                // as produced by ISL-style printers.
                let rhs = self.parse_postfix()?;
                lhs = EAst::Mul(Box::new(lhs), Box::new(rhs));
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    fn parse_postfix(&mut self) -> Result<EAst> {
        let mut e = self.parse_factor()?;
        loop {
            if self.eat(&Tok::Mod) || self.eat(&Tok::Percent) {
                let d = self.parse_factor()?;
                e = EAst::Mod(Box::new(e), Box::new(d));
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn parse_factor(&mut self) -> Result<EAst> {
        match self.next()? {
            Tok::Int(v) => Ok(EAst::Int(v)),
            Tok::Ident(n) => {
                // Implicit multiplication such as `2i` is not produced by
                // the lexer (it splits at the digit/alpha boundary), so an
                // identifier is always a plain variable here.
                Ok(EAst::Var(n))
            }
            Tok::Minus => Ok(EAst::Neg(Box::new(self.parse_factor()?))),
            Tok::LParen => {
                let e = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Floor => {
                self.expect(Tok::LParen)?;
                let num = self.parse_expr()?;
                self.expect(Tok::Slash)?;
                let den = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                Ok(EAst::Floor(Box::new(num), Box::new(den)))
            }
            t => Err(Error::Parse(format!(
                "unexpected token {t:?} in expression"
            ))),
        }
    }
}

// ----------------------------------------------------------- evaluation --

/// A linear expression over the visible dims and div indices of a basic map
/// under construction.
#[derive(Debug, Clone)]
struct Lin {
    vis: Vec<i64>,
    divs: Vec<(usize, i64)>, // (div index, coefficient)
    k: i64,
}

impl Lin {
    fn konst(n_vis: usize, v: i64) -> Lin {
        Lin {
            vis: vec![0; n_vis],
            divs: Vec::new(),
            k: v,
        }
    }

    fn var(n_vis: usize, col: usize) -> Lin {
        let mut vis = vec![0; n_vis];
        vis[col] = 1;
        Lin {
            vis,
            divs: Vec::new(),
            k: 0,
        }
    }

    fn as_const(&self) -> Option<i64> {
        if self.vis.iter().all(|&c| c == 0) && self.divs.is_empty() {
            Some(self.k)
        } else {
            None
        }
    }

    fn add(&self, other: &Lin, sign: i64) -> Result<Lin> {
        let mut vis = self.vis.clone();
        for (a, b) in vis.iter_mut().zip(other.vis.iter()) {
            *a = a
                .checked_add(sign.checked_mul(*b).ok_or(Error::Overflow)?)
                .ok_or(Error::Overflow)?;
        }
        let mut divs = self.divs.clone();
        for &(d, c) in &other.divs {
            match divs.iter_mut().find(|(dd, _)| *dd == d) {
                Some((_, cc)) => *cc += sign * c,
                None => divs.push((d, sign * c)),
            }
        }
        divs.retain(|&(_, c)| c != 0);
        Ok(Lin {
            vis,
            divs,
            k: self
                .k
                .checked_add(sign.checked_mul(other.k).ok_or(Error::Overflow)?)
                .ok_or(Error::Overflow)?,
        })
    }

    fn scale(&self, s: i64) -> Result<Lin> {
        let mut out = self.clone();
        for c in out.vis.iter_mut() {
            *c = c.checked_mul(s).ok_or(Error::Overflow)?;
        }
        for (_, c) in out.divs.iter_mut() {
            *c = c.checked_mul(s).ok_or(Error::Overflow)?;
        }
        out.k = out.k.checked_mul(s).ok_or(Error::Overflow)?;
        Ok(out)
    }

    fn to_row(&self, bm: &BasicMap) -> crate::basic::Row {
        let mut row = crate::basic::Row::zeros(bm.n_cols());
        row[..self.vis.len()].copy_from_slice(&self.vis);
        let div0 = bm.div0();
        for &(d, c) in &self.divs {
            row[div0 + d] = c;
        }
        let k = bm.konst();
        row[k] = self.k;
        row
    }
}

fn eval(ast: &EAst, bm: &mut BasicMap, dims: &HashMap<String, usize>) -> Result<Lin> {
    let n_vis = bm.div0();
    match ast {
        EAst::Int(v) => Ok(Lin::konst(n_vis, *v)),
        EAst::Var(n) => {
            let col = *dims
                .get(n)
                .ok_or_else(|| Error::Parse(format!("unknown dimension `{n}`")))?;
            Ok(Lin::var(n_vis, col))
        }
        EAst::Neg(e) => eval(e, bm, dims)?.scale(-1),
        EAst::Add(a, b) => {
            let la = eval(a, bm, dims)?;
            let lb = eval(b, bm, dims)?;
            la.add(&lb, 1)
        }
        EAst::Sub(a, b) => {
            let la = eval(a, bm, dims)?;
            let lb = eval(b, bm, dims)?;
            la.add(&lb, -1)
        }
        EAst::Mul(a, b) => {
            let la = eval(a, bm, dims)?;
            let lb = eval(b, bm, dims)?;
            match (la.as_const(), lb.as_const()) {
                (Some(c), _) => lb.scale(c),
                (_, Some(c)) => la.scale(c),
                _ => Err(Error::Parse(
                    "non-affine product of two non-constant expressions".into(),
                )),
            }
        }
        EAst::Floor(num, den) => {
            let lden = eval(den, bm, dims)?;
            let d = lden
                .as_const()
                .filter(|&d| d > 0)
                .ok_or_else(|| Error::Parse("floor divisor must be a positive constant".into()))?;
            let lnum = eval(num, bm, dims)?;
            let row = lnum.to_row(bm);
            let col = bm.add_div(row, d)?;
            let idx = col - bm.div0();
            Ok(Lin {
                vis: vec![0; n_vis],
                divs: vec![(idx, 1)],
                k: 0,
            })
        }
        EAst::Mod(num, den) => {
            let lden = eval(den, bm, dims)?;
            let d = lden
                .as_const()
                .filter(|&d| d > 0)
                .ok_or_else(|| Error::Parse("mod divisor must be a positive constant".into()))?;
            let lnum = eval(num, bm, dims)?;
            let row = lnum.to_row(bm);
            let col = bm.add_div(row, d)?;
            let idx = col - bm.div0();
            let q = Lin {
                vis: vec![0; n_vis],
                divs: vec![(idx, 1)],
                k: 0,
            };
            lnum.add(&q.scale(d)?, -1)
        }
    }
}

/// Builds the basic maps for one disjunct. The returned space `Arc` is
/// shared by every produced basic map.
fn build_disjunct(d: &DisjunctAst, is_map: bool) -> Result<(std::sync::Arc<Space>, Vec<BasicMap>)> {
    if is_map && d.in_tuple.is_none() {
        return Err(Error::Parse("expected a map (`->` missing)".into()));
    }
    if !is_map && d.in_tuple.is_some() {
        return Err(Error::Parse("expected a set, found a map".into()));
    }
    // Input dims must be plain fresh identifiers.
    let mut dims: HashMap<String, usize> = HashMap::new();
    let mut in_names = Vec::new();
    if let Some((_, entries)) = &d.in_tuple {
        for e in entries {
            match e {
                EAst::Var(n) if !dims.contains_key(n) => {
                    dims.insert(n.clone(), in_names.len());
                    in_names.push(n.clone());
                }
                _ => {
                    return Err(Error::Parse(
                        "input tuple entries must be distinct identifiers".into(),
                    ))
                }
            }
        }
    }
    // Output entries: fresh identifier -> named dim; otherwise anonymous
    // dim pinned by an equality.
    let n_in = in_names.len();
    let mut out_names = Vec::new();
    let mut pinned: Vec<(usize, EAst)> = Vec::new();
    for (i, e) in d.out_tuple.1.iter().enumerate() {
        match e {
            EAst::Var(n) if !dims.contains_key(n) => {
                dims.insert(n.clone(), n_in + out_names.len());
                out_names.push(n.clone());
            }
            _ => {
                let name = format!("_o{i}");
                dims.insert(name.clone(), n_in + out_names.len());
                out_names.push(name);
                pinned.push((i, e.clone()));
            }
        }
    }
    let space = std::sync::Arc::new(Space {
        input: Tuple {
            name: d.in_tuple.as_ref().and_then(|(n, _)| n.clone()),
            dims: in_names,
        },
        output: Tuple {
            name: d.out_tuple.0.clone(),
            dims: out_names,
        },
    });
    let mut base = BasicMap::universe(space.clone());
    for (i, e) in &pinned {
        let lin = eval(e, &mut base, &dims)?;
        let mut row = lin.to_row(&base);
        let col = n_in + i;
        row[col] -= 1; // out_col == expr  ->  expr - out_col == 0
        base.add_eq(row);
    }
    let mut basics = Vec::new();
    for branch in &d.branches {
        let mut bm = base.clone();
        for chain in branch {
            let mut lins = Vec::new();
            for item in &chain.items {
                lins.push(eval(item, &mut bm, &dims)?);
            }
            for (w, op) in chain.ops.iter().enumerate() {
                let a = &lins[w];
                let b = &lins[w + 1];
                match op {
                    Cmp::Eq => {
                        let row = b.add(a, -1)?.to_row(&bm);
                        bm.add_eq(row);
                    }
                    Cmp::Le => {
                        let row = b.add(a, -1)?.to_row(&bm);
                        bm.add_ineq(row);
                    }
                    Cmp::Lt => {
                        let mut row = b.add(a, -1)?.to_row(&bm);
                        let k = bm.konst();
                        row[k] -= 1;
                        bm.add_ineq(row);
                    }
                    Cmp::Ge => {
                        let row = a.add(b, -1)?.to_row(&bm);
                        bm.add_ineq(row);
                    }
                    Cmp::Gt => {
                        let mut row = a.add(b, -1)?.to_row(&bm);
                        let k = bm.konst();
                        row[k] -= 1;
                        bm.add_ineq(row);
                    }
                }
            }
        }
        if bm.simplify() {
            basics.push(bm);
        }
    }
    Ok((space, basics))
}

/// Parses a relation and unites its disjuncts (`;`-separated, each with
/// its `or` branches) in one pass with [`Map::union`]'s semantics, so no
/// prefix of the union goes through the memo; the whole parse result is
/// memoized by its text instead. `None` for no disjuncts.
fn parse_union(text: &str, is_map: bool) -> Result<Option<Map>> {
    let toks = lex(text)?;
    let mut p = Parser { toks, pos: 0 };
    let disjuncts = p.parse_relation()?;
    Map::union_of_parts(disjuncts.iter().map(|d| build_disjunct(d, is_map)))
}

pub(crate) fn parse_map(text: &str) -> Result<Map> {
    parse_union(text, true)?.ok_or_else(|| Error::Parse("empty relation".into()))
}

pub(crate) fn parse_set(text: &str) -> Result<Set> {
    let m = parse_union(text, false)?.ok_or_else(|| Error::Parse("empty set".into()))?;
    Set::try_from_map(m)
}

#[cfg(test)]
mod tests {
    use crate::{Map, Set};

    #[test]
    fn parse_simple_box() {
        let s = Set::parse("{ S[i, j] : 0 <= i < 4 and 0 <= j < 3 }").unwrap();
        assert_eq!(s.card().unwrap(), 12);
    }

    #[test]
    fn parse_chain_comparisons() {
        let s = Set::parse("{ A[i] : 0 <= i <= 9 }").unwrap();
        assert_eq!(s.card().unwrap(), 10);
    }

    #[test]
    fn parse_map_with_expressions() {
        let m = Map::parse("{ S[i, j] -> T[i + j] : 0 <= i < 2 and 0 <= j < 2 }").unwrap();
        assert!(m.contains_point(&[1, 1, 2]).unwrap());
        assert!(!m.contains_point(&[1, 1, 1]).unwrap());
    }

    #[test]
    fn parse_mod_and_floor() {
        let m = Map::parse("{ S[i] -> PE[i mod 8, floor(i/8)] : 0 <= i < 16 }").unwrap();
        assert!(m.contains_point(&[10, 2, 1]).unwrap());
        assert!(!m.contains_point(&[10, 3, 1]).unwrap());
        assert_eq!(m.card().unwrap(), 16);
    }

    #[test]
    fn parse_fl_alias_and_percent() {
        let m = Map::parse("{ S[i] -> PE[i % 4, fl(i/4)] : 0 <= i < 8 }").unwrap();
        assert!(m.contains_point(&[6, 2, 1]).unwrap());
    }

    #[test]
    fn parse_or_union() {
        let s = Set::parse("{ A[i] : 0 <= i < 2 or 10 <= i < 12 }").unwrap();
        assert_eq!(s.card().unwrap(), 4);
    }

    #[test]
    fn parse_semicolon_union() {
        let s = Set::parse("{ A[i] : 0 <= i < 2; A[i] : 5 <= i < 7 }").unwrap();
        assert_eq!(s.card().unwrap(), 4);
    }

    #[test]
    fn parse_coefficient_product() {
        let m = Map::parse("{ S[c, ry] -> PE[ry + 3*(c mod 4)] }").unwrap();
        assert!(m.contains_point(&[5, 2, 5]).unwrap()); // 2 + 3*1 = 5
    }

    #[test]
    fn parse_rejects_nonaffine() {
        assert!(Map::parse("{ S[i, j] -> T[i * j] }").is_err());
    }

    #[test]
    fn parse_rejects_unknown_dim() {
        assert!(Set::parse("{ A[i] : 0 <= z }").is_err());
    }

    #[test]
    fn parse_negative_and_parens() {
        let m = Map::parse("{ S[i] -> T[-(i - 3)] : 0 <= i < 4 }").unwrap();
        assert!(m.contains_point(&[0, 3]).unwrap());
        assert!(m.contains_point(&[3, 0]).unwrap());
    }

    #[test]
    fn parse_anonymous_tuple() {
        let s = Set::parse("{ [i] : 0 <= i < 5 }").unwrap();
        assert_eq!(s.card().unwrap(), 5);
    }

    #[test]
    fn out_dim_reusing_in_dim_name_is_equality() {
        // `i` on the right refers to the input dim -> equality constraint.
        let m = Map::parse("{ S[i] -> T[i] : 0 <= i < 3 }").unwrap();
        assert!(m.contains_point(&[2, 2]).unwrap());
        assert!(!m.contains_point(&[2, 1]).unwrap());
    }
}
