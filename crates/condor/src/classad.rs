//! ClassAds: the attribute/requirement descriptions Condor uses for
//! both machines and jobs, with symmetric matchmaking.

use std::collections::BTreeMap;
use std::fmt;
use tdp_proto::{json_enum, json_struct};

/// A typed attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AdValue {
    Str(String),
    Int(i64),
    Bool(bool),
}

json_enum!(AdValue {
    Str(String),
    Int(i64),
    Bool(bool),
});

impl fmt::Display for AdValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdValue::Str(s) => write!(f, "{s}"),
            AdValue::Int(i) => write!(f, "{i}"),
            AdValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Comparison operator in a requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Eq,
    Ne,
    Ge,
    Le,
    Gt,
    Lt,
}

json_enum!(Op {
    Eq,
    Ne,
    Ge,
    Le,
    Gt,
    Lt
});

/// One constraint the *other* ad must satisfy, e.g. `Memory >= 512`.
#[derive(Debug, Clone, PartialEq)]
pub struct Requirement {
    pub attr: String,
    pub op: Op,
    pub value: AdValue,
}

json_struct!(Requirement { attr, op, value });

impl Requirement {
    /// Parse `Attr OP Value` (e.g. `Memory >= 512`, `Arch == "X86_64"`).
    pub fn parse(s: &str) -> Option<Requirement> {
        for (tok, op) in [
            ("==", Op::Eq),
            ("!=", Op::Ne),
            (">=", Op::Ge),
            ("<=", Op::Le),
            (">", Op::Gt),
            ("<", Op::Lt),
        ] {
            if let Some((lhs, rhs)) = s.split_once(tok) {
                let attr = lhs.trim().to_string();
                let raw = rhs.trim();
                if attr.is_empty() || raw.is_empty() {
                    return None;
                }
                let value = if let Ok(i) = raw.parse::<i64>() {
                    AdValue::Int(i)
                } else if raw.eq_ignore_ascii_case("true") {
                    AdValue::Bool(true)
                } else if raw.eq_ignore_ascii_case("false") {
                    AdValue::Bool(false)
                } else {
                    AdValue::Str(raw.trim_matches('"').to_string())
                };
                return Some(Requirement { attr, op, value });
            }
        }
        None
    }

    /// Does `ad` satisfy this requirement? Missing attributes never
    /// satisfy anything (undefined semantics).
    pub fn satisfied_by(&self, ad: &ClassAd) -> bool {
        let Some(actual) = ad.get(&self.attr) else {
            return false;
        };
        match (actual, &self.value) {
            (AdValue::Int(a), AdValue::Int(b)) => cmp_ord(self.op, a.cmp(b)),
            (AdValue::Str(a), AdValue::Str(b)) => cmp_ord(self.op, a.cmp(b)),
            (AdValue::Bool(a), AdValue::Bool(b)) => match self.op {
                Op::Eq => a == b,
                Op::Ne => a != b,
                _ => false,
            },
            _ => false, // type mismatch never matches
        }
    }
}

fn cmp_ord(op: Op, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    matches!(
        (op, ord),
        (Op::Eq, Equal)
            | (Op::Ne, Less)
            | (Op::Ne, Greater)
            | (Op::Ge, Equal)
            | (Op::Ge, Greater)
            | (Op::Le, Equal)
            | (Op::Le, Less)
            | (Op::Gt, Greater)
            | (Op::Lt, Less)
    )
}

/// An ad: attributes describing this entity plus requirements on (and a
/// rank over) the entity it is matched against.
///
/// ```
/// use tdp_condor::ClassAd;
/// let machine = ClassAd::new().with_int("Memory", 1024).with_str("Arch", "X86_64");
/// let job = ClassAd::new().require("Memory >= 512").rank_by("Memory");
/// assert!(job.matches(&machine));
/// assert_eq!(job.rank_of(&machine), 1024);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassAd {
    pub attrs: BTreeMap<String, AdValue>,
    /// Constraints the counterpart ad must satisfy.
    pub requirements: Vec<Requirement>,
    /// Attribute of the counterpart used as preference (higher wins).
    pub rank_attr: Option<String>,
}

json_struct!(ClassAd {
    attrs,
    requirements,
    rank_attr,
});

impl ClassAd {
    pub fn new() -> ClassAd {
        ClassAd::default()
    }

    pub fn with(mut self, attr: impl Into<String>, value: AdValue) -> ClassAd {
        self.attrs.insert(attr.into(), value);
        self
    }

    pub fn with_int(self, attr: impl Into<String>, v: i64) -> ClassAd {
        self.with(attr, AdValue::Int(v))
    }

    pub fn with_str(self, attr: impl Into<String>, v: impl Into<String>) -> ClassAd {
        self.with(attr, AdValue::Str(v.into()))
    }

    pub fn with_bool(self, attr: impl Into<String>, v: bool) -> ClassAd {
        self.with(attr, AdValue::Bool(v))
    }

    pub fn require(mut self, req: &str) -> ClassAd {
        if let Some(r) = Requirement::parse(req) {
            self.requirements.push(r);
        }
        self
    }

    pub fn rank_by(mut self, attr: impl Into<String>) -> ClassAd {
        self.rank_attr = Some(attr.into());
        self
    }

    pub fn get(&self, attr: &str) -> Option<&AdValue> {
        self.attrs.get(attr)
    }

    pub fn get_int(&self, attr: &str) -> Option<i64> {
        match self.attrs.get(attr) {
            Some(AdValue::Int(i)) => Some(*i),
            _ => None,
        }
    }

    pub fn get_str(&self, attr: &str) -> Option<&str> {
        match self.attrs.get(attr) {
            Some(AdValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Symmetric match: every requirement of each side is satisfied by
    /// the other side's attributes — Condor's two-party matchmaking.
    pub fn matches(&self, other: &ClassAd) -> bool {
        self.requirements.iter().all(|r| r.satisfied_by(other))
            && other.requirements.iter().all(|r| r.satisfied_by(self))
    }

    /// Rank of `other` from this ad's point of view (missing/non-int
    /// rank attribute = 0).
    pub fn rank_of(&self, other: &ClassAd) -> i64 {
        self.rank_attr
            .as_deref()
            .and_then(|a| other.get_int(a))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(mem: i64, arch: &str) -> ClassAd {
        ClassAd::new()
            .with_int("Memory", mem)
            .with_str("Arch", arch)
            .with_bool("HasTdp", true)
    }

    #[test]
    fn parse_requirements() {
        let r = Requirement::parse("Memory >= 512").unwrap();
        assert_eq!(r.attr, "Memory");
        assert_eq!(r.op, Op::Ge);
        assert_eq!(r.value, AdValue::Int(512));
        let r = Requirement::parse("Arch == \"X86_64\"").unwrap();
        assert_eq!(r.value, AdValue::Str("X86_64".into()));
        let r = Requirement::parse("HasTdp == true").unwrap();
        assert_eq!(r.value, AdValue::Bool(true));
        assert!(Requirement::parse("nonsense").is_none());
        assert!(Requirement::parse(">= 5").is_none());
    }

    #[test]
    fn requirement_satisfaction() {
        let m = machine(1024, "X86_64");
        assert!(Requirement::parse("Memory >= 512")
            .unwrap()
            .satisfied_by(&m));
        assert!(Requirement::parse("Memory >= 1024")
            .unwrap()
            .satisfied_by(&m));
        assert!(!Requirement::parse("Memory > 1024")
            .unwrap()
            .satisfied_by(&m));
        assert!(Requirement::parse("Arch == X86_64")
            .unwrap()
            .satisfied_by(&m));
        assert!(Requirement::parse("Arch != SPARC")
            .unwrap()
            .satisfied_by(&m));
        assert!(Requirement::parse("HasTdp == true")
            .unwrap()
            .satisfied_by(&m));
        // Missing attribute never satisfies.
        assert!(!Requirement::parse("Disk >= 1").unwrap().satisfied_by(&m));
        // Type mismatch never satisfies.
        assert!(!Requirement::parse("Memory == big")
            .unwrap()
            .satisfied_by(&m));
    }

    #[test]
    fn symmetric_match() {
        let job = ClassAd::new()
            .with_int("ImageSize", 100)
            .require("Memory >= 512");
        let m_ok = machine(1024, "X86_64");
        let m_small = machine(256, "X86_64");
        assert!(job.matches(&m_ok));
        assert!(!job.matches(&m_small));
        // The machine can also constrain the job.
        let picky = machine(1024, "X86_64").require("ImageSize <= 50");
        assert!(!job.matches(&picky));
    }

    #[test]
    fn rank_prefers_bigger() {
        let job = ClassAd::new().rank_by("Memory");
        assert_eq!(job.rank_of(&machine(1024, "A")), 1024);
        assert_eq!(job.rank_of(&machine(64, "A")), 64);
        let unranked = ClassAd::new();
        assert_eq!(unranked.rank_of(&machine(1024, "A")), 0);
    }

    #[test]
    fn json_roundtrip() {
        let ad = machine(512, "X86_64")
            .require("ImageSize <= 50")
            .rank_by("Prio");
        let json = tdp_proto::json::to_string(&ad).unwrap();
        let back: ClassAd = tdp_proto::json::from_str(&json).unwrap();
        assert_eq!(back, ad);
    }
}
