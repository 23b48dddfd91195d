//! Return values and object identifiers.

use std::fmt;

use quorum::Configuration;

/// Identifier of a basic object (an element of the partition `O` of
/// accesses, paper §2.2).
///
/// In the replicated system **B** the data managers for all logical items
/// are objects; in the non-replicated system **A** each logical item is a
/// single object. Builders allocate these densely.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O{}", self.0)
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A value returned by a transaction — an element of the paper's value set
/// `V`, which includes the special undefined value `nil`.
///
/// The variants cover everything the workspace's algorithms pass around:
/// plain data (`Int`, `Text`, …), the data-manager domain `N × V`
/// ([`Value::Versioned`]), and the reconfigurable-DM domain carrying a
/// configuration and generation number ([`Value::RcVersioned`]).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Value {
    /// The undefined value `nil` (required to be in every domain `V_x`).
    #[default]
    Nil,
    /// A boolean.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// A string.
    Text(String),
    /// A sequence of values.
    Seq(Vec<Value>),
    /// A (version-number, value) pair — the domain `D_x = N × V_x` of a
    /// data manager (paper §3.1).
    Versioned {
        /// The version number.
        vn: u64,
        /// The associated value.
        value: Box<Value>,
    },
    /// A quorum configuration, as carried by reconfiguration operations.
    Config(Box<Configuration<ObjectId>>),
    /// The reconfigurable data-manager domain (paper §4): a value and
    /// version number plus a configuration and generation number.
    RcVersioned {
        /// The version number of the value.
        vn: u64,
        /// The data value.
        value: Box<Value>,
        /// The generation number of the configuration.
        gen: u64,
        /// The configuration.
        config: Box<Configuration<ObjectId>>,
    },
}

impl Value {
    /// Convenience constructor for [`Value::Versioned`].
    pub fn versioned(vn: u64, value: Value) -> Self {
        Value::Versioned {
            vn,
            value: Box::new(value),
        }
    }

    /// Convenience constructor for [`Value::RcVersioned`].
    pub fn rc_versioned(vn: u64, value: Value, gen: u64, config: Configuration<ObjectId>) -> Self {
        Value::RcVersioned {
            vn,
            value: Box::new(value),
            gen,
            config: Box::new(config),
        }
    }

    /// View as a `(version-number, value)` pair, if versioned.
    pub fn as_versioned(&self) -> Option<(u64, &Value)> {
        match self {
            Value::Versioned { vn, value } => Some((*vn, value)),
            _ => None,
        }
    }

    /// View as the reconfigurable tuple, if of that shape.
    pub fn as_rc_versioned(&self) -> Option<(u64, &Value, u64, &Configuration<ObjectId>)> {
        match self {
            Value::RcVersioned {
                vn,
                value,
                gen,
                config,
            } => Some((*vn, value, *gen, config)),
            _ => None,
        }
    }

    /// View as an integer, if `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Whether this is `nil`.
    pub fn is_nil(&self) -> bool {
        matches!(self, Value::Nil)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_owned())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Nil => write!(f, "nil"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(s) => write!(f, "{s:?}"),
            Value::Seq(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
            Value::Versioned { vn, value } => write!(f, "(vn={vn}, {value})"),
            Value::Config(_) => write!(f, "<config>"),
            Value::RcVersioned { vn, gen, value, .. } => {
                write!(f, "(vn={vn}, {value}, gen={gen}, <config>)")
            }
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versioned_accessors() {
        let v = Value::versioned(3, Value::Int(7));
        assert_eq!(v.as_versioned(), Some((3, &Value::Int(7))));
        assert_eq!(Value::Nil.as_versioned(), None);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5), Value::Int(5));
        assert_eq!(Value::from("x"), Value::Text("x".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert!(Value::default().is_nil());
    }

    #[test]
    fn ordering_is_total() {
        let mut vals = [
            Value::Int(2),
            Value::Nil,
            Value::versioned(1, Value::Nil),
            Value::Int(1),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Nil);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Nil.to_string(), "nil");
        assert_eq!(Value::versioned(2, Value::Int(9)).to_string(), "(vn=2, 9)");
        assert_eq!(
            Value::Seq(vec![Value::Int(1), Value::Nil]).to_string(),
            "[1, nil]"
        );
    }
}
