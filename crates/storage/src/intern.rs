//! String interning for dictionary-encoded categorical columns.
//!
//! A [`StringInterner`] maps each distinct string to a dense `u32`
//! code in first-occurrence order — the in-memory side of the
//! dictionary page encoding in [`crate::encoding`]. Producers intern
//! once per distinct value and push 4-byte codes per row instead of
//! allocating a `String` per row.

use std::collections::HashMap;

/// Dense first-occurrence string → `u32` code table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StringInterner {
    entries: Vec<String>,
    index: HashMap<String, u32>,
}

impl StringInterner {
    /// An empty interner.
    pub fn new() -> StringInterner {
        StringInterner::default()
    }

    /// Code for `s`, inserting it on first sight.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.index.get(s) {
            return code;
        }
        let code = self.entries.len() as u32;
        self.entries.push(s.to_string());
        self.index.insert(s.to_string(), code);
        code
    }

    /// Code for `s` if already interned.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// The string behind `code`.
    pub fn get(&self, code: u32) -> Option<&str> {
        self.entries.get(code as usize).map(String::as_str)
    }

    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The dictionary in code order (borrowed).
    pub fn entries(&self) -> &[String] {
        &self.entries
    }

    /// Consume the interner into its dictionary, in code order.
    pub fn into_dict(self) -> Vec<String> {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_dense_first_occurrence() {
        let mut i = StringInterner::new();
        assert_eq!(i.intern("b"), 0);
        assert_eq!(i.intern("a"), 1);
        assert_eq!(i.intern("b"), 0);
        assert_eq!(i.len(), 2);
        assert_eq!(i.get(1), Some("a"));
        assert_eq!(i.get(2), None);
        assert_eq!(i.lookup("a"), Some(1));
        assert_eq!(i.lookup("zzz"), None);
        assert_eq!(i.into_dict(), vec!["b".to_string(), "a".to_string()]);
    }
}
