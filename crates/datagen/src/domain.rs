//! Dictionary encoding for nominal columns drawn from small integer domains.
//!
//! The synthetic generators pick every nominal value as an id in a fixed
//! domain (carrier `0..14`, airport `0..120`, …) and render it as a label
//! (`"C03"`, `"A017"`, …). [`DomainCodes`] memoizes the id → code mapping,
//! so each label is formatted and interned once, on first sight, and every
//! later row costs one array load. Codes follow first-seen order, exactly as
//! [`Dictionary::intern`] would assign them row by row.

use idebench_storage::{Column, Dictionary};
use std::sync::Arc;

/// Marks a domain id that has not been seen yet.
const UNSEEN: u32 = u32::MAX;

/// A nominal column under construction, over the ids `0..domain`.
pub(crate) struct DomainCodes {
    codes: Vec<u32>,
    code_of: Vec<u32>,
    dict: Dictionary,
    label: fn(usize) -> String,
}

impl DomainCodes {
    /// An empty column over `domain` ids with room for `rows` rows;
    /// `label` renders an id as its category string.
    pub(crate) fn new(domain: usize, rows: usize, label: fn(usize) -> String) -> Self {
        DomainCodes {
            codes: Vec::with_capacity(rows),
            code_of: vec![UNSEEN; domain],
            dict: Dictionary::new(),
            label,
        }
    }

    /// Appends one row holding domain id `id`.
    #[inline]
    pub(crate) fn push(&mut self, id: usize) {
        let mut code = self.code_of[id];
        if code == UNSEEN {
            code = self.dict.intern(&(self.label)(id));
            self.code_of[id] = code;
        }
        self.codes.push(code);
    }

    /// The finished, fully valid nominal column.
    pub(crate) fn finish(self) -> Column {
        Column::nominal(self.codes, Arc::new(self.dict))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_follow_first_seen_order() {
        let mut col = DomainCodes::new(5, 6, |i| format!("X{i}"));
        for id in [3, 1, 3, 4, 1, 0] {
            col.push(id);
        }
        let col = col.finish();
        let (codes, dict) = col.as_nominal().unwrap();
        assert_eq!(codes, &[0, 1, 0, 2, 1, 3]);
        assert_eq!(dict.values(), &["X3", "X1", "X4", "X0"]);
    }
}
