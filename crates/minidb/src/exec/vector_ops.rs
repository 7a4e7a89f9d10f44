//! Selection bitmaps and specialized batch kernels for built-in scalars.
//!
//! A [`Bitmap`] marks which lanes of a batch are still live; operators
//! narrow it instead of copying survivors, so a filtered batch keeps its
//! column vectors untouched. The kernels here replace the generic
//! per-row overload dispatch for the hottest built-in shapes (integer
//! comparisons against a constant probe, the E9 point-selection pattern)
//! with tight loops over the column storage.

use crate::catalog::{BatchFnImpl, BinaryOp, ExecCtx, ScalarFnImpl};
use crate::value::Value;
use std::sync::Arc;

use super::batch::Vector;

/// A fixed-length selection bitmap over the lanes of one batch.
#[derive(Debug, Clone)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All lanes selected.
    pub fn all(len: usize) -> Bitmap {
        let full_words = len / 64;
        let mut words = vec![u64::MAX; full_words];
        let rem = len % 64;
        if rem > 0 {
            words.push((1u64 << rem) - 1);
        }
        Bitmap { words, len }
    }

    /// No lanes selected.
    pub fn none(len: usize) -> Bitmap {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of lanes (selected or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no lanes exist at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is lane `i` selected?
    pub fn is_set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Selects lane `i`.
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Deselects lane `i`.
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Number of selected lanes (popcount).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when at least one lane is selected.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Narrows to the intersection with `other`.
    pub fn intersect(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// Iterates selected lane indexes in ascending order, skipping whole
    /// empty words.
    pub fn iter(&self) -> BitmapIter<'_> {
        BitmapIter {
            words: &self.words,
            word_ix: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over the set bits of a [`Bitmap`].
pub struct BitmapIter<'a> {
    words: &'a [u64],
    word_ix: usize,
    current: u64,
}

impl Iterator for BitmapIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_ix += 1;
            if self.word_ix >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_ix];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // drop lowest set bit
        Some(self.word_ix * 64 + bit)
    }
}

/// Wraps a row-at-a-time scalar into a batch kernel: strict NULL
/// handling per lane, evaluation only on selected lanes. It is the batch
/// form `FunctionOverload::new` and `OperatorOverload::new` give an
/// overload that has no hand-written kernel, so every scalar application
/// evaluates a column at a time.
pub fn elementwise(f: ScalarFnImpl) -> BatchFnImpl {
    Arc::new(
        move |ctx: &ExecCtx, args: &[Vector], sel: &Bitmap, len: usize| {
            let mut out = vec![Value::Null; len];
            let mut buf: Vec<Value> = Vec::with_capacity(args.len());
            'lanes: for i in sel.iter() {
                buf.clear();
                for a in args {
                    let v = a.get(i);
                    if v.is_null() {
                        continue 'lanes; // strict semantics: stays NULL
                    }
                    buf.push(v.clone());
                }
                out[i] = f(ctx, &buf)?;
            }
            Ok(Vector::vals(out))
        },
    )
}

/// Built-in comparison kernel: no argument buffer, no overload dispatch,
/// no `Value` cloning — integers compare inline, every other built-in
/// pairing through `cmp_ordering`, exactly as its scalar overload does.
pub(crate) fn cmp_kernel(op: BinaryOp) -> BatchFnImpl {
    Arc::new(
        move |_ctx: &ExecCtx, args: &[Vector], sel: &Bitmap, len: usize| {
            let mut out = vec![Value::Null; len];
            for i in sel.iter() {
                out[i] = match (args[0].get(i), args[1].get(i)) {
                    (Value::Int(x), Value::Int(y)) => Value::Bool(op.holds(x.cmp(y))),
                    (Value::Null, _) | (_, Value::Null) => Value::Null,
                    (a, b) => Value::Bool(op.holds(a.cmp_ordering(b))),
                };
            }
            Ok(Vector::vals(out))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_all_none_count() {
        let b = Bitmap::all(130);
        assert_eq!(b.count(), 130);
        assert!(b.any());
        let n = Bitmap::none(130);
        assert_eq!(n.count(), 0);
        assert!(!n.any());
        assert_eq!(Bitmap::all(0).count(), 0);
        assert_eq!(Bitmap::all(64).count(), 64);
    }

    #[test]
    fn bitmap_iter_skips_cleared() {
        let mut b = Bitmap::all(200);
        for i in 0..200 {
            if i % 3 != 0 {
                b.clear(i);
            }
        }
        let got: Vec<usize> = b.iter().collect();
        let want: Vec<usize> = (0..200).filter(|i| i % 3 == 0).collect();
        assert_eq!(got, want);
        assert_eq!(b.count(), want.len());
    }

    #[test]
    fn bitmap_intersect() {
        let mut a = Bitmap::all(100);
        let mut b = Bitmap::none(100);
        b.set(3);
        b.set(99);
        a.intersect(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 99]);
    }
}
