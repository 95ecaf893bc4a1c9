//! One-hot encoding of categorical rows (§3.1, §4.2).
//!
//! Attributes and parameter values are categorical, so before a row reaches
//! a numeric learner it is expanded: an attribute with levels `{a, b, c}`
//! becomes three 0/1 columns, exactly one of which is set — "the sum of the
//! one-hot numeric array for a particular carrier should be equal to 1"
//! per attribute (§4.2).

/// Encoder from categorical rows (one `u16` level per column) to dense
/// `f64` one-hot feature vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneHotEncoder {
    /// Cardinality of each categorical column.
    cards: Vec<usize>,
    /// Starting output offset of each column's block.
    offsets: Vec<usize>,
    /// Total output width.
    width: usize,
}

impl OneHotEncoder {
    /// Creates an encoder for columns with the given cardinalities.
    ///
    /// # Panics
    /// Panics if any cardinality is zero.
    pub fn new(cards: Vec<usize>) -> Self {
        assert!(cards.iter().all(|&c| c > 0), "zero-cardinality column");
        let mut offsets = Vec::with_capacity(cards.len());
        let mut width = 0;
        for &c in &cards {
            offsets.push(width);
            width += c;
        }
        Self {
            cards,
            offsets,
            width,
        }
    }

    /// Infers column cardinalities from data (`max level + 1` per column).
    ///
    /// # Panics
    /// Panics if `rows` is empty or ragged.
    pub fn fit(rows: &[Vec<u16>]) -> Self {
        assert!(!rows.is_empty(), "cannot fit an encoder on no rows");
        let n_cols = rows[0].len();
        let mut cards = vec![1usize; n_cols];
        for row in rows {
            assert_eq!(row.len(), n_cols, "ragged categorical rows");
            for (card, &v) in cards.iter_mut().zip(row) {
                *card = (*card).max(v as usize + 1);
            }
        }
        Self::new(cards)
    }

    /// Output feature-vector width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Cardinality of input column `i`.
    pub fn cardinality(&self, i: usize) -> usize {
        self.cards[i]
    }

    /// Encodes one categorical row into a fresh one-hot vector.
    ///
    /// # Panics
    /// Panics if the row is the wrong length or a level is out of range.
    pub fn encode(&self, row: &[u16]) -> Vec<f64> {
        let mut out = vec![0.0; self.width];
        self.encode_into(row, &mut out);
        out
    }

    /// Encodes into a caller-provided buffer of exactly [`width`] zeros or
    /// stale values (the buffer is fully overwritten).
    ///
    /// [`width`]: OneHotEncoder::width
    pub fn encode_into(&self, row: &[u16], out: &mut [f64]) {
        assert_eq!(row.len(), self.cards.len(), "row has wrong column count");
        assert_eq!(out.len(), self.width, "output buffer has wrong width");
        out.fill(0.0);
        for (i, &v) in row.iter().enumerate() {
            assert!(
                (v as usize) < self.cards[i],
                "level {v} out of range for column {i} (cardinality {})",
                self.cards[i]
            );
            out[self.offsets[i] + v as usize] = 1.0;
        }
    }

    /// Decodes a one-hot vector back to levels (argmax per block); inverse
    /// of [`encode`](OneHotEncoder::encode) on well-formed input.
    pub fn decode(&self, features: &[f64]) -> Vec<u16> {
        assert_eq!(features.len(), self.width, "feature vector has wrong width");
        self.cards
            .iter()
            .zip(&self.offsets)
            .map(|(&card, &off)| {
                let block = &features[off..off + card];
                let mut best = 0usize;
                for (i, &v) in block.iter().enumerate() {
                    if v > block[best] {
                        best = i;
                    }
                }
                best as u16
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_sum_to_one_per_column() {
        let enc = OneHotEncoder::new(vec![3, 2, 4]);
        assert_eq!(enc.width(), 9);
        let v = enc.encode(&[2, 0, 3]);
        assert_eq!(v.iter().sum::<f64>(), 3.0, "one hot bit per column");
        assert_eq!(v[2], 1.0);
        assert_eq!(v[3], 1.0);
        assert_eq!(v[8], 1.0);
        // Per-block sums are exactly 1 (§4.2's invariant).
        assert_eq!(v[0..3].iter().sum::<f64>(), 1.0);
        assert_eq!(v[3..5].iter().sum::<f64>(), 1.0);
        assert_eq!(v[5..9].iter().sum::<f64>(), 1.0);
    }

    #[test]
    fn fit_infers_cardinalities() {
        let rows = vec![vec![0, 5], vec![2, 1], vec![1, 0]];
        let enc = OneHotEncoder::fit(&rows);
        assert_eq!(enc.cardinality(0), 3);
        assert_eq!(enc.cardinality(1), 6);
        assert_eq!(enc.width(), 9);
    }

    #[test]
    fn encode_decode_round_trip() {
        let enc = OneHotEncoder::new(vec![4, 3, 2, 5]);
        for row in [[0u16, 0, 0, 0], [3, 2, 1, 4], [1, 1, 0, 2]] {
            assert_eq!(enc.decode(&enc.encode(&row)), row.to_vec());
        }
    }

    #[test]
    fn encode_into_reuses_buffer() {
        let enc = OneHotEncoder::new(vec![2, 2]);
        let mut buf = vec![9.0; 4];
        enc.encode_into(&[1, 0], &mut buf);
        assert_eq!(buf, vec![0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_unseen_level() {
        OneHotEncoder::new(vec![2]).encode(&[2]);
    }

    #[test]
    #[should_panic(expected = "wrong column count")]
    fn rejects_wrong_arity() {
        OneHotEncoder::new(vec![2, 2]).encode(&[0]);
    }
}
