//! Contingency tables and the chi-square test of independence (§3.2,
//! Fig. 9, Eq. 3–4).
//!
//! A table lays out joint counts `O_ab` of attribute level `a` against
//! parameter value `b` over the existing carriers. Auric computes the
//! statistic `χ² = Σ (O − E)² / E` with `E` the independence expectation
//! (Eq. 4) and rejects independence when it exceeds the critical value at
//! `df = (R−1)(C−1)`.

use crate::chi2::{chi2_critical, chi2_p_value};

/// A dense R×C contingency table of observation counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ContingencyTable {
    rows: usize,
    cols: usize,
    counts: Vec<u64>,
    row_totals: Vec<u64>,
    col_totals: Vec<u64>,
    total: u64,
}

/// Outcome of the chi-square test of independence over a table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chi2Test {
    /// The statistic of Eq. 3 (0 when the table is degenerate).
    pub statistic: f64,
    /// Degrees of freedom `(R'−1)(C'−1)` over non-empty rows/columns.
    pub df: usize,
    /// Upper-tail p-value (1.0 when the table is degenerate).
    pub p_value: f64,
    /// Critical value at the requested significance level (0 when
    /// degenerate).
    pub critical: f64,
    /// True when independence is rejected, i.e. the attribute and the
    /// parameter are *dependent*.
    pub dependent: bool,
}

impl ContingencyTable {
    /// Creates an empty `rows × cols` table.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "table must have positive shape");
        Self {
            rows,
            cols,
            counts: vec![0; rows * cols],
            row_totals: vec![0; rows],
            col_totals: vec![0; cols],
            total: 0,
        }
    }

    /// Builds a table from paired categorical observations.
    pub fn from_pairs<I>(rows: usize, cols: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut t = Self::new(rows, cols);
        for (a, b) in pairs {
            t.add(a, b, 1);
        }
        t
    }

    /// Builds a table from row-major cell counts (`counts[a * cols + b]`),
    /// deriving the margins. Counting a long column into bare cells and
    /// summing the margins once is cheaper than [`Self::add`] per
    /// observation.
    pub fn from_counts(rows: usize, cols: usize, counts: Vec<u64>) -> Self {
        assert!(rows > 0 && cols > 0, "table must have positive shape");
        assert_eq!(counts.len(), rows * cols, "counts must be rows × cols");
        let mut row_totals = vec![0; rows];
        let mut col_totals = vec![0; cols];
        for (a, row) in counts.chunks_exact(cols).enumerate() {
            for (b, &n) in row.iter().enumerate() {
                row_totals[a] += n;
                col_totals[b] += n;
            }
        }
        let total = row_totals.iter().sum();
        Self {
            rows,
            cols,
            counts,
            row_totals,
            col_totals,
            total,
        }
    }

    /// Clears all counts, keeping the shape. Stratified tests sweep one
    /// reusable table across thousands of strata instead of allocating a
    /// dense table per stratum.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.row_totals.fill(0);
        self.col_totals.fill(0);
        self.total = 0;
    }

    /// Adds `n` observations of (row level `a`, column value `b`).
    pub fn add(&mut self, a: usize, b: usize, n: u64) {
        assert!(
            a < self.rows && b < self.cols,
            "cell ({a},{b}) out of range"
        );
        self.counts[a * self.cols + b] += n;
        self.row_totals[a] += n;
        self.col_totals[b] += n;
        self.total += n;
    }

    /// Observed count `O_ab`.
    pub fn observed(&self, a: usize, b: usize) -> u64 {
        self.counts[a * self.cols + b]
    }

    /// Expected count `E_ab` under independence (Eq. 4). Zero when the
    /// table is empty.
    pub fn expected(&self, a: usize, b: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.row_totals[a] as f64 * self.col_totals[b] as f64 / self.total as f64
    }

    /// Number of rows (attribute levels).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (parameter values).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total observation count.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The chi-square statistic of Eq. 3, summed over cells whose expected
    /// count is positive (empty rows/columns contribute nothing).
    pub fn chi2_statistic(&self) -> f64 {
        let mut stat = 0.0;
        for a in 0..self.rows {
            if self.row_totals[a] == 0 {
                continue;
            }
            for b in 0..self.cols {
                if self.col_totals[b] == 0 {
                    continue;
                }
                let e = self.expected(a, b);
                let o = self.observed(a, b) as f64;
                stat += (o - e) * (o - e) / e;
            }
        }
        stat
    }

    /// Degrees of freedom over *non-empty* rows and columns. Declared
    /// levels that never occur in the data would otherwise inflate the
    /// critical value and mask real dependence.
    pub fn effective_df(&self) -> usize {
        let r = self.row_totals.iter().filter(|&&t| t > 0).count();
        let c = self.col_totals.iter().filter(|&&t| t > 0).count();
        (r.saturating_sub(1)) * (c.saturating_sub(1))
    }

    /// Runs the chi-square test of independence at significance `alpha`.
    ///
    /// Degenerate tables (everything in one row or one column, df = 0)
    /// cannot reject independence: a constant attribute or a constant
    /// parameter carries no signal.
    pub fn independence_test(&self, alpha: f64) -> Chi2Test {
        let df = self.effective_df();
        if df == 0 || self.total == 0 {
            return Chi2Test {
                statistic: 0.0,
                df,
                p_value: 1.0,
                critical: 0.0,
                dependent: false,
            };
        }
        let statistic = self.chi2_statistic();
        let critical = chi2_critical(df, alpha);
        Chi2Test {
            statistic,
            df,
            p_value: chi2_p_value(statistic, df),
            critical,
            dependent: statistic > critical,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_margins() {
        let t = ContingencyTable::from_pairs(2, 3, vec![(0, 0), (0, 0), (0, 2), (1, 1)]);
        assert_eq!(t.observed(0, 0), 2);
        assert_eq!(t.observed(1, 1), 1);
        assert_eq!(t.observed(1, 2), 0);
        assert_eq!(t.total(), 4);
        assert!((t.expected(0, 0) - 3.0 * 2.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn perfectly_dependent_table_rejects_independence() {
        // Attribute level fully determines the value: diagonal table.
        let mut t = ContingencyTable::new(3, 3);
        for i in 0..3 {
            t.add(i, i, 40);
        }
        let test = t.independence_test(0.01);
        assert!(test.dependent, "diagonal table must be dependent");
        assert!(test.p_value < 1e-6);
        assert_eq!(test.df, 4);
    }

    #[test]
    fn independent_table_passes() {
        // Same column distribution in every row → statistic 0.
        let mut t = ContingencyTable::new(2, 2);
        t.add(0, 0, 30);
        t.add(0, 1, 70);
        t.add(1, 0, 30);
        t.add(1, 1, 70);
        let test = t.independence_test(0.01);
        assert!(!test.dependent);
        assert!(test.statistic.abs() < 1e-9);
        assert!((test.p_value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn textbook_statistic() {
        // Classic 2x2 example: O = [[20,30],[30,20]], E = 25 everywhere,
        // χ² = 4 * (5²/25) = 4.
        let mut t = ContingencyTable::new(2, 2);
        t.add(0, 0, 20);
        t.add(0, 1, 30);
        t.add(1, 0, 30);
        t.add(1, 1, 20);
        assert!((t.chi2_statistic() - 4.0).abs() < 1e-12);
        // df = 1, critical at 0.05 is 3.841 → dependent at 0.05 ...
        assert!(t.independence_test(0.05).dependent);
        // ... but not at 0.01 (critical 6.635).
        assert!(!t.independence_test(0.01).dependent);
    }

    #[test]
    fn empty_rows_and_columns_are_ignored() {
        // Declared shape 4x5 but only a 2x2 sub-table occupied.
        let mut t = ContingencyTable::new(4, 5);
        t.add(0, 0, 50);
        t.add(2, 3, 50);
        assert_eq!(t.effective_df(), 1);
        assert!(t.independence_test(0.01).dependent);
    }

    #[test]
    fn degenerate_tables_cannot_reject() {
        // Constant parameter: one occupied column.
        let mut t = ContingencyTable::new(3, 4);
        t.add(0, 1, 10);
        t.add(1, 1, 20);
        t.add(2, 1, 30);
        let test = t.independence_test(0.01);
        assert_eq!(test.df, 0);
        assert!(!test.dependent);
        // Empty table.
        let empty = ContingencyTable::new(2, 2);
        assert!(!empty.independence_test(0.01).dependent);
    }

    #[test]
    fn reset_clears_counts_and_margins() {
        let mut t = ContingencyTable::from_pairs(2, 3, vec![(0, 0), (1, 2)]);
        t.reset();
        assert_eq!(t, ContingencyTable::new(2, 3));
        t.add(1, 1, 7);
        assert_eq!(t.total(), 7);
    }

    #[test]
    fn from_counts_matches_added_observations() {
        let pairs = vec![(0, 0), (0, 0), (0, 2), (1, 1), (2, 2), (2, 0)];
        let added = ContingencyTable::from_pairs(3, 3, pairs.iter().copied());
        let mut counts = vec![0; 9];
        for (a, b) in pairs {
            counts[a * 3 + b] += 1;
        }
        assert_eq!(ContingencyTable::from_counts(3, 3, counts), added);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_checks_bounds() {
        let mut t = ContingencyTable::new(2, 2);
        t.add(2, 0, 1);
    }
}
