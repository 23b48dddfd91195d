//! What every experiment prints and writes: fixed-width tables, files
//! under `results/`, and the 1/2/4-thread identity check.

use std::fmt::Debug;

use qc_sim::QueueKind;

/// A fixed-width text table: right-aligned cells two spaces apart, under
/// a header and a rule.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Print the header row of `(title, width)` columns and its rule.
    pub fn header(columns: &[(&str, usize)]) -> Table {
        let table = Table {
            widths: columns.iter().map(|&(_, w)| w).collect(),
        };
        let titles: Vec<String> = columns.iter().map(|&(t, _)| t.to_string()).collect();
        table.row(&titles);
        table.rule();
        table
    }

    /// Print one row, a cell per column.
    pub fn row(&self, cells: &[String]) {
        assert_eq!(cells.len(), self.widths.len(), "one cell per column");
        let line: Vec<String> = cells
            .iter()
            .zip(&self.widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", line.join("  "));
    }

    /// Print a rule as wide as the table.
    pub fn rule(&self) {
        let total = self.widths.iter().sum::<usize>() + 2 * (self.widths.len() - 1);
        println!("{}", "-".repeat(total));
    }
}

/// Write each `(file name, contents)` under `results/` in the working
/// directory and return the `wrote results/… and results/…` line the
/// experiments print.
pub(crate) fn write_results(files: &[(&str, &str)]) -> String {
    std::fs::create_dir_all("results").expect("create results/");
    let paths: Vec<String> = files
        .iter()
        .map(|(name, contents)| {
            let path = format!("results/{name}");
            std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {path}: {e}"));
            path
        })
        .collect();
    format!("wrote {}", paths.join(" and "))
}

/// Run `run` on 1, 2 and 4 worker threads under each of `queues`, assert
/// that `key` of every result equals the first's, and return the first
/// result: the determinism check behind every parallel experiment's
/// "identical on 1/2/4 threads" line.
pub(crate) fn same_on_1_2_4<T, K: PartialEq + Debug>(
    what: &str,
    queues: &[QueueKind],
    run: impl Fn(QueueKind, usize) -> T,
    key: impl Fn(&T) -> K,
) -> T {
    let mut first: Option<(T, K)> = None;
    for &queue in queues {
        for threads in [1, 2, 4] {
            let result = run(queue, threads);
            let k = key(&result);
            match &first {
                Some((_, k0)) => {
                    assert_eq!(&k, k0, "{what} diverged at {queue:?} x {threads} threads");
                }
                None => first = Some((result, k)),
            }
        }
    }
    first.expect("at least one queue").0
}
