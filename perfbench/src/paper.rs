//! Paper fidelity: the model's Table 5 and Fig. 6–7 figures against the
//! values the paper publishes, as one error number (`paper_log_err`) and
//! a count of the paper's ordinal claims that hold.
//!
//! The model is scored only against the paper's published figures
//! (`paper_reference.tsv`), never against hardware.

/// The four basic operators, in the paper's order (`OperatorKind::BASIC`).
pub const OPS: [&str; 4] = ["scan", "sort", "group_by", "join"];
const GROUP_BY: usize = 2;
/// Index of Join in [`OPS`].
pub const JOIN: usize = 3;

/// The seven systems, in `SystemKind::ALL` order.
pub const SYSTEMS: [&str; 7] =
    ["cpu", "nmp", "nmp-perm", "nmp-rand", "nmp-seq", "mondrian-noperm", "mondrian"];
const CPU: usize = 0;
const NMP: usize = 1;
const NMP_PERM: usize = 2;
const NMP_RAND: usize = 3;
const NMP_SEQ: usize = 4;
const MONDRIAN_NOPERM: usize = 5;
const MONDRIAN: usize = 6;

/// Simulated phase times of one experiment, in picoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Partition phases (`Report::partition_time`).
    pub partition_ps: u64,
    /// Probe phases (`Report::probe_time`).
    pub probe_ps: u64,
    /// End to end (`Report::runtime_ps`).
    pub runtime_ps: u64,
}

/// Every basic operator on every system: `times[op][system]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Figures {
    /// Indexed by [`OPS`] then [`SYSTEMS`].
    pub times: [[PhaseTimes; 7]; 4],
}

/// One published value of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Identifier, as in `paper_reference.tsv`.
    pub id: String,
    /// The published speedup over the CPU baseline.
    pub value: f64,
    /// The table or figure and section it comes from.
    pub source: String,
}

/// The paper's published values (`paper_reference.tsv`).
pub fn references() -> Vec<Reference> {
    include_str!("../paper_reference.tsv")
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let cols: Vec<&str> = l.split('\t').collect();
            assert!(cols.len() >= 3, "paper_reference.tsv: malformed row {l:?}");
            Reference {
                id: cols[0].to_string(),
                value: cols[1].parse().expect("paper_reference.tsv: numeric value"),
                source: cols[2].to_string(),
            }
        })
        .collect()
}

fn ratio(base: u64, this: u64) -> f64 {
    base as f64 / this.max(1) as f64
}

impl Figures {
    /// Partition speedup over CPU of `system`, measured on Join as the
    /// paper's Table 5 is.
    pub fn table5(&self, system: usize) -> f64 {
        let join = &self.times[JOIN];
        ratio(join[CPU].partition_ps, join[system].partition_ps)
    }

    /// The model's value for a reference id, if it knows it.
    pub fn measured(&self, id: &str) -> Option<f64> {
        if let Some(system) = id.strip_prefix("table5.") {
            return SYSTEMS.iter().position(|s| *s == system).map(|i| self.table5(i));
        }
        let peak = |f: fn(&PhaseTimes) -> u64| {
            self.times.iter().map(|t| ratio(f(&t[CPU]), f(&t[MONDRIAN]))).fold(0.0, f64::max)
        };
        match id {
            "fig7.mondrian_peak" => Some(peak(|t| t.runtime_ps)),
            "fig6.mondrian_probe_peak" => Some(peak(|t| t.probe_ps)),
            _ => None,
        }
    }
}

/// Mean |ln(measured / paper)| over `pairs` of (measured, paper).
pub fn log_err(pairs: &[(f64, f64)]) -> f64 {
    let sum: f64 = pairs.iter().map(|&(m, p)| (m / p).ln().abs()).sum();
    sum / pairs.len().max(1) as f64
}

/// `paper_log_err` of `figures` over every published value, with the
/// (id, measured, paper, source) rows it averaged.
pub fn paper_log_err(figures: &Figures) -> (f64, Vec<(String, f64, f64, String)>) {
    let rows: Vec<_> = references()
        .into_iter()
        .map(|r| {
            let measured = figures.measured(&r.id).expect("every reference id has a measurement");
            (r.id, measured, r.value, r.source)
        })
        .collect();
    let pairs: Vec<(f64, f64)> = rows.iter().map(|r| (r.1, r.2)).collect();
    (log_err(&pairs), rows)
}

/// One ordinal claim of the paper and whether the model upholds it.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// What the paper claims.
    pub name: String,
    /// Whether the measured figures uphold it.
    pub holds: bool,
}

/// Table 5's order NMP < NMP-perm < Mondrian-noperm < Mondrian, as its
/// three adjacent pairs, over partition speedups indexed like [`SYSTEMS`].
pub fn table5_order_claims(speedup: &[f64; 7]) -> Vec<Claim> {
    [(NMP, NMP_PERM), (NMP_PERM, MONDRIAN_NOPERM), (MONDRIAN_NOPERM, MONDRIAN)]
        .iter()
        .map(|&(lo, hi)| Claim {
            name: format!(
                "Table 5: {} ({:.1}x) < {} ({:.1}x)",
                SYSTEMS[lo], speedup[lo], SYSTEMS[hi], speedup[hi]
            ),
            holds: speedup[lo] < speedup[hi],
        })
        .collect()
}

/// Every ordinal claim the benchmark checks (ROADMAP item 1.d):
/// - Table 5's order, as three adjacent pairs;
/// - NMP-rand's probe beats NMP-seq's on Group-by and on Join;
/// - Mondrian's probe beats NMP-rand's on each basic operator;
/// - Mondrian is no slower end to end than any other system on each
///   basic operator.
pub fn claims(figures: &Figures) -> Vec<Claim> {
    let mut speedup = [0.0; 7];
    for (i, s) in speedup.iter_mut().enumerate() {
        *s = figures.table5(i);
    }
    let mut out = table5_order_claims(&speedup);
    for op in [GROUP_BY, JOIN] {
        let t = &figures.times[op];
        out.push(Claim {
            name: format!("Fig. 6: nmp-rand probe beats nmp-seq on {}", OPS[op]),
            holds: t[NMP_RAND].probe_ps < t[NMP_SEQ].probe_ps,
        });
    }
    for (op, t) in figures.times.iter().enumerate() {
        out.push(Claim {
            name: format!("Fig. 6: mondrian probe beats nmp-rand on {}", OPS[op]),
            holds: t[MONDRIAN].probe_ps < t[NMP_RAND].probe_ps,
        });
    }
    for (op, t) in figures.times.iter().enumerate() {
        let fastest_other = t.iter().enumerate().filter(|&(s, _)| s != MONDRIAN);
        let fastest_other = fastest_other.map(|(_, p)| p.runtime_ps).min().unwrap_or(u64::MAX);
        out.push(Claim {
            name: format!("Fig. 7: mondrian no slower than any system on {}", OPS[op]),
            holds: t[MONDRIAN].runtime_ps <= fastest_other,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figures whose Table 5 speedups are `t5`, with every other phase
    /// equal across systems.
    fn with_table5(t5: [f64; 7]) -> Figures {
        let mut f = Figures::default();
        for op in &mut f.times {
            for (s, t) in op.iter_mut().enumerate() {
                let partition_ps = (1e9 / t5[s]).round() as u64;
                *t = PhaseTimes { partition_ps, probe_ps: 1_000, runtime_ps: 1_000 + partition_ps };
            }
        }
        f
    }

    #[test]
    fn reference_table_is_complete() {
        let refs = references();
        let ids: Vec<&str> = refs.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "table5.nmp",
                "table5.nmp-perm",
                "table5.mondrian-noperm",
                "table5.mondrian",
                "fig7.mondrian_peak",
                "fig6.mondrian_probe_peak"
            ]
        );
        assert_eq!(refs[3].value, 273.0);
        assert!(refs.iter().all(|r| r.source.contains("§7.1")));
    }

    #[test]
    fn log_err_is_mean_absolute_log_ratio() {
        assert_eq!(log_err(&[(10.0, 10.0)]), 0.0);
        let e = log_err(&[(20.0, 10.0), (5.0, 10.0)]);
        assert!((e - 2f64.ln()).abs() < 1e-12, "{e}");
        // Over- and under-estimates by the same factor weigh the same.
        assert!((log_err(&[(30.0, 10.0)]) - log_err(&[(10.0, 30.0)])).abs() < 1e-12);
    }

    #[test]
    fn paper_log_err_is_zero_on_the_papers_own_numbers() {
        let mut f = with_table5([1.0, 58.0, 98.0, 98.0, 98.0, 142.0, 273.0]);
        // Fig. 7 peak 49x and Fig. 6 probe peak 22x.
        for t in &mut f.times {
            t[CPU].runtime_ps = 49 * 1_000_000;
            t[CPU].probe_ps = 22 * 1_000;
            t[MONDRIAN].runtime_ps = 1_000_000;
            t[MONDRIAN].probe_ps = 1_000;
        }
        let (err, rows) = paper_log_err(&f);
        assert_eq!(rows.len(), 6);
        assert!(err < 1e-6, "{err} {rows:?}");
    }

    #[test]
    fn roadmap_table5_at_1024_tuples_violates_two_order_claims() {
        // ROADMAP "Recent" 1: NMP 65.8x, NMP-perm 63.3x, Mondrian-noperm
        // 67.1x, Mondrian 50.7x at 1024 tuples/vault.
        let speedup = [1.0, 65.8, 63.3, 63.3, 63.3, 67.1, 50.7];
        let got = table5_order_claims(&speedup);
        let holds: Vec<bool> = got.iter().map(|c| c.holds).collect();
        assert_eq!(holds, [false, true, false]);
        assert!(got[0].name.contains("nmp (65.8x) < nmp-perm (63.3x)"), "{}", got[0].name);
        // The whole evaluator sees the same two Table 5 violations.
        let all = claims(&with_table5(speedup));
        let failed: Vec<&str> = all.iter().filter(|c| !c.holds).map(|c| c.name.as_str()).collect();
        assert_eq!(all.len(), 13);
        assert_eq!(failed.iter().filter(|n| n.starts_with("Table 5")).count(), 2, "{failed:?}");
    }

    #[test]
    fn the_papers_shape_violates_nothing() {
        let mut f = with_table5([1.0, 58.0, 98.0, 98.0, 98.0, 142.0, 273.0]);
        for (op, t) in f.times.iter_mut().enumerate() {
            // Probe: Mondrian < NMP-rand < NMP-seq; end to end Mondrian
            // strictly fastest.
            t[NMP_SEQ].probe_ps = 4_000;
            t[NMP_RAND].probe_ps = 2_000;
            t[MONDRIAN].probe_ps = 500;
            t[MONDRIAN].runtime_ps = 100 + op as u64;
        }
        let failed: Vec<Claim> = claims(&f).into_iter().filter(|c| !c.holds).collect();
        assert!(failed.is_empty(), "{failed:?}");
    }

    #[test]
    fn a_slower_mondrian_fails_the_end_to_end_claim() {
        let mut f = with_table5([1.0, 58.0, 98.0, 98.0, 98.0, 142.0, 273.0]);
        // Fig. 7 at 1024 tuples/vault: Mondrian loses Group-by to NMP.
        f.times[GROUP_BY][NMP].runtime_ps = 10;
        let failed: Vec<String> =
            claims(&f).into_iter().filter(|c| !c.holds).map(|c| c.name).collect();
        assert!(failed.contains(&"Fig. 7: mondrian no slower than any system on group_by".into()));
    }
}
