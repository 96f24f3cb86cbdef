//! Render online traces as ASCII tables / CSV, in the house style of
//! [`poisongame_sim::report`].

use crate::play::OnlineTrace;
use poisongame_sim::report::{render_csv, render_table};

/// An online trace as an ASCII table: one row per checkpoint, headed
/// by the matchup and the one-shot reference value.
pub fn online_table(trace: &OnlineTrace) -> String {
    let rows: Vec<Vec<String>> = trace
        .points
        .iter()
        .map(|p| {
            vec![
                p.round.to_string(),
                format!("{:.2e}", p.attacker_regret),
                format!("{:.2e}", p.defender_regret),
                format!("{:.2e}", p.exploitability),
                format!("{:.6}", p.average_value),
                format!("{:.2e}", p.ne_gap),
            ]
        })
        .collect();
    let mut out = format!(
        "Online play — {} (attacker) vs {} (defender), {} rounds, {} feedback\n\
         (one-shot NE value {:.6})\n",
        trace.attacker,
        trace.defender,
        trace.rounds,
        trace.feedback.name(),
        trace.ne_value
    );
    out.push_str(&render_table(
        &[
            "round",
            "att regret",
            "def regret",
            "exploitability",
            "avg value",
            "NE gap",
        ],
        &rows,
    ));
    out
}

/// An online trace as CSV (full float precision, one row per
/// checkpoint).
pub fn online_csv(trace: &OnlineTrace) -> String {
    let rows: Vec<Vec<String>> = trace
        .points
        .iter()
        .map(|p| {
            vec![
                p.round.to_string(),
                format!("{}", p.attacker_regret),
                format!("{}", p.defender_regret),
                format!("{}", p.exploitability),
                format!("{}", p.average_value),
                format!("{}", p.ne_gap),
            ]
        })
        .collect();
    render_csv(
        &[
            "round",
            "attacker_regret",
            "defender_regret",
            "exploitability",
            "average_value",
            "ne_gap",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::play::{play, PlayConfig};
    use poisongame_theory::MatrixGame;

    fn trace() -> OnlineTrace {
        let game = MatrixGame::from_rows(&[vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
        play(
            &game,
            &PlayConfig {
                rounds: 200,
                checkpoint_every: 100,
                ..PlayConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn table_names_the_matchup_and_lists_checkpoints() {
        let t = online_table(&trace());
        assert!(t.contains("regret_matching (attacker) vs regret_matching (defender)"));
        assert!(t.contains("200 rounds"));
        assert!(t.contains("| 100"));
        assert!(t.contains("| 200"));
    }

    #[test]
    fn csv_has_header_and_one_row_per_checkpoint() {
        let c = online_csv(&trace());
        assert!(c.starts_with("round,attacker_regret"));
        assert_eq!(c.lines().count(), 3, "{c}");
    }
}
