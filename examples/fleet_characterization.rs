//! Fleet characterization: the operations-planning view of Sections 3–4.
//!
//! A data-center operator wants to know: how often do drives fail, how
//! long do failed drives linger before swap, how slow is the repair loop,
//! and is infant mortality worth a separate burn-in policy? This example
//! answers each question from a simulated fleet.
//!
//! ```sh
//! cargo run --release --example fleet_characterization
//! ```

use ssd_field_study::core::streaming::summarize;
use ssd_field_study::core::{aging, characterize, errors_analysis};
use ssd_field_study::sim::{FleetGen, SimConfig};

fn main() {
    let trace = FleetGen::new(&SimConfig {
        drives_per_model: 800,
        horizon_days: 6 * 365,
        seed: 1,
        ..SimConfig::default()
    })
    .trace();
    println!(
        "== fleet: {} drives / {} drive-days ==\n",
        trace.n_drives(),
        trace.total_drive_days()
    );

    // One summary fold answers Tables 3-4 and Figures 4-5.
    let summary = summarize(&trace);

    // How often do drives fail? (Table 3 / Table 4)
    println!("{}", summary.failure_incidence.table());
    println!("{}", summary.failure_counts.table());

    // How long do failed drives linger, and does repair ever finish?
    // (Figures 4 and 5)
    let nop = &summary.non_operational;
    println!("failed drives swapped within 1 day:  {:>5.1}%", nop.eval(1.0) * 100.0);
    println!("failed drives swapped within 7 days: {:>5.1}%", nop.eval(7.0) * 100.0);
    println!(
        "failed drives lingering 100+ days:   {:>5.1}%",
        (1.0 - nop.eval(100.0)) * 100.0
    );
    let rep = &summary.time_to_repair;
    println!(
        "swapped drives never observed back:  {:>5.1}%\n",
        rep.censored_fraction() * 100.0
    );

    // Is there infant mortality, and is it burn-in stress? (Figures 6–7)
    let fa = aging::failure_age(&trace);
    println!(
        "failures in first 30 days: {:.1}%   first 90 days: {:.1}%",
        fa.frac_under_30d * 100.0,
        fa.frac_under_90d * 100.0
    );
    let wi = aging::write_intensity(&trace);
    let median = |m: u32| {
        wi.quartiles_by_month
            .iter()
            .find(|&&(month, ..)| month == m)
            .map(|&(_, _, q2, _)| q2)
            .unwrap_or(f64::NAN)
    };
    println!(
        "median daily writes, month 1 vs month 12: {:.2e} vs {:.2e}",
        median(1),
        median(12)
    );
    println!("(young drives write LESS - infant mortality is not burn-in stress)\n");

    // Does wear predict failure? (Figure 8, Table 2)
    let wear = aging::wear_at_failure(&trace);
    println!(
        "failures below 1500 P/E cycles (limit 3000): {:.1}%",
        wear.frac_under_1500 * 100.0
    );
    let corr = characterize::correlation_matrix(&trace);
    println!(
        "Spearman P/E <-> uncorrectable errors: {:+.2} (wear is a poor failure signal)",
        corr.get("P/E cycle", "uncorrectable")
    );
    println!(
        "Spearman uncorrectable <-> final read: {:+.2} (same underlying events)\n",
        corr.get("uncorrectable", "final read")
    );

    // Do failures announce themselves? (Figures 10–11)
    let cdfs = errors_analysis::cumulative_error_cdfs(&trace);
    println!(
        "drives with zero uncorrectable errors - never-failed: {:.0}%, failed old: {:.0}%, failed young: {:.0}%",
        cdfs.zero_ue_fracs[2] * 100.0,
        cdfs.zero_ue_fracs[1] * 100.0,
        cdfs.zero_ue_fracs[0] * 100.0
    );
    println!(
        "failures with no symptoms at all: {:.0}% - monitoring alone cannot catch everything",
        cdfs.symptomless_failure_frac * 100.0
    );
}
