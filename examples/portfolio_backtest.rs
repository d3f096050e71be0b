//! Backtest alphas as long-short portfolios and inspect the books.
//!
//! ```sh
//! cargo run --release --example portfolio_backtest
//! ```
//!
//! Compares the domain-expert alpha against the two-layer neural-network
//! alpha on the same market: NAV curves, Sharpe, drawdowns, and the actual
//! positions held on the last test day.

use std::error::Error;
use std::sync::Arc;

use alphaevolve::backtest::equity::{max_drawdown, nav_curve, EquityStats};
use alphaevolve::backtest::portfolio::{positions, LongShortConfig};
use alphaevolve::core::{init, AlphaConfig, EvalOptions, Evaluator};
use alphaevolve::market::{features::FeatureSet, generator::MarketConfig, Dataset, SplitSpec};
use alphaevolve::store::AlphaServer;

fn main() -> Result<(), Box<dyn Error>> {
    let market = MarketConfig {
        n_stocks: 50,
        n_days: 380,
        seed: 5,
        ..Default::default()
    }
    .generate();
    let dataset = Arc::new(Dataset::build(
        &market,
        &FeatureSet::paper(),
        SplitSpec::paper_ratios(),
    )?);
    let ls = LongShortConfig::scaled(50);
    let opts = EvalOptions {
        long_short: ls,
        ..Default::default()
    };
    let evaluator = Evaluator::new(AlphaConfig::default(), opts.clone(), Arc::clone(&dataset));

    for (name, alpha) in [
        (
            "domain-expert alpha (Alpha#101)",
            init::domain_expert(evaluator.config()),
        ),
        ("two-layer NN alpha", init::two_layer_nn(evaluator.config())),
    ] {
        let report = evaluator.backtest(&alpha);
        let stats = EquityStats::from_returns(&report.test.returns);
        let nav = nav_curve(&report.test.returns);
        println!("== {name} ==");
        println!("  test IC:            {:.6}", report.test.ic);
        println!("  test Sharpe:        {:.6}", stats.sharpe);
        println!("  total return:       {:+.3}%", stats.total_return * 100.0);
        println!("  annualized vol:     {:.3}%", stats.annualized_vol * 100.0);
        println!("  max drawdown:       {:.3}%", max_drawdown(&nav) * 100.0);
        println!(
            "  final NAV:          {:.4} over {} days",
            nav.last().copied().unwrap_or(1.0),
            stats.days
        );
    }

    // Show one day's books for the expert alpha, as a server predicts
    // them: compile and train once, then serve the day.
    let server = AlphaServer::new(
        *evaluator.config(),
        &opts,
        Arc::clone(&dataset),
        vec![("expert".into(), init::domain_expert(evaluator.config()))],
    );
    let day = dataset.test_days().end - 1;
    let books = positions(server.serve_day(day).row(0), &ls);
    let syms = |ix: &[usize]| {
        ix.iter()
            .map(|&i| dataset.universe().stock(i).symbol.clone())
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("\nbooks on the last test day (k={}):", ls.k_long);
    println!("  long:  {}", syms(&books.long));
    println!("  short: {}", syms(&books.short));
    Ok(())
}
