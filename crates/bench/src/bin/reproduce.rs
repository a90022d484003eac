//! Regenerate the paper's evaluation figures.
//!
//! ```text
//! reproduce all            # every figure (fig11/fig12 run real training)
//! reproduce fast           # analytical figures only
//! reproduce fig09 fig13    # specific figures
//! reproduce --list
//! ```

use dchag_bench::registry;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let figures = registry();

    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: reproduce [all|fast|--list|<figure id>...]");
        eprintln!("figures:");
        for f in &figures {
            eprintln!(
                "  {:<7} {}{}",
                f.id,
                f.description,
                if f.heavy { "  [training]" } else { "" }
            );
        }
        return;
    }
    if args.iter().any(|a| a == "--list") {
        for f in &figures {
            println!("{}\t{}", f.id, f.description);
        }
        return;
    }

    let selected: Vec<_> = if args.iter().any(|a| a == "all") {
        figures.iter().collect()
    } else if args.iter().any(|a| a == "fast") {
        figures.iter().filter(|f| !f.heavy).collect()
    } else {
        let sel: Vec<_> = figures
            .iter()
            .filter(|f| args.contains(&f.id.to_string()))
            .collect();
        if sel.is_empty() {
            eprintln!("no figure matches {args:?}; try --list");
            std::process::exit(1);
        }
        sel
    };

    for f in selected {
        eprintln!("[reproduce] running {} — {}", f.id, f.description);
        let start = std::time::Instant::now();
        for table in (f.run)() {
            println!("{}", table.render());
        }
        eprintln!("[reproduce] {} done in {:.1?}\n", f.id, start.elapsed());
    }
}
