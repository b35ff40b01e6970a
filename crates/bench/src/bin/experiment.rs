//! Regenerates one experiment by its id: a table or figure of the paper's
//! evaluation or the `graphs`/`formats` study (`registry()`), or one of the
//! studies behind the paper's side claims (`studies()`).
//!
//! Run: `cargo run --release -p spacea-bench --bin experiment -- ID
//! [--scale N] [--graph-scale N] [--cubes N] [--quick] [--jobs N]
//! [--no-cache] [--cache-dir DIR] [--csv]`
//!
//! The experiment's jobs are computed in parallel first (the run summary
//! goes to stderr), then its tables are rendered from the cache. A missing,
//! unknown or second ID exits with status 2 and lists every id.

use spacea_bench::{ArgError, HarnessOptions, HarnessSession};
use spacea_core::experiments::{registry, studies};

fn main() {
    let experiments: Vec<_> = registry().into_iter().chain(studies()).collect();
    let ids: Vec<&str> = experiments.iter().map(|e| e.id).collect();
    let usage = format!("usage: experiment ID [flags], ID one of: {}", ids.join(", "));
    let mut id: Option<String> = None;
    let opts = HarnessOptions::from_args_with(std::env::args().skip(1), |arg, _| {
        if arg.starts_with('-') {
            return Ok(false);
        }
        if let Some(first) = &id {
            return Err(ArgError::new(format!(
                "one experiment ID only, got '{first}' and '{arg}'"
            )));
        }
        id = Some(arg.to_string());
        Ok(true)
    })
    .unwrap_or_else(|e| e.exit_with_usage(&usage));
    let Some(id) = id else { ArgError::new("missing experiment ID").exit_with_usage(&usage) };
    let Some(exp) = experiments.iter().find(|e| e.id == id) else {
        ArgError::new(format!("unknown experiment '{id}'")).exit_with_usage(&usage)
    };

    let mut session = HarnessSession::from_opts(opts);
    let manifest = session.prewarm((exp.jobs)(&session.opts.cfg));
    eprint!("{}", manifest.summary());
    let out = (exp.run)(&mut session.cache);
    session.emit(&out);
}
