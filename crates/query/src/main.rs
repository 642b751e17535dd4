//! `offnet-query` — serve footprint queries from a study log.
//!
//! ```text
//! offnet-query [--stats] <artifact> <command> [args]
//! offnet-query <artifact> info
//! offnet-query <artifact> ases <hg> <month|idx>
//! offnet-query <artifact> hosts <hg> <month|idx> <asn>
//! offnet-query <artifact> growth <hg>
//! offnet-query <artifact> as-curve <asn>
//! offnet-query <artifact> coverage <hg> <month|idx> <asn=users>...
//! ```
//!
//! Months are accepted as `2013-10`-style labels or raw snapshot indices.
//! `--stats` prints what the load read (log bytes, records verified, rows)
//! and its wall time to stderr. A reader that closes stdout early (`| head`)
//! ends the run quietly, with exit status 0.

use hgsim::ALL_HGS;
use offnet_query::{parse_hg, FrozenStudy};
use std::io::{ErrorKind, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: offnet-query [--stats] <artifact> <command> [args]
  --stats                             print load bytes, records, rows and time to stderr
commands:
  info                                artifact summary: engine, rows, months
  ases <hg> <month|idx>               confirmed ASes hosting <hg> that month
  hosts <hg> <month|idx> <asn>        does <asn> host <hg> that month?
  growth <hg>                         confirmed-AS count per month
  as-curve <asn>                      number of HGs hosted in <asn> per month
  coverage <hg> <month|idx> <asn=users>...
                                      user-weighted coverage of a population";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, &mut std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader closed stdout: it has all it wanted.
        Err(e)
            if e.downcast_ref::<std::io::Error>()
                .is_some_and(|e| e.kind() == ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("offnet-query: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String], out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    let (stats, args) = match args {
        [flag, rest @ ..] if flag == "--stats" => (true, rest),
        _ => (false, args),
    };
    let (path, cmd, rest) = match args {
        [path, cmd, rest @ ..] => (PathBuf::from(path), cmd.as_str(), rest),
        _ => return Err(USAGE.to_owned().into()),
    };
    let start = Instant::now();
    let study = FrozenStudy::load(&path).map_err(|e| e.to_string())?;
    if stats {
        let load_ms = start.elapsed().as_secs_f64() * 1e3;
        let log_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        eprintln!(
            "offnet-query: stats: log_bytes {log_bytes} records_verified {} rows {} load_ms {load_ms:.3}",
            study.record_body_lens().len(),
            study.n_rows()
        );
    }
    match (cmd, rest) {
        ("info", []) => {
            writeln!(out, "engine: {}", study.engine())?;
            writeln!(out, "rows: {}", study.n_rows())?;
            if study.n_rows() > 0 {
                writeln!(
                    out,
                    "months: {} .. {}",
                    study.label(0),
                    study.label(study.n_rows() - 1)
                )?;
            }
            for hg in ALL_HGS {
                let curve = study.growth_curve(hg);
                writeln!(
                    out,
                    "{hg}: start {} end {}",
                    curve.first().copied().unwrap_or(0),
                    curve.last().copied().unwrap_or(0)
                )?;
            }
        }
        ("ases", [hg, month]) => {
            let (hg, row) = (hg_arg(hg)?, row_arg(&study, month)?);
            for asn in study.ases_hosting(hg, row) {
                writeln!(out, "{asn}")?;
            }
        }
        ("hosts", [hg, month, asn]) => {
            let (hg, row) = (hg_arg(hg)?, row_arg(&study, month)?);
            writeln!(out, "{}", study.hosts(hg, row, asn_arg(asn)?))?;
        }
        ("growth", [hg]) => {
            let hg = hg_arg(hg)?;
            for (row, n) in study.growth_curve(hg).into_iter().enumerate() {
                writeln!(out, "{} {n}", study.label(row))?;
            }
        }
        ("as-curve", [asn]) => {
            let asn = asn_arg(asn)?;
            for (row, n) in study.as_curve(asn).into_iter().enumerate() {
                writeln!(out, "{} {n}", study.label(row))?;
            }
        }
        ("coverage", [hg, month, population @ ..]) if !population.is_empty() => {
            let (hg, row) = (hg_arg(hg)?, row_arg(&study, month)?);
            let population = population
                .iter()
                .map(|spec| {
                    let (asn, users) = spec
                        .split_once('=')
                        .ok_or_else(|| format!("bad population entry {spec:?}: want asn=users"))?;
                    Ok((
                        asn_arg(asn)?,
                        users
                            .parse::<u64>()
                            .map_err(|_| format!("bad user count {users:?}"))?,
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?;
            let (covered, total) = study.coverage(hg, row, &population);
            writeln!(
                out,
                "{covered}/{total} users ({:.1}%)",
                100.0 * covered as f64 / total.max(1) as f64
            )?;
        }
        _ => return Err(USAGE.to_owned().into()),
    }
    out.flush()?;
    Ok(())
}

fn hg_arg(name: &str) -> Result<hgsim::Hg, String> {
    parse_hg(name).ok_or_else(|| format!("unknown hypergiant {name:?}"))
}

fn asn_arg(s: &str) -> Result<u32, String> {
    s.trim_start_matches("AS")
        .parse()
        .map_err(|_| format!("bad AS number {s:?}"))
}

fn row_arg(study: &FrozenStudy, month: &str) -> Result<usize, String> {
    if let Some(row) = study.row_for_month(month) {
        return Ok(row);
    }
    month
        .parse::<usize>()
        .ok()
        .and_then(|idx| study.row_of(idx))
        .ok_or_else(|| format!("month {month:?} is not in this artifact"))
}
