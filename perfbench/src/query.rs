//! `query`: offnet-query-style invocations against a frozen artifact.
//!
//! Set-up runs the study once with `artifact_out`. Each op is what one
//! `offnet-query` invocation does: `FrozenStudy::load`, then one query
//! from a seeded mix of the six query kinds. A pass is the same fixed list
//! of queries, so every run has the same mix. Answers are checked against
//! the set-up's in-memory `StudySeries`.

use crate::measure::Rng;
use crate::trace::Tracer;
use crate::{LayerMetrics, TraceSummary, Workload};
use hgsim::{Hg, HgWorld, ALL_HGS};
use netsim::AsId;
use offnet_core::{read_artifact_payload, run_study, ArtifactTables, StudyConfig, StudySeries};
use offnet_query::FrozenStudy;
use scanner::ScanEngine;
use std::path::{Path, PathBuf};

const QUERIES_PER_PASS: usize = 60;
const POPULATION_ASES: usize = 200;

#[derive(Debug, Clone, Copy)]
enum Query {
    Ases { hg: Hg, row: usize },
    Hosts { hg: Hg, row: usize, asn: u32 },
    Growth { hg: Hg },
    AsCurve { asn: u32 },
    Coverage { hg: Hg, row: usize },
    HgsInAs { row: usize, asn: u32 },
}

#[derive(Debug, PartialEq)]
enum Answer {
    Ases(Vec<u32>),
    Hosts(bool),
    Curve(Vec<usize>),
    Coverage(u64, u64),
    Hgs(Vec<Hg>),
}

pub struct QueryLoad {
    path: PathBuf,
    series: StudySeries,
    queries: Vec<Query>,
    population: Vec<(u32, u64)>,
    answer: Option<(FrozenStudy, Answer)>,
}

pub fn setup<'w>(world: &'w HgWorld, work: &Path, seed: u64) -> Box<dyn Workload + 'w> {
    let path = work.join("study.offna");
    let config = StudyConfig {
        artifact_out: Some(path.clone()),
        ..Default::default()
    };
    let series = run_study(world, &ScanEngine::rapid7(), &config);

    // Half the AS numbers come from the study's confirmed cells (hits),
    // half lie past every AS it knows (misses).
    let mut asns: Vec<u32> = series
        .snapshots
        .iter()
        .flat_map(|s| {
            s.per_hg
                .values()
                .flat_map(|r| r.confirmed_ases.iter().map(|a| a.0))
        })
        .collect();
    asns.sort_unstable();
    asns.dedup();
    assert!(!asns.is_empty(), "the study confirmed no AS to query");
    let max_asn = *asns.last().expect("non-empty");
    let mut rng = Rng::new(seed);
    let asn = |rng: &mut Rng| {
        if rng.below(2) == 0 {
            asns[rng.below(asns.len())]
        } else {
            max_asn + 1 + rng.below(1000) as u32
        }
    };
    let rows = series.snapshots.len();
    let population = (0..POPULATION_ASES)
        .map(|_| (asn(&mut rng), 1 + rng.below(1_000_000) as u64))
        .collect();
    let queries = (0..QUERIES_PER_PASS)
        .map(|i| {
            let hg = ALL_HGS[rng.below(ALL_HGS.len())];
            let row = rng.below(rows);
            match i % 6 {
                0 => Query::Ases { hg, row },
                1 => Query::Hosts {
                    hg,
                    row,
                    asn: asn(&mut rng),
                },
                2 => Query::Growth { hg },
                3 => Query::AsCurve { asn: asn(&mut rng) },
                4 => Query::Coverage { hg, row },
                _ => Query::HgsInAs {
                    row,
                    asn: asn(&mut rng),
                },
            }
        })
        .collect();
    Box::new(QueryLoad {
        path,
        series,
        queries,
        population,
        answer: None,
    })
}

impl QueryLoad {
    /// The answer computed from the in-memory series, the canonical result.
    fn expected(&self, q: Query) -> Answer {
        let s = &self.series;
        let hosts = |hg: Hg, row: usize, asn: u32| s.confirmed_at(hg, row).contains(&AsId(asn));
        match q {
            Query::Ases { hg, row } => {
                Answer::Ases(s.confirmed_at(hg, row).iter().map(|a| a.0).collect())
            }
            Query::Hosts { hg, row, asn } => Answer::Hosts(hosts(hg, row, asn)),
            Query::Growth { hg } => Answer::Curve(s.confirmed_counts(hg).collect()),
            Query::AsCurve { asn } => Answer::Curve(
                (0..s.snapshots.len())
                    .map(|row| ALL_HGS.iter().filter(|&&hg| hosts(hg, row, asn)).count())
                    .collect(),
            ),
            Query::Coverage { hg, row } => {
                let total = self.population.iter().map(|p| p.1).sum();
                let covered = self
                    .population
                    .iter()
                    .filter(|p| hosts(hg, row, p.0))
                    .map(|p| p.1)
                    .sum();
                Answer::Coverage(covered, total)
            }
            Query::HgsInAs { row, asn } => Answer::Hgs(
                ALL_HGS
                    .iter()
                    .copied()
                    .filter(|&hg| hosts(hg, row, asn))
                    .collect(),
            ),
        }
    }
}

fn ask(f: &FrozenStudy, q: Query, population: &[(u32, u64)], tr: &mut Tracer) -> Answer {
    match q {
        Query::Ases { hg, row } => tr.span("query.lookup.ases", |_| {
            Answer::Ases(f.ases_hosting(hg, row).to_vec())
        }),
        Query::Hosts { hg, row, asn } => tr.span("query.lookup.hosts", |_| {
            Answer::Hosts(f.hosts(hg, row, asn))
        }),
        Query::Growth { hg } => {
            tr.span("query.lookup.growth", |_| Answer::Curve(f.growth_curve(hg)))
        }
        Query::AsCurve { asn } => {
            tr.span("query.lookup.as_curve", |_| Answer::Curve(f.as_curve(asn)))
        }
        Query::Coverage { hg, row } => tr.span("query.lookup.coverage", |_| {
            let (covered, total) = f.coverage(hg, row, population);
            Answer::Coverage(covered, total)
        }),
        Query::HgsInAs { row, asn } => tr.span("query.lookup.hgs_in_as", |_| {
            Answer::Hgs(f.hgs_in_as(row, asn))
        }),
    }
}

impl Workload for QueryLoad {
    fn pass_len(&self) -> usize {
        self.queries.len()
    }

    fn threads(&self) -> usize {
        1
    }

    /// The set-up's `StudySeries` is the reference.
    fn reference(&mut self) {}

    fn run(&mut self, i: usize, tr: &mut Tracer) {
        let frozen = tr
            .span("query.load", |_| FrozenStudy::load(&self.path))
            .expect("the set-up artifact loads");
        let answer = ask(&frozen, self.queries[i], &self.population, tr);
        // Kept, so the tables are freed in `check`, outside the timed op.
        self.answer = Some((frozen, answer));
    }

    fn check(&mut self, i: usize) -> bool {
        self.answer
            .take()
            .is_some_and(|(_, answer)| answer == self.expected(self.queries[i]))
    }

    fn end_pass(&mut self, tr: &mut Tracer) -> bool {
        if tr.is_on() {
            // The two steps `FrozenStudy::load` starts with, each on its
            // own, once per op of the pass.
            let path = &self.path;
            for _ in 0..self.queries.len() {
                let (_, payload) = tr
                    .span("artifact.read_payload", |_| read_artifact_payload(path))
                    .expect("the set-up artifact reads");
                tr.span("artifact.tables_parse", |_| {
                    std::hint::black_box(ArtifactTables::parse(&payload, path).is_ok())
                });
            }
        }
        true
    }

    fn layers(&self, t: &TraceSummary, m: &mut LayerMetrics) {
        m.set("query.load_ms", t.ms_per_op("query.load"));
        m.set(
            "artifact.read_payload_ms",
            t.ms_per_op("artifact.read_payload"),
        );
        m.set(
            "artifact.tables_parse_ms",
            t.ms_per_op("artifact.tables_parse"),
        );
        for (metric, span) in [
            ("query.lookup_ns.ases", "query.lookup.ases"),
            ("query.lookup_ns.hosts", "query.lookup.hosts"),
            ("query.lookup_ns.growth", "query.lookup.growth"),
            ("query.lookup_ns.as_curve", "query.lookup.as_curve"),
            ("query.lookup_ns.coverage", "query.lookup.coverage"),
            ("query.lookup_ns.hgs_in_as", "query.lookup.hgs_in_as"),
        ] {
            m.set(metric, t.ms_per_span(span) * 1e6);
        }
    }
}
