//! Seeded inputs of the three workloads.  Everything here is a pure
//! function of the workload seed, so a seed names one exact input stream
//! and the digest printed for it can be compared between runs.

use crate::sys::Digest;
use cqfit_data::{Example, Schema};
use cqfit_engine::{ExamplePayload, FitMode, Polarity, QueryClass, Request, Response};
use cqfit_gen::{churn_workload, random_example, random_labeled_examples, resolve_churn};
use cqfit_gen::{ChurnOp, RandomConfig, ResolvedChurnOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Positives per QBE session.  Three positives make `core_of` on the
/// product blow up on some inputs; see the benchmark README.
pub const QBE_POSITIVES: usize = 2;
/// Negatives per QBE session.
pub const QBE_NEGATIVES: usize = 6;
/// Mutations per pipelined ingest burst.
pub const BURST: usize = 32;
/// Live-set cap of the negatives-only ingest churn.
pub const INGEST_LIVE_CAP: usize = 64;
/// Workspaces of the cold-recovery log.
pub const COLD_WORKSPACES: usize = 64;
/// Churn steps per cold-recovery workspace log, before the adds that bring
/// it to [`COLD_LIVE`].
pub const COLD_CHURN_STEPS: usize = 31;
/// Live positives and negatives every cold-recovery workspace ends with,
/// so the cost of its first question varies little between seeds.  Three
/// negatives keep each restart question's hom batch below the four checks
/// that would fan out to worker threads on more than one CPU, so the
/// restart runs on one thread whatever the machine.
pub const COLD_LIVE: (usize, usize) = (2, 3);

/// A well-mixed seed for stream `index` of workload seed `seed`.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether a request asks a fitting question.
pub fn is_question(request: &Request) -> bool {
    matches!(request, Request::Fit { .. } | Request::FittingExists { .. })
}

fn add(workspace: &str, polarity: Polarity, example: Example) -> Request {
    Request::AddExample {
        workspace: workspace.to_string(),
        polarity,
        example: ExamplePayload::Structured(example),
    }
}

/// The question every restart asks of every recovered workspace.
pub fn restart_question(workspace: &str) -> Request {
    Request::Fit {
        workspace: workspace.to_string(),
        class: QueryClass::Cq,
        mode: FitMode::Plain,
    }
}

/// QBE session `index` on `workspace`: create; six negatives; two
/// positives.  A `timed` session asks `Fit{Cq,Minimized}` and
/// `FittingExists{Ucq}` after each positive and a final
/// `Fit{Ucq,Minimized}`, then drops the workspace; a resident one only
/// writes.
pub fn qbe_session(seed: u64, index: u64, workspace: &str, timed: bool) -> Vec<Request> {
    let schema = Schema::digraph();
    let examples = random_labeled_examples(
        &schema,
        &RandomConfig {
            num_values: 5,
            density: 0.3,
            arity: 1,
            num_positive: QBE_POSITIVES,
            num_negative: QBE_NEGATIVES,
            seed: mix(seed, index),
        },
    );
    let ws = || workspace.to_string();
    let mut out = vec![Request::CreateWorkspace {
        workspace: ws(),
        schema: schema.as_ref().clone(),
        arity: 1,
    }];
    for n in examples.negatives() {
        out.push(add(workspace, Polarity::Negative, n.clone()));
    }
    for p in examples.positives() {
        out.push(add(workspace, Polarity::Positive, p.clone()));
        if !timed {
            continue;
        }
        out.push(Request::Fit {
            workspace: ws(),
            class: QueryClass::Cq,
            mode: FitMode::Minimized,
        });
        out.push(Request::FittingExists {
            workspace: ws(),
            class: QueryClass::Ucq,
        });
    }
    if timed {
        out.push(Request::Fit {
            workspace: ws(),
            class: QueryClass::Ucq,
            mode: FitMode::Minimized,
        });
        out.push(Request::DropWorkspace { workspace: ws() });
    }
    out
}

/// The negatives-only churn of `durable_ingest`, with a model of the
/// acknowledged state it predicts answers from.
#[derive(Debug)]
pub struct Churn {
    rng: StdRng,
    schema: Arc<Schema>,
    /// Live negatives by id.
    pub live: BTreeMap<u64, Example>,
    next_id: u64,
    /// Mutations applied (the workspace revision).
    pub revision: u64,
}

/// The workspace `durable_ingest` writes to.
pub const INGEST_WS: &str = "ingest";

impl Churn {
    /// The churn stream of `seed`.
    pub fn new(seed: u64) -> Churn {
        Churn {
            rng: StdRng::seed_from_u64(mix(seed, u64::MAX)),
            schema: Schema::digraph(),
            live: BTreeMap::new(),
            next_id: 0,
            revision: 0,
        }
    }

    /// The create request of the ingest workspace.
    pub fn create(&self) -> Request {
        Request::CreateWorkspace {
            workspace: INGEST_WS.into(),
            schema: self.schema.as_ref().clone(),
            arity: 1,
        }
    }

    /// The next burst, with the answer each member must get.
    pub fn burst(&mut self) -> Vec<(Request, Response)> {
        (0..BURST).map(|_| self.next_op()).collect()
    }

    /// The next mutation, with the answer it must get: an add while the
    /// live set is empty, a removal at the cap, else an add with
    /// probability 0.6.
    pub fn next_op(&mut self) -> (Request, Response) {
        let cfg = RandomConfig {
            num_values: 8,
            density: 0.25,
            arity: 1,
            ..RandomConfig::default()
        };
        let n = self.live.len();
        let adds = n == 0 || (n < INGEST_LIVE_CAP && self.rng.gen_bool(0.6));
        self.revision += 1;
        if adds {
            let e = random_example(&self.schema, &cfg, &mut self.rng);
            let id = self.next_id;
            self.next_id += 1;
            self.live.insert(id, e.clone());
            let answer = Response::ExampleAdded {
                polarity: Polarity::Negative,
                id,
            };
            (add(INGEST_WS, Polarity::Negative, e), answer)
        } else {
            let victim = self.rng.gen_range(0..n);
            let id = *self.live.keys().nth(victim).expect("in range");
            self.live.remove(&id);
            let request = Request::RemoveExample {
                workspace: INGEST_WS.into(),
                polarity: Polarity::Negative,
                id,
            };
            let answer = Response::ExampleRemoved {
                polarity: Polarity::Negative,
                id,
                removed: true,
            };
            (request, answer)
        }
    }

    /// The read that follows every burst, and its predicted answer.
    pub fn info(&self) -> (Request, Response) {
        (
            Request::WorkspaceInfo {
                workspace: INGEST_WS.into(),
            },
            Response::Info {
                workspace: INGEST_WS.into(),
                positives: 0,
                negatives: self.live.len(),
                arity: 1,
                revision: self.revision,
                product_fresh: true,
            },
        )
    }
}

/// Name of cold-recovery workspace `i`.
pub fn cold_ws(i: usize) -> String {
    format!("c{i}")
}

/// The cold-recovery log: per workspace a create, a churn of adds and
/// removes over both polarities (at most [`COLD_LIVE`] live), and the adds
/// that bring the live sets to exactly [`COLD_LIVE`]; interleaved
/// round-robin, each with its predicted answer.
pub fn cold_log(seed: u64) -> Vec<(Request, Response)> {
    let schema = Schema::digraph();
    let mut per_ws: Vec<Vec<(Request, Response)>> = Vec::new();
    for w in 0..COLD_WORKSPACES {
        let name = cold_ws(w);
        let cfg = RandomConfig {
            num_values: 5,
            density: 0.3,
            arity: 1,
            num_positive: COLD_LIVE.0,
            num_negative: COLD_LIVE.1,
            seed: mix(seed, 1 << 32 | w as u64),
        };
        let mut ops = churn_workload(&schema, &cfg, COLD_CHURN_STEPS);
        let live = |positive: bool| {
            ops.iter().fold(0usize, |n, op| match op {
                ChurnOp::AddPositive(_) if positive => n + 1,
                ChurnOp::RemovePositive(_) if positive => n - 1,
                ChurnOp::AddNegative(_) if !positive => n + 1,
                ChurnOp::RemoveNegative(_) if !positive => n - 1,
                _ => n,
            })
        };
        let (pos, neg) = (live(true), live(false));
        let mut rng = StdRng::seed_from_u64(mix(cfg.seed, 1));
        for _ in pos..COLD_LIVE.0 {
            ops.push(ChurnOp::AddPositive(random_example(
                &schema, &cfg, &mut rng,
            )));
        }
        for _ in neg..COLD_LIVE.1 {
            ops.push(ChurnOp::AddNegative(random_example(
                &schema, &cfg, &mut rng,
            )));
        }
        let mut list = vec![(
            Request::CreateWorkspace {
                workspace: name.clone(),
                schema: schema.as_ref().clone(),
                arity: 1,
            },
            Response::WorkspaceCreated {
                workspace: name.clone(),
            },
        )];
        let mut next_id = 0;
        for op in resolve_churn(&ops, 0) {
            list.push(match op {
                ResolvedChurnOp::Add { positive, example } => {
                    let polarity = if positive {
                        Polarity::Positive
                    } else {
                        Polarity::Negative
                    };
                    let id = next_id;
                    next_id += 1;
                    (
                        add(&name, polarity, *example),
                        Response::ExampleAdded { polarity, id },
                    )
                }
                ResolvedChurnOp::Remove { positive, id } => {
                    let polarity = if positive {
                        Polarity::Positive
                    } else {
                        Polarity::Negative
                    };
                    (
                        Request::RemoveExample {
                            workspace: name.clone(),
                            polarity,
                            id,
                        },
                        Response::ExampleRemoved {
                            polarity,
                            id,
                            removed: true,
                        },
                    )
                }
            });
        }
        per_ws.push(list);
    }
    let longest = per_ws.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| per_ws.iter().filter_map(move |list| list.get(i).cloned()))
        .collect()
}

/// Digest of a request stream, as its wire text.
pub fn digest_requests<'a>(requests: impl IntoIterator<Item = &'a Request>) -> u64 {
    let mut d = Digest::default();
    for r in requests {
        d.write(serde::to_string(r).as_bytes());
    }
    d.value()
}
