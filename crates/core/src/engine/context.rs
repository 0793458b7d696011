//! Reusable per-worker query scratch.
//!
//! Every query needs a set of concurrent priority queues, a barrier, and
//! a per-query mindist lookup table (16 × 256 floats). Allocating these
//! from scratch per query is noise for one interactive query but real
//! overhead on the batch hot path — ParIS+ (PAPERS.md) attributes part
//! of its win to keeping exactly this machinery allocation-free across
//! queries. A [`QueryContext`] owns the scratch and hands the engine
//! freshly *reset* (not reallocated) views each query.
//!
//! The context is tied to the index lifetime `'a` because the queues
//! hold `LeafRun<'a>` views (spans of one or more member leaves of an
//! arena leaf run — the position slice plus the run's symbol columns)
//! between the traversal and processing phases. The pooled
//! [`crate::ShardedExecutor`] keeps a `SlotPool` of them per shard and
//! holds one per batch worker for its whole share of a batch (contexts
//! are `Send`, so the lock-free checkout/checkin handoff moves them
//! freely between request threads).
//! [`QueryContext::alloc_events`] counts how many times scratch had to
//! be (re)built, so a steady batch shows a flat counter after its first
//! query.

use crate::config::{QueryConfig, QueuePolicy};
use crate::node::LeafRun;
use messi_sax::convert::SaxConfig;
use messi_sax::mindist::MindistTable;
use messi_sync::{QueueSet, SenseBarrier};

/// What the per-query mindist table should be refilled with.
pub(crate) enum TableSpec<'q> {
    /// A point query's PAA (Euclidean search).
    Point(&'q [f32]),
    /// The PAAs of an LB_Keogh envelope's lower and upper series (DTW).
    Envelope(&'q [f32], &'q [f32]),
}

/// Borrowed, query-ready views into a [`QueryContext`]'s scratch.
pub(crate) struct Scratch<'c, 'a> {
    /// Empty, unfinished queues — `None` for queue-less objectives.
    pub(crate) queues: Option<&'c QueueSet<LeafRun<'a>>>,
    /// A barrier armed for the query's worker count — `None` when no
    /// queue phase (and hence no phase transition) exists.
    pub(crate) barrier: Option<&'c SenseBarrier>,
    /// The per-query lower-bound lookup table, freshly refilled.
    pub(crate) table: &'c MindistTable,
}

/// Reusable scratch for the query engine: queue set, barrier, and
/// mindist table, allocated once and reset between queries.
///
/// ```
/// use messi_core::{IndexConfig, QueryConfig, QuerySpec, ShardedIndex};
/// use messi_series::gen::{self, DatasetKind};
/// use std::sync::Arc;
///
/// let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 9));
/// let (index, _) = ShardedIndex::build(Arc::clone(&data), 1, &IndexConfig::for_tests());
/// let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 4, 9);
///
/// let exec = index.executor();
/// let config = QueryConfig::for_tests();
/// let mut events = Vec::new();
/// for q in queries.iter() {
///     let (_, _, alloc_events, _) = exec.run_one_traced(q, &QuerySpec::exact(), &config);
///     events.push(alloc_events);
/// }
/// // Only the first query builds the pooled context's scratch: later
/// // queries reuse its queue set and mindist table.
/// assert!(events[0] > 0);
/// assert!(events[1..].iter().all(|&e| e == 0));
/// ```
#[derive(Default)]
pub struct QueryContext<'a> {
    queues: Option<QueueSet<LeafRun<'a>>>,
    barrier: Option<SenseBarrier>,
    table: Option<MindistTable>,
    alloc_events: u64,
}

impl<'a> QueryContext<'a> {
    /// Creates an empty context. Nothing is allocated until the first
    /// query prepares it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of scratch (re)allocation events so far: building or
    /// growing the queue set, or building a mindist table for a new
    /// segment count. A batch that reuses its context sees this counter
    /// stay flat after the first query — the acceptance signal for the
    /// allocation-free batch hot path.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }

    /// Readies the scratch for one query: refills the mindist table per
    /// `spec`, and — when `config` demands a queue phase — resets the
    /// queue set to the effective queue count and re-arms the barrier.
    /// Returns borrowed views whose lifetime pins the context for the
    /// duration of the query.
    pub(crate) fn prepare(
        &mut self,
        sax: SaxConfig,
        spec: TableSpec<'_>,
        queued: Option<&QueryConfig>,
    ) -> Scratch<'_, 'a> {
        match &mut self.table {
            Some(table) if table.segments() == sax.segments => match spec {
                TableSpec::Point(paa) => table.refill(paa, sax),
                TableSpec::Envelope(lower, upper) => table.refill_from_envelope(lower, upper, sax),
            },
            slot => {
                *slot = Some(match spec {
                    TableSpec::Point(paa) => MindistTable::new(paa, sax),
                    TableSpec::Envelope(lower, upper) => {
                        MindistTable::from_envelope(lower, upper, sax)
                    }
                });
                self.alloc_events += 1;
            }
        }

        let uses_queues = queued.is_some();
        if let Some(config) = queued {
            let nq = effective_queue_count(config);
            match &mut self.queues {
                Some(queues) if queues.len() == nq => queues.reset(),
                Some(queues) => {
                    if queues.reset_to(nq) {
                        self.alloc_events += 1;
                    }
                }
                slot => {
                    *slot = Some(QueueSet::new(nq));
                    self.alloc_events += 1;
                }
            }
            match &mut self.barrier {
                Some(barrier) if barrier.parties() == config.num_workers => {}
                Some(barrier) => barrier.reset(config.num_workers),
                slot => *slot = Some(SenseBarrier::new(config.num_workers)),
            }
        }

        Scratch {
            queues: if uses_queues {
                self.queues.as_ref()
            } else {
                None
            },
            barrier: if uses_queues {
                self.barrier.as_ref()
            } else {
                None
            },
            table: self.table.as_ref().expect("table prepared above"),
        }
    }
}

impl std::fmt::Debug for QueryContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryContext")
            .field("queues", &self.queues.as_ref().map(QueueSet::len))
            .field("barrier", &self.barrier.as_ref().map(SenseBarrier::parties))
            .field("table", &self.table.as_ref().map(MindistTable::segments))
            .field("alloc_events", &self.alloc_events)
            .finish()
    }
}

/// The number of priority queues a query actually uses: Nq under the
/// paper's shared design, Ns under the rejected per-worker-local design
/// (each worker owns exactly one queue).
pub(crate) fn effective_queue_count(config: &QueryConfig) -> usize {
    match config.queue_policy {
        QueuePolicy::SharedRoundRobin => config.num_queues,
        QueuePolicy::PerWorkerLocal => config.num_workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_moves_between_threads() {
        // The exec layer's SlotPool hands contexts across request
        // threads; this is the compile-time `Send` guarantee that makes
        // that handoff sound.
        fn assert_send<T: Send>() {}
        assert_send::<QueryContext<'static>>();
    }

    #[test]
    fn scratch_is_reused_across_preparations() {
        let sax = SaxConfig::new(8, 64);
        let paa = vec![0.25f32; 8];
        let config = QueryConfig {
            num_workers: 3,
            num_queues: 2,
            ..QueryConfig::for_tests()
        };
        let mut ctx = QueryContext::new();
        {
            let scratch = ctx.prepare(sax, TableSpec::Point(&paa), Some(&config));
            assert_eq!(scratch.queues.unwrap().len(), 2);
            assert_eq!(scratch.barrier.unwrap().parties(), 3);
        }
        let after_first = ctx.alloc_events();
        assert!(after_first > 0);
        // Identical shape: zero further allocation events.
        {
            let _ = ctx.prepare(sax, TableSpec::Point(&paa), Some(&config));
        }
        assert_eq!(ctx.alloc_events(), after_first);
        // Queue-less preparation reuses the table and ignores the queues.
        {
            let scratch = ctx.prepare(sax, TableSpec::Point(&paa), None);
            assert!(scratch.queues.is_none());
            assert!(scratch.barrier.is_none());
        }
        assert_eq!(ctx.alloc_events(), after_first);
        // Growing the queue set is an allocation event; shrinking is not.
        let grown = QueryConfig {
            num_queues: 7,
            ..config.clone()
        };
        {
            let _ = ctx.prepare(sax, TableSpec::Point(&paa), Some(&grown));
        }
        assert_eq!(ctx.alloc_events(), after_first + 1);
        {
            let _ = ctx.prepare(sax, TableSpec::Point(&paa), Some(&config));
        }
        assert_eq!(ctx.alloc_events(), after_first + 1);
    }

    #[test]
    fn per_worker_local_policy_sizes_queues_by_workers() {
        let config = QueryConfig {
            num_workers: 5,
            num_queues: 2,
            queue_policy: QueuePolicy::PerWorkerLocal,
            ..QueryConfig::for_tests()
        };
        assert_eq!(effective_queue_count(&config), 5);
        assert_eq!(
            effective_queue_count(&QueryConfig {
                queue_policy: QueuePolicy::SharedRoundRobin,
                ..config
            }),
            2
        );
    }
}
