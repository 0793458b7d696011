//! Unit tests of exact DTW 1-NN search via LB_Keogh envelopes
//! (Fig. 19): the unchanged search skeleton under the three-level
//! `mindist_env ≤ LB_Keogh ≤ DTW` cascade, through
//! [`MessiIndex::search_dtw`](crate::MessiIndex::search_dtw) and the
//! query path on caller-provided scratch.

#[cfg(test)]
mod tests {
    use crate::config::{IndexConfig, QueryConfig};
    use crate::engine::{QueryContext, ShardSlot};
    use crate::exec::{answer, QueryAnswer, QuerySpec};
    use crate::index::MessiIndex;
    use crate::stats::QueryStats;
    use messi_series::distance::dtw::dtw_sq;
    use messi_series::distance::dtw::DtwParams;
    use messi_series::gen::{self, DatasetKind};
    use std::sync::Arc;

    /// One 1-NN query of `spec` through the query path on caller scratch.
    fn nearest_on<'a>(
        index: &'a MessiIndex,
        query: &[f32],
        spec: QuerySpec,
        config: &QueryConfig,
        ctx: &mut QueryContext<'a>,
    ) -> (QueryAnswer, QueryStats) {
        let (mut answers, stats) =
            answer(index, query, &spec, config, ctx, ShardSlot::solo(), None);
        (answers.pop().expect("1-NN answers once"), stats)
    }

    fn brute_force_dtw(
        data: &messi_series::Dataset,
        query: &[f32],
        params: DtwParams,
    ) -> (usize, f32) {
        let mut best = (0usize, f32::INFINITY);
        for (i, s) in data.iter().enumerate() {
            let d = dtw_sq(query, s, params);
            if d < best.1 {
                best = (i, d);
            }
        }
        best
    }

    #[test]
    fn dtw_search_matches_brute_force() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 31));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let params = DtwParams::paper_default(256);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 4, 31);
        for q in queries.iter() {
            let (ans, stats) = index.search_dtw(q, params, &QueryConfig::for_tests());
            let (bf_pos, bf_dist) = brute_force_dtw(&data, q, params);
            assert!(
                (ans.dist_sq - bf_dist).abs() <= 1e-3 * bf_dist.max(1.0),
                "{} vs {bf_dist}",
                ans.dist_sq
            );
            if ans.pos as usize != bf_pos {
                let d = dtw_sq(q, data.series(ans.pos as usize), params);
                assert!((d - bf_dist).abs() <= 1e-3 * bf_dist.max(1.0));
            }
            assert!(
                stats.real_distance_calcs < data.len() as u64,
                "DTW search should prune"
            );
        }
    }

    #[test]
    fn dtw_search_on_smooth_data() {
        // SALD-like data warps well; exactness must hold regardless.
        let data = Arc::new(gen::generate(DatasetKind::Sald, 200, 8));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let params = DtwParams::paper_default(128);
        let queries = gen::queries::generate_queries(DatasetKind::Sald, 3, 8);
        for q in queries.iter() {
            let (ans, _) = index.search_dtw(q, params, &QueryConfig::for_tests());
            let (_, bf_dist) = brute_force_dtw(&data, q, params);
            assert!((ans.dist_sq - bf_dist).abs() <= 1e-3 * bf_dist.max(1.0));
        }
    }

    #[test]
    fn member_query_has_zero_dtw() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 100, 2));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let q = data.series(5).to_vec();
        let params = DtwParams::paper_default(256);
        let (ans, _) = index.search_dtw(&q, params, &QueryConfig::for_tests());
        assert_eq!(ans.dist_sq, 0.0);
    }

    #[test]
    fn zero_window_dtw_equals_euclidean_search() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 150, 3));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 2, 3);
        for q in queries.iter() {
            let (dtw_ans, _) =
                index.search_dtw(q, DtwParams { window: 0 }, &QueryConfig::for_tests());
            let (ed_ans, _) = index.search(q, &QueryConfig::for_tests());
            assert!(
                (dtw_ans.dist_sq - ed_ans.dist_sq).abs() <= 1e-3 * ed_ans.dist_sq.max(1.0),
                "{} vs {}",
                dtw_ans.dist_sq,
                ed_ans.dist_sq
            );
        }
    }

    #[test]
    fn dtw_with_reused_context_stays_exact() {
        // A context can serve ED and DTW queries alternately: the mindist
        // table is refilled from a point PAA or an envelope as needed.
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 200, 41));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let params = DtwParams::paper_default(256);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 41);
        let config = QueryConfig::for_tests();
        let mut ctx = QueryContext::new();
        for q in queries.iter() {
            let dtw = QuerySpec::exact().with_dtw(params);
            let (dtw_ans, _) = nearest_on(&index, q, dtw, &config, &mut ctx);
            let (_, bf) = brute_force_dtw(&data, q, params);
            assert!((dtw_ans.dist_sq - bf).abs() <= 1e-3 * bf.max(1.0));
            let (ed_ans, _) = nearest_on(&index, q, QuerySpec::exact(), &config, &mut ctx);
            let (_, ed_bf) = data.nearest_neighbor_brute_force(q);
            assert!((ed_ans.dist_sq - ed_bf).abs() <= 1e-3 * ed_bf.max(1.0));
        }
    }
}
