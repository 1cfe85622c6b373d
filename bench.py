"""Benchmark harness (driver contract).

Headline: one fetch-heavy crawl pass over a deterministic 200k-URL
synthetic frontier (Zipf-skewed hosts, politeness budgets, seen-set,
link expansion — the full engine), with the simulated fetch calibrated to
~13 ms CPU/URL (md5 over a shared 8 MiB buffer ≈ a heavy page
parse+tokenize cost), so the measurement is dominated by useful per-URL
compute rather than orchestration. Plus per-operator timings over
``$GRAFT_SF_DIR`` testdata.

Prints ONE JSON line:
  {"metric": ..., "value": <headline sec>, "unit": "sec",
   "queries": {name: sec}, "sf": ..., "num_cpus": N, ...}

``--scaling``: reruns the headline in fresh processes at num_cpus=8 and
32 (N and 4N) on the same input and reports both throughputs + scaling
efficiency (the sandbox stand-in for the N vs 4N node criterion —
SURVEY.md §4.3). Both levels use the same rep policy (best-of-REPS,
default 2) so neither side of the ratio is favored.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

BENCH_QUERIES = [
    "q1_pricing", "docs_per_lang", "events_rollup", "region_revenue",
    "events_topk_per_user", "dedup_exact", "text_stats", "spans_flat",
    "ngram_top_pairs", "knn_bruteforce", "knn_lsh", "embedding_dup_pairs",
    "minhash_lsh_groups", "simhash_docs", "text_analysis", "media_metadata",
    "knn_ivf", "knn_ivfpq", "events_windowed", "user_activity", "curate_docs",
    "order_priority_revenue", "user_sessions", "events_percentiles",
    "media_features", "media_frames",
    "purchase_click_asof", "quiet_customers", "q3_shipping",
    "events_value_bands", "top_tokens", "top_tokens_sketch",
    "simhash_dup_pairs",
    "user_value_rolling", "users_per_event_type", "docs_hash_sample",
    "embedding_dup_groups", "media_resized", "pack_sequences",
    "users_per_event_type_hll", "user_event_pivot", "dup_ngram_spans",
    "curate_pack", "part_supplier_revenue", "decontaminate_docs",
    "events_grouping_sets", "events_latest_per_key",
    "users_click_and_purchase",
    "events_ranked", "events_lag_delta", "events_props_deciles",
    "events_stratified_sample", "events_value_histogram",
    "q5_region_supplier_volume", "big_order_lines_bloom",
    "q18_large_orders", "q17_small_qty_revenue",
    "users_click_no_purchase", "docs_per_source_cap",
    "doc_repetition", "tfidf_top_terms",
    "q14_promo_revenue", "q7_nation_volume", "q19_bracket_revenue",
    "late_shipment_priority", "redact_terms", "events_funnel",
    "interleaved_pack", "pagerank_parts",
    "q22_idle_rich_customers", "doc_token_rank",
    "q6_revenue_delta", "q10_returned_revenue",
    "q13_order_count_distribution", "q15_top_supplier",
    "q8_market_share", "q9_nation_year_revenue",
    "events_rollup_incremental", "lineitem_unpivot",
    "gopher_quality_flags", "name_edit_near_pairs",
    "triangle_count_parts", "token_freq_cms",
    "q2_min_cost_supplier", "q4_priority_with_bulk_line",
    "q11_important_parts", "q16_supplier_breadth",
    "q20_dominant_suppliers", "q21_blocking_suppliers",
    "lm_bigram_scores", "kmeans_clusters", "semantic_dedup",
    "user_value_time_window", "doc_posting_hashes", "bm25_scores",
    "events_hopping", "events_value_zscore",
    "user_value_running_total", "crm_spend_reconciliation",
    "strip_dup_windows", "part_components", "user_top_event_type",
    "events_weighted_sample", "docs_compression_ratio",
    "orders_monthly_growth", "customer_rfm",
    "events_entropy_per_user", "returnflag_revenue_salted",
    "events_daily_gapfill",
    "part_skyline", "heavy_hitter_trigrams", "part_bfs_hops",
    "bpe_merges", "part_pair_support", "customer_part_jaccard",
    "pmi_bigrams", "events_mad_outliers", "events_moving_sum",
    "events_value_ewma", "orders_retention_cohort", "lineitem_profile",
    "events_percentile_rank", "lineitem_corr", "supplier_top_parts",
    "events_nearby_count", "part_kcore",
    "q12_shipmode_priority", "lineitem_fingerprint",
    "events_hist_quantiles", "purchase_attribution",
    "docs_split_assign", "docs_mixture_sample",
    "events_ntile", "user_active_seconds", "user_first_last",
    "lineitem_regr", "events_ohlc", "user_band_runs",
    "docs_chunk_windows", "event_transitions", "embedding_dim_stats",
    "events_value_winsorized", "events_chi2_cells",
    "user_twap", "embedding_quantize",
    "events_rolling_outliers", "user_path_freq",
    "events_dow_hour_heatmap", "part_abc",
    "user_daily_locf", "order_concentration",
    "events_quantiles_by_type", "customer_order_gap_median",
    "events_burst_max", "events_autocorr_lag1",
    "fk_orphan_audit", "docs_trigram_novelty", "part_substitutes",
    "dau_wau", "user_feature_matrix",
    "orders_daily_trend", "order_ship_lag_hist",
    "embedding_sim_hist", "lineitem_benford",
    "customer_revenue_inequality",
    "orders_priority_drift", "supplier_hhi",
    "click_to_purchase_latency", "event_type_overlap",
    "events_daily_acf", "source_vocab_overlap",
    "event_transition_probs", "events_systematic_sample",
    "user_value_cusum",
    "user_streak_max", "lineitem_weighted_median",
    "part_triple_support", "orders_open_backlog",
    "events_ks_test", "events_mwu", "key_skew_report",
    "events_seasonal_backtest", "session_funnel_strict",
    "part_link_prediction",
    "lineitem_cube", "user_ab_test", "user_churn_labels",
    "events_cumulative_users", "orders_pivot_priority",
    "part_neighbor_jaccard",
    "part_clustering_coeff", "part_assortativity",
    "purchase_delta", "region_nation_rollup",
    "events_ttest", "events_trend_forecast",
    "session_bounce_rate", "source_mixture_weights",
    "events_props_stats", "events_survival_curve",
    "events_calibration_bins", "orders_dow_effect",
    "user_distinct_kmv", "events_dedup_burst",
    "embedding_norm_outliers", "order_flag_signature",
    "user_growth_accounting", "events_target_encode",
    "events_randomization_test", "lineitem_zorder_layout",
    "user_lifetime_km", "lineitem_revenue_bridge",
    "events_peak_concurrency", "docs_kfold_assign",
    "part_price_index", "lineitem_pchart",
    "cohort_ltv_curve", "events_drift_tv",
    "lineitem_ols2", "session_step_transitions",
    "events_quiet_windows", "docs_boilerplate_prefix",
    "events_interarrival_fano", "embedding_label_centroids",
    "lineitem_price_surface", "nation_trade_balance",
    "user_retention_triangle", "customer_balance_deciles",
    "docs_source_simpson", "docs_punct_profile",
    "embedding_label_margin", "part_price_ols_by_brand",
    "session_length_hist", "returns_by_ship_lag",
    "days_to_first_purchase", "user_activity_hist",
    "order_line_count_hist", "media_phash_bands",
    "orders_changepoint_scan", "customer_snm_pairs",
    "part_abc_xyz", "user_burstiness_bands",
    "lineitem_margin_waterfall", "user_type_diversity_hist",
    "orders_monthly_zchart", "docs_token_len_profile",
    "events_type_share_series", "brand_type_lift",
    "orders_updown_runs", "events_lateness_hist",
    "sample_error_audit", "lineitem_spearman",
    "events_diurnal_concentration", "trigram_spectrum",
    "order_total_reconciliation", "session_threshold_sensitivity",
    "events_type_xcorr", "user_lifecycle_census",
    "events_kanon_audit", "quantile_sketch_error",
    "purchase_latency_slo", "source_yield_funnel",
    "orders_rescaled_range", "orders_theil_sen",
    "user_part_negatives",
    "events_cuped_adjust", "orders_seasonal_strength",
    "customer_order_class_migration", "part_supplier_redundancy",
    "orders_month_end_effect", "session_entry_conversion",
    "source_hapax_ratio",
    "tombstone_impact_audit", "catalog_profile",
    "events_gap_memory",
    "user_minute_burst_flags", "repeat_purchase_gaps",
    "ngram_containment_pairs", "events_round_number_bias",
    "user_tenure_value_curve",
    "embedding_triplet_audit", "ship_lag_quantiles_by_priority",
    "bloom_fpr_audit", "part_price_dispersion",
    "line_dedup_rate", "first_order_ltv_corr",
    "hte_by_decile", "part_stock_clamp", "score_auc_audit",
    "vocab_growth_curve", "minhash_error_audit", "blocking_key_audit",
    "ldiversity_audit", "fdr_bh_audit", "discount_emd_by_year",
    "fd_violation_audit", "user_decayed_value",
    "part_name_collision_audit", "supplier_return_wilson",
    "docs_readability",
    "priority_transition_matrix", "boilerplate_overlap_matrix",
    "token_coverage_curve",
    "kmv_set_ops_audit", "dedup_threshold_pr",
    "simpson_paradox_audit", "zipf_slope_audit",
    "embedding_isotropy_audit", "kfold_balance_audit",
    "tcloseness_audit", "ab_power_mde", "token_burstiness",
    "fold_leakage_audit", "poisson_bootstrap_ci",
    "survivorship_bias_audit", "f2_ams_audit",
    "frequency_cap_audit", "cms_width_sweep",
    "ratio_delta_method", "churn_rule_confusion",
    "hdr_quantile_audit",
    "ab_srm_check", "mta_linear_credit",
    "mta_position_credit", "vocab_richness_chao1",
    "jackknife_mean_se", "randomized_response_audit",
    "orders_max_drawdown", "orders_mann_kendall",
    "orders_kendall_tau", "events_turning_points",
    "part_brand_type_cramer", "orders_dow_anova",
    "lineitem_quantity_ks_uniform", "customer_segment_kruskal",
    "supplier_grubbs_extremes", "nation_segment_stdres",
    "part_price_tukey_fences", "orders_runs_median",
    "orders_friedman_dow", "orders_variance_ratio",
    "lineitem_cohen_kappa", "events_mcnemar_halves",
    "part_price_skew_kurtosis", "lineitem_partial_corr",
    "lineitem_blomqvist_beta", "event_transition_drift",
    "lineitem_gamma_gk", "orders_wilcoxon_weekend",
    "orders_revenue_milestones", "lineitem_position_profile",
    "lineitem_dose_response", "events_daily_record_census",
    "customer_cvm_segments", "events_ljung_box",
    "nation_flow_stdres", "events_brown_forsythe",
    "media_phash_near_pairs", "lineitem_tail_dependence",
    "events_rayleigh_hour", "events_hour_resultant_by_type",
    "embedding_hubness_audit", "hash_partition_balance",
    "simhash_bit_bias_audit", "token_head_tail_ladder",
    "part_rich_club", "events_inspection_paradox",
    "orders_var_es", "nation_revenue_shift_share",
    "part_brand_hhi_decomposition", "customer_topk_stability",
    "orders_gain_loss_asymmetry", "lineitem_arc_elasticity",
    "lang_token_simpson", "orders_regression_to_mean",
    "lineitem_did_discount", "events_two_way_anova",
    "lineitem_capability_index", "orders_theil_u2",
    "orders_chow_break", "keyspace_contiguity_audit",
    "vocab_oov_transfer", "media_frame_coverage",
    "embedding_knn_loo_accuracy", "q6_sensitivity_grid",
    "orders_weekly_periodogram", "lineitem_energy_distance",
    "events_cochran_q", "lineitem_hilbert_locality",
    "orders_pettitt_test", "events_bowker_symmetry",
    "part_graph_modularity", "events_permutation_entropy",
    "orders_newey_west", "lineitem_discount_rdd",
    "events_allan_variance", "lineitem_zonemap_pruning",
    "events_sax_motifs", "docs_menzerath",
    "docs_rouge_pairs", "lineitem_bucket_semijoin_audit",
    "events_recurrence_quantification", "orders_bullwhip_ratio",
    "user_split_half_reliability", "part_knapsack_greedy",
    "events_peak_over_threshold", "embedding_centroid_drift",
    "orders_epoch_folding", "part_degree_ccdf",
    "part_demand_quadrants", "customer_lorenz_asymmetry",
    "customer_order_overdispersion", "nation_segment_rca",
    "media_scene_changes", "part_price_stickiness",
    "embedding_kmeans_elbow", "trade_home_bias",
    "part_walk_centrality", "orders_quarterly_gini",
    "part_price_nested_anova", "docs_nchars_consistency",
    "events_markov_order_test", "events_neyman_allocation",
    "docs_winnowing_density", "embedding_thin_shell",
    "nation_ship_lag_median", "orders_seasonal_mann_kendall",
    "part_abc_migration", "events_type_user_gini",
    "supplier_type_coverage", "part_supply_resilience",
    "part_name_price_premium", "events_next_value_by_type",
    "lineitem_status_stump", "order_supplier_spread",
    "lineitem_moods_median", "join_size_estimator_audit",
    "embedding_knn_reciprocity", "customer_brand_loyalty",
    "supplier_cr_ratios", "events_group_sequential",
    "lineitem_ansari_bradley", "user_dow_habit",
    "dedup_cross_source_census", "customer_value_trend_census",
    "brand_mix_drift_series", "events_dwell_runs",
    "events_conformal_coverage", "lineitem_cluster_deff",
    "embedding_norm2_anova", "orders_weekend_ks_dominance",
    "user_early_signal_corr", "orders_pacf2",
    "lineitem_return_trend_ca", "media_aspect_census",
    "lineitem_tax_regressivity", "embedding_exact_dup_census",
    "lang_source_lift", "lineitem_discount_moy",
    "events_daily_basket_lift", "lineitem_benford2",
    "events_hour_drift", "user_pareto_8020",
    "brand_type_coverage", "part_price_points",
    "user_decile_migration", "events_weekend_mix_shift",
    "brand_edge_affinity", "user_night_owl_census",
    "embedding_knn_confusion", "orders_status_year_mix",
    "orders_size_slope", "brand_return_stdres",
    "order_line_concentration", "whale_geography",
    "supplier_brand_specialization", "orders_yearly_customer_hhi",
    "customer_balance_revenue_corr", "part_type_size_price_census",
    "events_type_dow_peak", "orders_new_repeat_split",
    "vocab_gini", "docs_length_anova_by_source",
    "orders_value_cv_by_priority", "supplier_credit_hold_census",
    "events_minute_heaping", "brand_price_overlap",
    "docs_ttr_bands", "orders_priority_by_value_decile",
    "region_share_shift", "events_zero_value_census",
    "nation_market_depth", "brand_no_promo_census",
    "entity_name_id_audit", "part_price_endings",
    "user_coverage_census", "part_size_uniformity",
    "docs_length_quantiles_by_source", "lineitem_zero_zero_lift",
    "customer_priority_stickiness",
    "lineitem_discount_tax_independence",
    "nation_balance_sheet", "supplier_part_repeat_census",
    "user_journey_endpoints", "part_name_word_census",
    "order_linenumber_contiguity",
    "supplier_activity_balance_gamma",
    "customer_urgency_drift", "part_size_price_gamma",
    "segment_priority_mix", "lineitem_net_multiplier_census",
    "embedding_dim_sign_balance",
    "nation_supplier_activity_hhi",
    "order_ship_span_census", "embedding_label_doc_mix",
    "embedding_coverage_by_source",
    "part_competition_price_spread",
    "lineitem_price_divisibility_audit",
    "customer_same_day_orders",
    "user_weekend_value_census", "embedding_norm_vs_doclen",
    "nation_price_premium", "returns_by_quantity_band",
    "order_size_discount_curve", "supplier_month_coverage",
    "user_day_opening_type", "part_assortment_churn",
    "customer_activity_balance_gamma",
    "user_daily_intensity_census",
    "customer_order_momentum",
    "revenue_inequality_decomposition",
    "event_type_launch_profile", "linestatus_boundary_audit",
    "ship_before_order_audit", "ship_dow_profile",
    "event_type_intraday_cadence", "status_priority_mix",
    "tax_uniformity_by_nation", "event_id_day_monotonicity",
    "segment_one_and_done", "user_spend_maturation",
    "part_three_way_independence", "user_error_exposure",
    "customer_value_gap_interaction",
    "events_daily_load_factor",
    "type_brand_dominance", "user_day_type_breadth",
    "catalog_vs_street_price", "events_value_tail_share",
    "price_leadership_topk", "user_first_day_value_share",
    "order_discount_consistency", "embedding_dim_range",
    "part_name_pair_affinity", "events_value_mode_census",
    "weekend_priority_shift", "user_activity_fingerprint_dups",
    "nation_part_coverage", "basket_width_trend",
    "premium_return_interaction", "basket_width_ship_span",
    "returns_by_ship_dow", "unit_price_by_quantity",
    "source_token_budget", "type_arpu",
    "dead_stock_census", "user_resurrection_census",
    "type_value_drift", "first_vs_repeat_priority",
    "supplier_lead_time_laggards", "revenue_by_hour",
    "type_precedence_matrix", "source_mix_drift",
    "order_value_dup_audit", "embedding_norm_drift",
    "vocab_core_census", "type_adoption_rank",
    "orders_status_boundary_audit", "supplier_focus_census",
    "ts_collision_audit", "value_band_type_mix",
    "order_return_severity", "source_word_len_profile",
    "dau_volatility", "debtor_activity_audit",
    "nation_hhi_trend", "dow_depth_profile",
    "streak_value_interaction", "ship_daily_load",
    "priority_width_interaction", "quantity_integrality_audit",
    "brand_revenue_volatility", "tenure_breadth_curve",
    "street_to_list_census", "breadth_value_interaction",
    "order_value_drift", "core_customer_census",
    "nation_balance_revenue_mismatch", "depth_value_curve",
    "part_price_direction_census", "habit_mass_census",
    "type_reach_drift", "supplier_balance_leadtime",
    "segment_share_drift", "brand_promo_spend",
    "doc_length_drift", "return_status_contract_audit",
    "returns_by_size", "top_token_drift",
    "return_rate_drift", "entry_type_value",
    "nation_one_and_done", "assortment_grid_fill",
    "top_supplier_share_drift", "supplier_churn_census",
    "customer_churn_census", "source_ttr_profile",
    "churned_value_share", "discount_mix_drift",
    "signup_dow_profile", "segment_churn_census",
    "entry_type_retention", "quarter_end_loading",
    "nation_churn_census", "part_velocity_census",
    "repeat_revenue_share", "lang_length_profile",
    "dead_stock_value", "user_activity_gini",
    "nation_lead_time", "order_size_gap_effect",
    "corpus_grid_fill", "weekend_order_penalty",
    # round-3 additions
    "crawl_pass_docs",
    "curate_dedup",
    "customer_seasonal_habit",
    "customer_winback_census",
    "dedup_keep_best",
    "docs_chunk_straddle_loss",
    "docs_entropy_rate_by_source",
    "docs_top_nchars",
    "embedding_mmr_topk",
    "embedding_rp",
    "events_channel_conversion_census",
    "events_channel_shapley",
    "events_median_ci_by_type",
    "events_self_transition_stickiness",
    "events_since_watermark",
    "events_transition_dwell",
    "events_type_burst_overlap",
    "events_type_entropy_rate",
    "events_voptimal_histogram",
    "frontier_host_stats",
    "lang_given_source_entropy",
    "order_brand_diversity_curve",
    "order_ship_sync_census",
    "orders_priority_inversion_audit",
    "part_price_tail_index",
    "source_js_divergence_matrix",
    "source_length_ks_matrix",
    "spans_kind_transitions",
    "spans_media_density_by_lang",
    "supplier_backlog_aging",
    "supplier_first_touch_share",
    "token_position_drift",
]

SEEDS = int(os.environ.get("GRAFT_BENCH_SEEDS", "200000"))
REPS = int(os.environ.get("GRAFT_BENCH_REPS", "1"))


def _rss_mb() -> int:
    """Driver-process resident set size in MiB (VmRSS)."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) // 1024
    except OSError:
        pass
    return -1


def crawl_headline(ncpu: int, reps: int = REPS) -> dict:
    import ray
    import ray.data

    from container_crawler_ray.config import CrawlConfig
    from container_crawler_ray.pipelines.crawl import init_run, run_pass
    from container_crawler_ray.sources.synth import make_seed_urls

    cfg = CrawlConfig(
        num_partitions=32, items_chunk=20_000, workers=ncpu, seen_shards=8,
        n_hosts=200, n_paths=3000, pass_time_ms=3_600_000,
        parse_cost_bytes=8 << 20, fail_mod=97,
    )
    seeds = make_seed_urls(SEEDS, n_hosts=cfg.n_hosts)
    # warm the worker pool + page cache (untimed)
    ray.data.range(10_000).map_batches(lambda b: b).materialize()
    best = None
    for _ in range(max(1, reps)):  # best-of-N: robust to CPU-steal noise
        root = f"/tmp/ccrawl-bench-{os.getpid()}"
        shutil.rmtree(root, ignore_errors=True)
        # seed load is one-time setup; the metric is steady-state pass
        # throughput (URLs scheduled+fetched per second of pass wall time)
        store, state = init_run(root, cfg, seeds)
        t0 = time.monotonic()
        stats = run_pass(store, cfg, state)
        sec = time.monotonic() - t0
        state.seen.teardown()
        shutil.rmtree(root, ignore_errors=True)
        if best is None or sec < best["sec"]:
            best = {"sec": sec, "fetched": stats["fetched"],
                    "urls_per_sec": stats["fetched"] / sec}
    return best


def pressure(seeds_n: int, ncpu: int, max_passes: int = 40) -> None:
    """10x-frontier pressure run (round-4 mandate): drive the FULL
    multi-pass crawl to frontier exhaustion at ``seeds_n`` seeds,
    recording per-pass wall time (should stay ~flat while the frontier
    holds >= partitions x items_chunk pending URLs — i.e. cumulative
    wall ~linear in passes) and driver RSS after every pass (should be
    flat: per-pass driver state is bounded by partitions x items_chunk
    + |retry|, never by frontier size). Prints ONE JSON line with the
    per-pass series and the flatness summary."""
    import ray

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False

    from container_crawler_ray.config import CrawlConfig
    from container_crawler_ray.pipelines.crawl import init_run, run_pass
    from container_crawler_ray.sources.synth import make_seed_urls

    cfg = CrawlConfig(
        num_partitions=32, items_chunk=20_000, workers=ncpu, seen_shards=8,
        n_hosts=200, n_paths=3000, pass_time_ms=3_600_000,
        parse_cost_bytes=8 << 20, fail_mod=97,
    )
    t0 = time.monotonic()
    seeds = make_seed_urls(seeds_n, n_hosts=cfg.n_hosts)
    seed_sec = time.monotonic() - t0
    ray.data.range(10_000).map_batches(lambda b: b).materialize()
    root = f"/tmp/ccrawl-pressure-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    t0 = time.monotonic()
    store, state = init_run(root, cfg, seeds)
    init_sec = time.monotonic() - t0
    del seeds
    import gc

    gc.collect()
    rss0 = _rss_mb()
    passes = []
    try:
        for _ in range(max_passes):
            t0 = time.monotonic()
            stats = run_pass(store, cfg, state)
            sec = time.monotonic() - t0
            # per-pass gc: drop dead Dataset/blocks refs so the RSS
            # series measures retained state, not collection latency
            gc.collect()
            passes.append({
                "pass": state.pass_id, "sec": round(sec, 2),
                "scheduled": stats["scheduled"],
                "fetched": stats["fetched"],
                "retry_size": stats["retry_size"],
                "rss_mb": _rss_mb(),
                # shm-mapping-free python-heap proxy: live allocator
                # blocks (flat series == no driver-side accumulation
                # even when VmRSS is inflated by plasma page mappings)
                "py_blocks_k": sys.getallocatedblocks() // 1000})
            if stats["done"] and stats["retry_size"] == 0:
                break
    finally:
        state.seen.teardown()
    shutil.rmtree(root, ignore_errors=True)
    total_fetched = sum(p["fetched"] for p in passes)
    total_sec = sum(p["sec"] for p in passes)
    # flatness over passes of comparable size: wall normalized per
    # scheduled URL, across passes >= 50% of the largest pass (the
    # drain tail is legitimately smaller+faster)
    smax = max(p["scheduled"] for p in passes)
    full = [p for p in passes if p["scheduled"] >= 0.5 * smax]
    per_url_ms = [1000.0 * p["sec"] / max(p["scheduled"], 1)
                  for p in full]
    walls = [p["sec"] for p in full]
    rss = [p["rss_mb"] for p in passes]
    print(json.dumps({
        "metric": "pressure_crawl",
        "seeds": seeds_n,
        "num_cpus": ncpu,
        "seed_gen_sec": round(seed_sec, 2),
        "init_sec": round(init_sec, 2),
        "n_passes": len(passes),
        "total_fetched": total_fetched,
        "total_pass_sec": round(total_sec, 2),
        "urls_per_sec": round(total_fetched / total_sec, 1),
        "full_pass_wall_min": min(walls), "full_pass_wall_max": max(walls),
        "full_pass_ms_per_url_min": round(min(per_url_ms), 3),
        "full_pass_ms_per_url_max": round(max(per_url_ms), 3),
        "full_pass_ms_per_url_spread":
            round(max(per_url_ms) / max(min(per_url_ms), 1e-9), 3),
        "rss_mb_after_init": rss0,
        "rss_mb_min": min(rss), "rss_mb_max": max(rss),
        "rss_mb_last": rss[-1],
        "py_blocks_k_first": passes[0]["py_blocks_k"],
        "py_blocks_k_last": passes[-1]["py_blocks_k"],
        "passes": passes,
    }))
    ray.shutdown()


def salt_drain(seeds_n: int, ncpu: int, max_passes: int = 160) -> None:
    """Skew-aware hot-host repartitioning at bench scale (the round-5
    mandate — the one north_star clause without at-scale evidence).

    The pressure world's Zipf head ``h0000.example`` is the designed
    hot+permissive host (10 ms crawl delay → politeness budget
    pass_time_ms/10 = 360k URLs/pass): its drain is bound by PARTITION
    PLACEMENT, not politeness — unsalted, its ~18% of the seed list
    pins one partition and drains at <= items_chunk (20k) rows/pass.
    Salting spreads its rows across all partitions by url_hash, so its
    scan capacity rises ~num_partitions× while the per-host token
    bucket still enforces the (non-binding) 360k budget.

    Two FULL drains of the identical seed list:
      A) nosalt  — the round-4 pressure config as-is;
      B) salted  — ``salted_hosts=("h0000.example",)`` at init (the
         explicit skew-aware repartitioning of the known head) plus
         auto-salt detection ACTIVE (share 60 permille) — expected to
         stay empty here because this closed world's out-links hash
         uniformly across hosts (no emergent head can arise), which
         doubles as a no-false-positive check at scale.

    Checks: (1) identical doc corpus; (2) politeness caps respected by
    EVERY host in BOTH arms (per-host per-pass docs <=
    floor(capacity_factor × pass_time_ms/delay) — salting must never
    raise a host's fetch rate past its crawl-delay budget); (3) the
    hot host drains in materially fewer passes salted. Prints ONE
    JSON line."""
    import collections
    import glob as _glob

    import pyarrow.parquet as pq
    import ray

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False

    from container_crawler_ray.config import CrawlConfig
    from container_crawler_ray.pipelines.crawl import init_run, run_pass
    from container_crawler_ray.sources.synth import (
        make_seed_urls, robots_lookup)

    base = dict(
        num_partitions=32, items_chunk=20_000, workers=ncpu,
        seen_shards=8, n_hosts=200, n_paths=3000,
        pass_time_ms=3_600_000, parse_cost_bytes=8 << 20, fail_mod=97,
    )
    hot = "h0000.example"
    seeds = make_seed_urls(seeds_n, n_hosts=base["n_hosts"])
    ray.data.range(10_000).map_batches(lambda b: b).materialize()
    robots = robots_lookup(base["n_hosts"])

    def host_pass_counts(root: str) -> dict[str, dict[int, int]]:
        out: dict[str, dict[int, int]] = collections.defaultdict(
            lambda: collections.defaultdict(int))
        for f in sorted(_glob.glob(
                f"{root}/tables/documents/*/*.parquet")):
            t = pq.read_table(f, columns=["host", "pass_id"])
            hs = t.column("host").to_pylist()
            ps = t.column("pass_id").to_pylist()
            for h, p in zip(hs, ps):
                out[h][int(p)] += 1
        return out

    def politeness_violations(hp: dict) -> list:
        bad = []
        for h, per_pass in hp.items():
            rb = robots.get(h)
            delay = rb["crawl_delay_ms"] if rb else 1000
            cap = int(max(1.0, 2.0 * base["pass_time_ms"]
                          / max(1.0, float(delay))))
            mx = max(per_pass.values())
            if mx > cap:
                bad.append({"host": h, "max_per_pass": mx, "cap": cap})
        return bad

    def run_arm(name: str, extra_cfg: dict) -> dict:
        root = f"/tmp/ccrawl-salt-{name}-{os.getpid()}"
        shutil.rmtree(root, ignore_errors=True)
        cfg = CrawlConfig(**base, **extra_cfg)
        store, state = init_run(root, cfg, seeds)
        passes = []
        t0 = time.monotonic()
        try:
            for _ in range(max_passes):
                tp = time.monotonic()
                st = run_pass(store, cfg, state)
                passes.append({
                    "pass": state.pass_id,
                    "sec": round(time.monotonic() - tp, 2),
                    "scheduled": st["scheduled"],
                    "fetched": st["fetched"],
                    "retry_size": st["retry_size"]})
                if st["done"] and st["retry_size"] == 0:
                    break
        finally:
            sec = time.monotonic() - t0
            state.seen.teardown()
        sig = _doc_corpus_sig(root)
        hp = host_pass_counts(root)
        hot_pp = dict(sorted(hp.get(hot, {}).items()))
        viol = politeness_violations(hp)
        shutil.rmtree(root, ignore_errors=True)
        total = sum(p["fetched"] for p in passes)
        # p95 drain pass: first pass by which >= 95% of the hot host's
        # docs are committed — the drain-speed metric, insensitive to
        # the trailing trickle of late-discovered links
        hot_total = sum(hot_pp.values())
        cum, p95 = 0, -1
        for pp, c in hot_pp.items():
            cum += c
            if cum >= 0.95 * hot_total:
                p95 = pp
                break
        return {
            "sec": round(sec, 2), "n_passes": len(passes),
            "total_fetched": total,
            "urls_per_sec": round(total / sec, 1),
            "corpus": sig,
            "auto_salted": sorted(state.salted_hosts),
            "hot_host": {
                "total_docs": hot_total,
                "passes_active": len(hot_pp),
                "p95_drain_pass": p95,
                "max_per_pass": max(hot_pp.values()) if hot_pp else 0,
                "last_pass": max(hot_pp) if hot_pp else -1,
                "docs_by_pass": hot_pp},
            "politeness_violations": viol,
            "passes": passes}

    arm_a = run_arm("nosalt", dict(auto_salt_share_milli=0))
    arm_b = run_arm("salted", dict(salted_hosts=(hot,),
                                   auto_salt_share_milli=60,
                                   auto_salt_min_rows=256))
    corpus_equal = (arm_a["corpus"]["hash"] == arm_b["corpus"]["hash"]
                    and arm_a["corpus"]["n_docs"]
                    == arm_b["corpus"]["n_docs"])
    speedup = (arm_a["hot_host"]["p95_drain_pass"]
               / max(arm_b["hot_host"]["p95_drain_pass"], 1))
    print(json.dumps({
        "metric": "salt_drain",
        "seeds": seeds_n, "num_cpus": ncpu, "hot_host": hot,
        "arms": {"nosalt": arm_a, "salted": arm_b},
        "corpus_equal": corpus_equal,
        "no_dup_docs": (
            arm_b["corpus"]["n_docs"] == arm_b["corpus"]["n_distinct"]),
        "hot_p95_drain_pass_speedup": round(speedup, 2),
        # informational: auto-salt detections beyond the explicit head.
        # The fully-disallowed host (h0199) legitimately trips detection
        # in late passes — its disallowed links are re-appended every
        # pass (never scheduled, never seen-marked) so they dominate the
        # late append stream; salting never-scheduled rows is harmless
        # and the corpus-equality check proves it.
        "auto_salted_beyond_head": [
            h for h in arm_b["auto_salted"] if h != hot],
        "criterion": "identical corpus + zero politeness violations in "
                     "both arms + hot host reaches 95% drained in >=2x "
                     "fewer passes salted",
        "pass": (corpus_equal and speedup >= 2.0
                 and not arm_a["politeness_violations"]
                 and not arm_b["politeness_violations"]),
    }))
    ray.shutdown()


def _doc_corpus_sig(root: str) -> dict:
    """Committed-document corpus signature: count, distinct doc_ids and
    an order-insensitive hash of the sorted id list."""
    import glob as _glob
    import hashlib

    import pyarrow.parquet as pq

    ids = []
    for f in sorted(_glob.glob(f"{root}/tables/documents/*/*.parquet")):
        ids.append(pq.read_table(f, columns=["doc_id"])
                   .column("doc_id").to_pylist())
    flat = sorted(x for part in ids for x in part)
    return {"n_docs": len(flat), "n_distinct": len(set(flat)),
            "hash": hashlib.md5(
                ("\n".join(flat)).encode()).hexdigest()[:16]}


def multi_engine(seeds_n: int, ncpu: int, n_engines: int = 2,
                 salted: bool = False) -> None:
    """Bench-scale shared-nothing multi-engine run (round-4 mandate):
    the headline world crawled to exhaustion by ``n_engines`` engines
    running CONCURRENTLY on driver threads over one store + one shared
    seen set (the sandbox stand-in for N `ray job submit` nodes), with
    a staggered start and one mid-pass kill + resume of engine 0
    (commit-point rollback, exactly the emulation the multi-engine kill
    tests use). Reports combined URLs/s vs a single-engine drain of the
    same world and checks corpus equality (criterion: >=0.9x aggregate
    throughput, identical doc_id corpus, no doc committed twice)."""
    import threading

    import ray

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False

    from container_crawler_ray.config import CrawlConfig
    from container_crawler_ray.pipelines.crawl import (
        init_run, resume_run, run_pass)
    from container_crawler_ray.sources.synth import make_seed_urls

    base = dict(
        num_partitions=32, items_chunk=20_000, seen_shards=8,
        n_hosts=200, n_paths=3000, pass_time_ms=3_600_000,
        parse_cost_bytes=8 << 20, fail_mod=97,
    )
    if salted:
        # skew-aware repartitioning of the known Zipf head, applied to
        # BOTH arms (fair ratio). Without it the hot host pins ONE
        # partition owned by ONE engine, which serializes the
        # multi-engine drain behind that engine's items_chunk window —
        # the 2M unsalted run (multi_engine_2M_nosalt_r5.json) measures
        # that failure mode at ratio 0.676; salting is the engine's fix.
        base["salted_hosts"] = ("h0000.example",)
    seeds = make_seed_urls(seeds_n, n_hosts=base["n_hosts"])
    ray.data.range(10_000).map_batches(lambda b: b).materialize()

    # ---- single-engine baseline: full drain --------------------------
    rootS = f"/tmp/ccrawl-me-single-{os.getpid()}"
    shutil.rmtree(rootS, ignore_errors=True)
    cfgS = CrawlConfig(**base, workers=ncpu)
    storeS, stS = init_run(rootS, cfgS, seeds)
    t0 = time.monotonic()
    fetched_s = 0
    n_passes_s = 0
    for _ in range(60):
        st = run_pass(storeS, cfgS, stS)
        fetched_s += st["fetched"]
        n_passes_s += 1
        if st["done"] and st["retry_size"] == 0:
            break
    sec_s = time.monotonic() - t0
    stS.seen.teardown()
    sig_s = _doc_corpus_sig(rootS)
    shutil.rmtree(rootS, ignore_errors=True)

    # ---- N concurrent engines + staggered start + kill/resume --------
    E = n_engines
    rootM = f"/tmp/ccrawl-me-multi-{os.getpid()}"
    shutil.rmtree(rootM, ignore_errors=True)
    cfg = [CrawlConfig(**base, workers=ncpu, num_engines=E,
                       engine_index=e) for e in range(E)]
    init_run(rootM, cfg[0], seeds)
    eng = [list(resume_run(rootM, cfg[e])) for e in range(E)]

    t0 = time.monotonic()
    # staggered start: engine 0 runs its first pass alone, then each
    # later engine joins with one solo pass
    for e in range(E):
        run_pass(eng[e][0], cfg[e], eng[e][1])

    # mid-pass kill of engine 0: run a full pass, roll its COMMIT POINT
    # back (meta-e0.json), abandon the state, resume. Shard actors stay
    # up (detached-actor semantics), the torn marks are live, the WAL
    # fragment is on disk — the post-crash state the rollback handles.
    meta_path = os.path.join(rootM, "meta-e0.json")
    saved_meta = open(meta_path, "rb").read()
    tk = time.monotonic()
    run_pass(eng[0][0], cfg[0], eng[0][1])
    kill_tax_sec = time.monotonic() - tk      # deliberately thrown away
    with open(meta_path + ".tmp", "wb") as f:
        f.write(saved_meta)
    os.replace(meta_path + ".tmp", meta_path)
    eng[0] = list(resume_run(rootM, cfg[0]))

    # ---- ASYNC engine loops (no barrier — the one-daemon-per-node
    # model: each engine passes at its own pace; a round-barrier would
    # bill every round at the slower engine's wall). Convergence: an
    # engine exits only when BOTH engines have >= 2 consecutive idle
    # passes (idle = done + empty retry). Safe because an idle pass
    # posts nothing: if the peer's counter later resets it can only be
    # from THIS engine's earlier non-idle pass, which this engine's
    # own counter already witnessed — and the non-exited peer drains
    # it; a hard pass cap guards the loop.
    idle_cnt = [0] * E
    rounds_by = [0] * E

    def engine_loop(e: int) -> None:
        # cap far above any real drain (the 2M unsalted run showed an
        # idle engine can spin 70+ empty passes waiting for a skewed
        # peer — the cap must never bind before global convergence)
        for _ in range(400):
            r = run_pass(eng[e][0], cfg[e], eng[e][1])
            rounds_by[e] += 1
            if r["done"] and r["retry_size"] == 0:
                idle_cnt[e] += 1
                # reference poll_interval analog: an idle daemon sleeps
                # between scan cycles instead of hammering the store
                # with empty-pass checkpoint/snapshot I/O that contends
                # with the still-draining peer
                time.sleep(1.0)
            else:
                idle_cnt[e] = 0
            if all(c >= 2 for c in idle_cnt):
                return

    th = [threading.Thread(target=engine_loop, args=(e,))
          for e in range(E)]
    for t in th:
        t.start()
    for t in th:
        t.join()
    rounds = max(rounds_by)
    sec_m = time.monotonic() - t0
    eng[0][1].seen.teardown()
    sig_m = _doc_corpus_sig(rootM)
    shutil.rmtree(rootM, ignore_errors=True)

    ups_s = sig_s["n_docs"] / sec_s
    ups_m = sig_m["n_docs"] / sec_m
    # steady-state ratio: the kill-tax pass is work deliberately thrown
    # away by the fault injection — a fault-free 2-engine run would not
    # pay it. Both numbers are reported; the raw ratio keeps the tax.
    ups_m_steady = sig_m["n_docs"] / max(sec_m - kill_tax_sec, 1e-9)
    print(json.dumps({
        "metric": "multi_engine_vs_single",
        "seeds": seeds_n, "num_cpus": ncpu, "n_engines": E,
        "salted": salted,
        "single": {"sec": round(sec_s, 2), "passes": n_passes_s,
                   "docs": sig_s["n_docs"],
                   "docs_per_sec": round(ups_s, 1)},
        "multi": {"sec": round(sec_m, 2), "rounds": rounds,
                  "passes_by_engine": rounds_by,
                  "docs": sig_m["n_docs"],
                  "docs_per_sec": round(ups_m, 1),
                  "kill_tax_sec": round(kill_tax_sec, 2),
                  "killed_and_resumed": "engine 0, after pass 2"},
        "corpus_equal": sig_s["hash"] == sig_m["hash"]
        and sig_s["n_docs"] == sig_m["n_docs"],
        "no_dup_docs": sig_m["n_docs"] == sig_m["n_distinct"],
        "aggregate_throughput_ratio_raw": round(ups_m / ups_s, 3),
        "aggregate_throughput_ratio_steady":
            round(ups_m_steady / ups_s, 3),
        "criterion": ">=0.9x steady aggregate throughput "
                     "+ corpus equality (raw ratio reported too; it "
                     "additionally pays the injected-fault kill tax)",
        "pass": (ups_m_steady / ups_s >= 0.9
                 and sig_s["hash"] == sig_m["hash"]
                 and sig_m["n_docs"] == sig_m["n_distinct"]),
    }))
    ray.shutdown()


def main() -> None:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as entrymod

    head = crawl_headline(NUM_CPUS)

    # Run the query sweep in a FRESH Ray session: a 200k-URL crawl leaves
    # worker-process state that can nondeterministically inflate later
    # Python-loop-heavy query stages by 30-60x in the same session
    # (observed: strip_dup_windows 231 s in-session vs 7 s fresh, same
    # code and inputs, in-task user-CPU). Session isolation makes the
    # per-query numbers measure the queries, not crawl-session residue.
    ray.shutdown()
    time.sleep(2)
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False

    import gc

    qtimes: dict[str, float] = {}
    qs = entrymod.queries()
    for name in BENCH_QUERIES:
        t0 = time.monotonic()
        res = None
        try:
            res = qs[name](SF_DIR)
            # consume datasets so laziness doesn't hide work
            if hasattr(res, "count") and not hasattr(res, "columns"):
                res.count()
            qtimes[name] = round(time.monotonic() - t0, 3)
        except Exception as e:  # noqa: BLE001
            qtimes[name] = -1.0
            print(f"# query {name} failed: {e}", file=sys.stderr)
        # drop dataset refs between queries: lingering lazy datasets pin
        # object-store blocks and inflate LATE entries by 2-4x (measured —
        # multi-execution ops read 9.8s in-session vs 2.6s fresh)
        del res
        gc.collect()

    print(json.dumps({
        "metric": "crawl_pass_seconds",
        "value": round(head["sec"], 3),
        "unit": "sec",
        "queries": qtimes,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "crawl_fetched": head["fetched"],
        "crawl_urls_per_sec": round(head["urls_per_sec"], 1),
    }))
    ray.shutdown()


SCALE_LO, SCALE_HI = 8, 32   # N and 4N (north_rule criterion)
SCALE_REPS = int(os.environ.get("GRAFT_SCALE_REPS", "2"))


def scaling() -> None:
    """Same headline crawl at N and 4N parallelism in fresh processes.
    Both levels run the SAME rep policy (best-of-SCALE_REPS) so the
    efficiency ratio is not biased toward either side."""
    results = {}
    for ncpu, reps in ((SCALE_LO, SCALE_REPS), (SCALE_HI, SCALE_REPS)):
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_SF_DIR=SF_DIR, GRAFT_HEADLINE_ONLY="1",
                   GRAFT_BENCH_REPS=str(reps))
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)], env=env,
            capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        results[ncpu] = json.loads(out.stdout.strip().splitlines()[-1])
    t_lo, t_hi = results[SCALE_LO]["value"], results[SCALE_HI]["value"]
    eff = (t_lo / t_hi) / (SCALE_HI / SCALE_LO)
    print(json.dumps({
        "metric": f"scaling_efficiency_{SCALE_LO}_to_{SCALE_HI}_cpus",
        f"sec_{SCALE_LO}": t_lo, f"sec_{SCALE_HI}": t_hi,
        f"urls_per_sec_{SCALE_LO}": results[SCALE_LO]["crawl_urls_per_sec"],
        f"urls_per_sec_{SCALE_HI}": results[SCALE_HI]["crawl_urls_per_sec"],
        "scaling_efficiency": round(eff, 3),
        "criterion": ">=0.8 between N and 4N parallelism",
        "pass": eff >= 0.8,
    }))


def headline_only() -> None:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False
    head = crawl_headline(NUM_CPUS)
    print(json.dumps({
        "metric": "crawl_pass_seconds", "value": round(head["sec"], 3),
        "unit": "sec", "queries": {}, "sf": SF_DIR, "num_cpus": NUM_CPUS,
        "crawl_fetched": head["fetched"],
        "crawl_urls_per_sec": round(head["urls_per_sec"], 1),
    }))
    ray.shutdown()


if __name__ == "__main__":
    if "--seeds" in sys.argv:        # override the frontier size
        SEEDS = int(sys.argv[sys.argv.index("--seeds") + 1])
        os.environ["GRAFT_BENCH_SEEDS"] = str(SEEDS)  # reaches subprocs
    if "--pressure" in sys.argv:
        # pressure mode defaults to the 10x frontier (2M) unless an
        # explicit --seeds was given
        pressure(SEEDS if "--seeds" in sys.argv else 2_000_000, NUM_CPUS)
    elif "--multi-engine" in sys.argv:
        n_eng = (int(sys.argv[sys.argv.index("--engines") + 1])
                 if "--engines" in sys.argv else 2)
        multi_engine(SEEDS, NUM_CPUS, n_engines=n_eng,
                     salted="--salted" in sys.argv)
    elif "--salt-drain" in sys.argv:
        salt_drain(SEEDS if "--seeds" in sys.argv else 2_000_000,
                   NUM_CPUS)
    elif "--scaling" in sys.argv:
        scaling()
    elif os.environ.get("GRAFT_HEADLINE_ONLY"):
        headline_only()
    else:
        main()
