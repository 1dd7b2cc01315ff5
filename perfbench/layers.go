package main

// perLayerUnits lists every per-layer metric of the traced run with its
// unit. A layer a workload does not exercise reads 0 there; README.md
// says which workload and end-to-end metric each one should move.
var perLayerUnits = map[string]string{
	"anneal.self_ms_per_job":          "ms",
	"gp.fit_ms_per_job":               "ms",
	"gp.score_ms_per_job":             "ms",
	"acq.score_ms_per_job":            "ms",
	"sampler.vote_ms_per_job":         "ms",
	"prior.sample_ms":                 "ms",
	"server.queue_wait_ms":            "ms",
	"core.steps_per_job":              "count",
	"core.step_ms_p50":                "ms",
	"core.step_alloc_kb":              "KB",
	"measure.batch_ms":                "ms",
	"measure.rpc_self_ms":             "ms",
	"cache.warm_share":                "share",
	"cache.get_us":                    "us",
	"server.submit_ms":                "ms",
	"server.sse_first_ms":             "ms",
	"server.result_ms":                "ms",
	"server.journal_bytes_per_job":    "B",
	"server.journal_records_per_job":  "count",
	"server.measlog_bytes_per_job":    "B",
	"server.toolkit_wait_ms":          "ms",
	"blueprint.build_s":               "s",
	"prior.train_s":                   "s",
	"acq.meta_train_s":                "s",
	"core.toolkit_alloc_mb":           "MB",
	"core.toolkit_gc_cycles":          "count",
	"core.toolkit_parts_ratio":        "ratio",
	"fleet.chunks":                    "1/task",
	"fleet.chunk_retries":             "1/task",
	"fleet.tasks_stolen":              "1/task",
	"fleet.endpoint_steals":           "1/task",
	"fleet.speculations":              "1/task",
	"fleet.spec_win_share":            "share",
	"fleet.dispatch_self_ms_per_task": "ms",
	"fleet.checkpoint_ms":             "ms",
	"measure.calls_per_task":          "1/task",
	"measure.failed_call_share":       "share",
	"trace.self_coverage":             "share",
	"trace.overhead_pct":              "%",
}

// perLayer completes a traced run's layer metrics to the full list.
func perLayer(got map[string]metric) map[string]metric {
	out := make(map[string]metric, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		m := got[name]
		m.Unit = unit
		out[name] = m
	}
	return out
}
