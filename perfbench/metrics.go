package main

import "strings"

// MetricDef names a metric, its unit and which direction is better;
// Bound is the end-to-end regression bound (share of the parent's
// median), unused for per-layer metrics.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// e2eMetrics are the contract's end-to-end metrics. Every workload
// reports every one of them, so each is the workload's own headline in a
// shared slot (see the package doc for the per-workload meaning).
var e2eMetrics = []MetricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_ms", "ms", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.2},
}

// namedMetrics are the eleven named end-to-end metrics of the design;
// each applies only to some workloads. They are printed in the report and
// saved with every result.
var namedMetrics = []MetricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "build_records_per_s", Unit: "1/s"},
	{Name: "ingest_records_per_s", Unit: "1/s"},
	{Name: "query_p50_ms", Unit: "ms"},
	{Name: "query_p99_ms", Unit: "ms"},
	{Name: "query_max_rps", Unit: "1/s"},
	{Name: "freshness_p50_ms", Unit: "ms"},
	{Name: "freshness_p90_ms", Unit: "ms"},
	{Name: "checkpoint_s", Unit: "s"},
	{Name: "error_ratio", Unit: "ratio"},
	{Name: "heap_mb", Unit: "MB"},
}

var apiEndpoints = []string{"info", "cell", "destinations", "eta"}

// dataflowStages are the archive build's dataflow stages whose busy time
// is reported.
var dataflowStages = []string{
	"partition-by-vessel", "shuffle-by-vessel", "clean-trips-project",
	"feature-extraction.partial", "feature-extraction.shuffle", "feature-extraction.merge",
}

var ckptKinds = []string{"polinv", "seg", "state", "wal"}

// layerDefs are the per-layer metrics of a traced run. A layer the
// workload does not touch reports 0.
var layerDefs = func() []MetricDef {
	l := func(name, unit, better string) MetricDef { return MetricDef{Name: name, Unit: unit, Better: better} }
	defs := []MetricDef{
		l("feed.decode_s", "s", "lower"),
		l("feed.lines", "count", "higher"),
		l("feed.bad_lines", "count", "lower"),
		l("feed.bad_nmea", "count", "lower"),
		l("pipeline.run_s", "s", "lower"),
	}
	for _, st := range dataflowStages {
		defs = append(defs, l("dataflow."+st+".busy_s", "s", "lower"))
	}
	defs = append(defs,
		l("pipeline.trips", "count", "higher"),
		l("pipeline.observations", "count", "higher"),
		l("inventory.groups", "count", "higher"),
		l("segment.write_s", "s", "lower"),
		l("segment.bytes", "bytes", "lower"),
		l("segment.raw_bytes", "bytes", "lower"),
		l("segment.compression_ratio", "ratio", "lower"),
		l("segment.open_s", "s", "lower"),
		l("segment.verify_s", "s", "lower"),
		l("segment.load_s", "s", "lower"),
		l("feed.send_blocked_s", "s", "lower"),
		l("ingest.queue_depth_max", "count", "lower"),
		l("ingest.finalize_s", "s", "lower"),
		l("ingest.journal_bytes", "bytes", "lower"),
		l("ingest.positions", "count", "higher"),
		l("ingest.accepted", "count", "higher"),
		l("ingest.rejected", "count", "lower"),
		l("ingest.trips", "count", "higher"),
		l("ingest.observations", "count", "higher"),
		l("ingest.publishes", "count", "higher"),
		l("ingest.publish_interval_ms", "ms", "lower"),
		l("ingest.merge_avg_ms", "ms", "lower"),
		l("feed.lateness_p99_ms", "ms", "lower"),
		l("checkpoint.generations", "count", "higher"),
	)
	for _, k := range ckptKinds {
		defs = append(defs, l("checkpoint.bytes."+k, "bytes", "lower"))
	}
	defs = append(defs, l("ingest.recovery_s", "s", "lower"))
	for _, c := range []string{"lookup", "aggregate", "od"} {
		defs = append(defs, l("inventory."+c+"_s", "s", "lower"), l("inventory."+c+".calls", "count", "lower"))
	}
	for _, ep := range apiEndpoints {
		defs = append(defs,
			l("api."+ep+".self_s", "s", "lower"),
			l("api."+ep+".server_p99_ms", "ms", "lower"),
			l("api."+ep+".bytes", "bytes", "lower"))
	}
	defs = append(defs,
		l("http.queue_wait_p99_ms", "ms", "lower"),
		l("http.lateness_p99_ms", "ms", "lower"),
		l("runtime.gc_cpu_s", "s", "lower"),
		l("runtime.gc_cycles", "count", "lower"),
		l("runtime.alloc_bytes", "bytes", "lower"),
		l("runtime.sched_latency_p99_ms", "ms", "lower"),
		l("runtime.peak_heap_mb", "MB", "lower"),
		l("process.sut_cpu_s", "s", "lower"),
		l("process.generator_cpu_s", "s", "lower"),
	)
	for _, m := range e2eMetrics {
		defs = append(defs, l("overhead."+m.Name, m.Unit, "lower"))
	}
	return defs
}()

// inventoryCategory maps an inventory.<Method> span to its per-layer
// category ("" for uncategorised calls such as Info and Len).
func inventoryCategory(span string) string {
	m := strings.TrimPrefix(span, "inventory.")
	for cat, calls := range map[string][]string{"lookup": lookupCalls, "aggregate": aggregateCalls, "od": odCalls} {
		for _, c := range calls {
			if c == m {
				return cat
			}
		}
	}
	return ""
}

// layerMetrics adds the metrics every traced workload shares — runtime,
// process CPU, inventory and api layers — to the ones the workload
// recorded itself.
func layerMetrics(r *Result, fin *FinalReply) {
	for _, l := range layerDefs {
		if _, ok := r.Layers[l.Name]; !ok {
			r.Layers[l.Name] = 0
		}
	}
	r.Layers["runtime.gc_cpu_s"] = r.SUT.GCCPUSeconds
	r.Layers["runtime.gc_cycles"] = float64(r.SUT.GCCycles)
	r.Layers["runtime.alloc_bytes"] = float64(r.SUT.AllocBytes)
	r.Layers["runtime.sched_latency_p99_ms"] = r.SUT.SchedP99Ms
	r.Layers["runtime.peak_heap_mb"] = r.SUT.PeakHeapMB
	r.Layers["process.sut_cpu_s"] = r.SUT.CPUSeconds
	r.Layers["process.generator_cpu_s"] = r.Gen.CPUSeconds
	for name, a := range fin.Aggs {
		if cat := inventoryCategory(name); strings.HasPrefix(name, "inventory.") && cat != "" {
			r.Layers["inventory."+cat+"_s"] += float64(a.Nanos) / 1e9
			r.Layers["inventory."+cat+".calls"] += float64(a.Calls)
		}
	}
	for _, s := range r.spans {
		if ep, ok := strings.CutPrefix(s.Name, "api."); ok && s.Proc == "sut" {
			r.Layers["api."+ep+".self_s"] += float64(s.Self) / 1e9
		}
		if s.Name == "segment.load" { // the set-up kept for the timed phase is the last
			r.Layers["segment.load_s"] = float64(s.Dur) / 1e9
		}
	}
	for _, ep := range apiEndpoints {
		r.Layers["api."+ep+".server_p99_ms"] = fin.Server["api."+ep]
		r.Layers["api."+ep+".bytes"] = float64(fin.Bytes["api."+ep])
	}
	if a, ok := fin.Aggs["feed.NextItem"]; ok {
		r.Layers["feed.decode_s"] = float64(a.Nanos) / 1e9
	}
}
