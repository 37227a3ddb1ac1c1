package main

import (
	"slices"
	"sort"
	"time"
)

// The metric vocabulary. BENCHMARK.json lists the same names (the smoke
// test holds the two together); a run reports every end-to-end metric
// untraced and every per-layer metric traced, 0 with n=0 for a layer the
// workload does not reach.

// endToEnd names what a user of the service sees. The primary operation
// ("op") is the workload's own request: a POST /join, a whole
// GET /join/stream, or a mutation batch (send to ack). The first result
// is the first byte of a join response, the first streamed pair, or the
// subscriber's delta line for a batch.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_rate", "1/s"},
}

// layer is one per-layer metric and how it is derived from the traced
// run's series.
type layer struct {
	name, unit string
	calc       func(r *runCtx) (float64, int)
}

func p50(series string) func(*runCtx) (float64, int) { return pct(series, 0.5) }
func p90(series string) func(*runCtx) (float64, int) { return pct(series, 0.9) }

func pct(series string, q float64) func(*runCtx) (float64, int) {
	return func(r *runCtx) (float64, int) {
		s := r.rec.get(series)
		return quantile(s, q), len(s)
	}
}

func avg(series string) func(*runCtx) (float64, int) {
	return func(r *runCtx) (float64, int) {
		s := r.rec.get(series)
		return mean(s), len(s)
	}
}

// sumRatio is sum(num)/sum(den), or sum(num)/(sum(num)+sum(den)) when
// den counts the complement of num (misses beside hits).
func sumRatio(num, den string, denIncludesNum bool) func(*runCtx) (float64, int) {
	return func(r *runCtx) (float64, int) {
		n, d := r.rec.get(num), r.rec.get(den)
		dd := sum(d)
		if denIncludesNum {
			dd += sum(n)
		}
		return ratio(sum(n), dd), len(d)
	}
}

// scalar reads a value the workload measured directly.
func scalar(name string) func(*runCtx) (float64, int) {
	return func(r *runCtx) (float64, int) {
		r.mu.Lock()
		defer r.mu.Unlock()
		m := r.metrics[name]
		return m.Value, m.N
	}
}

var layers = []layer{
	{"grid.join_ms", "ms", p50("grid.join_ms")},
	{"core.nm_ms", "ms", p50("core.nm_ms")},
	{"core.p_cells_per_join", "count", avg("core.p_cells")},
	{"core.false_hit_ratio", "ratio", func(r *runCtx) (float64, int) {
		cand, hits := r.rec.get("core.candidates"), r.rec.get("core.true_hits")
		return ratio(sum(cand)-sum(hits), sum(hits)), len(hits)
	}},
	{"storage.pages_per_join", "count", avg("pages")}, // per distinct paged join
	{"storage.logical_reads_per_join", "count", avg("storage.logical_reads")},
	{"storage.decode_hit_ratio", "ratio", sumRatio("storage.decode_hits", "storage.decode_misses", true)},
	{"storage.evictions_per_join", "count", scalar("storage.evictions_per_join")},
	{"parallel.join_ms", "ms", p50("parallel.join_ms")},
	{"parallel.first_pair_ms", "ms", p50("parallel.first_pair_ms")},
	{"parallel.speedup", "x", p50("parallel.speedup")},
	{"service.handler_ms", "ms", p50("service.handler_ms")},
	{"service.wall_ms", "ms", p50("service.wall_ms")},
	{"service.encode_ms", "ms", p50("service.encode_ms")},
	{"service.transport_ms", "ms", p50("service.transport_ms")},
	{"service.plan_us", "us", p50("service.plan_us")},
	{"service.overhead_ms", "ms", p50("service.overhead_ms")},
	{"service.admission_wait_ms", "ms", scalar("service.admission_wait_ms")},
	{"service.registry_prepare_ms", "ms", p50("service.registry_prepare_ms")},
	{"service.registry_install_ms", "ms", p50("service.registry_install_ms")},
	{"storage.wal_append_us", "us", p50("storage.wal_append_us")},
	{"storage.wal_sync_ms", "ms", p50("storage.wal_sync_ms")},
	{"storage.wal_bytes_per_mutation", "B", avg("storage.wal_bytes")},
	{"storage.snapshot_ms", "ms", p50("storage.snapshot_ms")},
	{"storage.checkpoints", "count", scalar("storage.checkpoints")},
	{"delta.pair_churn_p50_ms", "ms", p50("delta.pair_churn_ms")},
	{"delta.pair_churn_p90_ms", "ms", p90("delta.pair_churn_ms")},
	{"delta.probes_per_mutation", "count", avg("delta.probes")},
	{"delta.churn_per_probe", "ratio", sumRatio("delta.churn", "delta.probes", false)},
	{"service.publish_lag_ms", "ms", p50("service.publish_lag_ms")},
	{"dataset.read_csv_ms", "ms", p50("dataset.read_csv_ms")},
	{"rtree.bulkload_ms", "ms", p50("rtree.bulkload_ms")},
	{"rtree.freeze_ms", "ms", p50("rtree.freeze_ms")},
	{"grid.skew_ms", "ms", p50("grid.skew_ms")},
	{"service.registry_put_ms", "ms", p50("service.registry_put_ms")},
	{"trace.op_p50_ms", "ms", p50("op_ms")},
}

func isLayer(name string) bool {
	return slices.ContainsFunc(layers, func(l layer) bool { return l.name == name })
}

// reported lists the metrics of the final output line.
func reported(traced bool) []string {
	var names []string
	if traced {
		for _, l := range layers {
			names = append(names, l.name)
		}
		return names
	}
	for _, m := range endToEnd {
		names = append(names, m.name)
	}
	return names
}

// subWindows is how many equal slices of the window op_rate is taken
// over: it is the median of the per-slice rates, so a stall of the shared
// host that covers less than half the window does not move it.
const subWindows = 5

// endToEndMetrics derives the untraced run's metrics. heap_mb is set
// during set-up; the rest come from the series.
func endToEndMetrics(r *runCtx) {
	setup := r.rec.get("setup_s")
	ops := r.rec.get("op_ms")
	first := r.rec.get("first_ms")
	r.setScalar("setup_s", "s", quantile(setup, 0.5), len(setup))
	slices.Sort(r.opStarts)
	parts := make([][]time.Duration, subWindows)
	for _, at := range r.opStarts {
		k := min(int(at*subWindows/r.window), subWindows-1)
		parts[k] = append(parts[k], at)
	}
	var rates []float64
	for _, s := range parts {
		// Starts per second, from the first start to the last one in
		// the slice: a time, not a count, so it never reads exactly the
		// same twice.
		if len(s) > 1 && s[len(s)-1] > s[0] {
			rates = append(rates, float64(len(s)-1)/(s[len(s)-1]-s[0]).Seconds())
		}
	}
	sort.Float64s(rates)
	r.setScalar("op_p50_ms", "ms", quantile(ops, 0.5), len(ops))
	r.setScalar("op_rate", "1/s", quantile(rates, 0.5), len(ops))
	r.setScalar("op_p90_ms", "ms", quantile(ops, 0.9), len(ops))
	r.setScalar("first_result_p50_ms", "ms", quantile(first, 0.5), len(first))
}

// layerMetrics derives the traced run's metrics.
func layerMetrics(r *runCtx) {
	for _, l := range layers {
		v, n := l.calc(r)
		r.setScalar(l.name, l.unit, v, n)
	}
}
