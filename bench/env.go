package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"cij/internal/obs"
	"cij/internal/service"
)

// maxConns caps the load connections: the host this benchmark was sized
// on has 2 CPUs, and a closed loop wider than the CPU count only queues.
const maxConns = 2

// env is one running service: the in-process service, the loopback
// server in front of it, and the client the workload drives it with.
type env struct {
	svc     *service.Service
	handler http.Handler // the server's handler, for in-process replays
	srv     *httptest.Server
	client  *http.Client
	dataDir string // durable store directory, removed on close
}

// openEnv opens a service and ingests every input over HTTP; it returns
// once every dataset is registered and ready to join.
func openEnv(cfg service.Config, inputs []input) (*env, error) {
	svc, err := service.Open(cfg)
	if err != nil {
		return nil, err
	}
	h := svc.Handler()
	e := &env{
		svc:     svc,
		handler: h,
		srv:     httptest.NewServer(h),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
		}},
		dataDir: cfg.DataDir,
	}
	for _, in := range inputs {
		if _, _, err := e.post("/datasets/"+in.name, "text/csv", in.csv, nil); err != nil {
			return nil, errors.Join(err, e.close())
		}
	}
	return e, nil
}

// close stops the server, closes the service (a durable one checkpoints)
// and removes its data directory.
func (e *env) close() error {
	e.client.CloseIdleConnections()
	e.srv.Close()
	err := e.svc.Close()
	if e.dataDir != "" {
		err = errors.Join(err, os.RemoveAll(e.dataDir))
	}
	return err
}

// dataset returns the registry's current version of name.
func (e *env) dataset(name string) *service.Dataset {
	d, ok := e.svc.Registry().Get(name)
	if !ok {
		panic("bench: dataset " + name + " vanished from the registry")
	}
	return d
}

// post sends body and decodes a 200 answer into out (nil discards it).
// first is the time to the response headers, which the service writes
// only once its answer is ready; total runs to the last body byte.
func (e *env) post(path, contentType string, body []byte, out any) (first, total time.Duration, err error) {
	start := time.Now()
	resp, err := e.client.Post(e.srv.URL+path, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	first = time.Since(start)
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	total = time.Since(start)
	if err != nil {
		return first, total, fmt.Errorf("POST %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return first, total, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return first, total, nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return first, total, fmt.Errorf("POST %s: %w", path, err)
	}
	return first, total, nil
}

// setUp opens the workload's service sc.setups times (once when traced),
// each open plus ingest timed as one setup_s sample after a forced GC,
// and keeps the last. A durable workload gets a fresh data directory per
// set-up. heap_mb is read after the last set-up and a forced GC.
func (r *runCtx) setUp(cfg service.Config, durable bool, inputs []input) (*env, error) {
	n := r.sc.setups
	if r.traced() {
		n = 1
	}
	var e *env
	for i := 0; i < n; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		c := cfg
		if durable {
			dir, err := os.MkdirTemp(r.tmpDir, r.workload+"-")
			if err != nil {
				return nil, err
			}
			c.DataDir = dir
		}
		// Every set-up starts from a collected heap, so none of them pays
		// for collecting the garbage of the one before.
		runtime.GC()
		start := time.Now()
		var err error
		if e, err = openEnv(c, inputs); err != nil {
			return nil, errors.Join(fmt.Errorf("set-up: %w", err), os.RemoveAll(c.DataDir))
		}
		r.rec.add("setup_s", time.Since(start).Seconds())
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.setScalar("heap_mb", "MB", float64(mem.HeapAlloc)/1e6, 1)
	if r.traced() {
		r.traceSetUp(inputs)
	}
	return e, nil
}

// counters is a snapshot of the /metrics families the benchmark reads by
// before/after delta.
type counters struct {
	admission   obs.HistSnapshot
	evictions   int64
	computed    int64 // joins that executed an algorithm
	checkpoints int64
}

func snapshotCounters(svc *service.Service) counters {
	m := svc.Metrics()
	var c counters
	if h := m.FindHistogram("cij_admission_wait_seconds"); h != nil {
		c.admission = h.Snapshot()
	}
	if x := m.FindCounter("cij_buffer_evictions_total"); x != nil {
		c.evictions = x.Value()
	}
	for _, algo := range []string{"grid", "nm", "pm", "fm", "parallel"} {
		if x := m.FindCounter("cij_joins_total", algo, "computed"); x != nil {
			c.computed += x.Value()
		}
	}
	if x := m.FindCounter("cij_checkpoints_total"); x != nil {
		c.checkpoints = x.Value()
	}
	return c
}

// watchWindow snapshots the counters when the warm-up ends and when the
// window closes, and records their deltas. The returned channel closes
// once the deltas are recorded.
func (r *runCtx) watchWindow(e *env, clk clock) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(time.Until(clk.warmEnd))
		before := snapshotCounters(e.svc)
		time.Sleep(time.Until(clk.end))
		after := snapshotCounters(e.svc)
		wait := after.admission.Sub(before.admission)
		computed := after.computed - before.computed
		// The mean, exact from the histogram's sum: its buckets cannot
		// resolve a quantile below their 0.5 ms first bound.
		r.setScalar("service.admission_wait_ms", "ms", ratio(wait.Sum, float64(wait.Count))*1000, int(wait.Count))
		r.setScalar("storage.evictions_per_join", "count", ratio(float64(after.evictions-before.evictions), float64(computed)), int(computed))
		r.setScalar("storage.checkpoints", "count", float64(after.checkpoints-before.checkpoints), 1)
	}()
	return done
}

// checkMinOps is the minimum-sample guard of the primary operation. A
// traced run replays every operation and completes a fraction of them;
// it must still measure one.
func (r *runCtx) checkMinOps() {
	want := int(r.sc.minOpsPerSec[r.workload] * r.window.Seconds())
	if r.traced() {
		want = min(want, 1)
	}
	if got := len(r.rec.get("op_ms")); got < want {
		r.problem("only %d operations in the measured window, want at least %d", got, want)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
