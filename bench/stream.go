package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"cij/internal/service"
)

// runParallelStream: one client streams clustered ⋈ uniform over
// GET /join/stream; the joint cardinality plans the parallel engine with
// two workers on flat storage. The uniform set is the right operand, the
// one the engine partitions among its workers: that keeps the workers'
// shares and the time to the first pair steady from seed to seed.
func runParallelStream(r *runCtx) (err error) {
	rng := rand.New(rand.NewSource(r.seed))
	inputs := []input{
		{"k", csvBody(clusteredPoints(rng, r.sc.streamN))},
		{"u", csvBody(uniformPoints(rng, r.sc.streamN))},
	}
	e, err := r.setUp(service.Config{CacheEntries: -1}, false, inputs)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := e.close(); err == nil {
			err = cerr
		}
	}()
	oracle := newPairSet(gridOracle(e.dataset("k"), e.dataset("u")))
	wantHash := oracle.hash()
	q := service.Query{Left: "k", Right: "u"}
	target := "/join/stream?left=k&right=u"

	clk := r.startClock()
	watched := r.watchWindow(e, clk)
	for {
		start := time.Now()
		if !clk.open(start) {
			break
		}
		st, err := e.stream(target)
		r.attempted.Add(1)
		if err != nil {
			r.fail("stream k⋈u: %v", err)
			continue
		}
		r.checkJoin(*st.summary, wantPlan{algo: "parallel", storage: "flat", workers: 2}, oracle, false)
		if st.pairs != int64(len(oracle)) || st.hash != wantHash {
			r.fail("stream k⋈u sent %d pairs (digest %x), oracle %d (digest %x)", st.pairs, st.hash, len(oracle), wantHash)
		}
		measured := clk.measured(start)
		if measured {
			r.recordOp(start, st.total)
			r.rec.add("first_ms", ms(st.first))
		}
		if r.traced() {
			r.traceJoin(e, joinCall{start: start, http: st.total, method: "GET", target: target, q: q, stream: true, resp: *st.summary}, measured)
		}
	}
	<-watched
	r.checkMinOps()
	return nil
}

// streamResult is what the client saw of one NDJSON join stream.
type streamResult struct {
	first, total time.Duration // to the first pair line, to the end
	pairs        int64
	hash         uint64 // order-independent digest of the pair lines
	summary      *service.JoinResponse
}

// stream reads one GET /join/stream answer to its end.
func (e *env) stream(target string) (streamResult, error) {
	var st streamResult
	start := time.Now()
	resp, err := e.client.Get(e.srv.URL + target)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body) // best effort: the status is the error
		return st, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil && err != io.EOF {
			return st, err
		}
		var head struct {
			Type string `json:"type"`
			P    int64  `json:"p"`
			Q    int64  `json:"q"`
		}
		if err := json.Unmarshal(line, &head); err != nil {
			return st, fmt.Errorf("bad stream line %q: %w", line, err)
		}
		switch head.Type {
		case "pair":
			if st.pairs == 0 {
				st.first = time.Since(start)
			}
			st.pairs++
			st.hash += pairKey(head.P, head.Q)
		case "progress":
		case "summary":
			var s service.StreamSummary
			if err := json.Unmarshal(line, &s); err != nil {
				return st, fmt.Errorf("bad summary line: %w", err)
			}
			st.summary = &s.JoinResponse
		default:
			return st, fmt.Errorf("unexpected stream line %q", line)
		}
	}
	st.total = time.Since(start)
	if st.summary == nil {
		return st, fmt.Errorf("stream ended after %d pairs without a summary line", st.pairs)
	}
	return st, nil
}
