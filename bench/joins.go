package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cij/internal/core"
	"cij/internal/service"
)

// wantPlan is the plan a workload must get; anything else means it is
// measuring another engine than it claims to.
type wantPlan struct {
	algo, storage string
	workers       int
}

// joinLoad is a read workload: closed-loop clients, each POSTing /join
// over its own operand pairs in turn, every pair in both operand orders.
// No two clients share a dataset: single-flight coalesces identical
// in-flight joins even with the result cache off.
type joinLoad struct {
	clients [][][2]string // per client, the operand pairs it cycles through
	storage string        // the request's storage knob
	topK    int
	plan    wantPlan
	oracle  func(l, r *service.Dataset) []core.Pair
}

// runGridUniform: four uniform datasets; the planner routes every join
// to the in-memory grid backend.
func runGridUniform(r *runCtx) error {
	rng := rand.New(rand.NewSource(r.seed))
	var inputs []input
	for _, name := range []string{"a0", "b0", "a1", "b1"} {
		inputs = append(inputs, input{name, csvBody(uniformPoints(rng, r.sc.uniformN))})
	}
	return r.runJoinLoad(inputs, joinLoad{
		clients: [][][2]string{{{"a0", "b0"}}, {{"a1", "b1"}}},
		topK:    100,
		plan:    wantPlan{algo: "grid"},
		oracle:  nmOracle,
	})
}

// runNMCity: city sets around one shared centre, each client joining its
// own sets as a ring; storage=paged pins NM-CIJ on paged trees with the
// paper's 2% LRU buffer.
func runNMCity(r *runCtx) error {
	rng := rand.New(rand.NewSource(r.seed))
	n := r.sc.citySetsPerClient
	var inputs []input
	for i := range 2 * n {
		inputs = append(inputs, input{fmt.Sprintf("c%d", i), csvBody(cityPoints(rng, r.sc.cityN))})
	}
	ring := func(first int) [][2]string {
		var pairs [][2]string
		for i := range n {
			pairs = append(pairs, [2]string{fmt.Sprintf("c%d", first+i), fmt.Sprintf("c%d", first+(i+1)%n)})
		}
		return pairs
	}
	return r.runJoinLoad(inputs, joinLoad{
		clients: [][][2]string{ring(0), ring(n)},
		storage: "paged",
		topK:    100,
		plan:    wantPlan{algo: "nm", storage: "paged"},
		oracle:  gridOracle,
	})
}

func (r *runCtx) runJoinLoad(inputs []input, jl joinLoad) (err error) {
	e, err := r.setUp(service.Config{CacheEntries: -1}, false, inputs)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := e.close(); err == nil {
			err = cerr
		}
	}()
	clients := make([][]joinReq, len(jl.clients))
	for c, pairs := range jl.clients {
		for _, p := range pairs {
			oracle := newPairSet(jl.oracle(e.dataset(p[0]), e.dataset(p[1])))
			for o := range 2 {
				q := service.Query{Left: p[o], Right: p[1-o], Storage: jl.storage, TopK: jl.topK}
				body, _ := json.Marshal(service.JoinRequest{Left: q.Left, Right: q.Right, Storage: q.Storage, TopK: q.TopK}) // plain struct: cannot fail
				clients[c] = append(clients[c], joinReq{q: q, body: body, oracle: oracle, swapped: o == 1})
			}
		}
	}

	clk := r.startClock()
	watched := r.watchWindow(e, clk)
	var wg sync.WaitGroup
	for _, reqs := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.joinClient(e, clk, jl.plan, reqs)
		}()
	}
	wg.Wait()
	<-watched
	if pages := r.rec.get("pages"); jl.plan.storage == "paged" {
		r.setScalar("join_pages_per_op", "count", mean(pages), len(pages))
	}
	r.checkMinOps()
	return nil
}

// joinReq is one request a client cycles through.
type joinReq struct {
	q       service.Query
	body    []byte
	oracle  pairSet // the pair set of the join in its first operand order
	swapped bool    // q is the reverse order
}

// joinClient loops POST /join over its requests until the window closes,
// checking every answer against its oracle.
func (r *runCtx) joinClient(e *env, clk clock, want wantPlan, reqs []joinReq) {
	// The paper's page count is deterministic per request: a join that
	// reads a different number of pages than the last identical one means
	// the I/O metric is not repeatable.
	pages := make([]int64, len(reqs))
	for i := range pages {
		pages[i] = -1
	}
	for i := 0; ; i++ {
		start := time.Now()
		if !clk.open(start) {
			break
		}
		k := i % len(reqs)
		req := reqs[k]
		var jr service.JoinResponse
		first, total, err := e.post("/join", "application/json", req.body, &jr)
		r.attempted.Add(1)
		if err != nil {
			r.fail("join %s⋈%s: %v", req.q.Left, req.q.Right, err)
			continue
		}
		r.checkJoin(jr, want, req.oracle, req.swapped)
		if pages[k] >= 0 && jr.Stats.PageAccesses != pages[k] {
			r.problem("join %s⋈%s read %d pages, the previous one %d", jr.Left, jr.Right, jr.Stats.PageAccesses, pages[k])
		}
		pages[k] = jr.Stats.PageAccesses
		measured := clk.measured(start)
		if measured {
			r.recordOp(start, total)
			r.rec.add("first_ms", ms(first))
		}
		if r.traced() {
			r.traceJoin(e, joinCall{start: start, http: total, method: "POST", target: "/join", body: req.body, q: req.q, resp: jr}, measured)
		}
	}
	// One sample per distinct join, so that the mean repeats exactly for
	// a seed wherever the window cuts the request cycle.
	for _, p := range pages {
		if p >= 0 {
			r.rec.add("pages", float64(p))
		}
	}
}

// checkJoin holds one join response to its guards and its oracle:
// the planned engine, no cached answer, the exact pair count, and every
// returned pair in the oracle's set (swapped for the reverse order).
func (r *runCtx) checkJoin(jr service.JoinResponse, want wantPlan, oracle pairSet, swapped bool) {
	if jr.Algo != want.algo || jr.Storage != want.storage || jr.Workers != want.workers {
		r.problem("join %s⋈%s planned %s/%q/%d, want %s/%q/%d",
			jr.Left, jr.Right, jr.Algo, jr.Storage, jr.Workers, want.algo, want.storage, want.workers)
	}
	if jr.Cached {
		r.problem("join %s⋈%s answered cached:true with the result cache off", jr.Left, jr.Right)
	}
	if jr.Count != int64(len(oracle)) {
		r.fail("join %s⋈%s counted %d pairs, oracle %d", jr.Left, jr.Right, jr.Count, len(oracle))
		return
	}
	for _, p := range jr.Pairs {
		if !oracle.has(p.P, p.Q, swapped) {
			r.fail("join %s⋈%s returned pair (%d,%d) the oracle does not have", jr.Left, jr.Right, p.P, p.Q)
			return
		}
	}
}
