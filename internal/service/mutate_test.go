package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/geom"
	"cij/internal/service"
)

// mutate issues POST /datasets/{name}/points and returns the decoded
// response with the HTTP status.
func mutate(t *testing.T, ts *httptest.Server, name string, req service.MutationRequest) (service.MutationResponse, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/datasets/"+name+"/points", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr service.MutationResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			t.Fatal(err)
		}
	}
	return mr, resp.StatusCode
}

// mirror tracks a mutable dataset's point/tombstone state exactly like
// the registry does (append-only IDs, tombstoned deletes), so tests can
// brute-force the expected pair set of any version.
type mirror struct {
	pts   []geom.Point
	alive []bool
}

func newMirror(pts []geom.Point) *mirror {
	m := &mirror{pts: append([]geom.Point(nil), pts...), alive: make([]bool, len(pts))}
	for i := range m.alive {
		m.alive[i] = true
	}
	return m
}

func (m *mirror) clone() *mirror {
	return &mirror{pts: append([]geom.Point(nil), m.pts...), alive: append([]bool(nil), m.alive...)}
}

func (m *mirror) apply(req service.MutationRequest) {
	for _, id := range req.Delete {
		m.alive[id] = false
	}
	for _, mv := range req.Update {
		m.pts[mv.ID] = geom.Pt(mv.X, mv.Y)
	}
	for _, p := range req.Points {
		m.pts = append(m.pts, geom.Pt(p.X, p.Y))
		m.alive = append(m.alive, true)
	}
	for _, p := range req.Insert {
		m.pts = append(m.pts, geom.Pt(p.X, p.Y))
		m.alive = append(m.alive, true)
	}
}

// brute computes the mirror's expected pair set against q, with the
// mutated side's pair indexes remapped back to original IDs.
func (m *mirror) brute(q []geom.Point) map[core.Pair]bool {
	var live []geom.Point
	var ids []int64
	for i, p := range m.pts {
		if m.alive[i] {
			live = append(live, p)
			ids = append(ids, int64(i))
		}
	}
	raw := core.BruteCIJ(live, q, dataset.Domain)
	set := make(map[core.Pair]bool, len(raw))
	for _, pr := range raw {
		set[core.Pair{P: ids[pr.P], Q: pr.Q}] = true
	}
	return set
}

// TestMutateAlgosAgreeAfterMutation: after an insert+update+delete batch,
// every algorithm — tree-based and point-array-based alike — reproduces
// the brute-force pair set with ORIGINAL point IDs. This pins the
// tombstone compaction and pair remapping of the grid/PM/FM paths and
// the in-place tree mutation of the NM/parallel paths to one oracle.
func TestMutateAlgosAgreeAfterMutation(t *testing.T) {
	p, q := dataset.Uniform(250, 101), dataset.Uniform(250, 102)
	svc, ts := newTestServer(t, service.Config{CacheEntries: -1}, p, q)

	m := newMirror(p)
	req := service.MutationRequest{
		Insert: []service.PointJSON{{X: 123, Y: 456}, {X: 5000, Y: 5000}, {X: 9999, Y: 1}},
		Update: []service.MovePointJSON{{ID: 10, X: 4321, Y: 1234}, {ID: 77, X: 1, Y: 1}},
		Delete: []int64{0, 5, 9, 200},
	}
	mr, code := mutate(t, ts, "p", req)
	if code != http.StatusOK {
		t.Fatalf("mutation status %d", code)
	}
	m.apply(req)
	if mr.Version != 2 {
		t.Fatalf("version after mutation = %d, want 2", mr.Version)
	}
	if mr.Points != 250-4+3 {
		t.Fatalf("live points = %d, want %d", mr.Points, 250-4+3)
	}
	if want := []int64{250, 251, 252}; len(mr.InsertedIDs) != 3 || mr.InsertedIDs[0] != want[0] || mr.InsertedIDs[2] != want[2] {
		t.Fatalf("inserted IDs = %v, want %v", mr.InsertedIDs, want)
	}

	want := m.brute(q)
	for _, algo := range []string{"nm", "pm", "fm", "parallel", "grid"} {
		jr := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: algo, Workers: 2})
		sameSet(t, "post-mutation "+algo, pairSet(jr.Pairs), want)
		if jr.LeftVersion != 2 {
			t.Fatalf("%s: left version %d, want 2", algo, jr.LeftVersion)
		}
	}
	// Streamed pairs remap identically (the OnPair hook path).
	got, _, _ := streamJoin(t, ts, "left=p&right=q&algo=grid")
	sameSet(t, "post-mutation grid stream", got, want)

	// The registry info reflects live counts and tombstones.
	var infos []service.DatasetInfo
	resp, err := http.Get(ts.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&infos)
	resp.Body.Close()
	for _, info := range infos {
		if info.Name == "p" {
			if info.Points != 249 || info.Tombstones != 4 {
				t.Fatalf("dataset info = %+v, want 249 live / 4 tombstones", info)
			}
		}
	}
	if stats := svc.StatsSnapshot(); stats.Mutations != 1 {
		t.Fatalf("stats mutations = %d, want 1", stats.Mutations)
	}
}

// TestMutateSnapshotIsolationRace runs joins concurrently with a
// sequence of mutations: every join must report a pair set exactly equal
// to the brute-force result of the VERSION it executed against — never a
// torn mix of two versions. Expected sets are computed before each
// mutation is issued, so whichever version a concurrent join resolves,
// its oracle already exists.
func TestMutateSnapshotIsolationRace(t *testing.T) {
	p, q := dataset.Uniform(200, 111), dataset.Uniform(200, 112)
	_, ts := newTestServer(t, service.Config{CacheEntries: -1}, p, q)

	var expected sync.Map // version -> map[core.Pair]bool
	m := newMirror(p)
	expected.Store(1, m.brute(q))

	const rounds = 5
	// Pre-store every version's oracle, then run mutations against
	// readers. Readers check the version their response reports.
	done := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			algos := []string{"nm", "grid", "parallel"}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				jr := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: algos[(g+i)%len(algos)], Workers: 2})
				wantAny, ok := expected.Load(jr.LeftVersion)
				if !ok {
					errCh <- fmt.Errorf("join reported unknown version %d", jr.LeftVersion)
					continue
				}
				want := wantAny.(map[core.Pair]bool)
				got := pairSet(jr.Pairs)
				if len(got) != len(want) {
					errCh <- fmt.Errorf("version %d (%s): %d pairs, want %d", jr.LeftVersion, jr.Algo, len(got), len(want))
					continue
				}
				for pr := range want {
					if !got[pr] {
						errCh <- fmt.Errorf("version %d (%s): missing pair %+v", jr.LeftVersion, jr.Algo, pr)
						break
					}
				}
			}
		}(g)
	}

	for r := 0; r < rounds; r++ {
		req := service.MutationRequest{
			Insert: []service.PointJSON{{X: float64(500 + 700*r), Y: float64(300 + 500*r)}},
			Update: []service.MovePointJSON{{ID: int64(3*r + 1), X: float64(9000 - 800*r), Y: float64(200 + 900*r)}},
			Delete: []int64{int64(3 * r)},
		}
		next := m.clone()
		next.apply(req)
		expected.Store(r+2, next.brute(q)) // oracle first, then install
		if _, code := mutate(t, ts, "p", req); code != http.StatusOK {
			t.Fatalf("round %d: mutation status %d", r, code)
		}
		m = next
	}
	close(done)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestSubscribeChurn is the end-to-end reconciliation of the
// subscription stream: baseline pair set at the subscribed versions,
// plus every +pair, minus every -pair, must equal a fresh full join
// after the mutations — and the stream's delta summaries must reconcile
// with the mutation responses and /stats.
func TestSubscribeChurn(t *testing.T) {
	p, q := dataset.Uniform(200, 121), dataset.Uniform(200, 122)
	svc, ts := newTestServer(t, service.Config{CacheEntries: -1}, p, q)

	resp, err := http.Get(ts.URL + "/join/subscribe?left=p&right=q")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("no subscribed line")
	}
	var sub service.StreamSubscribed
	if err := json.Unmarshal(sc.Bytes(), &sub); err != nil || sub.Type != "subscribed" {
		t.Fatalf("bad subscribed line %q: %v", sc.Text(), err)
	}
	if sub.LeftVersion != 1 || sub.RightVersion != 1 {
		t.Fatalf("subscribed at versions %d/%d, want 1/1", sub.LeftVersion, sub.RightVersion)
	}
	if got := svc.StatsSnapshot().Subscribers; got != 1 {
		t.Fatalf("subscribers gauge = %d, want 1", got)
	}

	// Baseline at the subscribed versions.
	baseline := pairSet(postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"}).Pairs)

	// Mutate the LEFT operand, then the RIGHT one — the stream must carry
	// churn for both sides of the subscription.
	mut1 := service.MutationRequest{
		Insert: []service.PointJSON{{X: 4500, Y: 4500}},
		Delete: []int64{17},
	}
	mr1, code := mutate(t, ts, "p", mut1)
	if code != http.StatusOK {
		t.Fatalf("left mutation status %d", code)
	}
	mut2 := service.MutationRequest{
		Update: []service.MovePointJSON{{ID: 3, X: 8000, Y: 1000}},
	}
	mr2, code := mutate(t, ts, "q", mut2)
	if code != http.StatusOK {
		t.Fatalf("right mutation status %d", code)
	}
	if len(mr1.Deltas) != 1 || len(mr2.Deltas) != 1 {
		t.Fatalf("delta summaries per mutation = %d/%d, want 1/1", len(mr1.Deltas), len(mr2.Deltas))
	}

	// Drain the stream: churn lines and delta summaries for both
	// mutations, in version order.
	current := make(map[core.Pair]bool, len(baseline))
	for pr := range baseline {
		current[pr] = true
	}
	var deltas []service.StreamDelta
	added, removed := 0, 0
	for len(deltas) < 2 && sc.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch probe.Type {
		case "+pair", "-pair":
			var ev service.StreamChurn
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatal(err)
			}
			pr := core.Pair{P: ev.P, Q: ev.Q}
			if probe.Type == "+pair" {
				if current[pr] {
					t.Fatalf("+pair %+v already present", pr)
				}
				current[pr] = true
				added++
			} else {
				if !current[pr] {
					t.Fatalf("-pair %+v not present", pr)
				}
				delete(current, pr)
				removed++
			}
		case "delta":
			var d service.StreamDelta
			if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
				t.Fatal(err)
			}
			deltas = append(deltas, d)
		default:
			t.Fatalf("unexpected stream line type %q", probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 2 {
		t.Fatalf("got %d delta lines, want 2", len(deltas))
	}
	if deltas[0].Mutated != "left" || deltas[1].Mutated != "right" {
		t.Fatalf("delta mutated sides = %q/%q, want left/right", deltas[0].Mutated, deltas[1].Mutated)
	}
	for _, d := range deltas {
		// Every change's own cell is computed, so the counter is never 0.
		if d.Cells < 1 || d.AffectedSites < 1 {
			t.Fatalf("delta summary reports %d cells for %d affected sites, want both >= 1", d.Cells, d.AffectedSites)
		}
	}
	if added == 0 {
		// An inserted point always owns a positive-area Voronoi cell, and
		// the opposite cells tile the domain, so an insert churns >= 1 pair.
		t.Fatal("insert produced no +pair event")
	}
	if deltas[0].Added+deltas[1].Added != added || deltas[0].Removed+deltas[1].Removed != removed {
		t.Fatalf("delta summaries (+%d/-%d, +%d/-%d) do not reconcile with events (+%d/-%d)",
			deltas[0].Added, deltas[0].Removed, deltas[1].Added, deltas[1].Removed, added, removed)
	}

	// Reconciliation: baseline + churn == fresh full join.
	final := pairSet(postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"}).Pairs)
	sameSet(t, "baseline+churn vs full recompute", current, final)

	// The observability surfaces agree with the stream.
	stats := svc.StatsSnapshot()
	if stats.DeltaRuns != 2 {
		t.Fatalf("stats delta runs = %d, want 2", stats.DeltaRuns)
	}
	if stats.PairsChurned != int64(added+removed) {
		t.Fatalf("stats pairs churned = %d, want %d", stats.PairsChurned, added+removed)
	}
	if stats.Mutations != 2 {
		t.Fatalf("stats mutations = %d, want 2", stats.Mutations)
	}
	// Delta runs are journaled like any join, under algo "delta".
	recs, _ := svc.Journal().Recent(service.JournalFilter{Algo: "delta"})
	if len(recs) != 2 {
		t.Fatalf("journal has %d delta records, want 2", len(recs))
	}
	for _, rec := range recs {
		if rec.ID != deltas[0].QueryID && rec.ID != deltas[1].QueryID {
			t.Fatalf("journal delta record ID %d matches no stream summary", rec.ID)
		}
	}
}

// TestMutateValidation pins the mutation error contract: 404 for unknown
// datasets, 400 for malformed batches, and name validation at ingest
// (the adversarial-name regression — separator characters must be
// rejected before they ever reach cache keys or URLs).
func TestMutateValidation(t *testing.T) {
	p, q := dataset.Uniform(50, 131), dataset.Uniform(50, 132)
	_, ts := newTestServer(t, service.Config{}, p, q)

	cases := []struct {
		name string
		ds   string
		req  service.MutationRequest
		want int
	}{
		{"unknown dataset", "ghost", service.MutationRequest{Points: []service.PointJSON{{X: 1, Y: 1}}}, http.StatusNotFound},
		{"empty batch", "p", service.MutationRequest{}, http.StatusBadRequest},
		{"delete unknown id", "p", service.MutationRequest{Delete: []int64{999}}, http.StatusBadRequest},
		{"negative id", "p", service.MutationRequest{Delete: []int64{-1}}, http.StatusBadRequest},
		{"update unknown id", "p", service.MutationRequest{Update: []service.MovePointJSON{{ID: 999, X: 1, Y: 1}}}, http.StatusBadRequest},
		{"id twice in batch", "p", service.MutationRequest{Delete: []int64{4}, Update: []service.MovePointJSON{{ID: 4, X: 1, Y: 1}}}, http.StatusBadRequest},
		{"insert outside domain", "p", service.MutationRequest{Points: []service.PointJSON{{X: -5000, Y: 1}}}, http.StatusBadRequest},
		{"update outside domain", "p", service.MutationRequest{Update: []service.MovePointJSON{{ID: 1, X: 1e9, Y: 1}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if _, code := mutate(t, ts, tc.ds, tc.req); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}

	// Deleting every live point must be refused (datasets cannot empty).
	all := make([]int64, 50)
	for i := range all {
		all[i] = int64(i)
	}
	if _, code := mutate(t, ts, "p", service.MutationRequest{Delete: all}); code != http.StatusBadRequest {
		t.Errorf("delete-to-empty: status %d, want 400", code)
	}

	// A batch over the size cap is refused.
	big := service.MutationRequest{Points: make([]service.PointJSON, 10001)}
	for i := range big.Points {
		big.Points[i] = service.PointJSON{X: 1, Y: 1}
	}
	if _, code := mutate(t, ts, "p", big); code != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", code)
	}

	// DELETE endpoint: bad id is 400, valid id drops one live point.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/datasets/p/points/zap", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("DELETE with bad id: status %d, want 400", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/datasets/p/points/7", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var mr service.MutationResponse
	json.NewDecoder(resp.Body).Decode(&mr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || mr.Points != 49 || mr.Deleted != 1 {
		t.Errorf("DELETE /datasets/p/points/7: status %d resp %+v", resp.StatusCode, mr)
	}

	// Adversarial names never make it into the registry (and therefore
	// never into cache keys): separator characters are an ingest-time 400.
	for _, name := range []string{"a@b", "a|b", "a@1|b"} {
		resp, err := http.Post(ts.URL+"/datasets/"+name, "text/csv", strings.NewReader("1,2\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("ingest of adversarial name %q: status %d, want 400", name, resp.StatusCode)
		}
	}

	// Subscribe validation: self-join and unknown datasets are refused.
	for _, params := range []string{"left=p&right=p", "left=p&right=ghost", "left=&right="} {
		resp, err := http.Get(ts.URL + "/join/subscribe?" + params)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("subscribe?%s: status %d, want 400", params, resp.StatusCode)
		}
	}
}
