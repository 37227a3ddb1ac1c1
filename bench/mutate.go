package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/delta"
	"cij/internal/geom"
	"cij/internal/rtree"
	"cij/internal/service"
	"cij/internal/storage"
)

// Each mutation batch inserts batchInserts points, moves batchMoves and
// deletes batchDeletes, all at seeded positions and IDs.
const (
	batchInserts = 8
	batchMoves   = 4
	batchDeletes = 4
)

// versionKey names one dataset version.
type versionKey struct {
	name    string
	version int
}

// batchRecord is one acknowledged mutation batch.
type batchRecord struct {
	key       versionKey
	send, ack time.Time
	measured  bool
}

// runMutateLive: a durable service (fsync per batch, checkpoints every
// sc.checkpointBytes of WAL) with one subscriber holding
// GET /join/subscribe on a⋈b and one writer that mutates a and b in
// turns and joins a⋈b after every second batch.
func runMutateLive(r *runCtx) (err error) {
	rng := rand.New(rand.NewSource(r.seed))
	inputs := []input{
		{"a", csvBody(uniformPoints(rng, r.sc.uniformN))},
		{"b", csvBody(uniformPoints(rng, r.sc.uniformN))},
	}
	cfg := service.Config{CacheEntries: -1, CheckpointWALBytes: r.sc.checkpointBytes}
	e, err := r.setUp(cfg, true, inputs)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := e.close(); err == nil {
			err = cerr
		}
	}()

	a, b := e.dataset("a"), e.dataset("b")
	sub, err := e.subscribe("a", "b", newPairSet(gridOracle(a, b)))
	if err != nil {
		return err
	}
	defer sub.close()
	if sub.base != [2]int{a.Version, b.Version} {
		return fmt.Errorf("subscribed at versions %v, registry holds %d and %d", sub.base, a.Version, b.Version)
	}
	var shadow *shadowStore
	if r.traced() {
		if shadow, err = newShadowStore(r, e); err != nil {
			return err
		}
		defer shadow.close()
	}

	model := map[string]*liveSet{"a": newLiveSet(a), "b": newLiveSet(b)}
	joinReq := service.JoinRequest{Left: "a", Right: "b", TopK: 10}
	joinBody, _ := json.Marshal(joinReq) // plain struct: cannot fail
	var batches []batchRecord
	var joins []service.JoinResponse

	clk := r.startClock()
	watched := r.watchWindow(e, clk)
	for i := 0; ; i++ {
		start := time.Now()
		if !clk.open(start) {
			break
		}
		name := [2]string{"a", "b"}[i%2]
		req, spec := model[name].next(rng)
		body, _ := json.Marshal(req) // plain struct: cannot fail
		var mr service.MutationResponse
		_, total, err := e.post("/datasets/"+name+"/points", "application/json", body, &mr)
		ack := time.Now()
		r.attempted.Add(1)
		if err != nil {
			// The model no longer matches the service; nothing after this
			// batch would be comparable.
			r.fail("mutation of %s: %v", name, err)
			break
		}
		model[name].check(r, mr)
		measured := clk.measured(start)
		batches = append(batches, batchRecord{key: versionKey{name, mr.Version}, send: start, ack: ack, measured: measured})
		if measured {
			r.recordOp(start, total)
		}
		if shadow != nil {
			shadow.apply(r, name, spec, measured)
		}
		if i%2 == 0 {
			continue
		}
		joinStart := time.Now()
		var jr service.JoinResponse
		_, jt, err := e.post("/join", "application/json", joinBody, &jr)
		r.attempted.Add(1)
		if err != nil {
			r.fail("join a⋈b: %v", err)
			continue
		}
		if jr.Algo != "grid" || jr.Cached {
			r.problem("join a⋈b planned %s (cached %v), want an executed grid join", jr.Algo, jr.Cached)
		}
		joins = append(joins, jr)
		if measured {
			r.rec.add("join_ms", ms(jt))
		}
		if r.traced() {
			q := service.Query{Left: "a", Right: "b", TopK: joinReq.TopK}
			r.traceJoin(e, joinCall{start: joinStart, http: jt, method: "POST", target: "/join", body: joinBody, q: q, resp: jr}, measured)
		}
	}
	<-watched

	if err := sub.waitFor(len(batches), 10*time.Second); err != nil {
		r.fail("subscriber: %v", err)
	}
	sub.close()
	r.checkLive(e, sub, batches, joins, shadow)
	want := r.sc.minCheckpoints
	if r.traced() { // replays slow the writer down
		want = min(want, 1)
	}
	if cps, _ := scalar("storage.checkpoints")(r); int(cps) < want {
		r.problem("%v checkpoints in the measured window, want at least %d", cps, want)
	}
	if joins := r.rec.get("join_ms"); len(joins) > 0 {
		r.setScalar("join_p50_ms", "ms", quantile(joins, 0.5), len(joins))
	}
	r.checkMinOps()
	return nil
}

// checkLive reconciles the writer's, the subscriber's and (traced) the
// shadow's view of the run, and derives the churn latencies.
func (r *runCtx) checkLive(e *env, sub *subscriber, batches []batchRecord, joins []service.JoinResponse, shadow *shadowStore) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	// Baseline plus churn must equal a fresh full join.
	final := newPairSet(gridOracle(e.dataset("a"), e.dataset("b")))
	if len(final) != len(sub.set) || final.hash() != sub.set.hash() {
		r.fail("subscriber holds %d pairs after churn, a fresh join has %d", len(sub.set), len(final))
	}
	for _, b := range batches {
		d, ok := sub.deltas[b.key]
		if !ok {
			r.fail("no delta line for %s v%d", b.key.name, b.key.version)
			continue
		}
		if b.measured {
			r.rec.add("first_ms", ms(d.arrival.Sub(b.send)))
			r.rec.add("service.publish_lag_ms", ms(d.arrival.Sub(b.ack)))
		}
		if shadow == nil {
			continue
		}
		if want := shadow.churn[b.key]; want != [2]int{d.added, d.removed} {
			r.fail("%s v%d: subscriber saw +%d/-%d, delta.PairChurn computes +%d/-%d",
				b.key.name, b.key.version, d.added, d.removed, want[0], want[1])
		}
	}
	// Every read-after-write join must count what the subscriber held at
	// the same versions.
	for _, jr := range joins {
		if n, ok := sub.sizes[[2]int{jr.LeftVersion, jr.RightVersion}]; !ok || int64(n) != jr.Count {
			r.fail("join a⋈b at v%d/v%d counted %d pairs, the subscriber held %d", jr.LeftVersion, jr.RightVersion, jr.Count, n)
		}
	}
}

// liveSet is the writer's model of one dataset: which IDs are live, the
// next ID an insert gets, and the version the next batch produces.
type liveSet struct {
	name    string
	live    []int64
	pos     map[int64]int // index of each live ID in live
	nextID  int64
	version int
	// inserted are the IDs the last batch's inserts must get.
	inserted []int64
}

func newLiveSet(d *service.Dataset) *liveSet {
	s := &liveSet{name: d.Name, pos: make(map[int64]int), nextID: int64(len(d.Points)), version: d.Version}
	for id := range d.Points {
		if d.Alive == nil || d.Alive[id] {
			s.pos[int64(id)] = len(s.live)
			s.live = append(s.live, int64(id))
		}
	}
	return s
}

// next draws one batch and applies it to the model: moves and deletes
// pick distinct live IDs, inserts take fresh ones.
func (s *liveSet) next(rng *rand.Rand) (service.MutationRequest, service.MutationSpec) {
	picked := make(map[int64]bool, batchMoves+batchDeletes)
	var ids []int64
	for len(ids) < batchMoves+batchDeletes {
		id := s.live[rng.Intn(len(s.live))]
		if !picked[id] {
			picked[id] = true
			ids = append(ids, id)
		}
	}
	var req service.MutationRequest
	var spec service.MutationSpec
	for _, id := range ids[:batchMoves] {
		p := randomPoint(rng)
		req.Update = append(req.Update, service.MovePointJSON{ID: id, X: p.X, Y: p.Y})
		spec.Update = append(spec.Update, service.PointMove{ID: id, Pt: p})
	}
	for _, id := range ids[batchMoves:] {
		req.Delete = append(req.Delete, id)
		spec.Delete = append(spec.Delete, id)
		s.remove(id)
	}
	s.inserted = s.inserted[:0]
	for range batchInserts {
		p := randomPoint(rng)
		req.Insert = append(req.Insert, service.PointJSON{X: p.X, Y: p.Y})
		spec.Insert = append(spec.Insert, geom.Pt(p.X, p.Y))
		s.pos[s.nextID] = len(s.live)
		s.live = append(s.live, s.nextID)
		s.inserted = append(s.inserted, s.nextID)
		s.nextID++
	}
	s.version++
	return req, spec
}

func (s *liveSet) remove(id int64) {
	i := s.pos[id]
	last := s.live[len(s.live)-1]
	s.live[i] = last
	s.pos[last] = i
	s.live = s.live[:len(s.live)-1]
	delete(s.pos, id)
}

// check holds a mutation response to the model: version, live count and
// the IDs assigned to the inserts.
func (s *liveSet) check(r *runCtx, mr service.MutationResponse) {
	if mr.Version != s.version || mr.Points != len(s.live) || !slices.Equal(mr.InsertedIDs, s.inserted) {
		r.fail("mutation of %s answered v%d with %d live points and IDs %v, the model has v%d, %d points and IDs %v",
			s.name, mr.Version, mr.Points, mr.InsertedIDs, s.version, len(s.live), s.inserted)
	}
}

// deltaSeen is one delta line as the subscriber received it.
type deltaSeen struct {
	arrival        time.Time
	added, removed int
}

// subscriber holds one GET /join/subscribe stream and applies its churn
// to the baseline pair set as lines arrive.
type subscriber struct {
	base   [2]int // versions of the subscribed line
	cancel context.CancelFunc
	done   chan struct{}
	notify chan struct{} // signalled after each delta line

	mu     sync.Mutex
	set    pairSet
	deltas map[versionKey]deltaSeen
	sizes  map[[2]int]int // pair count after each delta, by (left, right) version
	err    error          // lagged, closed, or a broken stream
	closed bool
}

// subscribe opens the subscription and starts applying its churn to
// baseline, the join at the subscribed versions.
func (e *env) subscribe(left, right string, baseline pairSet) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.srv.URL+"/join/subscribe?left="+left+"&right="+right, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	var hello service.StreamSubscribed
	line, err := br.ReadBytes('\n')
	if err == nil {
		err = json.Unmarshal(line, &hello)
	}
	if err != nil || hello.Type != "subscribed" {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: bad first line %q: %v", line, err)
	}
	s := &subscriber{
		base:   [2]int{hello.LeftVersion, hello.RightVersion},
		cancel: cancel,
		done:   make(chan struct{}),
		notify: make(chan struct{}, 1),
		set:    baseline,
		deltas: make(map[versionKey]deltaSeen),
		sizes:  map[[2]int]int{{hello.LeftVersion, hello.RightVersion}: len(baseline)},
	}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		s.read(br)
	}()
	return s, nil
}

// read applies stream lines until the stream ends.
func (s *subscriber) read(br *bufio.Reader) {
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			s.stop(fmt.Errorf("stream ended: %w", err))
			return
		}
		arrival := time.Now()
		var ev struct {
			Type string `json:"type"`
			P, Q int64
			service.DeltaSummaryJSON
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			s.stop(fmt.Errorf("bad line %q: %w", line, err))
			return
		}
		s.mu.Lock()
		switch ev.Type {
		case "+pair":
			s.set[core.Pair{P: ev.P, Q: ev.Q}] = struct{}{}
		case "-pair":
			delete(s.set, core.Pair{P: ev.P, Q: ev.Q})
		case "delta":
			key := versionKey{ev.Left, ev.LeftVersion}
			if ev.Mutated == "right" {
				key = versionKey{ev.Right, ev.RightVersion}
			}
			s.deltas[key] = deltaSeen{arrival: arrival, added: ev.Added, removed: ev.Removed}
			s.sizes[[2]int{ev.LeftVersion, ev.RightVersion}] = len(s.set)
		default: // lagged, closed: the subscription is over
			s.mu.Unlock()
			s.stop(fmt.Errorf("%s: %s", ev.Type, line))
			return
		}
		s.mu.Unlock()
		if ev.Type == "delta" {
			select {
			case s.notify <- struct{}{}:
			default:
			}
		}
	}
}

// stop records why the stream ended, unless close ended it.
func (s *subscriber) stop(err error) {
	s.mu.Lock()
	if !s.closed && s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// waitFor waits until the stream has delivered n delta lines.
func (s *subscriber) waitFor(n int, timeout time.Duration) error {
	deadline := time.After(timeout)
	for {
		s.mu.Lock()
		got, err := len(s.deltas), s.err
		s.mu.Unlock()
		switch {
		case err != nil:
			return err
		case got >= n:
			return nil
		}
		select {
		case <-s.notify:
		case <-deadline:
			return fmt.Errorf("%d of %d delta lines after %v", got, n, timeout)
		}
	}
}

// close ends the subscription and waits for its reader to exit.
func (s *subscriber) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	<-s.done
}

// walRecord mirrors the service's WAL record, so the shadow log appends
// and syncs records of the service's size.
type walRecord struct {
	Name   string               `json:"name"`
	Base   int                  `json:"base"`
	Result int                  `json:"result"`
	Spec   service.MutationSpec `json:"spec"`
}

// shadowStore replays the traced run's mutations through the layers of
// the service's write path: a registry of its own and a WAL on the same
// filesystem as the service's data directory.
type shadowStore struct {
	reg       *service.Registry
	wal       *storage.WAL
	dir       string
	threshold int64
	snapshots map[string]string // dataset -> its current snapshot file
	// churn is delta.PairChurn's (added, removed) per mutated version.
	churn map[versionKey][2]int
}

func newShadowStore(r *runCtx, e *env) (*shadowStore, error) {
	dir, err := os.MkdirTemp(r.tmpDir, "shadow-")
	if err != nil {
		return nil, err
	}
	s := &shadowStore{
		reg:       service.NewRegistry(0),
		dir:       dir,
		threshold: r.sc.checkpointBytes,
		snapshots: make(map[string]string),
		churn:     make(map[versionKey][2]int),
	}
	for _, name := range []string{"a", "b"} {
		d := e.dataset(name)
		if _, err := s.reg.Put(name, slices.Clone(d.Points)); err != nil {
			return nil, errors.Join(err, os.RemoveAll(dir))
		}
	}
	if s.wal, _, err = storage.OpenWAL(storage.OSFS{}, filepath.Join(dir, "wal.log")); err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	return s, nil
}

// apply replays one batch: prepare, WAL append and sync, install, the
// pair churn of the subscribed join, and a checkpoint whenever the log
// crosses the service's threshold.
func (s *shadowStore) apply(r *runCtx, name string, spec service.MutationSpec, measured bool) {
	l := r.spans
	root := l.newID()
	start := time.Now()
	var p *service.PreparedMutation
	var err error
	prepare := l.step(root, "service.registry_prepare", func() { p, err = s.reg.PrepareMutation(name, spec) })
	if err != nil {
		r.fail("shadow prepare of %s: %v", name, err)
		return
	}
	rec, _ := json.Marshal(walRecord{Name: name, Base: p.Base(), Result: p.Result(), Spec: p.Spec()}) // plain structs: cannot fail
	logged := s.wal.Size()
	appendDur := l.step(root, "storage.wal_append", func() { err = s.wal.Append(rec) })
	syncDur := l.step(root, "storage.wal_sync", func() { err = errors.Join(err, s.wal.Sync()) })
	if err != nil {
		r.fail("shadow WAL: %v", err)
		return
	}
	logged = s.wal.Size() - logged
	var old, cur *service.Dataset
	var changes []delta.Change
	install := l.step(root, "service.registry_install", func() { old, cur, changes, err = s.reg.Install(p) })
	if err != nil {
		r.fail("shadow install of %s: %v", name, err)
		return
	}
	otherName := map[string]string{"a": "b", "b": "a"}[name]
	other, _ := s.reg.Get(otherName)
	var res delta.Result
	churn := l.step(root, "delta.pair_churn", func() {
		res = delta.PairChurn(old.View(), cur.View(), other.View(), changes, name == "a", dataset.Domain)
	})
	s.churn[versionKey{name, cur.Version}] = [2]int{len(res.Added), len(res.Removed)}
	if s.wal.Size() >= s.threshold {
		snap := l.step(root, "storage.snapshot", func() { err = s.checkpoint() })
		if err != nil {
			r.fail("shadow checkpoint: %v", err)
		}
		if measured {
			r.rec.add("storage.snapshot_ms", ms(snap))
		}
	}
	l.add(root, root, 0, "mutation."+name, start, time.Now())
	if !measured {
		return
	}
	r.rec.add("service.registry_prepare_ms", ms(prepare))
	r.rec.add("storage.wal_append_us", us(appendDur))
	r.rec.add("storage.wal_sync_ms", ms(syncDur))
	r.rec.add("storage.wal_bytes", float64(logged))
	r.rec.add("service.registry_install_ms", ms(install))
	r.rec.add("delta.pair_churn_ms", ms(churn))
	r.rec.add("delta.probes", float64(res.Probes))
	r.rec.add("delta.churn", float64(len(res.Added)+len(res.Removed)))
}

// shadowManifest stands in for the service's manifest: one entry per
// dataset, naming its snapshot file and tree metadata.
type shadowManifest struct {
	Datasets []shadowManifestEntry `json:"datasets"`
}

type shadowManifestEntry struct {
	Name    string     `json:"name"`
	Version int        `json:"version"`
	File    string     `json:"file"`
	Meta    rtree.Meta `json:"meta"`
}

// checkpoint does what the service's checkpoint does: it snapshots every
// dataset whose version moved since its last snapshot, commits a manifest
// naming the snapshots (temp file, fsync, rename, directory sync), trims
// the log, and only then removes the superseded snapshots.
func (s *shadowStore) checkpoint() error {
	var man shadowManifest
	var superseded []string
	for _, d := range s.reg.List() {
		file := filepath.Join(s.dir, fmt.Sprintf("%s.v%d.pages", d.Name, d.Version))
		man.Datasets = append(man.Datasets, shadowManifestEntry{Name: d.Name, Version: d.Version, File: filepath.Base(file), Meta: d.Tree.Meta()})
		if s.snapshots[d.Name] == file {
			continue
		}
		if err := storage.SaveDiskFile(storage.OSFS{}, file, d.Tree.Buffer().Disk()); err != nil {
			return err
		}
		if prev := s.snapshots[d.Name]; prev != "" {
			superseded = append(superseded, prev)
		}
		s.snapshots[d.Name] = file
	}
	data, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return err
	}
	if err := storage.WriteFileAtomic(storage.OSFS{}, filepath.Join(s.dir, "MANIFEST.json"), data); err != nil {
		return err
	}
	if err := s.wal.Trim(); err != nil {
		return err
	}
	for _, f := range superseded {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	return nil
}

// close releases the shadow's files. Their errors change nothing
// the run reports: the WAL was synced after every record, and a leftover
// directory only takes space under the result file's directory.
func (s *shadowStore) close() {
	_ = s.wal.Close()
	_ = os.RemoveAll(s.dir)
}
