// Package service is the CIJ query service: the layer that turns the
// repository's join algorithms into something that can be *served* —
// named datasets, concurrent queries, result reuse — rather than run once
// from a test harness or CLI. cmd/cijserver exposes it over HTTP.
//
// # Architecture
//
// The service is three cooperating parts behind a small HTTP surface:
//
//   - Registry (registry.go): named, versioned pointsets. Each Dataset
//     owns a private simulated disk, an LRU storage.Buffer sized as a
//     percentage of its data pages, and an rtree.Tree bulk-loaded over
//     that buffer at ingest time — so serving a join never pays index
//     construction. Ingesting a name again replaces the whole Dataset
//     value and bumps a registry-scoped version counter; in-flight
//     queries keep reading the old dataset's disk (immutable after
//     build), new queries see the new version. Queries never touch a
//     dataset's base buffer: each request forks a private buffer view
//     (storage.Buffer.Fork + rtree.Tree.WithBuffer), which keeps
//     concurrent joins lock-free on the hot path, exactly as the parallel
//     engine's workers do.
//
//   - Live mutation path (registry.go Mutate, mutate.go, subscribe.go):
//     point-level inserts, moves and deletes applied as one atomic batch
//     producing one new dataset version. The old version's pages stay
//     readable through a copy-on-write disk snapshot (storage.Disk.Clone
//     with rtree.Tree.CloneMut), so in-flight joins keep the exact
//     version they resolved — snapshot isolation, no locks on the join path;
//     a service-level mutex serializes mutators only. Deleted points
//     tombstone (IDs never renumber, so pair identities stay stable
//     across versions); the grid backend, which joins point arrays,
//     compacts live points per query and remaps its pairs back to
//     original IDs. Each mutation of a subscribed dataset triggers a
//     delta run (internal/delta): the paper's Lemma 1/2 influence bound
//     localizes which Voronoi cells a change can affect, so the engine
//     computes exactly which pairs appear/disappear without recomputing
//     the join, and /join/subscribe streams that churn as NDJSON events.
//
//   - Planner/dispatcher (planner.go): maps a Query {left, right, algo,
//     workers, topk} onto an execution plan. An explicit algo ("nm",
//     "parallel", "grid") is honored; "auto" (or empty) routes on
//     cardinality: the parallel partitioned engine when the joint
//     cardinality is large enough to amortize its fan-out (sizing the
//     worker pool from dataset cardinalities when the query does not fix
//     it), serial NM-CIJ when the query names a storage (a statement
//     about tree nodes), and otherwise the in-memory grid backend
//     (internal/grid, zero I/O), whose Delaunay join costs the same at
//     any density. The planner narrates as it decides: each branch writes
//     the reason for its own choice into the Explanation it returns, and a
//     served join carries that one Explanation into ?explain=1 and the
//     journal, so the narration cannot drift from the plan. No plan
//     writes a page: NM and parallel read per-request views of the
//     registry's read-only disks, and the grid reads no pages at all.
//     PM-CIJ and FM-CIJ, the paper's Fig. 7 baselines, are not served;
//     cijtool join and cijbench run them. A bounded admission
//     semaphore caps the number of joins executing at once: excess
//     requests queue (FIFO on a channel) instead of thrashing the
//     machine, and /stats reports the in-flight count.
//
//   - Result cache (cache.go): a versioned LRU keyed by
//     (left@ver, right@ver, algo, workers). Because dataset versions are
//     part of the key, re-ingesting a dataset invalidates all its cached
//     results implicitly — stale entries can never be hit and age out of
//     the LRU; ingest also sweeps them eagerly to release memory. A
//     repeated join on unchanged datasets is served entirely from memory:
//     zero page accesses, zero admission slots. TopK is applied when
//     building the response, not in the key, so one cached result serves
//     every prefix of itself.
//
// # HTTP surface
//
//	POST /datasets/{name}   ingest CSV body or ?gen= generator spec
//	GET  /datasets          list name/version/cardinality/pages
//	POST /datasets/{name}/points        mutate: one atomic batch of
//	                        {insert, update, delete} -> new version,
//	                        MutationResponse with per-subscription deltas
//	DELETE /datasets/{name}/points/{id} single-point delete shorthand
//	POST /join              buffered JSON join (JoinRequest -> JoinResponse)
//	GET  /join/stream       progressive NDJSON: pair lines as the join
//	                        produces them (Fig. 9b's non-blocking property,
//	                        preserved through parallel.Options.OnPair),
//	                        progress lines from the parallel engine's
//	                        OnProgress hook, then one summary line
//	GET  /join/subscribe    long-lived NDJSON churn stream for one join:
//	                        a "subscribed" line with base versions, then
//	                        per-mutation "+pair"/"-pair" events and one
//	                        "delta" summary; a lagging client gets a
//	                        terminal "lagged" line and must resubscribe
//	GET  /stats             datasets plus counts read from the /metrics
//	                        registry: joins, cache, page accesses, mutations
//	GET  /stats/history     windowed rates/quantiles from the self-scraped
//	                        metrics ring (?window=30s)
//	GET  /metrics           Prometheus text exposition of every family
//	GET  /debug/queries     the query journal: recent observation records,
//	                        filterable by ?dataset= ?algo= ?min_ms= ?limit=
//	GET  /debug/queries/{id}            one record, retained trace inline
//	GET  /debug/queries/{id}/trace.json the retained trace as Chrome
//	                        trace-event JSON (chrome://tracing, Perfetto)
//
// The buffered and streaming paths share one executor and one encoding
// (encode.go); cmd/cijtool's -json flag emits the same JoinResponse, so
// CLI and server outputs cannot drift.
//
// # Observability
//
// metrics.go registers the service's metric families on an internal/obs
// registry: per-route request counters and latency histograms, per-algo
// join counters and latency histograms, planner decisions, the I/O
// counter families (pages read, logical reads, decode hits and
// misses, buffer evictions via storage.Buffer.SetOnEvict on per-request
// views), admission-queue wait/depth, and func-backed cache/registry
// gauges. The I/O families are fed from the same storage.Stats aggregate
// the response reports, so /metrics deltas reconcile with per-query stats
// exactly. The registry is the only owner of the service's counts: GET
// /stats sums its families instead of keeping counters of its own.
// POST /join?explain=1 returns the planner's decision (plan,
// reason, inputs) without executing. Every computed join is traced;
// JoinRequest.Trace / &trace=1 attach its per-phase obs.Trace spans to
// the response (or as a "trace" NDJSON line), including when the answer
// comes from the cache or from another request's in-flight computation.
// Config.SlowQuery arms a slow-query log that dumps the full phase trace
// of any join over the threshold through Config.Logger (log/slog).
//
// # Query journal: the observation record as a training contract
//
// journal.go records every served join as one JournalRecord — the
// observation corpus the ROADMAP's learned planner (a fitted cost model
// replacing the hand-tuned gates) trains from. Each record is
// deliberately self-contained: it pairs the full decision context with
// the measured outcome, so a single JSONL line is one supervised example
// with no joins against other logs required.
//
//   - Identity: ID (the query ID threaded through JoinResponse.QueryID,
//     the NDJSON summary line and every slog record), Time, and the
//     dataset names *with versions* — observations survive re-ingests
//     without silently mixing distributions.
//   - Decision: the executed Plan (algo, storage, workers), Cached, the
//     planner's narrated Reason, and PlanInputs (cardinalities and the
//     gate constants in force) — the feature vector.
//   - Outcome: Pairs and Stats, where Stats is built by the same
//     projection as the JoinResponse's (Outcome.statsJSON), making the
//     journal byte-equal to the response and, because the metric
//     families are fed from the same storage.Stats, reconciled with
//     /metrics counter deltas — the label vector, already consistent
//     with every other surface.
//
// The in-memory ring keeps the newest records plus the phase traces of
// the slowest-K computed joins; cijserver's -journal flag appends every
// record (traces included) to a JSONL file, and ReadJournal replays it.
// Explain attaches Journal.Observed — the aggregate over matching past
// observations — next to the model's reasoning, so the modeled-vs-
// observed gap is visible per plan before any learning exists. The
// journal is always on: every service keeps a DefaultJournalEntries ring.
//
// # Durability
//
// Open with Config.DataDir attaches the durable tier (persist.go): the
// in-memory registry stays the working representation, and durability is
// a redo log beside it. The directory holds a MANIFEST.json (the atomic
// root: dataset -> snapshot-file/version map plus the clean-shutdown
// marker), one checksummed page file per dataset version (the exact
// bytes of its simulated disk, so restore reproduces pages/op
// identically), and a write-ahead log of mutation batches.
//
// The ordering invariants, all serialized under the mutation mutex:
//
//   - Ingest: snapshot file and manifest are written (and fsync'd)
//     BEFORE the registry install. A crash in between leaves an
//     unacknowledged-but-complete dataset — never a partial one.
//   - Mutation: the batch's WAL record is appended and fsync'd BEFORE
//     the prepared version installs (PrepareMutation/Install split in
//     registry.go), so an acknowledged batch always replays whole.
//   - Checkpoint: once the WAL exceeds Config.CheckpointWALBytes,
//     changed datasets are re-snapshotted, the manifest rewritten, and
//     only then the WAL trimmed. Replay is idempotent by version
//     arithmetic — a record whose Result version is already on disk is
//     skipped as stale — so a crash between manifest and trim is safe.
//
// Recovery (Open) replays manifest -> snapshots -> WAL tail to the exact
// last-installed state, reports itself via RecoveryInfo and the
// cij_recovery_* /metrics families, and Close writes the final
// checkpoint plus the clean-shutdown marker. Restore treats a snapshot's
// tree as untrusted input: a tree that fails its invariants, names a
// point twice or outside the domain, or does not decode is an error,
// never a panic or a phantom point. Fsck (fsck.go) is the same pipeline
// read-only, surfaced as `cijtool fsck`: readManifest, restoreSnapshot
// into a scratch registry (one read of each page file), and replayWAL,
// so its verdict is whether boot would succeed. The crash matrix in
// internal/check proves every fault point recovers to an
// exactly-installed version.
package service
