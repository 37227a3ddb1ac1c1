package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"cij/internal/delta"
	"cij/internal/geom"
)

// maxMutationBodyBytes caps a mutation request body; even a full
// maxMutationBatch of changes encodes well under a megabyte.
const maxMutationBodyBytes = 8 << 20

// MutatePoints applies one atomic batch of point-level changes to the
// named dataset: a new copy-on-write version is installed, the dataset's
// cached join results are swept, and — for every live subscription
// involving the dataset — the incremental delta engine computes and
// publishes exactly which join pairs appeared and disappeared.
//
// The whole pipeline runs under mutMu, so concurrent mutations serialize
// and subscribers observe every version transition once, in version
// order. Joins never take the lock: a join in flight keeps reading the
// version it resolved, which the COW snapshot keeps byte-stable.
func (s *Service) MutatePoints(name string, req MutationRequest) (*MutationResponse, error) {
	spec := MutationSpec{
		Insert: make([]geom.Point, 0, len(req.Insert)),
		Update: make([]PointMove, 0, len(req.Update)),
		Delete: req.Delete,
	}
	for _, p := range req.Insert {
		spec.Insert = append(spec.Insert, geom.Pt(p.X, p.Y))
	}
	for _, mv := range req.Update {
		spec.Update = append(spec.Update, PointMove{ID: mv.ID, Pt: geom.Pt(mv.X, mv.Y)})
	}

	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	old, cur, changes, err := s.applyMutation(name, spec)
	if err != nil {
		return nil, err
	}
	// The old version's cached results are version-keyed and therefore
	// already unreachable; the sweep just releases their memory eagerly.
	s.cache.invalidateDataset(name)
	s.metrics.mutationBatches.Inc()
	if n := len(spec.Insert); n > 0 {
		s.metrics.mutations.With("insert").Add(int64(n))
	}
	if n := len(spec.Update); n > 0 {
		s.metrics.mutations.With("update").Add(int64(n))
	}
	if n := len(spec.Delete); n > 0 {
		s.metrics.mutations.With("delete").Add(int64(n))
	}
	s.logger.Info("dataset mutated",
		"name", name,
		"version", cur.Version,
		"inserted", len(spec.Insert),
		"updated", len(spec.Update),
		"deleted", len(spec.Delete),
		"points", cur.Live,
		"pages", cur.Pages,
	)

	deltas := s.propagateMutation(old, cur, changes)

	resp := &MutationResponse{
		Name:    name,
		Version: cur.Version,
		Points:  cur.Live,
		Updated: len(spec.Update),
		Deleted: len(spec.Delete),
		Pages:   cur.Pages,
		Deltas:  deltas,
	}
	if n := len(spec.Insert); n > 0 {
		resp.InsertedIDs = make([]int64, n)
		for i := range resp.InsertedIDs {
			resp.InsertedIDs[i] = int64(len(old.Points) + i)
		}
	}
	return resp, nil
}

// applyMutation runs one batch through the registry — and, when the
// service is durable, through the write-ahead log between the prepare and
// install halves: the record is appended and fsync'd BEFORE the new
// version becomes visible, so a crash at any instant leaves either no
// trace of the batch or a record that replays it whole. Callers hold
// mutMu, which is what pins PreparedMutation.Result to the version the
// install actually assigns.
func (s *Service) applyMutation(name string, spec MutationSpec) (old, cur *Dataset, changes []delta.Change, err error) {
	st := s.store.Load()
	if st == nil {
		return s.reg.Mutate(name, spec)
	}
	p, err := s.reg.PrepareMutation(name, spec)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := st.logMutation(p); err != nil {
		return nil, nil, nil, fmt.Errorf("persisting mutation of %q: %w", name, err)
	}
	old, cur, changes, err = s.reg.Install(p)
	if err != nil {
		// Unreachable while every writer holds mutMu; if it ever fires,
		// checkpoint to trim the just-logged record so its version slot
		// cannot collide with a future batch's on replay.
		if cerr := st.checkpoint(s.reg); cerr != nil {
			s.logger.Warn("checkpoint after failed install", "err", cerr)
		}
		return nil, nil, nil, err
	}
	st.maybeCheckpoint(s.reg)
	return old, cur, changes, nil
}

// mutationErrorStatus maps registry mutation errors onto HTTP statuses:
// a missing dataset is 404, an install race is 409 (a retryable
// conflict, not a malformed request), anything else — bad IDs,
// out-of-domain positions, oversized or empty batches — is the client's
// 400.
func mutationErrorStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnknownDataset):
		return http.StatusNotFound
	case errors.Is(err, ErrMutationConflict):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// handleMutatePoints is POST /datasets/{name}/points: one atomic batch
// of inserts ("insert"), moves ("update") and deletes ("delete"). Any
// other field is a 400 naming it, so a misspelled part of a batch is
// refused instead of silently applying the rest.
func (s *Service) handleMutatePoints(w http.ResponseWriter, r *http.Request) {
	var req MutationRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxMutationBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, bodyErrorStatus(err), "bad mutation request: %v", err)
		return
	}
	resp, err := s.MutatePoints(r.PathValue("name"), req)
	if err != nil {
		writeError(w, mutationErrorStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDeletePoint is DELETE /datasets/{name}/points/{id}: sugar for a
// single-delete batch.
func (s *Service) handleDeletePoint(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad point id %q: %v", r.PathValue("id"), err)
		return
	}
	resp, err := s.MutatePoints(r.PathValue("name"), MutationRequest{Delete: []int64{id}})
	if err != nil {
		writeError(w, mutationErrorStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
