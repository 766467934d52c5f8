package service

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/store"
)

// This file makes beerd jobs durable. Every job writes two records to the
// server's store: one when it starts ("running") and one when it reaches a
// terminal state. On construction the server reads the job bucket back:
// terminal records replay into the job table (status and result immediately
// readable), and "running" records — jobs interrupted by a crash or
// shutdown — restart from their persisted specs. Recovered ECC functions are
// NOT stored here: they live in the content-addressed codes bucket, written
// by the solve cache (store.SolveCacheView), so a resumed job whose profile
// was already solved replays the solver result too.

// jobRecord renders a snapshot of job j into its durable record form.
func jobRecord(j *job, snap jobSnapshot) *store.JobRecord {
	rec := &store.JobRecord{
		ID:       j.id,
		Type:     j.spec.Type,
		State:    string(snap.state),
		Error:    snap.errText,
		Created:  j.created.UTC(),
		Started:  snap.started.UTC(),
		Finished: snap.finished.UTC(),
	}
	if spec, err := json.Marshal(j.spec); err == nil {
		rec.Spec = spec
	}
	if snap.result != nil {
		if data, err := json.Marshal(snap.result); err == nil {
			rec.Result = data
		}
		if snap.result.Recover != nil {
			rec.ProfileHash = snap.result.Recover.ProfileHash
		}
	}
	return rec
}

// persistJob writes the job's current snapshot to the store. Persistence is
// best-effort: a failing backend must not take down a job that already
// computed its result (the in-memory table still serves it); the error is
// surfaced on /healthz via the store description only insofar as operators
// monitor their disk.
func (s *Server) persistJob(j *job) {
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	s.putSnapshot(j, j.snapshot())
}

// putSnapshot writes snap as j's record; callers hold j.persistMu.
func (s *Server) putSnapshot(j *job, snap jobSnapshot) {
	rec := jobRecord(j, snap)
	// A job cancelled by server shutdown is persisted as still running: the
	// next boot resumes it, which is what makes a graceful restart lose no
	// submitted work. A DELETE-initiated cancellation is terminal and stays
	// "canceled" even when the shutdown races the job goroutine's finish.
	if snap.state == StateCanceled && !snap.userCanceled && s.baseCtx.Err() != nil {
		rec.State = string(StateRunning)
		rec.Error = ""
		rec.Finished = time.Time{}
	}
	_ = s.store.PutJob(rec)
}

// finishJob moves a job to its terminal state, durably first: the terminal
// record is written before the state is published, so a poll during the
// write still reads "running", and a client that reads a terminal status
// (and then inspects the store or restarts the server) finds the terminal
// record already there. persistMu is held across both steps, so a DELETE's
// cancel intent either lands first and is overwritten, or sees the
// terminal state and writes nothing.
func (s *Server) finishJob(j *job, state State, err error, result *JobResult) {
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	snap := j.snapshot()
	snap.state, snap.result, snap.finished = state, result, time.Now()
	if err != nil {
		snap.errText = err.Error()
	}
	s.putSnapshot(j, snap)
	j.mu.Lock()
	j.state, j.errText, j.result, j.finished = snap.state, snap.errText, snap.result, snap.finished
	j.mu.Unlock()
}

// persistCancelIntent durably records a DELETE the moment it is accepted,
// before the job goroutine observes the cancelled context at its next pass
// boundary. Without this, a hard crash inside that window would leave a
// "running" record and the next boot would resume a job the user explicitly
// cancelled. persistMu makes the snapshot-and-write atomic against the
// goroutine's own persist: if the job already reached a terminal state, its
// record carries the truth and this is a no-op; if the job finishes after
// this write, the goroutine's later persist overwrites the intent with the
// real outcome. A stale intent can therefore never clobber a terminal
// record.
func (s *Server) persistCancelIntent(j *job) {
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	snap := j.snapshot()
	if snap.state != StateRunning {
		return
	}
	snap.state, snap.errText, snap.finished = StateCanceled, "canceled by DELETE", time.Now()
	_ = s.store.PutJob(jobRecord(j, snap))
}

// recoverPersistedJobs loads the store's job bucket into the job table:
// terminal records replay, "running" records resume. Called once from New,
// before the server is published.
func (s *Server) recoverPersistedJobs() {
	// Restore the id sequence from every key that looks like one of ours —
	// including records too corrupt to load — so a new submission can never
	// mint an id that collides with (and overwrites) an existing file.
	maxSeq := 0
	if keys, err := s.store.Backend().Keys(store.BucketJobs); err == nil {
		for _, key := range keys {
			if n, ok := parseJobID(key); ok && n > maxSeq {
				maxSeq = n
			}
		}
	}
	s.seq = maxSeq

	recs, err := s.store.Jobs()
	if err != nil || len(recs) == 0 {
		return
	}
	// Restore submission order from the numeric suffix.
	type numbered struct {
		n   int
		rec *store.JobRecord
	}
	ordered := make([]numbered, 0, len(recs))
	for _, rec := range recs {
		n, ok := parseJobID(rec.ID)
		if !ok {
			continue // foreign record (e.g. an operator's backup copy);
			// leave it in the store, keep it out of the table
		}
		ordered = append(ordered, numbered{n: n, rec: rec})
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].n < ordered[j].n })

	for _, item := range ordered {
		rec := item.rec
		j, specErr := jobFromRecord(rec)
		if State(rec.State) == StateRunning {
			if specErr != nil {
				// The spec is unreadable (corrupt record or a failed marshal
				// at persist time); the job cannot re-run. Surface it as a
				// failed job rather than silently dropping it with a stale
				// "running" record left in the store.
				s.registerTerminal(j, StateFailed, fmt.Sprintf("resume: corrupt spec: %v", specErr))
				continue
			}
			s.resume(j)
			continue
		}
		replay(j, rec)
		s.registerFinished(j)
	}
}

// jobFromRecord rebuilds a job from its durable record; the error reports
// a spec that does not decode.
func jobFromRecord(rec *store.JobRecord) (*job, error) {
	var spec JobSpec
	specErr := json.Unmarshal(rec.Spec, &spec)
	if spec.Type == "" {
		spec.Type = rec.Type // keep the listing readable even without a spec
	}
	j := &job{
		id:       rec.ID,
		spec:     spec,
		created:  rec.Created,
		state:    State(rec.State),
		errText:  rec.Error,
		started:  rec.Started,
		finished: rec.Finished,
	}
	j.progress.update(ProgressStatus{Chips: spec.chipCount()})
	return j, specErr
}

// registerTerminal places a job that will never run into the table in a
// terminal state and persists that verdict.
func (s *Server) registerTerminal(j *job, state State, errText string) {
	j.state = state
	j.errText = errText
	if j.finished.IsZero() {
		j.finished = time.Now()
	}
	j.cancel = func() {}
	s.registerFinished(j)
	s.persistJob(j)
}

// registerFinished places a terminal job into the table and the listing.
func (s *Server) registerFinished(j *job) {
	s.mu.Lock()
	s.table.put(j)
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	s.table.retire(j)
}

// parseJobID matches exactly the ids the server mints ("job-<n>", n >= 1).
// Anything else — including ids with trailing garbage like "job-2.bak",
// which fmt.Sscanf would happily accept — is foreign and must not be
// resumed or replayed.
func parseJobID(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// resume restarts an interrupted job from its persisted spec under a fresh
// context. Its previous partial collection is gone — BEER discards partial
// counts by design (an unevenly sampled profile would bias the §5.2
// threshold filter) — but if the profile was solved before the interruption,
// the content-addressed registry still short-circuits the solve stage.
func (s *Server) resume(j *job) {
	exec, err := s.executor.Prepare(j.spec)
	if err != nil {
		// The spec was validated at submission; failing now means the record
		// predates a validation change. Mark it failed rather than dropping
		// it silently.
		s.registerTerminal(j, StateFailed, fmt.Sprintf("resume: %v", err))
		return
	}
	j.state = StateRunning
	j.errText = ""
	j.finished = time.Time{}
	key := dedupeKey(j.spec)
	s.mu.Lock()
	// A resumed job claims the single-flight slot for its spec (first one
	// wins if several interrupted records share a spec), so submissions
	// arriving while it re-runs attach to it instead of re-executing.
	if _, taken := s.inflight[key]; !taken {
		j.dedupeKey = key
		s.inflight[key] = j
	}
	s.registerLocked(j)
	s.mu.Unlock()
	s.start(j, exec)
}

// replay restores a terminal job so its status and result read exactly as
// before the restart. The pipeline does not run again; per-stage progress is
// synthesized as complete for succeeded jobs (the live event stream did not
// survive the restart, and the API documents replayed progress as terminal
// rather than historical).
func replay(j *job, rec *store.JobRecord) {
	j.cancel = func() {} // cancelling a terminal job is a no-op
	if len(rec.Result) > 0 {
		result := new(JobResult)
		if err := json.Unmarshal(rec.Result, result); err == nil {
			j.result = result
		}
	}
	if j.state == StateSucceeded {
		chips := j.spec.chipCount()
		p := ProgressStatus{
			Updates:  1,
			Chips:    chips,
			Discover: StageStatus{Done: true, Count: int64(chips), Total: int64(chips)},
			Collect:  StageStatus{Done: true},
			Solve:    StageStatus{Done: true},
		}
		if j.result != nil && j.result.Recover != nil {
			p.Solve.Count = int64(j.result.Recover.Candidates)
		}
		if j.spec.Type == "recover" {
			p.Stage = "solve"
		}
		j.progress.set(p)
	}
}
