package service

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// sseKeepAlive is how often an idle event stream emits a comment line so
// intermediaries keep the connection open.
const sseKeepAlive = 15 * time.Second

// handleEvents streams a job's status as Server-Sent Events — the push
// replacement for the GET /api/v1/jobs/{id} poll loop. Every event's data
// is a full JobStatus snapshot (the same monotonic merge the poll endpoint
// reads, so progress never steps backwards); running jobs emit
// `event: progress` on every change and the stream ends with a single
// `event: done` carrying the terminal status. A job that is already
// terminal yields just the done event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	// Subscribe before the first snapshot: a transition between that
	// snapshot and select cannot be missed, only coalesced.
	wake, unsubscribe := j.watch()
	defer unsubscribe()

	sse, err := obs.NewSSE(w)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "event stream: %v", err)
		return
	}
	s.metrics.sseStreams.Inc()

	var seq int64
	lastUpdates := int64(-1)
	// send emits an event if the status advanced; it reports whether the
	// stream is finished (terminal status sent or the write failed).
	send := func() bool {
		st := s.status(j)
		terminal := st.State.Terminal()
		if !terminal && st.Progress.Updates == lastUpdates {
			return false
		}
		lastUpdates = st.Progress.Updates
		seq++
		event := "progress"
		if terminal {
			event = "done"
		}
		if err := sse.Event(seq, event, st); err != nil {
			return true
		}
		return terminal
	}

	if send() {
		return
	}
	keepAlive := time.NewTicker(sseKeepAlive)
	defer keepAlive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-wake:
			if send() {
				return
			}
		case <-keepAlive.C:
			if sse.Comment("keep-alive") != nil {
				return
			}
		}
	}
}
