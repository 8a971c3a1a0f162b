package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/riveterdb/riveter/internal/vector"
)

// maxHTTPRows caps the rows a single HTTP response materializes.
const maxHTTPRows = 1000

// maxQueryBody caps a POST /query body; a longer one is refused whole
// (413), since a cut-short statement may still parse as a different one.
const maxQueryBody = 1 << 20

// MaxHold caps a held session read (?wait=<dur>): a longer hold is
// clamped, and a client that wants to wait longer re-issues the read. A
// constant, not a knob.
const MaxHold = 30 * time.Second

// untilDone is the hold of POST /query {"wait":true}: no expiry.
const untilDone time.Duration = -1

// ParseHold reads a session read's ?wait=<dur> hold: absent or zero is no
// hold, an unparseable or negative duration is an error, and anything
// above MaxHold is clamped to it.
func ParseHold(r *http.Request) (time.Duration, error) {
	v := r.URL.Query().Get("wait")
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad wait %q: want a non-negative duration such as 500ms", v)
	}
	return min(d, MaxHold), nil
}

// queryRequest is the POST /query body.
type queryRequest struct {
	SQL      string `json:"sql,omitempty"`
	TPCH     int    `json:"tpch,omitempty"`
	Priority string `json:"priority,omitempty"`
	// Wait blocks the request until the session finishes and inlines the
	// result; otherwise the response carries just the session snapshot.
	Wait bool `json:"wait,omitempty"`
	// Session is an optional client session key (Request.Key): idempotent
	// resubmission, fleet-wide addressing via /sessions/key/{key}.
	Session string `json:"session,omitempty"`
}

// resultJSON is an inlined query result.
type resultJSON struct {
	Columns   []string   `json:"columns"`
	Rows      [][]string `json:"rows"`
	NumRows   int64      `json:"num_rows"`
	Truncated bool       `json:"truncated,omitempty"`
}

// sessionResponse is the session envelope every session endpoint returns.
type sessionResponse struct {
	Info
	Result *resultJSON `json:"result,omitempty"`
}

// Handler returns the server's HTTP API:
//
//	GET  /healthz             readiness: instance, accepting/draining, live counts
//	POST /query               submit {"sql"|"tpch", "priority", "wait", "session"},
//	                          or a raw SQL statement as a non-JSON body
//	GET  /sessions            all session snapshots, newest first
//	GET  /sessions/{id}       one session (result inlined when done);
//	                          ?wait=<dur> holds the read until the session
//	                          finishes, the hold (at most MaxHold) expires,
//	                          or the server starts stopping
//	GET  /sessions/key/{key}  one session addressed by client session key,
//	                          ?wait=<dur> as above
//	POST /admin/adopt         adopt claimable peer sessions from the shared store
//	POST /admin/drain         evacuate: suspend everything to the store, stop accepting
//	GET  /metrics             registry snapshot (?format=text for human-readable)
//	GET  /traces              recently finished sessions' event traces
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := s.Health()
		status := http.StatusOK
		if h.Status == "draining" {
			// Draining-but-alive: load balancers should stop sending new
			// sessions, but the full health document rides along so a
			// prober can tell "refusing work" from "dead".
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, h)
	})
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /sessions", s.handleSessions)
	mux.HandleFunc("GET /sessions/{id}", s.handleSession)
	mux.HandleFunc("GET /sessions/key/{key}", s.handleSessionByKey)
	mux.HandleFunc("POST /admin/adopt", s.handleAdopt)
	mux.HandleFunc("POST /admin/drain", s.handleDrain)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /traces", s.handleTraces)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBody))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("bad request body: %w", err))
		return
	}
	if ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";"); strings.TrimSpace(ct) == "application/json" ||
		(len(bytes.TrimSpace(body)) > 0 && bytes.TrimSpace(body)[0] == '{') {
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
	} else {
		// Raw statement text: `curl -d 'select ...' /query` submits the body
		// as SQL with default priority and no wait.
		req.SQL = string(bytes.TrimSpace(body))
	}
	prio, err := ParsePriority(req.Priority)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sess, err := s.Submit(Request{SQL: req.SQL, TPCH: req.TPCH, Priority: prio, Key: req.Session})
	switch {
	case errors.Is(err, ErrRejected):
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	hold := time.Duration(0)
	if req.Wait {
		hold = untilDone
	}
	s.writeSession(r.Context(), w, sess, hold)
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Sessions())
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.readSession(w, r, "session "+id, func() *Session { return s.sessions[id] })
}

func (s *Server) handleSessionByKey(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	s.readSession(w, r, "session key "+key, func() *Session { return s.byKey[key] })
}

// readSession serves one session read: the ?wait= hold is validated
// before the lookup (find runs under s.mu), so a bad hold is a 400 even
// for an unknown session.
func (s *Server) readSession(w http.ResponseWriter, r *http.Request, what string, find func() *Session) {
	hold, err := ParseHold(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	sess := find()
	s.mu.Unlock()
	if sess == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown %s", what))
		return
	}
	s.writeSession(r.Context(), w, sess, hold)
}

func (s *Server) handleAdopt(w http.ResponseWriter, r *http.Request) {
	n, err := s.AdoptFromStore()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"adopted": n})
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if err := s.Drain(r.Context()); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, s.Health())
}

// writeSession renders one session, inlining the result when it is done.
// A session read over HTTP is a client touch: it restarts the idle clock
// and wakes a parked session. A non-zero hold first holds the read (see
// holdRead); the held read counts as a waiter, as Wait does, so the idle
// reaper cannot park a session someone is waiting on, and it touches the
// session again when the hold ends.
func (s *Server) writeSession(ctx context.Context, w http.ResponseWriter, sess *Session, hold time.Duration) {
	s.mu.Lock()
	// Report the pre-touch parked state: the request that wakes a parked
	// session is the one that should see (and count) the wake-up.
	wasParked := sess.parked
	s.touchLocked(sess)
	if hold != 0 {
		sess.waiters++
		s.mu.Unlock()
		s.holdRead(ctx, sess, hold)
		s.mu.Lock()
		sess.waiters--
		s.touchLocked(sess)
	}
	resp := sessionResponse{Info: sess.infoLocked()}
	resp.Parked = wasParked
	res := sess.res
	s.mu.Unlock()
	if res != nil {
		rj := &resultJSON{Columns: res.Schema.Names(), NumRows: res.NumRows()}
		n := res.NumRows()
		if n > maxHTTPRows {
			n, rj.Truncated = maxHTTPRows, true
		}
		rj.Rows = make([][]string, n)
		for i := int64(0); i < n; i++ {
			row := res.Row(i)
			cells := make([]string, len(row))
			for j, v := range row {
				cells[j] = renderCell(v)
			}
			rj.Rows[i] = cells
		}
		resp.Result = rj
	}
	writeJSON(w, http.StatusOK, resp)
}

// holdRead blocks until the session reaches a terminal state, the hold
// expires (untilDone: never), the client goes away, or the server
// releases every hold because it started stopping (ReleaseHolds).
func (s *Server) holdRead(ctx context.Context, sess *Session, hold time.Duration) {
	var expired <-chan time.Time
	if hold > 0 {
		t := time.NewTimer(hold)
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-sess.done:
	case <-expired:
	case <-ctx.Done():
	case <-s.released:
	}
}

// renderCell matches ResultSet.Format's float formatting so HTTP and CLI
// render identically.
func renderCell(v vector.Value) string {
	if v.Type == vector.TypeFloat64 && !v.Null {
		return strconv.FormatFloat(v.F, 'f', 2, 64)
	}
	return v.String()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.db.Metrics().Snapshot()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = snap.WriteText(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = snap.WriteJSON(w)
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	traces := s.Traces()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, t := range traces {
			_ = t.WriteText(w)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, "[")
	for i, t := range traces {
		if i > 0 {
			fmt.Fprintln(w, ",")
		}
		_ = t.WriteJSON(w)
	}
	fmt.Fprintln(w, "]")
}
