package server

// Startup and adoption: re-admitting the sessions a previous shutdown (this
// instance's or a dead peer's) persisted. Every persisted session, from
// the local manifest or a store document, enters through admitPersisted.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/checkpoint"
)

// restoreState re-admits the sessions a previous shutdown persisted and
// consumes the manifest. Called from New before the scheduler starts. A
// crashed predecessor's leftovers never abort startup: orphaned .tmp files
// are swept, a torn manifest is quarantined, and each listed resume point
// is verified — failing ones are quarantined and their sessions rerun from
// scratch. In store mode the manifests are the shared store's state
// documents: after a garbage-collection pass (startup is the quiet window —
// this instance serves no traffic yet) every claimable session of every
// instance's document is adopted.
func (s *Server) restoreState() error {
	s.sweepTempDirs()
	if s.store != nil {
		// GC failures are counted in blobstore.gc.failed, not fatal: a store
		// that cannot even be listed will fail the document scan below.
		_, _ = s.store.GC()
		_, err := s.adoptStoreDocs()
		return err
	}
	f, err := s.db.FS().Open(s.cfg.StatePath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return err
	}
	var m stateManifest
	if err := json.Unmarshal(data, &m); err != nil {
		s.met.quarantined.Inc()
		if _, qerr := s.db.Quarantine(s.stateFile()); qerr != nil {
			s.discard(s.stateFile())
		}
		return nil
	}
	s.discard(s.stateFile())
	for _, p := range m.Sessions {
		s.admitPersisted(p)
	}
	s.met.queueDepth.Set(int64(s.queue.Len()))
	return nil
}

// AdoptFromStore adopts claimable sessions peers left in the shared
// store while this server is live — the control plane calls it (via
// POST /admin/adopt) after detecting an instance death, so the victim's
// suspended sessions resume on a survivor without waiting for anyone to
// restart. Unlike the startup path it runs no GC pass: runtime is not
// the quiet window, and a GC could race a peer's in-flight upload.
// Returns the number of sessions adopted.
func (s *Server) AdoptFromStore() (int, error) {
	if s.store == nil {
		return 0, fmt.Errorf("server: no blob store configured")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping {
		return 0, ErrClosed
	}
	n, err := s.adoptStoreDocs()
	if n > 0 {
		s.cond.Broadcast()
	}
	return n, err
}

// adoptStoreDocs scans every state document in the shared store and
// adopts each claimable session, returning how many were enqueued. The
// claim token makes adoption exclusive: two instances starting against the
// same store split the sessions between them, never double-resuming one.
// Sessions adopted from a foreign instance's document count as
// migrations. Called lock-free from New (the scheduler is not running
// yet) and under s.mu from AdoptFromStore.
func (s *Server) adoptStoreDocs() (int, error) {
	docs, err := s.store.ListDocs()
	if err != nil {
		return 0, err
	}
	// Own document first — an instance restarting reclaims its own
	// sessions before looking at anyone else's leftovers.
	sort.Slice(docs, func(i, j int) bool {
		if own := docs[i] == s.stateDocName(); own != (docs[j] == s.stateDocName()) {
			return own
		}
		return docs[i] < docs[j]
	})
	adopted := 0
	for _, doc := range docs {
		if !strings.HasPrefix(doc, stateDocPrefix) {
			continue
		}
		own := doc == s.stateDocName()
		var m stateManifest
		if err := s.store.GetDoc(doc, &m); err != nil {
			// A torn document is consumed (own) or left for its writer;
			// either way its sessions cannot be recovered from here.
			s.met.quarantined.Inc()
			if own {
				_ = s.store.DeleteDoc(doc)
			}
			continue
		}
		docInstance := strings.TrimPrefix(doc, stateDocPrefix)
		allClaimed := true
		for _, p := range m.Sessions {
			claimKey := p.StoreKey
			if claimKey == "" {
				// Queued sessions carry no checkpoint; claim under the key
				// a suspension would have used, so the adoption lock still
				// has a well-known name.
				claimKey = sessionStoreKey(docInstance, p.ID)
			}
			ok, cerr := s.store.Claim(claimKey, s.instanceID, doc)
			if cerr != nil {
				allClaimed = false
				continue
			}
			if !ok {
				continue // a peer instance owns this session now
			}
			if s.admitPersisted(p) {
				adopted++
				if !own {
					s.met.migrated.Inc()
				}
			}
		}
		// The document is consumed once every session found a home: ours
		// unconditionally (unclaimable entries were processed above), a
		// foreign one only when all its entries are claimed by someone.
		if own || allClaimed {
			_ = s.store.DeleteDoc(doc)
		}
	}
	s.met.queueDepth.Set(int64(s.queue.Len()))
	return adopted, nil
}

// admitPersisted re-admits one persisted session, reporting whether it was
// enqueued. Its resume point is verified before the session can dispatch
// into it: a torn or corrupt one is quarantined here and the query reruns
// from scratch (a lineage log's torn tail alone is fine — the replay
// truncates it). The original session id is kept when free (so clients
// polling a session of a dead instance find it on the survivor);
// colliding ids get a fresh one — but the client session key, when
// present, is kept verbatim: it is the fleet-wide identity a routing proxy
// addresses, and it must survive migration even when the local id cannot.
// The session is not yet visible to any other goroutine, so no lock is
// taken; callers either run before the scheduler starts or hold s.mu.
func (s *Server) admitPersisted(p persistedSession) bool {
	at := p.point()
	if p.Key != "" {
		if _, dup := s.byKey[p.Key]; dup {
			// The key already lives here — the proxy resubmitted it, or an
			// earlier adoption round won. The persisted copy is stale state
			// of the same logical session; drop its resume point (and claim)
			// so it cannot resurface anywhere.
			s.discard(at)
			return false
		}
	}
	req := Request{SQL: p.SQL, TPCH: p.TPCH, Priority: Priority(p.Priority), Key: p.Key}
	q, display, qerr := s.prepare(req)
	id := p.ID
	if _, taken := s.sessions[id]; taken || sessionSeq(id) == 0 {
		id = ""
	} else if n := sessionSeq(id); n > s.seq {
		s.seq = n
	}
	var est riveter.Estimate
	if qerr == nil {
		est = q.Estimate()
	}
	sess := s.addSessionLocked(id, req, q, display, est)
	if !at.IsZero() {
		if _, verr := s.db.Verify(at); verr != nil {
			s.quarantine(sess, at, verr)
		} else {
			sess.resume = at
			sess.state = StateSuspended
		}
	}
	if qerr != nil {
		sess.state = StateFailed
		sess.err = qerr
		close(sess.done)
		return false
	}
	s.queue.Enqueue(sess)
	return true
}

// sweepTempDirs removes orphaned in-flight .tmp files a crashed
// predecessor left behind — the atomic-write protocol guarantees anything
// still named *.tmp was abandoned mid-write. Entries the sweep cannot
// remove are counted (checkpoint.sweep_failed) rather than silently
// skipped: a stuck orphan is leaked disk an operator should hear about.
func (s *Server) sweepTempDirs() {
	dirs := map[string]struct{}{
		s.db.CheckpointDir():          {},
		filepath.Dir(s.cfg.StatePath): {},
	}
	for dir := range dirs {
		_, failed, _ := checkpoint.SweepTemp(s.db.FS(), dir)
		s.met.sweepFailed.Add(int64(len(failed)))
	}
}
