package server

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/faultfs"
	"github.com/riveterdb/riveter/internal/obs"
)

// stallFS passes everything through to its base filesystem except the
// fsyncs of a lineage log (.rvlg) after the one that creates it: the seals
// of the query's pipeline breakers. Each of those blocks until the test
// lets it go — one at a time with step, every one from then on with
// release — so a query started with a lineage log on this filesystem is
// mid-execution until the test says otherwise: by construction, not by
// timing. With fail set a released seal fails, killing the log the way a
// dying device would.
type stallFS struct {
	faultfs.FS
	fail    bool
	stalled chan struct{} // receives once per seal that blocks
	step    chan struct{} // lets one blocked seal go
	open    chan struct{} // closed by release: every seal goes
	once    sync.Once
}

func newStallFS(fail bool) *stallFS {
	return &stallFS{FS: faultfs.OS, fail: fail, stalled: make(chan struct{}),
		step: make(chan struct{}), open: make(chan struct{})}
}

// release lets every blocked and later seal go.
func (s *stallFS) release() { s.once.Do(func() { close(s.open) }) }

func (s *stallFS) Create(path string) (faultfs.File, error) {
	f, err := s.FS.Create(path)
	if err != nil || !strings.HasSuffix(path, ".rvlg") {
		return f, err
	}
	return &stallFile{File: f, fs: s}, nil
}

// stallFile counts a lineage log's fsyncs; the log calls Sync under its own
// mutex, so the count needs no lock of its own.
type stallFile struct {
	faultfs.File
	fs    *stallFS
	syncs int
}

func (f *stallFile) Sync() error {
	if f.syncs++; f.syncs < 2 {
		return f.File.Sync()
	}
	select {
	case f.fs.stalled <- struct{}{}:
		select {
		case <-f.fs.step:
		case <-f.fs.open:
		}
	case <-f.fs.open:
	}
	if f.fs.fail {
		return errors.New("stallFS: seal failed")
	}
	return f.File.Sync()
}

// openStallTPCH is openTPCH with checkpoint I/O on fsys (a stallFS, or an
// injector over one).
func openStallTPCH(t testing.TB, fsys faultfs.FS) *riveter.DB {
	t.Helper()
	db := riveter.Open(riveter.WithWorkers(2), riveter.WithCheckpointDir(t.TempDir()),
		riveter.WithTracing(), riveter.WithFS(fsys))
	if err := db.GenerateTPCH(0.02); err != nil {
		t.Fatal(err)
	}
	return db
}

// stalledVictim submits TPC-H 21 as a batch session and returns once it is
// mid-run by construction: blocked in the seal of its first pipeline
// breaker on stall. The server must have been created at LineageLevel, so
// the query carries the log whose seal stalls; level is the PreemptLevel
// it runs under from then on — what its persisted suspensions write — so a
// victim held mid-run can be tested under every level. A wait watches the
// victim from its dispatch until it stalls, so an idle reaper cannot park
// it before then; it is unwatched when this returns.
func stalledVictim(t *testing.T, s *Server, stall *stallFS, level riveter.Strategy) *Session {
	t.Helper()
	t.Cleanup(stall.release) // before the server's own cleanup shuts it down
	release := holdSlots(s)
	victim, err := s.Submit(Request{TPCH: 21, Priority: Batch})
	if err != nil {
		t.Fatal(err)
	}
	ctx, unwatch := context.WithCancel(context.Background())
	defer unwatch()
	go s.Wait(ctx, victim.ID())
	waitCond(t, 30*time.Second, "the wait to be in place", func() bool { return waiters(s, victim) == 1 })
	release()
	select {
	case <-stall.stalled:
	case <-time.After(30 * time.Second):
		t.Fatal("the victim never reached its first breaker")
	}
	waitCond(t, 30*time.Second, "the victim's execution", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		if victim.exec == nil {
			return false
		}
		s.cfg.PreemptLevel = level
		return true
	})
	unwatch()
	waitCond(t, 30*time.Second, "the wait to end", func() bool { return waiters(s, victim) == 0 })
	return victim
}

// peek reads a session under the server mutex without touching it (Info
// would count as a client touch and restart the idle clock).
func peek[T any](s *Server, f func() T) T {
	s.mu.Lock()
	defer s.mu.Unlock()
	return f()
}

// preemptVictim submits an interactive query and returns it once the
// scheduler has asked the victim to quiesce.
func preemptVictim(t *testing.T, s *Server, victim *Session) *Session {
	t.Helper()
	short, err := s.Submit(Request{SQL: "SELECT count(*) AS n FROM orders", Priority: Interactive})
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, 30*time.Second, "the preemption request", func() bool {
		return peek(s, func() bool { return victim.suspendRequested })
	})
	return short
}

// takeSlot withholds one slot from the scheduler, busy or not: the next
// slot to free stays empty until release, so a session suspended
// meanwhile stays queued.
func takeSlot(s *Server) (release func()) {
	s.mu.Lock()
	s.free--
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.free++
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// heldVictim stalls a victim under level, preempts it and keeps it held in
// memory: the slot it frees is withheld until release, so the victim and
// the interactive query that preempted it both stay queued.
func heldVictim(t *testing.T, s *Server, stall *stallFS, level riveter.Strategy) (victim, short *Session, release func()) {
	t.Helper()
	victim = stalledVictim(t, s, stall, level)
	short = preemptVictim(t, s, victim)
	release = takeSlot(s)
	stall.release()
	waitCond(t, 30*time.Second, "the victim to be held", func() bool {
		return peek(s, func() bool { return victim.held != nil })
	})
	return victim, short, release
}

// shutdownWhile runs Shutdown (Drain when drain is set) on s and returns
// once it finished, releasing stall after Shutdown has asked the running
// set to suspend: a stalled victim is suspended mid-run by construction.
func shutdownWhile(t *testing.T, s *Server, stall *stallFS, drain bool) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		if drain {
			done <- s.Drain(ctx)
		} else {
			done <- s.Shutdown(ctx)
		}
	}()
	waitCond(t, 30*time.Second, "shutdown to begin", func() bool {
		return peek(s, func() bool { return s.stopping })
	})
	stall.release()
	return <-done
}

// TestPreemptionHoldsInMemory: a preemption frees the victim's slot and
// holds the quiesced execution in memory — whatever PreemptLevel says and
// with or without a blob store, it writes no checkpoint file, no store
// chunk and no lineage seal, and leaves the session no resume point — and
// the victim continues in place to the clean result, dropping the held
// execution when it finishes.
func TestPreemptionHoldsInMemory(t *testing.T) {
	for _, tc := range []struct {
		name  string
		level riveter.Strategy
		store bool
	}{
		{"pipeline", riveter.PipelineLevel, false},
		{"process", riveter.ProcessLevel, false},
		{"lineage", riveter.LineageLevel, false},
		{"store", riveter.PipelineLevel, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stall := newStallFS(false)
			var db *riveter.DB
			if tc.store {
				db = openTPCHStore(t, 0.02, t.TempDir(), riveter.WithFS(stall), riveter.WithTracing())
			} else {
				db = openStallTPCH(t, stall)
			}
			want := runTPCH(t, db, 21)
			s := newServer(t, db, Config{Slots: 1, PreemptLevel: riveter.LineageLevel, InstanceID: "hold"})
			victim, short, release := heldVictim(t, s, stall, tc.level)
			in, _ := s.Info(victim.ID())
			if in.State != StateSuspended || in.Preemptions < 1 || in.resumeWire != (resumeWire{}) {
				t.Errorf("held victim: state %s, %d preemptions, resume point %+v", in.State, in.Preemptions, in.resumeWire)
			}
			files, _ := filepath.Glob(filepath.Join(db.CheckpointDir(), "*"))
			for _, f := range files {
				if !strings.HasSuffix(f, ".rvlg") {
					t.Errorf("the preemption wrote %s", f)
				}
			}
			if st, err := db.BlobStore(); err == nil {
				if keys, _ := st.ListCheckpoints(); len(keys) != 0 {
					t.Errorf("the preemption wrote store checkpoints %v", keys)
				}
			}
			tr := peek(s, func() *obs.Trace { return victim.trace })
			for _, ev := range []string{obs.EvLineageSeal, obs.EvCheckpointPersisted} {
				if _, ok := tr.Find(ev); ok {
					t.Errorf("the preemption recorded %s", ev)
				}
			}

			release()
			ctx := context.Background()
			if _, err := s.Wait(ctx, short.ID()); err != nil {
				t.Fatal(err)
			}
			res, err := s.Wait(ctx, victim.ID())
			if err != nil {
				t.Fatal(err)
			}
			if res.SortedKey() != want.SortedKey() {
				t.Error("held victim's result differs from a clean run")
			}
			if _, ok := tr.Find(obs.EvResumeInPlace); !ok {
				t.Error("the victim did not continue in place")
			}
			if holdsExecution(s, victim) {
				t.Error("a finished session still holds its execution")
			}
		})
	}
}

// TestIdleParkAbandon: a persisted idle park that every rung of the
// ladder fails on is abandoned, and the victim resumes in place. The
// reaper must then leave it alone for AbandonCooldown — not re-park it at
// every tick against the broken device — and the abandoned park must not
// linger: a later preemption of the same execution is held in memory like
// any other, not parked.
func TestIdleParkAbandon(t *testing.T) {
	for _, tc := range []string{"reaper_cooldown", "preempt_holds"} {
		t.Run(tc, func(t *testing.T) {
			stall := newStallFS(false)
			inj := faultfs.New(stall)
			inj.AddFault(faultfs.Fault{Op: faultfs.OpCreate, PathSubstr: "session-"})
			db := openStallTPCH(t, inj)
			want := runTPCH(t, db, 21)
			s := newServer(t, db, Config{
				Slots:           1,
				PreemptLevel:    riveter.LineageLevel,
				IdleSuspend:     5 * time.Millisecond,
				AbandonCooldown: time.Hour,
				CheckpointRetry: riveter.RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
			})
			// Persisted suspensions write process images, which the fault
			// plan refuses: every park is abandoned.
			victim := stalledVictim(t, s, stall, riveter.ProcessLevel)
			waitCond(t, 30*time.Second, "the idle park", func() bool {
				return peek(s, func() bool { return victim.idlePark && victim.suspendRequested })
			})
			select {
			case stall.step <- struct{}{}:
			case <-time.After(30 * time.Second):
				t.Fatal("the victim's first seal is not stalled")
			}
			waitCond(t, 30*time.Second, "the abandoned park", func() bool {
				return peek(s, func() bool { return victim.abandoned > 0 })
			})
			// The victim continued in place; until release, its next breaker
			// seal holds it mid-run again.
			switch tc {
			case "reaper_cooldown":
				// Twenty reaper ticks inside the cooldown: none may park it.
				deadline := time.Now().Add(100 * time.Millisecond)
				for time.Now().Before(deadline) {
					if peek(s, func() bool { return victim.suspendRequested }) {
						t.Fatal("the reaper parked the victim again inside AbandonCooldown")
					}
					time.Sleep(time.Millisecond)
				}
			case "preempt_holds":
				// Preempt it as the scheduler would once the cooldown lapsed.
				s.mu.Lock()
				if !victim.suspendRequested {
					victim.suspendRequested = true
					_ = victim.exec.Suspend(riveter.ProcessLevel)
				}
				s.mu.Unlock()
				// Let it land before anything touches the session: a touch
				// would clear a lingering park flag and hide it.
				stall.release()
				waitCond(t, 30*time.Second, "the preemption to land", func() bool {
					return peek(s, func() bool { return victim.preemptions+victim.abandoned > 1 })
				})
			}
			stall.release()
			res, err := s.Wait(context.Background(), victim.ID())
			if err != nil {
				t.Fatal(err)
			}
			if res.SortedKey() != want.SortedKey() {
				t.Error("result after an abandoned park differs from a clean run")
			}
			in, _ := s.Info(victim.ID())
			wantPreemptions := 0
			if tc == "preempt_holds" {
				wantPreemptions = 1
			}
			if in.Abandoned != 1 || in.Preemptions != wantPreemptions {
				t.Errorf("abandoned %d, preemptions %d; want 1 and %d", in.Abandoned, in.Preemptions, wantPreemptions)
			}
		})
	}
}
