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
		return peek(s, func() bool { return victim.suspendIssued })
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
		return peek(s, func() bool { return victim.state == StateSuspended && victim.exec != nil })
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

// TestFailedParkIsHeld: an idle park that no rung of the ladder can
// persist is held and re-queued, not parked — Health counts it live
// (suspended, then running), so the fleet never reclaims the only copy of
// the query — it writes nothing, and the victim continues in place to the
// clean result. The reaper leaves the re-dispatch alone for a full
// IdleSuspend window, and the failed park leaves no park flag behind: a
// later preemption of the same execution is held like any other.
func TestFailedParkIsHeld(t *testing.T) {
	const idle = 200 * time.Millisecond
	for _, tc := range []struct {
		name        string
		preemptions int
	}{
		{"reaper", 0},
		{"preempt_holds", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stall := newStallFS(false)
			inj := faultfs.New(stall)
			inj.AddFault(faultfs.Fault{Op: faultfs.OpCreate, PathSubstr: "session-"})
			db := openStallTPCH(t, inj)
			want := runTPCH(t, db, 21)
			s := newServer(t, db, Config{
				Slots:           1,
				PreemptLevel:    riveter.LineageLevel,
				IdleSuspend:     idle,
				CheckpointRetry: riveter.RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
			})
			// Persisted suspensions write process images, which the fault
			// plan refuses: every park fails.
			victim := stalledVictim(t, s, stall, riveter.ProcessLevel)
			waitCond(t, 30*time.Second, "the idle park", func() bool {
				return peek(s, func() bool { return victim.idlePark && victim.suspendIssued })
			})
			// Withhold the slot the park frees, so the held victim stays
			// queued until Health has been read.
			release := takeSlot(s)
			select {
			case stall.step <- struct{}{}:
			case <-time.After(30 * time.Second):
				t.Fatal("the victim's first seal is not stalled")
			}
			waitCond(t, 30*time.Second, "the failed park", func() bool {
				return peek(s, func() bool { return victim.abandoned > 0 })
			})
			if h := s.Health(); h.Suspended != 1 || h.Parked != 0 || h.Running != 0 {
				t.Errorf("health after the failed park = %+v, want one suspended and none parked", h)
			}
			if peek(s, func() bool { return victim.parked || victim.exec == nil }) {
				t.Error("the failed park is parked, or does not hold its execution")
			}
			files, _ := filepath.Glob(filepath.Join(db.CheckpointDir(), "*"))
			for _, f := range files {
				if !strings.HasSuffix(f, ".rvlg") {
					t.Errorf("the failed park left %s", f)
				}
			}
			release()
			waitCond(t, 30*time.Second, "the re-dispatch", func() bool {
				return s.Health().Running == 1 && peek(s, func() bool { return victim.exec != nil })
			})
			// The victim continued in place; until release, its next breaker
			// seal holds it mid-run again.
			started := peek(s, func() time.Time { return victim.started })
			switch tc.name {
			case "reaper":
				for time.Since(started) < idle*3/4 {
					if peek(s, func() bool { return victim.suspendIssued }) {
						t.Fatalf("the reaper asked again %v after the re-dispatch, inside IdleSuspend", time.Since(started))
					}
					time.Sleep(time.Millisecond)
				}
			case "preempt_holds":
				// Preempt it as the scheduler would.
				s.mu.Lock()
				victim.suspendIssued = true
				_ = victim.exec.Suspend(riveter.ProcessLevel)
				s.mu.Unlock()
				// Let it land before anything touches the session: a touch
				// would clear a lingering park flag and hide it.
				stall.release()
				waitCond(t, 30*time.Second, "the preemption to land", func() bool {
					return peek(s, func() bool { return victim.preemptions+victim.abandoned > 1 })
				})
			}
			// A touch restarts the idle clock, so the reaper leaves the
			// victim be until the Wait below watches it.
			s.Info(victim.ID())
			stall.release()
			res, err := s.Wait(context.Background(), victim.ID())
			if err != nil {
				t.Fatal(err)
			}
			if res.SortedKey() != want.SortedKey() {
				t.Error("result after a failed park differs from a clean run")
			}
			if tr := peek(s, func() *obs.Trace { return victim.trace }); tr == nil {
				t.Error("no trace")
			} else if _, ok := tr.Find(obs.EvResumeInPlace); !ok {
				t.Error("the failed park did not continue in place")
			}
			in, _ := s.Info(victim.ID())
			if in.Abandoned != 1 || in.Preemptions != tc.preemptions {
				t.Errorf("abandoned %d, preemptions %d; want 1 and %d", in.Abandoned, in.Preemptions, tc.preemptions)
			}
			c := db.Metrics().Snapshot().Counters
			if c["server.preempt_abandoned"] != 1 || c["server.preemptions"] != int64(tc.preemptions) {
				t.Errorf("server.preempt_abandoned %d, server.preemptions %d; want 1 and %d",
					c["server.preempt_abandoned"], c["server.preemptions"], tc.preemptions)
			}
		})
	}
}

// TestShutdownPersistsEveryHeldSession: Shutdown persists its held
// sessions concurrently, each to its own resume point, and a restart
// resumes every one of them to the clean result.
func TestShutdownPersistsEveryHeldSession(t *testing.T) {
	stall := newStallFS(false)
	db := openStallTPCH(t, stall)
	want := runTPCH(t, db, 21)
	s, err := New(Config{DB: db, Slots: 2, PreemptLevel: riveter.LineageLevel})
	if err != nil {
		t.Fatal(err)
	}
	// The second victim needs a lineage log to stall, so the level drops
	// to process only once both run; the persists then write files.
	victims := []*Session{
		stalledVictim(t, s, stall, riveter.LineageLevel),
		stalledVictim(t, s, stall, riveter.ProcessLevel),
	}
	for _, v := range victims {
		preemptVictim(t, s, v)
	}
	takeSlot(s)
	takeSlot(s)
	stall.release()
	waitCond(t, 30*time.Second, "both victims to be held", func() bool {
		return peek(s, func() bool {
			for _, v := range victims {
				if v.state != StateSuspended || v.exec == nil {
					return false
				}
			}
			return true
		})
	})
	if err := shutdownWhile(t, s, stall, false); err != nil {
		t.Fatal(err)
	}
	points := map[string]bool{}
	for _, v := range victims {
		in, _ := s.Info(v.ID())
		points[in.Checkpoint] = true
	}
	if len(points) != 2 || points[""] {
		t.Fatalf("held victims persisted to %v, want two distinct checkpoints", points)
	}
	s2 := newServer(t, db, Config{Slots: 2})
	for _, v := range victims {
		res, err := s2.Wait(context.Background(), v.ID())
		if err != nil {
			t.Fatal(err)
		}
		if res.SortedKey() != want.SortedKey() {
			t.Errorf("%s resumed to a result that differs from a clean run", v.ID())
		}
	}
}

// gateFS blocks every create of a session checkpoint until open closes,
// closing entered when the first one blocks: a persist held in flight.
type gateFS struct {
	faultfs.FS
	entered, open chan struct{}
	once          sync.Once
}

func (g *gateFS) Create(path string) (faultfs.File, error) {
	if strings.Contains(path, "session-") {
		g.once.Do(func() { close(g.entered) })
		<-g.open
	}
	return g.FS.Create(path)
}

// TestSecondShutdownWaitsForFirst: a Drain or Shutdown arriving while
// another is still persisting blocks until the first is done — or until
// its own ctx expires — and returns the first call's error, so "blocks
// until in-flight work has quiesced" holds for every caller.
func TestSecondShutdownWaitsForFirst(t *testing.T) {
	stall := newStallFS(false)
	gate := &gateFS{FS: stall, entered: make(chan struct{}), open: make(chan struct{})}
	db := openStallTPCH(t, gate)
	s, err := New(Config{DB: db, Slots: 1, PreemptLevel: riveter.LineageLevel})
	if err != nil {
		t.Fatal(err)
	}
	victim, _, _ := heldVictim(t, s, stall, riveter.ProcessLevel)
	first := make(chan error, 1)
	go func() { first <- s.Shutdown(context.Background()) }()
	select {
	case <-gate.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("the held victim's persist never started")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a drain during the shutdown's persist = %v, want it to wait out its own deadline", err)
	}
	close(gate.open)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("a shutdown after the first = %v", err)
	}
	// It returned once the first was done: the held victim is persisted.
	if in, _ := s.Info(victim.ID()); in.Checkpoint == "" {
		t.Errorf("a second shutdown returned before the held victim was persisted: %+v", in)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
}
