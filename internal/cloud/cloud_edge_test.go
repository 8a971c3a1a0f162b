package cloud

import (
	"math/rand"
	"testing"
	"time"
)

// TestSampleWindowBoundaries: a certain termination always lands inside
// the inclusive window, a degenerate window collapses to Start, and a
// zero probability never fires.
func TestSampleWindowBoundaries(t *testing.T) {
	m := TerminationModel{Probability: 1, Start: 100 * time.Millisecond, End: 200 * time.Millisecond}
	rng := rand.New(rand.NewSource(42))
	sawStart, sawEnd := false, false
	for i := 0; i < 5000; i++ {
		at, ok := m.Sample(rng)
		if !ok {
			t.Fatal("P=1 sample did not terminate")
		}
		if at < m.Start || at > m.End {
			t.Fatalf("sample %v outside [%v, %v]", at, m.Start, m.End)
		}
		if at == m.Start {
			sawStart = true
		}
		if at == m.End {
			sawEnd = true
		}
	}
	// The window is inclusive on both ends: rand.Int63n(span+1) can land
	// on either boundary. At nanosecond resolution single instants are
	// unreachable in 5000 draws, so check a coarse window instead.
	coarse := TerminationModel{Probability: 1, Start: 0, End: 3}
	sawStart, sawEnd = false, false
	for i := 0; i < 5000; i++ {
		at, _ := coarse.Sample(rng)
		sawStart = sawStart || at == coarse.Start
		sawEnd = sawEnd || at == coarse.End
	}
	if !sawStart || !sawEnd {
		t.Fatalf("inclusive boundaries never sampled: start=%v end=%v", sawStart, sawEnd)
	}

	degenerate := TerminationModel{Probability: 1, Start: 70 * time.Millisecond, End: 70 * time.Millisecond}
	for i := 0; i < 100; i++ {
		if at, ok := degenerate.Sample(rng); !ok || at != degenerate.Start {
			t.Fatalf("degenerate window sample = %v, %v", at, ok)
		}
	}

	never := TerminationModel{Probability: 0, Start: 0, End: time.Second}
	for i := 0; i < 1000; i++ {
		if _, ok := never.Sample(rng); ok {
			t.Fatal("P=0 sample terminated")
		}
	}
}

// TestSampleDeterministicUnderSeed: two rngs with the same seed draw
// identical termination sequences — the property the spot driver's
// reproducible simulations rest on.
func TestSampleDeterministicUnderSeed(t *testing.T) {
	m := TerminationModel{Probability: 0.5, Start: time.Second, End: 10 * time.Second}
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		atA, okA := m.Sample(a)
		atB, okB := m.Sample(b)
		if atA != atB || okA != okB {
			t.Fatalf("draw %d diverged: (%v,%v) vs (%v,%v)", i, atA, okA, atB, okB)
		}
	}
}

// TestInstanceStateBoundaries: the notice fires NoticeLead before
// ReclaimAt, clamped at zero, and a non-terminating instance never
// terminates.
func TestInstanceStateBoundaries(t *testing.T) {
	m := TerminationModel{Probability: 1, Start: 100 * time.Millisecond, End: 100 * time.Millisecond}
	inst := NewInstance(m, rand.New(rand.NewSource(1)), 30*time.Millisecond)
	if !inst.WillTerminate() || inst.ReclaimAt() != 100*time.Millisecond {
		t.Fatalf("instance = terminate %v at %v", inst.WillTerminate(), inst.ReclaimAt())
	}
	if got := inst.NoticeAt(); got != 70*time.Millisecond {
		t.Fatalf("notice at %v, want 70ms", got)
	}

	// A notice lead longer than the instance's whole life clamps to 0:
	// the notice fires immediately, never at a negative time.
	eager := NewInstance(m, rand.New(rand.NewSource(1)), time.Minute)
	if got := eager.NoticeAt(); got != 0 {
		t.Fatalf("clamped notice at %v, want 0", got)
	}

	forever := NewInstance(TerminationModel{Probability: 0}, rand.New(rand.NewSource(1)), time.Second)
	if forever.WillTerminate() {
		t.Fatal("P=0 instance terminates")
	}
}

// TestNetProfileZeroAndShaped: the zero profile is an infinitely fast
// link with no special-casing, and a shaped profile prices transfers at
// its configured bandwidth.
func TestNetProfileZeroAndShaped(t *testing.T) {
	var zero NetProfile
	if !zero.Zero() {
		t.Fatal("zero-value profile not Zero()")
	}
	if d := zero.UploadDelay(1 << 30); d != 0 {
		t.Fatalf("zero profile upload delay = %v", d)
	}
	if d := zero.DownloadDelay(1 << 30); d != 0 {
		t.Fatalf("zero profile download delay = %v", d)
	}

	shaped := NetProfile{
		Latency:             5 * time.Millisecond,
		UploadBytesPerSec:   1 << 20,
		DownloadBytesPerSec: 2 << 20,
	}
	if shaped.Zero() {
		t.Fatal("shaped profile reports Zero()")
	}
	if d := shaped.UploadDelay(1 << 20); d != time.Second {
		t.Fatalf("1MiB upload at 1MiB/s = %v, want 1s", d)
	}
	if d := shaped.DownloadDelay(1 << 20); d != 500*time.Millisecond {
		t.Fatalf("1MiB download at 2MiB/s = %v, want 500ms", d)
	}
	// Non-positive sizes cost nothing — no negative or NaN durations.
	if d := shaped.UploadDelay(0); d != 0 {
		t.Fatalf("0-byte upload = %v", d)
	}
	if d := shaped.DownloadDelay(-1); d != 0 {
		t.Fatalf("negative download = %v", d)
	}
}
