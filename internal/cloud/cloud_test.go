package cloud

import (
	"math/rand"
	"testing"
	"time"
)

func TestTerminationModelValidate(t *testing.T) {
	good := TerminationModel{Probability: 0.5, Start: time.Second, End: 2 * time.Second}
	if err := good.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	bad := []TerminationModel{
		{Probability: -0.1, Start: 0, End: time.Second},
		{Probability: 1.5, Start: 0, End: time.Second},
		{Probability: 0.5, Start: 2 * time.Second, End: time.Second},
		{Probability: 0.5, Start: -time.Second, End: time.Second},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestSampleProbabilityAndWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := TerminationModel{Probability: 0.3, Start: 100 * time.Millisecond, End: 200 * time.Millisecond}
	var hits int
	const n = 20000
	for i := 0; i < n; i++ {
		at, ok := m.Sample(rng)
		if !ok {
			continue
		}
		hits++
		if at < m.Start || at > m.End {
			t.Fatalf("termination at %v outside window", at)
		}
	}
	frac := float64(hits) / n
	if frac < 0.28 || frac > 0.32 {
		t.Errorf("termination fraction = %v, want about 0.3", frac)
	}

	certain := TerminationModel{Probability: 1, Start: 0, End: 0}
	if at, ok := certain.Sample(rng); !ok || at != 0 {
		t.Errorf("degenerate window sample = %v, %v", at, ok)
	}
	never := TerminationModel{Probability: 0, Start: 0, End: time.Second}
	for i := 0; i < 100; i++ {
		if _, ok := never.Sample(rng); ok {
			t.Fatal("P=0 must never terminate")
		}
	}
}

func TestSampleUniformWithinWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := TerminationModel{Probability: 1, Start: 0, End: 1000 * time.Millisecond}
	var buckets [4]int
	const n = 40000
	for i := 0; i < n; i++ {
		at, ok := m.Sample(rng)
		if !ok {
			t.Fatal("P=1 must terminate")
		}
		b := int(at * 4 / (1000*time.Millisecond + 1))
		buckets[b]++
	}
	for i, c := range buckets {
		frac := float64(c) / n
		if frac < 0.22 || frac > 0.28 {
			t.Errorf("bucket %d fraction = %v, want about 0.25 (uniform CDF)", i, frac)
		}
	}
}

func TestWindowFromFractions(t *testing.T) {
	s, e := WindowFromFractions(100*time.Second, 0.25, 0.5)
	if s != 25*time.Second || e != 50*time.Second {
		t.Errorf("window = [%v, %v]", s, e)
	}
}

func TestSpotPriceTrace(t *testing.T) {
	trace := NewSpotPriceTrace(1.0, 3, time.Minute)
	var maxMult float64
	var prev time.Duration = -1
	for i := 0; i < 5000; i++ {
		ts, price := trace.Next()
		if ts <= prev && i > 0 {
			t.Fatal("trace time must advance")
		}
		prev = ts
		if price <= 0 {
			t.Fatalf("price %v must be positive", price)
		}
		if price > maxMult {
			maxMult = price
		}
	}
	// The paper cites 200-400x surges; the trace must produce spikes.
	if maxMult < 100 {
		t.Errorf("max price %v; expected surge spikes above 100x base", maxMult)
	}
}

func TestInstanceLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := TerminationModel{Probability: 1, Start: time.Second, End: 2 * time.Second}
	inst := NewInstance(m, rng, 200*time.Millisecond)
	if !inst.WillTerminate() {
		t.Fatal("P=1 instance must terminate")
	}
	if inst.NoticeAt() != inst.ReclaimAt()-200*time.Millisecond {
		t.Error("notice lead wrong")
	}

	never := NewInstance(TerminationModel{Probability: 0, Start: 0, End: time.Second}, rng, 0)
	if never.WillTerminate() {
		t.Error("P=0 instance must run forever")
	}
	early := &Instance{NoticeLead: time.Hour, reclaimAt: time.Second, terminates: true}
	if early.NoticeAt() != 0 {
		t.Error("notice must clamp at 0")
	}
}
