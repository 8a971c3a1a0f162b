// Package cloud simulates the ephemeral-resource environment the paper
// targets: probabilistic termination events within a time window (spot
// reclamation / zero-carbon energy shortages, §III-C and §IV-B), spot price
// traces, and a simple instance lifecycle used by the examples.
package cloud

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// TerminationModel is the paper's evaluation setup: with probability P a
// termination occurs; its instant is uniform within the window [Start, End]
// (cumulative 1% at Ts to 100% at Te, which a uniform CDF over the window
// reproduces).
type TerminationModel struct {
	// Probability is P_T in [0, 1].
	Probability float64
	// Start and End bound the termination window, measured from query start.
	Start, End time.Duration
}

// WindowFromFractions builds a window given the query's expected total
// runtime and the paper's X-Y% notation.
func WindowFromFractions(total time.Duration, startFrac, endFrac float64) (time.Duration, time.Duration) {
	return time.Duration(float64(total) * startFrac), time.Duration(float64(total) * endFrac)
}

// Validate checks the model's parameters.
func (m TerminationModel) Validate() error {
	if m.Probability < 0 || m.Probability > 1 {
		return fmt.Errorf("cloud: probability %v out of [0,1]", m.Probability)
	}
	if m.End < m.Start || m.Start < 0 {
		return fmt.Errorf("cloud: bad window [%v, %v]", m.Start, m.End)
	}
	return nil
}

// Sample draws one termination event. ok reports whether a termination
// occurs; at is its instant from query start.
func (m TerminationModel) Sample(rng *rand.Rand) (at time.Duration, ok bool) {
	if rng.Float64() >= m.Probability {
		return 0, false
	}
	span := m.End - m.Start
	if span <= 0 {
		return m.Start, true
	}
	return m.Start + time.Duration(rng.Int63n(int64(span)+1)), true
}

// SpotPriceTrace generates a synthetic spot-market price series: a base
// price modulated by a daily sinusoid, load spikes, and noise. The paper
// cites surges of 200-400x the normal rate during peak demand.
type SpotPriceTrace struct {
	Base       float64       // normal price per unit time
	SpikeProb  float64       // probability a step enters a spike
	SpikeScale float64       // spike multiplier (e.g. 200-400)
	Step       time.Duration // trace resolution
	rng        *rand.Rand

	inSpike   int // remaining spike steps
	spikeMult float64
	t         time.Duration
}

// NewSpotPriceTrace builds a trace with the paper's surge characteristics.
func NewSpotPriceTrace(base float64, seed int64, step time.Duration) *SpotPriceTrace {
	return &SpotPriceTrace{
		Base:       base,
		SpikeProb:  0.02,
		SpikeScale: 300,
		Step:       step,
		rng:        rand.New(rand.NewSource(seed)),
	}
}

// Next returns the next (time, price) sample.
func (s *SpotPriceTrace) Next() (time.Duration, float64) {
	t := s.t
	s.t += s.Step
	// Daily sinusoid: +-30% around base.
	day := float64(24 * time.Hour)
	season := 1 + 0.3*math.Sin(2*math.Pi*float64(t)/day)
	price := s.Base * season * (0.95 + 0.1*s.rng.Float64())
	if s.inSpike > 0 {
		s.inSpike--
		return t, price * s.spikeMult
	}
	if s.rng.Float64() < s.SpikeProb {
		s.inSpike = 1 + s.rng.Intn(5)
		s.spikeMult = s.SpikeScale * (0.7 + 0.6*s.rng.Float64())
		return t, price * s.spikeMult
	}
	return t, price
}

// NetProfile characterizes the simulated network link between an instance
// and a remote blob store: a fixed per-operation round-trip latency plus
// direction-dependent bandwidth. The zero profile is an infinitely fast
// link (every delay is zero), so a local-speed store needs no special case.
type NetProfile struct {
	// Latency is the per-operation round-trip time (control plane: every
	// put/get/list/delete pays it once).
	Latency time.Duration
	// UploadBytesPerSec and DownloadBytesPerSec bound the data plane.
	// Zero means unbounded.
	UploadBytesPerSec   int64
	DownloadBytesPerSec int64
}

// UploadDelay returns the simulated transfer time for uploading n bytes
// (latency excluded; callers add Latency once per operation).
func (p NetProfile) UploadDelay(n int) time.Duration {
	if p.UploadBytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(p.UploadBytesPerSec) * float64(time.Second))
}

// DownloadDelay returns the simulated transfer time for downloading n bytes.
func (p NetProfile) DownloadDelay(n int) time.Duration {
	if p.DownloadBytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(p.DownloadBytesPerSec) * float64(time.Second))
}

// Zero reports whether the profile models an instantaneous link.
func (p NetProfile) Zero() bool {
	return p.Latency == 0 && p.UploadBytesPerSec == 0 && p.DownloadBytesPerSec == 0
}

// Instance simulates a spot instance with a reclamation notice, mirroring
// providers that alert users "when their spot instances are at risk of
// imminent termination".
type Instance struct {
	// NoticeLead is how far in advance the reclamation notice fires.
	NoticeLead time.Duration

	reclaimAt  time.Duration
	terminates bool
}

// NewInstance creates an instance whose reclamation is sampled from the
// termination model.
func NewInstance(m TerminationModel, rng *rand.Rand, noticeLead time.Duration) *Instance {
	at, ok := m.Sample(rng)
	return &Instance{NoticeLead: noticeLead, reclaimAt: at, terminates: ok}
}

// WillTerminate reports whether this instance gets reclaimed at all.
func (i *Instance) WillTerminate() bool { return i.terminates }

// ReclaimAt returns the reclamation instant (valid if WillTerminate).
func (i *Instance) ReclaimAt() time.Duration { return i.reclaimAt }

// NoticeAt returns when the advance notice fires (clamped at 0).
func (i *Instance) NoticeAt() time.Duration {
	n := i.reclaimAt - i.NoticeLead
	if n < 0 {
		n = 0
	}
	return n
}
