package costmodel

import (
	"time"

	"github.com/riveterdb/riveter/internal/obs"
)

// LineageProfile characterizes the write-ahead lineage log for the cost
// model: how fast tiny records append to it. The seal cost is latency plus
// tail bytes over bandwidth. CalibrateDir measures both against the
// directory the log will live in, and Publish shows them as
// costmodel.lineage.* gauges, so /metrics shows what Algorithm 1 prices
// lineage suspensions from.
type LineageProfile struct {
	// AppendLatency is the fixed cost of one small fsynced append — the
	// floor of a seal, no matter how short the tail.
	AppendLatency time.Duration
	// LogBytesPerSec is the sustained append bandwidth of the log device.
	LogBytesPerSec float64
}

// DefaultLineageProfile is a conservative local-SSD profile used when
// calibration fails.
func DefaultLineageProfile() LineageProfile {
	return LineageProfile{
		AppendLatency:  500 * time.Microsecond,
		LogBytesPerSec: 200 << 20,
	}
}

// SealLatency estimates the cost of sealing a log whose unsealed tail is
// the given size: one fsynced append plus the tail's transfer time.
func (l LineageProfile) SealLatency(tailBytes int64) time.Duration {
	d := l.AppendLatency
	if l.LogBytesPerSec > 0 {
		d += time.Duration(float64(tailBytes) / l.LogBytesPerSec * float64(time.Second))
	}
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

// Publish surfaces the calibrated lineage profile as gauges, mirroring
// IOProfile.Publish: costmodel.lineage.append_latency_ns and
// costmodel.lineage.log_bytes_per_sec.
func (l LineageProfile) Publish(r *obs.Registry) {
	r.Gauge(obs.MetricLineageAppendLatency).Set(int64(l.AppendLatency))
	r.Gauge(obs.MetricLineageLogBps).Set(int64(l.LogBytesPerSec))
}
