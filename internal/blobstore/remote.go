package blobstore

import (
	"time"

	"github.com/riveterdb/riveter/internal/cloud"
)

// Remote simulates a cloud object store: it delegates storage to an inner
// Backend (normally a Local rooted in a shared directory) and charges each
// operation the configured cloud.NetProfile — one round-trip latency per
// call plus bandwidth-proportional transfer time on the data plane. The
// cost model calibrates its upload terms against exactly these delays, so
// a suspension decision under a slow simulated link prices store
// persistence the way a real S3-backed deployment would.
//
// The sleep function is injectable so tests can assert charged delays
// without waiting them out.
type Remote struct {
	inner Backend
	net   cloud.NetProfile
	sleep func(time.Duration)
}

// NewRemote wraps inner with the given network profile. A zero profile
// makes Remote a passthrough.
func NewRemote(inner Backend, net cloud.NetProfile) *Remote {
	return &Remote{inner: inner, net: net, sleep: time.Sleep}
}

// delay charges one operation's simulated network time.
func (r *Remote) delay(d time.Duration) {
	if d > 0 {
		r.sleep(d)
	}
}

// Put implements Backend, charging latency plus upload bandwidth.
func (r *Remote) Put(name string, data []byte) error {
	r.delay(r.net.Latency + r.net.UploadDelay(len(data)))
	return r.inner.Put(name, data)
}

// PutExcl implements Backend, charging like Put.
func (r *Remote) PutExcl(name string, data []byte) error {
	r.delay(r.net.Latency + r.net.UploadDelay(len(data)))
	return r.inner.PutExcl(name, data)
}

// Get implements Backend, charging latency plus download bandwidth for
// the bytes actually returned.
func (r *Remote) Get(name string) ([]byte, error) {
	data, err := r.inner.Get(name)
	if err != nil {
		r.delay(r.net.Latency)
		return nil, err
	}
	r.delay(r.net.Latency + r.net.DownloadDelay(len(data)))
	return data, nil
}

// Has implements Backend, charging one control-plane round trip.
func (r *Remote) Has(name string) (bool, error) {
	r.delay(r.net.Latency)
	return r.inner.Has(name)
}

// List implements Backend, charging one control-plane round trip.
func (r *Remote) List(prefix string) ([]string, error) {
	r.delay(r.net.Latency)
	return r.inner.List(prefix)
}

// Delete implements Backend, charging one control-plane round trip.
func (r *Remote) Delete(name string) error {
	r.delay(r.net.Latency)
	return r.inner.Delete(name)
}
