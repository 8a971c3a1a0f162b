// Package blobstore is a content-addressed chunk store for checkpoint
// state, the durability tier that outlives any single instance. A
// checkpoint is split into content-defined chunks (see chunker.go), each
// chunk flate-compressed and stored under the sha256 of its uncompressed
// content; the checkpoint itself becomes a small JSON manifest listing the
// chunk digests in order. Content addressing makes repeated suspensions of
// the same query cheap: unchanged regions of the serialized state hash to
// chunks the store already holds, so only the delta is uploaded.
//
// Backends are pluggable behind the Backend interface: a local directory
// backend rides the same injectable faultfs.FS as the file checkpoint
// stack (fault plans apply to chunk uploads one-to-one), and a simulated
// remote backend wraps any other backend in a cloud.NetProfile's latency
// and bandwidth. Because every stored object lands whole-or-not-at-all
// (tmp+rename locally), a torn upload can never corrupt a chunk in place —
// restores verify each chunk's digest and the manifest's CRC end to end.
//
// The store also carries the coordination state for cross-instance
// migration: per-instance state documents (who was running what) and
// exclusive claim tokens (who gets to resume it), created with O_EXCL
// semantics so two instances can never adopt the same suspended query.
package blobstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/riveterdb/riveter/internal/obs"
)

// Namespace prefixes inside a store. Every object name is
// "<namespace>/<entry>" with the entry free of path separators.
const (
	nsChunks    = "chunks"
	nsManifests = "manifests"
	nsClaims    = "claims"
	nsState     = "state"
)

// Namespaces lists every namespace a backend must provide.
func Namespaces() []string {
	return []string{nsChunks, nsManifests, nsClaims, nsState}
}

// Backend is the raw object interface a Store runs on. Names are
// namespaced ("chunks/<digest>", "manifests/<key>.json", ...); values are
// whole objects — a Put that returns nil has durably stored the complete
// value, and a torn or failed Put leaves the name absent, never truncated.
type Backend interface {
	// Put stores data under name, replacing any existing object. It must
	// not keep data past its return: the caller reuses the buffer.
	Put(name string, data []byte) error
	// PutExcl stores data only if name does not exist; a pre-existing
	// object fails with an error satisfying errors.Is(err, os.ErrExist).
	// This is the store's only coordination primitive (claim tokens).
	PutExcl(name string, data []byte) error
	// Get returns the object's bytes; a missing name fails with an error
	// satisfying errors.Is(err, os.ErrNotExist).
	Get(name string) ([]byte, error)
	// Has reports whether name exists without fetching it.
	Has(name string) (bool, error)
	// List returns the names under a namespace prefix like "chunks/", in
	// unspecified order.
	List(prefix string) ([]string, error)
	// Delete removes an object; deleting a missing name is an error
	// satisfying errors.Is(err, os.ErrNotExist).
	Delete(name string) error
}

// Config assembles a Store.
type Config struct {
	// Backend is the object store to run on (required).
	Backend Backend
	// Chunking bounds the content-defined chunker; zero means defaults.
	Chunking ChunkParams
	// Metrics receives store counters (nil drops them).
	Metrics *obs.Registry
}

// Store layers content-addressed checkpoints, claims, and state documents
// over a Backend. Safe for concurrent use to the extent the backend is;
// the Store itself keeps no mutable state besides resolved metric handles.
type Store struct {
	backend Backend
	params  ChunkParams
	m       storeMetrics
}

// storeMetrics holds handles resolved once at construction so the chunk
// hot path never touches the registry.
type storeMetrics struct {
	puts, gets, dedupHits *obs.Counter
	bytesUp, bytesDown    *obs.Counter
	gcChunks, gcClaims    *obs.Counter
	gcFailed              *obs.Counter
}

// New builds a Store over the backend in cfg.
func New(cfg Config) (*Store, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("blobstore: nil backend")
	}
	r := cfg.Metrics
	return &Store{
		backend: cfg.Backend,
		params:  cfg.Chunking.normalized(),
		m: storeMetrics{
			puts:      r.Counter(obs.MetricBlobPut),
			gets:      r.Counter(obs.MetricBlobGet),
			dedupHits: r.Counter(obs.MetricBlobDedupHit),
			bytesUp:   r.Counter(obs.MetricBlobBytesUploaded),
			bytesDown: r.Counter(obs.MetricBlobBytesDownloaded),
			gcChunks:  r.Counter(obs.MetricBlobGCChunks),
			gcClaims:  r.Counter(obs.MetricBlobGCClaims),
			gcFailed:  r.Counter(obs.MetricBlobGCFailed),
		},
	}, nil
}

// ChunkRef identifies one chunk of a checkpoint: the sha256 of its
// uncompressed content and its uncompressed length.
type ChunkRef struct {
	Digest string `json:"digest"`
	Size   int    `json:"size"`
}

// chunkName maps a digest to its object name.
func chunkName(digest string) string { return nsChunks + "/" + digest }

// shortDigest truncates a digest for trace attributes.
func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// ValidateKey rejects checkpoint keys that cannot safely name objects.
func ValidateKey(key string) error {
	if key == "" {
		return fmt.Errorf("blobstore: empty checkpoint key")
	}
	if strings.ContainsAny(key, "/\\") || key == "." || key == ".." {
		return fmt.Errorf("blobstore: invalid checkpoint key %q", key)
	}
	return nil
}

// manifestName / claimName / docName map keys to object names.
func manifestName(key string) string { return nsManifests + "/" + key + ".json" }
func claimName(key string) string    { return nsClaims + "/" + key + ".json" }
func docName(name string) string     { return nsState + "/" + name + ".json" }

// IsNotExist reports whether err means the object is absent.
func IsNotExist(err error) bool { return errors.Is(err, os.ErrNotExist) }

// IsExist reports whether err means an exclusive create lost the race.
func IsExist(err error) bool { return errors.Is(err, os.ErrExist) }

// PutDoc stores a JSON document in the state namespace (atomic replace).
func (s *Store) PutDoc(name string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("blobstore: encode doc %s: %w", name, err)
	}
	if err := s.backend.Put(docName(name), data); err != nil {
		return fmt.Errorf("blobstore: put doc %s: %w", name, err)
	}
	return nil
}

// GetDoc fetches and decodes a state document; a missing document fails
// with an error satisfying IsNotExist.
func (s *Store) GetDoc(name string, v any) error {
	data, err := s.backend.Get(docName(name))
	if err != nil {
		return fmt.Errorf("blobstore: get doc %s: %w", name, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("blobstore: decode doc %s: %w", name, err)
	}
	return nil
}

// DeleteDoc removes a state document (missing is not an error: deletes
// are the idempotent end of a migration).
func (s *Store) DeleteDoc(name string) error {
	if err := s.backend.Delete(docName(name)); err != nil && !IsNotExist(err) {
		return fmt.Errorf("blobstore: delete doc %s: %w", name, err)
	}
	return nil
}

// ListDocs returns the state-document names (without namespace or .json).
func (s *Store) ListDocs() ([]string, error) {
	names, err := s.backend.List(nsState + "/")
	if err != nil {
		return nil, fmt.Errorf("blobstore: list docs: %w", err)
	}
	out := make([]string, 0, len(names))
	for _, n := range names {
		base := strings.TrimPrefix(n, nsState+"/")
		out = append(out, strings.TrimSuffix(base, ".json"))
	}
	return out, nil
}

// nowUnixNano is stubbed in tests that need deterministic claim stamps.
var nowUnixNano = func() int64 { return time.Now().UnixNano() }
