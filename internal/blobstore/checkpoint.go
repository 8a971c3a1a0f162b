package blobstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strings"
	"time"

	"github.com/riveterdb/riveter/internal/checkpoint"
	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/vector"
)

// StoreManifest describes a store-backed checkpoint: the same metadata a
// file checkpoint carries, plus the ordered chunk list the payload was
// split into and a CRC over the whole payload. The manifest is the
// checkpoint's root object — restores and verifies walk it end to end,
// and a chunk is live exactly when some manifest references its digest.
type StoreManifest struct {
	checkpoint.Manifest
	// PayloadCRC32 covers state and padding in order, the cross-chunk
	// integrity check (per-chunk digests cannot catch a reordered or
	// dropped chunk; the CRC can).
	PayloadCRC32 uint32 `json:"payload_crc32"`
	// Chunks lists the payload's chunks in order.
	Chunks []ChunkRef `json:"chunks"`
}

// WriteResult reports a completed store checkpoint write.
type WriteResult struct {
	Manifest StoreManifest
	// Chunks is the payload's chunk count; DedupHits of those were not
	// uploaded, because the store already held the digest or an earlier
	// chunk of this image had it.
	Chunks    int
	DedupHits int
	// UploadedBytes is what actually crossed the wire: compressed new
	// chunks plus the manifest. With dedup this is the delta, far below
	// TotalBytes for a re-suspension.
	UploadedBytes int64
	// Duration is the upload wall time: chunking, hashing, probing,
	// compressing and putting an image that was already encoded.
	Duration time.Duration
}

// ReadResult reports a completed store checkpoint read.
type ReadResult struct {
	Manifest StoreManifest
	// DownloadedBytes is the compressed bytes fetched (chunks + manifest).
	DownloadedBytes int64
	// Duration is download + decode wall time (the store-backed L_r).
	Duration time.Duration
}

// Bounds a manifest's sizes must respect before anything is allocated
// from them. A chunk is at most maxChunkBytes (the chunker is clamped to
// the same bound, so no writer can produce what a reader refuses) and a
// decoded manifest at most maxManifestBytes (≈ half a million chunk refs);
// the payload as a whole is bounded by checkpoint.Encode and Decode.
const (
	maxChunkBytes    = 64 << 20
	maxManifestBytes = 64 << 20
)

// validate rejects a manifest whose chunk list cannot be trusted: sizes
// non-negative, every chunk between 1 and maxChunkBytes, the chunk sizes
// summing to exactly TotalBytes, every digest 64 lower-case hex digits —
// a chunk name, never a path.
func (sm StoreManifest) validate() error {
	if sm.StateBytes < 0 || sm.PaddingBytes < 0 {
		return fmt.Errorf("negative sizes (state %d, padding %d)", sm.StateBytes, sm.PaddingBytes)
	}
	var sum int64
	for i, ref := range sm.Chunks {
		if ref.Size <= 0 || ref.Size > maxChunkBytes {
			return fmt.Errorf("chunk %d has size %d, outside 1..%d", i, ref.Size, maxChunkBytes)
		}
		if len(ref.Digest) != 2*sha256.Size || strings.Trim(ref.Digest, "0123456789abcdef") != "" {
			return fmt.Errorf("chunk %d has a malformed digest %q", i, shortDigest(ref.Digest))
		}
		sum += int64(ref.Size)
	}
	if sum != sm.TotalBytes() {
		return fmt.Errorf("chunks sum to %d bytes, manifest says %d", sum, sm.TotalBytes())
	}
	return nil
}

// WriteCheckpoint persists an encoded image into the store: its payload
// (state||padding — the zero padding chunks and compresses to almost
// nothing, and dedups across suspensions) is chunked, only the chunks the
// store does not already hold are uploaded, and the manifest is published
// last — a checkpoint becomes visible only once every chunk it references
// is durably stored. The image stays the caller's.
//
// Two runOrdered stages: the cutter feeds the workers chunks to digest,
// and the consumer folds the payload CRC, records the ref and probes the
// store for each digest it has not met in this call; then the chunks found
// missing are compressed by the workers and put by the consumer. A digest
// met before in the call (a process image's zero padding is one chunk
// repeated) is a dedup hit with no probe, compress or put of its own.
func (s *Store) WriteCheckpoint(key string, img *checkpoint.Image, tr *obs.Trace) (*WriteResult, error) {
	if err := ValidateKey(key); err != nil {
		return nil, err
	}
	start := time.Now()
	m, payload := img.Manifest, img.Payload
	m.CreatedUnixNano = nowUnixNano()

	sm := StoreManifest{Manifest: m}
	res := &WriteResult{}
	// Trace attributes are boxed before Event can see a nil trace; with
	// hundreds of chunks per image that is worth a check.
	put := func(ref ChunkRef, compressed int) {
		if tr != nil {
			tr.Event(obs.EvChunkPut,
				obs.A("digest", shortDigest(ref.Digest)), obs.A("size", ref.Size),
				obs.A("compressed", compressed), obs.A("deduped", compressed == 0))
		}
	}
	hit := func(ref ChunkRef) {
		s.m.dedupHits.Inc()
		res.DedupHits++
		put(ref, 0)
	}

	// Stage 1: cut, digest, probe.
	type missingChunk struct {
		ref   ChunkRef
		chunk []byte
	}
	var missing []missingChunk
	seen := map[string]bool{}
	rest, mask := payload, uint64(s.params.Avg-1)
	err := runOrdered(
		func(j *chunkJob) (bool, error) {
			if len(rest) == 0 {
				return false, nil
			}
			n := s.params.cut(rest, mask)
			j.chunk, rest = rest[:n], rest[n:]
			return true, nil
		},
		func(j *chunkJob) { j.sum = sha256.Sum256(j.chunk) },
		func(j *chunkJob) error {
			ref := ChunkRef{Digest: hex.EncodeToString(j.sum[:]), Size: len(j.chunk)}
			sm.Chunks = append(sm.Chunks, ref)
			sm.PayloadCRC32 = crc32.Update(sm.PayloadCRC32, crc32.IEEETable, j.chunk)
			if seen[ref.Digest] {
				hit(ref)
				return nil
			}
			seen[ref.Digest] = true
			has, err := s.backend.Has(chunkName(ref.Digest))
			if err != nil {
				return fmt.Errorf("blobstore: probe chunk %s: %w", shortDigest(ref.Digest), err)
			}
			if has {
				hit(ref)
			} else {
				missing = append(missing, missingChunk{ref, j.chunk})
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	res.Chunks = len(sm.Chunks)

	// Stage 2: compress and put what the store lacks.
	err = runOrdered(
		func(j *chunkJob) (bool, error) {
			if len(missing) == 0 {
				return false, nil
			}
			j.ref, j.chunk = missing[0].ref, missing[0].chunk
			missing = missing[1:]
			return true, nil
		},
		func(j *chunkJob) {
			j.buf = bufPool.Get().(*bytes.Buffer)
			j.buf.Reset()
			if err := compress(j.buf, j.chunk); err != nil {
				j.err = fmt.Errorf("blobstore: compress chunk: %w", err)
			}
			j.packed = j.buf.Bytes()
		},
		func(j *chunkJob) error {
			err := s.backend.Put(chunkName(j.ref.Digest), j.packed)
			bufPool.Put(j.buf)
			if err != nil {
				return fmt.Errorf("blobstore: put chunk %s: %w", shortDigest(j.ref.Digest), err)
			}
			s.m.puts.Inc()
			s.m.bytesUp.Add(int64(len(j.packed)))
			res.UploadedBytes += int64(len(j.packed))
			put(j.ref, len(j.packed))
			return nil
		})
	if err != nil {
		return nil, err
	}

	// The reader's rule, applied by the writer: nothing is published that
	// no reader would accept.
	if err := sm.validate(); err != nil {
		return nil, fmt.Errorf("blobstore: checkpoint %s: %w", key, err)
	}
	mj, err := json.Marshal(sm)
	if err != nil {
		return nil, fmt.Errorf("blobstore: encode manifest: %w", err)
	}
	// Manifests are stored compressed: a chunk list is mostly repeated
	// hex digests, which flate collapses — without this, fine-grained
	// chunking would pay more manifest bytes than it saves in dedup.
	var packed bytes.Buffer
	if err := compress(&packed, mj); err != nil {
		return nil, fmt.Errorf("blobstore: compress manifest: %w", err)
	}
	if err := s.backend.Put(manifestName(key), packed.Bytes()); err != nil {
		return nil, fmt.Errorf("blobstore: put manifest %s: %w", key, err)
	}
	s.m.bytesUp.Add(int64(packed.Len()))
	res.UploadedBytes += int64(packed.Len())
	res.Manifest = sm
	res.Duration = time.Since(start)
	tr.Event(obs.EvStorePersisted,
		obs.A("key", key), obs.A("kind", m.Kind),
		obs.A("chunks", res.Chunks), obs.A("dedup_hits", res.DedupHits),
		obs.A("state_bytes", m.StateBytes), obs.A("uploaded_bytes", res.UploadedBytes),
		obs.A("duration", res.Duration))
	return res, nil
}

// ReadStoreManifest fetches, decodes and validates a checkpoint's
// manifest alone.
func (s *Store) ReadStoreManifest(key string) (StoreManifest, error) {
	var sm StoreManifest
	if err := ValidateKey(key); err != nil {
		return sm, err
	}
	packed, err := s.backend.Get(manifestName(key))
	if err != nil {
		return sm, fmt.Errorf("blobstore: get manifest %s: %w", key, err)
	}
	mj, err := decompress(packed, maxManifestBytes)
	if err != nil {
		return sm, fmt.Errorf("blobstore: manifest %s: %w", key, err)
	}
	if err := json.Unmarshal(mj, &sm); err != nil {
		return sm, fmt.Errorf("blobstore: manifest %s: %w", key, err)
	}
	if err := sm.validate(); err != nil {
		return sm, fmt.Errorf("blobstore: manifest %s: %w", key, err)
	}
	return sm, nil
}

// readPayload walks the chunk list of a manifest ReadStoreManifest has
// validated and reassembles it into payload (sm.TotalBytes() long), every
// chunk verified against its digest and size and the whole against the
// manifest's CRC. It returns the compressed bytes fetched.
//
// One runOrdered stage: the producer fetches each distinct chunk, the
// workers inflate it straight into its offset of the payload buffer and
// check the digest, and the consumer folds the CRC in chunk order. A
// digest met before in the call is copied from its first, already
// verified occurrence instead of being fetched and inflated again.
func (s *Store) readPayload(sm StoreManifest, payload []byte, tr *obs.Trace) (int64, error) {
	var (
		downloaded int64
		crc        uint32
		refs, rest = sm.Chunks, payload
		first      = make(map[string][]byte, len(refs)) // digest → its first occurrence in payload
	)
	err := runOrdered(
		func(j *chunkJob) (bool, error) {
			if len(refs) == 0 {
				return false, nil
			}
			j.ref, refs = refs[0], refs[1:]
			j.chunk, rest = rest[:j.ref.Size], rest[j.ref.Size:]
			if prev, ok := first[j.ref.Digest]; ok {
				if len(prev) != j.ref.Size {
					return false, fmt.Errorf("chunk %s listed with sizes %d and %d", shortDigest(j.ref.Digest), len(prev), j.ref.Size)
				}
				j.repeat = prev
				return true, nil
			}
			first[j.ref.Digest] = j.chunk
			if _, err := hex.Decode(j.sum[:], []byte(j.ref.Digest)); err != nil {
				return false, fmt.Errorf("chunk digest %q: %w", shortDigest(j.ref.Digest), err)
			}
			packed, err := s.backend.Get(chunkName(j.ref.Digest))
			if err != nil {
				return false, fmt.Errorf("get chunk %s: %w", shortDigest(j.ref.Digest), err)
			}
			j.packed = packed
			return true, nil
		},
		func(j *chunkJob) {
			if err := inflateInto(j.chunk, j.packed); err != nil {
				j.err = fmt.Errorf("chunk %s: %w", shortDigest(j.ref.Digest), err)
			} else if got := sha256.Sum256(j.chunk); got != j.sum {
				j.err = fmt.Errorf("chunk %s: content digest mismatch (%s)",
					shortDigest(j.ref.Digest), shortDigest(hex.EncodeToString(got[:])))
			}
		},
		func(j *chunkJob) error {
			if j.repeat != nil {
				copy(j.chunk, j.repeat)
			} else {
				s.m.gets.Inc()
				s.m.bytesDown.Add(int64(len(j.packed)))
				downloaded += int64(len(j.packed))
			}
			crc = crc32.Update(crc, crc32.IEEETable, j.chunk)
			if tr != nil {
				tr.Event(obs.EvChunkGet,
					obs.A("digest", shortDigest(j.ref.Digest)), obs.A("size", j.ref.Size),
					obs.A("compressed", len(j.packed)))
			}
			return nil
		})
	if err != nil {
		return downloaded, err
	}
	if crc != sm.PayloadCRC32 {
		return downloaded, fmt.Errorf("payload checksum mismatch")
	}
	return downloaded, nil
}

// ReadCheckpoint restores a checkpoint: the manifest is walked, every
// chunk fetched and verified into one pooled payload (checkpoint.Decode,
// which bounds the payload before allocating it), and load — nil to only
// verify — is invoked with a decoder over the reassembled state.
func (s *Store) ReadCheckpoint(key string, load func(*vector.Decoder) error, tr *obs.Trace) (*ReadResult, error) {
	start := time.Now()
	sm, err := s.ReadStoreManifest(key)
	if err != nil {
		return nil, err
	}
	res := &ReadResult{Manifest: sm}
	err = checkpoint.Decode(sm.Manifest, func(payload []byte) (err error) {
		res.DownloadedBytes, err = s.readPayload(sm, payload, tr)
		return err
	}, load)
	if err != nil {
		return nil, fmt.Errorf("blobstore: checkpoint %s: %w", key, err)
	}
	res.Duration = time.Since(start)
	tr.Event(obs.EvStoreRestore,
		obs.A("key", key), obs.A("kind", sm.Kind), obs.A("chunks", len(sm.Chunks)),
		obs.A("state_bytes", sm.StateBytes), obs.A("downloaded_bytes", res.DownloadedBytes),
		obs.A("duration", res.Duration))
	return res, nil
}

// VerifyCheckpoint walks a checkpoint end to end — manifest, every chunk
// digest and size, payload length and CRC — without deserializing the
// state. A nil error means a restore will find a complete, intact image.
func (s *Store) VerifyCheckpoint(key string) (StoreManifest, error) {
	res, err := s.ReadCheckpoint(key, nil, nil)
	if err != nil {
		return StoreManifest{}, err
	}
	return res.Manifest, nil
}

// ListCheckpoints returns the keys of every stored checkpoint.
func (s *Store) ListCheckpoints() ([]string, error) {
	names, err := s.backend.List(nsManifests + "/")
	if err != nil {
		return nil, fmt.Errorf("blobstore: list checkpoints: %w", err)
	}
	keys := make([]string, 0, len(names))
	for _, n := range names {
		base := n[len(nsManifests)+1:]
		if len(base) > len(".json") && base[len(base)-len(".json"):] == ".json" {
			keys = append(keys, base[:len(base)-len(".json")])
		}
	}
	return keys, nil
}

// DeleteCheckpoint removes a checkpoint's manifest. Chunks are shared
// across checkpoints and are never deleted inline — GC reclaims the ones
// no surviving manifest references.
func (s *Store) DeleteCheckpoint(key string) error {
	if err := ValidateKey(key); err != nil {
		return err
	}
	if err := s.backend.Delete(manifestName(key)); err != nil && !IsNotExist(err) {
		return fmt.Errorf("blobstore: delete checkpoint %s: %w", key, err)
	}
	return nil
}
