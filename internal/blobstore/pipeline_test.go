package blobstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/riveterdb/riveter/internal/checkpoint"
	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/vector"
)

// digestOf returns the hex sha256 of data, the name a chunk is stored under.
func digestOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// memBackend is a map-backed Backend that logs the operations it sees, for
// tests that count or order backend calls and for the fuzz target.
type memBackend struct {
	mu      sync.Mutex
	objects map[string][]byte
	ops     []string // "HAS name", "PUT name", "GET name", in call order
	failPut func(name string) error
}

func newMemBackend() *memBackend { return &memBackend{objects: map[string][]byte{}} }

func (b *memBackend) log(op, name string) {
	b.ops = append(b.ops, op+" "+name)
}

func (b *memBackend) Put(name string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.log("PUT", name)
	if b.failPut != nil {
		if err := b.failPut(name); err != nil {
			return err
		}
	}
	b.objects[name] = append([]byte(nil), data...)
	return nil
}

func (b *memBackend) PutExcl(name string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.objects[name]; ok {
		return os.ErrExist
	}
	b.objects[name] = append([]byte(nil), data...)
	return nil
}

func (b *memBackend) Get(name string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.log("GET", name)
	data, ok := b.objects[name]
	if !ok {
		return nil, os.ErrNotExist
	}
	return append([]byte(nil), data...), nil
}

func (b *memBackend) Has(name string) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.log("HAS", name)
	_, ok := b.objects[name]
	return ok, nil
}

func (b *memBackend) List(prefix string) ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for name := range b.objects {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	return out, nil
}

func (b *memBackend) Delete(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.objects[name]; !ok {
		return os.ErrNotExist
	}
	delete(b.objects, name)
	return nil
}

// chunkOps returns the logged operations of one kind on chunk objects.
func (b *memBackend) chunkOps(op string) []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for _, o := range b.ops {
		if strings.HasPrefix(o, op+" "+nsChunks+"/") {
			out = append(out, strings.TrimPrefix(o, op+" "+nsChunks+"/"))
		}
	}
	return out
}

// putManifest stores a hand-made manifest the way writePayload would.
func putManifest(t testing.TB, be Backend, key string, manifestJSON []byte) {
	t.Helper()
	var packed bytes.Buffer
	if err := compress(&packed, manifestJSON); err != nil {
		t.Fatal(err)
	}
	if err := be.Put(manifestName(key), packed.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestHostileManifestsRejected proves a manifest's sizes are validated
// before anything is allocated from them: each of these used to panic in
// make, ask for terabytes, or silently accept an inconsistent chunk list.
func TestHostileManifestsRejected(t *testing.T) {
	be := newMemBackend()
	st, err := New(Config{Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	good := writeBlob(t, st, "good", randBytes(70, 20_000), 0).Manifest
	d0, d1 := good.Chunks[0].Digest, good.Chunks[1].Digest
	cases := []struct {
		name, manifest string
	}{
		{"negative chunk size", fmt.Sprintf(`{"state_bytes":10,"chunks":[{"digest":%q,"size":-1}]}`, d0)},
		{"zero chunk size", fmt.Sprintf(`{"state_bytes":0,"chunks":[{"digest":%q,"size":0}]}`, d0)},
		{"terabyte chunk", fmt.Sprintf(`{"state_bytes":%d,"chunks":[{"digest":%q,"size":%d}]}`, int64(1)<<40, d0, int64(1)<<40)},
		{"chunk over the bound", fmt.Sprintf(`{"state_bytes":%d,"chunks":[{"digest":%q,"size":%d}]}`, maxChunkBytes+1, d0, maxChunkBytes+1)},
		{"huge padding", fmt.Sprintf(`{"state_bytes":%d,"padding_bytes":%d,"chunks":[{"digest":%q,"size":%d}]}`, good.Chunks[0].Size, int64(1)<<50, d0, good.Chunks[0].Size)},
		{"padding overflowing int64", fmt.Sprintf(`{"state_bytes":9223372036854775807,"padding_bytes":9223372036854775807,"chunks":[]}`)},
		{"negative state", `{"state_bytes":-5,"padding_bytes":5,"chunks":[]}`},
		{"sizes short of the total", fmt.Sprintf(`{"state_bytes":%d,"chunks":[{"digest":%q,"size":%d}]}`, good.Chunks[0].Size+7, d0, good.Chunks[0].Size)},
		{"sizes past the total", fmt.Sprintf(`{"state_bytes":1,"chunks":[{"digest":%q,"size":%d}]}`, d0, good.Chunks[0].Size)},
		{"digest that is a path", `{"state_bytes":4,"chunks":[{"digest":"../manifests/good.json","size":4}]}`},
		{"digest of the wrong length", `{"state_bytes":4,"chunks":[{"digest":"abcd","size":4}]}`},
		{"one digest, two sizes", fmt.Sprintf(`{"state_bytes":%d,"chunks":[{"digest":%q,"size":%d},{"digest":%q,"size":%d}]}`,
			2*good.Chunks[0].Size-1, d0, good.Chunks[0].Size, d0, good.Chunks[0].Size-1)},
		{"chunk smaller than it says", fmt.Sprintf(`{"state_bytes":%d,"chunks":[{"digest":%q,"size":%d}]}`, good.Chunks[1].Size+1, d1, good.Chunks[1].Size+1)},
		{"chunk larger than it says", fmt.Sprintf(`{"state_bytes":%d,"chunks":[{"digest":%q,"size":%d}]}`, good.Chunks[1].Size-1, d1, good.Chunks[1].Size-1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			putManifest(t, be, "hostile", []byte(c.manifest))
			if _, err := st.VerifyCheckpoint("hostile"); err == nil {
				t.Error("verify accepted the manifest")
			}
			_, err := st.ReadCheckpoint("hostile", func(*vector.Decoder) error { return nil }, nil)
			if err == nil {
				t.Error("read accepted the manifest")
			}
		})
	}
	// The store is none the worse: the good checkpoint still restores.
	if _, err := st.VerifyCheckpoint("good"); err != nil {
		t.Fatal(err)
	}
}

// TestWriteRejectsInconsistentImage proves the writer applies the reader's
// rule, so it cannot publish what no reader would accept: a hand-made image
// whose manifest disagrees with its payload is refused. (The payload bound
// itself is checkpoint.Encode's, tested there.)
func TestWriteRejectsInconsistentImage(t *testing.T) {
	st, _ := newTestStore(t, nil, nil)
	for _, m := range []checkpoint.Manifest{
		{Kind: "process", StateBytes: 5, PaddingBytes: 7},
		{Kind: "process", StateBytes: -1, PaddingBytes: 6},
		{Kind: "process", StateBytes: 4},
	} {
		if _, err := st.WriteCheckpoint("k", &checkpoint.Image{Manifest: m, Payload: []byte("state")}, nil); err == nil {
			t.Errorf("image with manifest sizes %d+%d over a 5-byte payload accepted", m.StateBytes, m.PaddingBytes)
		}
	}
	if ok, _ := st.backend.Has(manifestName("k")); ok {
		t.Fatal("a refused write published a manifest")
	}
}

// FuzzReadCheckpoint mutates the two things a restore trusts — the
// manifest's JSON and a stored chunk's bytes — and requires that a restore
// either fails cleanly or returns exactly the state that was written. The
// seed corpus (testdata/fuzz/FuzzReadCheckpoint) holds the hostile
// manifests above and truncated, bit-flipped and trailing-garbage chunks.
// The workers' scheduling makes coverage vary from run to run, so fuzz
// with -fuzzminimizetime 1x or the engine spends its time minimizing.
func FuzzReadCheckpoint(f *testing.F) {
	fixedClock(f)
	state := mixedBytes(105, 3_000)
	build := func(t testing.TB) (*Store, *memBackend, []byte, string) {
		be := newMemBackend()
		st, err := New(Config{Backend: be, Chunking: ChunkParams{Min: 256, Avg: 1024, Max: 4096}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := writeSaved(st, "k", checkpoint.Manifest{Kind: "process"}, func(enc *vector.Encoder) error {
			enc.String(string(state))
			return enc.Err()
		}, 9_000, nil)
		if err != nil {
			t.Fatal(err)
		}
		mj, err := json.Marshal(res.Manifest)
		if err != nil {
			t.Fatal(err)
		}
		return st, be, mj, chunkName(res.Manifest.Chunks[0].Digest)
	}
	_, be, mj, first := build(f)
	f.Add(mj, be.objects[first])

	f.Fuzz(func(t *testing.T, manifest, chunk []byte) {
		st, be, mj, first := build(t)
		putManifest(t, be, "k", manifest)
		be.objects[first] = chunk
		var got []byte
		_, rerr := st.ReadCheckpoint("k", func(dec *vector.Decoder) error {
			got = []byte(dec.String())
			return dec.Err()
		}, nil)
		if _, verr := st.VerifyCheckpoint("k"); rerr == nil && verr != nil {
			t.Fatalf("read succeeded where verify fails: %v", verr)
		}
		if rerr == nil && bytes.Equal(manifest, mj) && !bytes.Equal(got, state) {
			t.Fatal("restore under the original manifest returned different state")
		}
	})
}

// TestPaddedImageHandlesDistinctChunksOnce is the repeat rule's count: a
// 5.7 MB process image (state plus zero padding that cuts into one chunk
// repeated ~85 times) costs one probe and one put per distinct digest on
// write and one get per distinct digest on read, all in chunk order.
func TestPaddedImageHandlesDistinctChunksOnce(t *testing.T) {
	be := newMemBackend()
	reg := obs.NewRegistry()
	st, err := New(Config{Backend: be, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	state := mixedBytes(106, 212_337)
	res := writeBlob(t, st, "img", state, 5_500_768)
	var order []string // distinct digests in first-occurrence order
	seen := map[string]bool{}
	for _, ref := range res.Manifest.Chunks {
		if !seen[ref.Digest] {
			seen[ref.Digest] = true
			order = append(order, ref.Digest)
		}
	}
	if repeats := res.Chunks - len(order); repeats < 50 {
		t.Fatalf("test setup: only %d repeated chunks of %d", repeats, res.Chunks)
	}
	if got := be.chunkOps("HAS"); strings.Join(got, ",") != strings.Join(order, ",") {
		t.Fatalf("%d probes for %d distinct chunks, or out of chunk order", len(got), len(order))
	}
	if got := be.chunkOps("PUT"); strings.Join(got, ",") != strings.Join(order, ",") {
		t.Fatalf("%d puts for %d distinct chunks, or out of chunk order", len(got), len(order))
	}
	if res.DedupHits != res.Chunks-len(order) {
		t.Fatalf("dedup hits %d, want the %d repeats", res.DedupHits, res.Chunks-len(order))
	}
	if last := be.ops[len(be.ops)-1]; last != "PUT "+manifestName("img") {
		t.Fatalf("last operation %q, want the manifest put", last)
	}

	if got, _ := readBlob(t, st, "img"); !bytes.Equal(got, state) {
		t.Fatal("restored state differs")
	}
	if got := be.chunkOps("GET"); strings.Join(got, ",") != strings.Join(order, ",") {
		t.Fatalf("%d gets for %d distinct chunks, or out of chunk order", len(got), len(order))
	}
	snap := reg.Snapshot()
	if n := snap.Counters[obs.MetricBlobPut]; n != int64(len(order)) {
		t.Fatalf("blobstore.put = %d, want %d", n, len(order))
	}
	if n := snap.Counters[obs.MetricBlobGet]; n != int64(len(order)) {
		t.Fatalf("blobstore.get = %d, want %d", n, len(order))
	}
}

// TestConcurrentOverlappingCheckpoints has eight goroutines write images
// that share most of their content to distinct keys of one store and read
// them back: concurrent calls share the codec and buffer pools and race to
// put the same digests, and none may see another's bytes.
func TestConcurrentOverlappingCheckpoints(t *testing.T) {
	st, _ := newTestStore(t, nil, nil)
	shared := mixedBytes(107, 120_000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("g%d", g)
			state := append(append([]byte(nil), shared...), randBytes(int64(200+g), 5_000+g*1_000)...)
			m := checkpoint.Manifest{Kind: "process", Query: key}
			for round := 0; round < 3; round++ {
				if _, err := st.WriteCheckpointBytes(key, m, state, int64(40_000+g), nil); err != nil {
					t.Errorf("%s: write: %v", key, err)
					return
				}
				sm, err := st.VerifyCheckpoint(key)
				if err != nil {
					t.Errorf("%s: verify: %v", key, err)
					return
				}
				payload, err := payloadOf(st, sm)
				if err != nil {
					t.Errorf("%s: read: %v", key, err)
					return
				}
				if !bytes.Equal(payload[:len(state)], state) || !bytes.Equal(payload[len(state):], make([]byte, 40_000+g)) {
					t.Errorf("%s: round %d restored another image's bytes", key, round)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// settledGoroutines waits for the goroutine count to come back to base
// (exited goroutines are reaped asynchronously) and returns the last count.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > base; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestPipelineErrorStopsStage proves the first error — from a worker, the
// producer or the consumer — ends the stage: no later job is consumed,
// queued jobs are not worked, and every worker has exited by the return.
func TestPipelineErrorStopsStage(t *testing.T) {
	boom := errors.New("boom")
	for _, failAt := range []string{"work", "next", "consume"} {
		t.Run(failAt, func(t *testing.T) {
			base := runtime.NumGoroutine()
			var produced, consumed int
			err := runOrdered(
				func(j *chunkJob) (bool, error) {
					if failAt == "next" && produced == 5 {
						return false, boom
					}
					j.ref.Size = produced
					produced++
					return produced <= 1000, nil
				},
				func(j *chunkJob) {
					if failAt == "work" && j.ref.Size == 5 {
						j.err = boom
					}
				},
				func(j *chunkJob) error {
					if j.ref.Size != consumed {
						t.Errorf("consumed job %d at position %d", j.ref.Size, consumed)
					}
					consumed++
					if failAt == "consume" && j.ref.Size == 5 {
						return boom
					}
					return nil
				})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v", err)
			}
			if consumed > 6 {
				t.Fatalf("%d jobs consumed after the failure at job 5", consumed)
			}
			if produced > 5+2*pipelineWidth()+1 {
				t.Fatalf("%d jobs produced: the stage ran on past the failure", produced)
			}
			if n := settledGoroutines(base); n > base {
				t.Fatalf("%d goroutines after the stage, %d before", n, base)
			}
		})
	}
}

// TestFailedCallsPublishNothingAndLeakNothing runs the store-level failure
// of each direction — a put failing mid-image, a chunk corrupted under a
// restore — and checks no manifest appears, the error surfaces, and the
// worker goroutines are gone.
func TestFailedCallsPublishNothingAndLeakNothing(t *testing.T) {
	be := newMemBackend()
	st, err := New(Config{Backend: be, Chunking: testChunking})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	puts := 0
	be.failPut = func(string) error {
		if puts++; puts == 7 {
			return errors.New("injected put failure")
		}
		return nil
	}
	state := randBytes(71, 60_000)
	if _, err := st.WriteCheckpointBytes("k", checkpoint.Manifest{}, state, 0, nil); err == nil {
		t.Fatal("write survived a failed put")
	}
	if ok, _ := st.backend.Has(manifestName("k")); ok {
		t.Fatal("manifest published after a failed chunk put")
	}
	if got := len(be.chunkOps("PUT")); got != 7 {
		t.Fatalf("%d chunk puts issued, want to stop at the 7th", got)
	}

	be.failPut = nil
	res, err := st.WriteCheckpointBytes("k", checkpoint.Manifest{}, state, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := chunkName(res.Manifest.Chunks[len(res.Manifest.Chunks)/2].Digest)
	be.objects[victim][len(be.objects[victim])/2] ^= 0x40
	if _, err := st.VerifyCheckpoint("k"); err == nil {
		t.Fatal("verify passed over a corrupt chunk")
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after the failed calls, %d before", n, base)
	}
}

// referenceCut is the cutter as first written — one byte per step, no
// zero-run stepping — kept as the definition cut must agree with.
func referenceCut(p ChunkParams, data []byte, mask uint64) int {
	n := len(data)
	if n <= p.Min {
		return n
	}
	limit := p.Max
	if n < limit {
		limit = n
	}
	var h uint64
	start := p.Min - 64
	if start < 0 {
		start = 0
	}
	for i := start; i < p.Min; i++ {
		h = (h << 1) + gearTable[data[i]]
	}
	for i := p.Min; i < limit; i++ {
		h = (h << 1) + gearTable[data[i]]
		if h&mask == 0 {
			return i + 1
		}
	}
	return limit
}

// TestCutMatchesReference proves stepping over zero words moves no
// boundary: on data dense with zero runs of every length and alignment,
// and at masks from 6 to 16 bits, cut agrees with the byte-at-a-time
// definition at every chunk.
func TestCutMatchesReference(t *testing.T) {
	inputs := [][]byte{
		make([]byte, 300_000),
		mixedBytes(108, 400_000),
		append(randBytes(109, 70_000), make([]byte, 200_000)...),
	}
	// Zero runs of every length 1..40 at every alignment, between noise.
	var runs []byte
	noise := randBytes(110, 64)
	for n := 1; n <= 40; n++ {
		for shift := 0; shift < 8; shift++ {
			runs = append(runs, noise[:9+shift]...)
			runs = append(runs, make([]byte, n)...)
		}
	}
	inputs = append(inputs, runs)
	for _, p := range []ChunkParams{
		{Min: 64, Avg: 64, Max: 256},
		{Min: 64, Avg: 256, Max: 1024},
		{Min: 100, Avg: 1024, Max: 5000},
		DefaultChunkParams(),
		{Min: 1 << 10, Avg: 1 << 16, Max: 1 << 18},
	} {
		p = p.normalized()
		mask := uint64(p.Avg - 1)
		for i, data := range inputs {
			for off := 0; len(data) > 0; {
				got, want := p.cut(data, mask), referenceCut(p, data, mask)
				if got != want {
					t.Fatalf("params %+v input %d offset %d: cut %d, reference %d", p, i, off, got, want)
				}
				data, off = data[got:], off+got
			}
		}
	}
}
