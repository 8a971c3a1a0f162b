package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
)

// Env records where a run happened, so two reports can be told apart
// before their numbers are compared.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
	// Workers is the engine worker count and the cap on client goroutines
	// and connections in flight: nproc.
	Workers int `json:"workers"`
	// TmpDir is where checkpoints, stores and lineage logs were written;
	// FlushPolicy says what a flush there costs.
	TmpDir      string `json:"tmp_dir"`
	FlushPolicy string `json:"flush_policy"`
}

func (e Env) String() string {
	return fmt.Sprintf("%s GOMAXPROCS=%d nproc=%d workers=%d commit=%s tmp=%s flush=%q",
		e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.Workers, e.Commit, e.TmpDir, e.FlushPolicy)
}

func captureEnv(tmpBase string, workers int) Env {
	return Env{
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Commit:      commitID(),
		Workers:     workers,
		TmpDir:      tmpBase,
		FlushPolicy: flushPolicy,
	}
}

// commitID names the code under test: the git HEAD found at or above the
// working directory, or "unknown" (the driver's checkouts are not
// repositories).
func commitID() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		if head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD")); err == nil {
			return resolveHead(filepath.Join(dir, ".git"), strings.TrimSpace(string(head)))
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

// resolveHead turns the contents of .git/HEAD into a commit id, following
// a symbolic ref through its loose file or packed-refs.
func resolveHead(gitDir, head string) string {
	name, symbolic := strings.CutPrefix(head, "ref: ")
	if !symbolic {
		return head
	}
	if sha, err := os.ReadFile(filepath.Join(gitDir, name)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	if packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, ok := strings.CutSuffix(line, " "+name); ok {
				return sha
			}
		}
	}
	return name
}

// runDir creates a fresh directory for one set-up under base. The paths of
// everything a workload persists — checkpoints, blob store, lineage logs,
// server state — lie below it (the files themselves live in a memFS, the
// directories the program creates are real), and tearDown removes it.
func runDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", fmt.Errorf("create tmp base: %w", err)
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", fmt.Errorf("create run dir: %w", err)
	}
	return dir, nil
}

// heapLiveAfterGC collects garbage and reads what stayed live. It stops
// the world, so it belongs outside anything timed.
func heapLiveAfterGC() uint64 {
	runtime.GC()
	return readMetric("/gc/heap/live:bytes")
}

// heapAllocBytes reads the cumulative bytes allocated on the heap without
// stopping the world, so it can bracket a measured phase cheaply.
func heapAllocBytes() uint64 { return readMetric("/gc/heap/allocs:bytes") }

func readMetric(name string) uint64 {
	sample := []metrics.Sample{{Name: name}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}
