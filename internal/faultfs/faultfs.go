// Package faultfs is an injectable filesystem abstraction for the
// checkpoint persistence path. Production code runs on the passthrough OS
// implementation; tests wrap it in an Injector carrying a deterministic
// fault plan — fail the Nth operation of a kind, return ENOSPC once a byte
// budget is exhausted, tear a write short, or simulate a process crash at
// an exact byte offset (writing stops mid-file and every later operation
// fails, leaving the partial file behind exactly as a dead process would).
//
// The abstraction is deliberately narrow: only the operations the
// checkpoint stack performs (create/open/write/read/sync/rename/remove/
// readdir plus directory fsync) are virtualized, so the fault surface
// matches the real durability protocol one-to-one.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// File is the subset of *os.File the checkpoint stack uses.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
	Stat() (os.FileInfo, error)
}

// FS virtualizes the filesystem operations of the checkpoint durability
// protocol. All implementations must be safe for concurrent use.
type FS interface {
	Create(path string) (File, error)
	// CreateExcl creates a file that must not already exist (O_EXCL): the
	// blob store's claim tokens turn "who resumes this query" into a single
	// atomic filesystem operation. A pre-existing path fails with an error
	// satisfying errors.Is(err, os.ErrExist).
	CreateExcl(path string) (File, error)
	Open(path string) (File, error)
	Rename(oldPath, newPath string) error
	Remove(path string) error
	ReadDir(dir string) ([]os.DirEntry, error)
	// SyncDir fsyncs a directory so a preceding rename survives a crash.
	SyncDir(dir string) error
}

// OS is the passthrough implementation over the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(path string) (File, error) { return os.Create(path) }
func (osFS) CreateExcl(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
}
func (osFS) Open(path string) (File, error)            { return os.Open(path) }
func (osFS) Rename(oldPath, newPath string) error      { return os.Rename(oldPath, newPath) }
func (osFS) Remove(path string) error                  { return os.Remove(path) }
func (osFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Directory fsync is not supported everywhere; unsupported errors are
	// not a durability protocol violation on those platforms.
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return err
	}
	return nil
}

// WriteAtomic is the durability protocol every file the checkpoint stack
// leaves behind is published with: parts are written in order to tmp and
// fsynced, tmp is renamed to path, and path's directory is fsynced — so
// path holds the complete content or is untouched, and a crash leaves at
// most tmp for a sweep to find. On a failure before the rename landed tmp is
// removed (best-effort: a crashed process cannot). A directory-sync failure
// leaves the renamed file in place; writing again is idempotent.
func WriteAtomic(fsys FS, tmp, path string, parts ...[]byte) error {
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	err = writeSync(f, parts)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		if err = fsys.Rename(tmp, path); err != nil {
			err = fmt.Errorf("publish: %w", err)
		}
	}
	if err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	return nil
}

func writeSync(f File, parts [][]byte) error {
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		if _, err := f.Write(p); err != nil {
			return err
		}
	}
	return f.Sync()
}

// Sentinel errors the injector returns. ErrInjected models a transient or
// persistent device fault; ErrNoSpace models ENOSPC; ErrCrashed is returned
// by every operation after a simulated process crash.
var (
	ErrInjected = errors.New("faultfs: injected fault")
	ErrNoSpace  = errors.New("faultfs: no space left on device (injected)")
	ErrCrashed  = errors.New("faultfs: process crashed (injected)")
)

// Op identifies an operation kind for fault matching.
type Op string

// The virtualized operation kinds. OpAny matches every kind.
const (
	OpAny    Op = ""
	OpCreate Op = "create"
	OpOpen   Op = "open"
	OpRead   Op = "read"
	OpWrite  Op = "write"
	OpSync   Op = "sync"
	OpRename Op = "rename"
	OpRemove Op = "remove"
)

// Fault is one deterministic fault rule. A rule fires on operations whose
// kind matches Op and whose path contains PathSubstr, starting at the Nth
// such operation (1-based), for Count firings (0 = forever). Err defaults
// to ErrInjected. Short tears a matched write: half the buffer is written
// before the error returns.
type Fault struct {
	Op         Op
	PathSubstr string
	Nth        int
	Count      int
	Err        error
	Short      bool

	seen  int // matching operations observed
	fired int // failures injected
}

func (f *Fault) errOrDefault() error {
	if f.Err != nil {
		return f.Err
	}
	return ErrInjected
}

// Injector wraps an FS with a mutable fault plan. The zero plan is a pure
// passthrough; arm faults at any time with the fluent helpers. Safe for
// concurrent use.
type Injector struct {
	base FS

	mu         sync.Mutex
	faults     []*Fault
	budget     int64            // remaining writable bytes when budgeted
	budgeted   bool             // WriteBudget armed
	fileBytes  map[string]int64 // bytes charged per path, credited on Remove
	crashAfter int64            // bytes until simulated crash when crashArmed
	crashArmed bool
	crashed    bool
	injected   int // total injected failures (faults, ENOSPC, crash)
	opCounts   map[Op]int
}

// New wraps base (nil = the real OS filesystem) in a fault injector with an
// empty plan.
func New(base FS) *Injector {
	if base == nil {
		base = OS
	}
	return &Injector{base: base, fileBytes: map[string]int64{}, opCounts: map[Op]int{}}
}

// FailNth arms a persistent fault: every matching operation from the Nth on
// fails with err (nil = ErrInjected). Returns the injector for chaining.
func (i *Injector) FailNth(op Op, nth int, err error) *Injector {
	return i.AddFault(Fault{Op: op, Nth: nth, Err: err})
}

// FailTransient arms a transient fault: count matching operations starting
// at the Nth fail, later ones succeed.
func (i *Injector) FailTransient(op Op, nth, count int, err error) *Injector {
	return i.AddFault(Fault{Op: op, Nth: nth, Count: count, Err: err})
}

// AddFault arms an arbitrary fault rule.
func (i *Injector) AddFault(f Fault) *Injector {
	if f.Nth <= 0 {
		f.Nth = 1
	}
	i.mu.Lock()
	i.faults = append(i.faults, &f)
	i.mu.Unlock()
	return i
}

// WriteBudget arms an ENOSPC model: across all files, at most n more bytes
// can be written; a write that does not fit lands partially and returns
// ErrNoSpace. Removing a file credits the bytes it was charged back (the
// space is freed), so cleanup of a failed attempt makes room for a smaller
// retry — exactly the full-disk dynamics the degradation ladder relies on.
func (i *Injector) WriteBudget(n int64) *Injector {
	i.mu.Lock()
	i.budgeted, i.budget = true, n
	i.mu.Unlock()
	return i
}

// CrashAfterBytes arms a crash point: after n more written bytes the
// simulated process dies — the write in flight stops at the exact offset,
// and every subsequent operation (including Remove and Rename, which a dead
// process cannot perform) returns ErrCrashed. Partial files stay on disk
// for the "fresh process" to find.
func (i *Injector) CrashAfterBytes(n int64) *Injector {
	i.mu.Lock()
	i.crashArmed, i.crashAfter, i.crashed = true, n, false
	i.mu.Unlock()
	return i
}

// Reset clears the whole plan — faults, budget, crash state, counters —
// returning the injector to a passthrough.
func (i *Injector) Reset() *Injector {
	i.mu.Lock()
	i.faults = nil
	i.budgeted, i.budget = false, 0
	i.crashArmed, i.crashAfter, i.crashed = false, 0, false
	i.fileBytes = map[string]int64{}
	i.opCounts = map[Op]int{}
	i.injected = 0
	i.mu.Unlock()
	return i
}

// Crashed reports whether the simulated crash point was reached.
func (i *Injector) Crashed() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.crashed
}

// Injected returns the number of failures injected so far.
func (i *Injector) Injected() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.injected
}

// OpCount returns how many operations of the given kind were observed.
func (i *Injector) OpCount(op Op) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.opCounts[op]
}

// check runs the fault plan for one operation. It returns a non-nil error
// when the operation must fail, and for writes the number of bytes to
// apply before failing (teared/short writes).
func (i *Injector) check(op Op, path string, n int) (int, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.opCounts[op]++
	if i.crashed {
		i.injected++
		return 0, ErrCrashed
	}
	for _, f := range i.faults {
		if f.Op != OpAny && f.Op != op {
			continue
		}
		if f.PathSubstr != "" && !strings.Contains(path, f.PathSubstr) {
			continue
		}
		f.seen++
		if f.seen < f.Nth {
			continue
		}
		if f.Count > 0 && f.fired >= f.Count {
			continue
		}
		f.fired++
		i.injected++
		if op == OpWrite && f.Short {
			return n / 2, f.errOrDefault()
		}
		return 0, f.errOrDefault()
	}
	if op == OpWrite {
		if i.crashArmed {
			if int64(n) > i.crashAfter {
				partial := int(i.crashAfter)
				i.crashAfter = 0
				i.crashed = true
				i.injected++
				return partial, ErrCrashed
			}
			i.crashAfter -= int64(n)
		}
		if i.budgeted {
			if int64(n) > i.budget {
				partial := int(i.budget)
				i.budget = 0
				i.injected++
				return partial, ErrNoSpace
			}
			i.budget -= int64(n)
		}
	}
	return n, nil
}

// charge accounts written bytes to a path (for credit-on-remove).
func (i *Injector) charge(path string, n int) {
	if n <= 0 {
		return
	}
	i.mu.Lock()
	i.fileBytes[path] += int64(n)
	i.mu.Unlock()
}

// Create implements FS.
func (i *Injector) Create(path string) (File, error) {
	if _, err := i.check(OpCreate, path, 0); err != nil {
		return nil, fmt.Errorf("create %s: %w", path, err)
	}
	f, err := i.base.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{inj: i, path: path, f: f}, nil
}

// CreateExcl implements FS. Fault rules for OpCreate apply to exclusive
// creates too, so a claim-token write is injectable like any other create.
func (i *Injector) CreateExcl(path string) (File, error) {
	if _, err := i.check(OpCreate, path, 0); err != nil {
		return nil, fmt.Errorf("create-excl %s: %w", path, err)
	}
	f, err := i.base.CreateExcl(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{inj: i, path: path, f: f}, nil
}

// Open implements FS.
func (i *Injector) Open(path string) (File, error) {
	if _, err := i.check(OpOpen, path, 0); err != nil {
		return nil, fmt.Errorf("open %s: %w", path, err)
	}
	f, err := i.base.Open(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{inj: i, path: path, f: f}, nil
}

// Rename implements FS. The byte accounting follows the file to its new
// name so a later Remove credits the right amount.
func (i *Injector) Rename(oldPath, newPath string) error {
	if _, err := i.check(OpRename, oldPath, 0); err != nil {
		return fmt.Errorf("rename %s: %w", oldPath, err)
	}
	if err := i.base.Rename(oldPath, newPath); err != nil {
		return err
	}
	i.mu.Lock()
	if n, ok := i.fileBytes[oldPath]; ok {
		delete(i.fileBytes, oldPath)
		i.fileBytes[newPath] += n
	}
	i.mu.Unlock()
	return nil
}

// Remove implements FS, crediting the removed file's bytes back to the
// write budget.
func (i *Injector) Remove(path string) error {
	if _, err := i.check(OpRemove, path, 0); err != nil {
		return fmt.Errorf("remove %s: %w", path, err)
	}
	if err := i.base.Remove(path); err != nil {
		return err
	}
	i.mu.Lock()
	if n, ok := i.fileBytes[path]; ok {
		delete(i.fileBytes, path)
		if i.budgeted {
			i.budget += n
		}
	}
	i.mu.Unlock()
	return nil
}

// ReadDir implements FS.
func (i *Injector) ReadDir(dir string) ([]os.DirEntry, error) {
	i.mu.Lock()
	crashed := i.crashed
	i.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	return i.base.ReadDir(dir)
}

// SyncDir implements FS.
func (i *Injector) SyncDir(dir string) error {
	if _, err := i.check(OpSync, dir, 0); err != nil {
		return fmt.Errorf("syncdir %s: %w", dir, err)
	}
	return i.base.SyncDir(dir)
}

// faultFile threads reads, writes, and syncs back through the injector.
type faultFile struct {
	inj  *Injector
	path string
	f    File
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if _, err := ff.inj.check(OpRead, ff.path, len(p)); err != nil {
		return 0, err
	}
	return ff.f.Read(p)
}

func (ff *faultFile) Write(p []byte) (int, error) {
	allow, err := ff.inj.check(OpWrite, ff.path, len(p))
	if err != nil {
		if allow > 0 {
			n, werr := ff.f.Write(p[:allow])
			ff.inj.charge(ff.path, n)
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		return 0, err
	}
	n, werr := ff.f.Write(p)
	ff.inj.charge(ff.path, n)
	return n, werr
}

func (ff *faultFile) Sync() error {
	if _, err := ff.inj.check(OpSync, ff.path, 0); err != nil {
		return err
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }

func (ff *faultFile) Stat() (os.FileInfo, error) { return ff.f.Stat() }
