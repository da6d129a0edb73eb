// Package store is the storage engine behind the sweep service: it
// persists evaluated sweep points in a content-addressed,
// crash-tolerant result store, so every design point is computed once
// per (scenario, point, budget, seed, engine version) no matter how
// many sweeps, CLI runs or service jobs ask for it.
//
// The engine is layered:
//
//   - The segment layer (segment.go) owns append-only JSON-lines files
//     named seg-NNNNNN.jsonl. Each line is one entry
//     {"key": "<hex sha-256>", "engine": N, "record": {...}}; the key
//     is sweep.PointKey of the inputs and the record is the evaluated
//     sweep.Record. The active segment rotates once it passes the size
//     limit; a torn final line — the signature of a crash mid-append —
//     is skipped on replay, so a store survives its writer.
//   - The index layer (index.go) maps key → (segment, offset, length)
//     and is persisted atomically on clean Close, so reopening a large
//     store reads one compact index file instead of replaying every
//     segment. Records fault in from their segment on first Get and
//     stay resident, bounding reopen cost by the index size and memory
//     by the working set. A Put writes its line and keeps no decoded
//     copy, so a store that is mostly written pins no records. A
//     missing or stale index rebuilds from the segments, which remain
//     the single source of truth.
//   - Compaction (compact.go) rewrites the segments, dropping entries
//     whose engine version no longer matches sweep.EngineVersion and
//     shadowed duplicate keys, with crash-safe swap semantics: at
//     every instant an Open of the directory yields a correct store.
//   - Sharding (sharded.go) routes keys by their leading hex byte
//     across N independent Stores with independent locks, so
//     concurrent jobs stop contending on one mutex.
//
// Store and Sharded both implement sweep.Cache; plug one into
// sweep.Config.Cache and a rerun of any scenario reuses every
// already-computed point.
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// DefaultSegmentBytes bounds a segment file before rotation.
const DefaultSegmentBytes = 8 << 20

// entry is one persisted line: a content address, the engine version
// that computed it, and the record. Engine is omitted when zero so
// segments written before engine stamping replay unchanged; Compact
// treats such legacy entries as current (dropping them could discard
// an entire pre-upgrade store that is still perfectly servable).
type entry struct {
	Key    string          `json:"key"`
	Engine int             `json:"engine,omitempty"`
	Record json.RawMessage `json:"record"`
}

// Options tunes a Store.
type Options struct {
	// SegmentBytes rotates the active segment once it grows past this
	// size (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// Metrics, when non-nil, registers the engine's metric families
	// (sweep_store_*) on the registry and times every Get, Put and
	// compaction. Nil keeps the hot path entirely free of clock reads —
	// observation is strictly opt-in.
	Metrics *obs.Registry
}

// Stats is a point-in-time counter snapshot. For a Sharded store the
// aggregate sums every shard and Shards reports the fan-out.
type Stats struct {
	Entries     int   `json:"entries"`      // distinct keys in the index
	Segments    int   `json:"segments"`     // segment files on disk
	Shards      int   `json:"shards"`       // independent stores behind this one
	Hits        int64 `json:"hits"`         // Get calls that found their key
	Misses      int64 `json:"misses"`       // Get calls that did not
	Puts        int64 `json:"puts"`         // Put calls that appended a new entry
	Replayed    int   `json:"replayed"`     // entries recovered by segment replay on Open
	IndexLoaded int   `json:"index_loaded"` // entries loaded from the persisted index on Open
	Skipped     int   `json:"skipped"`      // malformed lines ignored by Open
}

// HitRate returns the fraction of Get calls served from the store, or
// 0 before the first lookup.
func (s Stats) HitRate() float64 {
	if lookups := s.Hits + s.Misses; lookups > 0 {
		return float64(s.Hits) / float64(lookups)
	}
	return 0
}

// Store is a single-shard content-addressed result store. It is safe
// for concurrent use by any number of goroutines; Sharded spreads that
// concurrency across independent Stores.
type Store struct {
	dir      string
	segLimit int64
	met      *storeMetrics // nil unless Options.Metrics was set

	hits, misses, puts atomic.Int64

	mu          sync.RWMutex
	index       map[string]*indexEntry
	segs        map[int]int64 // segment seq -> current size on disk
	readers     map[int]*os.File
	active      *os.File
	activeSize  int64
	activeSeq   int
	replayed    int
	indexLoaded int
	skipped     int
	indexDirty  bool
	closed      bool
	writeErr    error

	// compactFail, when non-nil, is a test failpoint invoked between
	// compaction stages to simulate a crash mid-swap.
	compactFail func(stage string) error
}

// Open creates or reopens the store rooted at dir with default options.
func Open(dir string) (*Store, error) { return OpenOptions(dir, Options{}) }

// OpenOptions creates or reopens the store rooted at dir. When the
// persisted index covers the segments on disk, Open loads it and
// replays only bytes appended after it was written (zero after a clean
// Close); otherwise it rebuilds the index by replaying every segment.
func OpenOptions(dir string, o Options) (*Store, error) {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		segLimit: o.SegmentBytes,
		index:    make(map[string]*indexEntry),
		readers:  make(map[int]*os.File),
	}
	if o.Metrics != nil {
		s.met = newStoreMetrics(o.Metrics)
	}
	seqs, sizes, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	s.segs = sizes

	idx, err := readIndexFile(dir)
	if err != nil {
		return nil, err
	}
	var covered map[int]int64
	if idx != nil {
		var ok bool
		if covered, ok = s.loadIndex(idx, sizes); !ok {
			// Stale index: forget everything it loaded and rebuild.
			s.index = make(map[string]*indexEntry)
			s.indexLoaded = 0
			covered = nil
		}
	}
	for _, seq := range seqs {
		from := covered[seq] // zero for uncovered segments: full replay
		if from >= sizes[seq] {
			continue
		}
		if err := s.replay(seq, from); err != nil {
			return nil, err
		}
		s.indexDirty = true
	}

	if len(seqs) > 0 {
		last := seqs[len(seqs)-1]
		s.activeSeq = last
		if sizes[last] < s.segLimit {
			if err := s.openActive(last, sizes[last]); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// replay loads one segment's entries (from the byte offset from) into
// the index, recording their locations. Later entries shadow earlier
// ones — last write wins — which is what makes an interrupted
// compaction harmless: the rewritten copies live in higher segments.
func (s *Store) replay(seq int, from int64) error {
	skipped, err := scanSegment(filepath.Join(s.dir, segName(seq)), from, func(e entry, off, n int64) {
		s.index[e.Key] = &indexEntry{seg: seq, off: off, length: n, engine: e.Engine}
		s.replayed++
	})
	s.skipped += skipped
	return err
}

// openActive opens segment seq for appending and repairs a torn tail:
// a crash mid-append leaves the segment without a final newline, so
// terminate it to keep the next entry on its own line instead of
// merging into the garbage.
func (s *Store) openActive(seq int, size int64) error {
	f, err := os.OpenFile(filepath.Join(s.dir, segName(seq)), os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.active = f
	s.activeSize = size
	if size > 0 {
		tail := make([]byte, 1)
		if _, err := f.ReadAt(tail, size-1); err != nil {
			f.Close()
			s.active = nil
			return fmt.Errorf("store: %w", err)
		}
		if tail[0] != '\n' {
			n, err := f.Write([]byte{'\n'})
			if err != nil {
				f.Close()
				s.active = nil
				return fmt.Errorf("store: %w", err)
			}
			s.activeSize += int64(n)
			s.segs[seq] = s.activeSize
			s.indexDirty = true
		}
	}
	return nil
}

// Get returns the record stored under key, faulting it in from its
// segment on first access. It implements sweep.Cache.
func (s *Store) Get(key string) (sweep.Record, bool) {
	if s.met != nil {
		start := time.Now()
		rec, ok := s.get(key)
		s.met.observeGet(time.Since(start), ok)
		return rec, ok
	}
	return s.get(key)
}

func (s *Store) get(key string) (sweep.Record, bool) {
	s.mu.RLock()
	e, ok := s.index[key]
	var rec sweep.Record
	resident := false
	if ok && e.rec != nil {
		rec = *e.rec
		resident = true
	}
	s.mu.RUnlock()
	if !ok {
		s.misses.Add(1)
		return sweep.Record{}, false
	}
	if resident {
		s.hits.Add(1)
		return rec, true
	}
	rec, ok = s.fault(key)
	if !ok {
		s.misses.Add(1)
		return sweep.Record{}, false
	}
	s.hits.Add(1)
	return rec, true
}

// fault reads a non-resident entry's line from its segment, decodes
// the record and caches it. A line that cannot be read back — torn by
// a concurrent crash, or clobbered by manual surgery — deletes the
// entry so the caller's recompute can be stored in its place.
func (s *Store) fault(key string) (sweep.Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[key]
	if !ok {
		return sweep.Record{}, false
	}
	if e.rec != nil {
		return *e.rec, true
	}
	line, err := s.readLineLocked(e)
	var ent entry
	if err == nil {
		err = json.Unmarshal(line, &ent)
	}
	var rec sweep.Record
	if err == nil && ent.Key == key {
		err = json.Unmarshal(ent.Record, &rec)
	} else if err == nil {
		err = fmt.Errorf("store: entry at seg %d off %d holds key %s, want %s", e.seg, e.off, ent.Key, key)
	}
	if err != nil {
		delete(s.index, key)
		s.skipped++
		return sweep.Record{}, false
	}
	e.rec = &rec
	return rec, true
}

// readLineLocked reads the raw bytes of one entry line (without the
// trailing newline). Callers hold s.mu.
func (s *Store) readLineLocked(e *indexEntry) ([]byte, error) {
	r, err := s.readerLocked(e.seg)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, e.length)
	if _, err := r.ReadAt(buf, e.off); err != nil {
		return nil, err
	}
	if buf[len(buf)-1] != '\n' {
		return nil, fmt.Errorf("store: entry at seg %d off %d is not newline-terminated", e.seg, e.off)
	}
	return buf[:len(buf)-1], nil
}

// readerLocked returns a cached read handle for segment seq.
func (s *Store) readerLocked(seq int) (*os.File, error) {
	if r, ok := s.readers[seq]; ok {
		return r, nil
	}
	r, err := os.Open(filepath.Join(s.dir, segName(seq)))
	if err != nil {
		return nil, err
	}
	s.readers[seq] = r
	return r, nil
}

// Put appends the record under key, deduplicating: a key already in the
// index is left untouched, so re-putting an identical point is free and
// writes nothing to disk. The distributed worker tier leans on this: a
// chunk completed twice — once under an expired lease, once by its
// re-lease — is persisted exactly once, because both completions carry
// the same content-addressed keys. Put implements sweep.Cache.
// A written record is not kept in memory: the first Get faults it in
// from its segment, exactly as after a reopen. Persistence errors
// cannot be surfaced through the Cache interface; the entry then stays
// served from memory — as does one put into a closed store — and the
// error is reported by the next Close.
func (s *Store) Put(key string, rec sweep.Record) {
	if s.met != nil {
		start := time.Now()
		if s.put(key, rec) {
			s.met.puts.Inc()
		}
		s.met.putSeconds.Observe(time.Since(start).Seconds())
		return
	}
	s.put(key, rec)
}

// put appends the record, reporting whether a new entry was added
// (false on dedup).
func (s *Store) put(key string, rec sweep.Record) bool {
	// Dedup before encoding anything: a warm sweep re-puts every cached
	// point, and marshaling records only to discard them under the lock
	// was the dominant allocation in the sweep-warm-store profile. The
	// pre-check races with concurrent putters of the same key, so the
	// insert below re-checks under the write lock.
	s.mu.RLock()
	_, dup := s.index[key]
	s.mu.RUnlock()
	if dup {
		return false
	}
	// Encode outside the lock: encoding is the expensive part of a
	// Put, and holding the mutex across it would serialize every sweep
	// worker behind one encoder. The columnar record writer emits the
	// exact bytes the old json.Marshal(entry{...}) pair produced —
	// segment_test pins that — in a single buffer instead of two
	// reflective marshals.
	line := make([]byte, 0, 512)
	line = append(line, `{"key":`...)
	line = sweep.AppendJSONString(line, key)
	if sweep.EngineVersion != 0 {
		line = append(line, `,"engine":`...)
		line = strconv.AppendInt(line, int64(sweep.EngineVersion), 10)
	}
	line = append(line, `,"record":`...)
	var merr error
	if line, merr = sweep.AppendRecordJSON(line, rec); merr == nil {
		line = append(line, '}', '\n')
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.index[key]; dup {
		return false
	}
	e := &indexEntry{engine: sweep.EngineVersion, rec: &rec}
	s.index[key] = e
	s.puts.Add(1)
	s.indexDirty = true
	if s.closed {
		return true
	}
	if merr != nil {
		s.writeErr = merr
		return true
	}
	if s.active == nil || s.activeSize >= s.segLimit {
		if err := s.rotateLocked(); err != nil {
			s.writeErr = err
			return true
		}
	}
	e.seg, e.off, e.length = s.activeSeq, s.activeSize, int64(len(line))
	n, err := s.active.Write(line)
	s.activeSize += int64(n)
	s.segs[s.activeSeq] = s.activeSize
	if err != nil {
		s.writeErr = err
		return true
	}
	// The segment line is now a copy Get can fault in; pinning the
	// decoded record as well would grow memory with every point written.
	e.rec = nil
	return true
}

// rotateLocked closes the active segment and opens the next one,
// fsyncing the directory so the rotation itself is durable.
func (s *Store) rotateLocked() error {
	if s.active != nil {
		s.active.Close()
		s.active = nil
	}
	s.activeSeq++
	f, err := createSegment(s.dir, s.activeSeq)
	if err != nil {
		return err
	}
	s.active = f
	s.activeSize = 0
	s.segs[s.activeSeq] = 0
	return nil
}

// segSeqsLocked returns the live segment sequence numbers in ascending
// order. Callers hold s.mu.
func (s *Store) segSeqsLocked() []int {
	seqs := make([]int, 0, len(s.segs))
	for seq := range s.segs {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs
}

// Len returns the number of distinct keys in the index.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Entries:     len(s.index),
		Segments:    len(s.segs),
		Shards:      1,
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Puts:        s.puts.Load(),
		Replayed:    s.replayed,
		IndexLoaded: s.indexLoaded,
		Skipped:     s.skipped,
	}
}

// Close flushes and closes the active segment, persists the index (so
// the next Open skips segment replay entirely) and returns any write
// error deferred by Put. The store keeps serving Gets from memory and
// segments afterwards; further Puts become memory-only.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	alreadyClosed := s.closed
	s.closed = true
	err := s.writeErr
	if s.active != nil {
		if serr := s.active.Sync(); err == nil {
			err = serr
		}
		if cerr := s.active.Close(); err == nil {
			err = cerr
		}
		s.active = nil
	}
	// Only persist the index over segments in a known-good state: after
	// a deferred write error the recorded offsets may point into a torn
	// line, and the segments themselves (minus that line) are still
	// recoverable by replay.
	if err == nil && s.indexDirty && !alreadyClosed {
		if werr := s.writeIndexLocked(); werr == nil {
			s.indexDirty = false
		} else {
			err = werr
		}
	}
	if err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	return nil
}
