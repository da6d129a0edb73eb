package store

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
)

func testRecord(i int) sweep.Record {
	return sweep.Record{
		Scenario: "t", Index: i, Label: "p", Spec: core.DefaultSpec(),
		TxPowerDBm: 1.5 + float64(i), DecodeLatencyBits: 200,
		NoCSaturation: 0.25, Topology: "2D mesh 4x4",
	}
}

func TestPutGetAndDedup(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, ok := s.Get("missing"); ok {
		t.Fatal("empty store returned a record")
	}
	rec := testRecord(0)
	s.Put("k0", rec)
	s.Put("k0", testRecord(99)) // dup: first write wins
	got, ok := s.Get("k0")
	if !ok {
		t.Fatal("stored key missing")
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("got %+v, want %+v", got, rec)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	st := s.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReopenReplaysSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, Options{SegmentBytes: 512}) // force rotation
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		s.Put(key(i), testRecord(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Segments < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", s.Stats().Segments)
	}

	// Clean close persisted the index: reopen loads it and replays
	// nothing.
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != n {
		t.Fatalf("reopened Len = %d, want %d", r.Len(), n)
	}
	for i := 0; i < n; i++ {
		got, ok := r.Get(key(i))
		if !ok || !reflect.DeepEqual(got, testRecord(i)) {
			t.Fatalf("entry %d lost or changed across reopen", i)
		}
	}
	if st := r.Stats(); st.IndexLoaded != n || st.Replayed != 0 {
		t.Fatalf("index-loaded %d replayed %d, want %d and 0", st.IndexLoaded, st.Replayed, n)
	}

	// Without the index file the segments are the source of truth:
	// reopen falls back to a full replay.
	if err := os.Remove(filepath.Join(dir, indexFileName)); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if st := r2.Stats(); st.Replayed != n || st.IndexLoaded != 0 {
		t.Fatalf("rebuild replayed %d index-loaded %d, want %d and 0", st.Replayed, st.IndexLoaded, n)
	}
	for i := 0; i < n; i++ {
		got, ok := r2.Get(key(i))
		if !ok || !reflect.DeepEqual(got, testRecord(i)) {
			t.Fatalf("entry %d lost or changed across rebuild", i)
		}
	}
}

func key(i int) string {
	return sweep.PointKey("t", sweep.Point{Index: i, Label: "p", Spec: core.DefaultSpec()},
		sweep.AnalyticBudget(), uint64(i))
}

func TestTornTailIsSkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key(0), testRecord(0))
	s.Put(key(1), testRecord(1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a half-written JSON line at the tail.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if len(segs) != 1 {
		t.Fatalf("have %d segments, want 1", len(segs))
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn","record":{"scena`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Open(dir)
	if err != nil {
		t.Fatalf("torn tail broke Open: %v", err)
	}
	defer r.Close()
	if r.Len() != 2 {
		t.Fatalf("Len = %d after torn tail, want 2", r.Len())
	}
	if r.Stats().Skipped != 1 {
		t.Fatalf("skipped = %d, want 1", r.Stats().Skipped)
	}
	// The store must stay writable after replaying a torn segment.
	r.Put(key(2), testRecord(2))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 3 {
		t.Fatalf("Len = %d after post-crash write, want 3", r2.Len())
	}
}

// TestDuplicateChunkCompletionIdempotent models the distributed
// write path: the daemon persists a whole chunk of records per
// completion, and the same chunk can be completed twice when a slow
// worker's lease expired and the chunk was re-leased. The second batch
// must leave both the index and the disk segments untouched.
func TestDuplicateChunkCompletionIdempotent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	putChunk := func() {
		for i := 3; i < 7; i++ {
			s.Put(key(i), testRecord(i))
		}
	}
	putChunk()
	size := segmentBytes(t, dir)
	putChunk() // duplicate completion: same keys, same records
	if s.Len() != 4 {
		t.Fatalf("Len = %d after duplicate chunk, want 4", s.Len())
	}
	if st := s.Stats(); st.Puts != 4 {
		t.Fatalf("Puts = %d after duplicate chunk, want 4", st.Puts)
	}
	if again := segmentBytes(t, dir); again != size {
		t.Fatalf("duplicate chunk grew segments from %d to %d bytes", size, again)
	}

	// Reopen: exactly one entry per key survived on disk.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.IndexLoaded != 4 || st.Entries != 4 {
		t.Fatalf("loaded %d entries into %d keys, want 4 and 4", st.IndexLoaded, st.Entries)
	}
}

// segmentBytes sums the on-disk size of every segment file.
func segmentBytes(t *testing.T, dir string) int64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, seg := range segs {
		st, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Size()
	}
	return total
}

func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Put(key(i), testRecord(i))
				s.Get(key((i + w) % 50))
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 50 {
		t.Fatalf("Len = %d, want 50", s.Len())
	}
}

// TestWarmStartZeroRecompute is the subsystem's acceptance test: the
// second run of a scenario against the same store computes zero new
// points — every record is a cache hit and the rendered records are
// byte-identical to the cold run's.
func TestWarmStartZeroRecompute(t *testing.T) {
	dir := t.TempDir()
	sc, err := sweep.Get("paper-baseline")
	if err != nil {
		t.Fatal(err)
	}
	grid := len(sc.Points())

	run := func() (*sweep.Result, Stats) {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}()
		res, err := sweep.Run(context.Background(), sc,
			sweep.Config{Seed: 7, Budget: sweep.AnalyticBudget(), Cache: s})
		if err != nil {
			t.Fatal(err)
		}
		return res, s.Stats()
	}

	cold, coldStats := run()
	if cold.ComputedPoints != grid || cold.CachedPoints != 0 {
		t.Fatalf("cold run: computed %d cached %d, want %d/0",
			cold.ComputedPoints, cold.CachedPoints, grid)
	}
	if coldStats.Puts != int64(grid) {
		t.Fatalf("cold run stored %d entries, want %d", coldStats.Puts, grid)
	}

	warm, warmStats := run()
	if warm.CachedPoints != grid || warm.ComputedPoints != 0 {
		t.Fatalf("warm run: cached %d computed %d, want %d/0",
			warm.CachedPoints, warm.ComputedPoints, grid)
	}
	if warmStats.Puts != 0 {
		t.Fatalf("warm run appended %d entries, want 0", warmStats.Puts)
	}

	// The rendered records must be byte-identical; only the cache
	// counters of the envelope may differ between the two runs.
	if !bytes.Equal(recordsJSON(t, cold), recordsJSON(t, warm)) {
		t.Fatal("warm-run records are not byte-identical to the cold run")
	}
	if !reflect.DeepEqual(cold.ParetoIndices, warm.ParetoIndices) {
		t.Fatalf("pareto front changed: %v vs %v", cold.ParetoIndices, warm.ParetoIndices)
	}
}

func recordsJSON(t *testing.T, res *sweep.Result) []byte {
	t.Helper()
	b, err := json.Marshal(res.Records)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSeedOrBudgetChangesMiss pins the key discipline: a different seed
// or budget must not serve stale records.
func TestSeedOrBudgetChangesMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sc, err := sweep.Get("embedded-box")
	if err != nil {
		t.Fatal(err)
	}
	grid := len(sc.Points())
	res, err := sweep.Run(context.Background(), sc,
		sweep.Config{Seed: 1, Budget: sweep.AnalyticBudget(), Cache: s})
	if err != nil {
		t.Fatal(err)
	}
	if res.ComputedPoints != grid {
		t.Fatalf("cold run computed %d, want %d", res.ComputedPoints, grid)
	}
	res, err = sweep.Run(context.Background(), sc,
		sweep.Config{Seed: 2, Budget: sweep.AnalyticBudget(), Cache: s})
	if err != nil {
		t.Fatal(err)
	}
	if res.CachedPoints != 0 {
		t.Fatalf("seed change hit the cache %d times", res.CachedPoints)
	}
}

// resident reports whether key's decoded record is pinned in memory.
func resident(s *Store, key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.index[key]
	return ok && e.rec != nil
}

// recordLine is the record's JSON as the segment layer writes it.
func recordLine(t *testing.T, rec sweep.Record) []byte {
	t.Helper()
	b, err := sweep.AppendRecordJSON(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPutDoesNotPinRecords: a written record is not kept in memory.
// Get faults it back in from its segment — the active one or one
// already rotated out — byte-identical to what was put, and caches it.
func TestPutDoesNotPinRecords(t *testing.T) {
	sc, err := sweep.Get("paper-baseline")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Run(context.Background(), sc, sweep.Config{Seed: 3, Budget: sweep.AnalyticBudget()})
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenOptions(t.TempDir(), Options{SegmentBytes: 4 << 10}) // force rotation
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, rec := range res.Records {
		s.Put(key(i), rec)
		if resident(s, key(i)) {
			t.Fatalf("record %d resident right after Put", i)
		}
	}
	if s.Stats().Segments < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", s.Stats().Segments)
	}
	for i, rec := range res.Records {
		got, ok := s.Get(key(i))
		if !ok {
			t.Fatalf("record %d missing", i)
		}
		if !bytes.Equal(recordLine(t, got), recordLine(t, rec)) {
			t.Fatalf("record %d changed across put/get:\ngot  %s\nwant %s", i, recordLine(t, got), recordLine(t, rec))
		}
		if !resident(s, key(i)) {
			t.Fatalf("record %d not cached after Get", i)
		}
	}
	if st := s.Stats(); st.Hits != int64(len(res.Records)) || st.Skipped != 0 {
		t.Fatalf("stats = %+v, want %d hits and nothing skipped", st, len(res.Records))
	}
}

// TestUnwrittenPutStaysResident: a record put into a closed store has
// no line on disk and is the only copy, so it stays in memory and Get
// serves it.
func TestUnwrittenPutStaysResident(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rec := testRecord(1)
	s.Put("after-close", rec)
	got, ok := s.Get("after-close")
	if !ok || !bytes.Equal(recordLine(t, got), recordLine(t, rec)) || !resident(s, "after-close") {
		t.Fatalf("put after close: Get = (%+v, %v), resident %v", got, ok, resident(s, "after-close"))
	}
}

// TestNonFiniteRecordPersists: a record holding NaN and infinities is
// written like any other, closes cleanly and comes back from a reopened
// store with the same bytes.
func TestNonFiniteRecordPersists(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord(2)
	rec.TxPowerDBm, rec.NoCSaturation, rec.BER = math.NaN(), math.Inf(1), math.Inf(-1)
	s.Put("non-finite", rec)
	if resident(s, "non-finite") {
		t.Fatal("written record still resident")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, ok := s.Get("non-finite")
	if !ok || !bytes.Equal(recordLine(t, got), recordLine(t, rec)) {
		t.Fatalf("after reopen: Get = (%s, %v), want %s", recordLine(t, got), ok, recordLine(t, rec))
	}
	if !bytes.Contains(recordLine(t, got), []byte(`"noc_saturation":"+Inf"`)) {
		t.Fatalf("record %s lacks the +Inf spelling", recordLine(t, got))
	}
}

// TestFaultDropsUnreadableLines: a Get whose line holds another key, or
// no record, misses and forgets the entry, so the caller's recompute
// can be stored in its place; a good line still faults in.
func TestFaultDropsUnreadableLines(t *testing.T) {
	dir := t.TempDir()
	writeSegment(t, dir, 1, []entry{
		rawEntry(t, key(1), sweep.EngineVersion, testRecord(1)),
		rawEntry(t, key(2), sweep.EngineVersion, testRecord(2)),
		{Key: key(3), Engine: sweep.EngineVersion, Record: json.RawMessage(`null`)},
	})
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Point key 1 at key 2's line, as a clobbered segment would.
	s.mu.Lock()
	moved := *s.index[key(2)]
	s.index[key(1)] = &moved
	s.mu.Unlock()
	before := s.Stats().Skipped
	for _, k := range []string{key(1), key(3)} {
		if rec, ok := s.Get(k); ok {
			t.Errorf("Get(%s) served %+v from an unreadable line", k, rec)
		}
		s.mu.RLock()
		_, kept := s.index[k]
		s.mu.RUnlock()
		if kept {
			t.Errorf("entry %s kept after its line failed to read", k)
		}
	}
	if got := s.Stats().Skipped - before; got != 2 {
		t.Errorf("skipped grew by %d, want 2", got)
	}
	if rec, ok := s.Get(key(2)); !ok || !reflect.DeepEqual(rec, testRecord(2)) {
		t.Fatalf("Get(key 2) = %+v, %v; want its record", rec, ok)
	}
}
