package store

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sweep"
)

// TestCompactDropsStaleAndShadowed exercises the full GC contract on a
// hand-built layout: a stale-engine entry, a key shadowed across two
// segments, a legacy entry with no engine stamp (stale: its key
// predates the engine version in the key envelope), and a current
// entry. Compaction must keep exactly the servable set, reclaim the
// rest, and leave a store that reopens through the persisted index.
func TestCompactDropsStaleAndShadowed(t *testing.T) {
	dir := t.TempDir()
	keep, stale, shadowed, legacy := key(0), key(1), key(2), key(3)
	newer := testRecord(20)
	writeSegment(t, dir, 1, []entry{
		rawEntry(t, keep, sweep.EngineVersion, testRecord(0)),
		rawEntry(t, stale, sweep.EngineVersion-1, testRecord(1)),
		rawEntry(t, shadowed, sweep.EngineVersion, testRecord(2)), // superseded below
	})
	writeSegment(t, dir, 2, []entry{
		rawEntry(t, shadowed, sweep.EngineVersion, newer),
		rawEntry(t, legacy, 0, testRecord(3)), // pre-stamping line
	})

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept != 2 || res.DroppedStale != 2 || res.DroppedShadowed != 1 {
		t.Fatalf("kept %d stale %d shadowed %d, want 2/2/1",
			res.Kept, res.DroppedStale, res.DroppedShadowed)
	}
	if res.SegmentsBefore != 2 || res.SegmentsAfter != 1 {
		t.Fatalf("segments %d -> %d, want 2 -> 1", res.SegmentsBefore, res.SegmentsAfter)
	}
	if res.BytesAfter >= res.BytesBefore {
		t.Fatalf("compaction reclaimed nothing: %d -> %d bytes", res.BytesBefore, res.BytesAfter)
	}

	// The rewritten segment sits above every old sequence number and the
	// old segments are gone.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if len(segs) != 1 || filepath.Base(segs[0]) != segName(3) {
		t.Fatalf("disk holds %v, want exactly %s", segs, segName(3))
	}

	// The live entries serve through the compacted store...
	for _, k := range []string{stale, legacy} {
		if _, ok := s.Get(k); ok {
			t.Fatalf("stale entry %s survived compaction", k)
		}
	}
	for _, want := range []struct {
		key string
		rec sweep.Record
	}{{keep, testRecord(0)}, {shadowed, newer}} {
		got, ok := s.Get(want.key)
		if !ok || !reflect.DeepEqual(got, want.rec) {
			t.Fatalf("key %s lost or changed by compaction", want.key)
		}
	}
	// ...and the store stays appendable afterwards.
	s.Put(key(4), testRecord(4))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen maps the compacted layout through the persisted index.
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.IndexLoaded != 3 || st.Replayed != 0 {
		t.Fatalf("index-loaded %d replayed %d after compaction, want 3 and 0",
			st.IndexLoaded, st.Replayed)
	}
	if got, ok := r.Get(shadowed); !ok || !reflect.DeepEqual(got, newer) {
		t.Fatal("shadowed key lost its winning record across compact+reopen")
	}

	// A second pass over an already-compact store is a no-op reclaim.
	res2, err := r.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Kept != 3 || res2.DroppedStale != 0 || res2.DroppedShadowed != 0 {
		t.Fatalf("second pass kept %d stale %d shadowed %d, want 3/0/0",
			res2.Kept, res2.DroppedStale, res2.DroppedShadowed)
	}
}

// TestCompactEmptyStore: compacting nothing must not invent segments or
// errors.
func TestCompactEmptyStore(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept != 0 || res.SegmentsAfter != 0 {
		t.Fatalf("empty compact produced %+v", res)
	}
}

// TestCompactCrashSafe simulates a crash at every stage boundary of the
// swap via the compactFail failpoint, then verifies the invariant the
// design leans on: an Open of the directory at any crash instant serves
// exactly the live records, and a follow-up compaction completes the
// interrupted reclaim.
func TestCompactCrashSafe(t *testing.T) {
	for _, stage := range []string{"before-swap", "mid-swap", "before-delete", "mid-delete"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			staleKey := key(100)
			writeSegment(t, dir, 1, []entry{
				rawEntry(t, staleKey, sweep.EngineVersion-1, testRecord(100)),
			})
			// Small segments so the rewrite spans several files and the
			// mid-swap failpoint fires with a genuinely partial swap.
			s, err := OpenOptions(dir, Options{SegmentBytes: 600})
			if err != nil {
				t.Fatal(err)
			}
			const n = 16
			for i := 0; i < n; i++ {
				s.Put(key(i), testRecord(i))
			}
			s.compactFail = func(at string) error {
				if at == stage {
					return fmt.Errorf("injected crash at %s", at)
				}
				return nil
			}
			if _, err := s.Compact(); err == nil {
				t.Fatalf("failpoint %s did not surface", stage)
			}

			// The interrupted in-process store must keep serving every
			// live record.
			for i := 0; i < n; i++ {
				got, ok := s.Get(key(i))
				if !ok || !reflect.DeepEqual(got, testRecord(i)) {
					t.Fatalf("in-process store lost entry %d after %s abort", i, stage)
				}
			}

			// Crash-restart: a fresh Open of the directory, whatever state
			// the abort left it in, serves exactly the live set.
			r, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen after %s abort: %v", stage, err)
			}
			for i := 0; i < n; i++ {
				got, ok := r.Get(key(i))
				if !ok || !reflect.DeepEqual(got, testRecord(i)) {
					t.Fatalf("entry %d lost after simulated crash at %s", i, stage)
				}
			}

			// A clean compaction finishes the reclaim: the stale entry is
			// gone from the index and from disk.
			res, err := r.Compact()
			if err != nil {
				t.Fatalf("recovery compaction after %s: %v", stage, err)
			}
			if res.Kept != n {
				t.Fatalf("recovery compaction kept %d, want %d", res.Kept, n)
			}
			if _, ok := r.Get(staleKey); ok {
				t.Fatalf("stale entry survived recovery compaction after %s", stage)
			}
			r.Put(key(n), testRecord(n))
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}

			r2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer r2.Close()
			if r2.Len() != n+1 {
				t.Fatalf("final Len = %d, want %d", r2.Len(), n+1)
			}
		})
	}
}
