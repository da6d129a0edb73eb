package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fsio"
	"repro/internal/sweep"
)

// The index layer persists the key → (segment, offset, length, engine)
// map so reopening a large store costs one index read instead of a
// replay of every segment byte. The file is advisory: it is written
// atomically on clean Close (and after Compact), and Open falls back
// to rebuilding from segments whenever it is missing, unreadable or
// stale. Records themselves never live in the persisted index — they
// are faulted in from their segment on first Get.

// indexFileName is the persisted index, living next to the segments.
const indexFileName = "index.json"

// indexFormatVersion numbers the index layout; a reader that does not
// speak a file's version rebuilds from segments instead of guessing.
const indexFormatVersion = 1

// indexEntry is the in-memory index value: where an entry's line lives
// on disk, which engine version stamped it, and the decoded record once
// a Get has faulted it in. A Put leaves rec nil after writing the line;
// only a record whose write failed, or that was put into a closed
// store, stays resident from the Put, because it has no line on disk.
type indexEntry struct {
	seg    int
	off    int64
	length int64
	engine int
	rec    *sweep.Record
}

// indexSegment records one segment's extent at index-write time. A
// segment that has since grown is tail-replayed from Bytes; one that
// shrank or disappeared (an interrupted compaction, manual surgery)
// invalidates the whole index.
type indexSegment struct {
	Seq   int   `json:"seq"`
	Bytes int64 `json:"bytes"`
}

// indexLine is one persisted index entry, keyed compactly: millions of
// entries make field-name overhead real bytes.
type indexLine struct {
	Key    string `json:"k"`
	Seg    int    `json:"s"`
	Off    int64  `json:"o"`
	Len    int64  `json:"l"`
	Engine int    `json:"e,omitempty"`
}

// indexFile is the persisted layout.
type indexFile struct {
	Version  int            `json:"version"`
	Segments []indexSegment `json:"segments"`
	Entries  []indexLine    `json:"entries"`
}

// readIndexFile loads dir's persisted index. A missing file returns
// (nil, nil); an unreadable or version-mismatched file also returns
// nil — the caller rebuilds from segments, which are the source of
// truth.
func readIndexFile(dir string) (*indexFile, error) {
	f, err := os.Open(filepath.Join(dir, indexFileName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	var idx indexFile
	if err := json.NewDecoder(f).Decode(&idx); err != nil {
		return nil, nil // corrupt index: rebuild, don't fail the open
	}
	if idx.Version != indexFormatVersion {
		return nil, nil
	}
	return &idx, nil
}

// writeIndexLocked persists the current in-memory index atomically
// (temp file, fsync, rename, directory fsync). Callers hold s.mu.
func (s *Store) writeIndexLocked() error {
	idx := indexFile{Version: indexFormatVersion}
	idx.Segments = make([]indexSegment, 0, len(s.segs))
	for _, seq := range s.segSeqsLocked() {
		idx.Segments = append(idx.Segments, indexSegment{Seq: seq, Bytes: s.segs[seq]})
	}
	idx.Entries = make([]indexLine, 0, len(s.index))
	for key, e := range s.index {
		idx.Entries = append(idx.Entries, indexLine{
			Key: key, Seg: e.seg, Off: e.off, Len: e.length, Engine: e.engine,
		})
	}
	return fsio.WriteFileAtomic(filepath.Join(s.dir, indexFileName), func(f *os.File) error {
		return json.NewEncoder(f).Encode(idx)
	})
}

// loadIndex applies a persisted index against the segments actually on
// disk. It returns false — leaving the store untouched — when the
// index is stale: it references a segment that is gone or that shrank.
// Segments the index does not cover, and bytes appended past a covered
// segment's recorded extent (a crash before the next index write),
// are replayed by the caller.
func (s *Store) loadIndex(idx *indexFile, sizes map[int]int64) (covered map[int]int64, ok bool) {
	covered = make(map[int]int64, len(idx.Segments))
	for _, seg := range idx.Segments {
		actual, exists := sizes[seg.Seq]
		if !exists || actual < seg.Bytes {
			return nil, false
		}
		covered[seg.Seq] = seg.Bytes
	}
	for _, l := range idx.Entries {
		if _, ok := covered[l.Seg]; !ok {
			return nil, false // entry points outside the covered set
		}
		s.index[l.Key] = &indexEntry{seg: l.Seg, off: l.Off, length: l.Len, engine: l.Engine}
	}
	s.indexLoaded = len(idx.Entries)
	return covered, true
}
