package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/fsio"
	"repro/internal/sweep"
)

// Compaction rewrites the live entries into fresh segments and deletes
// the old ones, reclaiming the space held by entries stamped with a
// stale engine version and by keys shadowed in more than one segment.
//
// The swap is crash-safe without a transaction log because replay is
// last-write-wins by segment order and the rewritten segments always
// take sequence numbers above every existing one:
//
//  1. Live entries are copied (raw line bytes, preserving legacy
//     formats) into segments seg-(N+1)..seg-(N+k), each written to a
//     temp file and atomically renamed into place, ascending, with
//     directory fsyncs. A crash here leaves temp files Open ignores
//     (and deletes), or renamed segments whose entries byte-identically
//     shadow their old copies.
//  2. Only then are the old segments seg-1..seg-N unlinked. A crash
//     mid-delete leaves survivors whose entries are shadowed by the
//     rewritten copies above them.
//
// At every instant an Open of the directory serves exactly the live
// records; an interrupted compaction costs only un-reclaimed space,
// recovered by the next Compact.

// CompactResult summarizes one compaction pass.
type CompactResult struct {
	// Kept counts the live entries carried into the rewritten segments.
	Kept int `json:"kept"`
	// DroppedStale counts entries discarded because their stamped
	// engine version no longer matches sweep.EngineVersion.
	DroppedStale int `json:"dropped_stale"`
	// DroppedShadowed counts on-disk lines superseded by a later write
	// of the same key (the in-memory index never served them).
	DroppedShadowed int `json:"dropped_shadowed"`
	// SegmentsBefore/After and BytesBefore/After measure the reclaim.
	SegmentsBefore int   `json:"segments_before"`
	SegmentsAfter  int   `json:"segments_after"`
	BytesBefore    int64 `json:"bytes_before"`
	BytesAfter     int64 `json:"bytes_after"`
}

// Add folds another pass's counters in (used by Sharded.Compact).
func (r *CompactResult) Add(o CompactResult) {
	r.Kept += o.Kept
	r.DroppedStale += o.DroppedStale
	r.DroppedShadowed += o.DroppedShadowed
	r.SegmentsBefore += o.SegmentsBefore
	r.SegmentsAfter += o.SegmentsAfter
	r.BytesBefore += o.BytesBefore
	r.BytesAfter += o.BytesAfter
}

// liveEntry pairs a key with its index entry during compaction.
type liveEntry struct {
	key string
	e   *indexEntry
}

// failpoint invokes the test-injected compaction failure hook, which
// simulates a crash between swap stages.
func (s *Store) failpoint(stage string) error {
	if s.compactFail != nil {
		return s.compactFail(stage)
	}
	return nil
}

// Compact rewrites the store's segments keeping only live entries: the
// current winner of every key whose engine version matches
// sweep.EngineVersion. Entries predating engine stamping (engine 0) are
// stale too: the key envelope has carried the engine version since
// engine 2, so no current PointKey can reach them. The store is locked
// for the duration; concurrent Gets and Puts block until the swap
// completes.
func (s *Store) Compact() (CompactResult, error) {
	if s.met != nil {
		defer func(start time.Time) {
			s.met.compactions.Observe(time.Since(start).Seconds())
		}(time.Now())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var res CompactResult
	if s.closed {
		return res, fmt.Errorf("store: compact: store is closed")
	}
	if s.writeErr != nil {
		return res, fmt.Errorf("store: compact: deferred write error: %w", s.writeErr)
	}

	// Flush and drop the active handle: the rewrite reads every live
	// line through the reader cache, and the swap replaces the file.
	if s.active != nil {
		if err := s.active.Sync(); err != nil {
			return res, fmt.Errorf("store: compact: %w", err)
		}
		s.active.Close()
		s.active = nil
	}
	// Whatever happens past this point changed enough state that the
	// next clean Close should re-persist the index; the success path
	// resets this after writing a fresh one.
	s.indexDirty = true

	oldSeqs := s.segSeqsLocked()
	res.SegmentsBefore = len(oldSeqs)
	onDiskLines := 0
	for _, seq := range oldSeqs {
		res.BytesBefore += s.segs[seq]
		n, err := countLines(filepath.Join(s.dir, segName(seq)))
		if err != nil {
			return res, err
		}
		onDiskLines += n
	}

	// Partition the index into live and stale, ordered by on-disk
	// position so the rewrite preserves temporal order and reads
	// near-sequentially.
	var live []liveEntry
	var stale []string
	for key, e := range s.index {
		if e.engine == sweep.EngineVersion {
			live = append(live, liveEntry{key, e})
		} else {
			stale = append(stale, key)
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].e.seg != live[j].e.seg {
			return live[i].e.seg < live[j].e.seg
		}
		return live[i].e.off < live[j].e.off
	})
	res.Kept = len(live)
	res.DroppedStale = len(stale)
	res.DroppedShadowed = onDiskLines - len(s.index)

	if err := s.failpoint("before-swap"); err != nil {
		return res, err
	}

	// Stage 1: write the rewritten segments above every existing
	// sequence number. writeCompactedLocked registers each renamed
	// segment in s.segs/activeSeq as it lands, so an abort mid-swap
	// leaves in-process bookkeeping matching the directory.
	newSeqs, newLoc, err := s.writeCompactedLocked(live)
	if err != nil {
		return res, err
	}

	if err := s.failpoint("before-delete"); err != nil {
		return res, err
	}

	// Stage 2: the swap is durable — apply the new world in memory,
	// then unlink the old segments.
	for _, l := range live {
		loc := newLoc[l.key]
		l.e.seg, l.e.off, l.e.length = loc.seg, loc.off, loc.length
	}
	for _, key := range stale {
		delete(s.index, key)
	}
	var delErr error
	for _, seq := range oldSeqs {
		delete(s.segs, seq)
		if r, ok := s.readers[seq]; ok {
			r.Close()
			delete(s.readers, seq)
		}
		if err := os.Remove(filepath.Join(s.dir, segName(seq))); err != nil && delErr == nil {
			delErr = err
		}
		if err := s.failpoint("mid-delete"); err != nil {
			return res, err
		}
	}
	if delErr != nil {
		return res, fmt.Errorf("store: compact: %w", delErr)
	}
	if err := fsio.SyncDir(s.dir); err != nil {
		return res, fmt.Errorf("store: compact: %w", err)
	}

	res.SegmentsAfter = len(newSeqs)
	for _, seq := range newSeqs {
		res.BytesAfter += s.segs[seq]
	}

	// Reopen the tail segment for appends if it has room.
	if len(newSeqs) > 0 {
		last := newSeqs[len(newSeqs)-1]
		if s.segs[last] < s.segLimit {
			if err := s.openActive(last, s.segs[last]); err != nil {
				return res, err
			}
		}
	}

	// Persist a fresh index so the next Open maps the new layout
	// without replay.
	if err := s.writeIndexLocked(); err != nil {
		return res, err
	}
	s.indexDirty = false
	return res, nil
}

// compactLoc is where a live entry landed in the rewritten segments.
type compactLoc struct {
	seg    int
	off    int64
	length int64
}

// writeCompactedLocked copies the live entries' raw lines into fresh
// segments numbered above activeSeq, each atomically renamed into
// place in ascending order, and returns the new sequence numbers plus
// each key's new location.
func (s *Store) writeCompactedLocked(live []liveEntry) (newSeqs []int, newLoc map[string]compactLoc, err error) {
	newLoc = make(map[string]compactLoc, len(live))
	i := 0
	for i < len(live) {
		seq := s.activeSeq + 1
		first := i
		var size int64
		// Greedily pack entries until the segment limit; always take at
		// least one so an oversized single entry still lands somewhere.
		for i < len(live) && (i == first || size+live[i].e.length <= s.segLimit) {
			size += live[i].e.length
			i++
		}
		batch := live[first:i]
		var off int64
		werr := fsio.WriteFileAtomic(filepath.Join(s.dir, segName(seq)), func(f *os.File) error {
			for _, l := range batch {
				line, rerr := s.readLineLocked(l.e)
				if rerr != nil {
					return rerr
				}
				line = append(line, '\n')
				n, werr := f.Write(line)
				if werr != nil {
					return werr
				}
				newLoc[l.key] = compactLoc{seg: seq, off: off, length: int64(n)}
				off += int64(n)
			}
			return nil
		})
		if werr != nil {
			return newSeqs, nil, fmt.Errorf("store: compact: %w", werr)
		}
		newSeqs = append(newSeqs, seq)
		s.segs[seq] = off
		s.activeSeq = seq
		if err := s.failpoint("mid-swap"); err != nil {
			return newSeqs, nil, err
		}
	}
	return newSeqs, newLoc, nil
}

// countLines counts the well-formed entry lines of one segment.
func countLines(path string) (int, error) {
	n := 0
	_, err := scanSegment(path, 0, func(entry, int64, int64) { n++ })
	return n, err
}
