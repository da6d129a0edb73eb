package service

import (
	"fmt"
	"iter"
	"sync"

	"repro/internal/sweep"
)

// recordTable holds each record a retained done job serves once per
// Manager, however many jobs share it: a warm resubmission references
// the records its predecessor inserted instead of keeping a copy. An
// entry is the record under its PointKey, with Pareto cleared (front
// membership belongs to a job, not a point), and a count of the job
// references to it; the entry goes when the count reaches zero.
//
// The table is not a cache: the dispatcher's cache pre-pass never
// consults it, so it changes no job's cached/computed split, and a
// store-less daemon's memory stays bounded by RetainJobs.
type recordTable struct {
	mu      sync.Mutex
	entries map[string]*tableEntry
	// points counts the references held: one per record of each
	// retained done job (and of each evicted job a read still holds).
	points int
}

type tableEntry struct {
	// key is the table's own copy of the entry's map key; jobs hold
	// this string, so a retained point costs one string header.
	key  string
	rec  sweep.Record
	refs int
}

func newRecordTable() *recordTable {
	return &recordTable{entries: make(map[string]*tableEntry)}
}

// retain references recs[i] under keys[i] for one job, inserting the
// records the table lacks, and returns the keys as the table's own
// strings, so the caller's copies can be collected. keys itself is only
// read: late chunk completions may still be reading it.
func (t *recordTable) retain(keys []string, recs []sweep.Record) []string {
	held := make([]string, len(keys))
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, k := range keys {
		e := t.entries[k]
		if e == nil {
			e = &tableEntry{key: k, rec: recs[i]}
			e.rec.Pareto = false
			t.entries[k] = e
		}
		e.refs++
		held[i] = e.key
	}
	t.points += len(keys)
	return held
}

// release drops one job's references to keys.
func (t *recordTable) release(keys []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range keys {
		e := t.entries[k]
		if e.refs--; e.refs == 0 {
			delete(t.entries, k)
		}
	}
	t.points -= len(keys)
}

// get returns the record under a key some job references.
func (t *recordTable) get(key string) sweep.Record {
	t.mu.Lock()
	e := t.entries[key]
	t.mu.Unlock()
	return e.rec
}

// size reports the distinct records held and the references to them.
func (t *recordTable) size() (records, points int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries), t.points
}

// jobRecords is one read of a done job's records. It holds the job's
// table references until close, so a job evicted mid-read still
// resolves every key.
type jobRecords struct {
	m *Manager
	j *job
	// res is the job's Result header: every field but Records.
	res  *sweep.Result
	keys []string
}

// openRecords starts a read of a done job's records; the caller must
// close it.
func (m *Manager) openRecords(id string) (*jobRecords, error) {
	// j.mu is taken before m.mu is let go, as evictLocked takes both,
	// so the job cannot be evicted between the lookup and the count.
	m.mu.Lock()
	j, ok := m.jobs[id]
	if ok {
		j.mu.Lock()
	}
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, fmt.Errorf("%w (%s is %s)", ErrNotDone, id, j.state)
	}
	j.readers++
	return &jobRecords{m: m, j: j, res: j.result, keys: j.keys}, nil
}

// close ends the read, releasing the job's references if it was
// evicted meanwhile and this was its last read.
func (r *jobRecords) close() {
	r.j.mu.Lock()
	defer r.j.mu.Unlock()
	r.j.readers--
	r.m.releaseLocked(r.j)
}

// all yields the records in order, Pareto set from the job's front.
func (r *jobRecords) all() iter.Seq2[int, sweep.Record] {
	return func(yield func(int, sweep.Record) bool) {
		front := r.res.ParetoIndices
		for i, k := range r.keys {
			rec := r.m.records.get(k)
			if len(front) > 0 && front[0] == i {
				rec.Pareto = true
				front = front[1:]
			}
			if !yield(i, rec) {
				return
			}
		}
	}
}

// front returns the job's Pareto-front records in record order.
func (r *jobRecords) front() []sweep.Record {
	out := make([]sweep.Record, len(r.res.ParetoIndices))
	for k, i := range r.res.ParetoIndices {
		out[k] = r.m.records.get(r.keys[i])
		out[k].Pareto = true
	}
	return out
}

// releaseLocked returns an evicted job's table references once no read
// holds them. Callers hold j.mu.
func (m *Manager) releaseLocked(j *job) {
	if j.evicted && j.readers == 0 && j.keys != nil {
		m.records.release(j.keys)
		j.keys = nil
	}
}
