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

// Sharding splits one logical store into N independent Stores routed
// by the key's leading hex byte. Keys are sweep.PointKey sha-256
// digests, so the prefix is uniformly distributed and every shard
// carries ~1/N of the entries, segments and — critically — mutex
// traffic: concurrent jobs touching different shards never contend.
// Which shard a key routes to is a pure function of (key, N), so a
// store must be opened with the shard count it was created with; the
// shards.json manifest pins it.

// MaxShards bounds the fan-out: 256 leading-byte values is the natural
// ceiling of single-byte routing, and far beyond any useful mutex
// split on one machine.
const MaxShards = 256

// manifestFileName pins a multi-shard store's layout. Single-shard
// stores have no manifest — their directory layout is byte-compatible
// with the pre-sharding store, so existing deployments open unchanged.
const manifestFileName = "shards.json"

// manifestVersion numbers the manifest layout.
const manifestVersion = 1

type manifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// readManifest loads dir's shard manifest, returning (nil, nil) when
// the store is single-shard (no manifest).
func readManifest(dir string) (*manifest, error) {
	f, err := os.Open(filepath.Join(dir, manifestFileName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	var m manifest
	if err := json.NewDecoder(f).Decode(&m); err != nil {
		return nil, fmt.Errorf("store: manifest %s: %w", filepath.Join(dir, manifestFileName), err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("store: manifest version %d, this reader speaks %d", m.Version, manifestVersion)
	}
	if m.Shards < 1 || m.Shards > MaxShards {
		return nil, fmt.Errorf("store: manifest declares %d shards (want 1..%d)", m.Shards, MaxShards)
	}
	return &m, nil
}

// shardDir names one shard's subdirectory.
func shardDir(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", shard))
}

// Sharded is a result store fanned out over N independent Stores. It
// implements sweep.Cache exactly like Store; with N == 1 it wraps a
// single Store rooted at dir itself, byte-compatible with a
// pre-sharding store directory.
type Sharded struct {
	shards []*Store
}

// OpenSharded creates or reopens the store rooted at dir with n
// shards. n == 0 means "whatever the store already is": the manifest's
// count for a sharded store, 1 otherwise. Opening an existing store
// with a conflicting non-zero n is an error — routing is a function of
// the shard count, so resharding requires rewriting every segment
// (dump with one layout, refill with the other), not a flag change.
func OpenSharded(dir string, n int, o Options) (*Sharded, error) {
	if n < 0 || n > MaxShards {
		return nil, fmt.Errorf("store: %d shards (want 1..%d)", n, MaxShards)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	switch {
	case man != nil:
		if n != 0 && n != man.Shards {
			return nil, fmt.Errorf("store: %s has %d shards, requested %d; resharding needs a dump and refill, not a flag change", dir, man.Shards, n)
		}
		n = man.Shards
	case n == 0:
		n = 1
	}
	if n > 1 && man == nil {
		// Creating a fresh multi-shard store. Refuse to layer shards
		// over an existing single-shard directory: its segments would
		// become invisible to routed lookups.
		if segs, _, err := listSegments(dir); err != nil {
			return nil, err
		} else if len(segs) > 0 {
			return nil, fmt.Errorf("store: %s holds a single-shard store; open it with 1 shard or migrate it (dump and refill)", dir)
		}
		if err := fsio.WriteFileAtomic(filepath.Join(dir, manifestFileName), func(f *os.File) error {
			return json.NewEncoder(f).Encode(manifest{Version: manifestVersion, Shards: n})
		}); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}

	s := &Sharded{shards: make([]*Store, n)}
	for i := range s.shards {
		d := dir
		if n > 1 {
			d = shardDir(dir, i)
		}
		st, err := OpenOptions(d, o)
		if err != nil {
			for _, open := range s.shards[:i] {
				open.Close()
			}
			return nil, err
		}
		s.shards[i] = st
	}
	if o.Metrics != nil {
		registerShardGauges(o.Metrics, s)
	}
	return s, nil
}

// shard routes a key to its Store: the key's leading hex byte modulo
// the shard count. Non-hex or short keys (never produced by
// sweep.PointKey) all route to shard 0 rather than failing — a wrong
// shard would only cost a recompute, but routing must stay total.
func (s *Sharded) shard(key string) *Store {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	b, ok := leadingByte(key)
	if !ok {
		return s.shards[0]
	}
	return s.shards[int(b)%len(s.shards)]
}

// leadingByte parses the first two hex characters of a key.
func leadingByte(key string) (byte, bool) {
	if len(key) < 2 {
		return 0, false
	}
	hi, ok1 := hexVal(key[0])
	lo, ok2 := hexVal(key[1])
	if !ok1 || !ok2 {
		return 0, false
	}
	return hi<<4 | lo, true
}

func hexVal(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// Get returns the record stored under key. It implements sweep.Cache.
func (s *Sharded) Get(key string) (sweep.Record, bool) {
	return s.shard(key).Get(key)
}

// Put appends the record under key to its shard. It implements
// sweep.Cache.
func (s *Sharded) Put(key string, rec sweep.Record) {
	s.shard(key).Put(key, rec)
}

// Len returns the number of distinct keys across all shards.
func (s *Sharded) Len() int {
	n := 0
	for _, st := range s.shards {
		n += st.Len()
	}
	return n
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Stats aggregates every shard's counters; Shards reports the fan-out.
func (s *Sharded) Stats() Stats {
	var total Stats
	for _, st := range s.shards {
		sh := st.Stats()
		total.Entries += sh.Entries
		total.Segments += sh.Segments
		total.Hits += sh.Hits
		total.Misses += sh.Misses
		total.Puts += sh.Puts
		total.Replayed += sh.Replayed
		total.IndexLoaded += sh.IndexLoaded
		total.Skipped += sh.Skipped
	}
	total.Shards = len(s.shards)
	return total
}

// ShardStats returns each shard's own counter snapshot, in shard
// order — the per-shard view behind GET /api/v1/store.
func (s *Sharded) ShardStats() []Stats {
	out := make([]Stats, len(s.shards))
	for i, st := range s.shards {
		out[i] = st.Stats()
	}
	return out
}

// Compact compacts every shard, folding the per-shard results.
func (s *Sharded) Compact() (CompactResult, error) {
	var total CompactResult
	for i, st := range s.shards {
		res, err := st.Compact()
		total.Add(res)
		if err != nil {
			return total, fmt.Errorf("store: shard %d: %w", i, err)
		}
	}
	return total, nil
}

// Close closes every shard, returning the first error.
func (s *Sharded) Close() error {
	var first error
	for _, st := range s.shards {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
