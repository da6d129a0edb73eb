package store

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/search"
	_ "repro/internal/spec" // registers the built-in search spaces
	"repro/internal/sweep"
)

func TestShardedRoutingAndStats(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		s.Put(key(i), testRecord(i))
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	st := s.Stats()
	if st.Shards != 4 || st.Entries != n || st.Puts != n {
		t.Fatalf("aggregate stats = %+v", st)
	}
	per := s.ShardStats()
	if len(per) != 4 {
		t.Fatalf("ShardStats returned %d shards", len(per))
	}
	sum, nonEmpty := 0, 0
	for _, sh := range per {
		sum += sh.Entries
		if sh.Entries > 0 {
			nonEmpty++
		}
	}
	if sum != n {
		t.Fatalf("per-shard entries sum to %d, want %d", sum, n)
	}
	if nonEmpty < 2 {
		t.Fatalf("sha-256 keys landed in %d shard(s); routing is not fanning out", nonEmpty)
	}
	for i := 0; i < n; i++ {
		got, ok := s.Get(key(i))
		if !ok || !reflect.DeepEqual(got, testRecord(i)) {
			t.Fatalf("entry %d lost through shard routing", i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The manifest pins the shard count: n == 0 rediscovers it, a
	// conflicting count is refused.
	r, err := OpenSharded(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Shards() != 4 {
		t.Fatalf("manifest reopened as %d shards, want 4", r.Shards())
	}
	if st := r.Stats(); st.IndexLoaded != n || st.Replayed != 0 {
		t.Fatalf("sharded reopen index-loaded %d replayed %d, want %d and 0",
			st.IndexLoaded, st.Replayed, n)
	}
	for i := 0; i < n; i++ {
		if _, ok := r.Get(key(i)); !ok {
			t.Fatalf("entry %d lost across sharded reopen", i)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSharded(dir, 2, Options{}); err == nil {
		t.Fatal("conflicting shard count was accepted")
	}
	if _, err := OpenSharded(dir, 4, Options{}); err != nil {
		t.Fatalf("matching shard count refused: %v", err)
	}
}

// TestShardedSingleShardCompat pins the migration story: a 1-shard
// store is byte-compatible with a plain Store directory — no manifest,
// no shard subdirectories — in both directions.
func TestShardedSingleShardCompat(t *testing.T) {
	dir := t.TempDir()
	plain, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	plain.Put(key(0), testRecord(0))
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := OpenSharded(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 1 {
		t.Fatalf("plain store reopened as %d shards", s.Shards())
	}
	if _, ok := s.Get(key(0)); !ok {
		t.Fatal("plain store's entry invisible through Sharded")
	}
	s.Put(key(1), testRecord(1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestFileName)); !os.IsNotExist(err) {
		t.Fatal("1-shard store grew a manifest; layout is no longer byte-compatible")
	}
	if dirs, _ := filepath.Glob(filepath.Join(dir, "shard-*")); len(dirs) != 0 {
		t.Fatalf("1-shard store grew shard directories: %v", dirs)
	}

	// ...and the plain Store reads the Sharded writes back.
	back, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Len() != 2 {
		t.Fatalf("plain reopen Len = %d, want 2", back.Len())
	}

	// Layering shards over an existing single-shard store would hide its
	// segments from routed lookups; it must be refused.
	if _, err := OpenSharded(dir, 4, Options{}); err == nil {
		t.Fatal("sharding over an existing single-shard store was accepted")
	}
}

func TestShardedRejectsBadManifest(t *testing.T) {
	for name, body := range map[string]string{
		"wrong-version": `{"version": 99, "shards": 4}`,
		"zero-shards":   `{"version": 1, "shards": 0}`,
		"over-max":      `{"version": 1, "shards": 100000}`,
		"not-json":      `{nope`,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestFileName), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSharded(dir, 0, Options{}); err == nil {
			t.Fatalf("%s manifest was accepted", name)
		}
	}
}

func TestShardedConcurrent(t *testing.T) {
	s, err := OpenSharded(t.TempDir(), 4, Options{})
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

func TestShardedCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	for i := 0; i < n; i++ {
		s.Put(key(i), testRecord(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Plant a stale-engine entry inside one shard; the sharded Compact
	// must reclaim it while keeping every live record.
	writeSegment(t, shardDir(dir, 0), 99, []entry{
		rawEntry(t, key(1000), sweep.EngineVersion-1, testRecord(1000)),
	})

	r, err := OpenSharded(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, err := r.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept != n || res.DroppedStale != 1 {
		t.Fatalf("sharded compact kept %d stale %d, want %d and 1", res.Kept, res.DroppedStale, n)
	}
	for i := 0; i < n; i++ {
		if _, ok := r.Get(key(i)); !ok {
			t.Fatalf("entry %d lost by sharded compaction", i)
		}
	}
}

// TestShardedLifecycleByteIdentical is the tentpole acceptance test:
// a full sweep and a full optimizer run produce byte-identical records
// whether the store behind them is 1-shard or 4-shard, and the warm
// rerun against each layout computes zero points.
func TestShardedLifecycleByteIdentical(t *testing.T) {
	sc, err := sweep.Get("paper-baseline")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := search.Get("butler-vs-steered")
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		sweepJSON, frontJSON []byte
		warmComputed         int
	}
	lifecycle := func(shards int) outcome {
		dir := t.TempDir()
		run := func() (sweepJSON, frontJSON []byte, computed int) {
			st, err := OpenSharded(dir, shards, Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sweep.Run(context.Background(), sc,
				sweep.Config{Seed: 7, Budget: sweep.AnalyticBudget(), Cache: st})
			if err != nil {
				t.Fatal(err)
			}
			opt, err := search.Optimize(context.Background(), search.Options{
				Space: sp, Seed: 11, Generations: 3, Population: 8, Cache: st,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			sj, err := json.Marshal(res.Records)
			if err != nil {
				t.Fatal(err)
			}
			fj, err := json.Marshal(opt.Front())
			if err != nil {
				t.Fatal(err)
			}
			return sj, fj, res.ComputedPoints + opt.ComputedPoints
		}
		sj, fj, _ := run()
		wsj, wfj, warmComputed := run()
		if !reflect.DeepEqual(sj, wsj) || !reflect.DeepEqual(fj, wfj) {
			t.Fatalf("%d-shard warm rerun drifted from its own cold run", shards)
		}
		return outcome{sweepJSON: sj, frontJSON: fj, warmComputed: warmComputed}
	}

	one := lifecycle(1)
	four := lifecycle(4)
	if string(one.sweepJSON) != string(four.sweepJSON) {
		t.Fatal("sweep records differ between 1-shard and 4-shard stores")
	}
	if string(one.frontJSON) != string(four.frontJSON) {
		t.Fatal("optimizer front differs between 1-shard and 4-shard stores")
	}
	if one.warmComputed != 0 || four.warmComputed != 0 {
		t.Fatalf("warm reruns computed %d and %d points, want 0 and 0",
			one.warmComputed, four.warmComputed)
	}
}
