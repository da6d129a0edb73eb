package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/sweep"
)

// TestChunkRuns pins planChunks on hand-made batches: unsigned runs
// between cache hits cut as before, and the sub-model group shapes of
// the registered smoke scenarios.
func TestChunkRuns(t *testing.T) {
	cases := []struct {
		n    int
		todo []int
		sigs []string
		size int
		// order is the expected dispatch order; nil means the identity.
		order []int
		want  []sweep.Chunk
	}{
		{0, nil, nil, 4, nil, nil},
		{5, []int{0, 1, 2, 3, 4}, []string{"", "", "", "", ""}, 3, nil,
			[]sweep.Chunk{{Start: 0, End: 3}, {Start: 3, End: 5}}},
		// Cache hits punch holes: runs on either side chunk independently.
		{7, []int{0, 1, 4, 5, 6}, []string{"", "", "", "", ""}, 4, nil,
			[]sweep.Chunk{{Start: 0, End: 2}, {Start: 4, End: 7}}},
		{3, []int{2}, []string{""}, 4, nil, []sweep.Chunk{{Start: 2, End: 3}}},
		// An analytic batch is planned without signatures at all.
		{7, []int{0, 1, 4, 5, 6}, nil, 4, nil,
			[]sweep.Chunk{{Start: 0, End: 2}, {Start: 4, End: 7}}},
		// paper-baseline's shape: four codes, each shared by a butler=true
		// and a butler=false point. Each chunk runs two codes, not four.
		{8, []int{0, 1, 2, 3, 4, 5, 6, 7}, []string{"A", "B", "C", "D", "A", "B", "C", "D"}, 4,
			[]int{0, 4, 1, 5, 2, 6, 3, 7},
			[]sweep.Chunk{{Start: 0, End: 4}, {Start: 4, End: 8}}},
		// embedded-box's shape: one code and one stack for every point.
		// The group outgrows the chunk size and stays whole.
		{6, []int{0, 1, 2, 3, 4, 5}, []string{"A", "A", "A", "A", "A", "A"}, 4, nil,
			[]sweep.Chunk{{Start: 0, End: 6}}},
		// A cached slot stays in place; a group moves up behind its first
		// slot, over the hole; a point with no signature stays in place.
		{6, []int{0, 1, 3, 4, 5}, []string{"A", "B", "", "A", "B"}, 3,
			[]int{0, 4, 1, 5, 2, 3},
			[]sweep.Chunk{{Start: 0, End: 2}, {Start: 2, End: 4}, {Start: 5, End: 6}}},
	}
	for _, c := range cases {
		order, got := planChunks(c.n, c.todo, c.sigs, c.size)
		want := c.order
		if want == nil {
			want = identity(c.n)
		}
		if !slices.Equal(order, want) || !reflect.DeepEqual(got, c.want) {
			t.Errorf("planChunks(%d, %v, %q, %d) = %v, %v; want %v, %v",
				c.n, c.todo, c.sigs, c.size, order, got, want, c.want)
		}
	}
}

// TestGather checks that a chunk's points are its slots' points in
// order, and that an ascending run of slots shares the batch's storage.
func TestGather(t *testing.T) {
	pts := make([]sweep.Point, 5)
	for i := range pts {
		pts[i].Index = 10 + i
	}
	for _, c := range []struct {
		slots []int
		share bool
	}{
		{[]int{1, 2, 3}, true},
		{[]int{4}, true},
		{[]int{0, 4, 1}, false},
		{[]int{2, 1}, false},
	} {
		got := gather(pts, c.slots)
		for k, i := range c.slots {
			if got[k].Index != pts[i].Index {
				t.Fatalf("gather(%v)[%d].Index = %d, want %d", c.slots, k, got[k].Index, pts[i].Index)
			}
		}
		if shared := &got[0] == &pts[c.slots[0]]; shared != c.share {
			t.Errorf("gather(%v) shares the batch's storage: %v, want %v", c.slots, shared, c.share)
		}
	}
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// FuzzChunkPlan checks planChunks' invariants on arbitrary batches.
// Each byte of slots is one batch slot: b%5 == 0 is a cache hit, 1 an
// uncached point with no signature, anything else an uncached point
// with one of six signatures. The seed corpus is random batches with
// random holes and chunk sizes 1–8, a third of them without signatures.
func FuzzChunkPlan(f *testing.F) {
	r := rand.New(rand.NewPCG(28, 1))
	for range 300 {
		slots := make([]byte, r.IntN(25))
		analytic := r.IntN(3) == 0
		for i := range slots {
			if analytic {
				slots[i] = byte(5*r.IntN(51) + r.IntN(2))
			} else {
				slots[i] = byte(r.IntN(256))
			}
		}
		f.Add(slots, uint8(r.IntN(8)))
	}
	f.Fuzz(func(t *testing.T, slots []byte, size uint8) {
		n := min(len(slots), 64)
		var (
			todo []int
			sigs []string
		)
		for i, b := range slots[:n] {
			switch b % 5 {
			case 0:
				continue
			case 1:
				sigs = append(sigs, "")
			default:
				sigs = append(sigs, fmt.Sprintf("sig%d", b/5%6))
			}
			todo = append(todo, i)
		}
		checkPlan(t, n, todo, sigs, 1+int(size%8))
	})
}

// checkPlan asserts what the dispatcher relies on from a chunk plan:
// every uncached slot lands in exactly one chunk and no cached slot in
// any; a signature never spans two chunks; a chunk holds at most size
// points unless it is exactly one signature's group; and the plan is a
// pure function of its inputs. A batch without signatures must be
// chunked exactly as before chunks followed sub-models.
func checkPlan(t *testing.T, n int, todo []int, sigs []string, size int) {
	t.Helper()
	order, chunks := planChunks(n, todo, sigs, size)
	if o2, c2 := planChunks(n, todo, sigs, size); !slices.Equal(order, o2) || !reflect.DeepEqual(chunks, c2) {
		t.Fatalf("plan differs between calls: %v %v vs %v %v", order, chunks, o2, c2)
	}
	if sorted := slices.Sorted(slices.Values(order)); !slices.Equal(sorted, identity(n)) {
		t.Fatalf("order %v is not a permutation of %d slots", order, n)
	}
	sigOf := make(map[int]string, len(todo))
	groupLen := make(map[string]int)
	for k, i := range todo {
		sigOf[i] = sigs[k]
		if sigs[k] != "" {
			groupLen[sigs[k]]++
		}
	}
	placed := make(map[int]int) // slot -> chunk
	chunkOf := make(map[string]int)
	prevEnd := 0
	for c, ch := range chunks {
		if ch.Start < prevEnd || ch.End <= ch.Start || ch.End > n {
			t.Fatalf("chunks %v are not ordered, disjoint, non-empty ranges of %d positions", chunks, n)
		}
		prevEnd = ch.End
		groups := make(map[string]bool)
		for _, i := range order[ch.Start:ch.End] {
			sig, ok := sigOf[i]
			if !ok {
				t.Fatalf("cached slot %d in chunk %v (order %v)", i, ch, order)
			}
			placed[i] = c
			groups[sig] = true
			if sig == "" {
				continue
			}
			if prev, seen := chunkOf[sig]; seen && prev != c {
				t.Fatalf("signature %q in chunks %d and %d: %v %v", sig, prev, c, order, chunks)
			}
			chunkOf[sig] = c
		}
		if ch.Len() > size {
			sig := sigOf[order[ch.Start]]
			if len(groups) != 1 || sig == "" || groupLen[sig] != ch.Len() {
				t.Fatalf("chunk %v holds %d points over size %d but is not one group", ch, ch.Len(), size)
			}
		}
	}
	if len(placed) != len(todo) {
		t.Fatalf("%d of %d uncached slots placed: %v %v", len(placed), len(todo), order, chunks)
	}
	if slices.ContainsFunc(sigs, func(s string) bool { return s != "" }) {
		return
	}
	if !slices.Equal(order, identity(n)) || !reflect.DeepEqual(chunks, oracleChunkRuns(todo, size)) {
		t.Fatalf("unsigned batch %v at size %d: plan %v %v, want identity and %v",
			todo, size, order, chunks, oracleChunkRuns(todo, size))
	}
}

// oracleChunkRuns is how the dispatcher chunked every batch before
// chunks followed sub-models: runs of consecutive uncached slots, each
// cut into chunks of at most size slots (one slot when size <= 0).
func oracleChunkRuns(todo []int, size int) []sweep.Chunk {
	size = max(size, 1)
	var out []sweep.Chunk
	for i := 0; i < len(todo); {
		k := i + 1
		for k < len(todo) && todo[k] == todo[k-1]+1 {
			k++
		}
		for lo := todo[i]; lo <= todo[k-1]; lo += size {
			out = append(out, sweep.Chunk{Start: lo, End: min(lo+size, todo[k-1]+1)})
		}
		i = k
	}
	return out
}

// specTwoCodes is a smoke grid over two LDPC codes (latency budgets 100
// and 200 bits) and one stack, each code shared by a butler=true and a
// butler=false point.
const specTwoCodes = `{
	"name": "two-codes",
	"axes": [
		{"name": "latency-budget-bits", "kind": "enum", "values": [100, 200]},
		{"name": "butler", "kind": "bool"}
	],
	"budget": "smoke"
}`

// TestFleetChunksFollowSubModels runs smoke-budget jobs through a
// distributed Manager at several chunk sizes, cold and with half the
// grid already stored, so the plan meets cache holes. The records must
// equal an in-process sweep.Run byte for byte, and the dispatcher must
// grant one lease per sub-model group packing: embedded-box's six
// points share one code and one stack, so at any chunk size they are
// one lease.
func TestFleetChunksFollowSubModels(t *testing.T) {
	const seed = 13
	parsed, err := spec.Parse([]byte(specTwoCodes))
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := parsed.Compile()
	if err != nil {
		t.Fatal(err)
	}
	type family struct {
		name string
		sc   sweep.Scenario
		req  Request
	}
	registered := func(name string) family {
		sc, err := sweep.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return family{name, sc, Request{Scenario: name, Budget: "smoke", Seed: seed}}
	}
	embedded := registered("embedded-box")
	twoCodes := family{"two-codes", compiled.Scenario, Request{Spec: json.RawMessage(specTwoCodes), Seed: seed}}
	cases := []struct {
		fam        family
		chunk      int
		halfStored bool
		leases     int
	}{
		{embedded, 1, false, 1},
		{embedded, 3, false, 1},
		{embedded, 4, false, 1},
		{embedded, 4, true, 1},
		{twoCodes, 1, false, 2},
		{twoCodes, 3, false, 2},
		{twoCodes, 4, false, 1},
		{twoCodes, 3, true, 2},
		// paper-baseline's four codes, two points each: two leases of
		// two codes, where cutting by grid index ran all four in both.
		{registered("paper-baseline"), 4, false, 2},
	}
	refs := map[string][]sweep.Record{}
	for _, c := range cases {
		sc := c.fam.sc
		t.Run(fmt.Sprintf("%s/chunk=%d/half-stored=%v", c.fam.name, c.chunk, c.halfStored), func(t *testing.T) {
			budget := sweep.SmokeBudget()
			ref, ok := refs[sc.Name]
			if !ok {
				res, err := sweep.Run(context.Background(), sc, sweep.Config{Workers: 2, Seed: seed, Budget: budget})
				if err != nil {
					t.Fatal(err)
				}
				ref = res.Records
				refs[sc.Name] = ref
			}
			cache := &memCache{m: make(map[string]sweep.Record)}
			stored := 0
			if c.halfStored {
				keyer := sweep.NewKeyer(sc.Name, budget, seed)
				for i, pt := range sc.Points() {
					if i%2 == 0 {
						rec := ref[i]
						rec.Pareto = false
						cache.Put(keyer.Key(pt), rec)
						stored++
					}
				}
			}
			m := New(Options{JobWorkers: 1, Distributed: true, ChunkPoints: c.chunk, LeaseTTL: time.Minute, Cache: cache})
			defer m.Shutdown(context.Background())
			wctx, stopWorkers := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			for _, name := range []string{"w1", "w2"} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					RunWorker(wctx, m, WorkerOptions{Name: name, Poll: 5 * time.Millisecond, Workers: 1})
				}()
			}
			defer func() {
				stopWorkers()
				wg.Wait()
			}()

			v, err := m.Submit(c.fam.req)
			if err != nil {
				t.Fatal(err)
			}
			done := waitState(t, m, v.ID, StateDone)
			if done.Progress.Cached != stored {
				t.Fatalf("job served %d points from the store, want %d", done.Progress.Cached, stored)
			}
			res, err := m.Result(v.ID)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := json.Marshal(res.Records)
			want, _ := json.Marshal(ref)
			if string(got) != string(want) {
				t.Fatalf("fleet records differ from sweep.Run:\nfleet:  %s\nsingle: %s", got, want)
			}
			issued := m.met.leases.With("issued").Value()
			completed := m.met.leases.With("completed").Value()
			if issued != float64(c.leases) || completed != float64(c.leases) {
				t.Fatalf("leases issued %v, completed %v; want %d each", issued, completed, c.leases)
			}
		})
	}
}
