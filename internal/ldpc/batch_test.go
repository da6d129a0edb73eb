package ldpc

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// confLLRs builds a deterministic batch of channel LLR vectors. scale
// positions the batch in the decoder's operating regimes: ~1 gives a
// mix of converging and failing lanes, >>1 drives the saturated
// min-sum shortcut, <<1 keeps every lane non-converged at MaxIter.
func confLLRs(seed uint64, count, n int, scale, noise float64) [][]float64 {
	out := make([][]float64, count)
	for i := range out {
		stream := rng.New(seed).Split(uint64(i) + 1)
		llr := make([]float64, n)
		for v := range llr {
			llr[v] = scale * (1 + noise*stream.Norm())
		}
		out[i] = llr
	}
	return out
}

// lanePosterior reads codeword lane's posterior for variable v through
// the slot map: after a flooding decode the codeword may sit in any slot.
func (b *BatchDecoder) lanePosterior(lane, v int) float64 {
	for slot, l := range b.laneOf[:b.lanes] {
		if int(l) == lane {
			return b.posterior[v*b.stride+slot]
		}
	}
	panic("ldpc: lane not in the slot map")
}

// assertLaneMatchesScalar compares one batch lane against a fresh
// scalar decode of the same input, bit for bit: hard decisions,
// convergence flag, iteration count and the full posterior vector.
func assertLaneMatchesScalar(t *testing.T, code *Code, alg Algorithm, sched Schedule, maxIter int,
	b *BatchDecoder, res BatchResult, lane int, llr []float64) {
	t.Helper()
	d := NewDecoder(code, alg, maxIter)
	d.Sched = sched
	want := d.Decode(llr)
	if res.Converged[lane] != want.Converged {
		t.Fatalf("lane %d: converged=%v, scalar=%v", lane, res.Converged[lane], want.Converged)
	}
	if res.Iterations[lane] != want.Iterations {
		t.Fatalf("lane %d: iterations=%d, scalar=%d", lane, res.Iterations[lane], want.Iterations)
	}
	for v := 0; v < code.NumVars; v++ {
		if res.Hard[lane][v] != want.Hard[v] {
			t.Fatalf("lane %d: hard[%d]=%d, scalar=%d", lane, v, res.Hard[lane][v], want.Hard[v])
		}
		got := b.lanePosterior(lane, v)
		ref := d.Posterior()[v]
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("lane %d: posterior[%d]=%x (%g), scalar=%x (%g)",
				lane, v, math.Float64bits(got), got, math.Float64bits(ref), ref)
		}
	}
}

// TestDecodeBatchMatchesScalar is the decoder conformance suite: every
// algorithm x schedule variant, across full, single-lane and ragged
// batch sizes, in the normal, saturated-shortcut and non-converging
// operating regimes, must be bit-exact with the scalar Decode oracle.
func TestDecodeBatchMatchesScalar(t *testing.T) {
	coupled := LiftConvolutional(PaperSpreading(), 8, 13, 3)
	block := Lift(Regular48(), 24, 9)
	regimes := []struct {
		name         string
		scale, noise float64
		wantStuck    bool // at least one lane must hit MaxIter unconverged
	}{
		{"mixed", 4, 1.1, false},
		{"saturated", 40, 0.2, false},
		{"nonconverging", 0.3, 3.5, true},
	}
	for _, tc := range []struct {
		name string
		code *Code
	}{{"coupled", coupled}, {"block", block}} {
		for _, alg := range []Algorithm{SumProduct, MinSum} {
			for _, sched := range []Schedule{Flooding, Layered} {
				for _, size := range []int{1, 16, 64, 23} {
					for _, reg := range regimes {
						name := tc.name + "/" + alg.String() + "/" + sched.String() + "/" +
							reg.name + "/" + string(rune('0'+size/10)) + string(rune('0'+size%10))
						t.Run(name, func(t *testing.T) {
							t.Parallel()
							const maxIter = 8
							llrs := confLLRs(uint64(size)*1000+uint64(alg), size, tc.code.NumVars, reg.scale, reg.noise)
							b := NewBatchDecoder(tc.code, alg, maxIter, size)
							b.Sched = sched
							res := b.Decode(llrs)
							stuck := false
							for lane := range llrs {
								if !res.Converged[lane] {
									stuck = true
								}
								assertLaneMatchesScalar(t, tc.code, alg, sched, maxIter, b, res, lane, llrs[lane])
							}
							if reg.wantStuck && !stuck {
								t.Fatal("non-converging regime produced no max-iteration lane; regime coverage lost")
							}
						})
					}
				}
			}
		}
	}
}

// TestDecodeBatchReuse decodes two different batches (of different
// sizes) through one BatchDecoder: stale messages, hard bits or lane
// state from the first call must not leak into the second.
func TestDecodeBatchReuse(t *testing.T) {
	code := LiftConvolutional(PaperSpreading(), 8, 13, 3)
	b := NewBatchDecoder(code, SumProduct, 8, 32)
	first := confLLRs(101, 32, code.NumVars, 0.5, 2.5) // leaves messages mid-flight everywhere
	b.Decode(first)
	second := confLLRs(202, 11, code.NumVars, 4, 1.1)
	res := b.Decode(second)
	for lane := range second {
		assertLaneMatchesScalar(t, code, SumProduct, Flooding, 8, b, res, lane, second[lane])
	}
}

// TestWindowDecodeBatchMatchesScalar pins the batched sliding-window
// decoder to the scalar WindowDecoder.Decode, per lane and per variant.
func TestWindowDecodeBatchMatchesScalar(t *testing.T) {
	code := LiftConvolutional(PaperSpreading(), 8, 13, 3)
	for _, alg := range []Algorithm{SumProduct, MinSum} {
		for _, sched := range []Schedule{Flooding, Layered} {
			t.Run(alg.String()+"/"+sched.String(), func(t *testing.T) {
				t.Parallel()
				const maxIter, w = 6, 4
				llrs := confLLRs(7+uint64(alg)*13+uint64(sched), 17, code.NumVars, 2.2, 1.4)
				wd := NewWindowDecoder(code, w, alg, maxIter)
				wd.SetSchedule(sched)
				got := wd.DecodeBatch(llrs)
				ref := NewWindowDecoder(code, w, alg, maxIter)
				ref.SetSchedule(sched)
				for lane, llr := range llrs {
					want := ref.Decode(llr)
					for v := range want {
						if got[lane][v] != want[v] {
							t.Fatalf("%v/%v lane %d: hard[%d]=%d, scalar=%d",
								alg, sched, lane, v, got[lane][v], want[v])
						}
					}
				}
			})
		}
	}
}

// slotsPermuted reports whether the decoder's first n slots no longer
// hold the codewords in input order, i.e. compaction moved lanes.
func slotsPermuted(b *BatchDecoder, n int) bool {
	for slot, l := range b.laneOf[:n] {
		if int(l) != slot {
			return true
		}
	}
	return false
}

// TestWindowDecodeBatchCompaction decodes a full 64-lane batch of the
// smoke-budget code (N=40, L=16) at an operating point where lanes
// converge at scattered iterations, so the flooding decode packs live
// lanes into the low register groups mid-decode. Every lane must stay
// bit-exact with the scalar oracle when read through the slot map:
// BatchDecoder.Decode's hard decisions, iterations and posteriors, and
// the sliding window's hard decisions. It runs at the CPU's kernel
// width and again with the 4-lane AVX2 kernels forced, so both group
// sizes are covered on a CPU with AVX-512. It must not run in parallel:
// it switches package-level kernel state.
func TestWindowDecodeBatchCompaction(t *testing.T) {
	code := LiftConvolutional(PaperSpreading(), 16, 40, 3)
	const lanes, w = MaxBatchLanes, 5
	// All-zero codewords over BPSK/AWGN, drawn as SimulateBER draws them.
	channel := func(seed uint64, ebN0 float64) [][]float64 {
		sigma := NoiseSigma(ebN0, code.Rate())
		return confLLRs(seed, lanes, code.NumVars, 2/(sigma*sigma), sigma)
	}
	check := func(t *testing.T) {
		llrs := channel(29, 3.5)
		b := NewBatchDecoder(code, SumProduct, 20, lanes)
		res := b.Decode(llrs)
		iters := map[int]bool{}
		for lane := range llrs {
			iters[res.Iterations[lane]] = true
			assertLaneMatchesScalar(t, code, SumProduct, Flooding, 20, b, res, lane, llrs[lane])
		}
		if len(iters) < 4 || !slotsPermuted(b, lanes) {
			t.Fatalf("%d distinct iteration counts, slots permuted %v: the operating point no longer exercises compaction",
				len(iters), slotsPermuted(b, lanes))
		}

		llrs = channel(31, 3)
		wd := NewWindowDecoder(code, w, SumProduct, 20)
		got := wd.DecodeBatch(llrs)
		if !slotsPermuted(wd.batch, lanes) {
			t.Fatal("window decode left every lane in its input slot: compaction never fired")
		}
		ref := NewWindowDecoder(code, w, SumProduct, 20)
		for lane, llr := range llrs {
			want := ref.Decode(llr)
			for v := range want {
				if got[lane][v] != want[v] {
					t.Fatalf("lane %d: hard[%d]=%d, scalar=%d", lane, v, got[lane][v], want[v])
				}
			}
		}
	}
	t.Run("cpu", check)
	restore, ok := forceAVX2Kernels()
	defer restore()
	if ok {
		t.Run("avx2", check)
	}
}

// TestBatchDecoderLaneBounds pins the panic contract on batch sizes.
func TestBatchDecoderLaneBounds(t *testing.T) {
	code := Lift(Regular48(), 12, 1)
	b := NewBatchDecoder(code, SumProduct, 4, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized batch did not panic")
		}
	}()
	b.Decode(make([][]float64, 9))
}

// fuzzCode is the small shared code of the decode fuzz harness (built
// once; the lift search is deterministic).
var fuzzCode = LiftConvolutional(PaperSpreading(), 4, 7, 3)

// FuzzDecodeBatchMatchesScalar feeds raw fuzzed bytes reinterpreted as
// float64 channel LLRs — including NaN, infinities, denormals and the
// saturation/zero-product boundary regions — through both the batch
// and the scalar decoder and requires bit-identical results.
func FuzzDecodeBatchMatchesScalar(f *testing.F) {
	n := fuzzCode.NumVars
	f.Add([]byte{0x00}, uint8(3), false, false)
	f.Add([]byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 0, 0x3f, 0xe0, 0, 0, 0, 0, 0, 1}, uint8(4), false, false) // +Inf / ~0.5 mix
	f.Add([]byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1}, uint8(2), true, false)                                // NaN payloads
	f.Add([]byte{0x40, 0x30, 0, 0, 0, 0, 0, 0}, uint8(7), false, true)                                // 16.0 everywhere: saturated
	f.Add([]byte{0x3c, 0x00, 0, 0, 0, 0, 0, 0, 0x80}, uint8(5), true, true)                           // tiny magnitudes: zero-product path
	f.Fuzz(func(t *testing.T, data []byte, lanes uint8, minsum, layered bool) {
		if len(data) == 0 {
			t.Skip()
		}
		nLanes := int(lanes%64) + 1
		llrs := make([][]float64, nLanes)
		for l := range llrs {
			llr := make([]float64, n)
			for v := range llr {
				var u uint64
				for k := 0; k < 8; k++ {
					u = u<<8 | uint64(data[(l*n*8+v*8+k)%len(data)])
				}
				llr[v] = math.Float64frombits(u)
			}
			llrs[l] = llr
		}
		alg, sched := SumProduct, Flooding
		if minsum {
			alg = MinSum
		}
		if layered {
			sched = Layered
		}
		const maxIter = 4
		b := NewBatchDecoder(fuzzCode, alg, maxIter, nLanes)
		b.Sched = sched
		res := b.Decode(llrs)
		d := NewDecoder(fuzzCode, alg, maxIter)
		d.Sched = sched
		for lane, llr := range llrs {
			want := d.Decode(llr)
			if res.Converged[lane] != want.Converged || res.Iterations[lane] != want.Iterations {
				t.Fatalf("lane %d: (converged, iters) = (%v, %d), scalar (%v, %d)",
					lane, res.Converged[lane], res.Iterations[lane], want.Converged, want.Iterations)
			}
			for v := 0; v < n; v++ {
				if res.Hard[lane][v] != want.Hard[v] {
					t.Fatalf("lane %d: hard[%d]=%d, scalar=%d", lane, v, res.Hard[lane][v], want.Hard[v])
				}
				// Posteriors must agree bit-for-bit, except that two NaNs
				// of any payload count as equal: NaN payload propagation
				// depends on the operand order of commutative float ops,
				// which the Go spec leaves to the compiler (it even shifts
				// with fuzz coverage instrumentation), so the scalar
				// oracle's own payloads are not build-stable. Payloads
				// never influence control flow — every comparison treats
				// all NaNs identically — so NaN-ness is the invariant.
				gf, rf := b.lanePosterior(lane, v), d.Posterior()[v]
				if g, r := math.Float64bits(gf), math.Float64bits(rf); g != r && !(math.IsNaN(gf) && math.IsNaN(rf)) {
					t.Fatalf("lane %d: posterior[%d] bits %x, scalar %x", lane, v, g, r)
				}
			}
		}
	})
}
