package ldpc

import (
	"fmt"
	"math"
	"math/bits"
)

// allOnesF64 is the all-ones float64 bit pattern, the "lane active"
// value of the blend masks the vector kernels consume.
var allOnesF64 = math.Float64frombits(^uint64(0))

// MaxBatchLanes is the largest codeword batch a BatchDecoder can decode
// in lockstep. Lane membership masks are single uint64 words, which caps
// the batch at 64; SimulateBER's berBatch constant is exactly this wide.
const MaxBatchLanes = 64

// laneQuad is the baseline SIMD register width in float64 lanes. Batch
// buffers are padded to a multiple of the active lane width so vector
// kernels never need a scalar tail loop.
const laneQuad = 4

// laneWidth is the SIMD register width the active kernels consume: 4
// float64 lanes (one YMM register) by default, raised to 8 on CPUs
// where the AVX-512 kernels are enabled (see batch_fast_amd64.go).
// Stride and width rounding use it so a kernel never reads a partial
// register off the end of a row.
var laneWidth = laneQuad

// BatchDecoder decodes up to MaxBatchLanes codewords in lockstep over
// struct-of-arrays message buffers: every Tanner-graph edge (and every
// variable) owns a contiguous row of per-lane float64 values, so the
// check and variable updates sweep flat slices instead of chasing the
// per-codeword pointer graph the scalar Decoder walks. The arithmetic
// is bit-exact with the scalar path: both are defined by the same
// kernels (spCheckKernel, msCheckKernel, layeredSumProduct), applied
// per lane, and the vectorized fast path reproduces the scalar
// operation sequence exactly (see batch_amd64.s).
//
// A BatchDecoder owns reusable buffers and is not safe for concurrent
// use; create one per worker.
type BatchDecoder struct {
	code *Code
	// Alg selects the check update rule.
	Alg Algorithm
	// Sched selects the message-passing schedule (default Flooding).
	Sched Schedule
	// MaxIter bounds the iterations (default 50).
	MaxIter int

	lanes  int // configured lane capacity
	stride int // lanes rounded up to a laneQuad multiple
	// width is the lane count of the decode in flight rounded up to a
	// laneQuad multiple: the vector kernels process exactly this many
	// lanes per row (the quads past the live lanes are skipped even
	// when stride is larger).
	width int

	// Edge-major SoA message state: row e*stride holds edge e's value
	// for every lane.
	chkToVar []float64
	varToChk []float64
	// Variable-major SoA state: row v*stride.
	chLLR     []float64
	posterior []float64
	// hardBits holds, per variable, a lane bitmask of the current hard
	// decisions (bit l set = lane l decided 1). The whole-batch syndrome
	// is a XOR fold over these words.
	hardBits []uint64
	// activeVec mirrors the active-lane mask as per-lane all-ones /
	// all-zeros float64 bit patterns, the blend-mask form the vector
	// variable update consumes for masked posterior stores.
	activeVec []float64

	// laneOf maps each slot (column of the SoA rows) to the codeword
	// it holds, an index into the decode's input batch. Decode resets
	// it to input order; decodeRangeBatch permutes it when it packs the
	// live lanes into the low register groups (see compact). Everything
	// read in codeword order — hard decisions, convergence, iteration
	// counts — goes through it.
	laneOf [MaxBatchLanes]uint8

	// tanh holds elementwise tanhHalf(varToChk) for the vectorized
	// sum-product update (edge-major rows, same layout as varToChk).
	tanh []float64
	// fallback collects, per check of the active range, a lane bitmask
	// of (check, lane) pairs the vector kernel routed to the scalar
	// kernel (near-zero tanh products needing the O(deg^2) recompute).
	fallback []uint64

	// Per-lane gather scratch for the generic (non-vector) paths.
	scratch []float64
	outBuf  []float64
	tanhBuf []float64

	// Per-codeword outcome, indexed in input order (not by slot).
	iterations []int
	converged  []bool
	hard       [][]uint8
}

// BatchResult reports a batch decode outcome. All slices are owned by
// the decoder and valid until its next decode call.
type BatchResult struct {
	// Hard holds per-lane bit decisions: Hard[l][v] is codeword l's
	// decision for variable v.
	Hard [][]uint8
	// Converged reports, per lane, whether the syndrome check passed.
	Converged []bool
	// Iterations actually run per lane (converged lanes stop early;
	// the rest run MaxIter).
	Iterations []int
}

// NewBatchDecoder creates a lockstep decoder for up to lanes codewords
// (clamped to [1, MaxBatchLanes]).
func NewBatchDecoder(code *Code, alg Algorithm, maxIter, lanes int) *BatchDecoder {
	if maxIter <= 0 {
		maxIter = 50
	}
	if lanes < 1 {
		lanes = 1
	}
	if lanes > MaxBatchLanes {
		lanes = MaxBatchLanes
	}
	stride := (lanes + laneWidth - 1) &^ (laneWidth - 1)
	maxDeg := 0
	for chk := 0; chk < code.NumChecks; chk++ {
		if deg := int(code.checkPtr[chk+1] - code.checkPtr[chk]); deg > maxDeg {
			maxDeg = deg
		}
	}
	edges := code.NumEdges()
	return &BatchDecoder{
		code:       code,
		Alg:        alg,
		MaxIter:    maxIter,
		lanes:      lanes,
		stride:     stride,
		chkToVar:   make([]float64, edges*stride),
		varToChk:   make([]float64, edges*stride),
		chLLR:      make([]float64, code.NumVars*stride),
		posterior:  make([]float64, code.NumVars*stride),
		hardBits:   make([]uint64, code.NumVars),
		activeVec:  make([]float64, stride),
		tanh:       make([]float64, edges*stride),
		fallback:   make([]uint64, code.NumChecks),
		scratch:    make([]float64, maxDeg),
		outBuf:     make([]float64, maxDeg),
		tanhBuf:    make([]float64, maxDeg),
		iterations: make([]int, lanes),
		converged:  make([]bool, lanes),
	}
}

// Decode runs lockstep flooding (or layered) BP on a batch of channel
// LLR vectors, one per lane. len(llrs) must be in [1, lanes] — ragged
// tail batches simply occupy fewer lanes. Each lane early-terminates
// independently on a zero syndrome, exactly like the scalar Decode.
// The result rows are in input order whatever slots the lanes ended in.
func (b *BatchDecoder) Decode(llrs [][]float64) BatchResult {
	c := b.code
	n := len(llrs)
	b.load(llrs)
	b.decodeRangeBatch(0, c.NumChecks, 0, c.NumVars, n)
	return BatchResult{
		Hard:       b.hardRows(n, 0, c.NumVars),
		Converged:  b.converged[:n],
		Iterations: b.iterations[:n],
	}
}

// load validates a batch, resets the slot map to input order and
// scatters each codeword's channel LLRs into its slot's column of the
// SoA input buffer.
func (b *BatchDecoder) load(llrs [][]float64) {
	c := b.code
	if n := len(llrs); n < 1 || n > b.lanes {
		panic(fmt.Sprintf("ldpc: batch size %d outside [1, %d]", n, b.lanes))
	}
	s := b.stride
	for l, llr := range llrs {
		if len(llr) != c.NumVars {
			panic(fmt.Sprintf("ldpc: lane %d LLR length %d, want %d", l, len(llr), c.NumVars))
		}
		b.laneOf[l] = uint8(l)
		for v, x := range llr {
			b.chLLR[v*s+l] = x
		}
	}
}

// laneMask returns the membership mask of an n-lane batch.
func laneMask(n int) uint64 { return uint64(1)<<uint(n) - 1 }

// decodeRangeBatch is the batched counterpart of decodeRange: lockstep
// BP over checks [chkLo, chkHi) and variables [varLo, varHi) for the
// first nLanes slots, reading channel LLRs from the SoA chLLR buffer.
// Per-codeword results land in b.converged / b.iterations; per-slot
// results in b.hardBits / b.posterior. Flooding may leave the lanes
// permuted across slots (b.laneOf records where each codeword went).
func (b *BatchDecoder) decodeRangeBatch(chkLo, chkHi, varLo, varHi, nLanes int) {
	if b.Sched == Layered {
		b.decodeLayeredBatch(chkLo, chkHi, varLo, varHi, nLanes)
		return
	}
	c := b.code
	s := b.stride

	// Clear residual check messages on edges touching the active
	// variables, then initialise variable-to-check messages with the
	// channel LLRs (whole padded rows: the pad lanes are never read,
	// and full-row operations keep the loops flat).
	for v := varLo; v < varHi; v++ {
		for _, e := range c.VarEdges(v) {
			row := b.chkToVar[int(e)*s : int(e)*s+s]
			for i := range row {
				row[i] = 0
			}
		}
	}
	for chk := chkLo; chk < chkHi; chk++ {
		for e := c.checkPtr[chk]; e < c.checkPtr[chk+1]; e++ {
			copy(b.varToChk[int(e)*s:int(e)*s+s], b.chLLR[int(c.checkVar[e])*s:int(c.checkVar[e])*s+s])
		}
	}

	active := laneMask(nLanes)
	b.width = (nLanes + laneWidth - 1) &^ (laneWidth - 1)
	for l := 0; l < nLanes; l++ {
		b.converged[l] = false
		b.iterations[l] = b.MaxIter
	}

	for iter := 0; iter < b.MaxIter && active != 0; iter++ {
		b.batchCheckUpdate(chkLo, chkHi, active)
		b.batchVarUpdate(chkLo, chkHi, varLo, varHi, active)
		bad := b.batchSyndrome(chkLo, chkHi, active)
		if newly := active &^ bad; newly != 0 {
			b.retire(newly, iter)
			active = bad
			if active != 0 && iter+1 < b.MaxIter {
				active = b.compact(active, chkLo, chkHi, varLo, varHi)
			}
		}
	}
}

// retire records the slots of newly as converged after iteration iter
// (0-based), under the codewords they hold.
func (b *BatchDecoder) retire(newly uint64, iter int) {
	for rem := newly; rem != 0; rem &= rem - 1 {
		l := b.laneOf[bits.TrailingZeros64(rem)]
		b.converged[l] = true
		b.iterations[l] = iter + 1
	}
}

// compact packs the live slots of active into the lowest slots when
// they occupy more register groups than ceil(live/laneWidth): the
// kernels skip a group only once all its lanes have retired, so a few
// stragglers spread over many groups would otherwise cost full groups.
// Each live slot at or above the packed boundary trades places with a
// retired slot below it. Per-lane arithmetic is element-wise and
// independent of the slot, so moving a lane's state changes no output
// bit. Only the state the rest of the range and the later window
// positions read moves: the range's varToChk rows, the posteriors and
// hard decisions of [varLo, varHi), and the channel LLRs from varLo
// on. A retired lane's messages are dead, so varToChk is overwritten
// rather than swapped; chkToVar is not moved at all, because the next
// check update rebuilds it from varToChk before anything reads it.
// compact returns the packed active mask and shrinks b.width to the
// packed groups.
func (b *BatchDecoder) compact(active uint64, chkLo, chkHi, varLo, varHi int) uint64 {
	live := bits.OnesCount64(active)
	w := laneWidth
	packed := laneMask(live)
	width := (live + w - 1) &^ (w - 1)
	groups := 0
	for g := 0; g < b.width; g += w {
		if active>>uint(g)&laneMask(w) != 0 {
			groups++
		}
	}
	if groups*w <= width {
		return active
	}
	// Pair the k-th hole below the boundary with the k-th live slot at
	// or above it.
	var holes, movers [MaxBatchLanes / 2]int
	k := 0
	for h, m := packed&^active, active&^packed; m != 0; h, m = h&(h-1), m&(m-1) {
		holes[k], movers[k] = bits.TrailingZeros64(h), bits.TrailingZeros64(m)
		k++
	}
	hs, ms := holes[:k], movers[:k]

	c := b.code
	s := b.stride
	eLo, eHi := int(c.checkPtr[chkLo])*s, int(c.checkPtr[chkHi])*s
	moveLanes(b.varToChk[eLo:eHi], s, hs, ms)
	swapLanes(b.posterior[varLo*s:varHi*s], s, hs, ms)
	swapLanes(b.chLLR[varLo*s:c.NumVars*s], s, hs, ms)
	hard := b.hardBits[varLo:varHi]
	for v, x := range hard {
		for i, h := range hs {
			d := (x>>uint(h) ^ x>>uint(ms[i])) & 1
			x ^= d<<uint(h) | d<<uint(ms[i])
		}
		hard[v] = x
	}
	for i, h := range hs {
		b.laneOf[h], b.laneOf[ms[i]] = b.laneOf[ms[i]], b.laneOf[h]
	}
	b.width = width
	return packed
}

// moveLanes copies lane movers[i] onto lane holes[i] in every
// stride-wide row of rows.
func moveLanes(rows []float64, stride int, holes, movers []int) {
	for r := 0; r < len(rows); r += stride {
		row := rows[r : r+stride]
		for i, h := range holes {
			row[h] = row[movers[i]]
		}
	}
}

// swapLanes exchanges lanes holes[i] and movers[i] in every
// stride-wide row of rows.
func swapLanes(rows []float64, stride int, holes, movers []int) {
	for r := 0; r < len(rows); r += stride {
		row := rows[r : r+stride]
		for i, h := range holes {
			m := movers[i]
			row[h], row[m] = row[m], row[h]
		}
	}
}

// syncActiveVec mirrors the active-lane bitmask into the blend-mask
// float64 form (all-ones / all-zeros per lane) the vector kernels use.
func (b *BatchDecoder) syncActiveVec(active uint64) {
	for l := range b.activeVec {
		if active&(1<<uint(l)) != 0 {
			b.activeVec[l] = allOnesF64
		} else {
			b.activeVec[l] = 0
		}
	}
}

// batchCheckUpdate applies the configured check rule to every active
// lane of checks [chkLo, chkHi).
func (b *BatchDecoder) batchCheckUpdate(chkLo, chkHi int, active uint64) {
	if useBatchASM && b.Alg == SumProduct {
		b.batchCheckUpdateFast(chkLo, chkHi, active)
		return
	}
	c := b.code
	s := b.stride
	for chk := chkLo; chk < chkHi; chk++ {
		lo, hi := c.checkPtr[chk], c.checkPtr[chk+1]
		deg := int(hi - lo)
		msgs := b.scratch[:deg]
		out := b.outBuf[:deg]
		for rem := active; rem != 0; rem &= rem - 1 {
			l := bits.TrailingZeros64(rem)
			for k := 0; k < deg; k++ {
				msgs[k] = b.varToChk[(int(lo)+k)*s+l]
			}
			if b.Alg == SumProduct {
				spCheckKernel(msgs, out, b.tanhBuf)
			} else {
				msCheckKernel(msgs, out, minSumScale)
			}
			for k := 0; k < deg; k++ {
				b.chkToVar[(int(lo)+k)*s+l] = out[k]
			}
		}
	}
}

// batchCheckUpdateFast is the AVX2 flooding sum-product check update:
// the vector kernel handles every (check, quad) with at least one
// active lane, and the rare (check, lane) pairs it flags (near-zero
// tanh products needing the O(deg^2) recompute) are redone through the
// scalar kernel, so the combined result is bit-exact with the scalar
// path on every lane.
func (b *BatchDecoder) batchCheckUpdateFast(chkLo, chkHi int, active uint64) {
	c := b.code
	s := b.stride
	n := chkHi - chkLo
	b.syncActiveVec(active)
	spCheckRange(c.checkPtr[chkLo:chkHi+1], b.varToChk, b.tanh, b.chkToVar,
		b.width, s, b.activeVec, b.fallback[:n])
	for i := 0; i < n; i++ {
		fb := b.fallback[i] & active
		if fb == 0 {
			continue
		}
		lo, hi := c.checkPtr[chkLo+i], c.checkPtr[chkLo+i+1]
		deg := int(hi - lo)
		msgs := b.scratch[:deg]
		out := b.outBuf[:deg]
		for rem := fb; rem != 0; rem &= rem - 1 {
			l := bits.TrailingZeros64(rem)
			for k := 0; k < deg; k++ {
				msgs[k] = b.varToChk[(int(lo)+k)*s+l]
			}
			spCheckKernel(msgs, out, b.tanhBuf)
			for k := 0; k < deg; k++ {
				b.chkToVar[(int(lo)+k)*s+l] = out[k]
			}
		}
	}
}

// batchVarUpdate refreshes variable messages, posteriors and hard
// decisions for the active lanes of variables [varLo, varHi).
func (b *BatchDecoder) batchVarUpdate(chkLo, chkHi, varLo, varHi int, active uint64) {
	if useBatchASM {
		b.batchVarUpdateFast(varLo, varHi, active)
		return
	}
	c := b.code
	s := b.stride
	for v := varLo; v < varHi; v++ {
		edges := c.VarEdges(v)
		hb := b.hardBits[v]
		for rem := active; rem != 0; rem &= rem - 1 {
			l := bits.TrailingZeros64(rem)
			sum := b.chLLR[v*s+l]
			for _, e := range edges {
				sum += b.chkToVar[int(e)*s+l]
			}
			b.posterior[v*s+l] = sum
			if sum < 0 {
				hb |= 1 << uint(l)
			} else {
				hb &^= 1 << uint(l)
			}
			for _, e := range edges {
				b.varToChk[int(e)*s+l] = clamp(sum-b.chkToVar[int(e)*s+l], -llrClamp, llrClamp)
			}
		}
		b.hardBits[v] = hb
	}
}

// batchVarUpdateFast is the AVX2 variable update. It is alg- and
// schedule-independent within flooding: posterior sums, masked hard
// decisions and clamped extrinsic messages, identical bit for bit to
// the generic path on every active lane.
func (b *BatchDecoder) batchVarUpdateFast(varLo, varHi int, active uint64) {
	c := b.code
	s := b.stride
	b.syncActiveVec(active)
	varUpdRange(c.varPtr[varLo:varHi+1], c.varEdge,
		b.chLLR[varLo*s:], b.chkToVar, b.varToChk, b.posterior[varLo*s:],
		b.width, s, b.activeVec, b.hardBits[varLo:varHi], active)
}

// batchSyndrome returns the lanes of active with at least one
// unsatisfied check in [chkLo, chkHi), as a bitmask.
func (b *BatchDecoder) batchSyndrome(chkLo, chkHi int, active uint64) uint64 {
	c := b.code
	var bad uint64
	for chk := chkLo; chk < chkHi; chk++ {
		var parity uint64
		for _, v := range c.CheckNeighbors(chk) {
			parity ^= b.hardBits[v]
		}
		bad |= parity & active
		if bad == active {
			break
		}
	}
	return bad
}

// decodeLayeredBatch is the layered-schedule batch path: the scalar
// layered sweep applied lane by lane over the SoA state. Layered BP is
// inherently sequential across checks, so it gains batch memory reuse
// but no lane vectorization; flooding is the throughput schedule.
func (b *BatchDecoder) decodeLayeredBatch(chkLo, chkHi, varLo, varHi, nLanes int) {
	c := b.code
	s := b.stride

	for v := varLo; v < varHi; v++ {
		for _, e := range c.VarEdges(v) {
			row := b.chkToVar[int(e)*s : int(e)*s+s]
			for i := range row {
				row[i] = 0
			}
		}
		copy(b.posterior[v*s:v*s+s], b.chLLR[v*s:v*s+s])
	}

	active := laneMask(nLanes)
	for l := 0; l < nLanes; l++ {
		b.converged[l] = false
		b.iterations[l] = b.MaxIter
	}

	for iter := 0; iter < b.MaxIter && active != 0; iter++ {
		for chk := chkLo; chk < chkHi; chk++ {
			lo, hi := c.checkPtr[chk], c.checkPtr[chk+1]
			deg := int(hi - lo)
			msgs := b.scratch[:deg]
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros64(rem)
				for k := 0; k < deg; k++ {
					e := int(lo) + k
					msgs[k] = b.posterior[int(c.checkVar[e])*s+l] - b.chkToVar[e*s+l]
				}
				if b.Alg == SumProduct {
					layeredSumProduct(msgs, b.tanhBuf)
				} else {
					layeredMinSum(msgs)
				}
				for k := 0; k < deg; k++ {
					e := int(lo) + k
					v := int(c.checkVar[e])
					newMsg := clamp(msgs[k], -llrClamp, llrClamp)
					b.posterior[v*s+l] += newMsg - b.chkToVar[e*s+l]
					b.chkToVar[e*s+l] = newMsg
				}
			}
		}
		// Hard decisions and syndrome.
		for v := varLo; v < varHi; v++ {
			hb := b.hardBits[v]
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros64(rem)
				if b.posterior[v*s+l] < 0 {
					hb |= 1 << uint(l)
				} else {
					hb &^= 1 << uint(l)
				}
			}
			b.hardBits[v] = hb
		}
		bad := b.batchSyndrome(chkLo, chkHi, active)
		if newly := active &^ bad; newly != 0 {
			b.retire(newly, iter)
			active = bad
		}
	}
}

// hardRows transposes the per-variable hard-decision bitmasks into
// per-codeword byte slices for [varLo, varHi) (other positions stay
// zero), mapping each slot back to its codeword. The row buffers are
// reused across calls.
func (b *BatchDecoder) hardRows(nLanes, varLo, varHi int) [][]uint8 {
	c := b.code
	if cap(b.hard) < nLanes {
		b.hard = make([][]uint8, nLanes)
	}
	b.hard = b.hard[:nLanes]
	for l := range b.hard {
		if b.hard[l] == nil {
			b.hard[l] = make([]uint8, c.NumVars)
		}
	}
	for v := varLo; v < varHi; v++ {
		bits := b.hardBits[v]
		for l := 0; l < nLanes; l++ {
			b.hard[b.laneOf[l]][v] = uint8(bits >> uint(l) & 1)
		}
	}
	return b.hard
}
