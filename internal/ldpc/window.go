package ldpc

import "fmt"

// frozenLLR caps the magnitude of the soft decision feedback for decided
// blocks during window decoding.
const frozenLLR = 60.0

func clampLLR(x, lim float64) float64 {
	if x > lim {
		return lim
	}
	if x < -lim {
		return -lim
	}
	return x
}

// WindowDecoder implements the sliding window decoder of Fig. 9: a
// window of W consecutive coupled code blocks is decoded with belief
// propagation, the oldest (target) block is decided and frozen, and the
// window slides one position. The decoder also reads the mcc previously
// decided blocks, exactly as the schematic shows; its structural latency
// is W*N*nv*R information bits (Eq. 4), independent of the termination
// length L.
type WindowDecoder struct {
	code *Code
	// W is the window size in blocks, between mcc+1 and L.
	W   int
	dec *Decoder
	llr []float64
	// batch serves DecodeBatch (created lazily, sized to the first
	// batch and regrown on demand).
	batch *BatchDecoder
	out   [][]uint8
}

// NewWindowDecoder wraps a terminated convolutional code. maxIter bounds
// the BP iterations per window position.
func NewWindowDecoder(code *Code, w int, alg Algorithm, maxIter int) *WindowDecoder {
	if code.Positions < 2 || code.Memory < 1 {
		panic("ldpc: window decoding needs a coupled (convolutional) code")
	}
	if w < code.Memory+1 || w > code.Positions {
		panic(fmt.Sprintf("ldpc: window size %d outside [mcc+1=%d, L=%d]",
			w, code.Memory+1, code.Positions))
	}
	return &WindowDecoder{
		code: code,
		W:    w,
		dec:  NewDecoder(code, alg, maxIter),
		llr:  make([]float64, code.NumVars),
	}
}

// SetSchedule selects the message-passing schedule of the per-window BP.
func (w *WindowDecoder) SetSchedule(s Schedule) { w.dec.Sched = s }

// Decode runs the sliding window over the received channel LLRs and
// returns hard decisions for all code bits. The input is not modified.
func (w *WindowDecoder) Decode(channelLLR []float64) []uint8 {
	c := w.code
	if len(channelLLR) != c.NumVars {
		panic(fmt.Sprintf("ldpc: LLR length %d, want %d", len(channelLLR), c.NumVars))
	}
	copy(w.llr, channelLLR)
	out := make([]uint8, c.NumVars)

	L := c.Positions
	for t := 0; t < L; t++ {
		chkHi := t + w.W
		if chkHi > L+c.Memory {
			chkHi = L + c.Memory
		}
		varLo := t - c.Memory
		if varLo < 0 {
			varLo = 0
		}
		varHi := t + w.W
		if varHi > L {
			varHi = L
		}
		res := w.dec.decodeRange(w.llr,
			t*c.CheckBlockLen, chkHi*c.CheckBlockLen,
			varLo*c.BlockLen, varHi*c.BlockLen)

		// Decide the target block t and feed its posterior back as the
		// effective channel information for the read-back region of the
		// following windows. Soft feedback (rather than a hard +-inf
		// freeze) keeps a wrong decision weak enough for later windows
		// to resist it, which truncates error-propagation bursts.
		post := w.dec.Posterior()
		for v := t * c.BlockLen; v < (t+1)*c.BlockLen; v++ {
			out[v] = res.Hard[v]
			w.llr[v] = clampLLR(post[v], frozenLLR)
		}
	}
	return out
}

// DecodeBatch runs the sliding window over a batch of received channel
// LLR vectors in lockstep, one BatchDecoder lane per codeword, and
// returns per-lane hard decisions (row l for llrs[l]). Each lane's
// result is bit-identical to Decode(llrs[l]): every window position
// decodes all lanes with the same schedule, freezes the target block
// per lane from that lane's own posterior, and feeds the soft decision
// back into that lane's channel column. The slot permutation the
// flooding decode leaves behind carries over from one window position
// to the next and is never undone: the feedback writes each slot's own
// column, and output rows are found through the slot map. len(llrs)
// must be in [1, MaxBatchLanes]. The returned rows are owned by the
// decoder and valid until its next DecodeBatch call; the inputs are not
// modified.
func (w *WindowDecoder) DecodeBatch(llrs [][]float64) [][]uint8 {
	c := w.code
	n := len(llrs)
	if n < 1 || n > MaxBatchLanes {
		panic(fmt.Sprintf("ldpc: batch size %d outside [1, %d]", n, MaxBatchLanes))
	}
	if w.batch == nil || w.batch.lanes < n {
		w.batch = NewBatchDecoder(c, w.dec.Alg, w.dec.MaxIter, n)
	}
	b := w.batch
	b.Alg, b.Sched, b.MaxIter = w.dec.Alg, w.dec.Sched, w.dec.MaxIter
	b.load(llrs)
	if cap(w.out) < n {
		w.out = append(w.out[:cap(w.out)], make([][]uint8, n-cap(w.out))...)
	}
	w.out = w.out[:n]
	for l := range w.out {
		if w.out[l] == nil {
			w.out[l] = make([]uint8, c.NumVars)
		}
	}

	s := b.stride
	L := c.Positions
	for t := 0; t < L; t++ {
		chkHi := t + w.W
		if chkHi > L+c.Memory {
			chkHi = L + c.Memory
		}
		varLo := t - c.Memory
		if varLo < 0 {
			varLo = 0
		}
		varHi := t + w.W
		if varHi > L {
			varHi = L
		}
		b.decodeRangeBatch(
			t*c.CheckBlockLen, chkHi*c.CheckBlockLen,
			varLo*c.BlockLen, varHi*c.BlockLen, n)

		// Decide the target block t per lane and feed each lane's
		// posterior back as its effective channel information, exactly
		// as the scalar path does.
		for v := t * c.BlockLen; v < (t+1)*c.BlockLen; v++ {
			bits := b.hardBits[v]
			row := b.posterior[v*s : v*s+n]
			ch := b.chLLR[v*s : v*s+n]
			for l := 0; l < n; l++ {
				w.out[b.laneOf[l]][v] = uint8(bits >> uint(l) & 1)
				ch[l] = clampLLR(row[l], frozenLLR)
			}
		}
	}
	return w.out
}

// WindowLatencyBits is the structural latency of the window decoder in
// information bits (Eq. 4): TWD = W * N * nv * R.
func WindowLatencyBits(w, n, nv int, rate float64) float64 {
	return float64(w) * float64(n) * float64(nv) * rate
}

// BlockLatencyBits is the structural latency of a block code in
// information bits (Eq. 5): TB = N * nv * R.
func BlockLatencyBits(n, nv int, rate float64) float64 {
	return float64(n) * float64(nv) * rate
}
