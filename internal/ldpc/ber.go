package ldpc

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/rng"
)

// BERParams configures a Monte-Carlo bit-error-rate measurement over
// BPSK/AWGN (the board-to-board channel of Sec. II reduced to its AWGN
// core, as Sec. V assumes).
type BERParams struct {
	// Code under test (shared read-only across workers).
	Code *Code
	// Alg selects the BP variant.
	Alg Algorithm
	// Sched selects the message-passing schedule.
	Sched Schedule
	// MaxIter bounds BP iterations (per window position if windowed).
	MaxIter int
	// Window selects sliding-window decoding with that size; 0 decodes
	// the full code at once.
	Window int
	// EbN0DB is the operating point.
	EbN0DB float64
	// Rate used for the Eb/N0-to-noise conversion. Zero means the code's
	// design rate.
	Rate float64
	// TargetBitErrors is the bit-error stopping target (0 = 50).
	TargetBitErrors int
	// TargetFrameErrors is the frame-error stopping target (0 = 25).
	// Window-decoded convolutional codes fail in bursts, so a sound BER
	// estimate must accumulate enough independent frame events — the
	// simulation stops early only once BOTH error targets are reached.
	TargetFrameErrors int
	// MaxCodewords bounds the simulation (0 = 4000).
	MaxCodewords int
	// Seed makes the run reproducible independent of worker count.
	Seed uint64
	// Workers sets the parallelism (0 = GOMAXPROCS).
	Workers int
	// RelCI, when positive, selects adaptive stopping: the simulation
	// ends once the 95% confidence half-width of the BER estimate
	// (from the per-frame bit-error variance, since window-decoded
	// errors burst per frame) falls below RelCI times the estimate,
	// and the fixed error targets are ignored (MaxCodewords still
	// caps the spend, and a run without frame errors spends all of
	// it). The check runs at fixed batch boundaries, so the stopping
	// point does not depend on Workers.
	RelCI float64
	// DecisiveBER, when positive, stops the simulation early once the
	// 95% confidence interval of the BER estimate lies entirely above
	// or entirely below this threshold — enough evidence for a
	// threshold search to classify the operating point without running
	// the full codeword budget.
	DecisiveBER float64
}

func (p BERParams) defaults() BERParams {
	if p.MaxIter == 0 {
		p.MaxIter = 50
	}
	if p.Rate == 0 {
		p.Rate = p.Code.Rate()
	}
	if p.TargetBitErrors == 0 {
		p.TargetBitErrors = 50
	}
	if p.TargetFrameErrors == 0 {
		p.TargetFrameErrors = 25
	}
	if p.MaxCodewords == 0 {
		p.MaxCodewords = 4000
	}
	if p.Workers == 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	return p
}

// BERResult summarises a measurement.
type BERResult struct {
	BitErrors   int
	Bits        int
	Codewords   int
	FrameErrors int
	// BER is BitErrors/Bits (0 when no bits were simulated).
	BER float64
}

// NoiseSigma returns the AWGN standard deviation for BPSK at the given
// Eb/N0 (dB) and code rate: sigma^2 = 1 / (2 R Eb/N0).
func NoiseSigma(ebN0DB, rate float64) float64 {
	if rate <= 0 || rate >= 1 {
		panic(fmt.Sprintf("ldpc: rate %g outside (0,1)", rate))
	}
	ebN0 := math.Pow(10, ebN0DB/10)
	return math.Sqrt(1 / (2 * rate * ebN0))
}

// berBatch is the codeword batch between stopping checks. It is a fixed
// constant — not a function of Workers — so the simulated codeword count
// at every early stop is identical for any worker count.
const berBatch = 64

// SimulateBER transmits all-zero codewords (valid for any linear code on
// the output-symmetric BPSK/AWGN channel) and counts post-decoding bit
// errors. The run is deterministic for a fixed Seed regardless of
// Workers: codewords carry per-index random streams, workers own fixed
// contiguous sub-batches, and every stopping rule is evaluated only at
// batch boundaries. Decoding runs through the lockstep BatchDecoder —
// each worker decodes its sub-batch in one DecodeBatch/Decode call —
// which is bit-exact with the scalar per-codeword path.
func SimulateBER(p BERParams) BERResult {
	p = p.defaults()
	if p.Workers > berBatch {
		p.Workers = berBatch
	}
	sigma := NoiseSigma(p.EbN0DB, p.Rate)
	llrScale := 2 / (sigma * sigma)
	n := p.Code.NumVars

	var res BERResult
	var errsSumSq float64 // sum of squared per-frame bit errors

	results := make([]int, berBatch)
	var wg sync.WaitGroup

	// Each worker owns the contiguous codeword lanes
	// [worker*per, worker*per+per) of every batch, so its decoder and
	// staging buffers are sized once and reused across batches.
	per := (berBatch + p.Workers - 1) / p.Workers
	batches := make([]*BatchDecoder, p.Workers)
	windows := make([]*WindowDecoder, p.Workers)
	lanes := make([][][]float64, p.Workers)
	for w := 0; w < p.Workers; w++ {
		if p.Window > 0 {
			windows[w] = NewWindowDecoder(p.Code, p.Window, p.Alg, p.MaxIter)
			windows[w].SetSchedule(p.Sched)
		} else {
			batches[w] = NewBatchDecoder(p.Code, p.Alg, p.MaxIter, per)
			batches[w].Sched = p.Sched
		}
		buf := make([]float64, per*n)
		rows := make([][]float64, per)
		for k := range rows {
			rows[k] = buf[k*n : (k+1)*n]
		}
		lanes[w] = rows
	}

	for start := 0; start < p.MaxCodewords && !berDone(p, res, errsSumSq); start += berBatch {
		count := berBatch
		if start+count > p.MaxCodewords {
			count = p.MaxCodewords - start
		}
		wg.Add(p.Workers)
		for w := 0; w < p.Workers; w++ {
			go func(worker int) {
				defer wg.Done()
				lo := worker * per
				hi := lo + per
				if hi > count {
					hi = count
				}
				if lo >= hi {
					return
				}
				rows := lanes[worker][:hi-lo]
				for i := lo; i < hi; i++ {
					stream := rng.New(p.Seed).Split(uint64(start+i) + 1)
					row := rows[i-lo]
					for v := range row {
						row[v] = llrScale * (1 + sigma*stream.Norm())
					}
				}
				var hards [][]uint8
				if p.Window > 0 {
					hards = windows[worker].DecodeBatch(rows)
				} else {
					hards = batches[worker].Decode(rows).Hard
				}
				for k, hard := range hards {
					errs := 0
					for _, b := range hard {
						if b != 0 {
							errs++
						}
					}
					results[lo+k] = errs
				}
			}(w)
		}
		wg.Wait()
		for i := 0; i < count; i++ {
			res.Codewords++
			res.Bits += n
			res.BitErrors += results[i]
			errsSumSq += float64(results[i]) * float64(results[i])
			if results[i] > 0 {
				res.FrameErrors++
			}
		}
	}
	if res.Bits > 0 {
		res.BER = float64(res.BitErrors) / float64(res.Bits)
	}
	return res
}

// berHalfWidth returns the 95% confidence half-width of the BER estimate
// from the per-frame bit-error variance (frames are the independent
// unit; bit errors within a frame are bursty and correlated). Returns
// +Inf until two frames exist.
func berHalfWidth(res BERResult, errsSumSq float64, bitsPerFrame int) float64 {
	f := float64(res.Codewords)
	if res.Codewords < 2 {
		return math.Inf(1)
	}
	mean := float64(res.BitErrors) / f
	variance := (errsSumSq - f*mean*mean) / (f - 1)
	if variance < 0 {
		variance = 0
	}
	return 1.96 * math.Sqrt(variance/f) / float64(bitsPerFrame)
}

// berDone evaluates the stopping rules on the accumulated statistics.
func berDone(p BERParams, res BERResult, errsSumSq float64) bool {
	if res.Bits == 0 {
		return false
	}
	ber := float64(res.BitErrors) / float64(res.Bits)
	hw := berHalfWidth(res, errsSumSq, p.Code.NumVars)
	// minAdaptiveFrameErrors guards the adaptive rules against variance
	// estimates built from too few error events.
	const minAdaptiveFrameErrors = 8

	if p.RelCI > 0 {
		// Adaptive mode: the confidence target is the stopping rule and
		// the fixed error targets are ignored (MaxCodewords still caps
		// the spend) — otherwise the legacy targets would always fire
		// first and the requested precision would never be delivered.
		// Only this rule stops a run early. A clean first stretch does
		// not: it is common for a code whose frame-error rate is a few
		// percent (64 clean frames at 6.6% FER is 1 run in 80), and
		// stopping there would report BER 0. A run that never errs
		// spends the whole MaxCodewords, so a reported 0 means no error
		// in that many frames.
		if res.FrameErrors >= minAdaptiveFrameErrors && ber > 0 && hw <= p.RelCI*ber {
			return true
		}
	} else if res.BitErrors >= p.TargetBitErrors && res.FrameErrors >= p.TargetFrameErrors {
		return true
	}

	if p.DecisiveBER > 0 {
		if res.FrameErrors >= minAdaptiveFrameErrors && ber-hw > p.DecisiveBER {
			return true // decisively above the threshold
		}
		// The below-threshold call needs the zero/low error count to be
		// informative. Errors arrive in multi-bit frame bursts, so "a
		// few expected bit errors" is not evidence — demand the same 3x
		// bit-error budget the search's conclusive cap uses, which at
		// the threshold BER corresponds to several expected error
		// frames even for bursty window decoding.
		if p.DecisiveBER*float64(res.Bits) >= 3*float64(p.TargetBitErrors) && ber+hw < p.DecisiveBER {
			return true // decisively below the threshold
		}
	}
	return false
}

// SearchParams configures a required-Eb/N0 search (the y-axis of
// Fig. 10).
type SearchParams struct {
	BERParams
	// TargetBER is the quality target (1e-5 in Fig. 10).
	TargetBER float64
	// LoDB and HiDB bracket the search (defaults 1 and 8 dB).
	LoDB, HiDB float64
	// TolDB is the search resolution (default 0.1 dB).
	TolDB float64
}

// RequiredEbN0 returns the smallest Eb/N0 (dB) at which the measured BER
// is at or below the target, found by bisection on the monotone BER
// curve. Returns NaN when even HiDB misses the target.
func RequiredEbN0(p SearchParams) float64 {
	if p.TargetBER <= 0 {
		panic("ldpc: target BER must be positive")
	}
	if p.LoDB == 0 && p.HiDB == 0 {
		p.LoDB, p.HiDB = 1, 8
	}
	if p.TolDB == 0 {
		p.TolDB = 0.1
	}
	measure := func(db float64) float64 {
		bp := p.BERParams.defaults()
		bp.EbN0DB = db
		// The search only needs to classify the point against the target,
		// so let the simulation stop as soon as its confidence interval
		// excludes the target BER.
		bp.DecisiveBER = p.TargetBER
		// Conclusive-evidence cap: once enough bits have been simulated
		// that a true BER at the target would have produced ~3x the bit
		// error budget, the point is decisively below target — no need
		// to run to the configured codeword cap.
		conclusive := int(3*float64(bp.TargetBitErrors)/(p.TargetBER*float64(bp.Code.NumVars))) + 1
		if conclusive < bp.MaxCodewords {
			bp.MaxCodewords = conclusive
		}
		r := SimulateBER(bp)
		return r.BER
	}
	if measure(p.HiDB) > p.TargetBER {
		return math.NaN()
	}
	lo, hi := p.LoDB, p.HiDB
	if measure(lo) <= p.TargetBER {
		return lo
	}
	for hi-lo > p.TolDB {
		mid := 0.5 * (lo + hi)
		if measure(mid) <= p.TargetBER {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
